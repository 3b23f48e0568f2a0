import gc
import re
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from sbadmm import algorithms
from sbadmm.algorithms import (MetricTrace, OuterConfig, ProblemOps,
                               ProblemSpec, _solve_x, admm2_simplified_step,
                               admm2_step, canonical_init,
                               quadratic_closed_form_step, run, sb_step,
                               solution_state)
from sbadmm.grids import ConvolutionKernel, ImageGrid
from sbadmm.inner import (InnerSolveConfig, PcgBreakdownError,
                          SingularHessianError, circulant_preconditioner,
                          pcg_solve)
from sbadmm.operators import sparse_blur_matrix, sparse_diff_matrix
from sbadmm.prox import Potential, prox_array
from conftest import (ODD_AND_DEGENERATE_SHAPES, fitting_kernel, make_ops,
                      random_problem)

EXACT = InnerSolveConfig(mode="circulant_exact")


def solve_reference(problem):
    # normal equations of the quadratic problem, dense
    A = sparse_blur_matrix(problem.kernel, problem.y.shape).toarray()
    C = sparse_diff_matrix(problem.y.shape, problem.mask_mode).toarray()
    a = problem.potential.alpha
    x = np.linalg.solve(A.T @ A + a * (C.T @ C), A.T @ problem.y.values.ravel())
    return x.reshape(problem.y.shape)


def test_config_validation():
    with pytest.raises(ValueError):
        OuterConfig(rho=0.0)
    with pytest.raises(ValueError):
        OuterConfig(eta=-1.0)
    with pytest.raises(ValueError):
        OuterConfig(algorithm="admm3")
    with pytest.raises(ValueError):
        OuterConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        OuterConfig(x0_mode="random")


def test_problem_validation(rng):
    p = random_problem(rng)
    with pytest.raises(ValueError):
        ProblemSpec(y=p.y, kernel=p.kernel, mask_mode="wrap", potential=p.potential)
    with pytest.raises(ValueError):
        ProblemSpec(y=p.y, kernel=p.kernel, mask_mode="masked", potential=None)


def test_canonical_init_identities(rng):
    problem = random_problem(rng)
    ops = ProblemOps(problem)
    rho, eta = 2.5, 0.7
    st = canonical_init(ops, rho, eta)
    assert np.all(st.x == 0.0)
    assert np.allclose(st.u + rho * st.d, ops.y, atol=1e-14)
    assert np.all(st.e == 0.0)  # v0 = 0 so e0 = 0
    st = canonical_init(ops, rho, eta, x0_mode="data")
    assert np.array_equal(st.x, ops.y)
    assert np.allclose(st.u + rho * st.d, ops.y, atol=1e-12)
    a = problem.potential.alpha
    assert np.allclose(a * st.v + eta * st.e, 0.0, atol=1e-12)


def test_zero_data_stays_zero(rng):
    problem = random_problem(rng)
    problem = ProblemSpec(y=ImageGrid(np.zeros((8, 8))), kernel=problem.kernel,
                          mask_mode="periodic", potential=problem.potential)
    ops = ProblemOps(problem)
    st = canonical_init(ops, 1.0, 0.5)
    for _ in range(3):
        st = sb_step(st, ops, 0.5, EXACT)
        assert np.all(st.x == 0.0) and np.all(st.v == 0.0)
        st2 = quadratic_closed_form_step(st, ops, 1.0, 0.5)
        assert np.all(st2.x == 0.0)


def test_sb_equals_admm2_at_rho_one(rng):
    problem = random_problem(rng)
    ops = ProblemOps(problem)
    eta = 0.4
    s1 = canonical_init(ops, 1.0, eta)
    s2 = canonical_init(ops, 1.0, eta)
    for _ in range(10):
        s1 = sb_step(s1, ops, eta, EXACT)
        s2 = admm2_step(s2, ops, 1.0, eta, EXACT)
        for a, b in ((s1.x, s2.x), (s1.v, s2.v), (s1.e, s2.e)):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_three_admm_variants_agree(rng):
    problem = random_problem(rng)
    ops = ProblemOps(problem)
    rho, eta = 2.5, 0.7
    states = [canonical_init(ops, rho, eta) for _ in range(3)]
    for _ in range(20):
        states[0] = admm2_step(states[0], ops, rho, eta, EXACT)
        states[1] = admm2_simplified_step(states[1], ops, rho, eta, EXACT)
        states[2] = quadratic_closed_form_step(states[2], ops, rho, eta)
        for other in states[1:]:
            assert np.max(np.abs(states[0].x - other.x)) <= 1e-12
            assert np.max(np.abs(states[0].v - other.v)) <= 1e-12
            assert np.max(np.abs(states[0].u - other.u)) <= 1e-12


def test_elimination_identities_along_run(rng):
    problem = random_problem(rng)
    ops = ProblemOps(problem)
    a = problem.potential.alpha
    rho, eta = 3.0, 0.2
    st = canonical_init(ops, rho, eta)
    yn = np.linalg.norm(ops.y)
    for _ in range(25):
        st = admm2_step(st, ops, rho, eta, EXACT)
        assert np.linalg.norm(st.u + rho * st.d - ops.y) <= 1e-10 * yn
        scale = max(np.linalg.norm(a * st.v), 1.0)
        assert np.linalg.norm(a * st.v + eta * st.e) <= 1e-10 * scale


def test_one_admm2_step_matches_dense_transcription(rng):
    problem = random_problem(rng, shape=(4, 4))
    ops = ProblemOps(problem)
    rho, eta = 1.7, 0.35
    a = problem.potential.alpha
    st = canonical_init(ops, rho, eta, x0_mode="data")
    nxt = admm2_step(st, ops, rho, eta, EXACT)

    A = sparse_blur_matrix(problem.kernel, (4, 4)).toarray()
    C = sparse_diff_matrix((4, 4), problem.mask_mode).toarray()
    y = ops.y.ravel()
    H = rho * (A.T @ A) + eta * (C.T @ C)
    rhs = rho * A.T @ (st.u.ravel() + st.d.ravel()) \
        + eta * C.T @ (st.v.ravel() + st.e.ravel())
    x = np.linalg.solve(H, rhs)
    u = (rho * (A @ x - st.d.ravel()) + y) / (rho + 1.0)
    v = prox_array(problem.potential, (C @ x) - st.e.ravel(), eta)
    d = st.d.ravel() - A @ x + u
    e = st.e.ravel() - C @ x + v
    assert np.allclose(nxt.x.ravel(), x, atol=1e-12)
    assert np.allclose(nxt.u.ravel(), u, atol=1e-12)
    assert np.allclose(nxt.v.ravel(), v, atol=1e-12)
    assert np.allclose(nxt.d.ravel(), d, atol=1e-12)
    assert np.allclose(nxt.e.ravel(), e, atol=1e-12)


def test_solution_state_is_fixed_point(rng):
    problem = random_problem(rng)
    ops = ProblemOps(problem)
    rho, eta = 1.9, 0.6
    x_hat = solve_reference(problem)
    st = solution_state(ops, x_hat, rho, eta)
    for stepped in (sb_step(st, ops, eta, EXACT) if rho == 1.0 else None,
                    admm2_step(st, ops, rho, eta, EXACT),
                    admm2_simplified_step(st, ops, rho, eta, EXACT),
                    quadratic_closed_form_step(st, ops, rho, eta)):
        if stepped is None:
            continue
        scale = max(np.linalg.norm(x_hat), 1.0)
        assert np.linalg.norm(stepped.x - st.x) <= 1e-10 * scale
        assert np.linalg.norm(stepped.v - st.v) <= 1e-10 * scale
        assert np.linalg.norm(stepped.u - st.u) <= 1e-10 * scale


def test_solution_state_rejects_nonquadratic(rng):
    problem = random_problem(rng, kind="l1")
    ops = ProblemOps(problem)
    with pytest.raises(ValueError):
        solution_state(ops, np.zeros((8, 8)), 1.0, 1.0)


def test_closed_form_requires_quadratic_periodic(rng):
    ops = ProblemOps(random_problem(rng, kind="l1"))
    st = canonical_init(ops, 1.0, 1.0)
    with pytest.raises(ValueError):
        quadratic_closed_form_step(st, ops, 1.0, 1.0)
    ops = ProblemOps(random_problem(rng, mask_mode="masked"))
    st = canonical_init(ops, 1.0, 1.0)
    with pytest.raises(ValueError):
        quadratic_closed_form_step(st, ops, 1.0, 1.0)


def test_exact_inner_requires_periodic(rng):
    # exact x-updates need a periodic blur kernel, in either mask mode
    for mode in ("periodic", "masked"):
        problem = random_problem(rng, mask_mode=mode)
        problem = ProblemSpec(y=problem.y,
                              kernel=fitting_kernel(rng, (8, 8), "masked"),
                              mask_mode=mode, potential=problem.potential)
        config = OuterConfig(rho=1.0, eta=0.25, max_iterations=1, inner=EXACT)
        with pytest.raises(ValueError, match="periodic blur kernel"):
            run(problem, config)
    # masked C with a periodic kernel: (1, alpha) is optimal after one step
    problem = random_problem(rng, mask_mode="masked")
    config = OuterConfig(rho=1.0, eta=problem.potential.alpha,
                         max_iterations=2, inner=EXACT)
    trace = run(problem, config, reference=ImageGrid(solve_reference(problem)))
    assert trace.rel_cost_err[1] <= 1e-10


def test_exact_solve_matches_sparse_solve(rng):
    # the circulant division, plus the Woodbury wrap correction in masked
    # mode, against a sparse direct solve of the normal matrix
    for shape in ODD_AND_DEGENERATE_SHAPES + [(2, 3), (3, 2), (2, 2)]:
        for mode in ("periodic", "masked"):
            kernel = fitting_kernel(rng, shape)
            ops = make_ops(kernel, shape, mode)
            A = sparse_blur_matrix(kernel, shape)
            C = sparse_diff_matrix(shape, mode)
            for rho, eta in ((1.0, 0.25), (2.5, 0.03), (0.3, 2.0)):
                normal = (rho * (A.T @ A) + eta * (C.T @ C)).tocsc()
                b = rng.standard_normal(shape)
                x = ops.solve(b, rho, eta).ravel()
                want = spla.spsolve(normal, b.ravel())
                assert (np.linalg.norm(normal @ x - b.ravel())
                        <= 1e-12 * np.linalg.norm(b))
                assert (np.linalg.norm(x - want)
                        <= 1e-12 * np.linalg.norm(want))


def test_capacitance_is_factored_once_per_parameters(rng, monkeypatch):
    calls = []
    real = algorithms.cho_factor
    monkeypatch.setattr(algorithms, "cho_factor",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    ops = ProblemOps(random_problem(rng, mask_mode="masked"))
    state = canonical_init(ops, 1.0, 0.5)
    for _ in range(2):
        state = admm2_step(state, ops, 1.0, 0.5, EXACT)
    assert len(calls) == 1
    for _ in range(2):
        state = admm2_step(state, ops, 2.0, 0.5, EXACT)
    assert len(calls) == 2


def test_exact_solve_singular_names_frequency():
    # a zero-sum kernel and omega both vanish at frequency (0, 0)
    zero_sum = ConvolutionKernel(np.array([[1.0, -1.0]]), (0, 0))
    for mode in ("periodic", "masked"):
        ops = make_ops(zero_sum, (4, 5), mode)
        with pytest.raises(SingularHessianError, match=r"\(0, 0\)"):
            ops.solve(np.ones((4, 5)), 1.0, 0.5)


def test_run_trace_contract(rng):
    problem = random_problem(rng)
    ref = ImageGrid(solve_reference(problem))
    config = OuterConfig(rho=1.0, eta=problem.potential.alpha,
                         max_iterations=0, inner=EXACT)
    trace = run(problem, config, reference=ref)
    assert len(trace) == 1  # only the initial point

    config = OuterConfig(rho=1.0, eta=problem.potential.alpha,
                         max_iterations=5, inner=EXACT)
    trace = run(problem, config, reference=ref)
    assert len(trace) == 6
    assert trace.iterations == list(range(6))
    # (1, alpha) with exact solves reaches the optimum in one iteration
    assert trace.rel_cost_err[1] <= 1e-10
    assert trace.iterations_to(1e-10) == 1
    assert trace.iterations_to(-1.0) is None
    assert min(trace.rel_cost_err) >= -1e-12


def test_run_without_reference_gives_nan_metrics(rng):
    problem = random_problem(rng)
    trace = run(problem, OuterConfig(rho=1.0, eta=0.25, max_iterations=2,
                                     inner=EXACT))
    assert np.isnan(trace.rel_cost_err).all()
    assert np.isnan(trace.rmsd).all()
    assert np.isfinite(trace.cost).all()


def test_trace_csv_round_trip(tmp_path, rng):
    problem = random_problem(rng)
    ref = ImageGrid(solve_reference(problem))
    config = OuterConfig(rho=2.0, eta=0.5, max_iterations=4, inner=EXACT)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(problem, config, reference=ref).to_csv(p1)
    run(problem, config, reference=ref).to_csv(p2)
    with open(p1) as f1, open(p2) as f2:
        c1, c2 = f1.read(), f2.read()
    assert c1 == c2  # deterministic given identical config
    assert c1.splitlines()[0] == "iter,cost,rel_cost_err,rmsd,inner_residual"
    assert len(c1.splitlines()) == 6


def test_run_with_data_start(rng):
    problem = random_problem(rng)
    ref = ImageGrid(solve_reference(problem))
    config = OuterConfig(rho=2.0, eta=0.5, max_iterations=10, inner=EXACT,
                         x0_mode="data")
    trace = run(problem, config, reference=ref)
    assert trace.rel_cost_err[-1] < trace.rel_cost_err[0]


@pytest.mark.parametrize("algorithm, mask_mode", [
    ("sb", "periodic"), ("sb", "masked"),
    ("admm2", "periodic"), ("admm2", "masked"),
    ("admm2_simplified", "periodic"), ("admm2_simplified", "masked"),
    ("quadratic_closed_form", "periodic")])
def test_trace_cost_is_cost_of_each_iterate(rng, algorithm, mask_mode):
    # run() takes A x and C x from the step; each logged cost must be the
    # cost of that iterate recomputed from scratch (A x, not u, in admm2)
    problem = random_problem(rng, shape=(8, 9), mask_mode=mask_mode)
    inner = EXACT if mask_mode == "periodic" else InnerSolveConfig(
        mode="pcg", pcg_iterations=3)
    rho, eta = 2.0, 0.5
    config = OuterConfig(rho=rho, eta=eta, max_iterations=6, inner=inner,
                         algorithm=algorithm, x0_mode="data")
    trace = run(problem, config)
    ops = ProblemOps(problem)
    step = {"sb": lambda s: sb_step(s, ops, eta, inner),
            "admm2": lambda s: admm2_step(s, ops, rho, eta, inner),
            "admm2_simplified": lambda s: admm2_simplified_step(
                s, ops, rho, eta, inner),
            "quadratic_closed_form": lambda s: quadratic_closed_form_step(
                s, ops, rho, eta)}[algorithm]
    state = canonical_init(ops, rho, eta, "data")
    for k in range(len(trace)):
        if k:
            state = step(state)
        want = ops.cost(state.x)
        assert abs(trace.cost[k] - want) <= 1e-12 * abs(want)


def test_rank_deficiency_is_reported(rng):
    # a pure difference kernel annihilates constants, as does C
    from sbadmm.grids import ConvolutionKernel
    kernel = ConvolutionKernel(np.array([[1.0, -1.0]]), (0, 0))
    problem = ProblemSpec(y=ImageGrid(np.ones((6, 6))), kernel=kernel,
                          mask_mode="periodic",
                          potential=Potential.quadratic(0.25))
    ops = ProblemOps(problem)
    assert not ops.rank.full_rank
    # run() carries the check on its trace, for restore's warning
    trace = run(problem, OuterConfig(max_iterations=0, inner=EXACT))
    assert not trace.full_rank


def spy_pcg(monkeypatch):
    """Record the correction and the result of each PCG solve of _solve_x."""
    calls = []
    real = algorithms.pcg_solve

    def spy(*args, **kwargs):
        calls.append([kwargs.get("correction"), None])
        calls[-1][1] = real(*args, **kwargs)
        return calls[-1][1]

    monkeypatch.setattr(algorithms, "pcg_solve", spy)
    return calls


def test_split_pcg_matches_generic_pcg(rng, monkeypatch):
    # H p = M p - eta W p, with M p kept beside p, against PCG applying the
    # Hessian by composition; residual histories agree to 1e-12 of |rhs|,
    # and one may stop early only on a residual that is already that small
    calls = spy_pcg(monkeypatch)
    for shape in ODD_AND_DEGENERATE_SHAPES:
        for mode in ("periodic", "masked"):
            ops = make_ops(fitting_kernel(rng, shape), shape, mode)
            rho, eta = rng.uniform(0.1, 3.0, size=2)
            rhs = rng.standard_normal(shape)
            warm = rng.standard_normal(shape)
            pre = circulant_preconditioner(ops.lam, ops.om, rho, eta)
            tol = 1e-12 * np.linalg.norm(rhs)
            for steps in (1, 3, 50):
                cfg = InnerSolveConfig(mode="pcg", pcg_iterations=steps)
                x, _ = _solve_x(ops, rho, eta, rhs, warm, cfg)
                correction, split = calls[-1]
                assert correction is not None
                generic = pcg_solve(
                    lambda z: rho * ops.At(ops.A(z)) + eta * ops.Ct(ops.C(z)),
                    rhs, cfg, warm_start=warm, preconditioner=pre)
                assert (np.linalg.norm(x - generic.x)
                        <= 1e-12 * np.linalg.norm(generic.x))
                a, b = split.residual_norms, generic.residual_norms
                n = min(len(a), len(b))
                assert np.allclose(a[:n], b[:n], rtol=0.0, atol=tol)
                assert max(a[n:] + b[n:], default=0.0) <= tol


def test_generic_pcg_when_preconditioner_is_not_exact(rng, monkeypatch):
    # a masked-valid kernel (A'A is not circulant), a zero-sum kernel (the
    # floor raises frequency (0, 0)) and no preconditioner keep the Hessian
    # apply inside the loop: the result, or the exception, of plain PCG
    calls = spy_pcg(monkeypatch)
    for shape in ODD_AND_DEGENERATE_SHAPES:
        taps = [[1.0, -1.0]] if shape[1] > 1 else [[1.0], [-1.0]]
        zero_sum = ConvolutionKernel(np.array(taps), (0, 0))
        for kernel, precond in ((fitting_kernel(rng, shape, "masked"), "circulant"),
                                (zero_sum, "circulant"),
                                (fitting_kernel(rng, shape), "none")):
            for mode in ("periodic", "masked"):
                ops = make_ops(kernel, shape, mode)
                rho, eta = rng.uniform(0.1, 3.0, size=2)
                assert ops.hessian_spectra(rho, eta)[2] == (kernel is zero_sum)
                rhs = rng.standard_normal(shape)
                warm = rng.standard_normal(shape)
                pre = None
                if precond == "circulant":
                    pre = circulant_preconditioner(ops.lam, ops.om, rho, eta)
                for steps in (1, 3, 50):
                    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=steps,
                                           preconditioner=precond)
                    try:
                        want = pcg_solve(lambda z: ops.gram(z, rho, eta), rhs,
                                         cfg, warm_start=warm,
                                         preconditioner=pre)
                    except PcgBreakdownError as err:
                        with pytest.raises(PcgBreakdownError,
                                           match=re.escape(str(err))):
                            _solve_x(ops, rho, eta, rhs, warm, cfg)
                    else:
                        x, _ = _solve_x(ops, rho, eta, rhs, warm, cfg)
                        assert np.array_equal(x, want.x)
                    assert calls[-1][0] is None


def test_masked_pcg3_step_call_counts(rng, monkeypatch):
    # real FFT pairs: A' of the right-hand side, the initial residual, the
    # two preconditioner applies PCG-3 uses, and A x; C' of the right-hand
    # side and C x once each; no Hessian apply inside the PCG loop
    ops = ProblemOps(random_problem(rng, shape=(16, 16), mask_mode="masked"))
    state = canonical_init(ops, 1.0, 0.5)
    counts = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((np.fft, "rfft2"), (np.fft, "irfft2"),
                         (algorithms, "difference"),
                         (algorithms, "difference_transpose")):
        count(module, name)
    admm2_step(state, ops, 1.0, 0.5, InnerSolveConfig(mode="pcg"))
    assert counts == {"rfft2": 6, "irfft2": 6, "difference": 1,
                      "difference_transpose": 1}


def test_problem_ops_is_freed_without_cycle_collection(rng):
    # a callable cached on ProblemOps that refers back to it would keep every
    # instance alive until the cycle collector runs
    problem = random_problem(rng, mask_mode="masked")
    gc.disable()
    try:
        ops = ProblemOps(problem)
        for inner in (InnerSolveConfig(mode="pcg"), EXACT):
            admm2_step(canonical_init(ops, 1.0, 0.5), ops, 1.0, 0.5, inner)
        ref = weakref.ref(ops)
        del ops
        assert ref() is None
    finally:
        gc.enable()
