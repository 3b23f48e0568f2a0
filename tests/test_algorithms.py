import copy
import gc
import itertools
import math
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from sbadmm import algorithms, inner, operators
from sbadmm.algorithms import (MetricTrace, OuterConfig, ProblemOps,
                               ProblemSpec, SolverState, _solve_x,
                               admm2_simplified_step, admm2_step,
                               canonical_init,
                               quadratic_closed_form_step, run, sb_step,
                               solution_state)
from sbadmm.grids import ConvolutionKernel, ImageGrid
from sbadmm.inner import (InnerSolveConfig, PcgBreakdownError,
                          SingularHessianError, circulant_preconditioner,
                          hessian_spectrum, pcg_solve)
from sbadmm.operators import sparse_blur_matrix, sparse_diff_matrix
from sbadmm.prox import KINDS, Potential, potential_value_array, prox_array
from conftest import (ODD_AND_DEGENERATE_SHAPES, fitting_kernel, make_ops,
                      random_problem)
from hypothesis import example, given, strategies
from test_spectral import PROPERTY, modes, seeds, shapes

EXACT = InnerSolveConfig(mode="circulant_exact")
PCG3 = InnerSolveConfig(mode="pcg", pcg_iterations=3)


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
    for inf in ({"rho": np.inf}, {"eta": np.inf}):
        with pytest.raises(ValueError, match="positive and finite"):
            OuterConfig(**inf)
    with pytest.raises(ValueError):
        OuterConfig(algorithm="admm3")
    with pytest.raises(ValueError):
        OuterConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        OuterConfig(x0_mode="random")
    with pytest.raises(ValueError, match="split Bregman fixes rho = 1"):
        OuterConfig(rho=2.0, algorithm="sb")
    assert OuterConfig(algorithm="sb").rho == 1.0


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
    assert np.allclose(ops.unhat(st.u_hat) + rho * ops.unhat(st.d_hat), ops.y,
                       atol=1e-14)
    assert np.all(st.e == 0.0)  # v0 = 0 so e0 = 0
    st = canonical_init(ops, rho, eta, x0_mode="data")
    assert np.array_equal(st.x, ops.y)
    assert np.allclose(ops.unhat(st.u_hat) + rho * ops.unhat(st.d_hat), ops.y,
                       atol=1e-12)
    assert np.allclose(ops.unhat(st.u_hat), ops.A(ops.y), atol=1e-12)
    a = problem.potential.alpha
    assert np.allclose(a * st.v + eta * st.e, 0.0, atol=1e-12)
    # the solution state at x = y is the data start, field for field
    sol = solution_state(ops, ops.y, rho, eta)
    for f in fields(SolverState):
        assert np.array_equal(getattr(sol, f.name), getattr(st, f.name)), \
            f.name


def test_zero_data_stays_zero(rng):
    problem = random_problem(rng)
    problem = ProblemSpec(y=ImageGrid(np.zeros((8, 8))), kernel=problem.kernel,
                          mask_mode="periodic", potential=problem.potential)
    ops = ProblemOps(problem)
    st = canonical_init(ops, 1.0, 0.5)
    for _ in range(3):
        st = sb_step(st, ops, 0.5, EXACT)
        assert np.all(st.x == 0.0) and np.all(st.v == 0.0)
        st2 = quadratic_closed_form_step(copy.deepcopy(st), ops, 1.0, 0.5)
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
            assert np.max(np.abs(ops.unhat(states[0].u_hat)
                                 - ops.unhat(other.u_hat))) <= 1e-12


def test_elimination_identities_along_run(rng):
    problem = random_problem(rng)
    ops = ProblemOps(problem)
    a = problem.potential.alpha
    rho, eta = 3.0, 0.2
    st = canonical_init(ops, rho, eta)
    yn = np.linalg.norm(ops.y)
    for _ in range(25):
        st = admm2_step(st, ops, rho, eta, EXACT)
        u, d = ops.unhat(st.u_hat), ops.unhat(st.d_hat)
        assert np.linalg.norm(u + rho * d - ops.y) <= 1e-10 * yn
        # the same invariant on the half spectrum, where the steps keep it
        assert (np.linalg.norm(st.u_hat + rho * st.d_hat - ops.y_hat)
                <= 1e-10 * yn)
        scale = max(np.linalg.norm(a * st.v), 1.0)
        assert np.linalg.norm(a * st.v + eta * st.e) <= 1e-10 * scale


STEPS = {"sb": lambda st, ops, rho, eta: sb_step(st, ops, eta, EXACT),
         "admm2": lambda st, ops, rho, eta: admm2_step(st, ops, rho, eta, EXACT),
         "admm2_simplified": lambda st, ops, rho, eta: admm2_simplified_step(
             st, ops, rho, eta, EXACT)}


@pytest.mark.parametrize("algorithm", sorted(STEPS))
@pytest.mark.parametrize("kind", ["quadratic", "l1", "huber", "fair"])
def test_split_update_masks_only_the_wrap_slices(rng, algorithm, kind):
    # from a dual that is nonzero everywhere: masked mode keeps v = 0 and
    # the old e off the mask, periodic mode updates every entry; on the
    # updated entries v = prox(C x - e) and e' = e - C x + v
    rho, eta = 1.5, 0.4
    for mode in ("masked", "periodic"):
        ops = ProblemOps(random_problem(rng, shape=(6, 7), mask_mode=mode,
                                        alpha=0.3, kind=kind, threshold=0.2))
        st = canonical_init(ops, rho, eta)
        st.e = rng.standard_normal(st.e.shape)
        out = STEPS[algorithm](copy.deepcopy(st), ops, rho, eta)
        on = ops.mask
        assert np.all(out.v[~on] == 0.0)
        assert np.array_equal(out.e[~on], st.e[~on])
        cx = ops.C(out.x)
        want_v = prox_array(ops.potential, cx - st.e, eta)
        assert np.allclose(out.v[on], want_v[on], rtol=0.0, atol=1e-12)
        want_e = st.e - cx + out.v
        assert np.allclose(out.e[on], want_e[on], rtol=0.0, atol=1e-12)
        if mode == "periodic":
            assert on.all()
            assert np.all(out.v != 0.0) or kind == "l1"


@pytest.mark.parametrize("algorithm", sorted(STEPS))
@pytest.mark.parametrize("mode", ["periodic", "masked"])
def test_quadratic_dual_invariant_after_twenty_steps(rng, algorithm, mode):
    ops = ProblemOps(random_problem(rng, shape=(6, 7), mask_mode=mode))
    a = ops.potential.alpha
    rho, eta = 2.0, 0.3
    st = canonical_init(ops, rho, eta)
    for _ in range(20):
        st = STEPS[algorithm](st, ops, rho, eta)
    scale = np.linalg.norm(a * st.v)
    assert np.linalg.norm(a * st.v + eta * st.e) <= 1e-12 * scale


@PROPERTY
@given(shapes, modes, seeds, strategies.sampled_from(KINDS),
       strategies.sampled_from(["sb", "admm2"]),
       strategies.sampled_from([0, 1, 3]), strategies.floats(0.1, 3.0),
       strategies.floats(0.1, 3.0))
@example((1, 6), "masked", 0, "huber", "admm2", 3, 1.7, 0.35)
@example((7, 1), "masked", 0, "fair", "sb", 1, 1.0, 0.35)
@example((4, 4), "periodic", 0, "quadratic", "admm2", 0, 1.7, 0.35)
@example((2, 2), "masked", 0, "quadratic", "sb", 3, 1.0, 0.35)
@example((2, 2), "masked", 0, "quadratic", "sb", 0, 1.0, 0.35)
@example((1, 2), "masked", 5, "quadratic", "sb", 3, 1.0, 1.0)
@example((1, 2), "masked", 0, "quadratic", "sb", 0, 1.0, 0.35)
@example((2, 1), "masked", 0, "quadratic", "sb", 3, 1.0, 0.35)
@example((2, 1), "masked", 0, "quadratic", "sb", 0, 1.0, 0.35)
def test_one_admm2_step_matches_dense_transcription(shape, mode, seed, kind,
                                                    algorithm, pcg_steps, rho,
                                                    eta):
    # one admm2 step, or one sb step (admm2 at rho = 1), from the data start
    # against the same step written out with dense A and C: x exactly, or
    # by pcg_solve on the dense Hessian preconditioned by 1 / M (pcg_steps >
    # 0), then u, v, d, e and what the state carries beside them: hat(x),
    # hat(A x) and Phi(C x).  On the masked grids of four pixels or fewer
    # the Krylov space runs out within the step, and r'z or p'Hp then
    # comes out at rounding level, of either sign: the masked examples
    # there raised PcgBreakdownError before such values counted as
    # convergence, all but the first
    rng = np.random.default_rng(seed)
    threshold = rng.uniform(0.1, 2.0) if kind in ("huber", "fair") else None
    pot = Potential(kind, rng.uniform(0.05, 2.0), threshold)
    ops = ProblemOps(ProblemSpec(y=ImageGrid(rng.standard_normal(shape)),
                                 kernel=fitting_kernel(rng, shape),
                                 mask_mode=mode, potential=pot))
    inner_cfg = InnerSolveConfig(mode="pcg", pcg_iterations=pcg_steps) \
        if pcg_steps else EXACT
    if algorithm == "sb":
        rho = 1.0
    st0 = canonical_init(ops, rho, eta, x0_mode="data")
    nxt = (sb_step(copy.deepcopy(st0), ops, eta, inner_cfg)
           if algorithm == "sb"
           else admm2_step(copy.deepcopy(st0), ops, rho, eta, inner_cfg))

    A = sparse_blur_matrix(ops.problem.kernel, shape).toarray()
    C = sparse_diff_matrix(shape, mode).toarray()
    y = ops.y.ravel()
    H = rho * (A.T @ A) + eta * (C.T @ C)
    u0, d0 = ops.unhat(st0.u_hat).ravel(), ops.unhat(st0.d_hat).ravel()
    e0 = st0.e.ravel()
    rhs = rho * A.T @ (u0 + d0) + eta * C.T @ (st0.v.ravel() + e0)
    if pcg_steps:
        x = pcg_solve(lambda z: (H @ z.ravel()).reshape(shape),
                      rhs.reshape(shape), inner_cfg, warm_start=st0.x,
                      preconditioner=circulant_preconditioner(
                          ops.lam, ops.om, rho, eta)).x.ravel()
    else:
        x = np.linalg.solve(H, rhs)
    u = (rho * (A @ x - d0) + y) / (rho + 1.0)
    d = d0 - A @ x + u
    if algorithm == "sb":
        u, d = A @ x, y - A @ x
    v = prox_array(pot, C @ x - e0, eta)
    e = e0 - C @ x + v
    x_hat = ops.hat(x.reshape(shape))
    scale = max(np.linalg.norm(x), np.linalg.norm(y), 1.0)
    for got, want in ((nxt.x, x), (ops.unhat(nxt.u_hat), u), (nxt.v, v),
                      (ops.unhat(nxt.d_hat), d), (nxt.e, e), (nxt.x_hat, x_hat),
                      (nxt.ax_hat, ops.transfer * x_hat)):
        assert np.linalg.norm(got.ravel() - want.ravel()) <= 1e-11 * scale
    phi = potential_value_array(pot, ops.C(nxt.x))
    assert abs(nxt.phi - phi) <= 1e-12 * abs(phi)


def test_dividing_by_a_real_scalar_is_a_multiply_of_the_float_view(rng):
    # numpy divides a complex array by c + 0j with Smith's formula, which
    # at a zero imaginary part multiplies by 1 / c; the steps divide by
    # rho and rho + 1 through the float view on that ground, so a numpy
    # that rounds otherwise fails here
    shape = (96, 65)
    for rho in (1e-3, 0.05, 1.0 / 3.0, 1.0, 2.0, 20.0, 1e4):
        for c in (rho, rho + 1.0):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = z.copy()
            algorithms._divide(got, c)
            want = z.copy()
            want /= c
            assert np.array_equal(got, want), c
            assert np.array_equal(got, z / c), c


def test_solution_state_is_fixed_point(rng):
    problem = random_problem(rng)
    ops = ProblemOps(problem)
    rho, eta = 1.9, 0.6
    x_hat = solve_reference(problem)
    st = solution_state(ops, x_hat, rho, eta)
    for stepped in (sb_step(copy.deepcopy(st), ops, eta, EXACT)
                    if rho == 1.0 else None,
                    admm2_step(copy.deepcopy(st), ops, rho, eta, EXACT),
                    admm2_simplified_step(copy.deepcopy(st), ops, rho, eta,
                                          EXACT),
                    quadratic_closed_form_step(copy.deepcopy(st), ops, rho,
                                               eta)):
        if stepped is None:
            continue
        scale = max(np.linalg.norm(x_hat), 1.0)
        assert np.linalg.norm(stepped.x - st.x) <= 1e-10 * scale
        assert np.linalg.norm(stepped.v - st.v) <= 1e-10 * scale
        assert (np.linalg.norm(ops.unhat(stepped.u_hat) - ops.unhat(st.u_hat))
                <= 1e-10 * scale)


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


def test_one_exact_masked_step_at_rho_1_eta_alpha_is_optimal(rng):
    # exact x-updates on masked C: (1, alpha) is optimal after one step
    problem = random_problem(rng, mask_mode="masked")
    config = OuterConfig(rho=1.0, eta=problem.potential.alpha,
                         max_iterations=2, inner=EXACT)
    trace = run(problem, config, reference=ImageGrid(solve_reference(problem)))
    assert trace.rel_cost_err[1] <= 1e-10


def test_exact_solve_matches_sparse_solve(rng):
    # the circulant division, and in masked mode PCG run to rounding
    # level, against a sparse direct solve of the normal matrix
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


def test_the_hessian_is_set_up_once_per_parameters(rng, monkeypatch):
    # a masked exact run builds M and 1 / M (hessian_spectrum) and the
    # diagonals of G = U' M^-1 U once per (rho, eta), however many outer
    # and PCG steps use them
    calls = []
    real = algorithms.hessian_spectrum
    monkeypatch.setattr(algorithms, "hessian_spectrum",
                        lambda *a: calls.append(1) or real(*a))
    ops = ProblemOps(random_problem(rng, mask_mode="masked"))
    state = canonical_init(ops, 1.0, 0.5)
    diagonals = []
    for rho, built in ((1.0, 1), (2.0, 2)):
        for _ in range(2):
            state = admm2_step(state, ops, rho, 0.5, EXACT)
            diagonals.append(ops._gram_diagonal)
        assert len(calls) == built
    assert diagonals[0] is diagonals[1] and diagonals[2] is diagonals[3]
    assert diagonals[1] is not diagonals[2]


def test_an_exact_masked_solve_stops_by_its_tolerance(rng, monkeypatch):
    # M^-1 H is the identity off an (h + w + 1)-dimensional subspace, so
    # PCG run to rounding level from a warm start stops by its tolerance
    # within h + w + 1 steps, each applying G once, and leaves a residual
    # at rounding level.  Measured 2-14 steps, relative residuals below
    # 2.2e-15
    steps = []
    real = ProblemOps._wrap_gram
    monkeypatch.setattr(ProblemOps, "_wrap_gram",
                        lambda self, v: steps.append(1) or real(self, v))
    for shape in ODD_AND_DEGENERATE_SHAPES:
        ops = make_ops(fitting_kernel(rng, shape), shape, "masked")
        for rho, eta in ((1.0, 0.25), (2.5, 0.03), (0.3, 2.0)):
            rhs, warm = (ops.hat(rng.standard_normal(shape)) for _ in range(2))
            steps.clear()
            _, rel = _solve_x(ops, rho, eta, rhs, warm, EXACT)
            assert 0 < len(steps) <= sum(shape) + 1, (shape, len(steps))
            assert rel <= 1e-14, (shape, rel)
            # a zero right-hand side has the solution 0 at once
            f, rel = _solve_x(ops, rho, eta, np.zeros_like(rhs), warm, EXACT)
            assert not f.any() and rel == 0.0


def test_an_exact_masked_solve_raises_at_its_step_cap(rng, monkeypatch):
    # with a tolerance of 0 only r'z < RZ_UNDERFLOW could stop the loop
    # early, which these solves do not reach (measured r'z 5e-134 to 1e-42
    # after the last step), so each ends at its cap of h + w + 1 steps
    monkeypatch.setattr(algorithms, "EXACT_TOLERANCE", 0.0)
    for shape in ODD_AND_DEGENERATE_SHAPES:
        ops = make_ops(fitting_kernel(rng, shape), shape, "masked")
        with pytest.raises(PcgBreakdownError,
                           match="after %d steps" % (sum(shape) + 1)):
            ops.solve(rng.standard_normal(shape), 1.0, 0.25)


def test_a_non_finite_iterate_names_the_steps_taken(rng, monkeypatch):
    # a right-hand side at frequency (0, 0) alone, which U does not see,
    # is solved exactly by one PCG step, which applies G once; 1 / M made
    # infinite there by that apply leaves x non-finite, and the error names
    # the one step taken, not the cap h + w + 1
    real = ProblemOps._wrap_gram

    def poisoning(self, v):
        g = real(self, v)
        self._spectra[1][0, 0] = np.inf
        return g

    monkeypatch.setattr(ProblemOps, "_wrap_gram", poisoning)
    ops = make_ops(fitting_kernel(rng, (6, 8)), (6, 8), "masked")
    rhs = ops.hat(np.ones((6, 8)))
    with np.errstate(invalid="ignore"), pytest.raises(
            PcgBreakdownError, match="non-finite iterate after 1 steps"):
        _solve_x(ops, 1.0, 0.5, rhs, np.zeros_like(rhs), EXACT)


def test_exact_solve_singular_names_frequency():
    # a zero-sum kernel and omega both vanish at frequency (0, 0); exact and
    # PCG x-updates both refuse the singular Hessian
    zero_sum = ConvolutionKernel(np.array([[1.0, -1.0]]), (0, 0))
    for mode in ("periodic", "masked"):
        ops = make_ops(zero_sum, (4, 5), mode)
        with pytest.raises(SingularHessianError, match=r"\(0, 0\)"):
            ops.solve(np.ones((4, 5)), 1.0, 0.5)
        pcg = InnerSolveConfig(mode="pcg", pcg_iterations=3)
        with pytest.raises(SingularHessianError, match=r"\(0, 0\)"):
            _solve_x(ops, 1.0, 0.5, ops.hat(np.ones((4, 5))),
                     ops.hat(np.zeros((4, 5))), pcg)


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


def test_zero_reference_cost_gives_absolute_cost_error(rng):
    # zero data: the zero reference costs 0, so rel_cost_err is c - 0
    # rather than the NaN of 0 / 0
    problem = random_problem(rng)
    zero = ProblemSpec(y=ImageGrid(np.zeros((8, 8))), kernel=problem.kernel,
                       mask_mode="masked", potential=problem.potential)
    trace = run(zero, OuterConfig(rho=1.0, eta=0.25, max_iterations=3,
                                  inner=EXACT),
                reference=ImageGrid(np.zeros((8, 8))))
    assert trace.rel_cost_err == trace.cost == [0.0] * 4
    assert trace.rmsd == [0.0] * 4


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
    # cost of that iterate recomputed from scratch (A x, not u, in admm2).
    # A quadratic run steps in coefficient form, with no transform, so the
    # rmsd column and the final image are checked against real-domain
    # stepping too, on every shape, from both starts, and with masked C
    # by PCG-3 and exact x-updates; on the 1 x n and n x 1 grids a wrap
    # slice of masked C is a whole plane.  Measured worst: 4.1e-16
    # relative in rmsd and 6.8e-16 of max |x| in the image (1.1e-15 and
    # 9.9e-16 over 30 other seeds)
    rmsd_tol, image_tol = 5e-15, 5e-15
    inners = [EXACT] if mask_mode == "periodic" else [PCG3, EXACT]
    rho, eta = 1.0 if algorithm == "sb" else 2.0, 0.5
    for shape, inner in itertools.product(
            [(8, 9)] + ODD_AND_DEGENERATE_SHAPES, inners):
        kernel = fitting_kernel(rng, shape)
        problem = ProblemSpec(y=ImageGrid(rng.standard_normal(shape)),
                              kernel=kernel, mask_mode=mask_mode,
                              potential=Potential.quadratic(0.25))
        ref = rng.standard_normal(shape)
        ops = ProblemOps(problem)
        step = {"sb": lambda s: sb_step(s, ops, eta, inner),
                "admm2": lambda s: admm2_step(s, ops, rho, eta, inner),
                "admm2_simplified": lambda s: admm2_simplified_step(
                    s, ops, rho, eta, inner),
                "quadratic_closed_form": lambda s: quadratic_closed_form_step(
                    s, ops, rho, eta)}[algorithm]
        for x0_mode in ("zero", "data"):
            config = OuterConfig(rho=rho, eta=eta, max_iterations=6,
                                 inner=inner, algorithm=algorithm,
                                 x0_mode=x0_mode)
            trace = run(problem, config, reference=ImageGrid(ref))
            state = canonical_init(ops, rho, eta, x0_mode)
            for k in range(len(trace)):
                if k:
                    state = step(state)
                want = ops.cost(state.x)
                assert abs(trace.cost[k] - want) <= 1e-12 * abs(want)
                rmsd = math.sqrt(np.mean((state.x - ref) ** 2))
                assert abs(trace.rmsd[k] - rmsd) <= rmsd_tol * rmsd, (
                    shape, inner.mode, x0_mode, k)
            image_err = np.max(np.abs(trace.final_image.values - state.x))
            assert image_err <= image_tol * np.max(np.abs(state.x)), (
                shape, inner.mode, x0_mode)


@pytest.mark.parametrize("kind", ["quadratic", "l1", "huber", "fair"])
def test_parseval_cost_matches_the_real_space_cost(rng, kind):
    # the data term 1/2 |hat(y) - hat(A x)|^2 weighs column 0 (and w/2 for
    # even w) once and every other column twice; against 1/2 |y - A x|^2 +
    # Phi(C x) with A and C as sparse matrices
    pot = Potential(kind, 0.3, 0.7 if kind in ("huber", "fair") else None)
    for shape in ODD_AND_DEGENERATE_SHAPES + [(1, 2), (2, 1), (64, 64)]:
        for mode in ("periodic", "masked"):
            kernel = fitting_kernel(rng, shape)
            ops = ProblemOps(ProblemSpec(y=ImageGrid(rng.standard_normal(shape)),
                                         kernel=kernel, mask_mode=mode,
                                         potential=pot))
            x = rng.standard_normal(shape)
            res = ops.y.ravel() - sparse_blur_matrix(kernel, shape) @ x.ravel()
            cx = (sparse_diff_matrix(shape, mode) @ x.ravel()).reshape(
                (2,) + shape)
            want = 0.5 * res @ res + potential_value_array(pot, cx)
            for got in (ops.cost(x),
                        ops.cost(x, ops.transfer * ops.hat(x),
                                 potential_value_array(pot, ops.C(x)))):
                assert abs(got - want) <= 1e-13 * abs(want), (shape, mode)


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


def test_split_pcg_matches_generic_pcg(rng):
    # PCG in the wrap subspace of the half spectrum against PCG applying the
    # Hessian by composition on real arrays: x agrees to 1e-12 relative and
    # the final residual to 1e-12 of |rhs|
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
                f, rel = _solve_x(ops, rho, eta, ops.hat(rhs), ops.hat(warm),
                                  cfg)
                generic = pcg_solve(
                    lambda z: rho * ops.At(ops.A(z)) + eta * ops.Ct(ops.C(z)),
                    rhs, cfg, warm_start=warm, preconditioner=pre)
                assert (np.linalg.norm(ops.unhat(f) - generic.x)
                        <= 1e-12 * np.linalg.norm(generic.x))
                assert abs(rel * np.linalg.norm(rhs)
                           - generic.residual_norms[-1]) <= tol


def dense_wrap_gram(ops, rho, eta):
    # G = U' M^-1 U column by column, on real images: U c adds c_row to
    # the first column and subtracts it from the last, and c_col likewise
    # on the rows; U'z = (z[:, 0] - z[:, -1], z[0] - z[-1])
    h, w = ops.shape
    columns = []
    for c in np.eye(h + w):
        z = np.zeros(ops.shape)
        z[:, 0] += c[:h]
        z[:, -1] -= c[:h]
        z[0] += c[h:]
        z[-1] -= c[h:]
        z = inner.circulant_solve_array(ops.lam, ops.om, rho, eta, z)
        columns.append(np.concatenate((z[:, 0] - z[:, -1], z[0] - z[-1])))
    return np.array(columns).T


def test_wrap_gram_matches_the_capacitance_matrix(rng):
    # the matrix-free G = U' M^-1 U of PCG against G = I/eta - S, S the
    # capacitance matrix of Woodbury's identity, built densely from its
    # definition, on the wrap vectors of real wraps c = (c_row, c_col);
    # several (rho, eta) per problem, as G's cached diagonals must follow
    # them
    for shape in ODD_AND_DEGENERATE_SHAPES:
        h, w = shape
        ops = make_ops(fitting_kernel(rng, shape), shape, "masked")
        for _ in range(3):
            rho, eta = rng.uniform(0.1, 3.0, size=2)
            ops.hessian_spectra(rho, eta)
            dense = dense_wrap_gram(ops, rho, eta)
            c = rng.standard_normal(h + w)
            v = ops._wrap_gram(np.concatenate(
                (np.fft.fft(c[:h], norm="ortho"),
                 np.fft.rfft(c[h:]) * ops._col_scale)))
            got = np.concatenate((np.fft.ifft(v[:h], norm="ortho").real,
                                  np.fft.irfft(v[h:] / ops._col_scale, n=w)))
            want = dense @ c
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_pcg_rejects_a_non_finite_right_hand_side(rng):
    # a NaN or an infinity in the right-hand side makes its norm
    # non-finite, which is checked before any product; only masked mode
    # runs a PCG loop, fixed or exact, periodic mode divides by M.  The
    # entry is set on the half spectrum, as the FFT of an infinity warns
    pcg = InnerSolveConfig(mode="pcg", pcg_iterations=3)
    ops = make_ops(fitting_kernel(rng, (6, 8)), (6, 8), "masked")
    for bad in (np.nan, np.inf, -np.inf):
        for inner_cfg in (pcg, EXACT):
            rhs = ops.hat(rng.standard_normal((6, 8)))
            rhs[2, 3] = bad
            with pytest.raises(PcgBreakdownError,
                               match="non-finite right-hand side"):
                _solve_x(ops, 1.0, 0.5, rhs, ops.hat(np.zeros((6, 8))),
                         inner_cfg)


def test_periodic_pcg_traces_equal_exact_traces(rng):
    # periodic C leaves no wraps, H = M, so a PCG x-update is the division
    # by M of the exact solve, to the bit, whatever its step count
    problem = random_problem(rng, shape=(8, 9), mask_mode="periodic")
    ref = ImageGrid(solve_reference(problem))
    columns = ("iterations", "cost", "rel_cost_err", "rmsd", "inner_residual")
    for algorithm in ("sb", "admm2", "admm2_simplified"):
        traces = [run(problem, OuterConfig(
            rho=1.0 if algorithm == "sb" else 2.0, eta=0.5, max_iterations=6,
            inner=inner_cfg, algorithm=algorithm), reference=ref)
            for inner_cfg in (EXACT, InnerSolveConfig(mode="pcg",
                                                      pcg_iterations=1),
                              InnerSolveConfig(mode="pcg", pcg_iterations=3))]
        for trace in traces[1:]:
            for name in columns:
                assert getattr(trace, name) == getattr(traces[0], name), \
                    (algorithm, name)
            assert np.array_equal(trace.final_image.values,
                                  traces[0].final_image.values)


def test_cached_warm_start_spectrum_matches_a_fresh_one(rng):
    # every state carries hat(x), the next PCG step's warm start: the
    # initial and solution states and every step, exact or PCG
    pcg = InnerSolveConfig(mode="pcg", pcg_iterations=3)
    steps = (lambda s, ops, c: sb_step(s, ops, 0.5, c),
             lambda s, ops, c: admm2_step(s, ops, 2.0, 0.5, c),
             lambda s, ops, c: admm2_simplified_step(s, ops, 2.0, 0.5, c))
    for mode in ("periodic", "masked"):
        ops = ProblemOps(random_problem(rng, shape=(9, 12), mask_mode=mode))
        states = [canonical_init(ops, 2.0, 0.5, x0) for x0 in ("zero", "data")]
        states.append(solution_state(ops, rng.standard_normal(ops.shape),
                                     2.0, 0.5))
        for step in steps:
            for inner_cfg in (EXACT, pcg):
                states.append(step(copy.deepcopy(states[1]), ops,
                                   inner_cfg))
                states.append(step(copy.deepcopy(states[-1]), ops,
                                   inner_cfg))
        if mode == "periodic":
            states.append(quadratic_closed_form_step(
                copy.deepcopy(states[1]), ops, 2.0, 0.5))
        for state in states:
            assert np.allclose(state.x_hat, ops.hat(state.x), rtol=0.0,
                               atol=1e-14 * max(np.linalg.norm(state.x), 1.0))


def test_pcg_preconditioner_is_exact_on_near_singular_kernel():
    # a kernel summing to 1e-5 makes M tiny at frequency (0, 0) only, where
    # W vanishes, so 1 / M stays an exact preconditioner there: PCG-1 with
    # periodic C cuts the Hessian-norm error of the warm start by 1e3, and
    # masked PCG-3 cuts it to 1e-2, against a dense solve
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for shape in ODD_AND_DEGENERATE_SHAPES:
            taps = [[1.0, -1.0 + 1e-5]] if shape[1] > 1 \
                else [[1.0], [-1.0 + 1e-5]]
            kernel = ConvolutionKernel(np.array(taps), (0, 0))
            A = sparse_blur_matrix(kernel, shape).toarray()
            for mode, steps, bound in (("periodic", 1, 1e-3),
                                       ("masked", 3, 1e-2)):
                ops = make_ops(kernel, shape, mode)
                C = sparse_diff_matrix(shape, mode).toarray()
                rho, eta = rng.uniform(0.1, 3.0, size=2)
                hessian = rho * (A.T @ A) + eta * (C.T @ C)
                rhs = rng.standard_normal(shape)
                warm = rng.standard_normal(shape)
                want = np.linalg.solve(hessian, rhs.ravel())
                cfg = InnerSolveConfig(mode="pcg", pcg_iterations=steps)
                f, _ = _solve_x(ops, rho, eta, ops.hat(rhs), ops.hat(warm),
                                cfg)
                errors = [np.sqrt(e @ hessian @ e) for e in
                          (warm.ravel() - want, ops.unhat(f).ravel() - want)]
                assert errors[1] <= bound * errors[0], (seed, shape, mode)


def test_masked_pcg3_step_call_counts(rng, monkeypatch):
    # real 2-D FFTs, all through the library's own pair: rfft2 of C'(v + e)
    # and irfft2 of x.  u, d, A x and the warm start stay on the half
    # spectrum, as does the solve itself, exact or PCG, periodic or masked,
    # in every step variant.  C' of the right-hand side and C x once each
    counts = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((operators, "rfft2"), (operators, "irfft2"),
                         (inner, "rfft2"), (inner, "irfft2"),
                         (algorithms, "rfft2"), (algorithms, "irfft2"),
                         (algorithms, "difference"),
                         (algorithms, "difference_transpose")):
        count(module, name)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy's two-array real 2-D FFT")

    for name in ("rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, forbidden)
    pcg = InnerSolveConfig(mode="pcg")
    steps = {"sb": lambda s, ops, c: sb_step(s, ops, 0.5, c),
             "admm2": lambda s, ops, c: admm2_step(s, ops, 1.0, 0.5, c),
             "admm2_simplified": lambda s, ops, c: admm2_simplified_step(
                 s, ops, 1.0, 0.5, c),
             "quadratic_closed_form": lambda s, ops, c:
                 quadratic_closed_form_step(s, ops, 1.0, 0.5)}
    cases = [(name, mode, solve)
             for name in ("sb", "admm2", "admm2_simplified")
             for mode, solve in (("masked", pcg), ("periodic", EXACT),
                                 ("masked", EXACT))]
    cases.append(("quadratic_closed_form", "periodic", EXACT))
    for name, mode, solve in cases:
        ops = ProblemOps(random_problem(rng, shape=(16, 16), mask_mode=mode))
        # the first step builds the cached spectra of M, of y and the
        # diagonals of G, once per (rho, eta); count the second
        state = steps[name](canonical_init(ops, 1.0, 0.5), ops, solve)
        counts.clear()
        steps[name](state, ops, solve)
        assert counts == {"rfft2": 1, "irfft2": 1, "difference": 1,
                          "difference_transpose": 1}, (name, mode)


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


VARIANTS = {"sb": lambda s, ops, c: sb_step(s, ops, 0.5, c),
            "admm2": lambda s, ops, c: admm2_step(s, ops, 2.0, 0.5, c),
            "admm2_simplified": lambda s, ops, c: admm2_simplified_step(
                s, ops, 2.0, 0.5, c),
            "quadratic_closed_form": lambda s, ops, c:
                quadratic_closed_form_step(s, ops, 2.0, 0.5)}
VARIANT_CASES = [(name, mode, solve)
                 for name in ("sb", "admm2", "admm2_simplified")
                 for mode in ("periodic", "masked") for solve in (EXACT, PCG3)]
VARIANT_CASES.append(("quadratic_closed_form", "periodic", EXACT))
ARRAY_FIELDS = [f.name for f in fields(SolverState)
                if f.name not in ("phi", "k", "inner_residual", "data_term")]


def assert_no_shared_memory(state):
    arrays = [(name, getattr(state, name)) for name in ARRAY_FIELDS]
    for i, (name, a) in enumerate(arrays):
        for other, b in arrays[:i]:
            assert not np.shares_memory(a, b), (name, other)


@pytest.mark.parametrize("algorithm, mode, inner_cfg", VARIANT_CASES)
def test_a_step_writes_over_the_state_it_is_given(rng, algorithm, mode,
                                                  inner_cfg):
    # a step returns the state it is given, every field, x_hat included,
    # the array the state held; no two fields share memory, before or
    # after; phi is Phi of C x
    ops = ProblemOps(random_problem(rng, shape=(6, 7), mask_mode=mode))
    for state in (canonical_init(ops, 2.0, 0.5),
                  canonical_init(ops, 2.0, 0.5, "data"),
                  solution_state(ops, rng.standard_normal(ops.shape), 2.0,
                                 0.5)):
        assert_no_shared_memory(state)
        for k in range(1, 3):
            held = {name: getattr(state, name) for name in ARRAY_FIELDS}
            assert VARIANTS[algorithm](state, ops, inner_cfg) is state
            assert state.k == k
            for name in ARRAY_FIELDS:
                assert getattr(state, name) is held[name], name
            assert_no_shared_memory(state)
            want = potential_value_array(ops.potential, ops.C(state.x))
            assert abs(state.phi - want) <= 1e-12 * abs(want)


def traced_peak(call):
    """tracemalloc's peak of one call above the memory traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["quadratic", "l1", "huber"])
def test_a_step_allocates_a_few_half_spectra(rng, kind):
    # after a warm-up step has filled the caches of ProblemOps, one step's
    # tracemalloc peak above its start.  Every grid-sized array is a field
    # of the state or of ProblemOps, so what is left is scratch: a row
    # block of the vertical term of C' or of the potential's value, and
    # the buffer numpy's ufuncs cast the real factor of a complex-by-real
    # product into, 8192 entries at most; at 96x128 a block and that
    # buffer each hold a whole array, an image or a half spectrum.  Fair
    # is left out: its prox builds several temporaries of its own.
    # Measured 1.02-1.21 half spectra; 2.97-3.21 when each step allocated
    # its new hat(x) and PCG its residual, 9.9 (sb) to 11.9
    # (admm2_simplified, the closed form) before the steps wrote over
    # their state
    shape = (96, 128)
    half = shape[0] * (shape[1] // 2 + 1) * np.dtype(complex).itemsize
    for algorithm, mode, inner_cfg in VARIANT_CASES:
        if algorithm == "quadratic_closed_form" and kind != "quadratic":
            continue
        ops = ProblemOps(random_problem(rng, shape=shape, mask_mode=mode,
                                        kind=kind, threshold=0.5))
        step = VARIANTS[algorithm]
        state = step(canonical_init(ops, 2.0, 0.5), ops, inner_cfg)
        peak = traced_peak(lambda: step(state, ops, inner_cfg))
        assert peak <= 1.5 * half, (algorithm, mode, inner_cfg.mode,
                                    peak / half)


@pytest.mark.parametrize("kind", ["l1", "huber"])
def test_the_cost_and_the_potential_value_allocate_a_block(rng, kind):
    # after a warm-up call has cached hat(y) and the row-block buffers, the
    # cost of an iterate given hat(A x) and Phi(C x) allocates nothing of
    # grid size, and Phi of a difference field allocates one row block of
    # an image plane at a time: at 256x256, 64 of its 256 rows.  When the
    # potential took one plane at a time it allocated a whole image, and
    # the cost given C x a half spectrum beside it.  Measured 376 bytes and
    # 1.01 blocks
    shape = (256, 256)
    for mode in ("periodic", "masked"):
        ops = ProblemOps(random_problem(rng, shape=shape, mask_mode=mode,
                                        kind=kind, threshold=0.5))
        state = canonical_init(ops, 2.0, 0.5, "data")
        ops.cost(state.x, state.ax_hat, state.phi)
        peak = traced_peak(lambda: ops.cost(state.x, state.ax_hat, state.phi))
        assert peak <= 4096, (mode, peak)
        peak = traced_peak(lambda: potential_value_array(ops.potential,
                                                         state.v))
        assert peak <= 1.05 * operators.BLOCK_BYTES, (mode, peak)


def test_a_masked_pcg_run_holds_its_state_and_little_else(rng):
    # the tracemalloc peak of a whole masked 256x256 Huber admm2 run with a
    # reference, set-up included, PCG-3 or exact; Huber, as a quadratic
    # run keeps no real field (see below): the state, 9 half spectra (x 1,
    # v and e 2 each, u, d, hat(x) and hat(A x)); the transfer, hat(y), M
    # and 1 / M, 3 more; the two row-block buffers, 0.49; and the scratch
    # of one blocked sweep, the vertical term of C', 0.25.  Measured 12.9
    # half spectra; 19.4 when the state kept C x, ProblemOps hat(A'), a
    # scratch half spectrum and the half spectra of lambda and omega, and
    # PCG made its residual and z0 whole; 20.5 for the exact run when it
    # factored the capacitance matrix densely
    shape = (256, 256)
    half = shape[0] * (shape[1] // 2 + 1) * np.dtype(complex).itemsize
    for inner_cfg in (PCG3, EXACT):
        problem = random_problem(rng, shape=shape, mask_mode="masked",
                                 kind="huber", threshold=0.5)
        reference = ImageGrid(rng.standard_normal(shape))
        config = OuterConfig(rho=2.0, eta=0.5, max_iterations=3,
                             inner=inner_cfg)
        trace = []
        peak = traced_peak(lambda: trace.append(run(problem, config,
                                                    reference)))
        assert len(trace[0]) == 4
        assert peak <= 13 * half, (inner_cfg.mode, peak / half)


QUADRATIC_RUNS = [(algorithm, "periodic", EXACT)
                  for algorithm in algorithms.ALGORITHMS]
QUADRATIC_RUNS += [(algorithm, "masked", inner_cfg)
                   for algorithm in ("sb", "admm2", "admm2_simplified")
                   for inner_cfg in (PCG3, EXACT)]


def test_a_quadratic_run_holds_half_spectra_only(rng):
    # the tracemalloc peak of a whole 256x256 quadratic run with a
    # reference, set-up included: the state, 5 half spectra (hat(x),
    # hat(A x), u, d, and v in coefficient form); the transfer, hat(y),
    # hat(ref), and M and 1 / M, 4 more, or with periodic C P and A, 4.5;
    # the two row-block buffers, 0.49; and a step's transients, with masked
    # C the wrap vectors of PCG too, 0.09.  With periodic C the peak comes
    # as P and A are built, from M and omega, 1 more.  The real x0 of the
    # first record is dropped before the first step.  A real x, a (2, h, w)
    # field or a whole-grid omega held through the iterations would add
    # 0.97, 1.94 or 0.5.  Measured 10.59 half spectra for each periodic run
    # and 10.03 for each masked one; 10.84 and 11.04 when the state kept e,
    # 12.81 and 12.89 when the steps went through real space
    shape = (256, 256)
    half = shape[0] * (shape[1] // 2 + 1) * np.dtype(complex).itemsize
    for algorithm, mode, inner_cfg in QUADRATIC_RUNS:
        problem = random_problem(rng, shape=shape, mask_mode=mode)
        reference = ImageGrid(rng.standard_normal(shape))
        config = OuterConfig(rho=1.0 if algorithm == "sb" else 2.0, eta=0.5,
                             max_iterations=3, inner=inner_cfg,
                             algorithm=algorithm)
        trace = []
        peak = traced_peak(lambda: trace.append(run(problem, config,
                                                    reference)))
        assert len(trace[0]) == 4
        bound = 11 if mode == "periodic" else 10.25
        assert peak <= bound * half, (algorithm, mode, inner_cfg.mode,
                                      peak / half)


def test_a_quadratic_run_makes_no_transform_per_step(rng, monkeypatch):
    # in coefficient form a run transforms x0, y and the reference before
    # its first step and the final image after its last, and nothing in
    # between, with either C and either x-update; a Huber run steps
    # through real space, one rfft2 of its C' term and one irfft2 of x a
    # step
    calls = []

    def counted(transform):
        def call(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return call

    for name in ("rfft2", "irfft2"):
        monkeypatch.setattr(algorithms, name,
                            counted(getattr(algorithms, name)))

    def transforms(kind, algorithm, mode, inner_cfg, iterations):
        problem = random_problem(rng, mask_mode=mode, kind=kind)
        config = OuterConfig(rho=1.0 if algorithm == "sb" else 2.0, eta=0.5,
                             max_iterations=iterations, inner=inner_cfg,
                             algorithm=algorithm)
        calls.clear()
        run(problem, config, ImageGrid(rng.standard_normal((8, 8))))
        return len(calls)

    for case in QUADRATIC_RUNS:
        assert transforms("quadratic", *case, 3) == 4, case
        assert transforms("quadratic", *case, 30) == 4, case
    for case in QUADRATIC_RUNS:
        if case[0] != "quadratic_closed_form":
            assert (transforms("huber", *case, 30)
                    - transforms("huber", *case, 3)) == 2 * 27, case


def coefficient_state(ops, rho, eta, x0_mode="zero"):
    """The state run() steps for a quadratic problem: the canonical start
    in coefficient form."""
    return algorithms._consistent_state(
        ops, algorithms._initial_x(ops, x0_mode), rho, eta, True)


def test_carried_wraps_match_fresh_ones(rng):
    # a masked coefficient-form state carries U'x, summed row block by row
    # block (three here) in the step that makes x, and U'n, mixed with it
    # as v is; after 1, 2 and 30 steps U'x and U'n match U' of the whole
    # half spectra.  Measured worst 2.3e-16 relative over five seeds
    for name, inner_cfg, x0_mode in itertools.product(
            ("sb", "admm2", "admm2_simplified"), (PCG3, EXACT),
            ("zero", "data")):
        ops = ProblemOps(random_problem(rng, shape=(40, 1024),
                                        mask_mode="masked"))
        assert len(ops._blocks) == 3
        state = coefficient_state(ops, 2.0, 0.5, x0_mode)
        for k in range(1, 31):
            state = VARIANTS[name](state, ops, inner_cfg)
            if k in (1, 2, 30):
                x_wraps, nu_wraps = state.wraps
                for carried, f in ((x_wraps, state.x_hat),
                                   (nu_wraps, state.v)):
                    fresh = ops._wrap_adjoint_hat(f)
                    assert (np.linalg.norm(carried - fresh)
                            <= 1e-14 * np.linalg.norm(fresh)), (
                        name, inner_cfg.mode, x0_mode, k)


def test_a_coefficient_state_stands_for_the_real_one(rng):
    # nu is the half spectrum of an image n with v = C n, and e, which a
    # coefficient-form state does not keep, is -(alpha/eta) v: after 1, 2
    # and 30 steps of each variant with either C, from both starts, against
    # the real-form steps.  Measured worst 6.7e-16 relative over five seeds
    alpha, rho, eta = 0.25, 2.0, 0.5
    for (name, mode, inner_cfg), x0_mode in itertools.product(
            VARIANT_CASES, ("zero", "data")):
        ops = ProblemOps(random_problem(rng, shape=(8, 9), mask_mode=mode,
                                        alpha=alpha))
        real = canonical_init(ops, rho, eta, x0_mode)
        state = coefficient_state(ops, rho, eta, x0_mode)
        for k in range(1, 31):
            real = VARIANTS[name](real, ops, inner_cfg)
            state = VARIANTS[name](state, ops, inner_cfg)
            if k in (1, 2, 30):
                assert state.e is None
                cn = ops.C(ops.unhat(state.v))
                for got, want in ((cn, real.v),
                                  (-(alpha / eta) * cn, real.e)):
                    assert (np.linalg.norm(got - want)
                            <= 1e-12 * np.linalg.norm(want)), (
                        name, mode, inner_cfg.mode, x0_mode, k)


def test_coefficient_spectra_divide_by_m(rng):
    # P M = (eta - alpha) omega and A M = conj(transfer) on the half
    # spectrum, cached once per (rho, eta), and rebuilt when they change.
    # Measured worst 3.1e-16 of the largest entry over five seeds
    for shape in ODD_AND_DEGENERATE_SHAPES:
        ops = make_ops(fitting_kernel(rng, shape), shape, "periodic")
        alpha = ops.potential.alpha
        omega = operators.diff_gram_half_spectrum(shape)
        pairs = [tuple(rng.uniform(0.1, 3.0, size=2)) for _ in range(3)]
        for rho, eta in pairs + pairs[:1]:
            p, a = ops.coefficient_spectra(rho, eta)
            assert ops.coefficient_spectra(rho, eta)[0] is p
            m = hessian_spectrum(*ops._half_spectra(), rho, eta)
            for got, want in ((p * m, (eta - alpha) * omega),
                              (a * m, np.conj(ops.transfer))):
                assert (np.max(np.abs(got - want))
                        <= 1e-14 * np.max(np.abs(want))), (shape, rho, eta)


def test_a_periodic_quadratic_run_refuses_a_singular_hessian():
    # a zero-sum kernel and omega both vanish at frequency (0, 0), and the
    # coefficient-form step builds P and A from M
    zero_sum = ConvolutionKernel(np.array([[1.0, -1.0]]), (0, 0))
    problem = ProblemSpec(y=ImageGrid(np.ones((4, 5))), kernel=zero_sum,
                          mask_mode="periodic",
                          potential=Potential.quadratic(0.25))
    for algorithm in algorithms.ALGORITHMS:
        config = OuterConfig(rho=1.0, eta=0.5, max_iterations=3,
                             algorithm=algorithm)
        with pytest.raises(SingularHessianError, match=r"\(0, 0\)"):
            run(problem, config)


def test_a_masked_coefficient_step_sweeps_its_row_blocks(rng, monkeypatch):
    # a masked coefficient-form PCG-3 step on a grid of several row blocks
    # makes its rank-2 wrap products inside the two sweeps of pcg_hat, 4 a
    # block (the right-hand side's wrap term, the warm start's, and those
    # of r and x), with no pass of its own for any of them, and takes U' of
    # no whole half spectrum, as U'x and U'n are carried from the last
    # step.  The parent made one of the 4 products in a pass of its own
    # (_add_wrap_hat) and took U' of a whole half spectrum 3 times a step
    calls = {name: [] for name in ("_wrap_hat_rows", "_add_wrap_hat",
                                   "_wrap_adjoint_hat")}
    for name, made in calls.items():
        real = getattr(ProblemOps, name)

        def counted(self, *args, real=real, made=made):
            made.append(1)
            return real(self, *args)

        monkeypatch.setattr(ProblemOps, name, counted)
    for name in ("sb", "admm2", "admm2_simplified"):
        ops = ProblemOps(random_problem(rng, shape=(48, 1024),
                                        mask_mode="masked"))
        blocks = len(ops._blocks)
        assert blocks == 4
        state = VARIANTS[name](coefficient_state(ops, 2.0, 0.5), ops, PCG3)
        for made in calls.values():
            made.clear()
        VARIANTS[name](state, ops, PCG3)
        assert {key: len(made) for key, made in calls.items()} == {
            "_wrap_hat_rows": 4 * blocks, "_add_wrap_hat": 0,
            "_wrap_adjoint_hat": 0}, name


def test_a_built_right_hand_side_solves_as_a_given_one(rng):
    # pcg_hat given a right-hand side b = f + hat(U c) as f, built block by
    # block, and the wrap vector c, with the warm start's wraps carried,
    # against pcg_hat given b whole: the same iterate and residual, to the
    # bit, as both add hat(U c) by the same product of the same block; and
    # each block is finished once, in order
    for shape in ODD_AND_DEGENERATE_SHAPES:
        ops = make_ops(fitting_kernel(rng, shape), shape, "masked")
        for steps in (3, None):
            rho, eta = rng.uniform(0.1, 3.0, size=2)
            f, x0 = (ops.hat(rng.standard_normal(shape)) for _ in range(2))
            c = ops._wrap_adjoint_hat(ops.hat(rng.standard_normal(shape)))
            given = ops._add_wrap_hat(c, f.copy())
            want, want_res = ops.pcg_hat(given, x0.copy(), rho, eta, steps)
            finished = []
            sweeps = algorithms._Sweeps(
                lambda rows, out, block, work: np.copyto(out, f[rows]),
                lambda rows, block, work: finished.append(rows),
                ops._hessian_wraps(x0, eta), c)
            got, res = ops.pcg_hat(np.empty_like(f), x0.copy(), rho, eta,
                                   steps, sweeps)
            assert finished == [rows for rows, _, _ in ops._blocks]
            assert np.array_equal(got, want) and res == want_res, (shape,
                                                                   steps)


def test_tiny_masked_runs_finish(rng):
    # on masked grids of six pixels or fewer a 1x1 kernel leaves PCG a
    # Krylov space that runs out within the x-update, and r'z and p'Hp
    # then come out at rounding level, of either sign: such a value counts
    # as convergence and keeps the iterate.  24 of these 60 runs raised
    # PcgBreakdownError before, every variant on 1x2, 2x1 and 2x2
    kernel = ConvolutionKernel(np.ones((1, 1)), (0, 0))
    for shape in ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2)):
        problem = ProblemSpec(y=ImageGrid(rng.standard_normal(shape)),
                              kernel=kernel, mask_mode="masked",
                              potential=Potential.quadratic(0.25))
        for algorithm, inner_cfg, x0_mode in itertools.product(
                ("sb", "admm2", "admm2_simplified"), (PCG3, EXACT),
                ("zero", "data")):
            trace = run(problem, OuterConfig(
                rho=1.0 if algorithm == "sb" else 2.0, eta=0.5,
                max_iterations=30, inner=inner_cfg, algorithm=algorithm,
                x0_mode=x0_mode))
            assert len(trace) == 31
            assert np.all(np.isfinite(trace.cost)), (shape, algorithm)


def test_a_negative_curvature_beyond_rounding_still_raises(rng,
                                                           monkeypatch):
    # G applied five times over makes H = M - eta U U' indefinite, and a
    # p'Hp below zero by more than rounding raises, exact or PCG-3
    real = ProblemOps._wrap_gram
    monkeypatch.setattr(ProblemOps, "_wrap_gram",
                        lambda self, v: 5.0 * real(self, v))
    ops = make_ops(fitting_kernel(rng, (6, 8)), (6, 8), "masked")
    for inner_cfg in (PCG3, EXACT):
        rhs = ops.hat(rng.standard_normal((6, 8)))
        with pytest.raises(PcgBreakdownError, match="p'Hp = -"):
            _solve_x(ops, 1.0, 2.0, rhs, ops.hat(np.zeros((6, 8))),
                     inner_cfg)
