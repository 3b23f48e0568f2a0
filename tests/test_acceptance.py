"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria pin the solver equivalences, the elimination identities, the
one-iteration optimum, the dense-vs-analytic rate oracle, measured
asymptotic rates, the parameter recommendations, the qualitative benchmark
orderings, the shared asymptotic rate (and no matched-ADMM gain) of the
over-estimated-eta benchmark pair, and the randomized property suites.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sbadmm.algorithms import (OuterConfig, ProblemOps, ProblemSpec,
                               admm2_step, canonical_init,
                               quadratic_closed_form_step, run, sb_step,
                               solution_state)
from sbadmm.experiments import (DEFAULT_ALPHA, ExperimentConfig,
                                default_parameter_grid, benchmark_protocol,
                                gaussian_kernel, make_problem,
                                reference_solution)
from sbadmm.grids import ConvolutionKernel
from sbadmm.inner import InnerSolveConfig, circulant_solve_array
from sbadmm.operators import (diff_gram_spectrum, diff_mask, gram_spectrum,
                              split_operator_rank_check)
from sbadmm.prox import Potential, prox_array
from sbadmm.rates import (DeltaSpectrum, delta_spectrum,
                          dense_transition_oracle, optimal_penalties, rate_s1,
                          rate_s2, rate_s3)
from conftest import empirical_rate, make_ops, random_kernel, random_problem

EXACT = InnerSolveConfig(mode="circulant_exact")


def report(criterion, passed, detail=""):
    line = "ACCEPTANCE %s: %s" % (criterion, "PASS" if passed else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert passed, line


def test_criterion_1_sb_equals_admm_at_rho_one():
    rng = np.random.default_rng(7)
    problem = random_problem(rng, shape=(16, 16))
    ops = ProblemOps(problem)
    eta = 0.3
    s1 = canonical_init(ops, 1.0, eta)
    s2 = canonical_init(ops, 1.0, eta)
    worst = 0.0
    for _ in range(30):
        s1 = sb_step(s1, ops, eta, EXACT)
        s2 = admm2_step(s2, ops, 1.0, eta, EXACT)
        for a, b in ((s1.x, s2.x), (s1.v, s2.v), (s1.e, s2.e)):
            worst = max(worst, float(np.max(np.abs(a - b))))
    report("1 (SB = ADMM at rho=1)", worst <= 1e-12,
           "max deviation %.3g" % worst)


def test_criterion_2_elimination_identities():
    rng = np.random.default_rng(11)
    problem = random_problem(rng, shape=(8, 8))
    ops = ProblemOps(problem)
    a = problem.potential.alpha
    yn = float(np.linalg.norm(ops.y))
    worst_ud, worst_ve = 0.0, 0.0
    for _ in range(5):
        rho = float(rng.uniform(0.1, 10.0))
        eta = float(rng.uniform(0.05, 5.0))
        st = canonical_init(ops, rho, eta)
        for _ in range(100):
            st = admm2_step(st, ops, rho, eta, EXACT)
            u, d = ops.unhat(st.u_hat), ops.unhat(st.d_hat)
            worst_ud = max(worst_ud,
                           float(np.linalg.norm(u + rho * d - ops.y)) / yn,
                           float(np.linalg.norm(st.u_hat + rho * st.d_hat
                                                - ops.y_hat)) / yn)
            scale = max(float(np.linalg.norm(a * st.v)), 1.0)
            worst_ve = max(worst_ve,
                           float(np.linalg.norm(a * st.v + eta * st.e)) / scale)
    report("2 (u + rho d = y and alpha v + eta e = 0)",
           worst_ud <= 1e-10 and worst_ve <= 1e-10,
           "worst %.3g / %.3g" % (worst_ud, worst_ve))


def test_criterion_3_one_iteration_optimum():
    config = ExperimentConfig(mask_mode="periodic")
    problem, _ = make_problem(config)
    ops = ProblemOps(problem)
    a = problem.potential.alpha
    x_hat = circulant_solve_array(ops.lam, ops.om, 1.0, a,
                                  ops.At(ops.y))
    st = canonical_init(ops, 1.0, a)
    st = admm2_step(st, ops, 1.0, a, EXACT)
    err = float(np.linalg.norm(st.x - x_hat) / np.linalg.norm(x_hat))
    report("3 (one-iteration optimum at (1, alpha))", err <= 1e-8,
           "relative error %.3g" % err)


def test_criterion_4_dense_vs_analytic_radii():
    kernel = gaussian_kernel(3, 1.0)
    shape = (4, 4)
    worst = 0.0
    etas_or_rhos = [0.05, 0.3, 1.0, 3.0, 12.0]
    alphas = [0.02, 0.1, 0.25, 1.0, 4.0]
    for alpha in alphas:
        for p in etas_or_rhos:
            o = dense_transition_oracle(kernel, shape, 1.0, p, alpha)
            r = o.cases["I"]
            worst = max(worst, abs(r.radius_dense - r.radius_analytic))
            o = dense_transition_oracle(kernel, shape, p, alpha, alpha)
            r = o.cases["II"]
            worst = max(worst, abs(r.radius_dense - r.radius_analytic))
            o = dense_transition_oracle(kernel, shape, p / alpha, p, alpha)
            r = o.cases["III"]
            worst = max(worst, abs(r.radius_dense - r.radius_analytic))
    report("4 (dense oracle radii match s1/s2/s3)", worst <= 1e-9,
           "worst |dense - analytic| %.3g over 5x5x3 grid" % worst)


def closed_form_errors(ops, rho, eta, iterations, split=False):
    a = ops.potential.alpha
    x_hat = circulant_solve_array(ops.lam, ops.om, 1.0, a, ops.At(ops.y))
    hat = solution_state(ops, x_hat, rho, eta)
    st = canonical_init(ops, rho, eta)
    errors = []
    for _ in range(iterations):
        st = quadratic_closed_form_step(st, ops, rho, eta)
        if split:
            err = np.sqrt(np.sum(ops.unhat(st.u_hat - hat.u_hat) ** 2)
                          + np.sum((st.v - hat.v) ** 2))
        else:
            err = np.linalg.norm(st.x - hat.x)
        errors.append(float(err))
    return errors


def test_criterion_5_empirical_asymptotic_rates():
    config = ExperimentConfig(mask_mode="periodic")
    problem, _ = make_problem(config)
    ops = ProblemOps(problem)
    a = DEFAULT_ALPHA
    predicted = 20.0 / 21.0

    r_case1 = empirical_rate(closed_form_errors(ops, 1.0, 20.0 * a, 400))
    r_case3 = empirical_rate(closed_form_errors(ops, 20.0, 20.0 * a, 400))
    ok1 = abs(r_case1 - predicted) <= 0.05 * predicted
    ok3 = abs(r_case3 - predicted) <= 0.05 * predicted

    # rate 1/5 hits the double-precision floor within ~20 iterations, so the
    # split-variable errors are only usable over a short window
    errs = closed_form_errors(ops, 0.25, a / 4.0, 16, split=True)
    r_split = empirical_rate(errs)
    ok_split = abs(r_split - 0.2) <= 0.1 * 0.2

    report("5 (measured rates match predictions)", ok1 and ok3 and ok_split,
           "case I %.5f, case III %.5f (target %.5f), split %.5f (target 0.2)"
           % (r_case1, r_case3, predicted, r_split))


def test_criterion_6_parameter_recommendation():
    # default blur + difference spectrum
    kernel = gaussian_kernel(7, 2.0)
    lam = gram_spectrum(kernel, (64, 64))
    om = diff_gram_spectrum((64, 64))
    spec = delta_spectrum(lam, om, DEFAULT_ALPHA)
    gamma, eta_star, rho_star = optimal_penalties(spec)
    ok_default = (eta_star == DEFAULT_ALPHA) and (rho_star == 1.0)

    # synthetic band-limited spectrum
    alpha = 1.0 / 16.0
    deltas = np.linspace(1.0 / 256.0, 1.0 / 64.0, 2000)
    band = DeltaSpectrum(deltas, alpha)
    _, eta_b, rho_b = optimal_penalties(band)
    g_eta = minimize_scalar(lambda e: np.max(rate_s1(deltas, e, alpha)),
                            bounds=(1e-3, 50.0), method="bounded",
                            options={"xatol": 1e-10}).x
    g_rho = minimize_scalar(lambda r: np.max(rate_s2(deltas, r, alpha)),
                            bounds=(1e-3, 50.0), method="bounded",
                            options={"xatol": 1e-10}).x
    ok_band = (np.isclose(eta_b, 2.0) and np.isclose(rho_b, 1.0 / 32.0)
               and abs(eta_b - g_eta) <= 1e-6 and abs(rho_b - g_rho) <= 1e-6)

    report("6 (eta* = alpha, rho* = 1; band-limited eta* = 2, rho* = 1/32)",
           ok_default and ok_band,
           "eta*=%.17g rho*=%.17g gamma=%g; band eta*=%.9g rho*=%.9g"
           % (eta_star, rho_star, gamma, eta_b, rho_b))


@pytest.fixture(scope="module")
def benchmark_hits(tmp_path_factory):
    config = ExperimentConfig(max_iterations=250,
                              output_dir=str(tmp_path_factory.mktemp("pcg3")))
    traces, _ = benchmark_protocol(config)
    hits = {k: (t.iterations_to(1e-6) if t is not None else None)
            for k, t in traces.items()}
    return config, traces, hits


def test_criterion_7a_all_settings_improve(benchmark_hits):
    _, traces, _ = benchmark_hits
    ok = all(t is not None and t.rel_cost_err[-1] < t.rel_cost_err[0]
             for t in traces.values())
    report("7a (every setting reduces the relative cost error)", ok)


def test_criterion_7b_optimal_setting_first(benchmark_hits):
    config, _, hits = benchmark_hits
    a = config.alpha
    target = hits[(1.0, a)]
    others = [v for k, v in hits.items() if k != (1.0, a)]
    ok = target is not None and all(v is None or target < v for v in others)
    report("7b ((1, alpha) reaches 1e-6 first)", ok, "hits %s" % (hits,))


def test_criterion_7c_underestimated_eta_ordering(benchmark_hits):
    config, _, hits = benchmark_hits
    a = config.alpha
    sb = hits[(1.0, a / 20.0)]
    admm = hits[(1.0 / 20.0, a / 20.0)]
    ok = sb is not None and admm is not None and admm < sb
    report("7c ((1/20, alpha/20) strictly beats (1, alpha/20))", ok,
           "%s vs %s iterations" % (admm, sb))


def test_exact_and_pcg3_iteration_counts(benchmark_hits, tmp_path):
    # Inexact x-updates (Eckstein & Bertsekas 1992, Thm 8): on the default
    # masked benchmark, three PCG steps per x-update cost one extra iteration
    # at (1/20, alpha/20) over exact solves, and none elsewhere.
    config, _, hits = benchmark_hits
    grid = default_parameter_grid(config.alpha)
    exact, _ = benchmark_protocol(ExperimentConfig(max_iterations=250,
                                                   inner=EXACT,
                                                   output_dir=str(tmp_path)))
    got_exact = [exact[k].iterations_to(1e-6) for k in grid]
    got_pcg = [hits[k] for k in grid]
    report("exact vs PCG-3 iterations to 1e-6 on the default benchmark",
           got_exact == [1, 83, 186, 98, 5] and got_pcg == [1, 83, 186, 98, 6],
           "exact %s, PCG-3 %s" % (got_exact, got_pcg))


def test_periodic_iteration_counts():
    # A periodic quadratic run steps in coefficient form; at 64x64 its
    # iterations to 1e-6 are those of real-domain stepping on the five
    # benchmark settings and at (0.16, 20 alpha) (ROADMAP item 1's probe)
    config = ExperimentConfig(mask_mode="periodic", inner=EXACT)
    problem, _ = make_problem(config)
    ref = reference_solution(problem)
    a = config.alpha
    got = [run(problem, OuterConfig(rho=rho, eta=eta, max_iterations=250,
                                    inner=EXACT),
               reference=ref).iterations_to(1e-6)
           for rho, eta in default_parameter_grid(a) + [(0.16, 20.0 * a)]]
    report("periodic iterations to 1e-6 in coefficient form",
           got == [1, 83, 186, 98, 5, 77], "got %s" % (got,))


def _sqrt_cost_rate(trace):
    """Asymptotic rate of the x-error read off the relative cost error.

    The cost error is quadratic in the x-error, hence the square root.  A
    missing trace, or one with a non-positive error (the reference's floor),
    has no readable rate and gives NaN, which fails every comparison.
    """
    if trace is None:
        return float("nan")
    errors = np.asarray(trace.rel_cost_err, dtype=float)
    if np.any(errors <= 0):
        return float("nan")
    return empirical_rate(np.sqrt(errors))


def test_criterion_7d_overestimated_eta_similarity(benchmark_hits):
    # With eta = 20 alpha, Case I (rho = 1) and Case III (rho = 20) share the
    # spectral radius s3 = 20/21, but s1 < s3 at every finite delta, so the
    # theory promises equal asymptotic rates, not equal iteration counts.
    config, traces, hits = benchmark_hits
    a = config.alpha
    eta = 20.0 * a
    target = rate_s3(eta, a)

    kernel = gaussian_kernel(config.psf_size, config.psf_sigma)
    shape = (config.height, config.width)
    spec = delta_spectrum(gram_spectrum(kernel, shape),
                          diff_gram_spectrum(shape), a)
    radius_sb = float(np.max(rate_s1(spec.deltas, eta, a)))
    radius_gap = abs(radius_sb - target) / target

    r_sb = _sqrt_cost_rate(traces[(1.0, eta)])
    r_admm = _sqrt_cost_rate(traces[(20.0, eta)])
    h_sb = hits[(1.0, eta)]
    h_admm = hits[(20.0, eta)]

    report("7d-i ((1, 20a) and (20, 20a) share the predicted radius 20/21)",
           radius_gap <= 1e-12,
           "max s1 %.17g vs s3 %.17g, relative gap %.3g"
           % (radius_sb, target, radius_gap))
    report("7d-ii ((1, 20a) and (20, 20a) decay at the shared rate, 1%)",
           abs(r_sb - target) <= 0.01 * target
           and abs(r_admm - target) <= 0.01 * target,
           "measured %.6f and %.6f vs %.6f" % (r_sb, r_admm, target))
    report("7d-iii ((20, 20a) gains nothing over (1, 20a))",
           h_sb is not None and h_admm is not None and h_sb <= h_admm,
           "%s vs %s iterations" % (h_sb, h_admm))


def test_criterion_8_property_suites():
    rng = np.random.default_rng(23)

    # adjoint identities, 100 random cases
    worst_adj = 0.0
    for _ in range(100):
        shape = (int(rng.integers(4, 9)), int(rng.integers(4, 9)))
        mode = "masked" if rng.integers(2) else "periodic"
        ops = make_ops(random_kernel(rng), shape, mode)
        x = rng.standard_normal(shape)
        r = rng.standard_normal(shape)
        lhs = np.sum(ops.A(x) * r)
        rhs = np.sum(x * ops.At(r))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(1.0, abs(lhs)))
        g = np.where(diff_mask(ops.shape, ops.mask_mode),
                     rng.standard_normal((2,) + shape), 0.0)
        lhs = np.sum(ops.C(x) * g)
        rhs = np.sum(x * ops.Ct(g))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok_adj = worst_adj <= 1e-12

    # prox optimality and nonexpansiveness, 100 random cases
    pots = [Potential("quadratic", 0.5), Potential("l1", 2.0),
            Potential("huber", 1.0, 0.5), Potential("fair", 0.3, 2.0)]
    ok_prox = True
    for i in range(100):
        pot = pots[i % len(pots)]
        z = rng.standard_normal(8) * 4
        eta = float(rng.uniform(0.1, 5.0))
        v = prox_array(pot, z, eta)
        base = _objective(pot, v, z, eta)
        for _ in range(20):
            d = rng.standard_normal(8) * rng.uniform(1e-4, 1.0)
            if base > _objective(pot, v + d, z, eta) + 1e-10:
                ok_prox = False
        z2 = rng.standard_normal(8) * 4
        if np.linalg.norm(v - prox_array(pot, z2, eta)) \
                > np.linalg.norm(z - z2) + 1e-12:
            ok_prox = False

    # s1 sign and monotonicity structure, 100 random cases
    ok_s1 = True
    for _ in range(100):
        eta = float(rng.uniform(0.05, 5.0))
        alpha = float(rng.uniform(0.05, 5.0))
        if np.isclose(eta, alpha):
            continue
        d = np.sort(rng.uniform(0.0, 100.0, 16))
        s = rate_s1(d, eta, alpha)
        if not np.all(np.sign(s - rate_s3(eta, alpha)) == np.sign(alpha - eta)):
            ok_s1 = False
        steps = np.diff(s)
        if not np.all(np.sign(steps[steps != 0]) == np.sign(eta - alpha)):
            ok_s1 = False

    # rank check on the three canonical spectra
    shape = (8, 8)
    om = diff_gram_spectrum(shape)
    ident = gram_spectrum(ConvolutionKernel(np.ones((1, 1))), shape)
    zero = np.zeros(shape)
    blur = gram_spectrum(gaussian_kernel(3, 1.0), shape)
    ok_rank = (split_operator_rank_check(ident, zero).full_rank
               and not split_operator_rank_check(zero, om).full_rank
               and split_operator_rank_check(blur, om).full_rank)

    report("8 (randomized property suites)",
           ok_adj and ok_prox and ok_s1 and ok_rank,
           "adjoint worst %.3g; prox %s; s1 structure %s; rank checks %s"
           % (worst_adj, ok_prox, ok_s1, ok_rank))


def _objective(pot, v, z, eta):
    from sbadmm.prox import potential_value_array
    return potential_value_array(pot, v) + 0.5 * eta * np.sum((z - v) ** 2)
