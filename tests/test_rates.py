import csv

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sbadmm.grids import ConvolutionKernel
from sbadmm.operators import (diff_gram_spectrum, gram_spectrum,
                              write_spectra_csv)
from sbadmm.rates import (DeltaSpectrum, compare_sb_vs_admm, delta_spectrum,
                          dense_transition_oracle, gamma_pivot,
                          optimal_penalties, predict, rate_report_to_csv,
                          rate_s1, rate_s2, rate_s3)
from conftest import random_kernel

ALPHA = 2.0 ** -4


def test_delta_spectrum_constant():
    lam = np.ones((2, 2))
    om = np.full((2, 2), 2.0)
    d = delta_spectrum(lam, om, 1.0)
    assert d.delta_min == d.delta_max == 2.0


def test_delta_spectrum_infinite_where_lambda_vanishes():
    lam = np.array([[1.0, 0.0]])
    om = np.array([[0.0, 2.0]])
    d = delta_spectrum(lam, om, 1.0)
    assert d.delta_min == 0.0 and np.isinf(d.delta_max)


def test_delta_spectrum_rejects_double_zero():
    lam = np.array([[1.0, 0.0]])
    om = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="rank deficient"):
        delta_spectrum(lam, om, 1.0)


def test_delta_spectrum_matches_elementwise_division(rng):
    shape = (8, 8)
    lam = gram_spectrum(random_kernel(rng), shape)
    om = diff_gram_spectrum(shape)
    d = delta_spectrum(lam, om, ALPHA)
    lv, ov = lam.ravel(), om.ravel()
    finite = lv > 0
    assert np.allclose(d.deltas[finite], ov[finite] / lv[finite])
    assert np.all(np.isinf(d.deltas[~finite]))


def test_rate_values_at_special_points():
    assert rate_s1(3.7, 1.0, 1.0) == 0.5          # eta = alpha collapses s1
    assert np.isclose(rate_s1(0.0, 2.0, 1.0), 1.0 / 3.0)   # alpha/(eta+alpha)
    assert np.isclose(rate_s1(np.inf, 2.0, 1.0), 2.0 / 3.0)  # eta/(eta+alpha)
    assert rate_s2(9.9, 1.0, 1.0) == 0.5          # rho = 1 collapses s2
    assert np.isclose(rate_s2(0.0, 3.0, 1.0), 0.75)          # rho/(rho+1)
    assert np.isclose(rate_s2(np.inf, 3.0, 1.0), 0.25)       # 1/(rho+1)
    assert rate_s3(1.0, 1.0) == 0.5
    assert np.isclose(rate_s3(1.0 / 20.0, 1.0), 1.0 / 21.0)
    assert np.isclose(rate_s3(20.0, 1.0), 20.0 / 21.0)


def test_rates_reject_nonpositive_parameters():
    with pytest.raises(ValueError):
        rate_s1(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        rate_s2(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        rate_s3(-2.0, 1.0)
    # an infinite or NaN penalty would make every rate NaN
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            rate_s1(1.0, bad, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            rate_s2(1.0, bad, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            rate_s3(1.0, bad)
        with pytest.raises(ValueError, match="alpha must be positive and "
                           "finite"):
            DeltaSpectrum(np.array([0.5, 2.0]), bad)


def test_s1_sign_and_monotonicity(rng):
    # sign(s1(d) - s3) = sign(alpha - eta); s1 monotone in d with
    # derivative sign = sign(eta - alpha)
    for _ in range(100):
        eta = float(rng.uniform(0.05, 5.0))
        alpha = float(rng.uniform(0.05, 5.0))
        if np.isclose(eta, alpha):
            continue
        s3 = rate_s3(eta, alpha)
        d = np.sort(rng.uniform(0.0, 50.0, 12))
        s = rate_s1(d, eta, alpha)
        assert np.all(np.sign(s - s3) == np.sign(alpha - eta))
        diffs = np.diff(s)
        assert np.all(np.sign(diffs[diffs != 0]) == np.sign(eta - alpha))
        assert np.all((s > 0) & (s < 1))
        assert np.all((rate_s2(d, eta, alpha) > 0)
                      & (rate_s2(d, eta, alpha) < 1))


def test_s1_dominance_for_overestimated_eta(rng):
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 2.0))
        eta = alpha * float(rng.uniform(1.0, 30.0))
        d = rng.uniform(0.0, 1e4, 32)
        s3 = rate_s3(eta, alpha)
        assert np.all(rate_s1(d, eta, alpha) <= s3 + 1e-14)
        assert np.isclose(rate_s1(np.inf, eta, alpha), s3)


def test_gamma_and_optima_typical_spectrum():
    # huge dynamic range: delta_min near 0, delta_max infinite
    d = DeltaSpectrum(np.array([0.0, 1.0, np.inf]), ALPHA)
    assert gamma_pivot(d) == 16.0
    assert optimal_penalties(d) == (16.0, ALPHA, 1.0)


def test_gamma_degenerate_median():
    d = DeltaSpectrum(np.array([16.0, 16.0]), ALPHA)
    gamma, eta_star, _ = optimal_penalties(d)
    assert gamma == 16.0 and eta_star == ALPHA


def test_optima_band_limited_spectrum_vs_grid_search():
    alpha = 1.0 / 16.0
    deltas = np.linspace(1.0 / 256.0, 1.0 / 64.0, 2000)
    spec = DeltaSpectrum(deltas, alpha)
    gamma, eta_star, rho_star = optimal_penalties(spec)
    assert np.isclose(gamma, 1.0 / 64.0)
    assert np.isclose(eta_star, 2.0)
    assert np.isclose(rho_star, 1.0 / 32.0)

    res = minimize_scalar(lambda e: np.max(rate_s1(deltas, e, alpha)),
                          bounds=(1e-3, 50.0), method="bounded",
                          options={"xatol": 1e-10})
    assert abs(res.x - eta_star) <= 1e-6
    res = minimize_scalar(lambda r: np.max(rate_s2(deltas, r, alpha)),
                          bounds=(1e-3, 50.0), method="bounded",
                          options={"xatol": 1e-10})
    assert abs(res.x - rho_star) <= 1e-6


def test_optimal_eta_rejects_degenerate_spectrum():
    with pytest.raises(ValueError):
        optimal_penalties(DeltaSpectrum(np.array([np.inf, np.inf]), 1.0))


def test_rates_of_a_degenerate_spectrum():
    # gamma = inf has no optimal penalties, but each case still has rates:
    # every s1 is its delta = +inf limit eta/(eta+alpha), which is s3
    spec = DeltaSpectrum(np.array([np.inf, np.inf]), ALPHA)
    with pytest.raises(ValueError, match="degenerate"):
        optimal_penalties(spec)
    eta = 0.3
    report = predict("I", spec, eta=eta)
    assert np.all(report.rates == eta / (eta + ALPHA))
    cmp = compare_sb_vs_admm(eta, spec)
    assert cmp.faster == "tie"
    assert cmp.radius_sb == cmp.radius_admm == eta / (eta + ALPHA)


def test_predict_case_constraints():
    spec = DeltaSpectrum(np.array([0.5, 2.0]), ALPHA)
    with pytest.raises(ValueError, match="rho == 1"):
        predict("I", spec, rho=2.0, eta=1.0)
    with pytest.raises(ValueError, match="eta == alpha"):
        predict("II", spec, rho=2.0, eta=1.0)
    with pytest.raises(ValueError, match="eta/alpha"):
        predict("III", spec, rho=2.0, eta=1.0)
    with pytest.raises(ValueError):
        predict("IV", spec, eta=1.0)
    with pytest.raises(ValueError, match="needs eta"):
        predict("I", spec)
    # the check is relative: a small alpha does not make eta = 5 alpha equal
    small = DeltaSpectrum(np.array([0.5, 2.0, 10.0]), 1e-9)
    with pytest.raises(ValueError, match="eta == alpha"):
        predict("II", small, rho=2.0, eta=5e-9)


def test_predict_case_reports():
    spec = DeltaSpectrum(np.array([0.0, 1.0, np.inf]), ALPHA)
    r3 = predict("III", spec, eta=20.0 * ALPHA)
    assert np.allclose(r3.rates, 20.0 / 21.0)  # uniform spectrum
    assert np.isclose(r3.spectral_radius, 20.0 / 21.0)
    assert np.isclose(r3.rho, 20.0)

    r1 = predict("I", spec, eta=20.0 * ALPHA)
    assert np.isclose(r1.spectral_radius, 20.0 / 21.0)  # over-estimated eta

    r1u = predict("I", spec, eta=ALPHA / 20.0)
    assert np.isclose(r1u.spectral_radius, 20.0 / 21.0)  # under-estimated eta
    assert r1u.spectral_radius > rate_s3(ALPHA / 20.0, ALPHA)

    r2 = predict("II", spec, rho=2.0)
    assert np.isclose(r2.spectral_radius, np.max(rate_s2(spec.deltas, 2.0, ALPHA)))
    assert r2.rho == 2.0 and r2.eta == ALPHA
    assert optimal_penalties(spec)[1:] == (ALPHA, 1.0)


def test_compare_sb_vs_admm():
    spec = DeltaSpectrum(np.array([0.0, 1.0, np.inf]), ALPHA)
    under = compare_sb_vs_admm(ALPHA / 20.0, spec)
    assert under.faster == "admm_matched"
    assert np.isclose(under.rho_recommended, 1.0 / 20.0)
    assert under.radius_sb > under.radius_admm

    over = compare_sb_vs_admm(20.0 * ALPHA, spec)
    assert over.faster == "tie"
    assert np.isclose(over.radius_sb, over.radius_admm)

    eq = compare_sb_vs_admm(ALPHA, spec)
    assert eq.faster == "tie" and eq.radius_admm == 0.5

    # without delta = +inf, eta > alpha keeps every s1 below s3
    finite = DeltaSpectrum(np.array([0.0, 1.0]), ALPHA)
    sb = compare_sb_vs_admm(20.0 * ALPHA, finite)
    assert sb.faster == "sb" and sb.radius_sb < sb.radius_admm


def test_rate_and_spectra_csv_round_trip(tmp_path):
    # [[0.5, 0.5]] vanishes at the Nyquist column: lambda = 0, delta = +inf
    shape = (4, 6)
    lam = gram_spectrum(ConvolutionKernel(np.array([[0.5, 0.5]])), shape)
    om = diff_gram_spectrum(shape)
    spec = delta_spectrum(lam, om, ALPHA)
    assert np.isinf(spec.deltas).any()
    report = predict("I", spec, eta=0.3)
    gamma, eta_star, rho_star = optimal_penalties(spec)
    path = str(tmp_path / "rates.csv")
    rate_report_to_csv(report, spec, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["index", "delta", "rate"]
    body = rows[1:1 + spec.deltas.size]
    assert [int(r[0]) for r in body] == list(range(spec.deltas.size))
    assert [float(r[1]) for r in body] == list(spec.deltas)
    assert [float(r[2]) for r in body] == list(report.rates)
    assert [(r[0], float(r[1]), r[2]) for r in rows[1 + spec.deltas.size:]] \
        == [("# radius", report.spectral_radius, ""),
            ("# eta_star", eta_star, ""),
            ("# rho_star", rho_star, ""),
            ("# gamma", gamma, "")]

    path = str(tmp_path / "spectra.csv")
    write_spectra_csv(lam, om, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["freq_row", "freq_col", "lambda", "omega"]
    got = np.array([[float(c) for c in r] for r in rows[1:]])
    i, j = np.indices(shape)
    assert np.array_equal(got, np.stack(
        [i.ravel(), j.ravel(), lam.ravel(), om.ravel()], axis=1))


def kernel_4x1():
    return ConvolutionKernel(np.array([[0.5, 0.5]]), (0, 0))


def test_dense_oracle_case_iii_4x1():
    alpha = ALPHA
    eta = 2.0 * alpha
    oracle = dense_transition_oracle(kernel_4x1(), (1, 4), eta / alpha, eta, alpha)
    radii = oracle.cases["III"]
    assert abs(radii.radius_dense - eta / (eta + alpha)) <= 1e-10
    assert abs(radii.radius_dense - radii.radius_analytic) <= 1e-10


def test_dense_oracle_case_i_4x1():
    alpha = ALPHA
    eta = 3.0 * alpha
    oracle = dense_transition_oracle(kernel_4x1(), (1, 4), 1.0, eta, alpha)
    radii = oracle.cases["I"]
    assert abs(radii.radius_dense - radii.radius_analytic) <= 1e-10


def test_dense_oracle_case_ii(rng):
    alpha = 0.3
    oracle = dense_transition_oracle(random_kernel(rng), (4, 4), 2.0, alpha, alpha)
    radii = oracle.cases["II"]
    assert abs(radii.radius_dense - radii.radius_analytic) <= 1e-9


def test_dense_oracle_reports_the_cases_that_hold(rng):
    kernel = random_kernel(rng)
    alpha = 0.3
    # all three cases hold at (1, alpha), where P = Q = 0 and T = I/2
    oracle = dense_transition_oracle(kernel, (4, 4), 1.0, alpha, alpha)
    assert list(oracle.cases) == ["I", "II", "III"]
    for radii in oracle.cases.values():
        assert radii.radius_dense == 0.5 and radii.radius_analytic == 0.5
    for rho, eta, case in ((2.0, alpha, "II"), (1.0, 3.0 * alpha, "I")):
        oracle = dense_transition_oracle(kernel, (4, 4), rho, eta, alpha)
        assert list(oracle.cases) == [case]
        radii = oracle.cases[case]
        assert abs(radii.radius_dense - radii.radius_analytic) <= 1e-9
    assert dense_transition_oracle(kernel, (4, 4), 2.0, 3.0 * alpha,
                                   alpha).cases == {}


def test_dense_oracle_matches_closed_form_iterate(rng):
    # G is the linear part of one closed-form sweep on the stacked (u; v):
    # it maps the difference of two starts to the difference of their
    # steps, in which the part that depends on y cancels
    from sbadmm.algorithms import (ProblemOps, ProblemSpec, canonical_init,
                                   quadratic_closed_form_step)
    from sbadmm.grids import ImageGrid
    from sbadmm.prox import Potential

    shape = (4, 4)
    kernel = random_kernel(rng)
    y = rng.standard_normal(shape)
    alpha, rho, eta = 0.25, 1.8, 0.4
    problem = ProblemSpec(y=ImageGrid(y), kernel=kernel, mask_mode="periodic",
                          potential=Potential.quadratic(alpha))
    ops = ProblemOps(problem)

    def stacked(st):
        return np.concatenate([ops.unhat(st.u_hat).ravel(), st.v.ravel()])

    starts = [canonical_init(ops, rho, eta, x0_mode=mode)
              for mode in ("data", "zero")]
    before = [stacked(st) for st in starts]
    after = [stacked(quadratic_closed_form_step(st, ops, rho, eta))
             for st in starts]

    oracle = dense_transition_oracle(kernel, shape, rho, eta, alpha)
    diff = before[0] - before[1]
    assert np.max(np.abs(diff)) > 0.1
    assert np.max(np.abs(oracle.G @ diff - (after[0] - after[1]))) <= 1e-12


def test_dense_oracle_rejects_large_grids(rng):
    with pytest.raises(ValueError):
        dense_transition_oracle(random_kernel(rng), (17, 17), 1.0, 1.0, 1.0)
