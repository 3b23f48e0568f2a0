import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sbadmm.grids import ConvolutionKernel
from sbadmm.operators import BccbSpectrum, diff_gram_spectrum, gram_spectrum
from sbadmm.rates import (DeltaSpectrum, compare_sb_vs_admm, delta_spectrum,
                          dense_transition_oracle, gamma_pivot, optimal_eta_sb,
                          optimal_rho_al, predict, rate_s1, rate_s2, rate_s3)
from conftest import random_kernel

ALPHA = 2.0 ** -4


def test_delta_spectrum_constant():
    lam = BccbSpectrum(np.ones((2, 2)))
    om = BccbSpectrum(np.full((2, 2), 2.0))
    d = delta_spectrum(lam, om, 1.0)
    assert d.delta_min == d.delta_max == 2.0


def test_delta_spectrum_infinite_where_lambda_vanishes():
    lam = BccbSpectrum(np.array([[1.0, 0.0]]))
    om = BccbSpectrum(np.array([[0.0, 2.0]]))
    d = delta_spectrum(lam, om, 1.0)
    assert d.delta_min == 0.0 and np.isinf(d.delta_max)


def test_delta_spectrum_rejects_double_zero():
    lam = BccbSpectrum(np.array([[1.0, 0.0]]))
    om = BccbSpectrum(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="rank deficient"):
        delta_spectrum(lam, om, 1.0)


def test_delta_spectrum_matches_elementwise_division(rng):
    shape = (8, 8)
    lam = gram_spectrum(random_kernel(rng), shape)
    om = diff_gram_spectrum(shape)
    d = delta_spectrum(lam, om, ALPHA)
    lv, ov = lam.eigenvalues.ravel(), om.eigenvalues.ravel()
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
    eta_star, gamma = optimal_eta_sb(d)
    assert eta_star == ALPHA and gamma == 16.0
    assert optimal_rho_al(d) == 1.0


def test_gamma_degenerate_median():
    d = DeltaSpectrum(np.array([16.0, 16.0]), ALPHA)
    eta_star, gamma = optimal_eta_sb(d)
    assert gamma == 16.0 and eta_star == ALPHA


def test_optima_band_limited_spectrum_vs_grid_search():
    alpha = 1.0 / 16.0
    deltas = np.linspace(1.0 / 256.0, 1.0 / 64.0, 2000)
    spec = DeltaSpectrum(deltas, alpha)
    eta_star, gamma = optimal_eta_sb(spec)
    rho_star = optimal_rho_al(spec)
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
        optimal_eta_sb(DeltaSpectrum(np.array([np.inf, np.inf]), 1.0))


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
    assert r2.optimal_eta == ALPHA and r2.optimal_rho == 1.0


def test_compare_sb_vs_admm():
    spec = DeltaSpectrum(np.array([0.0, 1.0, np.inf]), ALPHA)
    under = compare_sb_vs_admm(ALPHA / 20.0, ALPHA, spec)
    assert under.faster == "admm_matched"
    assert np.isclose(under.rho_recommended, 1.0 / 20.0)
    assert under.radius_sb > under.radius_admm

    over = compare_sb_vs_admm(20.0 * ALPHA, ALPHA, spec)
    assert over.faster == "tie"
    assert np.isclose(over.radius_sb, over.radius_admm)

    eq = compare_sb_vs_admm(ALPHA, ALPHA, spec)
    assert eq.faster == "tie" and eq.radius_admm == 0.5


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


def test_dense_oracle_matches_closed_form_iterate(rng):
    # one closed-form sweep equals G (u;v) + offset on the stacked state
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
    st = canonical_init(ops, rho, eta, x0_mode="data")
    nxt = quadratic_closed_form_step(st, ops, rho, eta)

    oracle = dense_transition_oracle(kernel, shape, rho, eta, alpha, y=y)
    stacked = np.concatenate([st.u.ravel(), st.v.ravel()])
    out = oracle.G @ stacked + oracle.offset
    n = y.size
    assert np.max(np.abs(out[:n] - nxt.u.ravel())) <= 1e-12
    assert np.max(np.abs(out[n:] - nxt.v.ravel())) <= 1e-12


def test_dense_oracle_rejects_large_grids(rng):
    with pytest.raises(ValueError):
        dense_transition_oracle(random_kernel(rng), (17, 17), 1.0, 1.0, 1.0)
