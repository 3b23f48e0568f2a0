import numpy as np
import pytest

from sbadmm.grids import ConvolutionKernel
from sbadmm.inner import (InnerSolveConfig, PcgBreakdownError,
                          SingularHessianError, circulant_preconditioner,
                          circulant_solve_array, pcg_solve)
from sbadmm.operators import (BccbSpectrum, diff_gram_spectrum, gram_spectrum,
                              sparse_blur_matrix, sparse_diff_matrix)
from conftest import make_ops, random_kernel


def test_config_validation():
    with pytest.raises(ValueError):
        InnerSolveConfig(mode="direct")
    with pytest.raises(ValueError):
        InnerSolveConfig(mode="pcg", pcg_iterations=0)
    with pytest.raises(ValueError):
        InnerSolveConfig(pcg_tolerance=-1.0)
    with pytest.raises(ValueError):
        InnerSolveConfig(preconditioner="jacobi")


def test_circulant_solve_scaled_identity():
    lam = BccbSpectrum(np.ones((3, 3)))
    om = BccbSpectrum(np.zeros((3, 3)))
    rhs = np.arange(9.0).reshape(3, 3)
    x = circulant_solve_array(lam, om, 2.0, 1.0, rhs)
    assert np.allclose(x, rhs / 2.0)


def test_circulant_solve_zero_rhs():
    lam = BccbSpectrum(np.ones((3, 3)))
    om = diff_gram_spectrum((3, 3))
    x = circulant_solve_array(lam, om, 1.0, 1.0, np.zeros((3, 3)))
    assert np.all(x == 0.0)


def test_circulant_solve_matches_dense_4x1():
    shape = (1, 4)
    k = ConvolutionKernel(np.array([[0.5, 0.5]]), (0, 0))
    lam = gram_spectrum(k, shape)
    om = diff_gram_spectrum(shape)
    rhs = np.array([[1.0, 0.0, 0.0, 0.0]])
    x = circulant_solve_array(lam, om, 1.0, 1.0, rhs)

    A = sparse_blur_matrix(k, shape).toarray()
    C = sparse_diff_matrix(shape, "periodic").toarray()
    H = A.T @ A + C.T @ C
    assert np.allclose(x.ravel(), np.linalg.solve(H, rhs.ravel()), atol=1e-12)


def test_circulant_solve_residual(rng):
    shape = (8, 8)
    k = random_kernel(rng)
    lam = gram_spectrum(k, shape)
    om = diff_gram_spectrum(shape)
    x_true = rng.standard_normal(shape)
    hx = np.real(np.fft.ifft2(np.fft.fft2(x_true)
                              * (2.0 * lam.eigenvalues + 0.3 * om.eigenvalues)))
    x = circulant_solve_array(lam, om, 2.0, 0.3, hx)
    assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)


def test_circulant_solve_singular_names_frequency():
    lam = BccbSpectrum(np.zeros((2, 2)))
    om = diff_gram_spectrum((2, 2))  # omega is 0 at DC too
    with pytest.raises(SingularHessianError, match=r"\(0, 0\)"):
        circulant_solve_array(lam, om, 1.0, 1.0, np.ones((2, 2)))


def make_masked_hessian(rng, shape, rho=1.0, eta=0.25):
    ops = make_ops(random_kernel(rng, boundary="masked"), shape, "masked")

    def hessian(x):
        return rho * ops.At(ops.A(x)) + eta * ops.Ct(ops.C(x))

    return hessian, ops.lam, ops.om


def test_pcg_exact_preconditioner_one_iteration(rng):
    shape = (8, 8)
    k = random_kernel(rng)
    lam = gram_spectrum(k, shape)
    om = diff_gram_spectrum(shape)

    def hessian(x):
        return np.real(np.fft.ifft2(
            np.fft.fft2(x) * (lam.eigenvalues + 0.25 * om.eigenvalues)))

    rhs = hessian(rng.standard_normal(shape))
    pre = circulant_preconditioner(lam, om, 1.0, 0.25)
    res = pcg_solve(hessian, rhs, InnerSolveConfig(mode="pcg", pcg_iterations=1),
                    preconditioner=pre)
    x_exact = circulant_solve_array(lam, om, 1.0, 0.25, rhs)
    assert np.linalg.norm(res.x - x_exact) <= 1e-10 * np.linalg.norm(x_exact)


def test_pcg_recovers_truth_unpreconditioned(rng):
    shape = (8, 8)
    hessian, _, _ = make_masked_hessian(rng, shape)
    x_true = rng.standard_normal(shape)
    rhs = hessian(x_true)
    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=50, preconditioner="none")
    res = pcg_solve(hessian, rhs, cfg)
    assert np.linalg.norm(res.x - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_pcg_monotone_in_hessian_norm(rng):
    shape = (8, 8)
    hessian, lam, om = make_masked_hessian(rng, shape)
    x_true = rng.standard_normal(shape)
    rhs = hessian(x_true)
    pre = circulant_preconditioner(lam, om, 1.0, 0.25)
    warm = rng.standard_normal(shape)

    def h_err(x):
        d = x - x_true
        return float(np.sum(d * hessian(d)))

    errs = [h_err(warm)]
    x = warm
    for _ in range(6):
        res = pcg_solve(hessian, rhs,
                        InnerSolveConfig(mode="pcg", pcg_iterations=1),
                        warm_start=x, preconditioner=pre)
        x = res.x
        errs.append(h_err(x))
    assert all(b <= a + 1e-10 for a, b in zip(errs, errs[1:]))


def test_preconditioner_beats_plain_cg(rng):
    # benchmark-style masked problem: 3 preconditioned iterations leave a
    # strictly smaller residual than 3 plain CG iterations
    shape = (32, 32)
    hessian, lam, om = make_masked_hessian(rng, shape)
    rhs = hessian(rng.standard_normal(shape))
    pre = circulant_preconditioner(lam, om, 1.0, 0.25)
    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=3)
    r_pre = pcg_solve(hessian, rhs, cfg, preconditioner=pre).residual_norms[-1]
    r_plain = pcg_solve(hessian, rhs, cfg).residual_norms[-1]
    assert r_pre < r_plain


def test_pcg_breakdown_on_indefinite_operator(rng):
    def hessian(x):
        return -x

    with pytest.raises(PcgBreakdownError):
        pcg_solve(hessian, np.ones((4, 4)),
                  InnerSolveConfig(mode="pcg", pcg_iterations=3))


def test_pcg_tolerance_early_stop(rng):
    def hessian(x):
        return 2.0 * x

    rhs = rng.standard_normal((4, 4))
    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=10, pcg_tolerance=1e-12)
    res = pcg_solve(hessian, rhs, cfg)
    assert res.iterations < 10
    assert np.allclose(res.x, rhs / 2.0)
