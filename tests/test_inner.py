import numpy as np
import pytest

from sbadmm.grids import ConvolutionKernel
from sbadmm.inner import (InnerSolveConfig, PcgBreakdownError,
                          SingularHessianError, circulant_preconditioner,
                          circulant_solve_array, hessian_spectrum,
                          pcg_solve)
from sbadmm.operators import (diff_gram_spectrum, gram_spectrum,
                              sparse_blur_matrix, sparse_diff_matrix)
from conftest import (ODD_AND_DEGENERATE_SHAPES, fitting_kernel, hessian_hat,
                      make_ops, random_kernel)


def test_config_validation():
    with pytest.raises(ValueError):
        InnerSolveConfig(mode="direct")
    with pytest.raises(ValueError):
        InnerSolveConfig(mode="pcg", pcg_iterations=0)


def test_circulant_solve_scaled_identity():
    lam = np.ones((3, 3))
    om = np.zeros((3, 3))
    rhs = np.arange(9.0).reshape(3, 3)
    x = circulant_solve_array(lam, om, 2.0, 1.0, rhs)
    assert np.allclose(x, rhs / 2.0)


def test_circulant_solve_zero_rhs():
    lam = np.ones((3, 3))
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
    # the real-FFT division keeps w//2 + 1 columns: odd widths and single
    # rows or columns too
    for shape in [(8, 8)] + ODD_AND_DEGENERATE_SHAPES:
        k = fitting_kernel(rng, shape)
        lam = gram_spectrum(k, shape)
        om = diff_gram_spectrum(shape)
        x_true = rng.standard_normal(shape)
        hx = np.real(np.fft.ifft2(
            np.fft.fft2(x_true) * (2.0 * lam + 0.3 * om)))
        x = circulant_solve_array(lam, om, 2.0, 0.3, hx)
        assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)

        ops = make_ops(k, shape, "periodic")
        rhs = rng.standard_normal(shape)
        rho, eta = rng.uniform(0.1, 3.0, size=2)
        x = circulant_solve_array(ops.lam, ops.om, rho, eta, rhs)
        res = rho * ops.At(ops.A(x)) + eta * ops.Ct(ops.C(x)) - rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)


def test_circulant_solve_singular_names_frequency():
    lam = np.zeros((2, 2))
    om = diff_gram_spectrum((2, 2))  # omega is 0 at DC too
    with pytest.raises(SingularHessianError, match=r"\(0, 0\)"):
        circulant_solve_array(lam, om, 1.0, 1.0, np.ones((2, 2)))
    # the preconditioner divides by the same exact M
    with pytest.raises(SingularHessianError, match=r"\(0, 0\)"):
        circulant_preconditioner(lam, om, 1.0, 1.0)(np.ones((2, 2)))
    # M of spectra on two grids, or of a penalty that is not positive
    with pytest.raises(ValueError, match="different grids"):
        hessian_spectrum(np.ones((2, 2)), np.ones((2, 3)), 1.0, 1.0)
    for rho, eta in ((0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="must be positive"):
            hessian_spectrum(np.ones((2, 2)), np.ones((2, 2)), rho, eta)


def make_masked_hessian(rng, shape, rho=1.0, eta=0.25):
    ops = make_ops(random_kernel(rng), shape, "masked")

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
            np.fft.fft2(x) * (lam + 0.25 * om)))

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
    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=50)
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


def test_pcg_stops_once_rz_underflows():
    # long PCG runs on single-row and single-column problems converge until
    # r'z falls below the smallest normal double; p'Hp then rounds to 0,
    # which must end the loop and not raise on these nonsingular problems.
    # Both loops: on real arrays and on the half spectrum
    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=50)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for shape in [s for s in ODD_AND_DEGENERATE_SHAPES if 1 in s]:
            for mode in ("periodic", "masked"):
                ops = make_ops(fitting_kernel(rng, shape), shape, mode)
                rho, eta = rng.uniform(0.1, 3.0, size=2)
                rhs = rng.standard_normal(shape)
                warm = rng.standard_normal(shape)
                m = ops.hessian_spectra(rho, eta)[0]

                def hessian(z):
                    return rho * ops.At(ops.A(z)) + eta * ops.Ct(ops.C(z))

                real = pcg_solve(
                    hessian, rhs, cfg, warm_start=warm,
                    preconditioner=circulant_preconditioner(ops.lam, ops.om,
                                                            rho, eta))
                spectral = pcg_solve(
                    lambda f: hessian_hat(ops, f, rho, eta), ops.hat(rhs), cfg,
                    warm_start=ops.hat(warm), preconditioner=lambda f: f / m)
                for x in (real.x, ops.unhat(spectral.x)):
                    res = hessian(x) - rhs
                    assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)


def test_pcg_stops_early_on_zero_residual(rng):
    def hessian(x):
        return 2.0 * x

    rhs = rng.standard_normal((4, 4))
    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=10)
    res = pcg_solve(hessian, rhs, cfg)
    assert res.iterations < 10
    assert np.allclose(res.x, rhs / 2.0)


def test_pcg_never_writes_rhs_or_the_warm_start(rng):
    # p must not alias r when the preconditioner hands back r itself, and
    # neither rhs nor warm_start may be written: no preconditioner, the
    # identity and a copying identity give bit-identical runs
    shape = (8, 8)
    hessian, _, _ = make_masked_hessian(rng, shape)
    ops = make_ops(random_kernel(rng), shape, "masked")
    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=50)
    real = (hessian, rng.standard_normal(shape), rng.standard_normal(shape))
    spectral = (lambda f: hessian_hat(ops, f, 1.0, 0.25),
                ops.hat(rng.standard_normal(shape)),
                ops.hat(rng.standard_normal(shape)))
    for apply, rhs, warm in (real, spectral):
        runs = []
        for pre in (None, lambda r: r, lambda r: r.copy()):
            rhs_in, warm_in = rhs.copy(), warm.copy()
            runs.append(pcg_solve(apply, rhs_in, cfg, warm_start=warm_in,
                                  preconditioner=pre))
            assert np.array_equal(rhs_in, rhs)
            assert np.array_equal(warm_in, warm)
        for other in runs[1:]:
            assert np.array_equal(other.x, runs[0].x)
            assert other.residual_norms == runs[0].residual_norms
        assert runs[0].residual_norms[-1] < 1e-6 * np.linalg.norm(rhs)


def test_pcg_accepts_a_preconditioner_returning_its_argument(rng):
    # Fortran-ordered Hessian results, rhs and warm start, and a
    # preconditioner returning a view of r, must give the run of C-ordered
    # ones
    shape = (7, 5)
    hessian, lam, om = make_masked_hessian(rng, shape)
    cfg = InnerSolveConfig(mode="pcg", pcg_iterations=6)
    rhs = rng.standard_normal(shape)
    warm = rng.standard_normal(shape)
    precond = circulant_preconditioner(lam, om, 1.0, 0.25)
    want = pcg_solve(hessian, rhs, cfg, warm_start=warm,
                     preconditioner=precond)
    got = pcg_solve(lambda z: np.asfortranarray(hessian(z)),
                    np.asfortranarray(rhs), cfg,
                    warm_start=np.asfortranarray(warm),
                    preconditioner=lambda r: np.asfortranarray(precond(r)))
    scale = np.linalg.norm(want.x)
    assert np.linalg.norm(got.x - want.x) <= 1e-13 * scale
    assert np.allclose(got.residual_norms, want.residual_norms, rtol=1e-12)
    plain = pcg_solve(hessian, rhs, cfg)
    viewed = pcg_solve(hessian, rhs, cfg, preconditioner=lambda r: r[...])
    assert np.array_equal(viewed.x, plain.x)
