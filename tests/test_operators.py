import numpy as np
import pytest

from sbadmm.grids import ConvolutionKernel
from sbadmm.operators import (diff_gram_spectrum, gram_spectrum,
                              sparse_blur_matrix, sparse_diff_matrix,
                              split_operator_rank_check)
from conftest import (ODD_AND_DEGENERATE_SHAPES, fitting_kernel, make_ops,
                      random_kernel)


def test_identity_kernel_is_identity(rng):
    x = rng.standard_normal((5, 5))
    ops = make_ops(ConvolutionKernel.identity(), x.shape)
    assert np.allclose(ops.A(x), x)
    assert np.allclose(ops.At(x), x)


def test_uniform_kernel_preserves_constants():
    k = ConvolutionKernel(np.full((3, 3), 1.0 / 9.0), (1, 1), "periodic")
    x = np.full((6, 6), 3.5)
    assert np.allclose(make_ops(k, x.shape).A(x), 3.5)


def test_two_tap_blur_on_unit_row():
    # anchor on the left tap: y[i] = (x[i] + x[i+1]) / 2 on a periodic row
    k = ConvolutionKernel(np.array([[0.5, 0.5]]), (0, 0))
    x = np.array([[1.0, 0.0, 0.0, 0.0]])
    ops = make_ops(k, x.shape)
    y = ops.A(x)
    assert np.allclose(y, [[0.5, 0.5, 0.0, 0.0]], atol=1e-15)
    r = ops.At(y)
    assert np.allclose(r, [[0.5, 0.25, 0.0, 0.25]], atol=1e-15)


def test_masked_blur_zeroes_boundary_outputs(rng):
    k = random_kernel(rng, boundary="masked")
    x = rng.standard_normal((6, 6))
    y = make_ops(k, x.shape).A(x)
    assert np.all(y[0, :] == 0.0) and np.all(y[-1, :] == 0.0)
    assert np.all(y[:, 0] == 0.0) and np.all(y[:, -1] == 0.0)


def test_kernel_must_fit_grid():
    k = ConvolutionKernel(np.ones((3, 3)) / 9.0, (1, 1))
    with pytest.raises(ValueError):
        make_ops(k, (2, 2))


def test_diff_forward_row_periodic_and_masked():
    x = np.array([[0.0, 1.0, 3.0, 6.0]])
    k = ConvolutionKernel.identity()
    gp = make_ops(k, x.shape, "periodic").C(x)
    assert np.allclose(gp[0], [[1.0, 2.0, 3.0, -6.0]])
    masked = make_ops(k, x.shape, "masked")
    assert np.allclose(masked.C(x)[0], [[1.0, 2.0, 3.0, 0.0]])
    assert not masked.mask[0, 0, -1]


def test_diff_of_constant_is_zero():
    x = np.full((4, 4), 2.0)
    for mode in ("periodic", "masked"):
        ops = make_ops(ConvolutionKernel.identity(), x.shape, mode)
        assert np.all(ops.C(x) == 0.0)


def test_diff_rejects_degenerate_image():
    with pytest.raises(ValueError):
        make_ops(ConvolutionKernel.identity(), (1, 1), "periodic")
    with pytest.raises(ValueError):
        make_ops(ConvolutionKernel.identity(), (2, 2), "mirror")


def test_diff_gram_row_is_circular_laplacian():
    x = np.array([[1.0, 0.0, 0.0, 0.0]])
    ops = make_ops(ConvolutionKernel.identity(), x.shape, "periodic")
    assert np.allclose(ops.Ct(ops.C(x)), [[2.0, -1.0, 0.0, -1.0]])


def test_diff_adjoint_zero_field():
    ops = make_ops(ConvolutionKernel.identity(), (3, 3), "masked")
    assert np.all(ops.Ct(np.zeros((2, 3, 3))) == 0.0)


def test_gram_spectrum_identity_kernel():
    lam = gram_spectrum(ConvolutionKernel.identity(), (4, 4))
    assert np.allclose(lam.eigenvalues, 1.0)


def test_diff_gram_spectrum_row_of_four():
    om = diff_gram_spectrum((1, 4))
    expected = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(4) / 4.0)
    # vertical differences vanish on a single row only through the h=1 wrap
    assert np.allclose(np.sort(om.eigenvalues.ravel()), np.sort(expected))


def test_diff_gram_spectrum_dc_is_zero():
    om = diff_gram_spectrum((8, 8))
    assert om.eigenvalues[0, 0] == 0.0
    assert np.all(om.eigenvalues >= 0.0)


def test_rank_check_cases():
    shape = (8, 8)
    lam_id = gram_spectrum(ConvolutionKernel.identity(), shape)
    om = diff_gram_spectrum(shape)
    zero = gram_spectrum(ConvolutionKernel.identity(), shape)
    zero = type(zero)(np.zeros(shape))

    ok = split_operator_rank_check(lam_id, zero)
    assert ok.full_rank and np.isclose(ok.min_combined_eigenvalue, 1.0)

    bad = split_operator_rank_check(zero, om)
    assert not bad.full_rank  # constants are in the null space of C

    k = ConvolutionKernel(np.full((3, 3), 1.0 / 9.0), (1, 1))
    good = split_operator_rank_check(gram_spectrum(k, shape), om)
    assert good.full_rank


def test_adjoint_identities_random(rng):
    # definitional <Ax, r> == <x, A'r> for blur and differences, both modes
    for _ in range(100):
        shape = (rng.integers(4, 9), rng.integers(4, 9))
        for boundary in ("periodic", "masked"):
            ops = make_ops(random_kernel(rng, boundary=boundary), shape,
                           boundary)
            x = rng.standard_normal(shape)
            r = rng.standard_normal(shape)
            lhs = np.sum(ops.A(x) * r)
            rhs = np.sum(x * ops.At(r))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

            g = np.where(ops.mask, rng.standard_normal((2,) + tuple(shape)),
                         0.0)
            lhs = np.sum(ops.C(x) * g)
            rhs = np.sum(x * ops.Ct(g))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_spectral_consistency_periodic(rng):
    # A'A through forward+adjoint equals pointwise multiplication by lambda
    k = random_kernel(rng)
    x = rng.standard_normal((8, 8))
    lam = gram_spectrum(k, x.shape)
    ops = make_ops(k, x.shape)
    direct = ops.At(ops.A(x))
    spectral = np.real(np.fft.ifft2(np.fft.fft2(x) * lam.eigenvalues))
    assert np.allclose(direct, spectral, atol=1e-10)


def test_masked_adjoint_ignores_masked_coordinates(rng):
    shape = (6, 6)
    ops = make_ops(ConvolutionKernel.identity(), shape, "masked")
    planes = rng.standard_normal((2,) + shape)
    garbage = planes.copy()
    garbage[~ops.mask] = 1e9  # must not leak into the adjoint
    a = ops.Ct(np.where(ops.mask, planes, 0.0))
    b = ops.Ct(garbage)
    assert np.allclose(a, b)


def test_sparse_matrices_match_operators(rng):
    # the slice stencils of C and C' at the bounds: odd sides, one row, one column
    for shape in [(5, 6)] + ODD_AND_DEGENERATE_SHAPES:
        k = fitting_kernel(rng, shape)
        A = sparse_blur_matrix(k, shape)
        x = rng.standard_normal(shape)
        assert np.allclose(A @ x.ravel(), make_ops(k, shape).A(x).ravel(),
                           atol=1e-12)
        for mode in ("periodic", "masked"):
            ops = make_ops(k, shape, mode)
            C = sparse_diff_matrix(shape, mode)
            assert np.allclose(C @ x.ravel(), ops.C(x).ravel(), atol=1e-12)
            r = rng.standard_normal((2,) + shape)
            r = np.where(ops.mask, r, 0.0)
            assert np.allclose(C.T @ r.ravel(), ops.Ct(r).ravel(), atol=1e-12)


def test_gram_matches_composition(rng):
    # the fused Hessian apply against rho A'(A z) + eta C'(C z)
    for shape in ODD_AND_DEGENERATE_SHAPES:
        for boundary in ("periodic", "masked"):
            for mode in ("periodic", "masked"):
                ops = make_ops(fitting_kernel(rng, shape, boundary), shape, mode)
                z = rng.standard_normal(shape)
                rho, eta = rng.uniform(0.1, 3.0, size=2)
                want = rho * ops.At(ops.A(z)) + eta * ops.Ct(ops.C(z))
                got = ops.gram(z, rho, eta)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_problem_ops_builds_transfer_and_mask_once(rng, monkeypatch):
    # A, A', C, C', the Gram apply and the circulant solves reuse what the
    # constructor built, and none of them takes a complex FFT of real data;
    # the Gram apply of a periodic kernel needs neither C nor C'
    from sbadmm import algorithms, operators
    from sbadmm.inner import circulant_preconditioner, circulant_solve_array
    shape = (6, 7)
    ops = make_ops(random_kernel(rng), shape, "masked")
    periodic_ops = make_ops(random_kernel(rng), shape, "periodic")

    def forbidden(*args, **kwargs):
        raise AssertionError("rebuilt per call or complex FFT")

    monkeypatch.setattr(operators, "embed_kernel", forbidden)
    monkeypatch.setattr(operators, "diff_mask", forbidden)
    monkeypatch.setattr(np.fft, "fft2", forbidden)
    monkeypatch.setattr(np.fft, "ifft2", forbidden)
    x = rng.standard_normal(shape)
    ops.Ct(ops.C(ops.At(ops.A(x))))
    ops.gram(x, 2.0, 0.5)
    circulant_preconditioner(ops.lam, ops.om, 2.0, 0.5)(x)
    circulant_solve_array(ops.lam, ops.om, 2.0, 0.5, x)
    monkeypatch.setattr(algorithms, "difference", forbidden)
    monkeypatch.setattr(algorithms, "difference_transpose", forbidden)
    ops.gram(x, 2.0, 0.5)
    periodic_ops.gram(x, 2.0, 0.5)


def test_spectrum_rejects_negative_eigenvalues():
    from sbadmm.operators import BccbSpectrum
    with pytest.raises(ValueError):
        BccbSpectrum(np.array([[-1.0, 0.0]]))
    # tiny negative DFT noise is clamped to zero
    s = BccbSpectrum(np.array([[-1e-15, 2.0]]))
    assert s.eigenvalues.min() == 0.0
