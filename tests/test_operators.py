import tracemalloc

import numpy as np
import pytest

from sbadmm.algorithms import ProblemOps
from sbadmm.grids import ConvolutionKernel
from sbadmm.operators import (blur_transfer, diff_gram_spectrum, diff_mask,
                              difference, difference_transpose, embed_kernel,
                              gram_spectrum, irfft2, rfft2,
                              sparse_blur_matrix, sparse_diff_matrix,
                              split_operator_rank_check)
from conftest import (ODD_AND_DEGENERATE_SHAPES, fitting_kernel, hessian_hat,
                      make_ops, random_kernel, random_problem)


def test_identity_kernel_is_identity(rng):
    x = rng.standard_normal((5, 5))
    ops = make_ops(ConvolutionKernel(np.ones((1, 1))), x.shape)
    assert np.allclose(ops.A(x), x)
    assert np.allclose(ops.At(x), x)


def test_uniform_kernel_preserves_constants():
    k = ConvolutionKernel(np.full((3, 3), 1.0 / 9.0), (1, 1))
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


def test_kernel_must_fit_grid():
    k = ConvolutionKernel(np.ones((3, 3)) / 9.0, (1, 1))
    with pytest.raises(ValueError):
        make_ops(k, (2, 2))


def test_diff_forward_row_periodic_and_masked():
    x = np.array([[0.0, 1.0, 3.0, 6.0]])
    k = ConvolutionKernel(np.ones((1, 1)))
    gp = make_ops(k, x.shape, "periodic").C(x)
    assert np.allclose(gp[0], [[1.0, 2.0, 3.0, -6.0]])
    masked = make_ops(k, x.shape, "masked")
    assert np.allclose(masked.C(x)[0], [[1.0, 2.0, 3.0, 0.0]])
    assert not diff_mask(masked.shape, masked.mask_mode)[0, 0, -1]


def test_diff_of_constant_is_zero():
    x = np.full((4, 4), 2.0)
    for mode in ("periodic", "masked"):
        ops = make_ops(ConvolutionKernel(np.ones((1, 1))), x.shape, mode)
        assert np.all(ops.C(x) == 0.0)


def test_diff_rejects_degenerate_image():
    with pytest.raises(ValueError):
        make_ops(ConvolutionKernel(np.ones((1, 1))), (1, 1), "periodic")
    with pytest.raises(ValueError):
        make_ops(ConvolutionKernel(np.ones((1, 1))), (2, 2), "mirror")


def test_diff_gram_row_is_circular_laplacian():
    x = np.array([[1.0, 0.0, 0.0, 0.0]])
    ops = make_ops(ConvolutionKernel(np.ones((1, 1))), x.shape, "periodic")
    assert np.allclose(ops.Ct(ops.C(x)), [[2.0, -1.0, 0.0, -1.0]])


def test_diff_adjoint_zero_field():
    ops = make_ops(ConvolutionKernel(np.ones((1, 1))), (3, 3), "masked")
    assert np.all(ops.Ct(np.zeros((2, 3, 3))) == 0.0)


def test_gram_spectrum_identity_kernel():
    lam = gram_spectrum(ConvolutionKernel(np.ones((1, 1))), (4, 4))
    assert np.allclose(lam, 1.0)


def test_diff_gram_spectrum_row_of_four():
    om = diff_gram_spectrum((1, 4))
    expected = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(4) / 4.0)
    # vertical differences vanish on a single row only through the h=1 wrap
    assert np.allclose(np.sort(om.ravel()), np.sort(expected))


def test_diff_gram_spectrum_dc_is_zero():
    om = diff_gram_spectrum((8, 8))
    assert om[0, 0] == 0.0
    assert np.all(om >= 0.0)


def test_rank_check_cases():
    shape = (8, 8)
    lam_id = gram_spectrum(ConvolutionKernel(np.ones((1, 1))), shape)
    om = diff_gram_spectrum(shape)
    zero = np.zeros(shape)

    ok = split_operator_rank_check(lam_id, zero)
    assert ok.full_rank and np.isclose(ok.min_combined_eigenvalue, 1.0)

    bad = split_operator_rank_check(zero, om)
    assert not bad.full_rank  # constants are in the null space of C

    k = ConvolutionKernel(np.full((3, 3), 1.0 / 9.0), (1, 1))
    good = split_operator_rank_check(gram_spectrum(k, shape), om)
    assert good.full_rank

    with pytest.raises(ValueError, match="different grids"):
        split_operator_rank_check(lam_id, om[:, :5])


def test_adjoint_identities_random(rng):
    # definitional <Ax, r> == <x, A'r> for blur and differences, both modes
    for _ in range(100):
        shape = (rng.integers(4, 9), rng.integers(4, 9))
        for mode in ("periodic", "masked"):
            ops = make_ops(random_kernel(rng), shape, mode)
            x = rng.standard_normal(shape)
            r = rng.standard_normal(shape)
            lhs = np.sum(ops.A(x) * r)
            rhs = np.sum(x * ops.At(r))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

            g = np.where(diff_mask(ops.shape, ops.mask_mode),
                         rng.standard_normal((2,) + tuple(shape)), 0.0)
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
    spectral = np.real(np.fft.ifft2(np.fft.fft2(x) * lam))
    assert np.allclose(direct, spectral, atol=1e-10)


def test_masked_adjoint_ignores_masked_coordinates(rng):
    shape = (6, 6)
    ops = make_ops(ConvolutionKernel(np.ones((1, 1))), shape, "masked")
    planes = rng.standard_normal((2,) + shape)
    garbage = planes.copy()
    mask = diff_mask(ops.shape, ops.mask_mode)
    garbage[~mask] = 1e9  # must not leak into the adjoint
    a = ops.Ct(np.where(mask, planes, 0.0))
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
            r = np.where(diff_mask(ops.shape, ops.mask_mode), r, 0.0)
            assert np.allclose(C.T @ r.ravel(), ops.Ct(r).ravel(), atol=1e-12)


def test_difference_and_its_transpose_match_the_sparse_matrix(rng):
    # every grid up to 9x9, so every row-end and wrap case of the flat
    # subtractions: C exactly, C' up to the order of its sums.  A width of
    # 8 makes a column view a 64-byte stride, which numpy 2.4.6's
    # np.negative misreads when both its input and output are such views;
    # every entry of g is random, so entries off the mask must be ignored
    for h in range(1, 10):
        for w in range(1, 10):
            for mode in ("periodic", "masked"):
                C = sparse_diff_matrix((h, w), mode)
                x = rng.standard_normal((h, w))
                g = rng.standard_normal((2, h, w))
                want = (C @ x.ravel()).reshape(2, h, w)
                want_t = (C.T @ g.ravel()).reshape(h, w)
                out = np.full((2, h, w), np.nan)
                out_t = np.full((h, w), np.nan)
                assert difference(x, mode, out) is out
                assert difference_transpose(g, mode, out_t) is out_t
                for got in (difference(x, mode), out):
                    assert np.array_equal(got, want), (h, w, mode)
                for got in (difference_transpose(g, mode), out_t):
                    assert np.allclose(got, want_t, rtol=0.0, atol=1e-14), \
                        (h, w, mode)


def test_gram_matches_composition(rng):
    # the Hessian apply on the half spectrum, by the products pcg_hat runs,
    # against hat(rho A'(A z) + eta C'(C z)); hat is unitary, so the norms
    # are those of the images
    for shape in ODD_AND_DEGENERATE_SHAPES:
        for mode in ("periodic", "masked"):
            ops = make_ops(fitting_kernel(rng, shape), shape, mode)
            z = rng.standard_normal(shape)
            rho, eta = rng.uniform(0.1, 3.0, size=2)
            want = ops.hat(rho * ops.At(ops.A(z)) + eta * ops.Ct(ops.C(z)))
            got = hessian_hat(ops, ops.hat(z), rho, eta)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_problem_ops_builds_transfer_and_mask_once(rng, monkeypatch):
    # A, A', C, C', the exact solve on the half spectrum and the circulant
    # solves reuse what the constructor built, and none of them takes a
    # complex FFT of real data; the half-spectrum solve needs neither C nor
    # C'
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
    ops.solve(x, 2.0, 0.5)
    circulant_preconditioner(ops.lam, ops.om, 2.0, 0.5)(x)
    circulant_solve_array(ops.lam, ops.om, 2.0, 0.5, x)
    monkeypatch.setattr(algorithms, "difference", forbidden)
    monkeypatch.setattr(algorithms, "difference_transpose", forbidden)
    ops.solve(x, 2.0, 0.5)
    periodic_ops.solve(x, 2.0, 0.5)


def test_random_kernel_transfer_is_bounded_away_from_zero():
    # the fixture's centre tap dominates, so on every shape the suite uses
    # no frequency of the transfer comes near zero: a nearly cancelling
    # kernel would make the 1e-12 solve checks hinge on the seed
    for shape in ([(8, 8)] + ODD_AND_DEGENERATE_SHAPES
                  + [(2, 3), (3, 2), (2, 2), (1, 2), (2, 1)]):
        worst = np.inf
        for seed in range(1000):
            k = fitting_kernel(np.random.default_rng(seed), shape)
            smallest = np.abs(blur_transfer(k, shape)).min()
            centre = k.taps[k.anchor]
            assert smallest >= 2.0 * centre - 1.0 - 1e-12
            worst = min(worst, smallest)
        assert worst >= 0.05, (shape, worst)


def test_real_fft_pair_is_numpys_bit_for_bit(rng):
    for shape in ODD_AND_DEGENERATE_SHAPES + [(64, 64)]:
        x = rng.standard_normal(shape)
        f = rfft2(x)
        assert np.array_equal(f, np.fft.rfft2(x))
        assert np.array_equal(irfft2(f.copy(), shape),
                              np.fft.irfft2(f, s=shape))


def test_rfft2_allocates_one_half_spectrum(rng):
    # numpy's rfft2 holds the row pass and the column pass at once
    x = rng.standard_normal((256, 256))
    half_bytes = 256 * 129 * 16
    tracemalloc.start()
    try:
        f = rfft2(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.shape == (256, 129)
    assert peak <= 1.05 * half_bytes


def test_unhat_leaves_its_argument_and_scratch_private(rng):
    # f is never written; the scratch spectrum is the work array given, or
    # a new one, and the result shares memory with neither
    for mode in ("periodic", "masked"):
        ops = make_ops(random_kernel(rng), (6, 7), mode)
        f = ops.hat(rng.standard_normal(ops.shape))
        before = f.copy()
        work = np.empty_like(f)
        x = ops.unhat(f)
        again = ops.unhat(f, work=work)
        assert np.array_equal(f, before)
        assert np.array_equal(x, again)
        assert np.allclose(ops.hat(x), f, atol=1e-13)
        assert not np.shares_memory(x, again)
        for out in (x, again):
            assert not np.shares_memory(out, work)
            assert not np.shares_memory(out, f)


def test_transfer_and_its_conjugate_act_as_a_and_its_adjoint_on_hat(rng):
    # hat scales whole columns, so it keeps A diagonal: hat(A x) =
    # transfer hat(x) and hat(A' r) = conj(transfer) hat(r)
    for shape in ODD_AND_DEGENERATE_SHAPES:
        ops = make_ops(fitting_kernel(rng, shape), shape)
        x = rng.standard_normal(shape)
        for got, want in ((ops.transfer * ops.hat(x), ops.hat(ops.A(x))),
                          (np.conj(ops.transfer) * ops.hat(x),
                           ops.hat(ops.At(x)))):
            assert np.abs(got - want).max() <= 1e-13, shape


def old_gram_spectrum(kernel, shape):
    return np.abs(np.fft.fft2(embed_kernel(kernel, shape))) ** 2


def old_diff_gram_spectrum(shape):
    h, w = shape
    zh = np.zeros(shape)
    zh[0, 0] += -1.0
    zh[0, (w - 1) % w] += 1.0
    zv = np.zeros(shape)
    zv[0, 0] += -1.0
    zv[(h - 1) % h, 0] += 1.0
    return np.abs(np.fft.fft2(zh)) ** 2 + np.abs(np.fft.fft2(zv)) ** 2


def test_spectra_match_their_fft2_forms(rng):
    for shape in ODD_AND_DEGENERATE_SHAPES + [(1, 2), (2, 1)]:
        k = fitting_kernel(rng, shape)
        lam, want = gram_spectrum(k, shape), old_gram_spectrum(k, shape)
        assert lam.shape == want.shape
        assert np.abs(lam - want).max() <= 1e-14 * np.abs(want).max()
        om = diff_gram_spectrum(shape)
        assert np.abs(om - old_diff_gram_spectrum(shape)).max() <= 1e-14
        assert om[0, 0] == 0.0


def test_problem_ops_spectra_need_no_2d_fft(rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("2-D complex FFT")

    problem = random_problem(rng, shape=(7, 6), mask_mode="masked")
    monkeypatch.setattr(np.fft, "fft2", forbidden)
    ops = ProblemOps(problem)
    assert np.array_equal(ops.lam, gram_spectrum(problem.kernel, ops.shape))
