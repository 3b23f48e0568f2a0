"""Property tests of the half-spectrum layer of ProblemOps: the scaled real
FFT hat/unhat, the wrap operators U and U' on spectra, and the exact
spectral x-update, on random grids down to single rows and columns."""

import numpy as np
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from sbadmm.operators import (difference, difference_transpose,
                              sparse_blur_matrix, sparse_diff_matrix)
from conftest import fitting_kernel, make_ops, wrap_hat

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

shapes = st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(
    lambda s: s != (1, 1))
modes = st.sampled_from(["periodic", "masked"])
seeds = st.integers(0, 2**32 - 1)


def problem(shape, mode, seed):
    rng = np.random.default_rng(seed)
    return make_ops(fitting_kernel(rng, shape), shape, mode), rng


@PROPERTY
@given(shapes, modes, seeds)
@example((1, 6), "masked", 0)
@example((7, 1), "masked", 0)
@example((2, 2), "masked", 0)
def test_unhat_inverts_hat(shape, mode, seed):
    ops, rng = problem(shape, mode, seed)
    z = rng.standard_normal(shape)
    assert np.allclose(ops.unhat(ops.hat(z)), z, rtol=0.0, atol=1e-13)


@PROPERTY
@given(shapes, modes, seeds)
@example((1, 6), "periodic", 0)
@example((6, 1), "periodic", 0)
@example((2, 2), "periodic", 0)
def test_hat_preserves_inner_products(shape, mode, seed):
    ops, rng = problem(shape, mode, seed)
    x, y = rng.standard_normal((2,) + shape)
    want = np.sum(x * y)
    got = np.vdot(ops.hat(x), ops.hat(y)).real
    assert abs(got - want) <= 1e-12
    assert np.isclose(np.linalg.norm(ops.hat(x)), np.linalg.norm(x),
                      rtol=1e-14, atol=0.0)


@PROPERTY
@given(shapes, modes, seeds)
@example((1, 7), "masked", 0)
@example((7, 1), "masked", 0)
@example((2, 2), "masked", 0)
def test_spectral_wraps_match_real_wraps(shape, mode, seed):
    # U U' z on the half spectrum against W z = C'C_periodic z - C'C_masked z
    # of the difference operators themselves; U'z on the half spectrum is
    # the wrap vector (the unitary spectra) of the real wraps of z
    ops, rng = problem(shape, mode, seed)
    z = rng.standard_normal(shape)
    want = (difference_transpose(difference(z, "periodic"), "periodic")
            - difference_transpose(difference(z, "masked"), "masked"))
    f = ops.hat(z)
    v = ops._wrap_adjoint_hat(f)
    got = ops.unhat(wrap_hat(ops, v))
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)
    wraps = np.concatenate((np.fft.fft(z[:, 0] - z[:, -1], norm="ortho"),
                            np.fft.rfft(z[0] - z[-1]) * ops._col_scale))
    assert np.allclose(v, wraps, rtol=0.0, atol=1e-13)


@PROPERTY
@given(shapes, modes, seeds, st.floats(0.1, 3.0), st.floats(0.1, 3.0))
@example((1, 6), "masked", 0, 1.0, 0.25)
@example((6, 1), "masked", 0, 1.0, 0.25)
@example((2, 2), "masked", 0, 1.0, 0.25)
def test_spectral_exact_solve_matches_sparse_solve(shape, mode, seed, rho,
                                                   eta):
    ops, rng = problem(shape, mode, seed)
    A = sparse_blur_matrix(ops.problem.kernel, shape)
    C = sparse_diff_matrix(shape, mode)
    normal = (rho * (A.T @ A) + eta * (C.T @ C)).tocsc()
    b = rng.standard_normal(shape)
    want = spla.spsolve(normal, b.ravel())
    got = ops.solve(b, rho, eta).ravel()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
