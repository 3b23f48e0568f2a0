import numpy as np
import pytest

from sbadmm.grids import ConvolutionKernel, ImageGrid
from sbadmm.algorithms import ProblemOps, ProblemSpec
from sbadmm.prox import Potential


def random_kernel(rng, size=3):
    """Random centred kernel; size is the side or the (rows, cols) of its taps.

    The centre tap outweighs all others together, so no frequency of the
    transfer can vanish: |transfer| >= 2 * centre - 1 after normalization.
    """
    kh, kw = (size, size) if np.isscalar(size) else size
    taps = rng.standard_normal((kh, kw))
    taps[kh // 2, kw // 2] = np.abs(taps).sum() + 1.0
    taps /= np.abs(taps).sum()
    return ConvolutionKernel(taps, (kh // 2, kw // 2))


# Even and odd widths and heights, and the degenerate single row and column.
ODD_AND_DEGENERATE_SHAPES = [(6, 8), (7, 5), (5, 9), (1, 6), (1, 7), (6, 1),
                             (7, 1)]


def fitting_kernel(rng, shape):
    """Random kernel of at most 3x3 taps that fits the grid."""
    return random_kernel(rng, (min(3, shape[0]), min(3, shape[1])))


def random_problem(rng, shape=(8, 8), mask_mode="periodic", alpha=0.25,
                   kind="quadratic", threshold=1.0):
    kernel = random_kernel(rng)
    y = rng.standard_normal(shape)
    if kind in ("huber", "fair"):
        pot = Potential(kind, alpha, threshold)
    else:
        pot = Potential(kind, alpha)
    return ProblemSpec(y=ImageGrid(y), kernel=kernel, mask_mode=mask_mode,
                       potential=pot)


def make_ops(kernel, shape, mask_mode="periodic"):
    """Operators A, A', C, C' of a quadratic problem with zero data."""
    return ProblemOps(ProblemSpec(y=ImageGrid(np.zeros(shape)), kernel=kernel,
                                  mask_mode=mask_mode,
                                  potential=Potential.quadratic(1.0)))


def wrap_hat(ops, c):
    """hat(U c) for the wrap vector c, by the product pcg_hat runs."""
    (factors,) = ops._wrap_factors(c[None])
    out = np.empty((ops.shape[0], ops.shape[1] // 2 + 1), complex)
    return ops._wrap_hat_rows(factors, slice(None), out)


def hessian_hat(ops, f, rho, eta):
    """hat(H unhat(f)) = M f + hat(U c), c = -eta U' unhat(f), by the
    products pcg_hat runs; periodic C has no wraps.  Symmetric to
    rounding, which a composed hat(H unhat(f)) is not: pcg_solve on that
    raises p'Hp < 0 on single-row and single-column grids."""
    out = f * ops.hessian_spectra(rho, eta)[0]
    if ops.mask_mode == "masked":
        out += wrap_hat(ops, -eta * ops._wrap_adjoint_hat(f))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
