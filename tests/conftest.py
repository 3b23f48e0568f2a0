import numpy as np
import pytest

from sbadmm.grids import ConvolutionKernel, ImageGrid
from sbadmm.algorithms import ProblemOps, ProblemSpec
from sbadmm.prox import Potential


def random_kernel(rng, size=3, boundary="periodic"):
    taps = rng.standard_normal((size, size))
    taps[size // 2, size // 2] += size * size  # keep the DC response nonzero
    taps /= np.abs(taps).sum()
    return ConvolutionKernel(taps, (size // 2, size // 2), boundary)


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
