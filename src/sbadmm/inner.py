"""Inner solvers for the x-update least-squares system (rho A'A + eta C'C) x = b.

Two routes: an exact solve, and a fixed-iteration preconditioned conjugate
gradient loop preconditioned by the inverse of the circulant part M of the
Hessian.  ``ProblemOps`` runs both on the half spectrum, where M is a
product, and raises SingularHessianError in both where M vanishes; the
array helpers here divide a real FFT by the half spectrum of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .operators import half_spectrum, irfft2, rfft2

PRECONDITIONER_FLOOR = 1e-8
RZ_UNDERFLOW = np.finfo(float).tiny


class SingularHessianError(ValueError):
    """The x-update Hessian is singular at some frequency."""


class PcgBreakdownError(RuntimeError):
    """Conjugate gradients hit a zero/negative curvature direction."""


@dataclass
class InnerSolveConfig:
    """How the x-update system is solved.

    mode            'circulant_exact' or 'pcg'
    pcg_iterations  fixed step count for PCG, which is preconditioned by
                    the inverse of the circulant Hessian surrogate
    """

    mode: str = "circulant_exact"
    pcg_iterations: int = 3

    def __post_init__(self):
        if self.mode not in ("circulant_exact", "pcg"):
            raise ValueError("mode must be 'circulant_exact' or 'pcg'")
        if self.mode == "pcg" and self.pcg_iterations < 1:
            raise ValueError("pcg_iterations must be >= 1")


def hessian_spectrum(lam, omega, rho, eta):
    if lam.shape != omega.shape:
        raise ValueError("spectra live on different grids")
    if not (rho > 0 and eta > 0):
        raise ValueError("rho and eta must be positive")
    return rho * lam + eta * omega


def spectral_divide(r, half_denom):
    """Divide the real FFT of r by a half-width spectrum and transform back."""
    f = rfft2(r)
    f /= half_denom
    return irfft2(f, r.shape)


def check_nonsingular(denom):
    """Raise SingularHessianError where the full Hessian spectrum vanishes."""
    if denom.min() <= 0.0:
        i, j = np.unravel_index(int(np.argmin(denom)), denom.shape)
        raise SingularHessianError(
            "rho*lambda + eta*omega vanishes at frequency (%d, %d)" % (i, j))


def circulant_solve_array(lam, omega, rho, eta, rhs):
    """Exact solve of (rho A'A + eta C'C) x = rhs by frequency division."""
    denom = hessian_spectrum(lam, omega, rho, eta)
    check_nonsingular(denom)
    return spectral_divide(rhs, half_spectrum(denom))


def circulant_preconditioner(lam, omega, rho, eta,
                             floor_rel: float = PRECONDITIONER_FLOOR):
    """Inverse of the circulant Hessian surrogate, floored at near-null
    frequencies so masked problems cannot divide by (almost) zero."""
    denom = hessian_spectrum(lam, omega, rho, eta)
    denom = half_spectrum(np.maximum(denom, floor_rel * denom.max()))
    return lambda r: spectral_divide(r, denom)


@dataclass
class PcgResult:
    x: np.ndarray
    residual_norms: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.residual_norms)


def pcg_solve(hessian, rhs, config: InnerSolveConfig, warm_start=None,
              preconditioner=None) -> PcgResult:
    """Run config.pcg_iterations preconditioned CG steps on hessian(x) = rhs.

    ``hessian`` and ``preconditioner`` are pure callables on arrays; the
    Hessian must be symmetric positive definite on the full-rank split.  The
    arrays are real images or their unitarily scaled half spectra
    (``ProblemOps.hat``), on which Re vdot is the same inner product.  The
    error in the Hessian norm decreases monotonically by construction; a
    nonpositive curvature or preconditioned residual product means the
    operator violated that assumption and raises PcgBreakdownError.  The
    loop stops early once r'z underflows: p'Hp would round to zero next.
    x, r and p are updated in place, x and r by BLAS axpy on the flat views
    of arrays allocated here (C-contiguous, so the views are not copies);
    p starts as the first z, copied only when it shares memory with r, as
    the default preconditioner's does.  rhs and warm_start are never
    written.
    """
    rhs = np.asarray(rhs)
    x = np.zeros(rhs.shape, np.result_type(rhs, 1.0)) if warm_start is None \
        else np.array(warm_start, np.result_type(rhs, warm_start, 1.0),
                      order="C")
    if preconditioner is None:
        preconditioner = lambda r: r
    r = np.subtract(rhs, hessian(x), dtype=x.dtype, order="C")
    x_flat, r_flat = x.reshape(-1), r.reshape(-1)
    axpy = get_blas_funcs("axpy", (x_flat,))
    z = preconditioner(r)
    p = np.array(z) if np.may_share_memory(z, r) else z
    rz = float(np.vdot(r, z).real)
    result = PcgResult(x=x)
    for step in range(config.pcg_iterations):
        if rz < 0.0:
            raise PcgBreakdownError(
                "indefinite preconditioner at step %d (r'z = %g)" % (step, rz))
        if rz < RZ_UNDERFLOW:
            break  # r = 0 to working precision for a definite preconditioner
        hp = hessian(p)
        php = float(np.vdot(p, hp).real)
        if php <= 0.0:
            raise PcgBreakdownError(
                "nonpositive curvature at step %d (p'Hp = %g)" % (step, php))
        if not np.isfinite(php):
            raise PcgBreakdownError("non-finite curvature at step %d" % step)
        a = rz / php
        axpy(np.ravel(p), x_flat, a=a)
        axpy(np.ravel(hp), r_flat, a=-a)
        result.residual_norms.append(math.sqrt(np.vdot(r, r).real))
        if step + 1 == config.pcg_iterations:
            break  # no next direction is needed after the last step
        z = preconditioner(r)
        rz_new = float(np.vdot(r, z).real)
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
    result.x = x
    if not np.all(np.isfinite(x)):
        raise PcgBreakdownError("non-finite iterate after %d steps" % result.iterations)
    return result
