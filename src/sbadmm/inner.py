"""Inner solvers for the x-update least-squares system (rho A'A + eta C'C) x = b.

Two routes, both conjugate gradients preconditioned by the inverse of the
circulant part M of the Hessian: k fixed steps, or an exact solve run to
rounding level (with periodic C, a division by M).  ``ProblemOps`` runs
both on the half spectrum and raises SingularHessianError where M vanishes.
The array helpers here divide a real FFT by the exact half spectrum of M,
and ``pcg_solve`` is the plain PCG loop the library's solve is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import half_spectrum, irfft2, rfft2

RZ_UNDERFLOW = np.finfo(float).tiny


class SingularHessianError(ValueError):
    """The x-update Hessian is singular at some frequency."""


class PcgBreakdownError(RuntimeError):
    """Conjugate gradients hit a zero/negative curvature direction."""


@dataclass
class InnerSolveConfig:
    """How the x-update system is solved.

    mode            'circulant_exact' or 'pcg'; an exact masked solve is
                    PCG run to rounding level
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
    """M = rho lambda + eta omega, the spectrum of the circulant part of the
    Hessian on the frequencies of the spectra given, full or half; raises
    SingularHessianError where it vanishes.  lam and omega are written
    over, the sum going into lam, so a caller passes spectra it owns."""
    if lam.shape != omega.shape:
        raise ValueError("spectra live on different grids")
    if not (rho > 0 and eta > 0):
        raise ValueError("rho and eta must be positive")
    lam *= rho
    omega *= eta
    denom = np.add(lam, omega, out=lam)
    if denom.min() <= 0.0:
        i, j = np.unravel_index(int(np.argmin(denom)), denom.shape)
        raise SingularHessianError(
            "rho*lambda + eta*omega vanishes at frequency (%d, %d)" % (i, j))
    return denom


def circulant_preconditioner(lam, omega, rho, eta):
    """Inverse of the circulant Hessian surrogate M = rho lambda + eta omega,
    as a map on real arrays: their real FFT divided by the half spectrum of
    M.  Raises SingularHessianError where M vanishes."""
    denom = hessian_spectrum(half_spectrum(lam), half_spectrum(omega), rho,
                             eta)
    return lambda r: irfft2(rfft2(r) / denom, r.shape)


def circulant_solve_array(lam, omega, rho, eta, rhs):
    """Exact solve of (rho A'A + eta C'C) x = rhs by frequency division."""
    return circulant_preconditioner(lam, omega, rho, eta)(rhs)


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

    The plain textbook loop, kept as the reference that ``ProblemOps.pcg_hat``
    is tested against.  ``hessian`` and ``preconditioner`` are pure callables
    on arrays; the Hessian must be symmetric positive definite on the
    full-rank split.  The arrays are real images or their unitarily scaled
    half spectra (``ProblemOps.hat``), on which Re vdot is the same inner
    product.  The error in the Hessian norm decreases monotonically by
    construction; a nonpositive curvature or preconditioned residual product
    means the operator violated that assumption and raises
    PcgBreakdownError.  The loop stops early once r'z underflows: p'Hp would
    round to zero next.  No array is updated in place, so rhs and warm_start
    are never written.
    """
    rhs = np.asarray(rhs)
    x = np.zeros(rhs.shape, np.result_type(rhs, 1.0)) if warm_start is None \
        else np.array(warm_start, np.result_type(rhs, warm_start, 1.0))
    if preconditioner is None:
        preconditioner = lambda r: r
    r = rhs - hessian(x)
    p = z = preconditioner(r)
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
        x = x + a * p
        r = r - a * hp
        result.residual_norms.append(math.sqrt(np.vdot(r, r).real))
        if step + 1 == config.pcg_iterations:
            break  # no next direction is needed after the last step
        z = preconditioner(r)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    result.x = x
    if not np.all(np.isfinite(x)):
        raise PcgBreakdownError("non-finite iterate after %d steps" % result.iterations)
    return result
