"""Inner solvers for the x-update least-squares system (rho A'A + eta C'C) x = b.

Two routes: an exact per-frequency division when both Gram operators are
circulant, and a fixed-iteration preconditioned conjugate gradient loop for
the masked (only approximately circulant) case.  Both divide a real FFT by
the half spectrum of the Hessian.  When the preconditioner inverts the
circulant part M of the Hessian exactly, PCG takes the Hessian as M minus a
cheap correction and needs no Hessian apply inside its loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import BccbSpectrum, half_spectrum

PRECONDITIONER_FLOOR = 1e-8


class SingularHessianError(ValueError):
    """The x-update Hessian is singular at some frequency."""


class PcgBreakdownError(RuntimeError):
    """Conjugate gradients hit a zero/negative curvature direction."""


@dataclass
class InnerSolveConfig:
    """How the x-update system is solved.

    mode            'circulant_exact' or 'pcg'
    pcg_iterations  fixed step count for PCG (tolerance 0 keeps it
                    iteration-count-limited)
    """

    mode: str = "circulant_exact"
    pcg_iterations: int = 3
    pcg_tolerance: float = 0.0
    preconditioner: str = "circulant"

    def __post_init__(self):
        if self.mode not in ("circulant_exact", "pcg"):
            raise ValueError("mode must be 'circulant_exact' or 'pcg'")
        if self.mode == "pcg" and self.pcg_iterations < 1:
            raise ValueError("pcg_iterations must be >= 1")
        if self.pcg_tolerance < 0:
            raise ValueError("pcg_tolerance must be nonnegative")
        if self.preconditioner not in ("none", "circulant"):
            raise ValueError("preconditioner must be 'none' or 'circulant'")


def hessian_spectrum(lam: BccbSpectrum, omega: BccbSpectrum, rho, eta):
    if lam.shape != omega.shape:
        raise ValueError("spectra live on different grids")
    if not (rho > 0 and eta > 0):
        raise ValueError("rho and eta must be positive")
    return rho * lam.eigenvalues + eta * omega.eigenvalues


def spectral_divide(r, half_denom):
    """Divide the real FFT of r by a half-width spectrum and transform back."""
    f = np.fft.rfft2(r)
    f /= half_denom
    return np.fft.irfft2(f, s=r.shape)


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


def floored_half_spectrum(denom, floor_rel: float = PRECONDITIONER_FLOOR):
    """Half spectrum of the circulant Hessian surrogate raised to
    floor_rel * max at near-null frequencies, and whether the floor raised
    any frequency (then it is no longer the surrogate's exact inverse)."""
    floor = floor_rel * denom.max()
    return half_spectrum(np.maximum(denom, floor)), bool(denom.min() < floor)


def circulant_preconditioner(lam: BccbSpectrum, omega: BccbSpectrum, rho, eta,
                             floor_rel: float = PRECONDITIONER_FLOOR):
    """Inverse of the circulant Hessian surrogate, floored at near-null
    frequencies so masked problems cannot divide by (almost) zero."""
    denom, _ = floored_half_spectrum(hessian_spectrum(lam, omega, rho, eta),
                                     floor_rel)
    return lambda r: spectral_divide(r, denom)


@dataclass
class PcgResult:
    x: np.ndarray
    residual_norms: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.residual_norms)


def pcg_solve(hessian, rhs, config: InnerSolveConfig, warm_start=None,
              preconditioner=None, correction=None) -> PcgResult:
    """Run config.pcg_iterations preconditioned CG steps on hessian(x) = rhs.

    ``hessian`` and ``preconditioner`` are pure callables on arrays; the
    Hessian must be symmetric positive definite on the full-rank split.  The
    error in the Hessian norm decreases monotonically by construction; a
    nonpositive curvature or preconditioned residual product means the
    operator violated that assumption and raises PcgBreakdownError.

    ``correction`` declares H = M - W with M the exact inverse of the
    preconditioner (the identity without one): ``correction(p, out)``
    subtracts W p from ``out`` in place.  Since z = M^-1 r and
    p = z + beta p, the loop then keeps M p = r + beta M p beside p and
    forms H p = M p - W p, so ``hessian`` is called only for the initial
    residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    x = np.zeros_like(rhs) if warm_start is None else np.array(warm_start, dtype=float)
    if preconditioner is None:
        preconditioner = lambda r: r
    r = rhs - hessian(x)
    z = preconditioner(r)
    p = z
    mp = r
    rz = float(np.vdot(r, z).real)
    rhs_norm = float(np.linalg.norm(rhs))
    result = PcgResult(x=x)
    for step in range(config.pcg_iterations):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= config.pcg_tolerance * rhs_norm or rz == 0.0:
            break
        if rz < 0.0:
            raise PcgBreakdownError(
                "indefinite preconditioner at step %d (r'z = %g)" % (step, rz))
        if correction is None:
            hp = hessian(p)
        else:
            hp = mp.copy()
            correction(p, hp)
        php = float(np.vdot(p, hp).real)
        if php <= 0.0:
            raise PcgBreakdownError(
                "nonpositive curvature at step %d (p'Hp = %g)" % (step, php))
        if not np.isfinite(php):
            raise PcgBreakdownError("non-finite curvature at step %d" % step)
        a = rz / php
        x = x + a * p
        r = r - a * hp
        result.residual_norms.append(float(np.linalg.norm(r)))
        if step + 1 == config.pcg_iterations:
            break  # no next direction is needed after the last step
        z = preconditioner(r)
        rz_new = float(np.vdot(r, z).real)
        beta = rz_new / rz
        p = z + beta * p
        if correction is not None:
            mp = r + beta * mp
        rz = rz_new
    result.x = x
    if not np.all(np.isfinite(x)):
        raise PcgBreakdownError("non-finite iterate after %d steps" % result.iterations)
    return result
