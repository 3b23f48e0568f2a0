"""Spectral convergence-rate analysis of the two-split recursion.

Per-frequency rate functions for the three analyzable parameter regimes:

  Case I   (rho = 1, the split Bregman method):
             s1(d) = eta/(eta+alpha) * (alpha + eta^2 d)/(eta + eta^2 d)
  Case II  (eta = alpha, single data split):
             s2(d) = rho/(rho+1) * (rho^2 + alpha d)/(rho^2 + alpha rho d)
  Case III (rho = eta/alpha, matched penalties):
             s3    = eta/(eta+alpha), uniform over frequencies

where d = omega_i / lambda_i is the per-frequency ratio of the two Gram
spectra (extended to +inf where lambda_i = 0).  The pivot gamma is the
median of {d_min, d_max, 1/alpha} in the extended-real order, giving the
optimal penalties eta* = sqrt(alpha/gamma) and rho* = sqrt(alpha*gamma).

The cases are three lines through one (rho, eta) recursion.  A dense oracle
on tiny grids cross-checks their radii by eigendecomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grids import ConvolutionKernel, write_csv
from .operators import (blur, blur_transfer, diff_gram_spectrum, difference,
                        transfer_gram_spectrum)

CASES = ("I", "II", "III")
# Relative tolerance of a case's parameter constraint.  Relative only, so
# that a small alpha cannot make every eta look equal to it.
CASE_RTOL = 1e-9


@dataclass(frozen=True)
class DeltaSpectrum:
    """Per-frequency ratio of the regularizer and data Gram spectra."""

    deltas: np.ndarray
    alpha: float

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float).ravel()
        if d.size == 0:
            raise ValueError("empty delta spectrum")
        if np.any(np.isnan(d)) or np.any(d < 0):
            raise ValueError("deltas must be nonnegative (or +inf)")
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        object.__setattr__(self, "deltas", d)

    @property
    def delta_min(self):
        return float(self.deltas.min())

    @property
    def delta_max(self):
        return float(self.deltas.max())


def delta_spectrum(lam, omega, alpha: float) -> DeltaSpectrum:
    """Elementwise omega/lambda with +inf where only lambda vanishes.

    A frequency where both spectra vanish breaks the full-rank premise and
    is rejected.
    """
    if lam.shape != omega.shape:
        raise ValueError("spectra live on different grids")
    lv = lam.ravel()
    ov = omega.ravel()
    both_zero = (lv == 0) & (ov == 0)
    if np.any(both_zero):
        raise ValueError("both spectra vanish at %d frequencies; "
                         "the split operator is rank deficient there"
                         % int(both_zero.sum()))
    with np.errstate(divide="ignore"):
        d = np.where(lv > 0, ov / np.where(lv > 0, lv, 1.0), np.inf)
    return DeltaSpectrum(d, alpha)


def rate_s1(delta, eta, alpha):
    """Case I per-frequency rate, written so that delta = +inf gives its
    limit eta/(eta+alpha) and eta = alpha gives exactly 1/2."""
    _check_positive(eta=eta, alpha=alpha)
    delta = np.asarray(delta, dtype=float)
    return (eta + (alpha - eta) / (1.0 + eta * delta)) / (eta + alpha)


def rate_s2(delta, rho, alpha):
    """Case II per-frequency rate, written so that delta = +inf gives its
    limit 1/(rho+1) and rho = 1 gives exactly 1/2."""
    _check_positive(rho=rho, alpha=alpha)
    delta = np.asarray(delta, dtype=float)
    return (1.0 + (rho - 1.0) * rho / (rho + alpha * delta)) / (rho + 1.0)


def rate_s3(eta, alpha):
    """Case III rate, uniform over frequencies."""
    _check_positive(eta=eta, alpha=alpha)
    return eta / (eta + alpha)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not 0 < value < np.inf:
            raise ValueError("%s must be positive and finite" % name)


def optimal_penalties(spectrum: DeltaSpectrum):
    """(gamma, eta*, rho*): the pivot gamma = median{delta_min,
    delta_max, 1/alpha} in the extended-real order and the optimal
    penalties, eta* = sqrt(alpha/gamma) of split Bregman and rho* =
    sqrt(alpha*gamma) of Case II.  gamma = 1/alpha, the typical
    huge-dynamic-range situation, gives eta* = alpha and rho* = 1; gamma =
    0 and inf are rejected."""
    gamma = float(np.median([spectrum.delta_min, spectrum.delta_max,
                             1.0 / spectrum.alpha]))
    if gamma == 0.0 or np.isinf(gamma):
        raise ValueError("degenerate delta spectrum: gamma = %g" % gamma)
    alpha = spectrum.alpha
    return gamma, float(np.sqrt(alpha / gamma)), float(np.sqrt(alpha * gamma))


@dataclass(frozen=True)
class RateReport:
    rates: np.ndarray
    spectral_radius: float
    eta: float
    rho: float


def _matches(value, target):
    return abs(value - target) <= CASE_RTOL * abs(target)


def case_parameters(case: str, alpha: float, rho: float = None,
                    eta: float = None):
    """(rho, eta) of one analyzable case, filling in the fixed parameter.

    Case I fixes rho = 1, Case II eta = alpha and Case III rho = eta/alpha;
    a given value that breaks its case's constraint is rejected rather than
    extrapolated.
    """
    if case == "I":
        if eta is None:
            raise ValueError("Case I needs eta")
        if rho is not None and not _matches(rho, 1.0):
            raise ValueError("Case I requires rho == 1 (got rho = %g)" % rho)
        return 1.0, eta
    if case == "II":
        if rho is None:
            raise ValueError("Case II needs rho")
        if eta is not None and not _matches(eta, alpha):
            raise ValueError("Case II requires eta == alpha (got eta = %g, "
                             "alpha = %g)" % (eta, alpha))
        return rho, alpha
    if case == "III":
        if eta is None:
            raise ValueError("Case III needs eta")
        if rho is not None and not _matches(rho, eta / alpha):
            raise ValueError("Case III requires rho == eta/alpha "
                             "(got rho = %g, eta/alpha = %g)" % (rho, eta / alpha))
        return eta / alpha, eta
    raise ValueError("case must be one of %s" % (CASES,))


def predict(case: str, spectrum: DeltaSpectrum, rho: float = None,
            eta: float = None) -> RateReport:
    """Predicted per-frequency rates and spectral radius for one case."""
    alpha = spectrum.alpha
    rho, eta = case_parameters(case, alpha, rho, eta)
    if case == "I":
        rates = rate_s1(spectrum.deltas, eta, alpha)
    elif case == "II":
        rates = rate_s2(spectrum.deltas, rho, alpha)
    else:
        rates = np.full(spectrum.deltas.shape, rate_s3(eta, alpha))
    return RateReport(rates=rates, spectral_radius=float(np.max(rates)),
                      eta=float(eta), rho=float(rho))


@dataclass(frozen=True)
class Comparison:
    faster: str  # "sb", "admm_matched", or "tie" when the radii match
    rho_recommended: float
    radius_sb: float
    radius_admm: float


def compare_sb_vs_admm(eta: float, spectrum: DeltaSpectrum) -> Comparison:
    """Compare the split Bregman rate at eta with the matched two-split
    recursion (rho = eta/alpha) at the same eta and the spectrum's alpha."""
    radius_sb = predict("I", spectrum, eta=eta).spectral_radius
    admm = predict("III", spectrum, eta=eta)
    radius_admm = admm.spectral_radius
    if _matches(radius_sb, radius_admm):
        faster = "tie"
    else:
        faster = "sb" if radius_sb < radius_admm else "admm_matched"
    return Comparison(faster=faster, rho_recommended=admm.rho,
                      radius_sb=radius_sb, radius_admm=radius_admm)


def rate_report_to_csv(report: RateReport, spectrum: DeltaSpectrum, path):
    gamma, eta_star, rho_star = optimal_penalties(spectrum)
    write_csv(path, ["index", "delta", "rate"], itertools.chain(
        zip(itertools.count(), spectrum.deltas, report.rates),
        [("# radius", report.spectral_radius, ""),
         ("# eta_star", eta_star, ""),
         ("# rho_star", rho_star, ""),
         ("# gamma", gamma, "")]))


# ---------------------------------------------------------------------------
# Dense brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseRadii:
    radius_dense: float
    radius_analytic: float


@dataclass(frozen=True)
class TransitionOracle:
    """Dense transition machinery of the quadratic recursion on a tiny grid."""

    G: np.ndarray
    cases: dict


def dense_transition_oracle(kernel: ConvolutionKernel, shape, rho: float,
                            eta: float, alpha: float) -> TransitionOracle:
    """The dense transition matrix G of the zero-data split recursion, and
    the spectral radii, dense and analytic, of the cases that hold.

    With P = (rho-1) H^-1 A' and Q = (eta-alpha) H^-1 C', the x-transition
    of each case is T = cu P A + cv Q C + kappa I (Case I has P = 0, Case
    II Q = 0, Case III cu = cv), kappa = 1/(rho+1) where Case II holds and
    alpha/(eta+alpha) otherwise; at (1, alpha) all hold and both are 1/2.

    Restricted to periodic operators on grids of at most 16x16 pixels;
    intended purely as a ground-truth check of the per-frequency formulas.
    The columns of A and C are ``blur`` and ``difference`` of the n unit
    images.
    """
    h, w = shape
    n = h * w
    if n > 256:
        raise ValueError("dense oracle is restricted to grids <= 16x16")
    _check_positive(rho=rho, eta=eta, alpha=alpha)
    transfer = blur_transfer(kernel, shape)
    units = np.eye(n).reshape((n,) + shape)
    A = np.stack([blur(transfer, e).ravel() for e in units], axis=1)
    C = np.stack([difference(e, "periodic").ravel() for e in units], axis=1)
    hess = rho * (A.T @ A) + eta * (C.T @ C)
    if np.linalg.matrix_rank(hess) < n:
        raise ValueError("singular dense Hessian rho*A'A + eta*C'C")
    inv = np.linalg.inv(hess)
    P = (rho - 1.0) * (inv @ A.T)
    Q = (eta - alpha) * (inv @ C.T)
    m = C.shape[0]
    cu = rho / (rho + 1.0)
    cv = eta / (eta + alpha)
    G = np.block([
        [cu * (A @ P) + np.eye(n) / (rho + 1.0), cu * (A @ Q)],
        [cv * (C @ P), cv * (C @ Q) + (alpha / (eta + alpha)) * np.eye(m)],
    ])

    holds = [case for case, ok in zip(CASES, (
        _matches(rho, 1.0), _matches(eta, alpha), _matches(rho, eta / alpha)))
        if ok]
    if not holds:
        return TransitionOracle(G=G, cases={})
    kappa = 1.0 / (rho + 1.0) if "II" in holds else alpha / (eta + alpha)
    T = cu * (P @ A) + cv * (Q @ C) + kappa * np.eye(n)
    radius = float(np.max(np.abs(np.linalg.eigvals(T))))
    spectrum = delta_spectrum(transfer_gram_spectrum(transfer, w),
                              diff_gram_spectrum(shape), alpha)
    return TransitionOracle(G=G, cases={case: CaseRadii(
        radius, predict(case, spectrum, rho, eta).spectral_radius)
        for case in holds})
