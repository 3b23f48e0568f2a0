"""Separable potential functions and their proximal mappings.

All potentials are convex and elementwise separable, so the proximal
mapping argmin_v Phi(v) + (eta/2) ||z - v||^2 is evaluated per entry.
The steps zero the masked entries of v afterwards; they are not part of the
optimization variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("quadratic", "l1", "huber", "fair")


@dataclass(frozen=True)
class Potential:
    """Regularization potential Phi, scaled by weight alpha.

    kind        one of 'quadratic', 'l1', 'huber', 'fair'
    alpha       positive weight
    threshold   positive transition point (huber / fair only)
    """

    kind: str
    alpha: float
    threshold: float = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown potential kind %r" % (self.kind,))
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.kind in ("huber", "fair"):
            if self.threshold is None or not self.threshold > 0:
                raise ValueError("%s potential needs a positive threshold" % self.kind)

    @classmethod
    def quadratic(cls, alpha):
        return cls("quadratic", alpha)

    @classmethod
    def l1(cls, alpha):
        return cls("l1", alpha)

    @classmethod
    def huber(cls, alpha, threshold):
        return cls("huber", alpha, threshold)

    @classmethod
    def fair(cls, alpha, threshold):
        return cls("fair", alpha, threshold)


def potential_value_array(potential: Potential, v: np.ndarray) -> float:
    """Phi(v) summed over all entries of a raw array."""
    a = potential.alpha
    t = potential.threshold
    v = np.asarray(v, dtype=float)
    if potential.kind == "quadratic":
        return 0.5 * a * float(np.sum(v * v))
    if potential.kind == "l1":
        return a * float(np.sum(np.abs(v)))
    if potential.kind == "huber":
        av = np.abs(v)
        body = np.where(av <= t, 0.5 * v * v, t * av - 0.5 * t * t)
        return a * float(np.sum(body))
    # fair
    av = np.abs(v)
    return a * t * t * float(np.sum(av / t - np.log1p(av / t)))


def prox_array(potential: Potential, z: np.ndarray, eta: float) -> np.ndarray:
    """argmin_v Phi(v) + (eta/2)(z - v)^2, evaluated elementwise."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    a = potential.alpha
    t = potential.threshold
    z = np.asarray(z, dtype=float)
    if potential.kind == "quadratic":
        return (eta / (eta + a)) * z
    if potential.kind == "l1":
        return np.sign(z) * np.maximum(np.abs(z) - a / eta, 0.0)
    if potential.kind == "huber":
        # Quadratic branch while the minimizer stays below the threshold,
        # shrinkage by the constant slope a*t beyond it.
        inner = eta / (eta + a) * z
        outer = z - (a * t / eta) * np.sign(z)
        return np.where(np.abs(z) <= t * (a + eta) / eta, inner, outer)
    # fair: stationarity  a*v/(1+|v|/t) + eta*(v-z) = 0, root with sign(z)
    az = np.abs(z)
    b = eta * t + a * t - eta * az
    disc = b * b + 4.0 * eta * eta * t * az
    v = (-b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * eta)
    return np.sign(z) * v
