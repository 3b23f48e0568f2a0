"""Separable potential functions and their proximal mappings.

All potentials are convex and elementwise separable, so the proximal
mapping argmin_v Phi(v) + (eta/2) ||z - v||^2 is evaluated per entry.
The steps use the shrinkage z - prox(z), a scaling and a clip for the
quadratic, l1 and Huber potentials, and set v to zero in masked mode on
the two wrap-around slices of C, which are not optimization variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import row_blocks

KINDS = ("quadratic", "l1", "huber", "fair")


@dataclass(frozen=True)
class Potential:
    """Regularization potential Phi, scaled by weight alpha.

    kind        one of 'quadratic', 'l1', 'huber', 'fair'
    alpha       positive, finite weight
    threshold   positive, finite transition point (huber / fair only)
    """

    kind: str
    alpha: float
    threshold: float = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown potential kind %r" % (self.kind,))
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if self.kind in ("huber", "fair"):
            if self.threshold is None or not 0 < self.threshold < np.inf:
                raise ValueError("%s threshold must be positive and finite" % self.kind)


def potential_value_array(potential: Potential, v: np.ndarray) -> float:
    """Phi(v) summed over all entries of a raw array.  l1 and Huber take a
    stacked (2, h, w) difference field one plane at a time and each plane
    in row blocks, so their scratch is one block.  Fair's value, like its
    prox, builds whole-array temporaries of its own."""
    a = potential.alpha
    t = potential.threshold
    v = np.asarray(v, dtype=float)
    if potential.kind == "quadratic":
        return 0.5 * a * float(np.vdot(v, v))
    if potential.kind == "fair":
        av = np.abs(v)
        return a * t * t * float(np.sum(av / t - np.log1p(av / t)))
    planes = v if v.ndim == 3 else (np.atleast_1d(v),)
    blocks = row_blocks(len(planes[0]), planes[0][0].nbytes)
    scratch = np.empty((blocks[0].stop,) + planes[0].shape[1:])
    total = 0.0
    for p in planes:
        for rows in blocks:
            block, c = p[rows], scratch[:rows.stop - rows.start]
            if potential.kind == "l1":
                total += float(np.sum(np.abs(block, out=c)))
            else:
                # c = clip(v, +-t): c v - c^2/2 is v^2/2 inside, t|v| - t^2/2
                # outside
                np.clip(block, -t, t, out=c)
                total += float(np.vdot(c, block)) - 0.5 * float(np.vdot(c, c))
    return a * total


def _positive_eta(z, eta):
    """z as a float array, once eta is checked to be positive."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    return np.asarray(z, dtype=float)


def _fair_prox(a, t, z, eta):
    """Root of  a*v/(1+|v|/t) + eta*(v-z) = 0  with sign(z): |v| = (root -
    b) / (2 eta), root = sqrt(b^2 + 4 eta^2 t |z|); where b > 0 that
    difference cancels, and 2 eta t |z| / (b + root) does not."""
    az = np.abs(z)
    b = eta * t + a * t - eta * az
    root = np.sqrt(b * b + 4.0 * eta * eta * t * az)
    v = np.divide(root - b, 2.0 * eta, out=np.empty(z.shape))
    np.divide(2.0 * eta * t * az, b + root, out=v, where=b > 0.0)
    return np.sign(z) * v


def shrinkage(potential: Potential, z: np.ndarray, eta: float,
              out=None) -> np.ndarray:
    """z - prox(z), the part of z the prox removes, written into out if it
    is given and into a new array if not."""
    z = _positive_eta(z, eta)
    a = potential.alpha
    t = potential.threshold
    if potential.kind == "quadratic":
        return np.multiply(a / (eta + a), z, out=out)
    if potential.kind == "l1":
        return np.clip(z, -a / eta, a / eta, out=out)
    if potential.kind == "huber":
        # a z / (eta + a) inside |z| <= t (a + eta) / eta, +-a t / eta beyond
        s = np.multiply(a / (eta + a), z, out=out)
        return np.clip(s, -a * t / eta, a * t / eta, out=s)
    return np.subtract(z, _fair_prox(a, t, z, eta), out=out)


def prox_array(potential: Potential, z: np.ndarray, eta: float) -> np.ndarray:
    """argmin_v Phi(v) + (eta/2)(z - v)^2, evaluated elementwise.  z -
    shrinkage would cancel where |prox| << |z|, so Fair returns the root, and
    the quadratic eta z / (eta + a), which Huber clips to z -+ a t / eta."""
    z, a, t = _positive_eta(z, eta), potential.alpha, potential.threshold
    if potential.kind == "fair":
        return _fair_prox(a, t, z, eta)
    if potential.kind == "l1":
        return z - shrinkage(potential, z, eta)
    p = (eta / (eta + a)) * z
    if potential.kind == "huber":
        np.clip(p, z - a * t / eta, z + a * t / eta, out=p)
    return p
