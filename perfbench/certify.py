"""Optimality checks that do not share code with the solver's FFT path.

Every quantity here is computed with the sparse matrices of A and C
(``operators.sparse_blur_matrix`` / ``sparse_diff_matrix``) and with the
potential's derivative written out below, so a defect in the FFT operators,
the spectra or the proxes cannot certify its own output.
"""

from __future__ import annotations

import numpy as np

from sbadmm.operators import sparse_blur_matrix, sparse_diff_matrix

# A reference counts as optimal when its relative residual is below this.
# The references used here reach 1e-15 (SuperLU, FFT division) and 5e-16
# (the (1, alpha) PCG run at 512x512).
REFERENCE_TOL = 1e-10
# Relative cost error that defines iters_to_tol on the quadratic workloads.
COST_TOL = 1e-6
# The sparse and FFT evaluations of one cost agree to about 1e-13; this much
# slack keeps a run that crosses COST_TOL by less than that from failing.
COST_AGREEMENT = 1e-9


class Certifier:
    """Sparse-matrix cost and gradient of one problem."""

    def __init__(self, problem):
        shape = problem.y.shape
        self.A = sparse_blur_matrix(problem.kernel, shape)
        self.C = sparse_diff_matrix(shape, problem.mask_mode)
        self.y = problem.y.values.ravel()
        self.potential = problem.potential
        if self.potential.kind not in ("quadratic", "huber"):
            raise ValueError("no certificate for the %s potential"
                             % self.potential.kind)
        self.gradient_scale = float(np.linalg.norm(self.A.T @ self.y))

    def _phi(self, t):
        a, kind = self.potential.alpha, self.potential.kind
        if kind == "quadratic":
            return 0.5 * a * float(t @ t)
        th = self.potential.threshold
        at = np.abs(t)
        return a * float(np.sum(np.where(at <= th, 0.5 * t * t,
                                         th * at - 0.5 * th * th)))

    def _dphi(self, t):
        a = self.potential.alpha
        if self.potential.kind == "quadratic":
            return a * t
        th = self.potential.threshold
        return a * np.clip(t, -th, th)

    def cost(self, x):
        x = np.asarray(x, dtype=float).ravel()
        r = self.y - self.A @ x
        return 0.5 * float(r @ r) + self._phi(self.C @ x)

    def rel_residual(self, x):
        """||grad f(x)|| / ||A'y||: the normal-equation residual for the
        quadratic potential, the gradient residual for Huber."""
        x = np.asarray(x, dtype=float).ravel()
        g = self.A.T @ (self.A @ x - self.y) + self.C.T @ self._dphi(self.C @ x)
        return float(np.linalg.norm(g)) / self.gradient_scale


def reference_error(cert: Certifier, x, tol: float = REFERENCE_TOL):
    """None if x is certified optimal, else a message."""
    res = cert.rel_residual(x)
    if not res <= tol:
        return "reference residual %.3g exceeds %g" % (res, tol)
    return None


def cost_tol_error(cert: Certifier, trace, reference, tol: float = COST_TOL):
    """(iters_to_tol, None) if the run reaches a relative cost error of tol
    against the certified reference cost, else (None, message)."""
    costs = np.asarray(trace.cost)
    if not np.all(np.isfinite(costs)):
        return None, "non-finite cost in the trace"
    k = trace.iterations_to(tol)
    if k is None:
        return None, ("relative cost error %.3g > %g after %d iterations"
                      % (trace.rel_cost_err[-1], tol, trace.iterations[-1]))
    f_ref = cert.cost(reference)
    err = (trace.cost[k] - f_ref) / abs(f_ref)
    if err > tol + COST_AGREEMENT:
        return None, ("trace claims %g at iteration %d but the sparse cost "
                      "error there is %.3g" % (tol, k, err))
    return k, None
