"""Outer iterations: split Bregman, two-split ADMM, the simplified ADMM, and
the quadratic-case closed-form recursion.

All steps share the canonical initialization x0 = 0 (or y), u0 = A x0, v0 = C x0,
d0 = (y - u0)/rho, e0 = -(alpha/eta) v0 (quadratic case; zero otherwise),
which makes the dual variables redundant:  u + rho*d = y holds after every
two-split step, and alpha*v + eta*e = 0 in the quadratic case.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, circulant

from .grids import ConvolutionKernel, ImageGrid
from .inner import (InnerSolveConfig, check_nonsingular,
                    floored_half_spectrum, hessian_spectrum, pcg_solve,
                    spectral_divide)
from .operators import (blur, blur_transfer, blur_transpose, diff_gram_spectrum,
                        diff_mask, difference, difference_transpose,
                        gram_spectrum, half_spectrum,
                        split_operator_rank_check)
from .prox import Potential, potential_value_array, prox_array

DIVERGENCE_FACTOR = 1e6

ALGORITHMS = ("sb", "admm2", "admm2_simplified", "quadratic_closed_form")


class SolverDivergenceError(RuntimeError):
    """The cost blew past the divergence guard (oscillating small-eta runs)."""


@dataclass(frozen=True)
class ProblemSpec:
    """A regularized least-squares restoration problem.

    Data y, blur kernel A, stacked finite differences C (masked or periodic)
    and the regularization potential (alpha lives inside the potential).
    """

    y: ImageGrid
    kernel: ConvolutionKernel
    mask_mode: str = "masked"
    potential: Potential = None

    def __post_init__(self):
        if self.mask_mode not in ("periodic", "masked"):
            raise ValueError("mask_mode must be 'periodic' or 'masked'")
        if self.potential is None:
            raise ValueError("a potential is required")


@dataclass
class OuterConfig:
    rho: float = 1.0
    eta: float = 1.0
    max_iterations: int = 100
    inner: InnerSolveConfig = field(default_factory=InnerSolveConfig)
    algorithm: str = "admm2"
    x0_mode: str = "zero"

    def __post_init__(self):
        if not (self.rho > 0 and self.eta > 0):
            raise ValueError("rho and eta must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r" % (self.algorithm,))
        if self.x0_mode not in ("zero", "data"):
            raise ValueError("x0_mode must be 'zero' or 'data'")


@dataclass
class SolverState:
    """Iterate tuple (x, u, v, d, e) as raw arrays, plus the counter.

    ax and cx are A x and C x as the step computed them, so the cost of the
    iterate needs neither again.
    """

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
    e: np.ndarray
    k: int = 0
    inner_residual: float = 0.0
    ax: np.ndarray = None
    cx: np.ndarray = None


class ProblemOps:
    """The operators of one problem, on plain arrays.

    Built once from a ProblemSpec: the real-FFT blur transfer, the full
    spectra lambda and omega, the validity mask of C, and the rank check of
    the split.  A/At/C/Ct are the true (possibly masked) operators, gram the
    x-update Hessian; cost is the objective of the true problem.  Raises
    ValueError when the kernel does not fit the grid or the grid is a
    single pixel.

    For a periodic kernel the Hessian splits as H = M - eta W: M = rho A'A +
    eta C'C of the periodic stencils is circulant, and W = C'C_periodic -
    C'C_masked (zero in periodic mode) couples only the first and last row
    and column; W = U U', U holding the h + w row and column wraps.  The
    half spectra of M and of its floored inverse, and the Cholesky factor
    of the exact masked solve, are cached for the last (rho, eta).  The
    object holds arrays only, no callables bound to itself, so it is freed
    as soon as it is dropped.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.y = problem.y.values
        self.shape = self.y.shape
        if self.shape == (1, 1):
            raise ValueError("cannot difference a 1x1 image")
        self.kernel = problem.kernel
        self.mask_mode = problem.mask_mode
        self.potential = problem.potential
        self.transfer = blur_transfer(problem.kernel, self.shape)
        self.lam = gram_spectrum(problem.kernel, self.shape)
        self.om = diff_gram_spectrum(self.shape)
        self.mask = diff_mask(self.shape, problem.mask_mode)
        self.rank = split_operator_rank_check(self.lam, self.om)
        self._spectra_key = None

    def A(self, x):
        return blur(self.kernel, self.transfer, x)

    def At(self, r):
        return blur_transpose(self.kernel, self.transfer, r)

    def C(self, x):
        return difference(x, self.mask_mode)

    def Ct(self, g):
        return difference_transpose(g, self.mask_mode)

    def hessian_spectra(self, rho, eta):
        """(M, floored M, floored?) on the half spectrum, where M = rho*lambda
        + eta*omega; computed once per (rho, eta)."""
        if self._spectra_key != (rho, eta):
            full = hessian_spectrum(self.lam, self.om, rho, eta)
            self._spectra = (half_spectrum(full),) + floored_half_spectrum(full)
            self._spectra_key = (rho, eta)
            self._capacitance = None
        return self._spectra

    def _wrap_adjoint(self, z):
        """U'z: row wraps z[:, 0] - z[:, -1], then column wraps z[0] - z[-1]."""
        return np.concatenate((z[:, 0] - z[:, -1], z[0] - z[-1]))

    def _add_wrap(self, c, out):
        """out += U c, c laid out as _wrap_adjoint returns it; returns out."""
        h = self.shape[0]
        out[:, 0] += c[:h]
        out[:, -1] -= c[:h]
        out[0] += c[h:]
        out[-1] -= c[h:]
        return out

    def subtract_wrap(self, z, eta, out):
        """out -= eta W z: in masked mode, the wrap-around differences that
        C'C_periodic has and masked C'C lacks; nothing in periodic mode."""
        if self.mask_mode != "periodic":
            self._add_wrap(-eta * self._wrap_adjoint(z), out)

    def solve(self, b, rho, eta):
        """Exact solution of gram(x, rho, eta) = b for a periodic kernel: a
        division by M, plus in masked mode the Woodbury correction
        M^-1 U S^-1 U' M^-1 b.  S = I/eta - U' M^-1 U is positive definite
        when H is; as M^-1 commutes with shifts, S is read off M^-1 of the
        first row wrap (gh) and of the first column wrap (gv)."""
        if self.kernel.boundary != "periodic":
            raise ValueError("exact x-updates require a periodic blur kernel")
        m, _, floored = self.hessian_spectra(rho, eta)
        if floored:  # a singular M is floored too
            check_nonsingular(hessian_spectrum(self.lam, self.om, rho, eta))
        x = spectral_divide(b, m)
        if self.mask_mode == "periodic":
            return x
        if self._capacitance is None:
            h, w = self.shape
            gh, gv = (spectral_divide(self._add_wrap(np.eye(1, h + w, k)[0],
                                                     np.zeros(self.shape)), m)
                      for k in (0, h))
            k_hv = (gv - np.roll(gv, 1, axis=1))[:, -np.arange(w) % w]
            s = np.eye(h + w) / eta - np.block(
                [[circulant(gh[:, 0] - gh[:, -1]), k_hv],
                 [k_hv.T, circulant(gv[0] - gv[-1])]])
            self._capacitance = cho_factor(s)
        c = cho_solve(self._capacitance, self._wrap_adjoint(x))
        return x + spectral_divide(self._add_wrap(c, np.zeros(self.shape)), m)

    def gram(self, z, rho, eta):
        """rho A'A z + eta C'C z.  For a periodic kernel this is M z, one real
        FFT pair times the cached half spectrum, minus eta W z."""
        if self.kernel.boundary != "periodic":
            return rho * self.At(self.A(z)) + eta * self.Ct(self.C(z))
        f = np.fft.rfft2(z)
        f *= self.hessian_spectra(rho, eta)[0]
        out = np.fft.irfft2(f, s=self.shape)
        self.subtract_wrap(z, eta, out)
        return out

    def cost(self, x, ax=None, cx=None):
        """Objective at x, reusing A x and C x when they are given."""
        res = self.y - (self.A(x) if ax is None else ax)
        return 0.5 * float(np.sum(res * res)) + potential_value_array(
            self.potential, self.C(x) if cx is None else cx)


def canonical_init(ops: ProblemOps, rho: float, eta: float,
                   x0_mode: str = "zero") -> SolverState:
    """Initial state making the dual variables redundant from step one."""
    if x0_mode == "zero":
        x = np.zeros(ops.shape)
    elif x0_mode == "data":
        x = ops.y.copy()
    else:
        raise ValueError("x0_mode must be 'zero' or 'data'")
    u = ops.A(x)
    v = ops.C(x)
    d = (ops.y - u) / rho
    if ops.potential.kind == "quadratic":
        e = -(ops.potential.alpha / eta) * v
    else:
        e = np.zeros_like(v)
    return SolverState(x=x, u=u, v=v, d=d, e=e, k=0, ax=u, cx=v)


def _solve_x(ops, rho, eta, rhs, warm, inner: InnerSolveConfig):
    """Solve (rho A'A + eta C'C) x = rhs, exactly or by a few PCG steps."""
    if inner.mode == "circulant_exact":
        return ops.solve(rhs, rho, eta), 0.0

    precond = correction = None
    if inner.preconditioner == "circulant":
        _, denom, floored = ops.hessian_spectra(rho, eta)
        precond = lambda r: spectral_divide(r, denom)
        if ops.kernel.boundary == "periodic" and not floored:
            # the preconditioner is exactly M^-1: PCG forms H p = M p - eta W p
            correction = lambda p, out: ops.subtract_wrap(p, eta, out)
    result = pcg_solve(lambda z: ops.gram(z, rho, eta), rhs, inner,
                       warm_start=warm, preconditioner=precond,
                       correction=correction)
    rhs_norm = float(np.linalg.norm(rhs))
    rel = result.residual_norms[-1] / rhs_norm if result.residual_norms and rhs_norm else 0.0
    return result.x, rel


def sb_step(state: SolverState, ops: ProblemOps, eta: float,
            inner: InnerSolveConfig) -> SolverState:
    """One split Bregman sweep: least-squares x, prox v, dual e."""
    rhs = ops.At(ops.y) + eta * ops.Ct(state.v + state.e)
    x, res = _solve_x(ops, 1.0, eta, rhs, state.x, inner)
    cx = ops.C(x)
    v = prox_array(ops.potential, cx - state.e, eta)
    v = np.where(ops.mask, v, 0.0)
    e = state.e - cx + v
    u = ops.A(x)
    return SolverState(x=x, u=u, v=v, d=ops.y - u, e=e,
                       k=state.k + 1, inner_residual=res, ax=u, cx=cx)


def admm2_step(state: SolverState, ops: ProblemOps, rho: float, eta: float,
               inner: InnerSolveConfig) -> SolverState:
    """One two-split ADMM sweep (x, u, v, then both dual updates)."""
    rhs = rho * ops.At(state.u + state.d) + eta * ops.Ct(state.v + state.e)
    x, res = _solve_x(ops, rho, eta, rhs, state.x, inner)
    ax = ops.A(x)
    u = (rho * (ax - state.d) + ops.y) / (rho + 1.0)
    cx = ops.C(x)
    v = prox_array(ops.potential, cx - state.e, eta)
    v = np.where(ops.mask, v, 0.0)
    d = state.d - ax + u
    e = state.e - cx + v
    return SolverState(x=x, u=u, v=v, d=d, e=e, k=state.k + 1,
                       inner_residual=res, ax=ax, cx=cx)


def admm2_simplified_step(state: SolverState, ops: ProblemOps, rho: float,
                          eta: float, inner: InnerSolveConfig) -> SolverState:
    """Two-split ADMM with d eliminated; requires the canonical d init."""
    rhs = ops.At(ops.y) + (rho - 1.0) * ops.At(state.u) \
        + eta * ops.Ct(state.v + state.e)
    x, res = _solve_x(ops, rho, eta, rhs, state.x, inner)
    ax = ops.A(x)
    u = (rho * ax + state.u) / (rho + 1.0)
    cx = ops.C(x)
    v = prox_array(ops.potential, cx - state.e, eta)
    v = np.where(ops.mask, v, 0.0)
    e = state.e - cx + v
    return SolverState(x=x, u=u, v=v, d=(ops.y - u) / rho, e=e,
                       k=state.k + 1, inner_residual=res, ax=ax, cx=cx)


def quadratic_closed_form_step(state: SolverState, ops: ProblemOps, rho: float,
                               eta: float) -> SolverState:
    """Fully eliminated recursion for the quadratic potential.

    Valid only with periodic operators (exact spectra) and the canonical
    d and e initializations.
    """
    if ops.potential.kind != "quadratic":
        raise ValueError("closed-form recursion requires a quadratic potential")
    if ops.mask_mode != "periodic":
        raise ValueError("closed-form recursion requires periodic operators")
    alpha = ops.potential.alpha
    rhs = ops.At(ops.y) + (rho - 1.0) * ops.At(state.u) \
        + (eta - alpha) * ops.Ct(state.v)
    x = ops.solve(rhs, rho, eta)
    ax = ops.A(x)
    u = (rho * ax + state.u) / (rho + 1.0)
    cx = ops.C(x)
    v = (eta / (eta + alpha)) * cx + (alpha / (eta + alpha)) * state.v
    return SolverState(x=x, u=u, v=v, d=(ops.y - u) / rho,
                       e=-(alpha / eta) * v, k=state.k + 1, ax=ax, cx=cx)


@dataclass
class MetricTrace:
    """Per-iteration cost / error records of one run, and whether the
    split operator [A; C] of its problem has full column rank."""

    iterations: list = field(default_factory=list)
    cost: list = field(default_factory=list)
    rel_cost_err: list = field(default_factory=list)
    rmsd: list = field(default_factory=list)
    inner_residual: list = field(default_factory=list)
    absolute_cost_error: bool = False
    final_image: ImageGrid = None
    full_rank: bool = True

    def append(self, k, cost, rel_cost_err, rmsd, inner_residual):
        self.iterations.append(int(k))
        self.cost.append(float(cost))
        self.rel_cost_err.append(float(rel_cost_err))
        self.rmsd.append(float(rmsd))
        self.inner_residual.append(float(inner_residual))

    def __len__(self):
        return len(self.iterations)

    def iterations_to(self, tol):
        """First iteration index whose relative cost error is <= tol."""
        for k, err in zip(self.iterations, self.rel_cost_err):
            if err <= tol:
                return k
        return None

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["iter", "cost", "rel_cost_err", "rmsd",
                             "inner_residual"])
            for row in zip(self.iterations, self.cost, self.rel_cost_err,
                           self.rmsd, self.inner_residual):
                writer.writerow(["%d" % row[0]] + ["%.17g" % x for x in row[1:]])


def _make_step(config: OuterConfig):
    if config.algorithm == "sb":
        return lambda s, ops: sb_step(s, ops, config.eta, config.inner)
    if config.algorithm == "admm2":
        return lambda s, ops: admm2_step(s, ops, config.rho, config.eta, config.inner)
    if config.algorithm == "admm2_simplified":
        return lambda s, ops: admm2_simplified_step(s, ops, config.rho,
                                                    config.eta, config.inner)
    return lambda s, ops: quadratic_closed_form_step(s, ops, config.rho, config.eta)


def run(problem: ProblemSpec, config: OuterConfig,
        reference: ImageGrid = None) -> MetricTrace:
    """Execute max_iterations outer steps, logging cost and errors.

    The cost is always evaluated with the true (possibly masked) operators.
    The relative cost error and RMSD columns are NaN without a reference.
    """
    ops = ProblemOps(problem)
    if reference is not None and reference.shape != ops.shape:
        raise ValueError("reference grid %s does not match the problem grid %s"
                         % (reference.shape, ops.shape))
    step = _make_step(config)
    state = canonical_init(ops, config.rho, config.eta, config.x0_mode)
    trace = MetricTrace(full_rank=ops.rank.full_rank)

    ref = reference.values if reference is not None else None
    ref_cost = ops.cost(ref) if ref is not None else None
    if ref_cost is not None and ref_cost == 0.0:
        trace.absolute_cost_error = True

    def record(state):
        c = ops.cost(state.x, state.ax, state.cx)
        if not math.isfinite(c):
            raise SolverDivergenceError("non-finite cost at iteration %d" % state.k)
        if ref is None:
            rel, rmsd = float("nan"), float("nan")
        else:
            rel = c - ref_cost if trace.absolute_cost_error else (c - ref_cost) / ref_cost
            rmsd = float(np.sqrt(np.mean((state.x - ref) ** 2)))
        trace.append(state.k, c, rel, rmsd, state.inner_residual)
        return c

    initial_cost = record(state)
    guard = DIVERGENCE_FACTOR * max(initial_cost, 1.0)
    for _ in range(config.max_iterations):
        state = step(state, ops)
        c = record(state)
        if c > guard:
            raise SolverDivergenceError(
                "cost %.3g exceeded %.0e x initial cost at iteration %d "
                "(oscillation guard)" % (c, DIVERGENCE_FACTOR, state.k))
    trace.final_image = ImageGrid(state.x)
    return trace


def solution_state(ops: ProblemOps, x_hat: np.ndarray, rho: float,
                   eta: float) -> SolverState:
    """State assembled from a solved x with consistent splits and duals.

    For the quadratic potential this is a fixed point of every step.
    """
    if ops.potential.kind != "quadratic":
        raise ValueError("solution_state is defined for the quadratic potential")
    u = ops.A(x_hat)
    v = ops.C(x_hat)
    d = (ops.y - u) / rho
    e = -(ops.potential.alpha / eta) * v
    return SolverState(x=np.array(x_hat, dtype=float), u=u, v=v, d=d, e=e, k=0)
