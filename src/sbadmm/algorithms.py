"""Outer iterations: split Bregman, two-split ADMM, the simplified ADMM, and
the quadratic-case closed-form recursion.

All steps share the canonical initialization x0 = 0 (or y), u0 = A x0, v0 = C x0,
d0 = (y - u0)/rho, e0 = -(alpha/eta) v0 (quadratic case; zero otherwise),
which makes the dual variables redundant:  u + rho*d = y holds after every
two-split step, and alpha*v + eta*e = 0 in the quadratic case.  u and d
are kept as half spectra (u0 = transfer hat(x0)), where A is a product, so
a step makes one rfft2, of its C' term, and one irfft2, of x.

With the quadratic potential and either C, ``run`` keeps v in coefficient
form: as the half spectrum nu = hat(n) of an image n with v = C n.  The
canonical start puts v in range(C), and the quadratic shrinkage, a real
scalar multiple, keeps it there; as alpha*v + eta*e = 0, e is not kept.
C'C is then omega on the half spectrum, less U U' for masked C (see
``ProblemOps``), so hat(C'(v + e)) = (1 - alpha/eta) (omega nu + hat(U c))
with c = -U'n, "C x" is hat(x), the split is nu = (eta hat(x) + alpha nu) /
(eta + alpha), Phi(C x) = alpha/2 (sum omega |hat(x)|^2 - |U'x|^2) by
Parseval, and a step makes no transform.  With periodic C the x-update is
hat(x) = P nu + A h at each frequency, h the variant's data term and P and
A cached (``ProblemOps.coefficient_spectra``), in one row-block sweep that
also forms hat(A x), the shares of Phi, of the cost's data term and of
the rmsd's |hat(x) - hat(ref)|^2, and writes u, d and v.  As the
frequencies step apart, ``run`` takes each row block through CHUNK steps
before the next block starts, so that its arrays stay in the L2 cache,
and records those steps after the chunk.  With masked C the state
carries the wrap vectors of U'x and U'n, so no half spectrum passes
through U' whole, and the step runs in the two row-block sweeps of
``ProblemOps.pcg_hat``: the first builds the right-hand side and the
first PCG residual block by block, the second updates x and does the
same per-block work, U'x included.  The steps read the form from the
state they are given (v complex and 2-D); ``canonical_init`` and
``solution_state`` build real states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .grids import ConvolutionKernel, ImageGrid, write_csv
from .inner import (RZ_UNDERFLOW, InnerSolveConfig, PcgBreakdownError,
                    hessian_spectrum)
from .operators import (WRAPS, _diff_spectrum_1d, blur, blur_transfer,
                        diff_gram_half_spectrum, diff_gram_spectrum,
                        difference, difference_transpose, irfft2, rfft2,
                        row_blocks, split_operator_rank_check,
                        transfer_gram_spectrum)
from .prox import Potential, potential_value_array, shrinkage

DIVERGENCE_FACTOR = 1e6
# the iterations a periodic quadratic run takes each row block through
# before the next block starts, and between its checks of the cost
CHUNK = 16

EXACT_TOLERANCE = 1e-15  # the relative M^-1-norm residual of exact solves
# An r'z or p'Hp of PCG within this of 0, relative to the sizes of the
# terms it is summed from, is 0 to rounding
ROUNDING = 4 * np.finfo(float).eps

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
        if not (0 < self.rho < math.inf and 0 < self.eta < math.inf):
            raise ValueError("rho and eta must be positive and finite")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r" % (self.algorithm,))
        if self.x0_mode not in ("zero", "data"):
            raise ValueError("x0_mode must be 'zero' or 'data'")
        if self.algorithm == "sb" and self.rho != 1.0:
            raise ValueError("split Bregman fixes rho = 1 (got rho = %g)"
                             % self.rho)


@dataclass
class SolverState:
    """Iterate tuple (x, u, v, d, e) as raw arrays, plus the counter.

    u and d are kept as u_hat = hat(u) and d_hat = hat(d); x_hat and
    ax_hat are hat(x) and hat(A x), and phi and data_term the two terms
    Phi(C x) and 1/2 |y - A x|^2 of the cost, as the step computed them,
    so the cost of the iterate is data_term + phi and the next PCG step
    warm-starts from x_hat without an rfft2.
    No two fields share memory: a step writes over the arrays of the state
    it is given, every one of them, and returns that state, so a caller
    who still needs a state steps a copy.

    In coefficient form (see the module docstring; ``run`` builds it for
    the quadratic potential, with either C) v is the half spectrum nu, and
    x and e, -(alpha/eta) v, are None; with masked C, wraps holds the wrap
    vectors of U'x and U'n, which the next step needs, and is None
    otherwise.  A step in coefficient form sums both terms of the cost
    inside its sweeps; ``run`` steps a periodic one CHUNK steps at a
    time, and phi and data_term are then those of the last.
    """

    x: np.ndarray
    u_hat: np.ndarray
    v: np.ndarray
    d_hat: np.ndarray
    e: np.ndarray
    x_hat: np.ndarray
    ax_hat: np.ndarray
    phi: float
    data_term: float
    k: int = 0
    inner_residual: float = 0.0
    wraps: np.ndarray = None


class ProblemOps:
    """The operators of one problem, on plain arrays.

    Built once from a ProblemSpec: the real-FFT blur transfer; the
    validity mask of C, the full spectra lambda and omega, and the rank
    check of the split are built on first use.  A solver run keeps, at
    grid size, only the transfer, hat(y), and M and 1 / M below, or P and A
    (``coefficient_spectra``) in a periodic quadratic run; work that
    needs scratch takes a row block of a half spectrum at a time through
    two cached block buffers.  A/At/C/Ct are
    the true (possibly masked) operators; cost is the objective of the true
    problem.  Raises ValueError when the kernel does not fit the grid or
    the grid is a single pixel.

    The x-update Hessian H = rho A'A + eta C'C splits as H = M - eta W:
    M = rho A'A + eta C'C of the periodic stencils is circulant, and
    W = C'C_periodic - C'C_masked (zero in periodic mode) couples only the
    first and last row and column; W = U U', U holding the h + w row and
    column wraps; so H <= M is singular exactly where M vanishes.  The
    x-update is solved on the half spectrum hat(x), the rfft2 scaled so that
    it is unitary: there M is a product, hat(U c) the product of an (h, 2)
    and a (2, w/2 + 1) matrix and U'z two matrix-vector products, so no 2-D
    transform runs inside a solve.  Every x-update but a periodic
    coefficient-form one (``coefficient_spectra``) is ``pcg_hat``, exact
    or not, which applies H only inside its first sweep of row blocks;
    ``solve`` calls it from zero without a step count.  M, 1 / M and the
    diagonals of G = U' M^-1 U are cached for the last (rho, eta); the half
    spectra of lambda and omega they are built from are not kept.
    The object holds arrays only, no callables bound to itself, so it is
    freed as soon as it is dropped.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.y = problem.y.values
        self.shape = self.y.shape
        if self.shape == (1, 1):
            raise ValueError("cannot difference a 1x1 image")
        self.mask_mode = problem.mask_mode
        self.potential = problem.potential
        h, w = self.shape
        # hat(A x) = transfer hat(x), hat(A' r) = conj(transfer) hat(r)
        self.transfer = blur_transfer(problem.kernel, self.shape)
        self._spectra_key = None
        # a half-spectrum column other than 0 and w/2 stands for itself and
        # its mirror image, so it weighs twice in Parseval's sum
        weight = np.full(w // 2 + 1, 2.0)
        weight[0] = 1.0
        if w % 2 == 0:
            weight[-1] = 1.0
        self._scale = np.sqrt(weight / (h * w))
        self._unscale = 1.0 / self._scale
        # the wrap vector of c = (c_row, c_col) is its unitary spectrum
        # v = (fft(c_row) / sqrt(h), rfft(c_col) col_scale), so Re vdot of
        # two is the dot product of their wraps.  rfft2(U c) =
        # outer(fft(c_row), a) + outer(b, rfft(c_col)) with a = 1 -
        # exp(2 pi i l/w) and b = 1 - exp(2 pi i k/h); the constants below
        # carry sqrt(h), so hat(U c) = outer(v_row, _a_hat) + outer(_b, v_col)
        self._col_scale = self._scale * math.sqrt(h)
        a = 1.0 - np.exp(2j * np.pi * np.arange(w // 2 + 1) / w)
        self._b = (1.0 - np.exp(2j * np.pi * np.arange(h) / h)) / math.sqrt(h)
        self._a_hat = a * self._col_scale
        self._row_weights = 0.5 * weight * np.conj(a) / (w * self._col_scale)
        self._col_weights = np.conj(self._b)
        self._mirror = -np.arange(h) % h
        # the entries of a wrap vector at the columns 0 and w/2
        self._self_conjugate = [h, h + w // 2] if w % 2 == 0 else [h]
        self._gram_in = np.concatenate((self._col_weights, self._row_weights))
        self._gram_out = np.concatenate((self._b, self._a_hat))

    def _half_spectra(self):
        """New arrays of lambda and omega, the spectra of A'A and of the
        periodic C'C, at the frequency columns 0..w/2."""
        return np.abs(self.transfer) ** 2, diff_gram_half_spectrum(self.shape)

    @cached_property
    def rank(self):
        """The rank check of the split.  lambda and omega are
        mirror-symmetric, so their half spectra hold every value, the
        minimum among them."""
        return split_operator_rank_check(*self._half_spectra())

    @cached_property
    def _scratch(self):
        """The memory of every blocked sweep: two row blocks of a half
        spectrum, one array."""
        h, w = self.shape
        cols = w // 2 + 1
        rows = row_blocks(h, cols * np.dtype(complex).itemsize)[0].stop
        return np.empty((2, rows, cols), complex)

    @cached_property
    def _blocks(self):
        """(rows, block, work) for each row block of a half spectrum: the
        row slice and two scratch arrays of that many rows, shared by every
        blocked sweep."""
        block, work = self._scratch
        return [(rows, block[:rows.stop - rows.start],
                 work[:rows.stop - rows.start])
                for rows in row_blocks(self.shape[0], block[0].nbytes)]

    @cached_property
    def _image_blocks(self):
        """(rows, block) for each row block of an image: the row slice and
        a real scratch array of that many rows, in the memory of the two
        half-spectrum blocks.  They hold one: BLOCK_BYTES of image rows
        take less than two row blocks of a half spectrum, whose rows are
        as long or longer."""
        h, w = self.shape
        return [(rows, _real_view(self._scratch, (rows.stop - rows.start, w)))
                for rows in row_blocks(h, w * np.dtype(float).itemsize)]

    @cached_property
    def _omega_factors(self):
        """The column c of 4 sin^2(pi k / h) and the row r of
        4 sin^2(pi l / w), l = 0..w/2, whose outer sum is the half spectrum
        of omega, as the factors (c, 1) and (1; r) of a real matrix
        product, numpy's fastest way to form it.  r is spread over the float
        view of a half spectrum, each entry followed by a 0, so that the
        product is omega as a complex array, and repeated, each entry
        twice, to weigh that float view."""
        h, w = self.shape
        row = _diff_spectrum_1d(w)[:w // 2 + 1]
        left = np.ones((h, 2))
        left[:, 0] = _diff_spectrum_1d(h)
        right = np.zeros((2, w // 2 + 1, 2))
        right[0, :, 0] = 1.0
        right[1, :, 0] = row
        return left, right.reshape(2, -1), np.repeat(row, 2)

    def _omega_rows(self, rows, work, scale):
        """scale omega at the given rows of the half spectrum, as a complex
        array written into the block work."""
        left, right, _ = self._omega_factors
        np.matmul(left[rows] * scale, right, out=work.view(float))
        return work

    def _omega_norm2_rows(self, f, rows, block):
        """Re vdot(f, omega f) for the rows f of a half spectrum: the sum
        of (c_k + r_l) |f_kl|^2, from |f|^2 on float views, written into
        block, and its sums over k weighed by c and by 1, one matrix
        product."""
        left, _, row = self._omega_factors
        f = f.view(float)
        squares = np.multiply(f, f, out=block.view(float))
        by_c, by_1 = left[rows].T @ squares
        return by_c.sum() + by_1 @ row

    @cached_property
    def lam(self):
        """The full spectrum of A'A."""
        return transfer_gram_spectrum(self.transfer, self.shape[1])

    @cached_property
    def om(self):
        """The full spectrum of the periodic C'C."""
        return diff_gram_spectrum(self.shape)

    def A(self, x):
        return blur(self.transfer, x)

    def At(self, r):
        return blur(np.conj(self.transfer), r)

    def C(self, x, out=None):
        return difference(x, self.mask_mode, out)

    def Ct(self, g, out=None):
        return difference_transpose(g, self.mask_mode, out)

    def hat(self, x, out=None):
        """Unitarily scaled half spectrum, into out if it is given:
        sum(x * y) = Re vdot(hat(x), hat(y)) and ||x|| = ||hat(x)||."""
        f = rfft2(x, out)
        f *= self._scale
        return f

    def unhat(self, f, out=None, work=None):
        """The real array whose hat is f, into out if it is given.  f is not
        written; the scaled spectrum the inverse transform consumes goes
        into work, a half spectrum the caller gives up, or a new one."""
        return irfft2(np.multiply(f, self._unscale, out=work), self.shape,
                      out)

    @cached_property
    def y_hat(self):
        """hat(y), computed on first use, so a ProblemOps built only for
        its real-array operators skips it."""
        return self.hat(self.y)

    def hessian_spectra(self, rho, eta):
        """(M, 1 / M) on the half spectrum, M = rho lambda + eta omega, once
        per (rho, eta); raises SingularHessianError where M vanishes.  1 / M
        is kept as numpy multiplies by a real array faster than it divides."""
        if self._spectra_key != (rho, eta):
            # the old pair is freed before the new one is built
            self._spectra = self._spectra_key = None
            m = hessian_spectrum(*self._half_spectra(), rho, eta)
            self._spectra = (m, 1.0 / m)
            self._spectra_key = (rho, eta)
            self._gram_diagonal = None
        return self._spectra

    def coefficient_spectra(self, rho, eta):
        """(P, A) = ((eta - alpha) omega / M, conj(transfer) / M) on the
        half spectrum, in place of (M, 1 / M), once per (rho, eta): a
        periodic x-update in coefficient form is hat(x) = P nu + A h.
        Raises SingularHessianError where M vanishes."""
        key = ("coefficients", rho, eta)
        if self._spectra_key != key:
            self._spectra = self._spectra_key = None
            lam, om = self._half_spectra()
            m = hessian_spectrum(lam, om, rho, eta)  # om is now eta omega
            om *= (eta - self.potential.alpha) / eta
            om /= m
            adjoint = np.conj(self.transfer)
            adjoint.real /= m  # on float views, with no cast buffer
            adjoint.imag /= m
            self._spectra, self._spectra_key = (om, adjoint), key
        return self._spectra

    def _fold(self, v):
        """Finish the wrap vector v of U' unhat(f) whose row part holds
        f @ _row_weights.  A column of f off 0 and w/2 also stands for its
        mirror image, whose share of the row wraps is the conjugate of the
        mirrored row frequency; the fold adds it."""
        rows = v[:self.shape[0]]
        rows += np.conj(rows[self._mirror])
        v.imag[self._self_conjugate] = 0.0
        return v

    def _wrap_adjoint_rows(self, f, rows, v):
        """The share of the rows f of a half spectrum in v, the wrap vector
        of U' of that spectrum before _fold: f @ _row_weights written at
        the rows, _col_weights @ f added to the column part."""
        np.matmul(f, self._row_weights, out=v[rows])
        v[self.shape[0]:] += np.matmul(self._col_weights[rows], f)

    def _wrap_adjoint_hat(self, f):
        """The wrap vector of U' unhat(f)."""
        v = np.zeros(self._gram_in.size, complex)
        self._wrap_adjoint_rows(f, slice(0, self.shape[0]), v)
        return self._fold(v)

    @cached_property
    def _wrap_factor_arrays(self):
        """Real factors left[i] @ right[i] of hat(U c) = L'R for two wrap
        vectors at a time, L = (v_row, _b) and R = (_a_hat, v_col), on float
        views: the real and imaginary parts of L's entries, and R and 1j R.
        The parts that do not depend on c are written here, the rest by
        _wrap_factors."""
        h, w = self.shape
        left, right = np.empty((2, h, 4)), np.empty((2, 4, 2 * (w // 2 + 1)))
        left[:, :, 2:] = self._b.view(float).reshape(h, 2)
        right[:, :2] = np.stack((self._a_hat, 1j * self._a_hat)).view(float)
        return left, right

    def _wrap_factors(self, vs):
        """The factors (left, right) of hat(U c) for each of the one or two
        wrap vectors in the rows of vs, written into _wrap_factor_arrays."""
        h, k = self.shape[0], len(vs)
        left, right = self._wrap_factor_arrays
        left[:k, :, :2] = vs[:, :h].view(float).reshape(k, h, 2)
        right[:k, 2] = vs[:, h:].view(float)
        np.multiply(vs[:, h:], 1j, out=right[:k, 3].view(complex))
        return list(zip(left[:k], right[:k]))

    def _wrap_hat_rows(self, factors, rows, out):
        """hat(U c) at the given rows, into out, a complex block, from the
        factors of c (_wrap_factors): one real matrix product on its float
        view."""
        left, right = factors
        np.matmul(left[rows], right, out=out.view(float))
        return out

    def _wrap_gram(self, v):
        """G v, G = U' M^-1 U at the last (rho, eta), for the wrap vector
        v = (R, C): that of R d1 + b M^-1 (rw C) and a M^-1' (cw R) + C d2,
        folded as in _wrap_adjoint_hat, d1 = M^-1 (rw a) and d2 = (b cw)
        M^-1 real; 1 / M acts through real views.  d1 and d2 are kept
        complex, as numpy multiplies two complex arrays faster than a
        complex and a real one."""
        h = self.shape[0]
        inverse = self._spectra[1]
        if self._gram_diagonal is None:
            self._gram_diagonal = np.concatenate((
                inverse @ (self._row_weights * self._a_hat).real,
                (self._b * self._col_weights).real @ inverse)).astype(complex)
        t = (v * self._gram_in).view(float).reshape(-1, 2)
        g = np.empty(v.size, complex)
        pairs = g.view(float).reshape(-1, 2)
        np.matmul(inverse, t[h:], out=pairs[:h])
        np.matmul(inverse.T, t[:h], out=pairs[h:])
        g *= self._gram_out
        g += v * self._gram_diagonal
        return self._fold(g)

    def pcg_hat(self, b, x, rho, eta, steps=None, sweeps=None):
        """hat(x) after `steps` PCG steps on H x = unhat(b) from the warm
        start hat(x0) = x, preconditioned by 1 / M, written over x and
        returned with its residual relative to |b|.  b is written over:
        it holds r0 = b - H x0.  As M^-1 H = I - eta M^-1 U U', the loop
        keeps the coordinates of p = pi z0 + M^-1 U c, r = gamma r0 + U e,
        x - x0 = xi z0 + M^-1 U chi and q = U'p (z0 = r0 / M; H p = pi r0 +
        U (c - eta q)), so a step applies G once, to a wrap vector.  Those
        vectors are the rows of one array, and each step updates (e, chi)
        and then (c, q) by one product of a small coefficient matrix with
        its rows; Re vdot of two wrap vectors is the dot product of their
        float views.  The iterates are those of ``pcg_solve``, with its
        checks.  Without `steps` it is exact: as M^-1 H is I off an
        (h + w + 1)-dimensional subspace, it stops once r'z <=
        EXACT_TOLERANCE^2 b'M^-1 b, within h + w + 1 steps, and at that cap
        it keeps the iterate only if its residual is at most
        EXACT_TOLERANCE.  An r'z or p'Hp within ROUNDING of 0, relative to
        the sizes of the terms it is summed from, is 0 to rounding: the
        Krylov space has run out, as it does on masked grids of a few
        pixels, and the loop stops with the iterate it has.  One further
        below 0, a non-finite one, or a non-finite iterate raises
        PcgBreakdownError.  In periodic mode U = 0, so H = M: x = b / M
        with residual 0, whatever the warm start and `steps`, and b is not
        written.

        The work is two sweeps of row blocks around the loop: the first
        forms r0, z0, r0'z0 and U'z0, the second r, for the residual, and
        x.  Given `sweeps`, the per-block work of a masked coefficient-form
        step (``_Sweeps``), the first sweep builds b into its buffer, as
        sweeps.rhs writes it and hat(U c_b), c_b = sweeps.rhs_wraps, is
        added, and the wrap term of H x0 is hat(U c), c = sweeps.x_wraps,
        which the caller carries.
        The second sweep runs sweeps.finish on each block once x is final
        there.  hat(U c) is a real matrix product on float views
        (_wrap_factors), which numpy runs in about half the time of the
        complex one."""
        if self.mask_mode == "periodic":
            inverse = self.hessian_spectra(rho, eta)[1]
            return np.multiply(b, inverse, out=x), 0.0
        if sweeps is None:
            b_norm2 = np.vdot(b, b).real
            if not math.isfinite(b_norm2):
                raise PcgBreakdownError("non-finite right-hand side")
            # H x0 = M x0 + hat(U c) with c = -eta U'x0
            (hx_factors,) = self._wrap_factors(
                (-eta * self._wrap_adjoint_hat(x))[None])
        else:
            b_factors, hx_factors = self._wrap_factors(
                np.stack((sweeps.rhs_wraps, sweeps.x_wraps)))
            b_norm2 = 0.0
        m, inverse = self.hessian_spectra(rho, eta)
        h, w = self.shape
        exact = steps is None
        steps = h + w + 1 if exact else steps
        # rows w0 = U'z0, c, q, e, chi and g = G e; q starts at w0
        wraps = np.zeros((6, self._gram_in.size), complex)
        w0 = wraps[0]
        rho0 = bmb = 0.0
        for part, block, work in self._blocks:
            bp = b[part]
            if sweeps is not None:
                sweeps.rhs(part, bp, block, work)
                bp += self._wrap_hat_rows(b_factors, part, work)
                b_norm2 += np.vdot(bp, bp).real
            if exact:
                bmb += np.vdot(bp, np.multiply(bp, inverse[part],
                                               out=block)).real
            # r0 = b - (M x0 + U c) over b, then z0 = r0 / M in the block
            hx = np.multiply(x[part], m[part], out=block)
            hx += self._wrap_hat_rows(hx_factors, part, work)
            r0 = np.subtract(bp, hx, out=bp)
            z0 = np.multiply(r0, inverse[part], out=block)
            rho0 += np.vdot(r0, z0).real
            self._wrap_adjoint_rows(z0, part, w0)
        if sweeps is not None and not math.isfinite(b_norm2):
            raise PcgBreakdownError("non-finite right-hand side")
        b_norm = math.sqrt(max(b_norm2, 0.0))
        if exact and not b_norm:
            # the solution is 0, whatever the warm start
            x.fill(0.0)
            b.fill(0.0)
            rho0 = 0.0
            w0.fill(0.0)
        wraps[2] = self._fold(w0)
        # 0 for a fixed step count, so only an r'z at rounding level ends it
        # early
        stop = EXACT_TOLERANCE ** 2 * bmb
        pi, gamma, xi, rz, taken, capped = 1.0, 1.0, 0.0, rho0, 0, False
        rz_size = rho0  # the sum of the sizes of the terms of r'z
        rows = wraps.view(float)
        # the updates e -= a (c - eta q), chi += a c and then c = e + beta c,
        # q = u + beta q, u = g + gamma w0, as products with rows[1:5] and
        # rows; the entries set to 0 here are set in each step
        update_e_chi = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        update_c_q = np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
        # an exact solve checks r'z once more, after its last step
        for step in range(steps + 1 if exact else steps):
            noise = ROUNDING * rz_size
            if rz < -noise:
                raise PcgBreakdownError("r'z = %g < 0 at step %d" % (rz, step))
            if rz < RZ_UNDERFLOW or rz <= noise or rz <= stop:
                break  # r = 0 to working precision, or r'z below the stop
            if step == steps:
                capped = True
                break
            # p'Hp with q'(c - eta q), the wraps of H p being c - eta q
            (cw, _, _), (_, qc, qq) = rows[1:3].dot(rows[:3].T).tolist()
            php = pi * (pi * rho0 + cw) + (qc - eta * qq)
            noise = ROUNDING * (pi * pi * rho0 + abs(pi * cw) + abs(qc)
                                + eta * qq)
            if not math.isfinite(php):
                raise PcgBreakdownError("non-finite p'Hp at step %d" % step)
            if not php >= -noise:
                raise PcgBreakdownError("p'Hp = %g at step %d" % (php, step))
            if php <= noise:
                break  # p'Hp is 0 to rounding, so r is
            a = rz / php
            xi, gamma, taken = xi + a * pi, gamma - a * pi, step + 1
            update_e_chi[0, :2] = -a, a * eta
            update_e_chi[1, 0] = a
            rows[3:5] = update_e_chi.dot(rows[1:5])
            if step + 1 == steps and not exact:
                break
            wraps[5] = self._wrap_gram(wraps[3])
            # U'z = u = g + gamma w0, so u'e = g'e + gamma w0'e
            we, ge = rows[0:6:5].dot(rows[3]).tolist()
            rz_new = gamma * (gamma * rho0 + we) + (ge + gamma * we)
            rz_size = gamma * gamma * rho0 + 2.0 * abs(gamma * we) + abs(ge)
            beta = rz_new / rz
            pi, rz = gamma + beta * pi, rz_new
            update_c_q[0, 1] = update_c_q[1, 2] = beta
            update_c_q[1, 0] = gamma
            rows[1:3] = update_c_q.dot(rows)
        # r = gamma r0 + U e for its norm, x += M^-1 (xi r0 + U chi)
        r_norm2 = 0.0
        e_factors, chi_factors = self._wrap_factors(wraps[3:5])
        for part, block, work in self._blocks:
            r0 = b[part]
            r = np.multiply(r0, gamma, out=block)
            r += self._wrap_hat_rows(e_factors, part, work)
            r_norm2 += np.vdot(r, r).real
            dx = np.multiply(r0, xi, out=block)
            dx += self._wrap_hat_rows(chi_factors, part, work)
            dx *= inverse[part]
            x_part = x[part]
            x_part += dx
            if not np.isfinite(x_part).all():
                raise PcgBreakdownError(
                    "non-finite iterate after %d steps" % taken)
            if sweeps is not None:
                sweeps.finish(part, block, work)
        residual = math.sqrt(r_norm2) / b_norm if b_norm else 0.0
        if capped and not residual <= EXACT_TOLERANCE:
            raise PcgBreakdownError("r'z = %g after %d steps" % (rz, steps))
        return x, residual

    def solve(self, b, rho, eta):
        """Exact solution of (rho A'A + eta C'C) x = b: ``pcg_hat`` without
        a step count from hat(x0) = 0, which divides by M in periodic mode
        and in masked mode runs PCG to rounding level."""
        f = self.hat(b)
        x = self.pcg_hat(f, np.zeros_like(f), rho, eta)[0]
        return self.unhat(x, work=x)

    def data_term(self, ax_hat):
        """1/2 |y - A x|^2 from ax_hat = hat(A x): 1/2 |hat(y) -
        hat(A x)|^2, by Parseval, summed one row block at a time."""
        data = 0.0
        for rows, block, _ in self._blocks:
            res = np.subtract(self.y_hat[rows], ax_hat[rows], out=block)
            data += np.vdot(res, res).real
        return 0.5 * data

    def cost(self, x, ax_hat=None):
        """Objective at x, reusing ax_hat = hat(A x) when it is given."""
        if ax_hat is None:
            ax_hat = self.hat(x)
            ax_hat *= self.transfer
        return self.data_term(ax_hat) + potential_value_array(self.potential,
                                                              self.C(x))


def _real_view(f, shape):
    """A real array of the given shape in the memory of the contiguous
    complex array f, which must hold it."""
    flat = f.reshape(-1, copy=False).view(float)
    return flat[:math.prod(shape)].reshape(shape)


def _divide(z, c):
    """z /= c for a complex array z and a real scalar c, as a multiply of
    z's float view by 1 / c.  numpy divides by c + 0j with Smith's formula,
    which for a zero imaginary part is that same multiply, at about three
    times the cost."""
    f = z.view(float)
    np.multiply(f, 1.0 / c, out=f)


def _quadratic_phi(ops: ProblemOps, omega_norm2, x_wraps=None) -> float:
    """Phi(C x) = alpha/2 |C x|^2 = alpha/2 (Re vdot(hat(x), omega hat(x))
    - |U'x|^2), by Parseval, from the first term and the wrap vector of
    U'x; periodic C, where U = 0, has none."""
    if x_wraps is not None:
        flat = x_wraps.view(float)
        omega_norm2 -= flat.dot(flat)
    return 0.5 * ops.potential.alpha * omega_norm2


def _consistent_state(ops: ProblemOps, x, rho: float, eta: float,
                      coefficients: bool = False) -> SolverState:
    """The state at x whose splits and duals agree with it: u = A x,
    v = C x, u + rho*d = y, and alpha*v + eta*e = 0 for the quadratic
    potential (e = 0 otherwise).  Each field is an array of its own, as
    the steps write over them.  In coefficient form v is hat(x), e is
    None, x is kept for the first record only, and with masked C the
    state carries U'x and U'n."""
    x_hat = ops.hat(x)
    u_hat = ops.transfer * x_hat
    wraps = e = None
    if coefficients:
        v = x_hat.copy()
        if ops.mask_mode == "masked":
            wraps = np.tile(ops._wrap_adjoint_hat(x_hat), (2, 1))
        phi = _quadratic_phi(ops, sum(
            ops._omega_norm2_rows(x_hat[rows], rows, block)
            for rows, block, _ in ops._blocks),
            None if wraps is None else wraps[0])
    else:
        v = ops.C(x)
        phi = potential_value_array(ops.potential, v)
        if ops.potential.kind == "quadratic":
            e = -(ops.potential.alpha / eta) * v
        else:
            e = np.zeros_like(v)
    d_hat = ops.y_hat - u_hat
    _divide(d_hat, rho)
    return SolverState(x=x, u_hat=u_hat, v=v, d_hat=d_hat, e=e, x_hat=x_hat,
                       ax_hat=u_hat.copy(), phi=phi,
                       data_term=ops.data_term(u_hat), wraps=wraps)


def _initial_x(ops: ProblemOps, x0_mode: str):
    """x0 of the canonical start, a new array."""
    if x0_mode not in ("zero", "data"):
        raise ValueError("x0_mode must be 'zero' or 'data'")
    return np.zeros(ops.shape) if x0_mode == "zero" else ops.y.copy()


def canonical_init(ops: ProblemOps, rho: float, eta: float,
                   x0_mode: str = "zero") -> SolverState:
    """Initial state making the dual variables redundant from step one."""
    return _consistent_state(ops, _initial_x(ops, x0_mode), rho, eta)


def _inner_steps(inner: InnerSolveConfig):
    """The `steps` of ``ProblemOps.pcg_hat`` for an x-update config."""
    return None if inner.mode == "circulant_exact" else inner.pcg_iterations


# A step writes its result over the arrays of the state it is given and
# returns that state.  The right-hand side is built in the ax_hat buffer;
# in real form v + e goes into v and C'(v + e) into x, as none of them is
# read before the step writes it again; the solve writes hat(x) over x_hat
# and may write over the right-hand side, and unhat consumes it.  Other
# scratch is a row block of a half spectrum (ProblemOps._blocks).  If a
# step raises, its state is left part-written.  A state is in coefficient
# form (see the module docstring) when its v is a half spectrum; such a
# step runs in row-block sweeps (_coefficient_step).

def _coefficient_form(state):
    return state.v.ndim == 2


@dataclass
class _Sweeps:
    """What a masked coefficient-form step does in the row-block sweeps of
    ``ProblemOps.pcg_hat``.  rhs(rows, out, block, work) writes the
    right-hand side at the rows into out, less hat(U c) for c =
    rhs_wraps, and finish(rows, block, work) runs once hat(x) is final at
    the rows; block and work are the row block's scratch.  x_wraps is the
    c of H x0 = M x0 + hat(U c), -eta U'x0."""

    rhs: Callable
    finish: Callable
    x_wraps: np.ndarray
    rhs_wraps: np.ndarray


def _mix(ops, eta, x, nu):
    """nu = (eta x + alpha nu) / (eta + alpha) over nu, the split of a
    quadratic step whose e is -(alpha/eta) nu, on float views."""
    alpha = ops.potential.alpha
    f = nu.view(float)
    f *= alpha / eta
    f += x.view(float)
    f *= eta / (eta + alpha)


def _coefficient_step(ops, state, rho, eta, steps, data, dual, count=1,
                      ref_hat=None):
    """count steps of a state in coefficient form, and for each the data
    term, Phi and, given hat(ref), |hat(x) - hat(ref)|^2, in a list.  With
    periodic C, hat(x) = P nu + A h at each frequency
    (``coefficient_spectra``, data adding A h), so each row block goes
    through all count steps before the next one starts, in the L2 cache;
    with masked C, where count is 1, it is the two sweeps of ``pcg_hat``,
    whose right-hand side is (eta - alpha) omega nu plus the data term,
    less hat(U c), c = (alpha - eta) U'n.  Once hat(x) is final in a row
    block, hat(A x) and its shares of the sums above and, for masked C, of
    U'x are formed there, dual(rows) writes u and d, and nu is mixed with
    hat(x); the wrap slices of the field C n that nu stands for are zero
    already.  Each sum adds its row blocks' shares in block order, so
    every count gives the values that many single steps give.  U'x and
    U'n are carried in state.wraps, so no half spectrum passes through U'
    whole."""
    alpha = ops.potential.alpha
    masked = ops.mask_mode == "masked"
    # per step, the sums of |hat(y) - hat(A x)|^2, of omega |hat(x)|^2 and
    # of |hat(x) - hat(ref)|^2
    data_sums, omega_sums, ref_sums = ([0.0] * count for _ in range(3))

    def finish(rows, block, work, i=0):
        f = state.x_hat[rows]
        ax = np.multiply(f, ops.transfer[rows], out=state.ax_hat[rows])
        residual = np.subtract(ops.y_hat[rows], ax, out=block)
        data_sums[i] += np.vdot(residual, residual).real
        omega_sums[i] += ops._omega_norm2_rows(f, rows, block)
        if ref_hat is not None:
            diff = np.subtract(f, ref_hat[rows], out=block)
            ref_sums[i] += np.vdot(diff, diff).real
        dual(rows)
        _mix(ops, eta, f, state.v[rows])
        if masked:
            ops._wrap_adjoint_rows(f, rows, state.wraps[0])

    def per_step(x_wraps=None):
        return [(0.5 * d, _quadratic_phi(ops, o, x_wraps), r)
                for d, o, r in zip(data_sums, omega_sums, ref_sums)]

    if masked:
        def rhs(rows, out, block, work):
            omega = ops._omega_rows(rows, work, eta - alpha)
            np.multiply(state.v[rows], omega, out=out)
            data(rows, out, block, np.conj(ops.transfer[rows], out=work))

        x_wraps, n_wraps = state.wraps
        sweeps = _Sweeps(rhs, finish, x_wraps * -eta, n_wraps * (alpha - eta))
        # U'x of the new x: its row part is written block by block, its
        # column part summed
        x_wraps[ops.shape[0]:] = 0.0
        _, res = ops.pcg_hat(state.ax_hat, state.x_hat, rho, eta, steps,
                             sweeps)
        _mix(ops, eta, ops._fold(x_wraps), n_wraps)
        sums = per_step(x_wraps)
    else:
        p, adjoint = ops.coefficient_spectra(rho, eta)
        res = 0.0
        for rows, block, work in ops._blocks:
            p_rows, adjoint_rows = p[rows], adjoint[rows]
            v, x = state.v[rows], state.x_hat[rows]
            for i in range(count):
                np.multiply(p_rows, v, out=x)
                data(rows, x, block, adjoint_rows)
                finish(rows, block, work, i)
        sums = per_step()
    state.data_term, state.phi, _ = sums[-1]
    state.k += count
    state.inner_residual = res
    return sums


def _split_rhs(ops, state, g, scale, data):
    """scale hat(C'g) plus the data term into state.ax_hat, the right-hand
    side, with C'g written over state.x, which the step writes afresh."""
    rhs = ops.hat(ops.Ct(g, out=state.x), out=state.ax_hat)
    rhs *= scale
    for rows, block, work in ops._blocks:
        data(rows, rhs[rows], block, np.conj(ops.transfer[rows], out=work))
    return rhs


def _new_x(ops, state, residual, cx):
    """x_hat holds the x-update hat(x): write x and hat(A x) over the
    state, C x into cx, a field of the state the step writes afresh, and
    the two terms of the cost."""
    ops.unhat(state.x_hat, out=state.x, work=state.ax_hat)
    state.phi = potential_value_array(ops.potential, ops.C(state.x, out=cx))
    np.multiply(state.x_hat, ops.transfer, out=state.ax_hat)
    state.data_term = ops.data_term(state.ax_hat)
    state.k += 1
    state.inner_residual = residual


def _split_update(ops, state, eta):
    """With C x in v: v = prox(C x - e) and the dual e - C x + v =
    -shrinkage(C x - e), written over v and e.  In masked mode v is zero
    and e keeps its value on the wrap-around slices, saved before e is
    written."""
    v, e = state.v, state.e
    kept = [] if ops.mask_mode == "periodic" else [e[ix].copy()
                                                   for ix in WRAPS]
    v -= e
    s = shrinkage(ops.potential, v, eta, out=e)
    v -= s
    np.negative(s, out=s)
    for ix, old in zip(WRAPS, kept):
        v[ix] = 0.0
        e[ix] = old


def _split_step(ops, state, rho, eta, steps, data, dual):
    """The step of sb and both ADMM variants, given the `steps` of
    ``pcg_hat`` and their (data, dual) (``_TERMS``): data(rows, out, block,
    adjoint) adds adjoint h at the rows to out, h the variant's data term
    and adjoint conj(transfer), or A in a periodic coefficient-form step,
    and dual(rows) writes u and d there from hat(A x)."""
    if _coefficient_form(state):
        _coefficient_step(ops, state, rho, eta, steps, data, dual)
        return state
    _split_rhs(ops, state, np.add(state.v, state.e, out=state.v), eta, data)
    _, res = ops.pcg_hat(state.ax_hat, state.x_hat, rho, eta, steps)
    _new_x(ops, state, res, state.v)
    dual(slice(None))
    _split_update(ops, state, eta)
    return state


def _sb_terms(ops, state, rho):
    """The (data, dual) of split Bregman's step (rho = 1) on the state."""
    def data(rows, out, block, adjoint):
        out += np.multiply(adjoint, ops.y_hat[rows], out=block)

    def dual(rows):
        state.u_hat[rows] = state.ax_hat[rows]
        np.subtract(ops.y_hat[rows], state.u_hat[rows], out=state.d_hat[rows])

    return data, dual


def _admm2_terms(ops, state, rho):
    """The (data, dual) of the two-split ADMM's step on the state."""
    def data(rows, out, block, adjoint):
        h = np.add(state.u_hat[rows], state.d_hat[rows], out=block)
        h *= adjoint
        h *= rho
        out += h

    def dual(rows):
        u_hat = np.subtract(state.ax_hat[rows], state.d_hat[rows],
                            out=state.u_hat[rows])
        u_hat *= rho
        u_hat += ops.y_hat[rows]
        _divide(u_hat, rho + 1.0)
        d_hat = state.d_hat[rows]
        d_hat -= state.ax_hat[rows]
        d_hat += u_hat

    return data, dual


def _eliminated_terms(ops, state, rho):
    """The (data, dual) of the simplified ADMM's step on the state: its
    data term is hat(y) + (rho - 1) hat(u), and u = (rho A x + u) /
    (rho + 1), d = (y - u) / rho."""
    def data(rows, out, block, adjoint):
        h = np.multiply(state.u_hat[rows], rho - 1.0, out=block)
        h += ops.y_hat[rows]
        h *= adjoint
        out += h

    def dual(rows):
        u_hat, d_hat = state.u_hat[rows], state.d_hat[rows]
        np.multiply(rho, state.ax_hat[rows], out=d_hat)
        np.add(d_hat, u_hat, out=u_hat)
        _divide(u_hat, rho + 1.0)
        np.subtract(ops.y_hat[rows], u_hat, out=d_hat)
        _divide(d_hat, rho)

    return data, dual


def _closed_form_terms(ops, state, rho):
    """Those of the closed form, the simplified ADMM's, once the problem is
    checked to be one it applies to."""
    if ops.potential.kind != "quadratic":
        raise ValueError("closed-form recursion requires a quadratic potential")
    if ops.mask_mode != "periodic":
        raise ValueError("closed-form recursion requires periodic operators")
    return _eliminated_terms(ops, state, rho)


_TERMS = {"sb": _sb_terms, "admm2": _admm2_terms,
          "admm2_simplified": _eliminated_terms,
          "quadratic_closed_form": _closed_form_terms}


def sb_step(state: SolverState, ops: ProblemOps, eta: float,
            inner: InnerSolveConfig) -> SolverState:
    """One split Bregman sweep: least-squares x, prox v, dual e."""
    return _split_step(ops, state, 1.0, eta, _inner_steps(inner),
                       *_sb_terms(ops, state, 1.0))


def admm2_step(state: SolverState, ops: ProblemOps, rho: float, eta: float,
               inner: InnerSolveConfig) -> SolverState:
    """One two-split ADMM sweep (x, u, v, then both dual updates)."""
    return _split_step(ops, state, rho, eta, _inner_steps(inner),
                       *_admm2_terms(ops, state, rho))


def admm2_simplified_step(state: SolverState, ops: ProblemOps, rho: float,
                          eta: float, inner: InnerSolveConfig) -> SolverState:
    """Two-split ADMM with d eliminated; requires the canonical d init."""
    return _split_step(ops, state, rho, eta, _inner_steps(inner),
                       *_eliminated_terms(ops, state, rho))


def quadratic_closed_form_step(state: SolverState, ops: ProblemOps, rho: float,
                               eta: float) -> SolverState:
    """Fully eliminated recursion for the quadratic potential.

    Valid only with periodic operators (exact spectra) and the canonical
    d and e initializations.  C x goes into e, which the recursion then
    rebuilds from v; with periodic C ``pcg_hat`` divides by M, reading no
    warm start.  In coefficient form it is admm2_simplified's step.
    """
    data, dual = _closed_form_terms(ops, state, rho)
    if _coefficient_form(state):
        _coefficient_step(ops, state, rho, eta, None, data, dual)
        return state
    _split_rhs(ops, state, state.v, eta - ops.potential.alpha, data)
    ops.pcg_hat(state.ax_hat, state.x_hat, rho, eta)
    _new_x(ops, state, 0.0, state.e)
    dual(slice(None))
    # v = (eta C x + alpha v) / (eta + alpha), e = -(alpha / eta) v
    _mix(ops, eta, state.e, state.v)
    np.multiply(-(ops.potential.alpha / eta), state.v, out=state.e)
    return state


@dataclass
class MetricTrace:
    """Per-iteration cost / error records of one run, and whether the
    split operator [A; C] of its problem has full column rank."""

    iterations: list = field(default_factory=list)
    cost: list = field(default_factory=list)
    rel_cost_err: list = field(default_factory=list)
    rmsd: list = field(default_factory=list)
    inner_residual: list = field(default_factory=list)
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
        write_csv(path, ["iter", "cost", "rel_cost_err", "rmsd",
                         "inner_residual"],
                  zip(self.iterations, self.cost, self.rel_cost_err,
                      self.rmsd, self.inner_residual))


def run(problem: ProblemSpec, config: OuterConfig,
        reference: ImageGrid = None) -> MetricTrace:
    """Execute max_iterations outer steps, logging cost and errors.

    The cost is always evaluated with the true (possibly masked) operators.
    The relative cost error and RMSD columns are NaN without a reference.
    With the quadratic potential, periodic or masked C, the steps run in
    coefficient form (see the module docstring), and the rmsd after the
    first row is |hat(x) - hat(ref)| / sqrt(n), by Parseval, summed inside
    the steps.  With periodic C they run CHUNK at a time, each row block
    through all of them in turn (``_coefficient_step``), and the records
    and checks of a chunk follow it: a run that blows up stops within a
    chunk of the bad iteration, with the error of that iteration.  The
    variant's (data, dual) pair is built once, on the state every step
    writes over.  numpy's warnings are off while the steps run: a step
    that overflows goes on, and a non-finite PCG value or cost stops it.
    """
    ops = ProblemOps(problem)
    if reference is not None and reference.shape != ops.shape:
        raise ValueError("reference grid %s does not match the problem grid %s"
                         % (reference.shape, ops.shape))
    coefficients = ops.potential.kind == "quadratic"
    # the reference's cost and the rank check build whole-grid temporaries,
    # so they come before the state exists
    ref = ref_hat = ref_cost = None
    if reference is not None:
        ref = reference.values
        ref_hat = ops.hat(ref)
        ref_cost = ops.cost(ref, ref_hat * ops.transfer)
        if not coefficients:
            ref_hat = None  # only a step in coefficient form reads it
    trace = MetricTrace(full_rank=ops.rank.full_rank)
    state = _consistent_state(ops, _initial_x(ops, config.x0_mode),
                              config.rho, config.eta, coefficients)

    def image_sq(x):
        """|x - ref|^2, or None without a reference."""
        if ref is None:
            return None
        sq = 0.0
        for rows, block in ops._image_blocks:
            diff = np.subtract(x[rows], ref[rows], out=block)
            sq += np.vdot(diff, diff)
        return sq

    def record(k, c, sq):
        if not math.isfinite(c):
            raise SolverDivergenceError("non-finite cost at iteration %d" % k)
        if ref is None:
            rel, rmsd = float("nan"), float("nan")
        else:
            rel = (c - ref_cost) / (ref_cost or 1.0)  # absolute at cost 0
            rmsd = math.sqrt(sq / ops.y.size)
        trace.append(k, c, rel, rmsd, state.inner_residual)
        return c

    initial_cost = record(state.k, state.data_term + state.phi,
                          image_sq(state.x))
    if coefficients:
        state.x = None  # x0 served the first rmsd; the steps keep only x_hat
    guard = DIVERGENCE_FACTOR * max(initial_cost, 1.0)
    chunk = CHUNK if coefficients and ops.mask_mode == "periodic" else 1
    data, dual = _TERMS[config.algorithm](ops, state, config.rho)
    steps = _inner_steps(config.inner)
    while state.k < config.max_iterations:
        count = min(chunk, config.max_iterations - state.k)
        with np.errstate(all="ignore"):
            if coefficients:
                sums = _coefficient_step(ops, state, config.rho, config.eta,
                                         steps, data, dual, count, ref_hat)
            else:
                _split_step(ops, state, config.rho, config.eta, steps, data,
                            dual)
                sums = [(state.data_term, state.phi, image_sq(state.x))]
        for k, (data_term, phi, sq) in enumerate(sums, state.k - count + 1):
            c = record(k, data_term + phi, sq)
            if c > guard:
                raise SolverDivergenceError(
                    "cost %.3g exceeded %.0e x initial cost at iteration %d "
                    "(oscillation guard)" % (c, DIVERGENCE_FACTOR, k))
    if state.x is None:
        # the image takes the memory of d_hat, which the run gives up
        state.x = ops.unhat(state.x_hat, work=state.ax_hat,
                            out=_real_view(state.d_hat, ops.shape))
    trace.final_image = ImageGrid(state.x)
    return trace


def solution_state(ops: ProblemOps, x: np.ndarray, rho: float,
                   eta: float) -> SolverState:
    """State assembled from a solved x with consistent splits and duals.

    For the quadratic potential this is a fixed point of every step.
    """
    if ops.potential.kind != "quadratic":
        raise ValueError("solution_state is defined for the quadratic potential")
    return _consistent_state(ops, np.array(x, dtype=float), rho, eta)
