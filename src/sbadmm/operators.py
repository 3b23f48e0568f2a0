"""Linear operators of the restoration problem and their circulant spectra.

Blur A is a small convolution stencil (periodic or masked-valid boundary),
the analysis operator C stacks first-order finite differences in the
horizontal and vertical directions (periodic or masked), and the Gram
operators A'A and C'C are diagonalized by the 2D DFT when the boundary is
periodic.  Masked operators break the exact circulant structure; their
spectra are those of the unmasked periodic stencil, an approximation.

The operators act on plain arrays: images are (h, w), difference fields are
(2, h, w).  ``algorithms.ProblemOps`` builds the blur transfer and the
difference mask once per problem and passes them in.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grids import ConvolutionKernel

EIGENVALUE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BccbSpectrum:
    """Per-frequency real eigenvalues of a BCCB Gram operator."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 2:
            raise ValueError("eigenvalues must be a 2D per-frequency array")
        if ev.min() < -1e-14:
            raise ValueError("Gram eigenvalues must be nonnegative")
        object.__setattr__(self, "eigenvalues", np.maximum(ev, 0.0))

    @property
    def shape(self):
        return self.eigenvalues.shape


@dataclass(frozen=True)
class RankCheck:
    full_rank: bool
    min_combined_eigenvalue: float


def _offsets(kernel):
    """Yield (row offset, col offset, tap) for each nonzero tap."""
    ai, aj = kernel.anchor
    for (ki, kj), t in np.ndenumerate(kernel.taps):
        if t != 0.0:
            yield ki - ai, kj - aj, t


def _check_fits(kernel, shape):
    kh, kw = kernel.taps.shape
    if kh > shape[0] or kw > shape[1]:
        raise ValueError("kernel %s does not fit grid %s" % ((kh, kw), shape))


def embed_kernel(kernel, shape):
    """Place the stencil on a full grid so fft2 gives the circulant transfer."""
    _check_fits(kernel, shape)
    h, w = shape
    z = np.zeros(shape)
    for oi, oj, t in _offsets(kernel):
        z[oi % h, oj % w] += t
    return z


def _shift_zero(a, di, dj):
    """Shifted copy with zero fill: out[i, j] = a[i - di, j - dj]."""
    h, w = a.shape
    out = np.zeros_like(a)
    src_i = slice(max(0, -di), min(h, h - di))
    dst_i = slice(max(0, di), min(h, h + di))
    src_j = slice(max(0, -dj), min(w, w - dj))
    dst_j = slice(max(0, dj), min(w, w + dj))
    out[dst_i, dst_j] = a[src_i, src_j]
    return out


def _valid_box(kernel, shape):
    """Output region whose stencil footprint stays inside the grid."""
    h, w = shape
    offs = list(_offsets(kernel))
    oi_min = min(o[0] for o in offs)
    oi_max = max(o[0] for o in offs)
    oj_min = min(o[1] for o in offs)
    oj_max = max(o[1] for o in offs)
    return (slice(max(0, oi_max), h + min(0, oi_min)),
            slice(max(0, oj_max), w + min(0, oj_min)))


def blur_transfer(kernel, shape):
    """2D DFT of the embedded stencil: the eigenvalues of periodic A."""
    return np.fft.fft2(embed_kernel(kernel, shape))


def blur(kernel, transfer, x):
    """Apply A: periodic through its transfer, masked-valid by shifts."""
    if kernel.boundary == "periodic":
        return np.real(np.fft.ifft2(np.fft.fft2(x) * transfer))
    y = np.zeros_like(x)
    for oi, oj, t in _offsets(kernel):
        y += t * _shift_zero(x, oi, oj)
    box = _valid_box(kernel, x.shape)
    out = np.zeros_like(x)
    out[box] = y[box]
    return out


def blur_transpose(kernel, transfer, r):
    """Apply A' to an image on A's output grid."""
    if kernel.boundary == "periodic":
        return np.real(np.fft.ifft2(np.fft.fft2(r) * np.conj(transfer)))
    box = _valid_box(kernel, r.shape)
    rr = np.zeros_like(r)
    rr[box] = r[box]
    out = np.zeros_like(r)
    for oi, oj, t in _offsets(kernel):
        out += t * _shift_zero(rr, -oi, -oj)
    return out


def diff_mask(shape, mask_mode):
    """Validity mask of the stacked difference planes (horizontal, vertical).

    Masked mode marks invalid the differences that would wrap across the
    grid boundary; periodic mode keeps them all.
    """
    if mask_mode not in ("periodic", "masked"):
        raise ValueError("mask_mode must be 'periodic' or 'masked'")
    h, w = shape
    mask = np.ones((2, h, w), dtype=bool)
    if mask_mode == "masked":
        mask[0, :, w - 1:] = False
        mask[1, h - 1:, :] = False
    return mask


def difference(x, mask):
    """Apply C: horizontal and vertical forward differences, zero off mask."""
    g = np.empty((2,) + x.shape)
    g[0] = np.roll(x, -1, axis=1) - x
    g[1] = np.roll(x, -1, axis=0) - x
    return np.where(mask, g, 0.0)


def difference_transpose(g, mask_mode, mask):
    """Apply C'; entries of g off the mask are ignored."""
    if mask_mode == "periodic":
        out = np.roll(g[0], 1, axis=1) - g[0]
        out += np.roll(g[1], 1, axis=0) - g[1]
        return out
    gh = np.where(mask[0], g[0], 0.0)
    gv = np.where(mask[1], g[1], 0.0)
    out = _shift_zero(gh, 0, 1) - gh
    out += _shift_zero(gv, 1, 0) - gv
    return out


def transfer_gram(transfer) -> BccbSpectrum:
    """Per-frequency eigenvalues |transfer|^2 of A'A."""
    return BccbSpectrum(np.abs(transfer) ** 2)


def gram_spectrum(kernel: ConvolutionKernel, shape) -> BccbSpectrum:
    """Per-frequency eigenvalues of A'A for a periodic convolution.

    For a masked kernel the mask is ignored and the result is the spectrum
    of the unmasked periodic stencil (an approximation).
    """
    return transfer_gram(blur_transfer(kernel, shape))


def _diff_transfers(shape):
    h, w = shape
    zh = np.zeros(shape)
    zh[0, 0] += -1.0
    zh[0, (w - 1) % w] += 1.0
    zv = np.zeros(shape)
    zv[0, 0] += -1.0
    zv[(h - 1) % h, 0] += 1.0
    return np.fft.fft2(zh), np.fft.fft2(zv)


def diff_gram_spectrum(shape) -> BccbSpectrum:
    """Per-frequency eigenvalues of C'C for the periodic difference stencils.

    Used as-is for periodic C and as the circulant surrogate for masked C.
    """
    th, tv = _diff_transfers(shape)
    return BccbSpectrum(np.abs(th) ** 2 + np.abs(tv) ** 2, )


def split_operator_rank_check(lam: BccbSpectrum, omega: BccbSpectrum,
                              tol: float = EIGENVALUE_TOLERANCE) -> RankCheck:
    """Check whether the stacked split operator S = [A; C] has full column
    rank, via the minimum of the spectrum of S'S = A'A + C'C."""
    if lam.shape != omega.shape:
        raise ValueError("spectra live on different grids")
    combined = lam.eigenvalues + omega.eigenvalues
    mn = float(combined.min())
    return RankCheck(full_rank=mn > tol, min_combined_eigenvalue=mn)


def sparse_blur_matrix(kernel: ConvolutionKernel, shape) -> sp.csr_matrix:
    """Materialize the periodic blur A as a sparse (h*w) x (h*w) matrix."""
    if kernel.boundary != "periodic":
        raise ValueError("sparse blur matrix supports periodic boundary only")
    _check_fits(kernel, shape)
    h, w = shape
    n = h * w
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    rows, cols, vals = [], [], []
    for oi, oj, t in _offsets(kernel):
        rows.append((ii * w + jj).ravel())
        cols.append((((ii - oi) % h) * w + (jj - oj) % w).ravel())
        vals.append(np.full(n, t))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def sparse_diff_matrix(shape, mask_mode) -> sp.csr_matrix:
    """Materialize C as a sparse (2*h*w) x (h*w) matrix (stacked h, v).

    Masked-out rows are kept as zero rows so row indexing matches the
    flattened (2, h, w) difference layout.
    """
    h, w = shape
    n = h * w
    mask = diff_mask(shape, mask_mode)
    ii = np.arange(h)[:, None] * np.ones(w, dtype=int)[None, :]
    jj = np.ones(h, dtype=int)[:, None] * np.arange(w)[None, :]
    rows, cols, vals = [], [], []
    for d, (di, dj) in enumerate(((0, 1), (1, 0))):
        keep = mask[d].ravel()
        r = (d * n + ii * w + jj).ravel()[keep]
        rows += [r, r]
        cols += [(ii * w + jj).ravel()[keep],
                 ((((ii + di) % h) * w + (jj + dj) % w)).ravel()[keep]]
        vals += [np.full(r.size, -1.0), np.full(r.size, 1.0)]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * n, n))


def write_spectra_csv(lam: BccbSpectrum, omega: BccbSpectrum, path):
    """Dump both Gram spectra as (freq_row, freq_col, lambda, omega) rows."""
    if lam.shape != omega.shape:
        raise ValueError("spectra live on different grids")
    h, w = lam.shape
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["freq_row", "freq_col", "lambda", "omega"])
        for i in range(h):
            for j in range(w):
                writer.writerow([i, j,
                                 "%.17g" % lam.eigenvalues[i, j],
                                 "%.17g" % omega.eigenvalues[i, j]])
