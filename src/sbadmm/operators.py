"""Linear operators of the restoration problem and their circulant spectra.

Blur A is a small periodic convolution stencil, the analysis operator C
stacks first-order finite differences in the horizontal and vertical
directions (periodic or masked), and the Gram operators A'A and C'C of the
periodic stencils are diagonalized by the 2D DFT.  Masked C breaks the
exact circulant structure of C'C; its spectrum is that of the periodic
stencil, and ``algorithms.ProblemOps`` corrects for the difference.

The operators act on plain arrays: images are (h, w), difference fields are
(2, h, w), and spectra are (h, w) float arrays.  A and A' use the real FFT:
``rfft2`` keeps the frequency columns 0..w//2, which hold every eigenvalue
of a real stencil by conjugate symmetry.  ``rfft2`` and ``irfft2`` here are
numpy's passes with the column pass done in place, so each transform
writes one array.  ``algorithms.ProblemOps`` builds the blur transfer once
per problem and passes it in.

Work that would need a whole array of scratch sweeps its arrays in row
blocks (``row_blocks``) instead, so that scratch stays under BLOCK_BYTES.

No spectrum takes a 2-D FFT: that of A'A is |transfer|^2, mirrored from the
half spectrum to the full grid, and that of C'C has the closed form
4 sin^2(pi k / h) + 4 sin^2(pi l / w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ConvolutionKernel, write_csv

EIGENVALUE_TOLERANCE = 1e-12
# The wrap-around entries of a (2, h, w) difference field, off masked C: the
# last column of the horizontal plane and the last row of the vertical one.
WRAPS = ((0, slice(None), -1), (1, -1, slice(None)))
# The bytes of one row block: the scratch of a blocked sweep, which stays in
# the L2 cache beside the blocks of the arrays it reads.
BLOCK_BYTES = 128 * 1024


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
    """Place the stencil on a full grid so rfft2 gives the circulant transfer."""
    _check_fits(kernel, shape)
    h, w = shape
    z = np.zeros(shape)
    for oi, oj, t in _offsets(kernel):
        z[oi % h, oj % w] += t
    return z


def half_spectrum(a):
    """The frequency columns 0..w//2 of a per-frequency array, the ones
    rfft2 keeps, as a contiguous copy."""
    return a[:, :a.shape[1] // 2 + 1].copy()


def row_blocks(rows, row_bytes):
    """Slices covering range(rows) in blocks of at most BLOCK_BYTES of rows
    that are row_bytes long, one row at least."""
    step = max(1, BLOCK_BYTES // max(row_bytes, 1))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def rfft2(x, out=None):
    """numpy's rfft2 of x, bit for bit: the same passes in the same order,
    the column pass written over the row pass's output, which is out if it
    is given."""
    f = np.fft.rfft(x, axis=1, out=out)
    return np.fft.fft(f, axis=0, out=f)


def irfft2(f, shape, out=None):
    """numpy's irfft2 of f to the real shape, bit for bit, into out if it is
    given.  Overwrites f: its column pass is done in place, so pass only a
    spectrum the caller owns."""
    np.fft.ifft(f, axis=0, out=f)
    return np.fft.irfft(f, n=shape[1], axis=1, out=out)


def blur_transfer(kernel, shape):
    """Half-spectrum rfft2 of the embedded stencil: the eigenvalues of A at
    the frequency columns 0..w//2."""
    return rfft2(embed_kernel(kernel, shape))


def blur(transfer, x):
    """Apply A through its real-FFT transfer, or A' through its conjugate."""
    f = rfft2(x)
    f *= transfer
    return irfft2(f, x.shape)


def diff_mask(shape, mask_mode):
    """Validity mask of the stacked difference planes (horizontal, vertical).

    Masked mode marks invalid the differences that would wrap across the
    grid edge; periodic mode keeps them all.
    """
    if mask_mode not in ("periodic", "masked"):
        raise ValueError("mask_mode must be 'periodic' or 'masked'")
    h, w = shape
    mask = np.ones((2, h, w), dtype=bool)
    if mask_mode == "masked":
        for ix in WRAPS:
            mask[ix] = False
    return mask


def difference(x, mask_mode, out=None):
    """Apply C: horizontal and vertical forward differences, into out if it
    is given; masked mode zeroes the differences that would wrap.

    The vertical plane is written by row slices.  The horizontal one is
    one subtraction along the flattened image, which is right except at
    the row ends, then the last column is written over.  out must be
    C-contiguous.
    """
    g = np.empty((2,) + x.shape) if out is None else out
    flat, horizontal = x.ravel(), g[0]
    np.subtract(flat[1:], flat[:-1], out=horizontal.ravel()[:-1])
    np.subtract(x[1:], x[:-1], out=g[1, :-1])
    if mask_mode == "periodic":
        np.subtract(x[:, 0], x[:, -1], out=horizontal[:, -1])
        np.subtract(x[0], x[-1], out=g[1, -1])
    else:
        for ix in WRAPS:
            g[ix] = 0.0
    return g


def difference_transpose(g, mask_mode, out=None):
    """Apply C', into out if it is given, which must be C-contiguous; in
    masked mode entries of g off the mask are ignored.

    The horizontal term is one subtraction along the flattened plane, then
    its first and, in masked mode, last column are written over; the
    vertical one is written by row slices into a block of scratch rows and
    added block by block.  Columns are negated by a multiply: numpy's
    np.negative misreads some strided views.
    """
    if out is None:
        out = np.empty(g.shape[1:])
    gh, gv = g
    h, w = out.shape
    flat = gh.ravel()
    np.subtract(flat[:-1], flat[1:], out=out.ravel()[1:])
    if mask_mode == "periodic":
        np.subtract(gh[:, -1], gh[:, 0], out=out[:, 0])
    else:
        np.multiply(gh[:, 0], -1.0, out=out[:, 0])
        out[:, -1] = gh[:, -2] if w > 1 else 0.0
    blocks = row_blocks(h, out[0].nbytes)
    scratch = np.empty((blocks[0].stop, w))
    for rows in blocks:
        # row i of the vertical term is gv[i - 1] - gv[i]; masked, row 0
        # lacks the first and row h - 1 the second
        start, stop = rows.start, rows.stop
        vertical = scratch[:stop - start]
        first = max(start, 1)
        if mask_mode == "periodic":
            np.subtract(gv[first - 1:stop - 1], gv[first:stop],
                        out=vertical[first - start:])
            if start == 0:
                np.subtract(gv[-1], gv[0], out=vertical[0])
        else:
            vertical[first - start:] = gv[first - 1:stop - 1]
            if start == 0:
                vertical[0] = 0.0
            last = min(stop, h - 1)
            if last > start:
                vertical[:last - start] -= gv[start:last]
        out[rows] += vertical
    return out


def transfer_gram_spectrum(transfer, w):
    """Per-frequency eigenvalues |transfer|^2 of A'A on the full (h, w)
    grid, from the half-spectrum transfer of a real stencil: its spectrum is
    conjugate symmetric, so column l > w//2 is column w - l at rows
    -k mod h."""
    half = np.abs(transfer) ** 2
    mirrored = half[-np.arange(half.shape[0]) % half.shape[0]]
    return np.concatenate((half, mirrored[:, (w - 1) // 2:0:-1]), axis=1)


def gram_spectrum(kernel: ConvolutionKernel, shape) -> np.ndarray:
    """Per-frequency eigenvalues |fft2|^2 of A'A."""
    return transfer_gram_spectrum(blur_transfer(kernel, shape), shape[1])


def _diff_spectrum_1d(n):
    """4 sin^2(pi k / n), |1 - exp(-2 pi i k / n)|^2, for k = 0..n-1."""
    return 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2


def diff_gram_spectrum(shape) -> np.ndarray:
    """Per-frequency eigenvalues of C'C for the periodic difference stencils,
    4 sin^2(pi k / h) + 4 sin^2(pi l / w): |1 - exp(-2 pi i k / h)|^2 of the
    vertical difference plus that of the horizontal one.

    Used as-is for periodic C and as the circulant surrogate for masked C.
    """
    h, w = shape
    return np.add.outer(_diff_spectrum_1d(h), _diff_spectrum_1d(w))


def diff_gram_half_spectrum(shape) -> np.ndarray:
    """The columns 0..w//2 of diff_gram_spectrum, built without the rest."""
    h, w = shape
    return np.add.outer(_diff_spectrum_1d(h),
                        _diff_spectrum_1d(w)[:w // 2 + 1])


def split_operator_rank_check(lam, omega) -> RankCheck:
    """Check whether the stacked split operator S = [A; C] has full column
    rank, via the minimum of the spectrum of S'S = A'A + C'C."""
    if lam.shape != omega.shape:
        raise ValueError("spectra live on different grids")
    mn = float((lam + omega).min())
    return RankCheck(full_rank=mn > EIGENVALUE_TOLERANCE,
                     min_combined_eigenvalue=mn)


def sparse_blur_matrix(kernel: ConvolutionKernel, shape):
    """Materialize the blur A as a sparse (h*w) x (h*w) matrix, built from
    indices: a reference for the tests and perfbench's certificate.  Needs
    the ``test`` extra's scipy."""
    import scipy.sparse

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
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def sparse_diff_matrix(shape, mask_mode):
    """Materialize C as a sparse (2*h*w) x (h*w) matrix (stacked h, v).

    Masked-out rows are kept as zero rows so row indexing matches the
    flattened (2, h, w) difference layout.  Built from indices, like
    ``sparse_blur_matrix``, as a reference; needs the ``test`` extra.
    """
    import scipy.sparse

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
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * n, n))


def write_spectra_csv(lam, omega, path):
    """Dump both Gram spectra as (freq_row, freq_col, lambda, omega) rows."""
    if lam.shape != omega.shape:
        raise ValueError("spectra live on different grids")
    write_csv(path, ["freq_row", "freq_col", "lambda", "omega"],
              ((i, j, lam[i, j], omega[i, j])
               for i, j in np.ndindex(lam.shape)))
