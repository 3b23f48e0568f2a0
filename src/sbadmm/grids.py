"""Image-domain containers and the plain file formats used by the tools."""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ImageGrid:
    """2D real-valued pixel array, row-major, arbitrary intensity units."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[np.newaxis, :]
        if v.ndim != 2 or v.size == 0:
            raise ValueError("image must be a non-empty 2D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("image contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class ConvolutionKernel:
    """Small convolution stencil with an explicit anchor index, applied
    periodically (circularly)."""

    taps: np.ndarray
    anchor: tuple = (0, 0)

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=float)
        if t.ndim == 1:
            t = t[np.newaxis, :]
        if t.ndim != 2 or t.size == 0:
            raise ValueError("taps must form a non-empty 2D stencil")
        if not np.any(t):
            raise ValueError("kernel must contain at least one nonzero tap")
        ai, aj = self.anchor
        if not (0 <= ai < t.shape[0] and 0 <= aj < t.shape[1]):
            raise ValueError("anchor must index into the taps array")
        object.__setattr__(self, "taps", t)
        object.__setattr__(self, "anchor", (int(ai), int(aj)))


def write_pgm(grid: ImageGrid, path):
    """Write an 8-bit binary PGM (P5), rescaling intensities to 0..255."""
    v = grid.values
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        scaled = np.round((v - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(v)
    data = scaled.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (grid.width, grid.height))
        f.write(data.tobytes())


_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_pgm(path) -> ImageGrid:
    """Read a binary PGM (P5, 8-bit) into an ImageGrid of 0..255 floats."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P5"):
        raise ValueError("%s: not a binary PGM (P5) file" % path)
    # Header: magic, width, height, maxval, each number after whitespace or
    # '#' comments, then one whitespace byte before the pixels.
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ValueError("%s: PGM header is malformed or cut short" % path)
    width, height, maxval = (int(t) for t in header.groups())
    if maxval > 255:
        raise ValueError("%s: only 8-bit PGM is supported" % path)
    pos = header.end()
    if len(raw) - pos < width * height:
        raise ValueError("%s: pixel data cut short: %d of %d bytes"
                         % (path, len(raw) - pos, width * height))
    data = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=pos)
    return ImageGrid(data.reshape(height, width).astype(float))


def read_matrix_text(path) -> ImageGrid:
    return ImageGrid(np.atleast_2d(np.loadtxt(path)))


def write_csv(path, header, rows):
    """Write a header row, then the rows; float cells are written as %.17g
    (an exact round trip), other cells as csv writes them (None as "")."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([("%.17g" % c if isinstance(c, float) else c)
                          for c in row] for row in rows)
