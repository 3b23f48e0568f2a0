"""Image-domain containers and the plain file formats used by the tools."""

from __future__ import annotations

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
    """Small convolution stencil with an explicit anchor index.

    ``boundary`` selects periodic (circular) application or masked-valid
    application, where outputs whose footprint crosses the grid boundary are
    zeroed out.
    """

    taps: np.ndarray
    anchor: tuple = (0, 0)
    boundary: str = "periodic"

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
        if self.boundary not in ("periodic", "masked"):
            raise ValueError("boundary must be 'periodic' or 'masked'")
        object.__setattr__(self, "taps", t)
        object.__setattr__(self, "anchor", (int(ai), int(aj)))

    @classmethod
    def identity(cls):
        return cls(np.ones((1, 1)), (0, 0), "periodic")


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


def read_pgm(path) -> ImageGrid:
    """Read a binary PGM (P5, 8-bit) into an ImageGrid of 0..255 floats."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P5"):
        raise ValueError("%s: not a binary PGM (P5) file" % path)
    # Header: magic, width, height, maxval; '#' comments allowed between tokens.
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            pos = raw.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        tokens.append(int(raw[start:pos]))
    pos += 1
    width, height, maxval = tokens
    if maxval > 255:
        raise ValueError("%s: only 8-bit PGM is supported" % path)
    data = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=pos)
    return ImageGrid(data.reshape(height, width).astype(float))


def write_matrix_text(grid: ImageGrid, path):
    """Write a plain-text matrix, one row per line, exact round-trip."""
    np.savetxt(path, grid.values, fmt="%.17g")


def read_matrix_text(path) -> ImageGrid:
    return ImageGrid(np.atleast_2d(np.loadtxt(path)))
