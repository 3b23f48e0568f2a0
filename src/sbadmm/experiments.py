"""Problem generation, reference solutions and the convergence benchmark.

The benchmark restores a blurred noisy phantom with a quadratic roughness
penalty (alpha = 2^-4 by default) and masked finite differences, sweeping a
grid of (rho, eta) penalty pairs with 3-iteration circulant-preconditioned
CG inner solves, and records cost / RMSD traces as CSV.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .algorithms import OuterConfig, ProblemOps, ProblemSpec, run
from .grids import (ConvolutionKernel, ImageGrid, read_matrix_text, read_pgm,
                    write_csv, write_pgm)
from .inner import InnerSolveConfig
from .operators import blur, blur_transfer
from .prox import Potential

DEFAULT_ALPHA = 2.0 ** -4
LONG_RUN_ITERATIONS = 2000
REFERENCE_TOLERANCE = 1e-10  # normal-equation residual relative to |A'y|
SUMMARY_TOLERANCE = 1e-6  # the summary's iterations-to column

# (value, semi-axis a, semi-axis b, center x, center y, angle degrees)
# in [-1, 1] coordinates; a modified Shepp-Logan-style intensity set.
_ELLIPSES = [
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
]


def _box(coords, centre, radius):
    """Slice of the sorted coords within radius of centre, one more each side."""
    lo = np.searchsorted(coords, centre - radius) - 1
    hi = np.searchsorted(coords, centre + radius, side="right") + 1
    return slice(max(lo, 0), hi)


def phantom(height: int = 64, width: int = 64) -> ImageGrid:
    """Built-in piecewise-constant ellipse phantom scaled to 0..100.

    Each ellipse lies within max(a, b) of its centre, so it is evaluated on
    that bounding box only; outside it would add zeros.
    """
    ys = np.linspace(-1.0, 1.0, height)
    xs = np.linspace(-1.0, 1.0, width)
    img = np.zeros((height, width))
    for value, a, b, x0, y0, phi in _ELLIPSES:
        rows, cols = _box(ys, y0, max(a, b)), _box(xs, x0, max(a, b))
        yb, xb = ys[rows, None], xs[None, cols]
        t = math.radians(phi)
        xr = (xb - x0) * math.cos(t) + (yb - y0) * math.sin(t)
        yr = -(xb - x0) * math.sin(t) + (yb - y0) * math.cos(t)
        img[rows, cols] += value * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    return ImageGrid(100.0 * img)


def gaussian_kernel(size: int = 7, sigma: float = 2.0) -> ConvolutionKernel:
    """Normalized truncated Gaussian PSF with a centered anchor.  A sigma
    so large that sigma^2 overflows, or so small that an exponent -k^2 /
    (2 sigma^2) overflows or is 0/0, is rejected, as its taps are not
    finite numbers."""
    if size < 1 or size % 2 == 0:
        raise ValueError("size must be a positive odd number")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("sigma must be positive and finite")
    k = np.arange(size) - size // 2
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            g = np.exp(-k ** 2 / (2.0 * sigma ** 2))
    except (OverflowError, FloatingPointError):
        raise ValueError("sigma must be positive and finite, with finite "
                         "PSF taps (got %g)" % sigma) from None
    taps = np.outer(g, g)
    taps /= taps.sum()
    return ConvolutionKernel(taps, (size // 2, size // 2))


def default_parameter_grid(alpha):
    """The five benchmark settings: optimum, over- and under-estimated eta."""
    return [(1.0, alpha), (1.0, 20.0 * alpha), (20.0, 20.0 * alpha),
            (1.0, alpha / 20.0), (1.0 / 20.0, alpha / 20.0)]


@dataclass
class ExperimentConfig:
    image_source: str = "phantom"
    height: int = 64
    width: int = 64
    psf_size: int = 7
    psf_sigma: float = 2.0
    noise_std: float = None      # None: 1% of the image dynamic range
    noise_seed: int = 0
    alpha: float = DEFAULT_ALPHA
    potential_kind: str = "quadratic"
    potential_threshold: float = None
    parameter_grid: list = None  # None: default_parameter_grid(alpha)
    mask_mode: str = "masked"
    inner: InnerSolveConfig = field(
        default_factory=lambda: InnerSolveConfig(mode="pcg", pcg_iterations=3))
    max_iterations: int = 1000
    output_dir: str = "."

    def __post_init__(self):
        for key in ("height", "width"):
            if getattr(self, key) < 1:
                raise ValueError("%s must be at least 1 (got %d)"
                                 % (key, getattr(self, key)))
        if self.noise_seed < 0:
            raise ValueError("noise_seed must be nonnegative (got %d)"
                             % self.noise_seed)
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if self.noise_std is not None and not 0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be nonnegative and finite")
        if self.parameter_grid is None:
            self.parameter_grid = default_parameter_grid(self.alpha)
        if not self.parameter_grid:
            raise ValueError("parameter grid must be nonempty")
        for rho, eta in self.parameter_grid:
            if not (0 < rho < math.inf and 0 < eta < math.inf):
                raise ValueError("grid entry %g,%g: rho and eta must be "
                                 "positive and finite" % (rho, eta))


def load_truth(config: ExperimentConfig) -> ImageGrid:
    if config.image_source == "phantom":
        return phantom(config.height, config.width)
    path = config.image_source
    if not os.path.exists(path):
        raise ValueError("image file not found: %s" % path)
    if path.endswith(".pgm"):
        return read_pgm(path)
    return read_matrix_text(path)


def make_problem(config: ExperimentConfig):
    """Build (problem, truth): y = A truth + Gaussian noise, seeded."""
    truth = load_truth(config)
    kernel = gaussian_kernel(config.psf_size, config.psf_sigma)
    blurred = blur(blur_transfer(kernel, truth.shape), truth.values)
    std = config.noise_std
    if std is None:
        std = 0.01 * (truth.values.max() - truth.values.min())
    rng = np.random.default_rng(config.noise_seed)
    y = blurred + std * rng.standard_normal(truth.shape)
    # the quadratic and l1 potentials ignore the threshold
    potential = Potential(config.potential_kind, config.alpha,
                          config.potential_threshold)
    problem = ProblemSpec(y=ImageGrid(y), kernel=kernel,
                          mask_mode=config.mask_mode, potential=potential)
    return problem, truth


def reference_solution(problem: ProblemSpec) -> ImageGrid:
    """Converged reference reconstruction.

    Quadratic potential: the exact solve of the normal equations
    (A'A + alpha C'C) x = A'y, at any grid size, with its residual checked
    on the composed operators; zero data gives zero.  Other potentials take
    long_run_reference.
    """
    if problem.potential.kind != "quadratic":
        return long_run_reference(problem)
    ops = ProblemOps(problem)
    alpha = problem.potential.alpha
    rhs = ops.At(ops.y)
    x = ops.solve(rhs, 1.0, alpha)
    res = np.linalg.norm(ops.At(ops.A(x)) + alpha * ops.Ct(ops.C(x)) - rhs)
    bound = REFERENCE_TOLERANCE * np.linalg.norm(rhs)
    # a NaN fails this test; zero data gives rhs = 0, x = 0 and passes it
    if not res <= bound:
        raise RuntimeError("normal-equation residual %g exceeds %g" % (res, bound))
    return ImageGrid(x)


def long_run_reference(problem: ProblemSpec) -> ImageGrid:
    """A long run of the (rho, eta) = (1, alpha) configuration with exact
    x-updates; no optimality check."""
    alpha = problem.potential.alpha
    config = OuterConfig(rho=1.0, eta=alpha, max_iterations=LONG_RUN_ITERATIONS,
                         inner=InnerSolveConfig(), algorithm="admm2")
    return run(problem, config).final_image


def benchmark_protocol(config: ExperimentConfig):
    """Run the benchmark parameter grid, write its traces, images and
    summary to config.output_dir, and return {(rho, eta): MetricTrace}.

    Per-run failures are recorded (value None) and the sweep continues.
    """
    problem, truth = make_problem(config)
    reference = reference_solution(problem)
    traces = {}
    failures = {}
    for rho, eta in config.parameter_grid:
        outer = OuterConfig(rho=rho, eta=eta,
                            max_iterations=config.max_iterations,
                            inner=config.inner, algorithm="admm2")
        try:
            traces[(rho, eta)] = run(problem, outer, reference=reference)
        except RuntimeError as exc:
            traces[(rho, eta)] = None
            failures[(rho, eta)] = str(exc)
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    write_pgm(truth, os.path.join(outdir, "truth.pgm"))
    write_pgm(problem.y, os.path.join(outdir, "data.pgm"))
    write_pgm(reference, os.path.join(outdir, "reference.pgm"))
    for (rho, eta), trace in traces.items():
        stem = "rho%g_eta%g" % (rho, eta)
        if trace is None:
            continue
        trace.to_csv(os.path.join(outdir, "trace_%s.csv" % stem))
        write_pgm(trace.final_image, os.path.join(outdir, "final_%s.pgm" % stem))
    _write_summary(os.path.join(outdir, "summary.csv"), traces, failures)
    return traces, reference


def _write_summary(path, traces, failures):
    write_csv(path, ["rho", "eta", "status", "final_rel_cost_err",
                     "iters_to_%g" % SUMMARY_TOLERANCE],
              ((rho, eta, "failed: " + failures[(rho, eta)], "", "")
               if trace is None else
               (rho, eta, "ok", trace.rel_cost_err[-1],
                trace.iterations_to(SUMMARY_TOLERANCE))
               for (rho, eta), trace in traces.items()))
