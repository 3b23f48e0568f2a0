"""Problem generation, reference solutions and the convergence benchmark.

The benchmark restores a blurred noisy phantom with a quadratic roughness
penalty (alpha = 2^-4 by default) and masked finite differences, sweeping a
grid of (rho, eta) penalty pairs with 3-iteration circulant-preconditioned
CG inner solves, and records cost / RMSD traces as CSV.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .algorithms import OuterConfig, ProblemOps, ProblemSpec, run
from .grids import ConvolutionKernel, ImageGrid, read_matrix_text, read_pgm, write_pgm
from .inner import InnerSolveConfig
from .operators import blur, blur_transfer
from .prox import Potential

DEFAULT_ALPHA = 2.0 ** -4
LONG_RUN_ITERATIONS = 2000

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


def gaussian_kernel(size: int = 7, sigma: float = 2.0,
                    boundary: str = "periodic") -> ConvolutionKernel:
    """Normalized truncated Gaussian PSF with a centered anchor."""
    if size < 1 or size % 2 == 0:
        raise ValueError("size must be a positive odd number")
    k = np.arange(size) - size // 2
    g = np.exp(-k ** 2 / (2.0 * sigma ** 2))
    taps = np.outer(g, g)
    taps /= taps.sum()
    return ConvolutionKernel(taps, (size // 2, size // 2), boundary)


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
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.parameter_grid is None:
            self.parameter_grid = default_parameter_grid(self.alpha)
        if not self.parameter_grid:
            raise ValueError("parameter grid must be nonempty")


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
    blurred = blur(kernel, blur_transfer(kernel, truth.shape), truth.values)
    std = config.noise_std
    if std is None:
        std = 0.01 * (truth.values.max() - truth.values.min())
    rng = np.random.default_rng(config.noise_seed)
    y = blurred + std * rng.standard_normal(truth.shape)
    if config.potential_kind in ("huber", "fair"):
        potential = Potential(config.potential_kind, config.alpha,
                              config.potential_threshold)
    else:
        potential = Potential(config.potential_kind, config.alpha)
    problem = ProblemSpec(y=ImageGrid(y), kernel=kernel,
                          mask_mode=config.mask_mode, potential=potential)
    return problem, truth


def reference_solution(problem: ProblemSpec,
                       residual_tol: float = 1e-10) -> ImageGrid:
    """Converged reference reconstruction.

    Quadratic potential with a periodic kernel: the exact solve of the
    normal equations (A'A + alpha C'C) x = A'y, at any grid size, with its
    residual checked on the composed operators; zero data gives zero.
    Other problems take long_run_reference.
    """
    if problem.potential.kind != "quadratic" or problem.kernel.boundary != "periodic":
        return long_run_reference(problem)
    ops = ProblemOps(problem)
    alpha = problem.potential.alpha
    rhs = ops.At(ops.y)
    x = ops.solve(rhs, 1.0, alpha)
    res = np.linalg.norm(ops.At(ops.A(x)) + alpha * ops.Ct(ops.C(x)) - rhs)
    bound = residual_tol * np.linalg.norm(rhs)
    # a NaN fails this test; zero data gives rhs = 0, x = 0 and passes it
    if not res <= bound:
        raise RuntimeError("normal-equation residual %g exceeds %g" % (res, bound))
    return ImageGrid(x)


def long_run_reference(problem: ProblemSpec) -> ImageGrid:
    """A long run of the (rho, eta) = (1, alpha) configuration with deep
    inner solves; no optimality check."""
    alpha = problem.potential.alpha
    config = OuterConfig(rho=1.0, eta=alpha, max_iterations=LONG_RUN_ITERATIONS,
                         inner=InnerSolveConfig(mode="pcg", pcg_iterations=50),
                         algorithm="admm2")
    return run(problem, config).final_image


def benchmark_protocol(config: ExperimentConfig, write_artifacts: bool = True):
    """Run the benchmark parameter grid and return {(rho, eta): MetricTrace}.

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
    if write_artifacts:
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


def _write_summary(path, traces, failures, tol=1e-6):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rho", "eta", "status", "final_rel_cost_err",
                         "iters_to_%g" % tol])
        for (rho, eta), trace in traces.items():
            if trace is None:
                writer.writerow(["%.17g" % rho, "%.17g" % eta,
                                 "failed: " + failures[(rho, eta)], "", ""])
                continue
            hit = trace.iterations_to(tol)
            writer.writerow(["%.17g" % rho, "%.17g" % eta, "ok",
                             "%.17g" % trace.rel_cost_err[-1],
                             "" if hit is None else "%d" % hit])


def empirical_rate(errors, discard_fraction: float = 0.5,
                   window_fraction: float = 0.25) -> float:
    """Asymptotic per-iteration error ratio.

    Geometric-mean ratio over the last window of iterations after
    discarding the transient, robust to initial overshoot.
    """
    errors = np.asarray(errors, dtype=float)
    n = errors.size
    if n < 4:
        raise ValueError("need at least 4 error samples")
    start = max(int(n * (1.0 - window_fraction)) - 1, int(n * discard_fraction))
    e0, e1 = errors[start], errors[-1]
    if e0 <= 0 or e1 <= 0:
        raise ValueError("errors must stay positive to estimate a rate")
    return float((e1 / e0) ** (1.0 / (n - 1 - start)))
