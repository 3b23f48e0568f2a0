"""The benchmark's workloads.

A workload builds its problem from the seed, runs one *pass* of timed
library calls (set-up, then its outer runs) through a Recorder, and says
how each run is checked.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from sbadmm import algorithms, experiments
from sbadmm.grids import ImageGrid
from sbadmm.inner import InnerSolveConfig, circulant_solve_array

from certify import cost_tol_error
from harness import PCG3, spans_around, step_fn

ALPHA = experiments.DEFAULT_ALPHA
EXACT = InnerSolveConfig(mode="circulant_exact")
# Library errors a run or a set-up may raise on bad numerics; they are
# counted as failed runs instead of aborting the workload.
RUN_ERRORS = (RuntimeError, ValueError)


@dataclass(frozen=True)
class Setting:
    algorithm: str
    rho: float
    eta: float
    iterations: int

    def label(self):
        return "%s(rho=%g, eta=%g)" % (self.algorithm, self.rho, self.eta)


@dataclass
class Run:
    setting: Setting
    trace: algorithms.MetricTrace = None
    error: str = None


@dataclass
class Pass:
    problem: algorithms.ProblemSpec
    reference: ImageGrid
    runs: list


class Workload:
    """A problem, the settings run on it and how the runs are checked."""

    name = ""
    size = 0
    settings = ()
    inner = PCG3
    mask_mode = "masked"
    potential = "quadratic"
    # Indices into settings of the criterion-7d pair, (1, 20a) and (20, 20a).
    pair_7d = None

    def __init__(self, size=None):
        if size is not None:
            self.size = size

    @property
    def primary(self):
        """The setting whose arrays the per-layer micro-benchmarks use."""
        return self.settings[0]

    def config(self, seed, outdir="."):
        return experiments.ExperimentConfig(
            height=self.size, width=self.size, noise_seed=seed,
            mask_mode=self.mask_mode, inner=self.inner,
            potential_kind=self.potential,
            potential_threshold=1.0 if self.potential == "huber" else None,
            output_dir=outdir)

    def setup(self, seed, rec):
        """make_problem plus the workload's reference solve."""
        with rec.span("experiments.make_problem"):
            problem, _ = experiments.make_problem(self.config(seed))
        with rec.span("reference"):
            reference = self.reference(problem)
        return problem, reference

    def reference(self, problem):
        raise NotImplementedError

    def run_pass(self, seed, rec, outdir):
        problem, reference = self.setup(seed, rec)
        runs = []
        for s in self.settings:
            outer = algorithms.OuterConfig(
                rho=s.rho, eta=s.eta, max_iterations=s.iterations,
                inner=self.inner, algorithm=s.algorithm)
            try:
                with rec.span("algorithms.run"):
                    trace = algorithms.run(problem, outer, reference=reference)
                runs.append(Run(s, trace))
            except RUN_ERRORS as exc:
                runs.append(Run(s, error="%s: %s" % (type(exc).__name__, exc)))
        return Pass(problem, reference, runs)

    def iters_to_tol(self, p, run, cert):
        """(iterations to the workload's tolerance, None) or (None, error)."""
        return cost_tol_error(cert, run.trace, p.reference.values)


class Sweep64(Workload):
    """The default protocol, exactly as ``sbadmm benchmark`` runs it."""

    name = "sweep64"
    size = 64
    settings = tuple(Setting("admm2", rho, eta,
                             experiments.ExperimentConfig.max_iterations)
                     for rho, eta in experiments.default_parameter_grid(ALPHA))
    pair_7d = (1, 2)

    @property
    def primary(self):
        return self.settings[1]

    def config(self, seed, outdir="."):
        # The CLI defaults: only the seed and output directory are set.
        return experiments.ExperimentConfig(
            height=self.size, width=self.size, noise_seed=seed,
            output_dir=outdir)

    def setup(self, seed, rec):
        with rec.span("experiments.make_problem"):
            problem, _ = experiments.make_problem(self.config(seed))
        with rec.span("reference"):
            reference = experiments.reference_solution(problem)
        return problem, reference

    def run_pass(self, seed, rec, outdir):
        config = self.config(seed, os.path.join(outdir, self.name))
        problems = []
        # The protocol's own calls are timed at their public names, so its
        # set-up and outer runs are measured from inside the one call.
        with spans_around(rec, experiments, "make_problem",
                          "experiments.make_problem", results=problems), \
                spans_around(rec, experiments, "reference_solution", "reference"), \
                spans_around(rec, experiments, "run", "algorithms.run"), \
                spans_around(rec, experiments, "write_pgm", "grids.write_pgm",
                             detail=True), \
                spans_around(rec, algorithms.MetricTrace, "to_csv",
                             "algorithms.trace_csv", detail=True), \
                rec.span("experiments.benchmark_protocol"):
            traces, reference = experiments.benchmark_protocol(config)
        runs = []
        for s in self.settings:
            trace = traces[(s.rho, s.eta)]
            runs.append(Run(s, trace, None if trace is not None
                            else "run raised inside the protocol"))
        return Pass(problems[0][0], reference, runs)


class Periodic256(Workload):
    """Criterion-7d pair with periodic C and exact circulant inner solves."""

    name = "periodic256"
    size = 256
    inner = EXACT
    mask_mode = "periodic"
    settings = (Setting("sb", 1.0, 20 * ALPHA, 110),
                Setting("admm2", 20.0, 20 * ALPHA, 230))
    pair_7d = (0, 1)

    @property
    def primary(self):
        return self.settings[1]

    def reference(self, problem):
        ops = algorithms.ProblemOps(problem)
        return ImageGrid(circulant_solve_array(ops.lam, ops.om, 1.0, ALPHA,
                                               ops.At(ops.y)))


class Masked512(Workload):
    """Masked C with PCG-3 at a size whose arrays spill the L2 cache."""

    name = "masked512"
    size = 512
    settings = (Setting("admm2", 1.0, 20 * ALPHA, 90),)
    reference_iterations = 12

    def reference(self, problem):
        # At (1, alpha) the exact x-update is the optimum, so the warm-started
        # PCG-3 steps of a short run converge to it.
        outer = algorithms.OuterConfig(
            rho=1.0, eta=ALPHA, max_iterations=self.reference_iterations,
            inner=self.inner, algorithm="admm2")
        return algorithms.run(problem, outer).final_image


class Huber256(Workload):
    """Huber potential: the only workload where the prox costs time."""

    name = "huber256"
    size = 256
    inner = EXACT
    mask_mode = "periodic"
    potential = "huber"
    settings = (Setting("admm2", 1.0, ALPHA, 300),)
    # Relative gradient residual that defines iters_to_tol here; there is no
    # certified reference cost for a non-quadratic potential.
    grad_tol = 1e-4

    def __init__(self, size=None):
        super().__init__(size)
        self._verified = {}

    def setup(self, seed, rec):
        with rec.span("experiments.make_problem"):
            problem, _ = experiments.make_problem(self.config(seed))
        return problem, None

    def iters_to_tol(self, p, run, cert):
        """First iteration whose sparse gradient residual is <= grad_tol.

        The iterates are replayed with the run's own step function, since
        the trace keeps only costs; the replay must reproduce the run's cost
        at that iteration.
        """
        trace = run.trace
        if not np.all(np.isfinite(trace.cost)):
            return None, "non-finite cost in the trace"
        final = cert.rel_residual(trace.final_image.values)
        if not final <= self.grad_tol:
            return None, ("gradient residual %.3g > %g after %d iterations"
                          % (final, self.grad_tol, trace.iterations[-1]))
        key = run.setting
        if key not in self._verified:
            self._verified[key] = self._replay(p.problem, run.setting, cert)
        k, cost = self._verified[key]
        if k is None:
            return None, "replay never reached the gradient tolerance"
        if abs(trace.cost[k] - cost) > 1e-12 * abs(cost):
            return None, ("replayed cost %.17g differs from the run's %.17g at "
                          "iteration %d" % (cost, trace.cost[k], k))
        return k, None

    def _replay(self, problem, s, cert):
        ops = algorithms.ProblemOps(problem)
        step = step_fn(s, ops, self.inner)
        state = algorithms.canonical_init(ops, s.rho, s.eta)
        for _ in range(s.iterations):
            state = step(state)
            if cert.rel_residual(state.x) <= self.grad_tol:
                return state.k, ops.cost(state.x)
        return None, None


WORKLOADS = {w.name: w for w in (Sweep64, Periodic256, Masked512, Huber256)}
