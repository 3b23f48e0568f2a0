"""Spans, the measurement loops and the per-layer micro-benchmarks.

End-to-end metrics come from untraced passes: a Recorder that opens only
the few spans those metrics need.  Per-layer metrics come from a separate
traced pass plus per-call medians of each layer on the workload's own
arrays.  The difference in pass wall time is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from sbadmm import algorithms, grids, inner, operators, rates
from sbadmm.prox import potential_value_array, prox_array

from certify import Certifier, reference_error

END_TO_END = {"wall_s": "s", "setup_s": "s", "iter_ms": "ms", "tts_s": "s",
              "peak_mem_mb": "MiB"}
PER_LAYER = {
    "operators.A_us": "us", "operators.At_us": "us",
    "operators.C_us": "us", "operators.Ct_us": "us",
    "operators.spectra_us": "us",
    "inner.hessian_us": "us", "inner.precond_us": "us",
    "inner.pcg_us": "us", "inner.exact_us": "us",
    "inner.rel_residual": "ratio",
    "prox.prox_us": "us", "prox.value_us": "us",
    "algorithms.step_us": "us", "algorithms.cost_us": "us",
    "algorithms.init_us": "us", "algorithms.ops_init_us": "us",
    "algorithms.iters_to_tol": "count",
    "experiments.make_problem_ms": "ms", "experiments.reference_ms": "ms",
    "grids.write_pgm_us": "us", "algorithms.trace_csv_us": "us",
    "rates.delta_spectrum_us": "us", "rates.predict_us": "us",
    "rates.oracle_ms": "ms",
    "trace.overhead_ms": "ms",
}
SCALE = {"us": 1e6, "ms": 1e3}
# Span names whose durations make up a pass's set-up time.
SETUP_SPANS = ("experiments.make_problem", "reference")
PCG3 = inner.InnerSolveConfig(mode="pcg", pcg_iterations=3)
# Standalone set-up repetitions: at least MIN, then more until SETUP_BUDGET
# seconds have gone, so cheap set-ups still give a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 2, 50, 3.0


class BenchmarkError(RuntimeError):
    """The workload produced nothing a metric can be computed from."""


@dataclass
class Span:
    id: int
    name: str
    parent: int
    workload: str
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self):
        return self.end - self.start


class Recorder:
    """Spans kept in memory.  Untraced, it opens only the spans the
    end-to-end metrics need; ``detail`` spans open only when tracing."""

    def __init__(self, workload, tracing=False):
        self.workload = workload
        self.tracing = tracing
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, detail=False):
        if detail and not self.tracing:
            yield None
            return
        sp = Span(len(self.spans), name,
                  self._open[-1].id if self._open else None, self.workload)
        self.spans.append(sp)
        self._open.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def seconds(self, name):
        """Durations of the spans called name outside any reference solve."""
        return [s.seconds for s in self.spans if s.name == name and
                (s.parent is None or self.spans[s.parent].name != "reference")]

    def setup_seconds(self):
        return sum(sum(self.seconds(n)) for n in SETUP_SPANS)


@contextlib.contextmanager
def spans_around(rec, owner, attr, name, detail=False, results=None):
    """Route ``owner.attr`` through a span while the block runs, so calls
    a library function makes are timed at their public names."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        with rec.span(name, detail):
            out = original(*args, **kwargs)
        if results is not None:
            results.append(out)
        return out

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    failures: list = field(default_factory=list)
    iters: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _timed_pass(wl, seed, rec, outdir):
    start = time.perf_counter()
    p = wl.run_pass(seed, rec, outdir)
    return time.perf_counter() - start, p


def check_passes(wl, passes):
    """Per pass, per run: (iters_to_tol, None) or (None, failure message)."""
    cert = Certifier(passes[0].problem)
    results = []
    for p in passes:
        same = np.array_equal(p.problem.y.values.ravel(), cert.y)
        ref_err = None
        if not same:
            ref_err = "the seed gave different data in two passes"
        elif p.reference is not None:
            ref_err = reference_error(cert, p.reference.values)
        out = []
        for run in p.runs:
            if run.error or ref_err:
                out.append((None, run.error or ref_err))
            else:
                out.append(wl.iters_to_tol(p, run, cert))
        results.append(out)
    return results


def _run_timings(rec, p, checks):
    """(seconds per outer iteration, time to tolerance) of one pass."""
    secs = rec.seconds("algorithms.run")
    if len(secs) != len(p.runs):
        raise BenchmarkError("%d run spans for %d runs" % (len(secs), len(p.runs)))
    done = [(sec, len(run.trace) - 1, k) for sec, run, (k, _)
            in zip(secs, p.runs, checks) if run.trace is not None]
    iterations = sum(n for _, n, _ in done)
    reached = [(sec, n, k) for sec, n, k in done if k is not None]
    if not iterations or not reached:
        raise BenchmarkError("no run reached its tolerance")
    per_iter = sum(sec for sec, _, _ in done) / iterations
    return per_iter, sum(sec / n * k for sec, n, k in reached)


def _tally(passes, checks):
    attempted = sum(len(p.runs) for p in passes)
    failures = ["%s: %s" % (run.setting.label(), err)
                for p, out in zip(passes, checks)
                for run, (_, err) in zip(p.runs, out) if err]
    iters = [(run.setting.label(), k)
             for run, (k, _) in zip(passes[-1].runs, checks[-1])]
    return attempted, failures, iters


def measure_end_to_end(wl, seed, seconds, outdir):
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and time.perf_counter() - start < SETUP_BUDGET):
        rec = Recorder(wl.name)
        wl.setup(seed, rec)
        setups.append(rec.setup_seconds())
    walls, recs, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        rec = Recorder(wl.name)
        wall, p = _timed_pass(wl, seed, rec, outdir)
        walls.append(wall)
        recs.append(rec)
        passes.append(p)
        setups.append(rec.setup_seconds())
        if len(passes) == 1:
            # Peak resident memory of the set-ups and one pass: the
            # interpreter and libraries plus what the timed calls allocated.
            # Later passes would add the results kept from earlier ones, and
            # the checks' sparse matrices come after.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = check_passes(wl, passes)
    timings = [_run_timings(rec, p, c) for rec, p, c in zip(recs, passes, checks)]
    attempted, failures, iters = _tally(passes, checks)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "iter_ms": 1e3 * statistics.median(t[0] for t in timings),
        "tts_s": statistics.median(t[1] for t in timings),
        "peak_mem_mb": peak_mb,
    }
    return Result(metrics, attempted, len(failures), failures, iters,
                  {"pass_wall_s": walls, "setup_samples": len(setups)})


def _median_call(rec, name, fn, min_reps=3, budget=0.2, max_reps=200):
    durations = []
    start = time.perf_counter()
    while len(durations) < min_reps or (
            len(durations) < max_reps and time.perf_counter() - start < budget):
        with rec.span(name) as sp:
            fn()
        durations.append(sp.seconds)
    return statistics.median(durations)


def step_fn(setting, ops, inner_config):
    """The library step a setting's run takes, as a function of the state."""
    if setting.algorithm == "sb":
        return lambda st: algorithms.sb_step(st, ops, setting.eta, inner_config)
    return lambda st: algorithms.admm2_step(st, ops, setting.rho, setting.eta,
                                            inner_config)


def _layer_calls(wl, p, outdir):
    """(metric, call) for each layer, on the primary setting's arrays."""
    problem, s = p.problem, wl.primary
    run = p.runs[wl.settings.index(s)]
    ops = algorithms.ProblemOps(problem)
    potential, alpha = problem.potential, problem.potential.alpha
    x = run.trace.final_image.values
    r = ops.y - ops.A(x)
    g = ops.C(x)
    rhs = ops.At(ops.y)
    step = step_fn(s, ops, wl.inner)
    state = step(algorithms.canonical_init(ops, s.rho, s.eta))

    def hessian(z):
        return s.rho * ops.At(ops.A(z)) + s.eta * ops.Ct(ops.C(z))

    precond = inner.circulant_preconditioner(ops.lam, ops.om, s.rho, s.eta)
    spectrum = rates.delta_spectrum(ops.lam, ops.om, alpha)
    pgm = os.path.join(outdir, wl.name + "-final.pgm")
    csv = os.path.join(outdir, wl.name + "-trace.csv")
    return [
        ("operators.A_us", lambda: ops.A(x)),
        ("operators.At_us", lambda: ops.At(r)),
        ("operators.C_us", lambda: ops.C(x)),
        ("operators.Ct_us", lambda: ops.Ct(g)),
        ("operators.spectra_us", lambda: (
            operators.gram_spectrum(problem.kernel, ops.shape),
            operators.diff_gram_spectrum(ops.shape))),
        ("inner.hessian_us", lambda: hessian(x)),
        ("inner.precond_us", lambda: precond(rhs)),
        ("inner.pcg_us", lambda: inner.pcg_solve(
            hessian, rhs, PCG3, warm_start=x, preconditioner=precond)),
        ("inner.exact_us", lambda: inner.circulant_solve_array(
            ops.lam, ops.om, s.rho, s.eta, rhs)),
        ("prox.prox_us", lambda: prox_array(potential, g, s.eta)),
        ("prox.value_us", lambda: potential_value_array(potential, g)),
        ("algorithms.step_us", lambda: step(state)),
        ("algorithms.cost_us", lambda: ops.cost(x)),
        ("algorithms.init_us", lambda: algorithms.canonical_init(ops, s.rho, s.eta)),
        ("algorithms.ops_init_us", lambda: algorithms.ProblemOps(problem)),
        ("grids.write_pgm_us", lambda: grids.write_pgm(run.trace.final_image, pgm)),
        ("algorithms.trace_csv_us", lambda: run.trace.to_csv(csv)),
        ("rates.delta_spectrum_us", lambda: rates.delta_spectrum(
            ops.lam, ops.om, alpha)),
        ("rates.predict_us", lambda: rates.predict("I", spectrum, rho=1.0,
                                                   eta=s.eta)),
        ("rates.oracle_ms", lambda: rates.dense_transition_oracle(
            problem.kernel, (16, 16), 1.0, s.eta, alpha)),
    ]


def measure_layers(wl, seed, outdir):
    plain_wall, plain = _timed_pass(wl, seed, Recorder(wl.name), outdir)
    rec = Recorder(wl.name, tracing=True)
    traced_wall, p = _timed_pass(wl, seed, rec, outdir)
    if p.runs[wl.settings.index(wl.primary)].trace is None:
        raise BenchmarkError("the primary run failed; no arrays to time layers on")
    metrics = {}
    with rec.span("layers"):
        for name, call in _layer_calls(wl, p, outdir):
            metrics[name] = SCALE[PER_LAYER[name]] * _median_call(rec, name, call)
        with rec.span("layers.setup") as parent:
            for _ in range(3):
                wl.setup(seed, rec)
    for metric, span in (("experiments.make_problem_ms", "experiments.make_problem"),
                         ("experiments.reference_ms", "reference")):
        secs = [sp.seconds for sp in rec.spans
                if sp.name == span and sp.parent == parent.id]
        metrics[metric] = 1e3 * statistics.median(secs) if secs else 0.0
    checks = check_passes(wl, [plain, p])
    attempted, failures, iters = _tally([plain, p], checks)
    reached = [k for _, k in iters if k is not None]
    metrics["algorithms.iters_to_tol"] = sum(reached)
    residuals = [r for run in p.runs if run.trace is not None
                 for r in run.trace.inner_residual[1:]]
    metrics["inner.rel_residual"] = float(np.median(residuals)) if residuals else 0.0
    metrics["trace.overhead_ms"] = 1e3 * (traced_wall - plain_wall)
    spans = [vars(s) for s in rec.spans]
    return Result({k: metrics[k] for k in PER_LAYER}, attempted, len(failures),
                  failures, iters,
                  {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                   "spans": len(spans)}, spans)
