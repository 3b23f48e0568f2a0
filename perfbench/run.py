"""Benchmark of the sbadmm restoration library, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload periodic256 --seed 0 --seconds 10 --trace 0

It builds the workload's inputs from the seed, times the library from
``src/`` in this process on one thread, checks every output against a
certificate computed with sparse matrices, prints a report, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics and writes the spans to .perfbench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# One thread everywhere: BLAS pools must be pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
EXIT_FAILED = 3


def _import_library():
    """Import sbadmm from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import sbadmm
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import sbadmm from %s: %s"
                         % (ROOT / "src", exc)) from None
    if Path(sbadmm.__file__).resolve().parent != ROOT / "src" / "sbadmm":
        raise SystemExit("perfbench: sbadmm came from %s, not this checkout"
                         % sbadmm.__file__)


def _cache_sizes():
    """Data/unified cache sizes by level, as the kernel reports them."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes["L" + level] = size
    return sizes


def machine_facts(wl):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    n = wl.size * wl.size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "caches": _cache_sizes(),
        "working_set": "%dx%d: %d KiB real, %d KiB complex per array"
                       % (wl.size, wl.size, 8 * n // 1024, 16 * n // 1024),
    }


def _report(wl, args, facts, result, units):
    lines = ["perfbench %s seed=%d trace=%d" % (wl.name, args.seed, args.trace),
             "machine: " + ", ".join("%s=%s" % kv for kv in facts.items())]
    lines += ["notes: " + ", ".join("%s=%s" % kv for kv in result.notes.items())]
    lines += ["iters_to_tol %s: %s" % (label, "n/a" if k is None else k)
              for label, k in result.iters]
    if wl.pair_7d:
        a, b = (result.iters[i][1] for i in wl.pair_7d)
        if a is not None and b is not None:
            lines.append("criterion-7d pair, reported as counts and not a gate: "
                         "%d vs %d iterations, gap %.1f%%"
                         % (a, b, 100.0 * abs(b - a) / max(a, b)))
    lines += ["FAILED " + f for f in result.failures]
    lines.append("fail_frac = %.4g (%d of %d runs)" % (
        result.failed / result.attempted, result.failed, result.attempted))
    lines += ["%s = %.6g %s" % (name, result.metrics[name], unit)
              for name, unit in units.items()]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]()
    outdir = OUT / wl.name
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = harness.measure_layers(wl, args.seed, str(outdir))
            units = harness.PER_LAYER
        else:
            result = harness.measure_end_to_end(wl, args.seed, args.seconds,
                                                str(outdir))
            units = harness.END_TO_END
    except harness.BenchmarkError as exc:
        print("perfbench: %s: %s" % (wl.name, exc), file=sys.stderr)
        return EXIT_FAILED
    facts = machine_facts(wl)
    stem = "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace)
    if result.spans:
        (outdir / (stem + "-spans.json")).write_text(json.dumps(result.spans))
    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (outdir / (stem + ".json")).write_text(json.dumps(
        dict(summary, machine=facts, notes=result.notes,
             failures=result.failures, iters_to_tol=result.iters), indent=1))
    print("\n".join(_report(wl, args, facts, result, units)))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
