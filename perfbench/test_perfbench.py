"""Tests of the benchmark itself, on small grids.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from sbadmm.grids import ImageGrid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(name, **settings):
    wl = workloads.WORKLOADS[name](size=32)
    if settings:
        wl.settings = tuple(settings.values())
    return wl


def test_names_and_units_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


def test_measurements_report_exactly_the_declared_metrics(tmp_path):
    wl = _small("periodic256")
    e2e = harness.measure_end_to_end(wl, 0, 0.0, str(tmp_path))
    assert list(e2e.metrics) == list(harness.END_TO_END)
    assert (e2e.attempted, e2e.failed) == (2, 0)
    assert all(v > 0 for v in e2e.metrics.values())
    layers = harness.measure_layers(wl, 0, str(tmp_path))
    assert list(layers.metrics) == list(harness.PER_LAYER)
    assert layers.failed == 0
    assert {s["name"] for s in layers.spans} >= {"algorithms.run", "layers",
                                                 "operators.A_us"}


def test_perturbed_reference_fails_the_certificate(tmp_path):
    wl = _small("periodic256")
    p = wl.run_pass(0, harness.Recorder(wl.name), str(tmp_path))
    assert all(err is None for _, err in harness.check_passes(wl, [p])[0])
    p.reference = ImageGrid(p.reference.values * (1.0 + 1e-6))
    checks = harness.check_passes(wl, [p])[0]
    assert all(k is None and "reference residual" in err for k, err in checks)


def test_truncated_run_fails_the_tolerance_check(tmp_path):
    full = _small("periodic256").settings[0]
    wl = _small("periodic256", s=workloads.Setting(
        full.algorithm, full.rho, full.eta, 20))
    p = wl.run_pass(0, harness.Recorder(wl.name), str(tmp_path))
    [(k, err)] = harness.check_passes(wl, [p])[0]
    assert k is None and "after 20 iterations" in err


def test_truncated_huber_run_fails_the_gradient_check(tmp_path):
    wl = _small("huber256", s=workloads.Setting("admm2", 1.0, workloads.ALPHA, 5))
    p = wl.run_pass(0, harness.Recorder(wl.name), str(tmp_path))
    [(k, err)] = harness.check_passes(wl, [p])[0]
    assert k is None and "gradient residual" in err


@pytest.mark.parametrize("name", ["periodic256", "huber256"])
def test_same_seed_gives_identical_iters_to_tol(name, tmp_path):
    counts = []
    for _ in range(2):
        wl = _small(name)
        p = wl.run_pass(3, harness.Recorder(wl.name), str(tmp_path))
        counts.append([k for k, _ in harness.check_passes(wl, [p])[0]])
    assert counts[0] == counts[1]
    assert None not in counts[0]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "periodic256",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
