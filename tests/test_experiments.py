import os
import warnings

import numpy as np
import pytest

import sbadmm.experiments as ex
from sbadmm.algorithms import OuterConfig, ProblemOps, ProblemSpec, run
from sbadmm.grids import ImageGrid
from sbadmm.inner import InnerSolveConfig
from conftest import random_problem


def small_config(**kw):
    base = dict(height=16, width=16, psf_size=5, psf_sigma=1.0,
                max_iterations=20)
    base.update(kw)
    return ex.ExperimentConfig(**base)


def test_phantom_shape_and_range():
    p = ex.phantom()
    assert p.shape == (64, 64)
    assert p.values.max() == pytest.approx(100.0)
    assert p.values.min() >= -1e-9
    # deterministic content
    assert np.array_equal(p.values, ex.phantom().values)


def test_phantom_boxes_match_full_grid_evaluation():
    # each ellipse on its bounding box only, against every ellipse on the
    # whole grid: identical arithmetic per pixel, so identical bits
    import math
    for h, w in [(64, 64), (37, 40), (40, 37), (1, 4), (4, 1), (1, 1), (2, 3)]:
        ys = np.linspace(-1.0, 1.0, h)[:, None]
        xs = np.linspace(-1.0, 1.0, w)[None, :]
        img = np.zeros((h, w))
        for value, a, b, x0, y0, phi in ex._ELLIPSES:
            t = math.radians(phi)
            xr = (xs - x0) * math.cos(t) + (ys - y0) * math.sin(t)
            yr = -(xs - x0) * math.sin(t) + (ys - y0) * math.cos(t)
            img += value * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
        assert ex.phantom(h, w).values.tobytes() == (100.0 * img).tobytes()


def test_gaussian_kernel_normalized():
    k = ex.gaussian_kernel(7, 2.0)
    assert k.taps.shape == (7, 7)
    assert np.isclose(k.taps.sum(), 1.0)
    assert k.anchor == (3, 3)
    with pytest.raises(ValueError):
        ex.gaussian_kernel(4, 2.0)
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma must be positive and "
                           "finite"):
            ex.gaussian_kernel(3, sigma)


def test_default_parameter_grid():
    a = 2.0 ** -4
    grid = ex.default_parameter_grid(a)
    assert grid == [(1.0, a), (1.0, 20 * a), (20.0, 20 * a),
                    (1.0, a / 20.0), (0.05, a / 20.0)]


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(parameter_grid=[])


def test_make_problem_deterministic():
    c = small_config()
    p1, t1 = ex.make_problem(c)
    p2, t2 = ex.make_problem(c)
    assert np.array_equal(p1.y.values, p2.y.values)
    assert np.array_equal(t1.values, t2.values)
    p3, _ = ex.make_problem(small_config(noise_seed=1))
    assert not np.array_equal(p1.y.values, p3.y.values)


def test_make_problem_identity_blur_no_noise():
    c = small_config(psf_size=1, noise_std=0.0)
    problem, truth = ex.make_problem(c)
    assert np.allclose(problem.y.values, truth.values, atol=1e-12)


def test_load_truth_from_file(tmp_path):
    from sbadmm.grids import write_matrix_text
    img = ImageGrid(np.arange(16.0).reshape(4, 4))
    path = str(tmp_path / "truth.txt")
    write_matrix_text(img, path)
    got = ex.load_truth(ex.ExperimentConfig(image_source=path))
    assert np.array_equal(got.values, img.values)
    with pytest.raises(ValueError, match="not found"):
        ex.load_truth(ex.ExperimentConfig(image_source="/nope/missing.txt"))


def test_reference_solution_residual():
    problem, _ = ex.make_problem(small_config())
    ref = ex.reference_solution(problem)
    ops = ProblemOps(problem)
    # the reference must be a stationary point: one exact (1, alpha) sweep
    # from it may only reduce the cost below numerical noise
    cost_ref = ops.cost(ref.values)
    config = OuterConfig(rho=1.0, eta=problem.potential.alpha,
                         max_iterations=1,
                         inner=InnerSolveConfig(mode="pcg", pcg_iterations=50))
    trace = run(problem, config, reference=ref)
    assert abs(trace.cost[-1] - cost_ref) <= 1e-9 * cost_ref


def test_reference_dense_vs_long_run():
    config = small_config(height=32, width=32)
    problem, _ = ex.make_problem(config)
    dense = ex.reference_solution(problem)
    long_run = ex.long_run_reference(problem)
    assert np.sqrt(np.mean((dense.values - long_run.values) ** 2)) <= 1e-8


def test_reference_of_zero_data_is_zero(rng):
    # A'y = 0: the residual would be 0/0
    for mode in ("periodic", "masked"):
        problem = random_problem(rng, mask_mode=mode)
        problem = ProblemSpec(y=ImageGrid(np.zeros((8, 8))),
                              kernel=problem.kernel, mask_mode=mode,
                              potential=problem.potential)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = ex.reference_solution(problem)
        assert np.array_equal(ref.values, np.zeros((8, 8)))


def test_reference_rejects_nan_solution(rng, monkeypatch):
    # a NaN residual must fail the check, not slip past "res > tol"
    monkeypatch.setattr(ProblemOps, "solve",
                        lambda self, b, rho, eta: np.full(b.shape, np.nan))
    with pytest.raises(RuntimeError, match="residual nan exceeds"):
        ex.reference_solution(random_problem(rng, mask_mode="masked"))


def test_rmsd(rng):
    # the trace's rmsd column: root-mean-square distance of x to the reference
    problem = random_problem(rng, shape=(3, 3))
    config = OuterConfig(max_iterations=0)  # x stays at x0 = 0
    a = ImageGrid(np.zeros((3, 3)))
    b = ImageGrid(np.full((3, 3), 2.5))
    assert run(problem, config, reference=a).rmsd == [0.0]
    assert run(problem, config, reference=b).rmsd == [2.5]  # constant offset
    with pytest.raises(ValueError):
        run(problem, config, reference=ImageGrid(np.zeros((1, 3))))


def test_metrics_against_reference():
    problem, _ = ex.make_problem(small_config())
    ref = ex.reference_solution(problem)
    config = OuterConfig(rho=1.0, eta=problem.potential.alpha,
                         max_iterations=30,
                         inner=InnerSolveConfig(mode="pcg", pcg_iterations=3))
    trace = run(problem, config, reference=ref)
    assert trace.rel_cost_err[-1] < trace.rel_cost_err[0]
    assert min(trace.rel_cost_err) >= -1e-12  # numerical floor
    assert all(r >= 0.0 for r in trace.rmsd)


def test_benchmark_protocol_artifacts(tmp_path):
    config = small_config(output_dir=str(tmp_path),
                          parameter_grid=[(1.0, 2.0 ** -4), (2.0, 0.5)],
                          max_iterations=5)
    traces, reference = ex.benchmark_protocol(config)
    assert set(traces) == {(1.0, 2.0 ** -4), (2.0, 0.5)}
    for trace in traces.values():
        assert len(trace) == 6
    for name in ("truth.pgm", "data.pgm", "reference.pgm", "summary.csv",
                 "trace_rho1_eta0.0625.csv", "final_rho1_eta0.0625.pgm",
                 "trace_rho2_eta0.5.csv", "final_rho2_eta0.5.pgm"):
        assert os.path.exists(os.path.join(str(tmp_path), name)), name
    with open(os.path.join(str(tmp_path), "summary.csv")) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("rho,eta,status")
    assert len(lines) == 3


def test_benchmark_protocol_deterministic(tmp_path):
    config = small_config(parameter_grid=[(1.0, 2.0 ** -4)], max_iterations=4)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    ex.benchmark_protocol(_with_outdir(config, out1))
    ex.benchmark_protocol(_with_outdir(config, out2))
    traces = []
    for out in (out1, out2):
        with open(os.path.join(out, "trace_rho1_eta0.0625.csv")) as f:
            traces.append(f.read())
    assert traces[0] == traces[1]


def _with_outdir(config, outdir):
    import dataclasses
    return dataclasses.replace(config, output_dir=outdir)


def test_benchmark_records_failures_and_continues(tmp_path, monkeypatch):
    real_run = ex.run

    def flaky_run(problem, outer, reference=None):
        if outer.rho == 2.0:
            raise RuntimeError("synthetic abort")
        return real_run(problem, outer, reference=reference)

    monkeypatch.setattr(ex, "run", flaky_run)
    config = small_config(output_dir=str(tmp_path),
                          parameter_grid=[(2.0, 0.5), (1.0, 2.0 ** -4)],
                          max_iterations=3)
    traces, _ = ex.benchmark_protocol(config)
    assert traces[(2.0, 0.5)] is None
    assert traces[(1.0, 2.0 ** -4)] is not None
    with open(os.path.join(str(tmp_path), "summary.csv")) as f:
        body = f.read()
    assert "failed: synthetic abort" in body


def test_empirical_rate_on_geometric_sequence():
    errors = 3.0 * 0.8 ** np.arange(40)
    assert ex.empirical_rate(errors) == pytest.approx(0.8, rel=1e-12)
    with pytest.raises(ValueError):
        ex.empirical_rate([1.0, 0.5])
    with pytest.raises(ValueError):
        ex.empirical_rate([1.0, 0.0, 0.0, 0.0])
