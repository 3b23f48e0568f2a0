import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import sbadmm
from sbadmm.algorithms import ProblemOps
from sbadmm.cli import (ConfigError, build_experiment_config, load_config,
                        main)
from sbadmm.experiments import make_problem
from sbadmm.grids import ImageGrid, write_pgm


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, text):
    with open(path, "w") as f:
        f.write(text)
    return str(path)


SMALL = """
# small periodic test problem
height = 16
width = 16
psf_size = 5
psf_sigma = 1.0
mask_mode = periodic
inner = exact
max_iters = 5
"""


def test_load_config_parses_and_reports_lines(tmp_path):
    path = write_config(tmp_path / "c.cfg", "alpha = 0.25\n# note\nfoo=bar\n")
    assert load_config(path) == {"alpha": "0.25", "foo": "bar"}
    bad = write_config(tmp_path / "bad.cfg", "alpha 0.25\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        load_config(bad)
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"))


def test_build_config_overrides_beat_file(tmp_path):
    path = write_config(tmp_path / "c.cfg", "alpha = 0.25\nmax_iters = 7\n")
    config = build_experiment_config(path, alpha=0.5)
    assert config.alpha == 0.5 and config.max_iterations == 7


def test_build_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path / "c.cfg", "gamma = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        build_experiment_config(path)
    # inner takes only the values of the --inner flag
    bad = write_config(tmp_path / "b.cfg", "inner = cg\n")
    with pytest.raises(ConfigError, match="inner"):
        build_experiment_config(bad)


def test_build_config_parses_grid(tmp_path):
    path = write_config(tmp_path / "c.cfg", "grid = 1,0.0625; 20,1.25\n")
    config = build_experiment_config(path)
    assert config.parameter_grid == [(1.0, 0.0625), (20.0, 1.25)]
    bad = write_config(tmp_path / "b.cfg", "grid = 1;2\n")
    with pytest.raises(ConfigError, match="rho,eta"):
        build_experiment_config(bad)


def test_restore_one_iteration_convergence(tmp_path, runner):
    config = write_config(tmp_path / "c.cfg", SMALL)
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["restore", "--config", config,
                                  "--rho", "1", "--output-dir", out])
    assert result.exit_code == 0, result.output
    assert os.path.exists(os.path.join(out, "trace.csv"))
    assert os.path.exists(os.path.join(out, "final.pgm"))
    with open(os.path.join(out, "trace.csv")) as f:
        rows = f.read().splitlines()
    # (rho, eta) = (1, alpha) with exact solves: optimal after one iteration
    rel = [float(r.split(",")[2]) for r in rows[1:]]
    assert rel[1] <= 1e-10


def test_restore_pcg_iters_alone_keeps_pcg(tmp_path, runner):
    # --pcg-iters sets the step count only; the default inner solve stays PCG
    traces = []
    for extra in ([], ["--inner", "pcg"]):
        out = str(tmp_path / ("out%d" % len(extra)))
        result = runner.invoke(main, ["restore", "--iters", "3",
                                      "--pcg-iters", "5", "--output-dir", out]
                               + extra)
        assert result.exit_code == 0, result.output
        with open(os.path.join(out, "trace.csv"), "rb") as f:
            traces.append(f.read())
    assert traces[0] == traces[1]


def test_restore_missing_config_exits_2(tmp_path, runner):
    result = runner.invoke(main, ["restore", "--config",
                                  str(tmp_path / "missing.cfg")])
    assert result.exit_code == 2
    assert "missing.cfg" in result.output


def test_restore_bad_eta_exits_2(tmp_path, runner):
    config = write_config(tmp_path / "c.cfg", SMALL)
    result = runner.invoke(main, ["restore", "--config", config,
                                  "--eta", "0",
                                  "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2


def test_restore_split_bregman_with_rho_exits_2(tmp_path, runner):
    # split Bregman is the rho = 1 recursion; another rho is not ignored
    config = write_config(tmp_path / "c.cfg", SMALL)
    result = runner.invoke(main, ["restore", "--config", config,
                                  "--algorithm", "sb", "--rho", "20",
                                  "--eta", "1.25",
                                  "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "split Bregman fixes rho = 1" in result.output
    assert not (tmp_path / "o").exists()


def test_restore_runs_every_variant(tmp_path, runner):
    # three iterations of split Bregman and of the simplified ADMM, PCG and
    # exact, on the default masked problem, and of the simplified ADMM and
    # the closed form on a periodic exact one: each exits 0 and writes four
    # finite costs, and the closed form's equal the simplified ADMM's
    periodic = write_config(tmp_path / "p.cfg", SMALL)

    def costs(name, *args):
        out = str(tmp_path / name)
        result = runner.invoke(main, ["restore", "--iters", "3",
                                      "--output-dir", out] + list(args))
        assert result.exit_code == 0, (name, result.output)
        with open(os.path.join(out, "trace.csv")) as f:
            cost = np.array([float(row["cost"]) for row in csv.DictReader(f)])
        assert cost.shape == (4,) and np.all(np.isfinite(cost)), name
        return cost

    costs("sb", "--algorithm", "sb")
    costs("pcg", "--algorithm", "admm2_simplified", "--rho", "2")
    costs("exact", "--algorithm", "admm2_simplified", "--rho", "2",
          "--inner", "exact")
    penalties = ["--config", periodic, "--rho", "2", "--eta", "0.5"]
    closed = costs("closed", "--algorithm", "quadratic_closed_form",
                   *penalties)
    simplified = costs("simplified", "--algorithm", "admm2_simplified",
                       *penalties)
    assert np.all(np.abs(closed - simplified) <= 1e-12 * np.abs(simplified))


def test_restore_divergence_exits_3(tmp_path, runner):
    # penalties this small blow the cost up at the first iteration
    result = runner.invoke(main, ["restore", "--rho", "1e-9", "--eta", "1e-9",
                                  "--iters", "200",
                                  "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert "oscillation guard" in result.output


def test_restore_exact_on_masked_converges_in_one_step(tmp_path, runner):
    # exact masked x-updates: (1, alpha) is optimal after one iteration
    config = write_config(tmp_path / "c.cfg",
                          SMALL.replace("mask_mode = periodic",
                                        "mask_mode = masked"))
    out = str(tmp_path / "o")
    result = runner.invoke(main, ["restore", "--config", config,
                                  "--output-dir", out])
    assert result.exit_code == 0, result.output
    with open(os.path.join(out, "trace.csv")) as f:
        rows = f.read().splitlines()
    assert float(rows[2].split(",")[2]) <= 1e-10


def test_restore_data_start(tmp_path, runner):
    config = write_config(tmp_path / "c.cfg", SMALL)
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["restore", "--config", config,
                                  "--x0", "data", "--output-dir", out])
    assert result.exit_code == 0, result.output


def test_recommend_prints_optima(runner):
    # default 64x64 blur+difference spectrum, alpha = 2^-4
    result = runner.invoke(main, ["recommend"])
    assert result.exit_code == 0, result.output
    assert "eta_star: 0.0625" in result.output
    assert "rho_star: 1" in result.output
    assert "gamma: 16" in result.output


def test_recommend_with_eta_comparison(runner):
    result = runner.invoke(main, ["recommend", "--eta", "0.003125"])
    assert result.exit_code == 0, result.output
    assert "faster=admm_matched" in result.output


def test_recommend_verdict_follows_the_radii(tmp_path, runner):
    # a narrow PSF on 8x8 puts every s1 below s3 at eta = 1.25
    config = write_config(tmp_path / "c.cfg", "psf_size = 3\n"
                          "psf_sigma = 0.5\nheight = 8\nwidth = 8\n")
    result = runner.invoke(main, ["recommend", "--config", config,
                                  "--eta", "1.25"])
    assert result.exit_code == 0, result.output
    assert "faster=sb rho_recommended=20 radius_sb=0.942666703 " \
        "radius_admm=0.952380952" in result.output
    # the default 64x64 radii differ by about 6e-15 relative only
    result = runner.invoke(main, ["recommend", "--eta", "1.25"])
    assert result.exit_code == 0, result.output
    assert "faster=tie" in result.output
    # no verdict from NaN radii: an infinite penalty is a bad argument, as
    # is an infinite alpha or threshold, which made restore and benchmark
    # abort a solve (exit 3) and spectra succeed.  recommend checks its eta
    # before it prints the optima, so a rejected one prints nothing
    fair = write_config(tmp_path / "f.cfg", "potential = fair\n"
                        "threshold = inf\nheight = 8\nwidth = 8\n")
    o = ["--output-dir", str(tmp_path / "o")]
    for eta in ("0", "-1", "nan"):
        result = runner.invoke(main, ["recommend", "--eta", eta])
        assert result.exit_code == 2, result.output
        assert "eta must be positive and finite" in result.output
        assert result.stdout == "", result.output
    for args in (["recommend", "--eta", "inf"],
                 ["predict", "--case", "II", "--rho", "inf"] + o,
                 ["restore", "--iters", "3", "--eta", "inf"] + o,
                 ["restore", "--alpha", "inf", "--eta", "1"] + o,
                 ["benchmark", "--alpha", "inf"] + o,
                 ["recommend", "--alpha", "inf"],
                 ["spectra", "--alpha", "inf"] + o,
                 ["restore", "--config", fair, "--iters", "3"] + o):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "must be positive and finite" in result.output
        assert "gamma" not in result.stdout, args


def test_zero_psf_sigma_exits_2(tmp_path, runner):
    # and a sigma whose taps overflow: 1e300 crashed with an OverflowError
    # traceback (exit 1), 1e-300 exited 2 with "image contains non-finite
    # entries"
    for sigma in ("0", "1e300", "1e-160", "1e-300"):
        config = write_config(tmp_path / "c.cfg", "psf_sigma = %s\n" % sigma)
        for command in ("restore", "spectra"):
            result = runner.invoke(main, [command, "--config", config,
                                          "--output-dir", str(tmp_path / "o")])
            assert result.exit_code == 2, (sigma, result.output)
            assert "sigma must be positive and finite" in result.output


def test_a_bad_grid_size_or_seed_exits_2_naming_its_key(tmp_path, runner):
    # these reached numpy, which exited 2 with "Number of samples, -3, must
    # be non-negative.", "image must be a non-empty 2D array" and "expected
    # non-negative integer", naming no key
    o = ["--output-dir", str(tmp_path / "o")]
    cases = [(["--config", write_config(tmp_path / ("g%d.cfg" % i), text)],
              ("restore", "spectra"), message)
             for i, (text, message) in enumerate((
                 ("width = -3\n", "width must be at least 1 (got -3)"),
                 ("height = 0\n", "height must be at least 1 (got 0)"),
                 ("noise_seed = -1\n", "noise_seed must be nonnegative")))]
    cases.append((["--seed", "-1"], ("restore",),
                  "noise_seed must be nonnegative"))
    for args, commands, message in cases:
        for command in commands:
            result = runner.invoke(main, [command] + args + o)
            assert result.exit_code == 2, (args, result.output)
            assert message in result.output, (args, result.output)
    assert not (tmp_path / "o").exists()


def test_predict_case_and_csv(tmp_path, runner):
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["predict", "--case", "III",
                                  "--eta", "1.25", "--output-dir", out])
    assert result.exit_code == 0, result.output
    assert "predicted spectral radius: 0.952380952" in result.output
    assert os.path.exists(os.path.join(out, "rates.csv"))


def test_predict_case_constraint_violation_exits_2(tmp_path, runner):
    result = runner.invoke(main, ["predict", "--case", "III",
                                  "--eta", "1.25", "--rho", "3",
                                  "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "eta/alpha" in result.output


def test_predict_rejects_nonquadratic(tmp_path, runner):
    config = write_config(tmp_path / "c.cfg", "potential = l1\n")
    result = runner.invoke(main, ["predict", "--case", "I", "--eta", "1.0",
                                  "--config", config,
                                  "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "quadratic" in result.output


def test_benchmark_writes_traces(tmp_path, runner):
    config = write_config(tmp_path / "c.cfg", SMALL + "grid = 1,0.0625\n")
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["benchmark", "--config", config,
                                  "--iters", "4", "--output-dir", out])
    assert result.exit_code == 0, result.output
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "trace_rho1_eta0.0625.csv"))
    assert "rho=1 eta=0.0625" in result.output


def test_spectra_csv_dc_row(tmp_path, runner):
    out = str(tmp_path / "out")
    config = write_config(tmp_path / "c.cfg", "height = 8\nwidth = 8\n")
    result = runner.invoke(main, ["spectra", "--config", config,
                                  "--output-dir", out])
    assert result.exit_code == 0, result.output
    with open(os.path.join(out, "spectra.csv")) as f:
        rows = f.read().splitlines()
    head = rows[1].split(",")
    # differences annihilate constants: omega = 0 at the DC frequency
    assert head[0] == "0" and head[1] == "0" and float(head[3]) == 0.0


def test_rate_commands_analyse_the_image_grid(tmp_path, runner):
    # an image file sets the grid; height and width (64x64 by default)
    # are ignored, by restore and by the rate commands alike
    rng = np.random.default_rng(0)
    image = str(tmp_path / "img.pgm")
    write_pgm(ImageGrid(rng.uniform(0.0, 100.0, (40, 24))), image)
    config = write_config(tmp_path / "c.cfg", "image = %s\n" % image)
    ops = ProblemOps(make_problem(build_experiment_config(config))[0])
    assert ops.shape == (40, 24)
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["spectra", "--config", config,
                                  "--output-dir", out])
    assert result.exit_code == 0, result.output
    with open(os.path.join(out, "spectra.csv"), newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == 960
    assert [float(r[2]) for r in rows] == list(ops.lam.ravel())
    assert [float(r[3]) for r in rows] == list(ops.om.ravel())
    result = runner.invoke(main, ["predict", "--case", "I", "--eta", "1.25",
                                  "--config", config, "--output-dir", out])
    assert result.exit_code == 0, result.output
    with open(os.path.join(out, "rates.csv"), newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert [r[0] for r in rows[:960]] == [str(i) for i in range(960)]
    assert [r[0] for r in rows[960:]] == ["# radius", "# eta_star",
                                          "# rho_star", "# gamma"]


def test_rate_commands_exit_2_where_restore_does(tmp_path, runner):
    # the rate commands build the problem restore builds, so they fail
    # where it fails (a Huber config fails predict and recommend earlier,
    # being no quadratic).  A noise_std of -1 ran and exited 0, and inf
    # and nan exited 2 with "image contains non-finite entries"
    missing = write_config(tmp_path / "m.cfg", "image = %s\n"
                           % (tmp_path / "missing.pgm"))
    huber = write_config(tmp_path / "h.cfg", "potential = huber\n")
    o = ["--output-dir", str(tmp_path / "o")]
    every = ("restore", "spectra", "recommend")
    cases = [(missing, every, "image file not found"),
             (huber, ("restore", "spectra"),
              "huber threshold must be positive and finite")]
    for i, std in enumerate(("-1", "inf", "nan")):
        noise = write_config(tmp_path / ("n%d.cfg" % i),
                             "noise_std = %s\n" % std)
        cases.append((noise, every, "noise_std must be nonnegative and "
                      "finite"))
    for config, commands, message in cases:
        for command in commands:
            result = runner.invoke(main, [command, "--config", config] + o)
            assert result.exit_code == 2, result.output
            assert message in result.output


def test_oracle_case_iii_4x1(runner):
    result = runner.invoke(main, ["oracle", "--grid", "4x1", "--case", "III"])
    assert result.exit_code == 0, result.output
    lines = {l.split(":")[0].strip(): l.split(":")[1].strip()
             for l in result.output.splitlines() if ":" in l}
    dense = float(lines["dense radius"])
    analytic = float(lines["analytic radius"])
    assert abs(dense - analytic) <= 1e-10


def test_oracle_rejects_inconsistent_case(runner):
    result = runner.invoke(main, ["oracle", "--grid", "4x4", "--case", "I",
                                  "--rho", "3"])
    assert result.exit_code == 2


def test_oracle_blames_a_bad_alpha(runner):
    # the default eta = 2 alpha was checked first, so a negative alpha was
    # reported as a bad eta
    for case in ("I", "II", "III"):
        result = runner.invoke(main, ["oracle", "--grid", "4x4", "--case",
                                      case, "--alpha", "-1"])
        assert result.exit_code == 2, result.output
        assert "alpha must be positive and finite" in result.output


def test_oracle_bad_grid_spec(runner):
    result = runner.invoke(main, ["oracle", "--grid", "4by4", "--case", "I"])
    assert result.exit_code == 2
    for grid in ("0x4", "-2x4"):
        result = runner.invoke(main, ["oracle", "--grid", grid, "--case", "I"])
        assert result.exit_code == 2, result.output
        assert "--grid sides must be positive, got %s" % grid in result.output


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from sbadmm.cli import main
from sbadmm.operators import sparse_diff_matrix

out = sys.argv[1]
with open(out + "/p.cfg", "w") as f:
    f.write("mask_mode = periodic\\nheight = 16\\nwidth = 16\\n")
o = ["--output-dir", out + "/o"]
periodic = ["--config", out + "/p.cfg"]
for args in (["recommend", "--eta", "1.25"] + o,
             ["predict", "--case", "I", "--eta", "1.25"] + o,
             ["spectra"] + o,
             ["oracle", "--grid", "4x4", "--case", "II"],
             ["benchmark", "--iters", "3"] + periodic + o,
             ["restore", "--iters", "3"] + periodic + o,
             ["restore", "--iters", "3"] + o,
             ["restore", "--inner", "exact", "--iters", "3"] + o,
             ["restore", "--inner", "exact", "--iters", "3"] + periodic + o):
    main(args, standalone_mode=False)
try:
    sparse_diff_matrix((4, 4), "masked")
except ImportError:
    pass
else:
    raise AssertionError("scipy was not blocked")
"""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # scipy is a test dependency only: every command, and every restore
    # run, periodic or masked, PCG or exact, runs with it unimportable;
    # the sparse reference matrices failing shows the block held
    src = os.path.dirname(os.path.dirname(sbadmm.__file__))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


def test_a_bad_grid_entry_exits_2_before_the_problem_is_built(tmp_path,
                                                              runner,
                                                              monkeypatch):
    # benchmark built the problem and solved its reference before
    # OuterConfig rejected the entry, with a message that names no key;
    # restore reads the grid too, and rejects it as it rejects an empty one
    import sbadmm.cli
    import sbadmm.experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("the problem was built")

    monkeypatch.setattr(sbadmm.cli, "make_problem", forbidden)
    monkeypatch.setattr(sbadmm.experiments, "make_problem", forbidden)
    o = ["--output-dir", str(tmp_path / "o")]
    for entry in ("0,2", "1,-1", "inf,1", "1,nan"):
        config = write_config(tmp_path / "g.cfg",
                              "grid = 1,0.0625; %s\n" % entry)
        for command in ("benchmark", "restore"):
            result = runner.invoke(main, [command, "--config", config] + o)
            assert result.exit_code == 2, (entry, result.output)
            assert ("grid entry %s: rho and eta must be positive and finite"
                    % entry) in result.output
    assert not (tmp_path / "o").exists()


def test_benchmark_reports_a_failed_setting_and_goes_on(tmp_path, runner):
    # (rho, eta) = (1e-9, 1e-9) trips the divergence guard at iteration 1
    # of a masked 32x32 run; the sweep prints FAILED for it, writes its
    # error to summary.csv and exits 0
    config = write_config(tmp_path / "c.cfg", "height = 32\nwidth = 32\n"
                          "grid = 1,0.0625; 1e-9,1e-9\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["benchmark", "--config", config,
                                  "--iters", "20", "--output-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert "rho=1e-09 eta=1e-09: FAILED" in result.output
    assert "rho=1 eta=0.0625: final rel_cost_err" in result.output
    with open(out / "summary.csv") as f:
        rows = {row["status"].split(":")[0]: row
                for row in csv.DictReader(f)}
    assert set(rows) == {"ok", "failed"}
    assert rows["failed"]["status"].endswith(
        "at iteration 1 (oscillation guard)")
    assert float(rows["failed"]["rho"]) == 1e-9
    assert not (out / "trace_rho1e-09_eta1e-09.csv").exists()
    assert (out / "trace_rho1_eta0.0625.csv").exists()


def test_a_huber_restore_takes_a_long_run_reference(tmp_path, runner,
                                                    monkeypatch):
    # every Huber, l1 and Fair restore solves its reference by a long run
    # (experiments.long_run_reference), here shortened to 30 iterations
    import sbadmm.experiments
    monkeypatch.setattr(sbadmm.experiments, "LONG_RUN_ITERATIONS", 30)
    for mode in ("periodic", "masked"):
        config = write_config(tmp_path / "h.cfg", SMALL + "potential = huber\n"
                              "threshold = 1\nmask_mode = %s\n" % mode)
        out = tmp_path / mode
        result = runner.invoke(main, ["restore", "--config", config,
                                      "--output-dir", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "trace.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6
        assert all(np.isfinite(float(value)) for row in rows
                   for value in row.values())
