import os

import numpy as np
import pytest
from click.testing import CliRunner

from sbadmm.cli import (ConfigError, build_experiment_config, load_config,
                        main)


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
    rows = open(os.path.join(out, "trace.csv")).read().splitlines()
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
        traces.append(open(os.path.join(out, "trace.csv"), "rb").read())
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


def test_restore_exact_on_masked_converges_in_one_step(tmp_path, runner):
    # exact masked x-updates: (1, alpha) is optimal after one iteration
    config = write_config(tmp_path / "c.cfg",
                          SMALL.replace("mask_mode = periodic",
                                        "mask_mode = masked"))
    out = str(tmp_path / "o")
    result = runner.invoke(main, ["restore", "--config", config,
                                  "--output-dir", out])
    assert result.exit_code == 0, result.output
    rows = open(os.path.join(out, "trace.csv")).read().splitlines()
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
    rows = open(os.path.join(out, "spectra.csv")).read().splitlines()
    head = rows[1].split(",")
    # differences annihilate constants: omega = 0 at the DC frequency
    assert head[0] == "0" and head[1] == "0" and float(head[3]) == 0.0


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


def test_oracle_bad_grid_spec(runner):
    result = runner.invoke(main, ["oracle", "--grid", "4by4", "--case", "I"])
    assert result.exit_code == 2
