"""Command-line entry point for restoration runs, rate prediction, parameter
recommendation and the convergence benchmark.

Exit codes: 0 success, 2 bad configuration or arguments, 3 solver abort.
Flag overrides always beat config-file values.  Machine artifacts (CSV, PGM)
go to --output-dir only; standard output carries the human-readable summary.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import sys

import click
import numpy as np

from .algorithms import ALGORITHMS, OuterConfig, ProblemOps, run
from .experiments import (DEFAULT_ALPHA, SUMMARY_TOLERANCE, ExperimentConfig,
                          benchmark_protocol, gaussian_kernel, make_problem,
                          reference_solution)
from .grids import ConvolutionKernel, write_pgm
from .operators import write_spectra_csv
from .rates import (CASES, case_parameters, compare_sb_vs_admm, delta_spectrum,
                    dense_transition_oracle, optimal_penalties, predict,
                    rate_report_to_csv)

EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(Exception):
    pass


def load_config(path):
    """Parse a flat `key = value` config file into a string mapping."""
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    mapping = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def _parse_grid(text):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError("grid entries must be 'rho,eta': %r" % chunk)
        pairs.append((float(parts[0]), float(parts[1])))
    return pairs


def _inner_mode(value):
    if value not in ("exact", "pcg"):
        raise ValueError("expected 'exact' or 'pcg', got %r" % (value,))
    return "pcg" if value == "pcg" else "circulant_exact"


_CONFIG_KEYS = {
    "image": ("image_source", str),
    "height": ("height", int),
    "width": ("width", int),
    "psf_size": ("psf_size", int),
    "psf_sigma": ("psf_sigma", float),
    "noise_std": ("noise_std", float),
    "noise_seed": ("noise_seed", int),
    "alpha": ("alpha", float),
    "potential": ("potential_kind", str),
    "threshold": ("potential_threshold", float),
    "mask_mode": ("mask_mode", str),
    "max_iters": ("max_iterations", int),
    "grid": ("parameter_grid", _parse_grid),
    "output_dir": ("output_dir", str),
    "inner": ("mode", _inner_mode),
    "pcg_iters": ("pcg_iterations", int),
}
# Keys that set one field each of the default InnerSolveConfig.
_INNER_KEYS = ("inner", "pcg_iters")


def build_experiment_config(config_path=None, **overrides) -> ExperimentConfig:
    """Config-file values, overridden by the flags given (not None).

    Flags use the config-file key names.
    """
    settings = load_config(config_path) if config_path is not None else {}
    settings.update((k, v) for k, v in overrides.items() if v is not None)
    kwargs = {}
    inner = {}
    for key, value in settings.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError("unknown config key %r" % key)
        field, conv = _CONFIG_KEYS[key]
        try:
            (inner if key in _INNER_KEYS else kwargs)[field] = conv(value)
        except ValueError as exc:
            raise ConfigError("bad value for %s: %s" % (key, exc))
    try:
        config = ExperimentConfig(**kwargs)
        config.inner = dataclasses.replace(config.inner, **inner)
        return config
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _fail(code, message):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _exit_codes(command):
    """Exit 2 on a configuration error and 3 on a solver abort: the
    divergence guard, a CG breakdown or a failed reference residual check,
    each a RuntimeError."""
    @functools.wraps(command)
    def wrapped(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ConfigError, ValueError) as exc:
            _fail(EXIT_CONFIG, str(exc))
        except RuntimeError as exc:
            _fail(EXIT_SOLVER, str(exc))

    return wrapped


def _config_and_spectra(config_path, alpha, output_dir, rate_analysis=True):
    """The command's config, the delta spectrum and the operators of the
    problem that ``restore`` solves for it.  The rate analysis holds for
    the quadratic potential only."""
    config = build_experiment_config(config_path, alpha=alpha,
                                     output_dir=output_dir)
    if rate_analysis and config.potential_kind != "quadratic":
        raise ConfigError("rate analysis applies to the quadratic "
                          "potential only (got %r)" % config.potential_kind)
    ops = ProblemOps(make_problem(config)[0])
    return config, delta_spectrum(ops.lam, ops.om, config.alpha), ops


@click.group()
def main():
    """Split Bregman / two-split ADMM restoration toolkit."""


def _common_options(fn):
    fn = click.option("--config", "config_path", default=None,
                      help="flat key = value config file")(fn)
    fn = click.option("--alpha", type=float, default=None)(fn)
    fn = click.option("--output-dir", default=None)(fn)
    return fn


@main.command()
@_common_options
@click.option("--rho", type=float, default=1.0)
@click.option("--eta", type=float, default=None, help="default: alpha")
@click.option("--iters", type=int, default=None)
@click.option("--inner", "inner_mode", type=click.Choice(["exact", "pcg"]),
              default=None)
@click.option("--pcg-iters", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--algorithm", type=click.Choice(ALGORITHMS), default="admm2")
@click.option("--x0", "x0_mode", type=click.Choice(["zero", "data"]),
              default="zero", help="initial image: zeros or the data y")
@_exit_codes
def restore(config_path, alpha, output_dir, rho, eta, iters, inner_mode,
            pcg_iters, seed, algorithm, x0_mode):
    """Run one restoration and write its trace CSV and final image."""
    config = build_experiment_config(
        config_path, alpha=alpha, output_dir=output_dir,
        max_iters=iters, inner=inner_mode, pcg_iters=pcg_iters,
        noise_seed=seed)
    problem, _ = make_problem(config)
    outer = OuterConfig(rho=rho, eta=config.alpha if eta is None else eta,
                        max_iterations=config.max_iterations,
                        inner=config.inner, algorithm=algorithm,
                        x0_mode=x0_mode)
    reference = reference_solution(problem)
    trace = run(problem, outer, reference=reference)
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    trace.to_csv(os.path.join(outdir, "trace.csv"))
    write_pgm(trace.final_image, os.path.join(outdir, "final.pgm"))
    if not trace.full_rank:
        click.echo("warning: split operator is rank deficient; "
                   "convergence not guaranteed")
    click.echo("iterations: %d" % trace.iterations[-1])
    click.echo("final cost: %.9g" % trace.cost[-1])
    click.echo("final rel_cost_err: %.3g" % trace.rel_cost_err[-1])
    click.echo("final rmsd: %.6g" % trace.rmsd[-1])


@main.command("predict")
@_common_options
@click.option("--case", type=click.Choice(CASES), required=True)
@click.option("--rho", type=float, default=None)
@click.option("--eta", type=float, default=None)
@_exit_codes
def predict_cmd(config_path, alpha, output_dir, case, rho, eta):
    """Predicted per-frequency rates and spectral radius for one case."""
    config, spectrum, _ = _config_and_spectra(config_path, alpha, output_dir)
    report = predict(case, spectrum, rho=rho, eta=eta)
    gamma, eta_star, rho_star = optimal_penalties(spectrum)
    click.echo("case %s: rho=%g eta=%g alpha=%g" %
               (case, report.rho, report.eta, spectrum.alpha))
    click.echo("gamma: %.9g" % gamma)
    click.echo("eta_star: %.9g" % eta_star)
    click.echo("rho_star: %.9g" % rho_star)
    click.echo("predicted spectral radius: %.9g" % report.spectral_radius)
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    rate_report_to_csv(report, spectrum, os.path.join(outdir, "rates.csv"))


@main.command()
@_common_options
@click.option("--eta", type=float, default=None,
              help="also compare this eta against the matched split")
@_exit_codes
def recommend(config_path, alpha, output_dir, eta):
    """Print the optimal penalty parameters eta* and rho*."""
    _, spectrum, _ = _config_and_spectra(config_path, alpha, output_dir)
    gamma, eta_star, rho_star = optimal_penalties(spectrum)
    click.echo("gamma: %.17g" % gamma)
    click.echo("eta_star: %.17g" % eta_star)
    click.echo("rho_star: %.17g" % rho_star)
    if eta is not None:
        cmp = compare_sb_vs_admm(eta, spectrum)
        click.echo("at eta=%g: faster=%s rho_recommended=%.9g "
                   "radius_sb=%.9g radius_admm=%.9g"
                   % (eta, cmp.faster, cmp.rho_recommended,
                      cmp.radius_sb, cmp.radius_admm))


@main.command()
@_common_options
@click.option("--iters", type=int, default=None)
@_exit_codes
def benchmark(config_path, alpha, output_dir, iters):
    """Run the benchmark parameter grid and write one trace CSV per setting."""
    config = build_experiment_config(config_path, alpha=alpha,
                                     output_dir=output_dir,
                                     max_iters=iters)
    traces, _ = benchmark_protocol(config)
    # printed as 1e-6, where %g would print 1e-06
    tolerance = np.format_float_scientific(SUMMARY_TOLERANCE, trim="-",
                                           exp_digits=1)
    for (rho, eta), trace in sorted(traces.items()):
        if trace is None:
            click.echo("rho=%g eta=%g: FAILED" % (rho, eta))
        else:
            hit = trace.iterations_to(SUMMARY_TOLERANCE)
            click.echo("rho=%g eta=%g: final rel_cost_err %.3g, "
                       "iters to %s: %s"
                       % (rho, eta, trace.rel_cost_err[-1], tolerance,
                          "n/a" if hit is None else hit))


@main.command()
@_common_options
@_exit_codes
def spectra(config_path, alpha, output_dir):
    """Write the blur and difference Gram spectra as CSV."""
    config, _, ops = _config_and_spectra(config_path, alpha, output_dir,
                                         rate_analysis=False)
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    write_spectra_csv(ops.lam, ops.om, os.path.join(outdir, "spectra.csv"))
    click.echo("wrote %s" % os.path.join(outdir, "spectra.csv"))


@main.command()
@click.option("--grid", "grid_text", default="4x4", help="HxW, at most 16x16")
@click.option("--case", type=click.Choice(CASES), required=True)
@click.option("--rho", type=float, default=None)
@click.option("--eta", type=float, default=None)
@click.option("--alpha", type=float, default=DEFAULT_ALPHA)
@_exit_codes
def oracle(grid_text, case, rho, eta, alpha):
    """Dense-vs-analytic spectral radius comparison on a tiny grid."""
    try:
        h, w = (int(p) for p in grid_text.lower().split("x"))
    except ValueError:
        raise ConfigError("--grid must look like 4x4")
    if h < 1 or w < 1:
        raise ConfigError("--grid sides must be positive, got %s" % grid_text)
    # before the defaults below are filled in from it
    if not 0 < alpha < math.inf:
        raise ConfigError("alpha must be positive and finite")
    # the free parameter of the case defaults to 2 (rho) or 2 alpha (eta)
    rho_, eta_ = case_parameters(
        case, alpha, 2.0 if case == "II" and rho is None else rho,
        2.0 * alpha if case != "II" and eta is None else eta)
    kernel = _oracle_kernel(h, w)
    result = dense_transition_oracle(kernel, (h, w), rho_, eta_, alpha)
    radii = result.cases[case]
    click.echo("case %s on %dx%d: rho=%g eta=%g alpha=%g"
               % (case, h, w, rho_, eta_, alpha))
    click.echo("dense radius:    %.12g" % radii.radius_dense)
    click.echo("analytic radius: %.12g" % radii.radius_analytic)
    click.echo("difference:      %.3g"
               % abs(radii.radius_dense - radii.radius_analytic))


def _oracle_kernel(h, w):
    if h == 1:
        return ConvolutionKernel(np.array([[0.5, 0.5]]), (0, 0))
    if w == 1:
        return ConvolutionKernel(np.array([[0.5], [0.5]]), (0, 0))
    return gaussian_kernel(3, 1.0)


if __name__ == "__main__":
    main()
