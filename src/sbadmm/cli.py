"""Command-line entry point for restoration runs, rate prediction, parameter
recommendation and the convergence benchmark.

Exit codes: 0 success, 2 bad configuration or arguments, 3 solver abort.
Flag overrides always beat config-file values.  Machine artifacts (CSV, PGM)
go to --output-dir only; standard output carries the human-readable summary.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import click
import numpy as np

from .algorithms import (ALGORITHMS, OuterConfig, ProblemOps,
                         SolverDivergenceError, run)
from .experiments import (ExperimentConfig, benchmark_protocol, make_problem,
                          reference_solution)
from .grids import ConvolutionKernel, write_pgm
from .inner import PcgBreakdownError, SingularHessianError
from .operators import diff_gram_spectrum, gram_spectrum, write_spectra_csv
from .rates import (case_parameters, compare_sb_vs_admm, delta_spectrum,
                    dense_transition_oracle, optimal_eta_sb, optimal_rho_al,
                    predict, rate_report_to_csv)

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


def _catching(fn):
    try:
        fn()
    except (ConfigError, ValueError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except (SolverDivergenceError, SingularHessianError,
            PcgBreakdownError, RuntimeError) as exc:
        _fail(EXIT_SOLVER, str(exc))


def _delta_spectrum_from(config):
    from .experiments import gaussian_kernel
    kernel = gaussian_kernel(config.psf_size, config.psf_sigma)
    shape = (config.height, config.width)
    lam = gram_spectrum(kernel, shape)
    om = diff_gram_spectrum(shape)
    return delta_spectrum(lam, om, config.alpha), lam, om


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
def restore(config_path, alpha, output_dir, rho, eta, iters, inner_mode,
            pcg_iters, seed, algorithm, x0_mode):
    """Run one restoration and write its trace CSV and final image."""

    def body():
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
        ops = ProblemOps(problem)
        if not ops.rank.full_rank:
            click.echo("warning: split operator is rank deficient; "
                       "convergence not guaranteed")
        click.echo("iterations: %d" % trace.iterations[-1])
        click.echo("final cost: %.9g" % trace.cost[-1])
        click.echo("final rel_cost_err: %.3g" % trace.rel_cost_err[-1])
        click.echo("final rmsd: %.6g" % trace.rmsd[-1])

    _catching(body)


@main.command("predict")
@_common_options
@click.option("--case", type=click.Choice(["I", "II", "III"]), required=True)
@click.option("--rho", type=float, default=None)
@click.option("--eta", type=float, default=None)
def predict_cmd(config_path, alpha, output_dir, case, rho, eta):
    """Predicted per-frequency rates and spectral radius for one case."""

    def body():
        config = build_experiment_config(config_path, alpha=alpha,
                                         output_dir=output_dir)
        if config.potential_kind != "quadratic":
            raise ConfigError("rate analysis applies to the quadratic "
                              "potential only (got %r)" % config.potential_kind)
        spectrum, _, _ = _delta_spectrum_from(config)
        report = predict(case, spectrum, rho=rho, eta=eta)
        click.echo("case %s: rho=%g eta=%g alpha=%g" %
                   (case, report.rho, report.eta, report.alpha))
        click.echo("gamma: %.9g" % report.gamma)
        click.echo("eta_star: %.9g" % report.optimal_eta)
        click.echo("rho_star: %.9g" % report.optimal_rho)
        click.echo("predicted spectral radius: %.9g" % report.spectral_radius)
        outdir = config.output_dir
        os.makedirs(outdir, exist_ok=True)
        rate_report_to_csv(report, spectrum, os.path.join(outdir, "rates.csv"))

    _catching(body)


@main.command()
@_common_options
@click.option("--eta", type=float, default=None,
              help="also compare this eta against the matched split")
def recommend(config_path, alpha, output_dir, eta):
    """Print the optimal penalty parameters eta* and rho*."""

    def body():
        config = build_experiment_config(config_path, alpha=alpha,
                                         output_dir=output_dir)
        if config.potential_kind != "quadratic":
            raise ConfigError("rate analysis applies to the quadratic "
                              "potential only (got %r)" % config.potential_kind)
        spectrum, _, _ = _delta_spectrum_from(config)
        eta_star, gamma = optimal_eta_sb(spectrum)
        rho_star = optimal_rho_al(spectrum)
        click.echo("gamma: %.17g" % gamma)
        click.echo("eta_star: %.17g" % eta_star)
        click.echo("rho_star: %.17g" % rho_star)
        if eta is not None:
            cmp = compare_sb_vs_admm(eta, config.alpha, spectrum)
            click.echo("at eta=%g: faster=%s rho_recommended=%.9g "
                       "radius_sb=%.9g radius_admm=%.9g"
                       % (eta, cmp.faster, cmp.rho_recommended,
                          cmp.radius_sb, cmp.radius_admm))

    _catching(body)


@main.command()
@_common_options
@click.option("--iters", type=int, default=None)
def benchmark(config_path, alpha, output_dir, iters):
    """Run the benchmark parameter grid and write one trace CSV per setting."""

    def body():
        config = build_experiment_config(config_path, alpha=alpha,
                                         output_dir=output_dir,
                                         max_iters=iters)
        traces, _ = benchmark_protocol(config)
        for (rho, eta), trace in sorted(traces.items()):
            if trace is None:
                click.echo("rho=%g eta=%g: FAILED" % (rho, eta))
            else:
                hit = trace.iterations_to(1e-6)
                click.echo("rho=%g eta=%g: final rel_cost_err %.3g, "
                           "iters to 1e-6: %s"
                           % (rho, eta, trace.rel_cost_err[-1],
                              "n/a" if hit is None else hit))

    _catching(body)


@main.command()
@_common_options
def spectra(config_path, alpha, output_dir):
    """Write the blur and difference Gram spectra as CSV."""

    def body():
        config = build_experiment_config(config_path, alpha=alpha,
                                         output_dir=output_dir)
        _, lam, om = _delta_spectrum_from(config)
        outdir = config.output_dir
        os.makedirs(outdir, exist_ok=True)
        write_spectra_csv(lam, om, os.path.join(outdir, "spectra.csv"))
        click.echo("wrote %s" % os.path.join(outdir, "spectra.csv"))

    _catching(body)


@main.command()
@click.option("--grid", "grid_text", default="4x4", help="HxW, at most 16x16")
@click.option("--case", type=click.Choice(["I", "II", "III"]), required=True)
@click.option("--rho", type=float, default=None)
@click.option("--eta", type=float, default=None)
@click.option("--alpha", type=float, default=2.0 ** -4)
def oracle(grid_text, case, rho, eta, alpha):
    """Dense-vs-analytic spectral radius comparison on a tiny grid."""

    def body():
        try:
            h, w = (int(p) for p in grid_text.lower().split("x"))
        except ValueError:
            raise ConfigError("--grid must look like 4x4")
        if case == "II":
            rho_, eta_ = case_parameters(case, alpha, 2.0 if rho is None else rho,
                                         eta)
        else:
            rho_, eta_ = case_parameters(case, alpha, rho,
                                         2.0 * alpha if eta is None else eta)
        kernel = _oracle_kernel(h, w)
        result = dense_transition_oracle(kernel, (h, w), rho_, eta_, alpha)
        radii = result.cases[case]
        click.echo("case %s on %dx%d: rho=%g eta=%g alpha=%g"
                   % (case, h, w, rho_, eta_, alpha))
        click.echo("dense radius:    %.12g" % radii.radius_dense)
        click.echo("analytic radius: %.12g" % radii.radius_analytic)
        click.echo("difference:      %.3g"
                   % abs(radii.radius_dense - radii.radius_analytic))

    _catching(body)


def _oracle_kernel(h, w):
    if h == 1:
        return ConvolutionKernel(np.array([[0.5, 0.5]]), (0, 0))
    if w == 1:
        return ConvolutionKernel(np.array([[0.5], [0.5]]), (0, 0))
    from .experiments import gaussian_kernel
    return gaussian_kernel(3, 1.0)


if __name__ == "__main__":
    main()
