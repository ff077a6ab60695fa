"""Command-line front end: simulation, sweeps, verification, probes.

Exit codes: 0 success/converged, 1 usage or input error, 2 non-converged.
Every CSV starts with a comment line carrying the run-manifest hash so
outputs can be traced back to their exact configuration.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import itertools
import math
import sys

import click
import numpy as np

from . import __version__
from .config import build_setup, load_config, serialize_config
from .dissipation import DissipationSpec, steady_temperature_ansatz, theta_limit
from .dsmc import (SERIES_COLUMNS, initial_ensemble, run_many, run_to_steady,
                   save_snapshot)
from .errors import InputError
from .observables import maxwellian_distance
from .restitution import CONSTANT, rescale
from .scaling import two_sample_z
from . import povzner as povzner_mod
from . import verify as verify_mod


# Exit-code contract: 0 ok, 1 usage error, 2 non-converged.  Click's
# default usage-error code is 2, which would collide with the latter.
click.UsageError.exit_code = 1


def manifest_hash(values: dict, extra: str = "") -> str:
    text = serialize_config(values) + extra + __version__
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _manifest_line(values: dict, extra: str = "") -> str:
    return f"# gsteady-manifest {manifest_hash(values, extra)} version={__version__}"


def write_csv(path, columns, rows, manifest: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(manifest + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


@contextlib.contextmanager
def _config_errors():
    """Turn an InputError into one `config error:` line and exit 1."""
    try:
        yield
    except InputError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)


def _load_setup(path):
    """(config values, RunSetup) of a config file; exit 1 on a bad config."""
    with _config_errors():
        values = load_config(path)
        return values, build_setup(values)


def _check_starts(jobs) -> None:
    """Build and drop each job's initial ensemble, so that a job no run can
    start from (its energy overflows, say) exits 1 before run_many's pool
    runs the other jobs to steadiness."""
    with _config_errors():
        for cfg, _, init in jobs:
            initial_ensemble(cfg, init)


@click.group()
def main() -> None:
    """Particle-method simulator for thermally driven granular gases."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-prefix", default="run", show_default=True,
              help="prefix for the time-series/report/snapshot outputs")
def simulate(config_path, out_prefix):
    """Run one configuration to steadiness and write CSV outputs."""
    values, setup = _load_setup(config_path)
    with _config_errors():  # an initial ensemble whose energy overflows
        ens, report = run_to_steady(setup.engine, setup.model, setup.init)
    manifest = _manifest_line(values)
    write_csv(f"{out_prefix}_series.csv", SERIES_COLUMNS, report.series, manifest)
    final_cols = ("temperature", "m1", "m3_2", "m2", "m3", "diss_estimate",
                  "six_mu", "tail_A", "tail_value", "max_share", "collision_prob",
                  "steps", "converged")
    write_csv(f"{out_prefix}_report.csv", final_cols, [(
        report.temperature, report.moments[1.0], report.moments[1.5],
        report.moments[2.0], report.moments[3.0], report.diss_estimate,
        6.0 * setup.engine.mu, report.tail_a, report.tail_value,
        report.tail_max_share, report.collision_prob, report.steps,
        int(report.converged))], manifest)
    save_snapshot(f"{out_prefix}_snapshot.bin", ens)
    sys.exit(0 if report.converged else 2)


@main.command("sweep-lambda")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--lam", "-l", "lambdas", multiple=True, type=float, required=True)
@click.option("--out", default="sweep.csv", show_default=True)
def sweep_lambda(config_path, lambdas, out):
    """Run the rescaled problem for each lambda and tabulate steady reports."""
    values, setup = _load_setup(config_path)
    bad = [lam for lam in lambdas if not 0.0 < lam <= 1.0]
    if bad:
        click.echo(f"lambda {bad[0]} outside (0, 1]", err=True)
        sys.exit(1)
    model = setup.model
    if model.kind == CONSTANT:
        click.echo("config error: sweep-lambda needs a power_law or viscoelastic"
                   " law: a constant e(lambda r) = e0 has no quasi-elastic limit",
                   err=True)
        sys.exit(1)
    theta = theta_limit(model.a, model.gamma).theta
    spec = DissipationSpec(model)
    jobs = []
    with _config_errors():  # a law with no steady temperature in the bracket
        for lam in lambdas:
            cfg = dataclasses.replace(setup.engine, mu=lam ** model.gamma)
            init = dataclasses.replace(
                setup.init, t0=steady_temperature_ansatz(spec, lam))
            jobs.append((cfg, rescale(model, lam), init))
    _check_starts(jobs)
    rows = []
    for lam, (cfg, _, _), (ens, report) in zip(lambdas, jobs, run_many(jobs)):
        dist = maxwellian_distance(ens, theta)
        rows.append((lam, report.temperature, theta, dist.d_moment, dist.d_hist,
                     report.moments[3.0], report.tail_value, report.diss_estimate,
                     6.0 * cfg.mu, int(report.converged)))
    cols = ("lambda", "temperature", "theta_oracle", "d_moment", "d_hist",
            "m3", "tail_value", "diss_estimate", "six_mu", "converged")
    write_csv(out, cols, rows, _manifest_line(values, extra=str(lambdas)))
    d = np.array([r[3] for r in rows])
    lams = np.array([r[0] for r in rows])
    if len(rows) >= 2 and np.all(d > 0):
        x = np.log(lams)
        y = np.log(d)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        dof = max(1, len(rows) - 2)
        se = math.sqrt(float(resid @ resid) / dof / float((x - x.mean()) @ (x - x.mean())))
        click.echo(f"d_moment rate fit: slope={slope:.4f} se={se:.4f}")
    sys.exit(0)


@main.command()
@click.argument("suite", type=click.Choice(sorted(verify_mod.SUITES)))
@click.option("--out", default="verify.csv", show_default=True)
def verify(suite, out):
    """Run a property battery; exit 0 iff every property passes."""
    rows = verify_mod.run_suite(suite)
    write_csv(out, ("property", "margin", "passed"),
              [(n, m, int(ok)) for n, m, ok in rows],
              f"# gsteady-verify {suite} version={__version__}")
    failed = [n for n, _, ok in rows if not ok]
    for name, margin, ok in rows:
        click.echo(f"{'PASS' if ok else 'FAIL'} {name} margin={margin:.3e}")
    sys.exit(0 if not failed else 1)


@main.command("povzner-check")
@click.option("--p", "p_exponents", multiple=True, type=float, default=(2.0, 3.0),
              show_default=True)
@click.option("--model", "model_name", default="viscoelastic", show_default=True,
              type=click.Choice(sorted(verify_mod._models())))
@click.option("--pairs", default=1000, show_default=True,
              type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default="povzner.csv", show_default=True)
def povzner_check(p_exponents, model_name, pairs, seed, out):
    """Worst Povzner margins over random Gaussian pairs."""
    model = verify_mod._models()[model_name]
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for p in p_exponents:
        try:
            margins, norms = povzner_mod.battery(p, model, pairs, rng)
        except InputError as exc:
            click.echo(str(exc), err=True)
            sys.exit(1)
        worst = float(np.min(norms))
        passed = worst >= -1e-9
        if not passed:
            refit = povzner_mod.PovznerCase(p).refit_k(norms)
            click.echo(f"printed constant failed at p={p}; largest passing "
                       f"k={refit:.6g}", err=True)
            ok = ok and refit > 0.0
        rows.append((p, model_name, float(np.min(margins)), worst, int(passed)))
    write_csv(out, ("p", "model", "worst_margin", "worst_margin_normalized",
                    "printed_constant_ok"), rows,
              f"# gsteady-povzner version={__version__}")
    sys.exit(0 if ok else 1)


@main.command()
@click.option("--a", default=1.0, show_default=True)
@click.option("--gamma", default=0.2, show_default=True)
def theta(a, gamma):
    """Print the limit temperature by both normalizations as CSV."""
    try:
        res = theta_limit(a, gamma)
    except InputError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    click.echo("a,gamma,theta_oracle,theta_paper_formula")
    click.echo(f"{a},{gamma},{res.theta!r},{res.theta_paper_formula!r}")


@main.command("uniqueness-probe")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--init", "inits", multiple=True,
              default=("maxwellian", "bimodal"), show_default=True)
@click.option("--seeds", default=4, show_default=True)
def uniqueness_probe(config_path, inits, seeds):
    """Compare steady temperatures across distinct initial conditions."""
    values, setup = _load_setup(config_path)
    if len(inits) < 2 or len(set(inits)) < len(inits):
        click.echo("need at least two distinct initial conditions", err=True)
        sys.exit(1)
    if seeds < 2:
        click.echo("need at least two seeds per initial condition", err=True)
        sys.exit(1)
    # Distinct seeds, so that the samples compared are independent; a
    # derived seed outside [0, 2^63) is a config error.
    with _config_errors():
        jobs = [(dataclasses.replace(setup.engine,
                                     seed=setup.engine.seed + i * seeds + k),
                 setup.model, dataclasses.replace(setup.init, kind=kind))
                for i, kind in enumerate(inits) for k in range(seeds)]
    _check_starts(jobs)
    results = {}
    runs = zip(jobs, run_many(jobs))
    for kind in inits:
        temps, m2s = [], []
        for (cfg, _, _), (_, report) in itertools.islice(runs, seeds):
            if not report.converged:
                click.echo(f"init {kind} seed {cfg.seed}: not converged", err=True)
                sys.exit(2)
            temps.append(report.temperature)
            m2s.append(report.moments[2.0])
        results[kind] = (np.array(temps), np.array(m2s))
    ref = inits[0]
    worst = 0.0
    for kind in inits[1:]:
        for idx, label in ((0, "temperature"), (1, "m2")):
            z = abs(two_sample_z(results[ref][idx], results[kind][idx]))
            worst = max(worst, z)
            click.echo(f"{ref} vs {kind} {label}: z={z:.2f}")
    sys.exit(0 if worst < 3.0 else 1)


if __name__ == "__main__":  # pragma: no cover
    main()
