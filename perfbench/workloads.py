"""The benchmark's workloads: set-up, one round of work, and the checks on a
round's outputs.

Every round of a run repeats the same work, drawn from the run's seed, so the
rounds of a run cost the same and must give bit-identical results.  The
workloads call gsteady only through module attributes (``dsmc.step``, not a
name imported from it), so a traced run sees every call.  Each check is
computed here, apart from the program, or follows from a property the method
must have; none compares against stored output.
"""

from __future__ import annotations

import csv
import hashlib
from types import SimpleNamespace

import numpy as np

import gsteady
from gsteady import (cli, config, dissipation, dsmc, observables, povzner,
                     restitution, scaling, verify)

# A steadiness tolerance that is met whenever the window fills: each run to
# steady then takes exactly max_steps = window * sample_every steps.  Every
# run starts from a Maxwellian at the Gaussian-closure temperature, so it is
# at steady state from its first step.
STEADY_TOL = 0.5

# Energy ledger E_end - E_0 = bath + recenter - loss, relative to E_end.
LEDGER_TOL = 1e-12
# Steady temperature against the Gaussian closure (which is good to about
# 1.5 %).
TEMPERATURE_TOL = 0.05
# The dissipation rates against the bath input 6 mu and against each other.
# Collisions act after the bath kick, which raises the temperature by
# delta = 2 mu dt / T (about 3 % in both engine workloads), while the pair
# estimator sees the ensemble after the collisions; the ledger rate exceeds
# it by O(delta), 2-5 % here, and each estimate carries 1-1.5 % noise.
RATE_TOL = 0.08
# Realised collisions per step against (N-1)/2 dt E|u| of the sampled
# ensemble: the same splitting raises the realised rate by up to delta/2.
COLLISION_RATE_TOL = 0.04
# Viscoelastic implicit law e + a (lam r)^{1/5} e^{3/5} = 1.
IMPLICIT_TOL = 1e-12
# Closed form of psi_e for a constant restitution coefficient.
CLOSED_FORM_TOL = 1e-12
# Two-sample z-score of each steady moment, physical against rescaled side.
Z_LIMIT = 5.0

_CONFIG = """\
engine.N = {n}
engine.dt = {dt!r}
engine.mu = {mu!r}
engine.seed = {seed}
{law}
restitution.lambda = {lam!r}
init.kind = maxwellian
init.T0 = {t0!r}
run.max_steps = {steps}
run.window = {window}
run.sample_every = {sample_every}
run.tol = {tol!r}
run.diss_pairs = {diss_pairs}
"""


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one use, fixed by the run's seed and the use's keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class Round:
    """Runs a round's operations in order and counts those that completed."""

    def __init__(self):
        self.done = 0

    def op(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.done += 1
        return out


def _check(name: str, value, ok) -> tuple:
    return (name, float(value), bool(ok))


def _ratio_check(name: str, value: float, target: float, tol: float) -> tuple:
    return _check(name, value / target, abs(value / target - 1.0) <= tol)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


class _EngineWorkload:
    """One run to steady of the rescaled problem, set up through the config
    parser as `gsteady simulate` and `sweep-lambda` set it up."""

    law = ""          # restitution lines of the config
    lam = 1.0
    n = 0
    dt = 0.04
    window = 2
    sample_every = 10
    diss_pairs = 0

    @property
    def steps(self) -> int:
        return self.window * self.sample_every

    def _model(self):
        raise NotImplementedError

    def setup(self, seed: int, outdir):
        model = self._model()
        spec = dissipation.DissipationSpec(model)
        t0 = dissipation.steady_temperature_ansatz(spec, self.lam)
        mu = self.lam ** model.gamma
        values = config.parse_config_text(_CONFIG.format(
            n=self.n, dt=self.dt, mu=mu, seed=derive_seed(seed, 1), law=self.law,
            lam=self.lam, t0=t0, steps=self.steps, window=self.window,
            sample_every=self.sample_every, tol=STEADY_TOL,
            diss_pairs=self.diss_pairs))
        run = config.build_setup(values)
        ens0 = dsmc.initial_ensemble(run.engine, run.init)
        return SimpleNamespace(seed=seed, model=model, run=run, values=values,
                               t0=t0, mu=mu, e0=ens0.energy())

    def counts(self, s, out) -> tuple[int, int]:
        """(particle steps, accepted collisions) of one round."""
        return out.ens.n * out.ens.step_count, out.ens.n_collisions

    def digest(self, out) -> str:
        return _digest(out.ens.velocities, [out.ens.collision_loss])

    def _engine_checks(self, s, ens, rep) -> list[tuple]:
        energy = ens.energy()
        ledger = energy - s.e0 - (ens.bath_energy + ens.recenter_energy
                                  - ens.collision_loss)
        six_mu = 6.0 * s.mu
        return [
            _check("steps", ens.step_count,
                   ens.step_count == self.steps and rep.converged),
            _check("ledger_residual_rel", abs(ledger) / energy,
                   abs(ledger) <= LEDGER_TOL * energy),
            _ratio_check("ledger_loss_rate_over_6mu",
                         ens.collision_loss / (ens.n * ens.t), six_mu, RATE_TOL),
            _ratio_check("pair_estimator_over_6mu", rep.diss_estimate, six_mu,
                         RATE_TOL),
        ]


class SteadyPowerlaw(_EngineWorkload):
    """Production-size power-law run, written out as `simulate` writes it and
    measured against the limit Maxwellian as `sweep-lambda` measures it."""

    name = "steady_powerlaw"
    law = "restitution.kind = power_law\nrestitution.a = 1.0\nrestitution.gamma = 0.2"
    lam = 0.1
    n = 100_000
    window = 2
    sample_every = 10
    diss_pairs = 100_000
    ops = 6
    report_columns = ("temperature", "m1", "m3_2", "m2", "m3", "diss_estimate",
                      "six_mu", "tail_A", "tail_value", "max_share", "steps",
                      "converged")

    def _model(self):
        return restitution.power_law(1.0, 0.2)

    def setup(self, seed: int, outdir):
        s = super().setup(seed, outdir)
        s.theta = dissipation.theta_limit(s.model.a, s.model.gamma).theta
        s.manifest = (f"# gsteady-manifest {cli.manifest_hash(s.values)} "
                      f"version={gsteady.__version__}")
        s.paths = {kind: outdir / f"{self.name}_{kind}"
                   for kind in ("series.csv", "report.csv", "snapshot.bin")}
        return s

    def run(self, s, rnd: Round):
        ens, rep = rnd.op(dsmc.run_to_steady, s.run.engine, s.run.model, s.run.init)
        rnd.op(cli.write_csv, s.paths["series.csv"], dsmc.SERIES_COLUMNS,
               rep.series, s.manifest)
        rnd.op(cli.write_csv, s.paths["report.csv"], self.report_columns, [(
            rep.temperature, rep.moments[1.0], rep.moments[1.5], rep.moments[2.0],
            rep.moments[3.0], rep.diss_estimate, 6.0 * s.mu, rep.tail_a,
            rep.tail_value, rep.tail_max_share, rep.steps, int(rep.converged))],
            s.manifest)
        rnd.op(dsmc.save_snapshot, s.paths["snapshot.bin"], ens)
        dist = rnd.op(observables.maxwellian_distance, ens, s.theta)
        tail = rnd.op(observables.tail_integral, ens,
                      observables.default_tail_rate(ens))
        return SimpleNamespace(ens=ens, rep=rep, dist=dist, tail=tail)

    def check(self, s, out) -> list[tuple]:
        ens, rep = out.ens, out.rep
        vel = ens.velocities
        n = ens.n
        checks = self._engine_checks(s, ens, rep)
        momentum = float(np.linalg.norm(vel.sum(axis=0)))
        checks.append(_check("momentum_rel", momentum / np.abs(vel).sum(),
                             momentum <= 1e-12 * np.abs(vel).sum()))
        checks.append(_ratio_check("temperature_over_closure", rep.temperature,
                                   s.t0, TEMPERATURE_TOL))
        # Each unordered pair collides at rate |u|, so a step realises
        # (N-1)/2 dt E|u| collisions on average.
        rng = np.random.default_rng(derive_seed(s.seed, 2))
        ii = rng.integers(0, n, size=200_000)
        jj = rng.integers(0, n - 1, size=200_000)
        jj += jj >= ii
        mean_speed = float(np.mean(np.linalg.norm(vel[ii] - vel[jj], axis=1)))
        checks.append(_ratio_check(
            "collisions_per_step_over_pair_rate", ens.n_collisions / ens.step_count,
            0.5 * (n - 1) * s.run.engine.dt * mean_speed, COLLISION_RATE_TOL))
        checks.append(_check("series_csv_matches",
                             len(rep.series), self._csv_matches(
                                 s.paths["series.csv"], s.manifest,
                                 dsmc.SERIES_COLUMNS, rep.series)))
        checks.append(_check("report_csv_rows", 1, self._csv_matches(
            s.paths["report.csv"], s.manifest, self.report_columns, None)))
        back = dsmc.load_snapshot(s.paths["snapshot.bin"])
        checks.append(_check("snapshot_roundtrip", back.n, back.t == ens.t
                             and np.array_equal(back.velocities, vel)))
        dist, tail = out.dist, out.tail
        checks.append(_check("maxwellian_distance_hist", dist.d_hist,
                             np.isfinite(dist.d_moment) and 0.0 <= dist.d_hist <= 2.0))
        checks.append(_check("tail_value", tail.value,
                             tail.value >= 1.0 and 0.0 < tail.max_share < 1.0))
        return checks

    @staticmethod
    def _csv_matches(path, manifest, columns, rows) -> bool:
        """The file holds the manifest line, the header and `rows` exactly
        (any single data row when `rows` is None)."""
        with open(path, newline="") as fh:
            first = fh.readline().rstrip("\r\n")
            body = list(csv.reader(fh))
        if first != manifest or tuple(body[0]) != tuple(columns):
            return False
        if rows is None:
            return len(body) == 2 and len(body[1]) == len(columns)
        return [[float(x) for x in row] for row in body[1:]] == \
            [[float(x) for x in row] for row in rows]


class ViscoDiag(_EngineWorkload):
    """Viscoelastic run whose pair dissipation estimator is sampled often."""

    name = "visco_diag"
    law = "restitution.kind = viscoelastic\nrestitution.a = 1.0"
    lam = 0.5
    n = 20_000
    window = 2
    sample_every = 10
    diss_pairs = 10_000
    ops = 1

    def _model(self):
        return restitution.viscoelastic(1.0)

    def run(self, s, rnd: Round):
        ens, rep = rnd.op(dsmc.run_to_steady, s.run.engine, s.run.model, s.run.init)
        return SimpleNamespace(ens=ens, rep=rep)

    def check(self, s, out) -> list[tuple]:
        ens, rep = out.ens, out.rep
        checks = self._engine_checks(s, ens, rep)
        checks.append(_ratio_check(
            "pair_estimator_over_ledger_loss_rate", rep.diss_estimate,
            ens.collision_loss / (ens.n * ens.t), RATE_TOL))
        # Impact speeds from pairs of the steady ensemble, spread over the
        # whole range by a uniform factor.
        rng = np.random.default_rng(derive_seed(s.seed, 2))
        vel = ens.velocities
        ii = rng.integers(0, ens.n, size=10_000)
        jj = rng.integers(0, ens.n, size=10_000)
        r = np.linalg.norm(vel[ii] - vel[jj], axis=1) * rng.random(10_000)
        e = np.asarray(restitution.eval_e(s.run.model, r))
        a = s.run.model.a
        resid = np.abs(e + a * (self.lam * r) ** 0.2 * e ** 0.6 - 1.0)
        checks.append(_check("implicit_law_residual", resid.max(),
                             resid.max() <= IMPLICIT_TOL
                             and np.all((e > 0.0) & (e <= 1.0))))
        return checks


class VerifyAll:
    """`gsteady verify all` plus the Povzner battery on every law: no engine."""

    name = "verify_all"
    battery_p = (2.0, 3.0)
    battery_pairs = 1000
    ops = 1 + len(battery_p) * len(verify._models())

    def setup(self, seed: int, outdir):
        laws = verify._models()
        rng = np.random.default_rng(derive_seed(seed, 1))
        r = 10.0 ** rng.uniform(-4.0, 4.0, size=64)
        specs = {e0: dissipation.DissipationSpec(restitution.constant(e0))
                 for e0 in (0.3, 0.8)}
        return SimpleNamespace(seed=seed, laws=laws, r=r, specs=specs)

    def run(self, s, rnd: Round):
        rows = rnd.op(verify.run_suite, "all")
        rng = np.random.default_rng(derive_seed(s.seed, 2))
        batteries = {(p, name): rnd.op(povzner.battery, p, model,
                                       self.battery_pairs, rng)
                     for p in self.battery_p for name, model in s.laws.items()}
        return SimpleNamespace(rows=rows, batteries=batteries)

    def counts(self, s, out) -> tuple[int, int]:
        return 0, 0

    def digest(self, out) -> str:
        return _digest([m for _, m, _ in out.rows],
                       *(norms for _, norms in out.batteries.values()))

    def check(self, s, out) -> list[tuple]:
        checks = [_check("suite_rows", len(out.rows), len(out.rows) > 0)]
        checks += [_check(f"row[{name}]", margin, ok and margin >= 0.0)
                   for name, margin, ok in out.rows]
        for (p, name), (margins, norms) in out.batteries.items():
            checks.append(_check(
                f"battery[p={p:g},{name}]", norms.min(),
                len(norms) == self.battery_pairs and np.all(np.isfinite(margins))
                and norms.min() >= 0.0))
        for e0, spec in s.specs.items():
            exact = (1.0 - e0 * e0) * s.r ** 1.5 / 8.0
            err = float(np.max(np.abs(dissipation.psi_e(spec, s.r) / exact - 1.0)))
            checks.append(_check(f"psi_e_closed_form[e0={e0}]", err,
                                 err <= CLOSED_FORM_TOL))
        return checks


class Replicas:
    """Scaling-equivalence replicas: many short runs at small N."""

    name = "replicas"
    lambdas = (0.5, 0.2)
    replicas = 10
    n = 4000
    window = 10
    sample_every = 5
    ops = len(lambdas)

    def setup(self, seed: int, outdir):
        model = restitution.power_law(1.0, 0.2)
        spec = dissipation.DissipationSpec(model)
        closure = {lam: dissipation.steady_temperature_ansatz(spec, lam)
                   for lam in self.lambdas}
        steps = self.window * self.sample_every
        base = dsmc.EngineConfig(n=self.n, dt=0.02, mu=1.0, max_steps=steps,
                                 window=self.window, sample_every=self.sample_every,
                                 tol=STEADY_TOL, diss_pairs=2000)
        seeds = [derive_seed(seed, 1, k) for k in range(self.replicas)]
        return SimpleNamespace(model=model, closure=closure, base=base,
                               seeds=seeds, steps=steps)

    def run(self, s, rnd: Round):
        reports = [rnd.op(scaling.scaling_equivalence_test, s.base, s.model, lam,
                          s.seeds, init_t0=s.closure[lam])
                   for lam in self.lambdas]
        return SimpleNamespace(reports=reports)

    def counts(self, s, out) -> tuple[int, int]:
        # Both sides of every replica run exactly s.steps steps (see STEADY_TOL);
        # the reports carry no collision counts.
        runs = 2 * len(s.seeds) * len(self.lambdas)
        return runs * self.n * s.steps, 0

    def digest(self, out) -> str:
        return _digest(*([*rep.moments_physical.values(),
                          *rep.moments_rescaled.values()] for rep in out.reports))

    def check(self, s, out) -> list[tuple]:
        checks = []
        for rep in out.reports:
            lam = rep.lam
            checks.append(_check(f"converged[lam={lam}]", rep.all_converged,
                                 rep.all_converged))
            for p, z in rep.z_scores.items():
                checks.append(_check(f"z[lam={lam},p={p:g}]", z, abs(z) < Z_LIMIT))
            checks.append(_ratio_check(
                f"rescaled_temperature_over_closure[lam={lam}]",
                rep.moments_rescaled[1.0] / 3.0, s.closure[lam], TEMPERATURE_TOL))
        return checks


WORKLOADS = {w.name: w for w in (SteadyPowerlaw, ViscoDiag, VerifyAll, Replicas)}
