"""Stochastic particle engine for the diffusively driven inelastic gas.

Each step splits the dynamics into a Brownian bath kick (exact
Euler-Maruyama form of the Laplacian forcing), a majorant-rate collision
sweep (Poisson candidate count, acceptance |u|/U_max, uniform scattering
direction) and a momentum recentering.  All randomness comes
from counter-based Philox streams keyed by (seed, step, substream), so a
run is bit-reproducible from its configuration alone.

Independent runs go through run_many, which gives each worker of a fork
process pool a round-robin share of the jobs (all of them when it runs in
this process).  The runs of a share advance in lockstep, one step at a
time (`_step_all`): each run kicks and draws its candidates from its own
streams, then the runs of one restitution law go through one collision
sweep, their velocities concatenated.  The sweep's cost is mostly per
round, so runs that share it share that cost; they share no particle, so
each run is bit-identical to its run alone.  `step` and `run_to_steady` are
the same path on one run.  A run that raises stops alone, the other runs
finish, and run_many raises the exception of the lowest failed job index.

Each candidate draws two uniforms for its scattering direction from the
collision stream, and the sweep turns only the accepted candidates' pairs
of uniforms into unit vectors.  A step's bath kick depends on no velocity,
so each run of the lockstep loop queues its next step's kick on the
process's one long-lived helper thread and holds it until that step
(`_Run.move`); a lone `step` draws its kick inline.  The kick holds the
same numbers either way, so the helper changes no trajectory bit.  The
kick is the helper's only task: the series' pair dissipation estimate
takes one sampled node of psi_e's integral per pair (`_Run.sample`).
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _helper, _kernels
from .dissipation import dissipation_functional, psi_e_sample
from .errors import ConfigError, InputError, MajorantViolation, TimeStepError
from .observables import DEFAULT_P_SET, default_tail_rate, moments, tail_integral
from .restitution import RestitutionModel

_STREAM_BATH = 0
_STREAM_COLLIDE = 1
_STREAM_INIT = 2
_STREAM_DIAG = 3

# The majorant rate is U_max = _UMAX_FACTOR * 2 max|v|, max|v| taken after the
# kick.  A collision dissipates energy, so a particle it speeds up meets one
# that has not collided at |u| <= (1 + sqrt 2) max|v|: the factor must stay
# above (1 + sqrt 2)/2 = 1.207 for that one-collision bound, and 1.25 sits
# above it (see `_kernels`).  Changing the factor changes every trajectory.
_UMAX_FACTOR = 1.25

SNAPSHOT_MAGIC = "GSTEADY2"
# Ensemble fields a snapshot carries besides N, each with its type and the
# values [low, high) a run reaches: the clock, the step count and the
# ledger, so a loaded ensemble resumes the Philox streams where it stopped.
# The floats are finite (their lowest low is the least float, not -inf, and
# NaN fails every comparison).  A step count of 2^61 or more would make key
# words (step << 2) | substream that numpy passes through float64 (see
# EngineConfig's seed check).
_FINITE = (float, -sys.float_info.max, math.inf)
_SNAPSHOT_FIELDS = (
    ("step_count", int, 0, 2 ** 61), ("n_collisions", int, 0, 2 ** 61),
    ("t", *_FINITE), ("bath_energy", *_FINITE),
    ("collision_loss", float, 0.0, math.inf), ("recenter_energy", *_FINITE),
    ("collision_prob_ema", float, 0.0, math.inf))


def _stream(seed: int, step: int, substream: int) -> np.random.Generator:
    """Counter-based generator for one (step, substream) slot."""
    return np.random.Generator(np.random.Philox(key=[seed, (step << 2) | substream]))


def _draw_kick(seed: int, step: int, scale: float, out) -> None:
    """Fill `out` with the bath kick of a step, bit for bit as
    `normal(0.0, scale, size=out.shape)` from the step's bath stream, which
    computes 0.0 + scale * z (so -0.0 becomes +0.0)."""
    _stream(seed, step, _STREAM_BATH).standard_normal(out=out)
    out *= scale
    out += 0.0


@dataclass
class EngineConfig:
    n: int
    dt: float
    mu: float
    seed: int = 0
    max_steps: int = 20000
    window: int = 200
    tol: float = 0.01
    sample_every: int = 10
    diss_pairs: int = 100_000

    def __post_init__(self):
        # A float count aliases seeds (1.5 runs seed 1's streams), rounds
        # or fails later with a bare TypeError.
        for name in ("n", "seed", "max_steps", "window", "sample_every",
                     "diss_pairs"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n < 2:
            raise ConfigError("need at least 2 particles")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError("dt must be finite and positive")
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ConfigError("bath strength mu must be finite and non-negative")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError("tol must be finite and positive")
        if self.window < 2 or self.sample_every < 1:
            raise ConfigError("invalid steady-detection window")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if self.diss_pairs < 1:
            raise ConfigError("diss_pairs must be at least 1")
        # Philox keys at or above 2^63 pass through float64 in numpy, so two
        # such seeds can share a stream (2^63 and 2^63 + 1 do).
        if not 0 <= self.seed < 2 ** 63:
            raise ConfigError("seed must lie in [0, 2^63)")


@dataclass
class Ensemble:
    """N equal-weight velocities plus the simulation clock and counters."""

    velocities: np.ndarray
    t: float = 0.0
    step_count: int = 0
    n_collisions: int = 0
    bath_energy: float = 0.0
    collision_loss: float = 0.0
    recenter_energy: float = 0.0
    collision_prob_ema: float = 0.0

    @property
    def n(self) -> int:
        return self.velocities.shape[0]

    def energy(self) -> float:
        v = self.velocities
        return float(np.einsum("ij,ij->", v, v))

    def collision_prob(self) -> float:
        """Realised per-particle collision probability per step (0 before
        the first step): each collision moves two particles."""
        if self.step_count == 0:
            return 0.0
        return 2.0 * self.n_collisions / (self.n * self.step_count)


_INIT_KINDS = ("maxwellian", "bimodal", "uniform_ball")


@dataclass(frozen=True)
class InitialCondition:
    kind: str = "maxwellian"
    t0: float = 1.0
    v0: float = 1.0
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _INIT_KINDS:
            raise ConfigError(f"init.kind must be one of {list(_INIT_KINDS)}, "
                              f"got {self.kind!r}")
        if not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise ConfigError("init.T0 must be finite and positive")
        # v0 and R are speeds: one whose square rounds to 0 or overflows
        # starts the ensemble at rest or at infinite energy.
        for key, value in (("v0", self.v0), ("R", self.radius)):
            if not (value > 0.0 and 0.0 < value * value < math.inf):
                raise ConfigError(f"init.{key} must be finite and positive, "
                                  "with a square above 0 and below inf")


@dataclass
class SteadyReport:
    temperature: float
    moments: dict
    diss_estimate: float
    tail_a: float
    tail_value: float
    tail_max_share: float
    steps: int
    converged: bool
    collision_prob: float
    series: list = field(default_factory=list, repr=False)

SERIES_COLUMNS = ("step", "t", "m1", "m3_2", "m2", "m3",
                  "diss_estimate", "collision_prob")


def initial_ensemble(config: EngineConfig, init: InitialCondition) -> Ensemble:
    """Build a centered initial ensemble from its specification."""
    rng = _stream(config.seed, 0, _STREAM_INIT)
    n = config.n
    if init.kind == "maxwellian":
        vel = rng.normal(0.0, math.sqrt(init.t0), size=(n, 3))
    elif init.kind == "bimodal":
        half = n // 2
        vel = np.zeros((n, 3))
        vel[:half, 0] = init.v0
        vel[half:, 0] = -init.v0
        vel += rng.normal(0.0, 1e-3 * init.v0, size=(n, 3))
    else:  # uniform_ball
        raw = rng.normal(size=(n, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        vel = init.radius * raw * rng.random(n)[:, None] ** (1.0 / 3.0)
    vel -= vel.mean(axis=0)
    if init.kind == "maxwellian":
        # Pin the empirical temperature exactly at t0.
        with np.errstate(over="ignore"):  # an overflow is rejected below
            m1 = float(np.mean(np.einsum("ij,ij->i", vel, vel)))
        if m1 > 0.0:  # 0 only if every square underflows: rejected below
            vel *= math.sqrt(3.0 * init.t0 / m1)
    ens = Ensemble(velocities=np.ascontiguousarray(vel, dtype=np.float64))
    # Each scale passed its own check, but N particles can still sum to an
    # energy that overflows, or underflows to 0.
    energy = ens.energy()
    if not 0.0 < energy < math.inf:
        key, value = {"maxwellian": ("T0", init.t0), "bimodal": ("v0", init.v0),
                      "uniform_ball": ("R", init.radius)}[init.kind]
        raise ConfigError(f"init.{key} = {value!r} gives N={n} particles the "
                          f"energy {energy!r}; it must lie above 0 and below inf")
    return ens


class _Move:
    """One run's step while it is built: the kicked velocities, the bath
    energy, U_max and the collision variates, then the sweep's outcome.
    Nothing here touches the ensemble until `commit`.  The kick is drawn
    here unless the helper thread fills it: `kick` is (future, buffer)."""

    error = None
    m = 0
    accepted = 0
    loss = 0.0

    def __init__(self, ens: Ensemble, config: EngineConfig,
                 model: RestitutionModel, kick=None):
        self.ens, self.config, self.model = ens, config, model
        n = ens.n
        dt = config.dt
        self.bath = 0.0
        if config.mu > 0.0:
            if kick is None:
                vel = np.empty((n, 3))
                scale = math.sqrt(2.0 * config.mu * dt)
                _draw_kick(config.seed, ens.step_count, scale, vel)
            else:
                future, vel = kick
                future.result()
            vel += ens.velocities
            self.bath = float(np.einsum("ij,ij->", vel, vel)) - ens.energy()
        else:
            vel = ens.velocities.copy()
        self.vel = vel

        vmax = math.sqrt(float(np.max(np.einsum("ij,ij->i", vel, vel))))
        if not math.isfinite(vmax):
            self.error = TimeStepError("non-finite velocity; check dt and mu")
            return
        self.umax = _UMAX_FACTOR * 2.0 * vmax
        if self.umax > 0.0:
            rng = _stream(config.seed, ens.step_count, _STREAM_COLLIDE)
            self.m = int(rng.poisson((n - 1) * self.umax * dt / 2.0))
        if self.m > 0:
            self.ii = rng.integers(0, n, size=self.m)
            jj = rng.integers(0, n - 1, size=self.m)
            self.jj = jj + (jj >= self.ii)
            self.accept_u = rng.random(self.m)
            self.dirs = rng.random((self.m, 2))

    def commit(self) -> None:
        """Check the collision rate, recenter and commit the step, or set
        `error` and leave the ensemble as it was."""
        ens = self.ens
        n = ens.n
        ema = 0.9 * ens.collision_prob_ema + 0.1 * (2.0 * self.accepted / n)
        if ens.step_count > 20 and ema > 0.2:
            self.error = TimeStepError(
                f"per-particle collision probability per step "
                f"{ema:.3f} exceeds 0.2; reduce dt")
            return
        vel = self.vel
        # vel.mean(axis=0) bit for bit: both add the rows in order, but the
        # reduce runs an inner loop of length 3.
        mean = np.einsum("ij->j", vel) / n
        vel -= mean

        ens.velocities = vel
        ens.bath_energy += self.bath
        ens.n_collisions += self.accepted
        ens.collision_loss += self.loss
        ens.collision_prob_ema = ema
        ens.recenter_energy -= n * float(mean @ mean)
        ens.t += self.config.dt
        ens.step_count += 1


def _sweep(moves: list) -> None:
    """The collision sweep of moves, runs of one law, as one
    `_kernels.apply_collisions` call.

    One run sweeps its own velocity array.  Several are concatenated, each
    run's particle indices offset by the particles before it and its U_max
    repeated for each of its candidates; afterwards each run's velocities
    are its slice of the concatenation.  Runs share no particle, so every
    run sees what it would see alone, bit for bit.  A sweep that raises
    MajorantViolation is rerun one run at a time from the runs' own, still
    kicked, arrays, to find the runs that raised.
    """
    if len(moves) == 1:
        [mv] = moves
        try:
            mv.accepted, mv.loss, _, _ = _kernels.apply_collisions(
                mv.vel, mv.ii, mv.jj, mv.accept_u, mv.dirs, mv.umax, mv.model)
        except MajorantViolation as exc:
            mv.error = exc
        return
    starts = np.cumsum([0] + [mv.ens.n for mv in moves])
    vel = np.concatenate([mv.vel for mv in moves])
    try:
        _, _, collided, terms = _kernels.apply_collisions(
            vel,
            np.concatenate([mv.ii + s for mv, s in zip(moves, starts)]),
            np.concatenate([mv.jj + s for mv, s in zip(moves, starts)]),
            np.concatenate([mv.accept_u for mv in moves]),
            np.concatenate([mv.dirs for mv in moves]),
            np.repeat([mv.umax for mv in moves], [mv.m for mv in moves]),
            moves[0].model)
    except MajorantViolation:
        for mv in moves:
            _sweep([mv])
        return
    lo = 0
    for mv, start, stop in zip(moves, starts, starts[1:]):
        hi = lo + mv.m
        mv.accepted = int(np.count_nonzero(collided[lo:hi]))
        # Added in candidate order, as the run's own sweep adds its loss.
        mv.loss = float(np.cumsum(terms[lo:hi])[-1])
        mv.vel = vel[start:stop]
        lo = hi


def _step_all(moves) -> list:
    """Finish the built moves, one per run: the runs of one law share one
    sweep (`_sweep`), and each run's step commits on its own.  Return, per
    move, None or the TimeStepError or MajorantViolation that stopped its
    step, whose ensemble is then left as it was."""
    laws: dict = {}
    for mv in moves:
        if mv.error is None and mv.m > 0:
            laws.setdefault(mv.model, []).append(mv)
    for group in laws.values():
        _sweep(group)
    for mv in moves:
        if mv.error is None:
            mv.commit()
    return [mv.error for mv in moves]


def step(ens: Ensemble, config: EngineConfig, model: RestitutionModel) -> Ensemble:
    """Advance the ensemble by one time step: `_step_all` on one run.

    The step is built in a new velocity array and commits once, after its
    last check: `ens.velocities` is replaced by that array and the counters
    move.  A step that raises leaves the ensemble and its energy ledger as
    they were.

    The collision stream gives, in this order, the candidate count m, the
    pairs, the m accept variates and an (m, 2) array of direction uniforms;
    the sweep turns an accepted candidate's row into its scattering
    direction.  The bath kick is drawn inline: only the runs of
    `run_to_steady` and `run_many` draw kicks ahead (`_Run.move`).
    """
    [error] = _step_all([_Move(ens, config, model)])
    if error is not None:
        raise error
    return ens


def _fit_slope(ts: np.ndarray, ys: np.ndarray) -> float:
    t0 = ts - ts.mean()
    denom = float(t0 @ t0)
    if denom == 0.0:
        return 0.0
    return float(t0 @ (ys - ys.mean())) / denom


class _Run:
    """A run to steady in progress: its job, its ensemble, its series and
    `ahead`, the (future, buffer) of its next kick if the helper draws it."""

    ahead = None

    def __init__(self, config: EngineConfig, model: RestitutionModel,
                 init: InitialCondition):
        self.config = config
        self.model = model
        self.ens = initial_ensemble(config, init)
        self.series: list[tuple] = []
        self.converged = False

    def move(self) -> _Move:
        """This step's move, on the kick drawn ahead for it, if any.  The next
        kick, of `_helper.MIN_SIZE` (2^15) elements or more, is queued first,
        unless this is the run's last step by max_steps: the helper runs
        tasks in order, so it draws this step's kick first and the next one
        while this step sweeps.  Its buffer is allocated here, as one a
        thread allocates grows the peak RSS by more than its size (glibc
        gives threads their own arenas)."""
        ens, config = self.ens, self.config
        kick, self.ahead = self.ahead, None
        if (config.mu > 0.0 and 3 * ens.n >= _helper.MIN_SIZE
                and ens.step_count + 1 < config.max_steps):
            buffer = np.empty((ens.n, 3))
            scale = math.sqrt(2.0 * config.mu * config.dt)
            self.ahead = (_helper.submit(_draw_kick, config.seed,
                                         ens.step_count + 1, scale, buffer), buffer)
        return _Move(ens, config, self.model, kick)

    def sample(self) -> bool:
        """After a step, take the series row if one is due and test the
        trailing window; True once the run is done, steady or at
        max_steps.

        The row's diss_estimate is the pair mean of psi_e with one sampled
        node per pair (`dissipation.psi_e_sample`): the step's diagnostic
        stream gives diss_pairs pairs, then one uniform per pair."""
        ens, config = self.ens, self.config
        if ens.step_count % config.sample_every == 0:
            rng = _stream(config.seed, ens.step_count, _STREAM_DIAG)
            self.series.append((
                ens.step_count, ens.t, *moments(ens).values(),
                dissipation_functional(
                    ens.velocities,
                    lambda r2: psi_e_sample(self.model, r2, rng.random(r2.shape)),
                    config.diss_pairs, rng),
                ens.collision_prob()))
            if len(self.series) >= config.window:
                tail = self.series[-config.window:]
                ts = np.array([r[1] for r in tail])
                m1s = np.array([r[2] for r in tail])
                span = ts[-1] - ts[0]
                if abs(_fit_slope(ts, m1s)) * span < config.tol * float(np.mean(m1s)):
                    self.converged = True
        return self.converged or ens.step_count >= config.max_steps

    def report(self):
        """(ensemble, SteadyReport) of the finished run; the ensemble owns
        its velocity array (a shared sweep leaves it a slice)."""
        ens, series = self.ens, self.series
        if ens.velocities.base is not None:
            ens.velocities = ens.velocities.copy()
        means = (np.array(series[-self.config.window:]).mean(axis=0) if series
                 else np.full(len(SERIES_COLUMNS), np.nan))
        tail = tail_integral(ens, default_tail_rate(ens))
        return ens, SteadyReport(
            temperature=float(means[2]) / 3.0,
            moments=dict(zip(DEFAULT_P_SET, map(float, means[2:6]))),
            diss_estimate=float(means[6]),
            tail_a=tail.a,
            tail_value=tail.value,
            tail_max_share=tail.max_share,
            steps=ens.step_count,
            converged=self.converged,
            collision_prob=ens.collision_prob(),
            series=series,
        )


def _run_lockstep(jobs) -> list:
    """run_to_steady for each (config, model, init) job, the runs advancing
    together one step at a time (`_step_all`); a run leaves when it is
    steady or at its max_steps.

    Returns, per job, (ensemble, report) or the exception that stopped it.
    A run that raises ConfigError at its start, or TimeStepError or
    MajorantViolation in a step, stops alone; every other run finishes.
    """
    outcomes: list = [None] * len(jobs)
    live = []
    for k, job in enumerate(jobs):
        try:
            live.append((k, _Run(*job)))
        except ConfigError as exc:
            outcomes[k] = exc
    while live:
        errors = _step_all([run.move() for _, run in live])
        for (k, run), error in zip(live, errors):
            if error is not None:
                outcomes[k] = error
            elif run.sample():
                outcomes[k] = run.report()
        live = [(k, run) for k, run in live if outcomes[k] is None]
    return outcomes


def run_to_steady(config: EngineConfig, model: RestitutionModel,
                  init: InitialCondition):
    """Iterate steps until the energy slope over the trailing window is flat.

    Returns (ensemble, report).  Non-convergence within max_steps yields a
    report with converged=False rather than an exception.  This is
    run_many on one job, which runs in this process, so a run gives the
    same bits alone and in a batch.
    """
    [outcome] = run_many([(config, model, init)])
    return outcome


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_many(jobs) -> list:
    """run_to_steady for each (config, model, init) job, in job order.

    The jobs run in a fork process pool with one worker per usable core (at
    most one per job), or all in this process when that is one worker or
    the platform cannot fork.  Worker w holds the jobs w, w + workers,
    w + 2 workers, ..., and its runs advance in lockstep, one step at a
    time: the runs of one restitution law share each step's collision sweep,
    whose cost is mostly per round (`_step_all`).  Runs share no particle
    and draw from their own Philox streams, so the results are bit-identical
    to serial run_to_steady calls, for any worker count.

    A run that fails stops alone; every other run of its batch finishes.
    Workers return exceptions as values, and run_many raises the one of the
    lowest failed job index, with its original type, as a loop of
    run_to_steady calls would.

    A fork first waits for the kick draws queued on this process's helper
    thread, and a child would start a helper thread of its own; the workers
    start none and draw every kick inline (`_helper.run_inline`): on a
    2-core host, eight N=2e4 runs in two workers took 11.1-11.2 s that way,
    and 11.7-11.9 s with a bath-kick prefetch thread in each worker.
    """
    jobs = list(jobs)
    workers = min(_usable_cores(), len(jobs))
    shares = None
    if workers > 1:
        # Imported here: these modules add about 0.6 MB to a process, and
        # most processes (simulate, verify) never start a pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork,
                                     initializer=_helper.run_inline) as pool:
                shares = list(pool.map(_run_lockstep, [
                    jobs[w::workers] for w in range(workers)]))
    if shares is None:
        workers, shares = 1, [_run_lockstep(jobs)]
    outcomes = [shares[k % workers][k // workers] for k in range(len(jobs))]
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def save_snapshot(path, ens: Ensemble) -> None:
    """Header line (size, clock and ledger) plus raw little-endian float64
    velocities."""
    fields = [f"N={ens.n}"] + [f"{name}={kind(getattr(ens, name))!r}"
                               for name, kind, _, _ in _SNAPSHOT_FIELDS]
    header = f"{SNAPSHOT_MAGIC} {' '.join(fields)}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(ens.velocities, dtype="<f8").tobytes())


def load_snapshot(path) -> Ensemble:
    """Read a GSTEADY2 snapshot; header fields it does not use are ignored.

    Any other header is rejected, the older format's included: it carries no
    step count, so a run resumed from it would replay the early Philox
    streams.  So is a value outside its range in `_SNAPSHOT_FIELDS`."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if not header or header[0] != SNAPSHOT_MAGIC:
            raise InputError(f"not a {SNAPSHOT_MAGIC} snapshot")
        try:
            fields = dict(item.split("=", 1) for item in header[1:])
            n = int(fields["N"])
            state = {name: kind(fields[name])
                     for name, kind, _, _ in _SNAPSHOT_FIELDS}
        except (KeyError, ValueError):
            raise InputError("malformed snapshot header") from None
        body = fh.read()
    for name, _, low, high in _SNAPSHOT_FIELDS:
        if not low <= state[name] < high:  # NaN fails too
            raise InputError(f"snapshot header {name}={state[name]!r} must be "
                             f"finite and in [{low:g}, {high:g})")
    if n < 2 or len(body) != 24 * n:
        raise InputError(f"snapshot body holds {len(body)} bytes; "
                         f"N={n} needs {24 * n}")
    data = np.frombuffer(body, dtype="<f8").reshape(n, 3)
    if not np.all(np.isfinite(data)):
        raise InputError("snapshot holds a non-finite velocity")
    return Ensemble(velocities=data.copy(), **state)
