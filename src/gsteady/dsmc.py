"""Stochastic particle engine for the diffusively driven inelastic gas.

Each step splits the dynamics into a Brownian bath kick (exact
Euler-Maruyama form of the Laplacian forcing), a majorant-rate collision
sweep (Poisson candidate count, acceptance |u|/U_max, uniform scattering
direction) and a momentum recentering.  All randomness comes
from counter-based Philox streams keyed by (seed, step, substream), so a
run is bit-reproducible from its configuration alone.  Independent runs go
through run_many, which spreads them over a fork process pool.

Each candidate draws two uniforms for its scattering direction from the
collision stream, and the sweep turns only the accepted candidates' pairs
of uniforms into unit vectors.  The next step's bath kick is a function of (seed, step, N,
its scale) alone: once a step has its own kick, it starts the next one on
the helper thread (`_draw_ahead`) and runs meanwhile, and the next step
takes it if its key matches.  The kick holds the same numbers as an inline
one, so the helper changes no trajectory bit.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import _helper, _kernels
from .dissipation import DissipationSpec, dissipation_functional, psi_e
from .errors import ConfigError, InputError, TimeStepError
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
# Ensemble fields a snapshot carries besides N, as (ints, floats): the clock,
# the step count and the ledger, so a loaded ensemble resumes the Philox
# streams where it stopped.
_SNAPSHOT_INTS = ("step_count", "n_collisions")
_SNAPSHOT_FLOATS = ("t", "bath_energy", "collision_loss", "recenter_energy",
                    "collision_prob_ema")


def _stream(seed: int, step: int, substream: int) -> np.random.Generator:
    """Counter-based generator for one (step, substream) slot."""
    return np.random.Generator(np.random.Philox(key=[seed, (step << 2) | substream]))


# The one pending prefetched kick, {key: (helper, buffer)}.  A kick is a pure
# function of its key, so a hit is correct for any caller: two ensembles, a
# resumed snapshot or a retried step need no bookkeeping.
_pending: dict = {}


def _draw_kick(key, out) -> None:
    """Fill `out` with the bath kick of key (seed, step, shape, scale), bit
    for bit as `normal(0.0, scale, size=out.shape)` from the step's bath
    stream, which computes 0.0 + scale * z (so -0.0 becomes +0.0)."""
    seed, step, _, scale = key
    _stream(seed, step, _STREAM_BATH).standard_normal(out=out)
    out *= scale
    out += 0.0


def _drop_pending() -> None:
    _helper.join()
    _pending.clear()


def _bath_kick(key) -> np.ndarray:
    """The bath kick of key (seed, step, shape, scale), as a new array the
    caller owns: the pending one if its key is this one (dict.pop is atomic,
    so no two callers get one buffer), otherwise drawn inline."""
    hit = _pending.pop(key, None)
    if hit is None:
        _drop_pending()
        kick = np.empty(key[2])
        _draw_kick(key, kick)
    else:
        helper, kick = hit
        helper.wait()
    return kick


def _draw_ahead(key) -> None:
    """Start the bath kick of key (seed, step, shape, scale) on the helper
    thread, into the pending slot, if it has `_helper.MIN_SIZE` elements or
    more; a smaller kick is drawn by the step that needs it.  The buffer is
    allocated here: a thread that allocates grows the peak RSS by more than
    the array (glibc gives threads their own arenas)."""
    if math.prod(key[2]) >= _helper.MIN_SIZE:
        kick = np.empty(key[2])
        _pending[key] = (_helper.Helper(
            "gsteady-step-helper", functools.partial(_draw_kick, key, kick)),
            kick)


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


def step(ens: Ensemble, config: EngineConfig, model: RestitutionModel) -> Ensemble:
    """Advance the ensemble by one time step.

    The step is built in a new velocity array and commits once, after its
    last check: `ens.velocities` is replaced by that array and the counters
    move.  A step that raises leaves the ensemble and its energy ledger as
    they were.

    The collision stream gives, in this order, the candidate count m, the
    pairs, the m accept variates and an (m, 2) array of direction uniforms;
    the sweep turns an accepted candidate's row into its scattering
    direction.  Once it has its own kick, the step starts the helper thread
    on the bath kick of step `ens.step_count + 1` if that has at least
    `_helper.MIN_SIZE` (2^15) elements (N >= 2^15 / 3), to be taken by the
    next step with the same (seed, step, N, scale) key.  It is drawn exactly
    as an inline kick, so runs stay bit-reproducible; a step holds one extra
    velocity array while it runs.
    """
    n = ens.n
    dt = config.dt

    bath = 0.0
    if config.mu > 0.0:
        key = (config.seed, ens.step_count, ens.velocities.shape,
               math.sqrt(2.0 * config.mu * dt))
        vel = _bath_kick(key)
        _draw_ahead((key[0], key[1] + 1) + key[2:])
        vel += ens.velocities
        bath = float(np.einsum("ij,ij->", vel, vel)) - ens.energy()
    else:
        vel = ens.velocities.copy()

    vmax = math.sqrt(float(np.max(np.einsum("ij,ij->i", vel, vel))))
    if not math.isfinite(vmax):
        raise TimeStepError("non-finite velocity; check dt and mu")
    umax = _UMAX_FACTOR * 2.0 * vmax
    accepted = 0
    loss = 0.0
    m = 0
    if umax > 0.0:
        rng = _stream(config.seed, ens.step_count, _STREAM_COLLIDE)
        m = int(rng.poisson((n - 1) * umax * dt / 2.0))
    if m > 0:
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n - 1, size=m)
        jj = jj + (jj >= ii)
        accept_u = rng.random(m)
        dirs = rng.random((m, 2))
        accepted, loss = _kernels.apply_collisions(
            vel, ii, jj, accept_u, dirs, umax, model)

    ema = 0.9 * ens.collision_prob_ema + 0.1 * (2.0 * accepted / n)
    if ens.step_count > 20 and ema > 0.2:
        raise TimeStepError(
            f"per-particle collision probability per step "
            f"{ema:.3f} exceeds 0.2; reduce dt")

    # vel.mean(axis=0) bit for bit: both add the rows in order, but the
    # reduce runs an inner loop of length 3.
    mean = np.einsum("ij->j", vel) / n
    vel -= mean

    ens.velocities = vel
    ens.bath_energy += bath
    ens.n_collisions += accepted
    ens.collision_loss += loss
    ens.collision_prob_ema = ema
    ens.recenter_energy -= n * float(mean @ mean)
    ens.t += dt
    ens.step_count += 1
    return ens


def _fit_slope(ts: np.ndarray, ys: np.ndarray) -> float:
    t0 = ts - ts.mean()
    denom = float(t0 @ t0)
    if denom == 0.0:
        return 0.0
    return float(t0 @ (ys - ys.mean())) / denom


def run_to_steady(config: EngineConfig, model: RestitutionModel,
                  init: InitialCondition):
    """Iterate steps until the energy slope over the trailing window is flat.

    Returns (ensemble, report).  Non-convergence within max_steps yields a
    report with converged=False rather than an exception.
    """
    ens = initial_ensemble(config, init)
    spec = DissipationSpec(model)
    series: list[tuple] = []
    converged = False

    while ens.step_count < config.max_steps:
        step(ens, config, model)
        if ens.step_count % config.sample_every != 0:
            continue
        row = (ens.step_count, ens.t, *moments(ens).values(),
               dissipation_functional(
                   ens.velocities, lambda r2: psi_e(spec, r2), config.diss_pairs,
                   _stream(config.seed, ens.step_count, _STREAM_DIAG)),
               ens.collision_prob())
        series.append(row)
        if len(series) >= config.window:
            tail = series[-config.window:]
            ts = np.array([r[1] for r in tail])
            m1s = np.array([r[2] for r in tail])
            slope = _fit_slope(ts, m1s)
            span = ts[-1] - ts[0]
            if abs(slope) * span < config.tol * float(np.mean(m1s)):
                converged = True
                break

    window = series[-config.window:] if series else []
    arr = np.array(window) if window else np.zeros((0, len(SERIES_COLUMNS)))
    means = arr.mean(axis=0) if len(arr) else np.full(len(SERIES_COLUMNS), np.nan)
    tail = tail_integral(ens, default_tail_rate(ens))
    report = SteadyReport(
        temperature=float(means[2]) / 3.0,
        moments=dict(zip(DEFAULT_P_SET, map(float, means[2:6]))),
        diss_estimate=float(means[6]),
        tail_a=tail.a,
        tail_value=tail.value,
        tail_max_share=tail.max_share,
        steps=ens.step_count,
        converged=converged,
        collision_prob=ens.collision_prob(),
        series=series,
    )
    return ens, report


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_many(jobs) -> list:
    """run_to_steady for each (config, model, init) job, in job order.

    The jobs run in a fork process pool with one worker per usable core (at
    most one per job), or in this process when that is one worker or the
    platform cannot fork.  Each run depends only on its job, so the results
    are bit-identical for any worker count; a worker's exception reaches the
    caller with its original type.  The workers use no helper thread
    (`_helper.run_inline`): on a 2-core host, eight N=2e4 runs in two
    workers took 11.1-11.2 s that way, and 11.7-11.9 s with a bath-kick
    prefetch thread in each worker.
    """
    jobs = list(jobs)
    workers = min(_usable_cores(), len(jobs))
    if workers > 1:
        # Imported here: these modules add about 0.6 MB to a process, and
        # most processes (simulate, verify) never start a pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork,
                                     initializer=_helper.run_inline) as pool:
                return list(pool.map(run_to_steady, *zip(*jobs)))
    return [run_to_steady(*job) for job in jobs]


def save_snapshot(path, ens: Ensemble) -> None:
    """Header line (size, clock and ledger) plus raw little-endian float64
    velocities."""
    fields = [f"N={ens.n}"]
    fields += [f"{name}={int(getattr(ens, name))}" for name in _SNAPSHOT_INTS]
    fields += [f"{name}={float(getattr(ens, name))!r}"
               for name in _SNAPSHOT_FLOATS]
    header = f"{SNAPSHOT_MAGIC} {' '.join(fields)}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(ens.velocities, dtype="<f8").tobytes())


def load_snapshot(path) -> Ensemble:
    """Read a GSTEADY2 snapshot; header fields it does not use are ignored.

    Any other header is rejected, the older format's included: it carries no
    step count, so a run resumed from it would replay the early Philox
    streams."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if not header or header[0] != SNAPSHOT_MAGIC:
            raise InputError(f"not a {SNAPSHOT_MAGIC} snapshot")
        try:
            fields = dict(item.split("=", 1) for item in header[1:])
            n = int(fields["N"])
            state = {name: int(fields[name]) for name in _SNAPSHOT_INTS}
            state.update((name, float(fields[name]))
                         for name in _SNAPSHOT_FLOATS)
        except (KeyError, ValueError):
            raise InputError("malformed snapshot header") from None
        body = fh.read()
    if n < 2 or len(body) != 24 * n:
        raise InputError(f"snapshot body holds {len(body)} bytes; "
                         f"N={n} needs {24 * n}")
    data = np.frombuffer(body, dtype="<f8").reshape(n, 3)
    if not np.all(np.isfinite(data)):
        raise InputError("snapshot holds a non-finite velocity")
    return Ensemble(velocities=data.copy(), **state)
