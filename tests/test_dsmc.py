import copy
import dataclasses
import hashlib
import math
import os
import re
import select
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsteady import _helper, dsmc
from gsteady.config import build_setup, parse_config_text
from gsteady.dissipation import dissipation_functional, psi_e_sample
from gsteady.dsmc import (EngineConfig, InitialCondition, initial_ensemble,
                          load_snapshot, run_many, run_to_steady,
                          save_snapshot, step)
from gsteady.errors import (ConfigError, InputError, MajorantViolation,
                            TimeStepError)
from gsteady.restitution import (constant, elastic, power_law, rescale,
                                 viscoelastic)


def small_config(**kw):
    base = dict(n=400, dt=0.01, mu=0.05, seed=9, max_steps=200, window=20,
                sample_every=5, diss_pairs=2000)
    base.update(kw)
    return EngineConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(n=1, dt=0.01, mu=0.1)
    with pytest.raises(ConfigError):
        EngineConfig(n=10, dt=0.0, mu=0.1)
    with pytest.raises(ConfigError):
        EngineConfig(n=10, dt=0.01, mu=-1.0)
    with pytest.raises(ConfigError):
        EngineConfig(n=10, dt=0.01, mu=0.1, window=1)
    with pytest.raises(ConfigError):
        EngineConfig(n=10, dt=0.01, mu=0.1, tol=0.0)
    # A step count or diagnostic pair count below 1 would give a NaN
    # temperature or estimate, or a bare numpy error.
    for key, value in (("max_steps", 0), ("max_steps", -3), ("diss_pairs", 0),
                       ("diss_pairs", -5)):
        with pytest.raises(ConfigError, match=f"{key} must be at least 1"):
            EngineConfig(n=10, dt=0.01, mu=0.1, **{key: value})
    # The majorant factor is a fixed constant, not a setting.
    text = ("engine.N = 10\nengine.dt = 0.01\nengine.mu = 0.1\n"
            "restitution.kind = constant\nrestitution.e0 = 0.5\n")
    with pytest.raises(ConfigError, match="unknown key 'engine.umax_factor'"):
        parse_config_text(text + "engine.umax_factor = 2.0\n")


@pytest.mark.parametrize("key", ["dt", "mu", "tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(key, value):
    with pytest.raises(ConfigError):
        EngineConfig(**{"n": 10, "dt": 0.01, "mu": 0.1, key: value})
    cfg_key = {"dt": "engine.dt", "mu": "engine.mu", "tol": "run.tol"}[key]
    text = ("engine.N = 10\nengine.dt = 0.01\nengine.mu = 0.1\n"
            "restitution.kind = constant\nrestitution.e0 = 0.5\n")
    with pytest.raises(ConfigError, match=cfg_key):
        build_setup(parse_config_text(text + f"{cfg_key} = {value}\n"))


@pytest.mark.parametrize("key", ["n", "seed", "max_steps", "window",
                                 "sample_every", "diss_pairs"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3"])
def test_config_rejects_non_integral_counts(key, value):
    """A float count would alias seeds (1.5 runs seed 1's streams), round
    (sample_every=1.5 samples every 3 steps) or fail later with a bare
    TypeError; numpy integers pass."""
    base = dict(n=10, dt=0.01, mu=0.1)
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        EngineConfig(**{**base, key: value})
    cfg = EngineConfig(**{**base, key: np.int64(4)})
    assert getattr(cfg, key) == 4


def test_initial_conditions():
    cfg = small_config(n=4000)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=0.7))
    sq = np.einsum("ij,ij->i", ens.velocities, ens.velocities)
    assert np.mean(sq) == pytest.approx(3 * 0.7, rel=1e-12)
    assert np.max(np.abs(ens.velocities.mean(axis=0))) < 1e-12

    bi = initial_ensemble(cfg, InitialCondition("bimodal", v0=2.0))
    speeds = np.linalg.norm(bi.velocities, axis=1)
    assert np.all(np.abs(speeds - 2.0) < 0.1)

    ball = initial_ensemble(cfg, InitialCondition("uniform_ball", radius=1.5))
    assert np.max(np.linalg.norm(ball.velocities, axis=1)) <= 1.5 + 0.1

    with pytest.raises(ConfigError):
        initial_ensemble(cfg, InitialCondition("bogus"))


@pytest.mark.parametrize("field, key", [("v0", "init.v0"), ("radius", "init.R")])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf,
                                   1e-200, 1e160])
def test_initial_condition_rejects_non_positive_scale(field, key, value):
    """A bimodal start at v0 = 0 (or a ball of radius 0) would put every
    particle at rest; a negative one is no start at all.  So would a v0 or R
    whose square rounds to 0 (at mu = 0, simulate then ran to max_steps and
    exited 2), and one whose square overflows starts at infinite energy."""
    message = f"{key} must be finite and positive"
    with pytest.raises(ConfigError, match=message):
        InitialCondition("bimodal", **{field: value})
    if math.isfinite(value):
        text = ("engine.N = 10\nengine.dt = 0.01\nengine.mu = 0.0\n"
                "restitution.kind = constant\nrestitution.e0 = 0.5\n"
                "init.kind = bimodal\n")
        with pytest.raises(ConfigError, match=message):
            build_setup(parse_config_text(text + f"{key} = {value}\n"))


@pytest.mark.parametrize("init, key", [
    (InitialCondition("bimodal", v0=1e154), "init.v0 = 1e+154"),
    (InitialCondition("uniform_ball", radius=1e154), "init.R = 1e+154"),
    (InitialCondition("maxwellian", t0=1e306), "init.T0 = 1e+306"),
])
def test_initial_ensemble_energy_must_be_finite(init, key):
    """Each scale passes its own check, but 400 particles sum to an energy
    that overflows; the Maxwellian start then rescaled every velocity to 0.
    Either is a ConfigError naming the key, with no numpy warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(
                f"{key} gives N=400 particles the energy")):
            initial_ensemble(small_config(), init)


def test_bath_only_energy_growth():
    """With elastic collisions, which lose no energy, the mean-square speed
    grows at the bath rate 6 mu."""
    cfg = small_config(n=5000, mu=0.1, dt=0.01)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    e0 = ens.energy() / cfg.n
    for _ in range(500):
        step(ens, cfg, elastic())
    growth = ens.energy() / cfg.n - e0
    expect = 6.0 * cfg.mu * ens.t
    se = math.sqrt(4.0 * 3.0 * expect / cfg.n)
    assert abs(growth - expect) < 3.0 * se
    assert ens.n_collisions > 0
    assert ens.collision_loss == 0.0


def test_energy_bookkeeping_exact():
    cfg = small_config(n=800, mu=0.05, dt=0.01)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    e0 = ens.energy()
    for _ in range(300):
        step(ens, cfg, viscoelastic(1.0))
    lhs = ens.bath_energy + ens.recenter_energy - ens.collision_loss
    rhs = ens.energy() - e0
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)
    assert ens.n_collisions > 0


def test_recentering_pins_momentum():
    cfg = small_config(n=1000, mu=0.2)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    for _ in range(50):
        step(ens, cfg, power_law(1.0, 0.2))
        rms = math.sqrt(ens.energy() / cfg.n)
        assert np.max(np.abs(ens.velocities.mean(axis=0))) < 1e-12 * rms
    assert np.all(np.isfinite(ens.velocities))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 200_000), log_scale=st.floats(-5.0, 5.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_recentering_mean_is_numpy_mean(n, log_scale, seed):
    """The step's recentering mean, einsum("ij->j") / n, equals
    vel.mean(axis=0) bit for bit: both add the rows in order."""
    rng = np.random.default_rng(seed)
    vel = rng.normal(size=(n, 3)) * 10.0 ** log_scale + rng.normal(size=3)
    np.testing.assert_array_equal(np.einsum("ij->j", vel) / n,
                                  vel.mean(axis=0))


def test_determinism_bitwise():
    cfg = small_config(seed=77)
    model = viscoelastic(1.0)
    runs = []
    for _ in range(2):
        ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
        for _ in range(100):
            step(ens, cfg, model)
        runs.append(ens.velocities.copy())
    np.testing.assert_array_equal(runs[0], runs[1])
    other = initial_ensemble(dataclasses.replace(cfg, seed=78),
                             InitialCondition("maxwellian", t0=1.0))
    for _ in range(100):
        step(other, dataclasses.replace(cfg, seed=78), model)
    assert not np.array_equal(runs[0], other.velocities)


def test_majorant_violation_raises(monkeypatch):
    # U_max about 0.5: small enough that typical relative speeds (~2.4 at
    # T0=1) exceed it, large enough that candidates are actually drawn.
    monkeypatch.setattr(dsmc, "_UMAX_FACTOR", 1.0 / 15.0)
    cfg = small_config(dt=0.1)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    with pytest.raises(MajorantViolation):
        for _ in range(50):
            step(ens, cfg, elastic())


def _ledger_state(ens):
    return (ens.velocities.copy(), ens.t, ens.step_count, ens.n_collisions,
            ens.bath_energy, ens.collision_loss, ens.recenter_energy,
            ens.collision_prob_ema)


def _assert_ledger_exact(ens, e0):
    lhs = ens.bath_energy + ens.recenter_energy - ens.collision_loss
    assert abs(ens.energy() - e0 - lhs) <= 1e-12 * ens.energy()


def test_failed_step_restores_state(monkeypatch):
    """A step that raises leaves the ensemble exactly as it found it."""
    # U_max about 3: two candidates collide before one exceeds it.
    monkeypatch.setattr(dsmc, "_UMAX_FACTOR", 0.355)
    cfg = EngineConfig(n=2000, dt=0.01, mu=0.0, seed=4)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    e0 = ens.energy()
    before = _ledger_state(ens)
    with pytest.raises(MajorantViolation):
        step(ens, cfg, constant(0.5))
    after = _ledger_state(ens)
    np.testing.assert_array_equal(after[0], before[0])
    assert after[1:] == before[1:]
    _assert_ledger_exact(ens, e0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 400), dt=st.floats(1e-3, 0.1), mu=st.floats(0.0, 2.0),
       lam=st.floats(1e-3, 1.0),
       law=st.sampled_from([constant(0.3), power_law(1.0, 0.2),
                            viscoelastic(1.0)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ledger_exact_property(n, dt, mu, lam, law, seed):
    """E - E0 = bath + recenter - loss to round-off on every law, odd N
    included, up to the first step that raises TimeStepError."""
    cfg = EngineConfig(n=n, dt=dt, mu=mu, seed=seed)
    model = rescale(law, lam)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    e0 = ens.energy()
    for _ in range(30):
        try:
            step(ens, cfg, model)
        except TimeStepError:
            break
        _assert_ledger_exact(ens, e0)
    _assert_ledger_exact(ens, e0)


def test_time_step_error_on_large_dt():
    """The collision-probability check raises before the step commits: the
    ensemble keeps the state it had before the raising step."""
    cfg = small_config(n=400, dt=2.0, mu=0.0)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=4.0))
    e0 = ens.energy()
    with pytest.raises(TimeStepError, match="collision probability"):
        for _ in range(100):
            before = _ledger_state(ens)
            step(ens, cfg, elastic())
    after = _ledger_state(ens)
    np.testing.assert_array_equal(after[0], before[0])
    assert after[1:] == before[1:]
    _assert_ledger_exact(ens, e0)


def test_elastic_no_bath_converges_immediately():
    cfg = small_config(mu=0.0, max_steps=500, window=10)
    ens, rep = run_to_steady(cfg, elastic(),
                             InitialCondition("maxwellian", t0=0.9))
    assert rep.converged
    assert rep.temperature == pytest.approx(0.9, rel=1e-10)


def test_cooling_never_steady():
    cfg = small_config(n=600, mu=0.0, dt=0.02, max_steps=300, window=50,
                       sample_every=1, tol=1e-3)
    ens, rep = run_to_steady(cfg, power_law(1.0, 0.2),
                             InitialCondition("maxwellian", t0=1.0))
    assert not rep.converged
    m1s = [row[2] for row in rep.series]
    assert m1s[-1] < m1s[0]
    # Trailing-window averages decrease monotonically.
    arr = np.array(m1s)
    win = 50
    means = [arr[k:k + win].mean() for k in range(0, len(arr) - win, win // 2)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_steady_report_fields():
    cfg = small_config(n=2000, mu=0.05, dt=0.02, max_steps=2000, window=40,
                       sample_every=5, tol=0.02)
    ens, rep = run_to_steady(cfg, power_law(1.0, 0.2),
                             InitialCondition("maxwellian", t0=0.5))
    assert rep.converged
    assert rep.temperature == pytest.approx(rep.moments[1.0] / 3.0, rel=1e-12)
    assert set(rep.moments) == {1.0, 1.5, 2.0, 3.0}
    assert rep.diss_estimate > 0.0
    assert rep.tail_value > 0.0
    assert rep.collision_prob == ens.collision_prob() > 0.0
    assert rep.series[-1][-1] == rep.collision_prob
    assert len(rep.series) >= cfg.window


def test_collision_prob_matches_pair_rate():
    """Each unordered pair collides at rate |u|, so a particle collides with
    probability (N-1)/N dt E|u| per step.  Elastic and without a bath the
    ensemble stays at equilibrium and no splitting bias enters."""
    cfg = small_config(n=2000, dt=0.04, mu=0.0, seed=3, max_steps=300,
                       window=30, sample_every=10, diss_pairs=1000)
    ens, rep = run_to_steady(cfg, elastic(),
                             InitialCondition("maxwellian", t0=1.0))
    assert rep.steps == 300
    # (N-1)/N E|u| over sampled pairs of the final ensemble.
    mean_speed = dissipation_functional(ens.velocities, np.sqrt, 200_000,
                                        np.random.default_rng(1))
    # n_collisions is a Poisson count.
    se = 2.0 * math.sqrt(ens.n_collisions) / (cfg.n * rep.steps)
    assert abs(rep.collision_prob - cfg.dt * mean_speed) < 3.0 * se


def test_snapshot_roundtrip(tmp_path):
    cfg = small_config()
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    for _ in range(10):
        step(ens, cfg, viscoelastic(1.0))
    path = tmp_path / "snap.bin"
    save_snapshot(path, ens)
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii")
    assert header.startswith(f"GSTEADY2 N={cfg.n} step_count=10 ")
    back = load_snapshot(path)
    np.testing.assert_array_equal(back.velocities, ens.velocities)
    assert _ledger_state(back)[1:] == _ledger_state(ens)[1:]


def test_snapshot_rejects_gsteady1(tmp_path):
    """The older header has no step count, so resuming from it would replay
    the early Philox streams."""
    vel = np.arange(12, dtype=float).reshape(4, 3)
    path = tmp_path / "old.bin"
    path.write_bytes(b"GSTEADY1 N=4 t=0.25\n" + vel.astype("<f8").tobytes())
    with pytest.raises(InputError, match="not a GSTEADY2 snapshot"):
        load_snapshot(path)


def test_snapshot_ignores_extra_header_fields(tmp_path):
    """A GSTEADY2 header that still carries the retired n_candidates field
    loads bit for bit."""
    cfg = small_config()
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    for _ in range(5):
        step(ens, cfg, constant(0.5))
    path = tmp_path / "snap.bin"
    save_snapshot(path, ens)
    header, body = path.read_bytes().split(b"\n", 1)
    old = header.replace(b" n_collisions=", b" n_candidates=12345 n_collisions=")
    assert old != header
    path.write_bytes(old + b"\n" + body)
    back = load_snapshot(path)
    np.testing.assert_array_equal(back.velocities, ens.velocities)
    assert _ledger_state(back)[1:] == _ledger_state(ens)[1:]


def test_snapshot_resume_bit_identical(tmp_path):
    """7 steps, save, load, 5 more steps equals 12 uninterrupted steps."""
    cfg = small_config(seed=31, dt=0.05)
    model = power_law(1.0, 0.2)
    init = InitialCondition("maxwellian", t0=1.0)
    ref = initial_ensemble(cfg, init)
    e0 = ref.energy()
    for _ in range(12):
        step(ref, cfg, model)
    ens = initial_ensemble(cfg, init)
    for _ in range(7):
        step(ens, cfg, model)
    path = tmp_path / "snap.bin"
    save_snapshot(path, ens)
    resumed = load_snapshot(path)
    for _ in range(5):
        step(resumed, cfg, model)
    got, want = _ledger_state(resumed), _ledger_state(ref)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    assert resumed.n_collisions > 0
    _assert_ledger_exact(resumed, e0)


def test_snapshot_with_nan_rejected(tmp_path):
    cfg = small_config()
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    ens.velocities[17, 1] = math.nan
    path = tmp_path / "snap.bin"
    save_snapshot(path, ens)
    with pytest.raises(InputError, match="non-finite"):
        load_snapshot(path)


@pytest.mark.parametrize("field,value", [
    ("step_count", "-3"), ("step_count", str(10 ** 20)),
    ("step_count", str(2 ** 61)), ("n_collisions", "-7"),
    ("n_collisions", str(10 ** 400)), ("t", "nan"), ("bath_energy", "inf"),
    ("recenter_energy", "-inf"), ("collision_loss", "-1e-300"),
    ("collision_prob_ema", "nan"), ("collision_prob_ema", "-0.5"),
])
def test_snapshot_rejects_out_of_range_header(tmp_path, field, value):
    """A header value no run reaches is an InputError, not a NaN clock, an
    infinite ledger, a negative collision probability, a rate check that a
    NaN switches off, or a bare OverflowError from the Philox key at the
    next step, or a step count whose Philox key word numpy would pass
    through float64, aliasing streams.  The largest step count that keeps
    its key words exact loads and steps."""
    cfg = small_config()
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    path = tmp_path / "snap.bin"
    save_snapshot(path, ens)
    header, body = path.read_bytes().split(b"\n", 1)

    def load_with(text):
        edited = re.sub(rf" {field}=\S+".encode(), f" {field}={text}".encode(),
                        header)
        assert edited != header
        path.write_bytes(edited + b"\n" + body)
        return load_snapshot(path)

    with pytest.raises(InputError, match=f"snapshot header {field}="):
        load_with(value)
    if field == "step_count":
        back = load_with(str(2 ** 61 - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a float64 key
            step(back, cfg, constant(0.5))
        assert back.step_count == 2 ** 61


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_step_with_nan_raises_and_restores(mu):
    """A NaN velocity stops the step before the collisions, which would
    otherwise skip it (U_max is NaN) while recentering spreads it."""
    cfg = small_config(mu=mu)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    ens.velocities[17, 1] = math.nan
    before = _ledger_state(ens)
    with pytest.raises(TimeStepError, match="non-finite"):
        step(ens, cfg, power_law(1.0, 0.2))
    after = _ledger_state(ens)
    np.testing.assert_array_equal(after[0], before[0])
    assert after[1:] == before[1:]


def test_run_to_steady_passes_diss_pairs(monkeypatch):
    """run_to_steady hands run.diss_pairs to the pair diagnostic unchanged,
    above and below the ensemble's pair count alike."""
    seen = []
    real = dsmc.dissipation_functional

    def spy(vel, zeta, n_pairs, rng):
        seen.append(n_pairs)
        return real(vel, zeta, n_pairs, rng)

    monkeypatch.setattr(dsmc, "dissipation_functional", spy)
    for pairs in (50, 5_000_000):
        seen.clear()
        run_to_steady(small_config(n=40, max_steps=10, sample_every=5,
                                   diss_pairs=pairs),
                      constant(0.5), InitialCondition())
        assert seen == [pairs, pairs]


def test_diss_estimate_draws_pairs_then_one_uniform_per_pair():
    """A series row's diss_estimate, rebuilt by hand from the step's
    diagnostic stream: diss_pairs pairs first, then one uniform per pair
    for psi_e_sample's node, equals the run's bit for bit."""
    cfg = small_config(n=500, mu=0.3, seed=32, max_steps=10, window=2,
                       sample_every=5, diss_pairs=3000)
    model = rescale(viscoelastic(1.0), 0.5)
    ens, rep = run_to_steady(cfg, model, InitialCondition("maxwellian", t0=1.0))
    row = rep.series[-1]
    assert row[0] == ens.step_count
    rng = dsmc._stream(cfg.seed, ens.step_count, dsmc._STREAM_DIAG)
    n = ens.n
    ii = rng.integers(0, n, size=cfg.diss_pairs)
    jj = rng.integers(0, n - 1, size=cfg.diss_pairs)
    jj = jj + (jj >= ii)
    diff = ens.velocities[ii] - ens.velocities[jj]
    r2 = np.einsum("ij,ij->i", diff, diff)
    psi = psi_e_sample(model, r2, rng.random(cfg.diss_pairs))
    assert row[6] == (n - 1) / n * float(np.mean(psi)) > 0.0


@pytest.mark.parametrize("resize", [-10, 1])
def test_snapshot_wrong_size_rejected(tmp_path, resize):
    cfg = small_config()
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    path = tmp_path / "snap.bin"
    save_snapshot(path, ens)
    data = path.read_bytes()
    path.write_bytes(data[:resize] if resize < 0 else data + b"\0" * resize)
    with pytest.raises(InputError, match="bytes"):
        load_snapshot(path)


def _jobs():
    """Three laws, and two more power-law runs of other sizes that stop
    earlier: a batch holding jobs 0, 3 and 4 (one core) or 0 and 3 (three
    workers) or 0 and 4 (two) shares the power-law sweep and shrinks."""
    return [
        (small_config(seed=1), power_law(1.0, 0.2),
         InitialCondition("maxwellian", t0=1.0)),
        (small_config(seed=2, n=300), viscoelastic(1.0),
         InitialCondition("bimodal", v0=1.5)),
        (small_config(seed=3), constant(0.7),
         InitialCondition("uniform_ball", radius=2.0)),
        (small_config(seed=4, n=301, max_steps=120), power_law(1.0, 0.2),
         InitialCondition("bimodal", v0=1.2)),
        (small_config(seed=5, n=37, max_steps=55), power_law(1.0, 0.2),
         InitialCondition("maxwellian", t0=0.8)),
    ]


def _assert_runs_equal(got, want):
    assert len(got) == len(want)
    for (ens, rep), (ens_ref, rep_ref) in zip(got, want):
        np.testing.assert_array_equal(ens.velocities, ens_ref.velocities)
        assert _ledger_state(ens)[1:] == _ledger_state(ens_ref)[1:]
        assert rep.series == rep_ref.series
        assert (rep.temperature, rep.steps, rep.converged) == (
            rep_ref.temperature, rep_ref.steps, rep_ref.converged)


@pytest.mark.parametrize("cores", [3, 2, 1])
def test_run_many_matches_serial(monkeypatch, cores):
    """Pool (3 or 2 workers) and in-process (1 core) runs equal serial runs
    bit for bit, with runs of one law and of different N sharing a sweep
    and leaving their batch at different steps."""
    serial = [run_to_steady(*job) for job in _jobs()]
    assert len({rep.steps for _, rep in serial}) >= 3
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    sweeps = []
    sweep = dsmc._kernels.apply_collisions

    def spy(vel, *args):
        sweeps.append(len(vel))
        return sweep(vel, *args)

    monkeypatch.setattr(dsmc._kernels, "apply_collisions", spy)
    _assert_runs_equal(run_many(_jobs()), serial)
    if cores == 1:  # in this process: jobs 0, 3 and 4 share their sweeps
        assert {400 + 301 + 37, 400 + 301, 400} <= set(sweeps)


def _too_fast_jobs():
    """Job 0 fails late (collision probability about 0.21 per particle and
    step: TimeStepError at step 33), job 1 early (about 0.5: at step 21),
    job 2 not at all.  Jobs 0 and 1 share every elastic sweep."""
    base = dict(mu=0.0, max_steps=200, window=10, sample_every=5,
                diss_pairs=500)
    return [
        (small_config(n=2000, dt=0.093, seed=1, **base), elastic(),
         InitialCondition("maxwellian", t0=1.0)),
        (small_config(n=400, dt=0.22, seed=3, **base), elastic(),
         InitialCondition("maxwellian", t0=1.0)),
        _jobs()[0],
    ]


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_run_many_raises_first_failed_job(monkeypatch, cores):
    """However the jobs are split over workers, run_many raises the error
    of the lowest failed job index, as a loop of run_to_steady calls does:
    the late TimeStepError of job 0, not job 1's earlier one.  With a job
    that does not fail put first, the late failure is job 1 and the early
    one job 2, which two workers hold in the first worker's share."""
    jobs = _too_fast_jobs()
    with pytest.raises(TimeStepError) as late:
        run_to_steady(*jobs[0])
    with pytest.raises(TimeStepError) as early:
        run_to_steady(*jobs[1])
    assert str(late.value) != str(early.value)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    for batch in (jobs, jobs[2:] + jobs[:2]):
        with pytest.raises(TimeStepError) as got:
            run_many(batch)
        assert str(got.value) == str(late.value)


def test_failed_run_stops_alone():
    """A run that fails early stops alone in its batch: its outcome is the
    error it raises alone, and the run after it finishes as it does alone."""
    bad, ok = _too_fast_jobs()[1], _jobs()[0]
    with pytest.raises(TimeStepError) as alone:
        run_to_steady(*bad)
    got = dsmc._run_lockstep([bad, ok])
    assert isinstance(got[0], TimeStepError)
    assert str(got[0]) == str(alone.value)
    _assert_runs_equal(got[1:], [run_to_steady(*ok)])


def test_failed_start_does_not_stop_later_starts():
    """A job whose initial energy overflows fails its start with ConfigError;
    the job after it still starts and finishes as it does alone, and
    run_many raises the ConfigError."""
    bad = (small_config(), power_law(1.0, 0.2),
           InitialCondition("bimodal", v0=1e154))
    ok = _jobs()[0]
    got = dsmc._run_lockstep([bad, ok])
    assert isinstance(got[0], ConfigError)
    assert "init.v0 = 1e+154" in str(got[0])
    _assert_runs_equal(got[1:], [run_to_steady(*ok)])
    with pytest.raises(ConfigError, match="init.v0"):
        run_many([bad, ok])


def test_batch_finds_the_run_that_broke_a_shared_sweep():
    """A shared sweep that raises MajorantViolation is rerun one run at a
    time: the run that raises alone (job 1, at its fifth step) stops, and
    job 0, which shared that sweep, finishes as it does alone."""
    ok = (small_config(mu=0.0, max_steps=30), elastic(),
          InitialCondition("maxwellian", t0=1.0))
    bad = (EngineConfig(n=8, dt=2.0, mu=0.0, seed=35), elastic(),
           InitialCondition("maxwellian", t0=1.0))
    ens = initial_ensemble(bad[0], bad[2])
    with pytest.raises(MajorantViolation):
        for _ in range(20):
            step(ens, *bad[:2])
    assert ens.step_count == 4
    got = dsmc._run_lockstep([ok, bad])
    assert isinstance(got[1], MajorantViolation)
    _assert_runs_equal(got[:1], [run_to_steady(*ok)])
    with pytest.raises(MajorantViolation):
        run_many([ok, bad])


def test_run_many_reraises_worker_error(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    bad = (small_config(n=400, dt=2.0, mu=0.0), elastic(),
           InitialCondition("maxwellian", t0=4.0))
    with pytest.raises(TimeStepError):
        run_many([_jobs()[0], bad])


# The smallest N whose bath kick a run draws ahead on the helper thread.
N_PREFETCH = _helper.MIN_SIZE // 3 + 1


def _prefetch_config(**kw):
    base = dict(n=N_PREFETCH, dt=0.01, mu=0.3, seed=21)
    base.update(kw)
    return EngineConfig(**base)


def _stepped(cfg, model, init, steps):
    ens = initial_ensemble(cfg, init)
    for _ in range(steps):
        step(ens, cfg, model)
    return ens


def _assert_same_state(got, want):
    np.testing.assert_array_equal(got.velocities, want.velocities)
    assert _ledger_state(got)[1:] == _ledger_state(want)[1:]


@pytest.mark.parametrize("scale", [0.0, 5e-324, 0.37, 1.0, 1e300])
def test_kick_draw_is_normal_bit_for_bit(scale):
    """_draw_kick fills a buffer with exactly normal(0.0, scale), the sign
    of every zero included (numpy computes 0.0 + scale * z)."""
    out = np.empty((1000, 3))
    dsmc._draw_kick(31, 5, scale, out)
    want = dsmc._stream(31, 5, dsmc._STREAM_BATH).normal(0.0, scale,
                                                         size=out.shape)
    np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))


# Filled, in this process, by a kick draw on the helper thread that is
# still running when run_many forks its pool.
_PARENT_KICK: list = []
# The lockstep loop, for pool-worker stand-ins that replace it in run_many.
_run_lockstep = dsmc._run_lockstep


def _runs_and_parent_kick(share):
    """In a pool worker: the share's runs, each beside the parent's kick
    buffer as the fork left it."""
    return [(_PARENT_KICK[0].copy(), outcome)
            for outcome in _run_lockstep(share)]


def test_run_many_while_helper_draws_a_kick(monkeypatch):
    """A fork waits for the helper's queued tasks: run_many, started while
    a slow kick draw still runs on the parent's helper thread, hands its
    workers the finished buffer, and its runs equal the in-process runs."""
    cfg = _prefetch_config(seed=23, max_steps=10, window=2, sample_every=5,
                           diss_pairs=2000)
    jobs = [(cfg, power_law(1.0, 0.2), InitialCondition("maxwellian", t0=1.0)),
            (cfg, constant(0.7), InitialCondition("bimodal", v0=1.5))]
    serial = [run_to_steady(*job) for job in jobs]
    scale = math.sqrt(2.0 * cfg.mu * cfg.dt)
    want = np.empty((cfg.n, 3))
    dsmc._draw_kick(cfg.seed, 0, scale, want)

    def slow_draw(*args):
        time.sleep(0.3)
        dsmc._draw_kick(*args)

    _PARENT_KICK[:] = [np.zeros((cfg.n, 3))]
    pending = _helper.submit(slow_draw, cfg.seed, 0, scale, _PARENT_KICK[0])
    assert not pending.done()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(dsmc, "_run_lockstep", _runs_and_parent_kick)
    got = run_many(jobs)
    assert pending.done()
    for kick, _ in got:
        np.testing.assert_array_equal(kick, want)
    _assert_runs_equal([outcome for _, outcome in got], serial)


def _spy_helpers(monkeypatch):
    """Record the name of every task submitted to the helper from now on,
    and, as each task runs, its thread's ident and name and the number of
    gsteady helper threads alive."""
    started, ran = [], []
    submit = _helper.submit

    def spy(fn, *args):
        started.append(fn.__name__)

        def task():
            ran.append((threading.get_ident(), threading.current_thread().name,
                        sum(t.name.startswith("gsteady")
                            for t in threading.enumerate())))
            fn(*args)

        return submit(task)

    monkeypatch.setattr(_helper, "submit", spy)
    return started, ran


def _helper_run_config(**kw):
    base = dict(dt=0.2, max_steps=10, window=2, sample_every=5,
                diss_pairs=3000)
    base.update(kw)
    return _prefetch_config(**base)


def _helper_starts_in_worker(*job):
    """Run, in a pool worker, a run whose kicks are above the helper's
    threshold; return the threshold, the tasks submitted and whether the
    worker has no helper pool."""
    with pytest.MonkeyPatch.context() as patch:
        started, _ = _spy_helpers(patch)
        _run_lockstep([(_helper_run_config(max_steps=3), constant(0.6),
                        InitialCondition("maxwellian", t0=1.0))])
    return _helper.MIN_SIZE, started, _helper._pool is None


def _helper_starts_in_share(share):
    return [_helper_starts_in_worker(*job) for job in share]


@pytest.mark.parametrize("cores", [2, 3])
def test_pool_workers_draw_kicks_inline(monkeypatch, cores):
    """run_many's pool workers draw every kick inline, with no task
    submitted and no helper thread started, whether or not the pool leaves
    a core free; the parent process keeps the helper."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(dsmc, "_run_lockstep", _helper_starts_in_share)
    assert run_many(_jobs()[:2]) == [(math.inf, [], True)] * 2
    assert _helper.MIN_SIZE == 1 << 15


def _kicks_of(monkeypatch, call, *args):
    """call(*args) in this process; return the (seed, step) of each kick
    drawn on the main thread and the names of the tasks submitted."""
    inline = []
    draw = dsmc._draw_kick

    def draw_kick(seed, step, scale, out):
        if threading.current_thread() is threading.main_thread():
            inline.append((seed, step))
        draw(seed, step, scale, out)

    monkeypatch.setattr(dsmc, "_draw_kick", draw_kick)
    started, _ = _spy_helpers(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    call(*args)
    _helper.join()
    return sorted(inline), started


def test_run_takes_its_prefetched_kicks(monkeypatch):
    """An N_PREFETCH run_to_steady draws only its step-0 kick inline and
    takes the kick the helper drew ahead on every later step; its last step
    queues none."""
    cfg = _helper_run_config(seed=28)
    inline, started = _kicks_of(monkeypatch, run_to_steady, cfg, constant(0.6),
                                InitialCondition("maxwellian", t0=1.0))
    assert inline == [(28, 0)]
    assert started.count("draw_kick") == cfg.max_steps - 1


def test_batch_runs_take_their_prefetched_kicks(monkeypatch):
    """Two N_PREFETCH runs in one in-process batch each take the kick the
    helper drew ahead for them on every step after the first."""
    cfg = _helper_run_config(seed=28)
    inline, started = _kicks_of(monkeypatch, run_many, [
        (cfg, constant(0.6), InitialCondition("maxwellian", t0=1.0)),
        (dataclasses.replace(cfg, seed=29), viscoelastic(1.0),
         InitialCondition("bimodal", v0=1.5))])
    assert inline == [(28, 0), (29, 0)]
    assert started.count("draw_kick") == 2 * (cfg.max_steps - 1)


def test_step_draws_every_kick_inline(monkeypatch):
    """A lone step() draws its kick inline and submits no helper task, at
    N_PREFETCH as below it, and equals the steps of a run that took its
    kicks from the helper."""
    started, _ = _spy_helpers(monkeypatch)
    cfg = _helper_run_config(seed=30, max_steps=4)
    model = rescale(power_law(1.0, 0.2), 0.1)
    init = InitialCondition("maxwellian", t0=1.5)
    for n in (N_PREFETCH - 1, N_PREFETCH):
        ens = _stepped(dataclasses.replace(cfg, n=n), model, init, 4)
    assert started == [] and ens.bath_energy != 0.0
    ran, _ = run_to_steady(cfg, model, init)
    _helper.join()
    assert started == ["_draw_kick"] * 3
    _assert_same_state(ens, ran)


def test_no_prefetch_below_threshold(monkeypatch):
    """Below _helper.MIN_SIZE elements a run draws every kick inline, with
    no task submitted; at the threshold each step but the last submits one
    kick draw."""
    started, _ = _spy_helpers(monkeypatch)
    model = constant(0.6)
    init = InitialCondition("maxwellian", t0=1.0)
    base = dict(max_steps=3, window=2, sample_every=3, diss_pairs=100)
    run_to_steady(_prefetch_config(n=N_PREFETCH - 1, **base), model, init)
    assert started == []
    run_to_steady(_prefetch_config(**base), model, init)
    _helper.join()
    assert started == ["_draw_kick"] * 2


def test_helper_draws_equal_inline_draws(monkeypatch):
    """A run whose kicks come from the helper equals, bit for bit, the same
    run with the pool-worker switch set, where every kick is inline: the
    velocities, the ledger and every series row, diss_estimate included."""
    cfg = _helper_run_config(seed=24)
    model = rescale(power_law(1.0, 0.2), 0.3)
    init = InitialCondition("maxwellian", t0=1.0)
    started, _ = _spy_helpers(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        helped = run_to_steady(cfg, model, init)
    finally:
        sys.setswitchinterval(interval)
    _helper.join()
    assert started == ["_draw_kick"] * (cfg.max_steps - 1)
    monkeypatch.setattr(_helper, "MIN_SIZE", _helper.MIN_SIZE)  # restored
    _helper.run_inline()
    started.clear()
    inline = run_to_steady(cfg, model, init)
    assert started == []
    _assert_runs_equal([helped], [inline])
    assert helped[1].series[-1][6] == inline[1].series[-1][6] > 0.0


def test_violation_while_helper_draws(monkeypatch):
    """A run's step that raises MajorantViolation while the helper is still
    drawing the next step's kick leaves the ensemble as it was; step()
    carries it on from there to a clean run's state."""
    cfg = _helper_run_config(seed=25, mu=0.05, dt=0.4)
    model = constant(0.5)
    init = InitialCondition("maxwellian", t0=4.0)
    clean = _stepped(cfg, model, init, 4)
    run = dsmc._Run(cfg, model, init)
    assert dsmc._step_all([run.move()]) == [None]
    ens = run.ens
    before = _ledger_state(ens)
    draw = dsmc._draw_kick

    def slow_draw(seed, step, scale, out):
        if step == 2:  # the kick the raising step queues on the helper
            time.sleep(0.3)
        draw(seed, step, scale, out)

    with monkeypatch.context() as patch:
        patch.setattr(dsmc, "_draw_kick", slow_draw)
        patch.setattr(dsmc, "_UMAX_FACTOR", 0.355)
        [error] = dsmc._step_all([run.move()])
        pending, _ = run.ahead
        assert isinstance(error, MajorantViolation) and not pending.done()
    pending.result(timeout=30.0)
    after = _ledger_state(ens)
    np.testing.assert_array_equal(after[0], before[0])
    assert after[1:] == before[1:]
    for _ in range(3):
        step(ens, cfg, model)
    _assert_same_state(ens, clean)


def test_at_most_one_helper_alive(monkeypatch):
    """Every kick a run draws ahead runs on one thread, the gsteady helper,
    and no other gsteady thread is ever alive beside it."""
    started, ran = _spy_helpers(monkeypatch)
    cfg = _helper_run_config(seed=26)
    run_to_steady(cfg, viscoelastic(1.0), InitialCondition("maxwellian", t0=1.0))
    _helper.join()
    assert len(ran) == len(started) == cfg.max_steps - 1
    assert len({ident for ident, _, _ in ran}) == 1
    assert {name.startswith("gsteady-helper") for _, name, _ in ran} == {True}
    assert {alive for _, _, alive in ran} == {1}


def test_forked_child_starts_its_own_helper():
    """A child forked after the helper has run a task has no helper thread
    and starts its own: its N_PREFETCH run, kicks drawn ahead, ends at the
    parent's velocities bit for bit.  A child that waited on the parent's
    thread would hang; it is killed at the deadline."""
    cfg = _helper_run_config(seed=27, max_steps=3)
    model = constant(0.6)
    init = InitialCondition("maxwellian", t0=1.0)
    _helper.submit(int).result()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            ens, _ = run_to_steady(cfg, model, init)
            os.write(write, hashlib.sha256(ens.velocities.tobytes())
                     .hexdigest().encode())
        finally:
            os._exit(0)
    os.close(write)
    got = None
    try:
        ready, _, _ = select.select([read], [], [], 30.0)
        got = os.read(read, 64).decode() if ready else None
    finally:
        os.close(read)
        if got is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert got is not None, "the forked child did not report within 30 s"
    want, _ = run_to_steady(cfg, model, init)
    assert got == hashlib.sha256(want.velocities.tobytes()).hexdigest()
