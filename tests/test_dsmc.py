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
from gsteady.dissipation import DissipationSpec, dissipation_functional, psi_e
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
    return [
        (small_config(seed=1), power_law(1.0, 0.2),
         InitialCondition("maxwellian", t0=1.0)),
        (small_config(seed=2, n=300), viscoelastic(1.0),
         InitialCondition("bimodal", v0=1.5)),
        (small_config(seed=3), constant(0.7),
         InitialCondition("uniform_ball", radius=2.0)),
    ]


def _assert_runs_equal(got, want):
    assert len(got) == len(want)
    for (ens, rep), (ens_ref, rep_ref) in zip(got, want):
        np.testing.assert_array_equal(ens.velocities, ens_ref.velocities)
        assert _ledger_state(ens)[1:] == _ledger_state(ens_ref)[1:]
        assert rep.series == rep_ref.series
        assert (rep.temperature, rep.steps, rep.converged) == (
            rep_ref.temperature, rep_ref.steps, rep_ref.converged)


@pytest.mark.parametrize("cores", [3, 1])
def test_run_many_matches_serial(monkeypatch, cores):
    """Pool (3 workers) and in-process (1 core) both equal serial runs."""
    serial = [run_to_steady(*job) for job in _jobs()]
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    _assert_runs_equal(run_many(_jobs()), serial)


def test_run_many_reraises_worker_error(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    bad = (small_config(n=400, dt=2.0, mu=0.0), elastic(),
           InitialCondition("maxwellian", t0=4.0))
    with pytest.raises(TimeStepError):
        run_many([_jobs()[0], bad])


# The smallest N whose bath kick is prefetched on the helper thread.
N_PREFETCH = _helper.MIN_SIZE // 3 + 1


def _prefetch_config(**kw):
    base = dict(n=N_PREFETCH, dt=0.01, mu=0.3, seed=21)
    base.update(kw)
    return EngineConfig(**base)


def _kick_key(ens, cfg):
    return (cfg.seed, ens.step_count, ens.velocities.shape,
            math.sqrt(2.0 * cfg.mu * cfg.dt))


def _stepped(cfg, model, init, steps, before_step=None):
    ens = initial_ensemble(cfg, init)
    for _ in range(steps):
        if before_step is not None:
            before_step(ens)
        step(ens, cfg, model)
    return ens


def _assert_same_state(got, want):
    np.testing.assert_array_equal(got.velocities, want.velocities)
    assert _ledger_state(got)[1:] == _ledger_state(want)[1:]


@pytest.mark.parametrize("scale", [0.0, 5e-324, 0.37, 1.0, 1e300])
def test_kick_draw_is_normal_bit_for_bit(scale):
    """_draw_kick fills a buffer with exactly normal(0.0, scale), the sign
    of every zero included (numpy computes 0.0 + scale * z)."""
    key = (31, 5, (1000, 3), scale)
    out = np.empty(key[2])
    dsmc._draw_kick(key, out)
    want = dsmc._stream(31, 5, dsmc._STREAM_BATH).normal(0.0, scale,
                                                         size=key[2])
    np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))


def test_prefetch_dropped_equals_ordinary():
    """Above the threshold each step leaves step + 1's kick pending and the
    next step takes it; dropping it before every step (every kick drawn
    inline) changes no bit of the velocities or the ledger."""
    cfg = _prefetch_config()
    model = rescale(power_law(1.0, 0.2), 0.1)
    init = InitialCondition("maxwellian", t0=1.5)

    def expect_hit(ens):
        if ens.step_count > 0:
            assert list(dsmc._pending) == [_kick_key(ens, cfg)]

    ordinary = _stepped(cfg, model, init, 8, expect_hit)
    inline = _stepped(cfg, model, init, 8, lambda ens: dsmc._drop_pending())
    dsmc._drop_pending()
    _assert_same_state(ordinary, inline)
    assert ordinary.bath_energy != 0.0


def test_prefetch_two_ensembles_interleaved():
    """Two ensembles with one seed and shape, stepped alternately, share the
    one slot; each ends as it would alone."""
    cfg = _prefetch_config(seed=22)
    model = constant(0.6)
    inits = (InitialCondition("maxwellian", t0=1.0),
             InitialCondition("bimodal", v0=1.3))
    alone = [_stepped(cfg, model, init, 6) for init in inits]
    pair = [initial_ensemble(cfg, init) for init in inits]
    for _ in range(6):
        for ens in pair:
            step(ens, cfg, model)
    dsmc._drop_pending()
    for got, want in zip(pair, alone):
        _assert_same_state(got, want)


def test_prefetch_retried_step_equals_clean_run(monkeypatch):
    """A step that raises after taking its kick leaves step + 1's kick
    pending; the retried step must draw its own kick, not take that one."""
    cfg = _prefetch_config(seed=4, mu=0.05)
    model = constant(0.5)
    init = InitialCondition("maxwellian", t0=1.0)
    clean = _stepped(cfg, model, init, 4)
    ens = initial_ensemble(cfg, init)
    step(ens, cfg, model)
    with monkeypatch.context() as patch:
        patch.setattr(dsmc, "_UMAX_FACTOR", 0.355)
        with pytest.raises(MajorantViolation):
            step(ens, cfg, model)
    assert ens.step_count == 1
    assert list(dsmc._pending) == [(cfg.seed, 2) + _kick_key(ens, cfg)[2:]]
    for _ in range(3):
        step(ens, cfg, model)
    dsmc._drop_pending()
    _assert_same_state(ens, clean)


def test_run_many_while_prefetch_pending(monkeypatch):
    """A fork waits for the pending draw, so forked workers that take it get
    the finished kick: run_many equals the in-process runs while a slow
    prefetch of step 0 is still running in the parent."""
    cfg = _prefetch_config(seed=23, max_steps=10, window=2, sample_every=5,
                           diss_pairs=2000)
    jobs = [(cfg, power_law(1.0, 0.2), InitialCondition("maxwellian", t0=1.0)),
            (cfg, constant(0.7), InitialCondition("bimodal", v0=1.5))]
    serial = [run_to_steady(*job) for job in jobs]
    dsmc._drop_pending()
    draw = dsmc._draw_kick

    def slow_draw(key, out):
        if key[1] == 0:
            time.sleep(0.3)
        draw(key, out)

    monkeypatch.setattr(dsmc, "_draw_kick", slow_draw)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    dsmc._draw_ahead((cfg.seed, 0, (cfg.n, 3), math.sqrt(2.0 * cfg.mu * cfg.dt)))
    got = run_many(jobs)
    dsmc._drop_pending()
    _assert_runs_equal(got, serial)


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


def _helper_starts_in_worker(*job):
    """Run, in a pool worker, a step whose kick is above the helper's
    threshold and a psi_e above its split threshold; return the threshold,
    the tasks submitted and whether the worker has no helper pool."""
    with pytest.MonkeyPatch.context() as patch:
        started, _ = _spy_helpers(patch)
        _stepped(_prefetch_config(dt=0.2), constant(0.6),
                 InitialCondition("maxwellian", t0=1.0), 1)
        psi_e(DissipationSpec(constant(0.6)), np.ones(4 * 256))
    return _helper.MIN_SIZE, started, _helper._pool is None


@pytest.mark.parametrize("cores", [2, 3])
def test_pool_workers_draw_kicks_inline(monkeypatch, cores):
    """run_many's pool workers draw every kick and evaluate both psi_e
    halves inline, with no task submitted and no helper thread started,
    whether or not the pool leaves a core free; the parent process keeps
    the helper."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(dsmc, "run_to_steady", _helper_starts_in_worker)
    assert run_many(_jobs()[:2]) == [(math.inf, [], True)] * 2
    assert _helper.MIN_SIZE == 1 << 15


def test_no_prefetch_below_threshold(monkeypatch):
    """Below _helper.MIN_SIZE elements every kick is drawn inline, with no
    task submitted; at the threshold each step submits one kick draw."""
    dsmc._drop_pending()
    started, _ = _spy_helpers(monkeypatch)
    model = constant(0.6)
    init = InitialCondition("maxwellian", t0=1.0)
    _stepped(_prefetch_config(n=N_PREFETCH - 1), model, init, 3)
    assert started == [] and dsmc._pending == {}
    _stepped(_prefetch_config(), model, init, 3)
    dsmc._drop_pending()
    assert started == ["_draw_kick"] * 3


def _helper_run_config(**kw):
    base = dict(dt=0.2, max_steps=10, window=2, sample_every=5,
                diss_pairs=3000)
    base.update(kw)
    return _prefetch_config(**base)


def test_helper_draws_equal_inline_draws(monkeypatch):
    """A run whose kicks and psi_e halves come from the helper equals, bit
    for bit, the same run with the pool-worker switch set, where every kick
    and both halves are inline: the velocities, the ledger and every series
    row, diss_estimate included."""
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
    dsmc._drop_pending()
    assert set(started) == {"_draw_kick", "_psi_blocks"}
    assert started.count("_draw_kick") == cfg.max_steps
    monkeypatch.setattr(_helper, "MIN_SIZE", _helper.MIN_SIZE)  # restored
    _helper.run_inline()
    started.clear()
    inline = run_to_steady(cfg, model, init)
    assert started == []
    _assert_runs_equal([helped], [inline])
    assert helped[1].series[-1][6] == inline[1].series[-1][6] > 0.0


def test_violation_while_helper_draws(monkeypatch):
    """A step that raises MajorantViolation while the helper is still
    drawing the next step's kick leaves the ensemble as it was; retried, it
    draws its own kick and the run ends as a clean one does."""
    cfg = _helper_run_config(seed=25, mu=0.05, dt=0.4)
    model = constant(0.5)
    init = InitialCondition("maxwellian", t0=4.0)
    clean = _stepped(cfg, model, init, 4)
    dsmc._drop_pending()
    ens = initial_ensemble(cfg, init)
    step(ens, cfg, model)
    before = _ledger_state(ens)
    draw = dsmc._draw_kick

    def slow_draw(key, out):
        if key[1] == 2:  # the kick the raising step starts on the helper
            time.sleep(0.3)
        draw(key, out)

    with monkeypatch.context() as patch:
        patch.setattr(dsmc, "_draw_kick", slow_draw)
        patch.setattr(dsmc, "_UMAX_FACTOR", 0.355)
        with pytest.raises(MajorantViolation):
            step(ens, cfg, model)
        [(pending, _)] = dsmc._pending.values()
        assert not pending.done()
    pending.result(timeout=30.0)
    after = _ledger_state(ens)
    np.testing.assert_array_equal(after[0], before[0])
    assert after[1:] == before[1:]
    for _ in range(3):
        step(ens, cfg, model)
    dsmc._drop_pending()
    _assert_same_state(ens, clean)


def test_at_most_one_helper_alive(monkeypatch):
    """However the step's kick draws and the psi_e halves interleave in a
    run, every task runs on one thread, the gsteady helper, and no other
    gsteady thread is ever alive beside it."""
    started, ran = _spy_helpers(monkeypatch)
    run_to_steady(_helper_run_config(seed=26), viscoelastic(1.0),
                  InitialCondition("maxwellian", t0=1.0))
    dsmc._drop_pending()
    assert len(ran) == len(started) > 10
    assert len({ident for ident, _, _ in ran}) == 1
    assert {name.startswith("gsteady-helper") for _, name, _ in ran} == {True}
    assert {alive for _, _, alive in ran} == {1}


def test_forked_child_starts_its_own_helper():
    """A child forked after the helper has run a task has no helper thread
    and starts its own: it steps an N_PREFETCH ensemble, kicks drawn ahead,
    to the parent's velocities bit for bit.  A child that waited on the
    parent's thread would hang; it is killed at the deadline."""
    cfg = _prefetch_config(seed=27)
    model = constant(0.6)
    init = InitialCondition("maxwellian", t0=1.0)
    _helper.submit(int).result()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            ens = _stepped(cfg, model, init, 3)
            dsmc._drop_pending()
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
    want = _stepped(cfg, model, init, 3)
    dsmc._drop_pending()
    assert got == hashlib.sha256(want.velocities.tobytes()).hexdigest()
