"""The numpy collision sweep and restitution solve against the scalar
loops they replace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsteady import _kernels, dsmc
from gsteady.dsmc import EngineConfig, InitialCondition, initial_ensemble, step
from gsteady.errors import MajorantViolation
from gsteady.restitution import (CONSTANT, POWER_LAW, constant, elastic,
                                 eval_e, power_law, rescale, viscoelastic)


def reference_e(model, r):
    """Scalar restitution coefficient at impact speed r, one Newton loop for
    the viscoelastic law."""
    r = model.lambda_scale * r
    if model.kind == CONSTANT:
        return model.e0
    if model.kind == POWER_LAW:
        return 1.0 / (1.0 + model.a * r ** model.gamma)
    # y = e^{1/5} solves y^5 + c y^3 = 1 with c = a r^{1/5}.
    if r == 0.0:
        return 1.0
    c = model.a * r ** 0.2
    y = 1.0
    for _ in range(200):
        g = y * y * y * (y * y + c) - 1.0
        dg = y * y * (5.0 * y * y + 3.0 * c)
        step = g / dg
        y -= step
        if abs(step) < 1e-15:
            break
    return y ** 5


def reference_sweep(vel, idx_i, idx_j, accept_u, normals, umax, model):
    """One candidate at a time, in order: the sweep's defining semantics.
    The raw normals are normalised as the engine normalises them."""
    sigma = normals / np.maximum(
        np.linalg.norm(normals, axis=1, keepdims=True), 1e-300)
    accepted = 0
    loss = 0.0
    for k in range(idx_i.shape[0]):
        i = idx_i[k]
        j = idx_j[k]
        ux = vel[i, 0] - vel[j, 0]
        uy = vel[i, 1] - vel[j, 1]
        uz = vel[i, 2] - vel[j, 2]
        un = math.sqrt(ux * ux + uy * uy + uz * uz)
        if un > umax:
            return accepted, loss, 1
        if un <= 0.0 or accept_u[k] * umax >= un:
            continue
        sx = sigma[k, 0]
        sy = sigma[k, 1]
        sz = sigma[k, 2]
        s = (ux * sx + uy * sy + uz * sz) / un
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        impact = un * math.sqrt(0.5 * (1.0 - s))
        e = reference_e(model, impact)
        b = 0.5 * (1.0 + e)
        hx = 0.5 * b * (ux - un * sx)
        hy = 0.5 * b * (uy - un * sy)
        hz = 0.5 * b * (uz - un * sz)
        vel[i, 0] -= hx
        vel[i, 1] -= hy
        vel[i, 2] -= hz
        vel[j, 0] += hx
        vel[j, 1] += hy
        vel[j, 2] += hz
        loss += 0.25 * un * un * (1.0 - s) * (1.0 - e * e)
        accepted += 1
    return accepted, loss, 0


MODELS = {
    "elastic": elastic(),
    "constant": constant(0.5),
    "power_law": rescale(power_law(1.0, 0.2), 0.1),
    "viscoelastic": rescale(viscoelastic(1.0), 0.5),
}
EXACT = {"elastic", "constant"}


def _vmax(vel):
    """max|v|, computed as the engine step computes it."""
    return math.sqrt(float(np.max(np.einsum("ij,ij->i", vel, vel))))


def _compare(name, vel, draw):
    """Run both sweeps from vel on one draw; return the kernel's
    (accepted, loss), or None when the reference flags a violation and the
    kernel raises for it."""
    model = MODELS[name]
    ref_vel = vel.copy()
    new_vel = vel.copy()
    ref = reference_sweep(ref_vel, *draw, model)
    if ref[2]:
        # The step is discarded: no counts or velocities to compare.
        with pytest.raises(MajorantViolation):
            _kernels.apply_collisions(new_vel, *draw, model, _vmax(vel))
        return None
    out = _kernels.apply_collisions(new_vel, *draw, model, _vmax(vel))
    assert out[0] == ref[0]
    if name in EXACT:
        assert out[1] == ref[1]
        np.testing.assert_array_equal(new_vel, ref_vel)
    else:
        assert out[1] == pytest.approx(ref[1], rel=1e-13, abs=0.0)
        scale = np.max(np.abs(ref_vel))
        assert np.max(np.abs(new_vel - ref_vel)) <= 1e-13 * scale
    return out


def _random_draw(rng, n, m, umax):
    ii = rng.integers(0, n, size=m)
    jj = rng.integers(0, n - 1, size=m)
    jj = jj + (jj >= ii)
    return ii, jj, rng.random(m), rng.normal(size=(m, 3)), umax


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_matches_reference_on_engine_draw(name, monkeypatch):
    """One engine step at N = 1e5: the kernel sees the step's real draw."""
    captured = {}
    real = _kernels.apply_collisions

    def spy(vel, *draw_model_vmax):
        captured["vel"] = vel.copy()
        captured["draw"] = draw_model_vmax[:5]
        captured["vmax"] = draw_model_vmax[6]
        return real(vel, *draw_model_vmax)

    monkeypatch.setattr(dsmc._kernels, "apply_collisions", spy)
    cfg = EngineConfig(n=100_000, dt=0.04, mu=0.1 ** 0.2, seed=5)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.5))
    step(ens, cfg, MODELS[name])
    assert captured["vmax"] == _vmax(captured["vel"])
    # At this N the helper thread draws the normals, and the step hands
    # the sweep a callable that waits for them.
    ii, jj, accept_u, normals, umax = captured["draw"]
    assert callable(normals)
    accepted, _ = _compare(name, captured["vel"],
                           (ii, jj, accept_u, normals(), umax))
    assert 1000 < accepted < len(captured["draw"][0])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_matches_reference_on_long_chain(name):
    """Four particles: nearly every candidate waits for the one before it."""
    rng = np.random.default_rng(21)
    n, m = 4, 400
    vel = rng.normal(size=(n, 3))
    # No particle is faster than sqrt(E), so no pair ever exceeds umax.
    umax = 2.0 * math.sqrt(float(np.sum(vel * vel)))
    ii, jj, accept_u, normals, _ = _random_draw(rng, n, m, umax)
    jj[::37] = ii[::37]  # self-pairs have zero relative speed and do nothing
    accepted, _ = _compare(name, vel, (ii, jj, accept_u, normals, umax))
    assert accepted > 20


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_reports_first_violation(name):
    """A pair faster than umax makes the sweep raise, whichever round it is
    on, so the caller has no counts to commit."""
    rng = np.random.default_rng(3)
    vel = np.zeros((9, 3))
    vel[:6] = 0.5 * rng.normal(size=(6, 3))
    vel[6:] = 10.0 * np.eye(3)  # particles 6, 7, 8 are too fast for umax
    pairs = np.array([(0, 1), (0, 1), (0, 6), (2, 3), (4, 7), (2, 5), (5, 8)])
    normals = rng.normal(size=(len(pairs), 3))
    # The first three pairs violate only on the third round, after two
    # collisions; all seven violate on the first round as well.
    for m in (3, 7):
        draw = (pairs[:m, 0], pairs[:m, 1], np.zeros(m), normals[:m], 5.0)
        assert _compare(name, vel, draw) is None


@pytest.mark.parametrize("name", ["elastic", "constant"])
def test_sweep_reruns_when_a_collision_beats_the_speed_bound(name):
    """A collision lifts a particle above the sweep's speed bound
    1.1 max|v|, and a later candidate whose accept threshold the bound
    would reject is then accepted."""
    vel = np.array([[1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [-0.7, -0.7, 0.0]])
    # Candidate 0 sends particle 0 to (1, 1, 0) when elastic, (1, 0.75, 0)
    # at e = 0.5.  Candidate 1 then has |u| = 2.40 or 2.23 against a
    # threshold of 0.555 umax = 2.22, above twice the bound.
    draw = (np.array([0, 0]), np.array([1, 2]), np.array([0.0, 0.555]),
            np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 4.0 * _vmax(vel))
    assert 0.555 * draw[4] > 2.0 * (1.0 + 1e-12) * _kernels._SPEED_BOUND
    accepted, _ = _compare(name, vel, draw)
    assert accepted == 2


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), n=st.integers(2, 6),
       m=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_matches_reference_property(name, n, m, seed):
    """Few particles and the engine's umax = 4 max|v|: collisions often
    beat the speed bound, and the sweep must still match the one-at-a-time
    loop (or raise where it raises)."""
    rng = np.random.default_rng(seed)
    vel = rng.normal(size=(n, 3))
    _compare(name, vel, _random_draw(rng, n, m, 4.0 * _vmax(vel)))


def test_viscoelastic_vec_matches_scalar():
    model = viscoelastic(1.0)
    r = np.concatenate([[0.0], np.logspace(-12, 12, 200_000)])
    vec = eval_e(model, r)
    ref = np.array([reference_e(model, x) for x in r])
    assert vec[0] == 1.0
    np.testing.assert_allclose(vec, ref, rtol=2e-15, atol=0.0)
    grid = eval_e(model, r[1:].reshape(400, 500))
    assert grid.shape == (400, 500)
    np.testing.assert_array_equal(grid.ravel(), vec[1:])
    # A scalar goes through the same array code.
    for k in range(0, r.size, 20_000):
        one = eval_e(model, float(r[k]))
        assert type(one) is float
        assert one == vec[k]
