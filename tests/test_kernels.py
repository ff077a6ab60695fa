"""The numpy collision sweep and restitution solve against the scalar
loops they replace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

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


def reference_sweep(vel, idx_i, idx_j, accept_u, dirs, umax, model):
    """One candidate at a time, in order: the sweep's defining semantics.
    Candidate k scatters along the direction of its uniforms dirs[k]:
    c = 2 d0 - 1 is its z component and phi = 2 pi d1 its azimuth."""
    c = 2.0 * dirs[:, 0] - 1.0
    phi = 2.0 * math.pi * dirs[:, 1]
    rho = np.sqrt(1.0 - c * c)
    sigma = np.column_stack((rho * np.cos(phi), rho * np.sin(phi), c))
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


def reference_predecessors(idx_i, idx_j):
    """(prev_i, prev_j) by a last-seen dict, one candidate at a time; m
    stands for "none"."""
    m = len(idx_i)
    last = {}
    prev_i, prev_j = [], []
    for k, (i, j) in enumerate(zip(idx_i.tolist(), idx_j.tolist())):
        prev_i.append(last.get(i, m))
        prev_j.append(last.get(j, m))
        last[i] = last[j] = k
    return prev_i, prev_j


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(st.integers(1, 300),
                   st.sampled_from([2 ** k + d for k in range(1, 10)
                                    for d in (-1, 0, 1)])),
       n=st.sampled_from([1, 2, 3, 40, 10 ** 6]),
       self_share=st.sampled_from([0.0, 0.2, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_predecessors_match_last_seen_loop(m, n, self_share, seed):
    """The sorted-key predecessors equal a plain loop's, with self-pairs,
    at candidate counts at and next to powers of two (where the key width
    changes) and with particle indices up to 10^6."""
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, n, size=m)
    jj = rng.integers(0, n, size=m)
    jj = np.where(rng.random(m) < self_share, ii, jj)
    prev_i, prev_j = _kernels._predecessors(ii, jj)
    ref_i, ref_j = reference_predecessors(ii, jj)
    assert prev_i.tolist() == ref_i
    assert prev_j.tolist() == ref_j


def test_sphere_directions_are_isotropic():
    """The sweep's direction map turns pairs of uniforms into unit vectors
    uniform on S^2: unit length to 1e-15, the mean within 5 standard errors
    of 0, E[sigma sigma^T] within 5 standard errors of I/3, and the z
    component c uniform on [-1, 1]."""
    n = 200_000
    sigma = _kernels.sphere_directions(np.random.default_rng(17).random((n, 2)))
    assert sigma.shape == (n, 3)
    assert np.max(np.abs(np.sqrt(np.sum(sigma * sigma, axis=1)) - 1.0)) <= 1e-15
    se = sigma.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(sigma.mean(axis=0)) <= 5.0 * se)
    outer = sigma[:, :, None] * sigma[:, None, :]
    se = outer.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(outer.mean(axis=0) - np.eye(3) / 3.0) <= 5.0 * se)
    assert stats.kstest(sigma[:, 2], "uniform", args=(-1.0, 2.0)).pvalue > 1e-3
    # d0 = 0 gives the south pole whatever phi is, d0 = 1/2 the equator.
    ends = _kernels.sphere_directions(np.array([[0.0, 0.3], [0.5, 0.0]]))
    np.testing.assert_array_equal(ends, [[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


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
            _kernels.apply_collisions(new_vel, *draw, model)
        return None
    out = _kernels.apply_collisions(new_vel, *draw, model)
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
    return ii, jj, rng.random(m), rng.random((m, 2)), umax


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_matches_reference_on_engine_draw(name, monkeypatch):
    """One engine step at N = 1e5: the kernel sees the step's real draw."""
    captured = {}
    real = _kernels.apply_collisions

    def spy(vel, *draw_model):
        captured["vel"] = vel.copy()
        captured["draw"] = draw_model[:5]
        return real(vel, *draw_model)

    monkeypatch.setattr(dsmc._kernels, "apply_collisions", spy)
    cfg = EngineConfig(n=100_000, dt=0.04, mu=0.1 ** 0.2, seed=5)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.5))
    step(ens, cfg, MODELS[name])
    ii, jj, accept_u, dirs, umax = captured["draw"]
    assert umax == 2.0 * dsmc._UMAX_FACTOR * _vmax(captured["vel"])
    assert dirs.shape == (len(ii), 2)
    accepted, _ = _compare(name, captured["vel"], captured["draw"])
    assert 1000 < accepted < len(ii)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_matches_reference_on_long_chain(name):
    """Four particles: nearly every candidate waits for the one before it."""
    rng = np.random.default_rng(21)
    n, m = 4, 400
    vel = rng.normal(size=(n, 3))
    # No particle is faster than sqrt(E), so no pair ever exceeds umax.
    umax = 2.0 * math.sqrt(float(np.sum(vel * vel)))
    ii, jj, accept_u, dirs, _ = _random_draw(rng, n, m, umax)
    jj[::37] = ii[::37]  # self-pairs have zero relative speed and do nothing
    accepted, _ = _compare(name, vel, (ii, jj, accept_u, dirs, umax))
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
    dirs = rng.random((len(pairs), 2))
    # The first three pairs violate only on the third round, after two
    # collisions; all seven violate on the first round as well.
    for m in (3, 7):
        draw = (pairs[:m, 0], pairs[:m, 1], np.zeros(m), dirs[:m], 5.0)
        assert _compare(name, vel, draw) is None


@pytest.mark.parametrize("name", ["elastic", "constant"])
def test_sweep_holds_the_one_collision_bound(name):
    """A collision lifts a particle to at most sqrt(2) max|v|, and it then
    meets a particle that has not collided at |u| <= (1 + sqrt 2) max|v|,
    with equality when elastic: the engine's majorant covers that pair, a
    factor of 1.2, below (1 + sqrt 2)/2, does not cover the elastic one,
    and a majorant just below |u| raises for either law."""
    vel = np.array([[1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [-1.0, -1.0, 0.0]])
    vel[2] /= math.sqrt(2.0)
    # Candidate 0 meets orthogonally and scatters along (1, 1, 0) / sqrt(2)
    # (c = 0, phi = pi / 4), which sends particle 0 to (1, b, 0) with
    # b = (1 + e) / 2: (1, 1, 0) when elastic, (1, 0.75, 0) at e = 0.5.
    draw = (np.array([0, 0]), np.array([1, 2]), np.zeros(2),
             np.array([[0.5, 0.125], [0.5, 0.0]]))
    vmax = _vmax(vel)
    assert vmax == 1.0
    b = 0.5 * (1.0 + reference_e(MODELS[name], math.sqrt(2.0)))
    h = 1.0 / math.sqrt(2.0)
    w = math.hypot(1.0 + h, b + h)
    assert w <= (1.0 + 1e-12) * (1.0 + math.sqrt(2.0)) * vmax
    if name == "elastic":
        assert math.isclose(w, 1.0 + math.sqrt(2.0))
    accepted, _ = _compare(
        name, vel, draw + (2.0 * dsmc._UMAX_FACTOR * vmax,))
    assert accepted == 2
    at_1_2 = _compare(name, vel, draw + (2.0 * 1.2 * vmax,))
    assert (at_1_2 is None) == (w > 2.4 * vmax)
    assert _compare(name, vel, draw + ((1.0 - 1e-9) * w,)) is None


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), n=st.integers(2, 6),
       m=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_matches_reference_property(name, n, m, seed):
    """Few particles and the engine's umax = 2 _UMAX_FACTOR max|v|: each
    particle collides many times in one draw, so speeds often outgrow the
    one-collision bound, and the sweep must still match the one-at-a-time
    loop (or raise where it raises)."""
    rng = np.random.default_rng(seed)
    vel = rng.normal(size=(n, 3))
    umax = 2.0 * dsmc._UMAX_FACTOR * _vmax(vel)
    _compare(name, vel, _random_draw(rng, n, m, umax))


def test_sweep_raises_where_reference_raises():
    """A majorant at 0.6 of the largest initial pairwise speed: on 200
    seeded draws the sweep raises MajorantViolation exactly where the
    one-at-a-time loop flags a violation, and matches it elsewhere; at
    least 10 % of the draws raise and at least 10 % do not."""
    rng = np.random.default_rng(45)
    names = sorted(MODELS)
    draws, raised = 200, 0
    for k in range(draws):
        n = int(rng.integers(2, 41))
        vel = rng.normal(size=(n, 3))
        u = vel[:, None, :] - vel[None, :, :]
        umax = 0.6 * math.sqrt(float(np.max(np.einsum("ijk,ijk->ij", u, u))))
        draw = _random_draw(rng, n, int(rng.integers(1, 21)), umax)
        raised += _compare(names[k % len(names)], vel, draw) is None
    assert draws // 10 <= raised <= draws - draws // 10


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
