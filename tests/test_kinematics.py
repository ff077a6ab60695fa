import numpy as np
import pytest

from gsteady.dissipation import DissipationSpec, psi_e
from gsteady.errors import InputError
from gsteady.kinematics import (AngularQuadrature, angular_average,
                                energy_loss, gauss_laguerre, gauss_legendre,
                                post_collision_grid, post_collision_nhat,
                                post_collision_sigma, sq_norm)
from gsteady.restitution import constant, elastic, viscoelastic

from conftest import random_unit

V = np.array([1.0, 0.0, 0.0])
VSTAR = np.array([-1.0, 0.0, 0.0])


def test_quadrature_invariants():
    quad = AngularQuadrature(n_s=16, n_phi=8)
    assert np.sum(quad.weights) == pytest.approx(2.0, abs=1e-13)
    with pytest.raises(InputError):
        AngularQuadrature(n_s=1)
    with pytest.raises(InputError):
        AngularQuadrature(n_phi=0)


@pytest.mark.parametrize("rule, reference", [
    (gauss_legendre, np.polynomial.legendre.leggauss),
    (gauss_laguerre, np.polynomial.laguerre.laggauss),
])
@pytest.mark.parametrize("n", [8, 64, 100])
def test_cached_gauss_rules(rule, reference, n):
    """Cached rules equal numpy's bit for bit, are shared and read-only."""
    nodes, weights = rule(n)
    ref_nodes, ref_weights = reference(n)
    np.testing.assert_array_equal(nodes, ref_nodes)
    np.testing.assert_array_equal(weights, ref_weights)
    assert rule(n)[0] is nodes
    for arr in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        AngularQuadrature(n_s=n).nodes[0] = 0.0


def test_grazing_no_change():
    vp, vps = post_collision_sigma(V, VSTAR, np.array([1.0, 0.0, 0.0]),
                                   viscoelastic(1.0))
    np.testing.assert_array_equal(vp, V)
    np.testing.assert_array_equal(vps, VSTAR)


def test_elastic_head_on_exchange():
    vp, vps = post_collision_sigma(V, VSTAR, np.array([-1.0, 0.0, 0.0]),
                                   elastic())
    np.testing.assert_allclose(vp, VSTAR, atol=1e-15)
    np.testing.assert_allclose(vps, V, atol=1e-15)


def test_inelastic_head_on():
    sigma = np.array([-1.0, 0.0, 0.0])
    model = constant(0.5)
    vp, vps = post_collision_sigma(V, VSTAR, sigma, model)
    np.testing.assert_allclose(vp, [-0.5, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(vps, [0.5, 0.0, 0.0], atol=1e-15)
    assert energy_loss(V, VSTAR, sigma, model) == pytest.approx(1.5, rel=1e-14)


def test_equal_velocities_unchanged():
    v = np.array([0.3, -0.2, 1.0])
    vp, vps = post_collision_sigma(v, v, np.array([0.0, 0.0, 1.0]), elastic())
    np.testing.assert_array_equal(vp, v)
    np.testing.assert_array_equal(vps, v)
    assert energy_loss(v, v, np.array([0.0, 0.0, 1.0]), constant(0.3)) == 0.0


def test_nhat_grazing():
    nhat = np.array([0.0, 1.0, 0.0])  # orthogonal to u
    vp, vps = post_collision_nhat(V, VSTAR, nhat, constant(0.5))
    np.testing.assert_array_equal(vp, V)
    np.testing.assert_array_equal(vps, VSTAR)


def test_non_unit_vector_rejected():
    with pytest.raises(InputError):
        post_collision_sigma(V, VSTAR, np.array([1.0, 1.0, 0.0]), elastic())
    with pytest.raises(InputError):
        post_collision_nhat(V, VSTAR, np.array([0.0, 0.0, 1.0 + 1e-9]),
                            elastic())
    with pytest.raises(InputError):
        energy_loss(V, VSTAR, np.array([2.0, 0.0, 0.0]), elastic())


def test_momentum_and_equivalence(models, rng):
    for model in models.values():
        v = rng.normal(size=(2500, 3))
        vstar = rng.normal(size=(2500, 3))
        nhat = random_unit(rng, 2500)
        u = v - vstar
        uhat = u / np.linalg.norm(u, axis=1, keepdims=True)
        sigma = uhat - 2.0 * np.sum(uhat * nhat, axis=1, keepdims=True) * nhat
        sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
        vp, vps = post_collision_sigma(v, vstar, sigma, model)
        assert np.max(np.abs(vp + vps - v - vstar)) < 1e-12
        vp2, vps2 = post_collision_nhat(v, vstar, nhat, model)
        assert np.max(np.abs(vp - vp2)) < 1e-12
        assert np.max(np.abs(vps - vps2)) < 1e-12


def test_energy_loss_matches_velocity_difference(models, rng):
    for model in models.values():
        v, vstar = rng.normal(size=(200, 3)), rng.normal(size=(200, 3))
        sigma = random_unit(rng, 200)
        vp, vps = post_collision_sigma(v, vstar, sigma, model)
        direct = (sq_norm(v) + sq_norm(vstar)) - (sq_norm(vp) + sq_norm(vps))
        loss = energy_loss(v, vstar, sigma, model)
        assert np.all(loss >= 0.0)
        assert np.all(np.abs(loss - direct) < 1e-10 * np.maximum(1.0, loss))


def test_angular_average_mass_and_momentum():
    quad = AngularQuadrature()
    v, vstar = np.array([0.4, -1.0, 2.0]), np.array([1.1, 0.2, -0.3])
    model = viscoelastic(1.0)
    mass = angular_average(lambda w: np.ones(w.shape[:-1]), v, vstar, model, quad)
    assert abs(mass) < 1e-12
    mom = angular_average(lambda w: w, v, vstar, model, quad)
    assert np.max(np.abs(mom)) < 1e-12


def test_dissipation_bridge(models, rng):
    """|u| times the sphere average of the energy change equals -2 Psi(|u|^2)."""
    quad = AngularQuadrature(n_s=64)
    for model in models.values():
        spec = DissipationSpec(model)
        for _ in range(100):
            v, vstar = rng.normal(size=3), rng.normal(size=3)
            un = float(np.linalg.norm(v - vstar))
            lhs = un * float(angular_average(
                lambda w: np.einsum("...k,...k->...", w, w),
                v, vstar, model, quad))
            ref = -2.0 * psi_e(spec, un * un)
            if model.kind == "constant" and model.e0 == 1.0:
                assert abs(lhs) < 1e-12
            else:
                assert lhs == pytest.approx(ref, rel=1e-6)


def test_grid_matches_post_collision_sigma(models, rng):
    """Each node of the batched grid is post_collision_sigma at the node's
    direction sigma_ij: a unit vector at cosine s_i to u whose azimuth about
    u is 2 pi j / n_phi."""
    quad = AngularQuadrature(n_s=8, n_phi=6)
    v, vstar = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    v[0] = vstar[0] + [2.0, 0.1, 0.0]  # u near the first axis
    u = v - vstar
    un = np.linalg.norm(u, axis=1)
    uhat = u / un[:, None]
    # The elastic map v' = v - (u - |u| sigma) / 2 gives the directions back.
    vp, _, w = post_collision_grid(v, vstar, elastic(), quad)
    np.testing.assert_array_equal(w, 0.5 * quad.weights)
    sigma = (2.0 * (vp - v[:, None, None]) + u[:, None, None]) / un[:, None, None, None]
    np.testing.assert_allclose(np.linalg.norm(sigma, axis=-1), 1.0, atol=1e-14)
    cos = np.einsum("mijk,mk->mij", sigma, uhat)
    np.testing.assert_allclose(cos, np.broadcast_to(quad.nodes[:, None], cos.shape),
                               atol=1e-14)
    ring = sigma - cos[..., None] * uhat[:, None, None]
    ring /= np.linalg.norm(ring, axis=-1, keepdims=True)
    phi = 2.0 * np.pi * np.arange(6) / 6
    ahead = np.cross(uhat[:, None, None], ring[:, :, :1])
    np.testing.assert_allclose(np.einsum("mijk,mijk->mij", ring, ring[:, :, :1]),
                               np.broadcast_to(np.cos(phi), cos.shape), atol=1e-13)
    np.testing.assert_allclose(np.einsum("mijk,mijk->mij", ring, ahead),
                               np.broadcast_to(np.sin(phi), cos.shape), atol=1e-13)
    sigma /= np.linalg.norm(sigma, axis=-1, keepdims=True)
    for model in models.values():
        vp, vps, _ = post_collision_grid(v, vstar, model, quad)
        assert vp.shape == vps.shape == (5, 8, 6, 3)
        for m, i, j in zip(rng.integers(0, 5, 12), rng.integers(0, 8, 12),
                           rng.integers(0, 6, 12)):
            ref_vp, ref_vps = post_collision_sigma(v[m], vstar[m], sigma[m, i, j],
                                                   model)
            np.testing.assert_allclose(vp[m, i, j], ref_vp, rtol=0, atol=1e-13)
            np.testing.assert_allclose(vps[m, i, j], ref_vps, rtol=0, atol=1e-13)
        one_vp, one_vps, _ = post_collision_grid(v[1], vstar[1], model, quad)
        np.testing.assert_array_equal(one_vp, vp[1])
        np.testing.assert_array_equal(one_vps, vps[1])
    vstar[2] = v[2]
    with pytest.raises(InputError):
        post_collision_grid(v, vstar, elastic(), quad)


def test_angular_average_batch_matches_per_pair(models, rng):
    """A batch gives each pair's average, with psi's trailing axis kept."""
    v, vstar = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))

    def psi(w):
        sq = np.einsum("...k,...k->...", w, w)
        return np.stack([sq, sq * sq], axis=-1)

    quad = AngularQuadrature(n_s=16, n_phi=8)
    for model in models.values():
        batch = angular_average(psi, v, vstar, model, quad)
        assert batch.shape == (7, 2)
        ref = [angular_average(psi, v[k], vstar[k], model, quad) for k in range(7)]
        np.testing.assert_allclose(batch, ref, rtol=1e-13, atol=0.0)


def test_pair_forms_match_per_pair_calls(models, rng):
    """A batch gives each pair's result bit for bit, v == v* included."""
    v, vstar = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
    vstar[7] = v[7]
    sigma, nhat = random_unit(rng, 40), random_unit(rng, 40)
    for model in models.values():
        vp, vps = post_collision_sigma(v, vstar, sigma, model)
        wp, wps = post_collision_nhat(v, vstar, nhat, model)
        loss = energy_loss(v, vstar, sigma, model)
        assert vp.shape == wp.shape == (40, 3) and loss.shape == (40,)
        for k in range(40):
            one = post_collision_sigma(v[k], vstar[k], sigma[k], model)
            np.testing.assert_array_equal(one, (vp[k], vps[k]))
            one = post_collision_nhat(v[k], vstar[k], nhat[k], model)
            np.testing.assert_array_equal(one, (wp[k], wps[k]))
            one = energy_loss(v[k], vstar[k], sigma[k], model)
            assert type(one) is float and one == loss[k]
        np.testing.assert_array_equal((vp[7], vps[7]), (v[7], vstar[7]))
        assert loss[7] == 0.0
