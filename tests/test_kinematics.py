import numpy as np
import pytest

from gsteady.dissipation import DissipationSpec, psi_e
from gsteady.errors import InputError
from gsteady.kinematics import (AngularQuadrature, angular_average,
                                energy_loss, gain_average, gauss_laguerre,
                                gauss_legendre, post_collision_grid,
                                post_collision_nhat, post_collision_sigma,
                                sq_norm)
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


def test_angular_average_mass_and_energy():
    quad = AngularQuadrature()
    v, vstar = np.array([0.4, -1.0, 2.0]), np.array([1.1, 0.2, -0.3])
    mass = angular_average(np.ones_like, v, vstar, viscoelastic(1.0), quad)
    assert abs(mass) < 1e-12
    energy = angular_average(lambda x: x, v, vstar, elastic(), quad)
    assert abs(energy) < 1e-12


def test_dissipation_bridge(models, rng):
    """|u| times the sphere average of the energy change equals -2 Psi(|u|^2)."""
    quad = AngularQuadrature(n_s=64)
    for model in models.values():
        spec = DissipationSpec(model)
        for _ in range(100):
            v, vstar = rng.normal(size=3), rng.normal(size=3)
            un = float(np.linalg.norm(v - vstar))
            lhs = un * float(angular_average(lambda x: x, v, vstar, model, quad))
            ref = -2.0 * psi_e(spec, un * un)
            if model.kind == "constant" and model.e0 == 1.0:
                assert abs(lhs) < 1e-12
            else:
                assert lhs == pytest.approx(ref, rel=1e-6)


def grid_directions(v, vstar, quad, rng):
    """The node directions sigma_ij, of shape (m, n_s, n_phi, 3), in the
    frame that post_collision_grid documents: e1 along
    v_perp = v - (v.uhat) uhat, or any unit vector normal to uhat when
    v_perp = 0, and e2 = uhat x e1."""
    u = v - vstar
    uhat = u / np.linalg.norm(u, axis=1, keepdims=True)
    e1 = v - np.sum(v * uhat, axis=1, keepdims=True) * uhat
    e1 = np.where(np.any(e1 != 0.0, axis=1, keepdims=True), e1,
                  np.cross(uhat, random_unit(rng, len(v))))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(uhat, e1)
    return sphere_grid(uhat, e1, e2, quad, 0.0)


def sphere_grid(uhat, e1, e2, quad, phi0):
    """s_i uhat + sin_i (cos phi e1 + sin phi e2) at phi = phi0 + 2 pi j / n_phi."""
    s = quad.nodes[:, None, None]
    sin_t = np.sqrt(1.0 - s * s)
    phi = (phi0 + 2.0 * np.pi * np.arange(quad.n_phi) / quad.n_phi)[:, None]
    ring = (np.cos(phi) * e1[:, None, None, :]
            + np.sin(phi) * e2[:, None, None, :])
    return s * uhat[:, None, None, :] + sin_t * ring  # (m, n_s, n_phi, 3)


def test_grid_matches_post_collision_sigma(models, rng):
    """Each node of the squared-speed grid is sq_norm of post_collision_sigma
    at the node's direction sigma_ij.  Pair 2 has v == v*, so u = 0 and
    post_collision_sigma keeps both velocities whatever sigma is: its grid
    holds |v|^2 and |v*|^2 on every node, in the batch and alone."""
    quad = AngularQuadrature(n_s=8, n_phi=6)
    v, vstar = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    v[0], vstar[0] = [0.0, 0.0, 3.0], [0.0, 0.0, 1.0]  # v parallel to u
    sigma = grid_directions(v, vstar, quad, rng)
    vstar[2] = v[2]  # after the directions: u = 0 has no frame
    np.testing.assert_allclose(np.linalg.norm(sigma, axis=-1), 1.0, atol=1e-14)
    sigma /= np.linalg.norm(sigma, axis=-1, keepdims=True)
    scale = (sq_norm(v) + sq_norm(vstar))[:, None, None]
    vb = np.broadcast_to(v[:, None, None], sigma.shape).reshape(-1, 3)
    vsb = np.broadcast_to(vstar[:, None, None], sigma.shape).reshape(-1, 3)
    for model in models.values():
        xp, xps, w = post_collision_grid(v, vstar, model, quad)
        assert xp.shape == xps.shape == (5, 8, 6)
        np.testing.assert_array_equal(w, 0.5 * quad.weights)
        ref_vp, ref_vps = post_collision_sigma(vb, vsb, sigma.reshape(-1, 3), model)
        assert np.all(np.abs(xp - sq_norm(ref_vp).reshape(xp.shape))
                      <= 1e-13 * scale)
        assert np.all(np.abs(xps - sq_norm(ref_vps).reshape(xps.shape))
                      <= 1e-13 * scale)
        for k in (1, 2):
            one_xp, one_xps, _ = post_collision_grid(v[k], vstar[k], model, quad)
            np.testing.assert_array_equal(one_xp, xp[k])
            np.testing.assert_array_equal(one_xps, xps[k])


@pytest.mark.parametrize("p", [1, 2])
def test_gain_average_frame_independent(models, rng, p):
    """For psi(x) = x and x^2 the azimuthal trapezoid rule is exact with
    n_phi >= 3, so gain_average equals a brute-force mean of
    post_collision_sigma over a sigma grid in a random frame about u, with
    a random azimuth origin."""
    quad = AngularQuadrature(n_s=12, n_phi=5)
    v, vstar = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    u = v - vstar
    uhat = u / np.linalg.norm(u, axis=1, keepdims=True)
    e1 = np.cross(uhat, random_unit(rng, 6))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(uhat, e1)
    sigma = sphere_grid(uhat, e1, e2, quad, rng.uniform(0.0, 2.0 * np.pi))
    sigma /= np.linalg.norm(sigma, axis=-1, keepdims=True)
    vb = np.broadcast_to(v[:, None, None], sigma.shape).reshape(-1, 3)
    vsb = np.broadcast_to(vstar[:, None, None], sigma.shape).reshape(-1, 3)
    w = 0.5 * quad.weights
    for model in models.values():
        vp, vps = post_collision_sigma(vb, vsb, sigma.reshape(-1, 3), model)
        vals = (sq_norm(vp) ** p + sq_norm(vps) ** p).reshape(sigma.shape[:3])
        brute = np.einsum("i,mij->m", w, vals) / quad.n_phi
        got = gain_average(lambda x: x ** p, v, vstar, model, quad)
        np.testing.assert_allclose(got, brute, rtol=1e-12, atol=0.0)


def test_angular_average_batch_matches_per_pair(models, rng):
    """A batch gives each pair's average, with psi's trailing axis kept."""
    v, vstar = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))

    def psi(x):
        return np.stack([x, x * x], axis=-1)

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
