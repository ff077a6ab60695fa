import numpy as np
import pytest

from gsteady import maps
from gsteady.errors import InputError
from gsteady.restitution import constant, elastic, viscoelastic

from conftest import random_unit


def test_eta_basics():
    model = elastic()
    assert maps.eta_e(model, 0.0) == 0.0
    assert maps.eta_e(model, 3.0) == 3.0
    with pytest.raises(InputError):
        maps.eta_e(model, -1.0)


def test_eta_sandwich(models):
    grid = np.logspace(-6, 4, 500)
    for model in models.values():
        eta = np.array([maps.eta_e(model, r) for r in grid])
        assert np.all(eta >= grid / 2.0)
        assert np.all(eta <= grid)


def test_alpha_inverse_roundtrip(models, rng):
    r = rng.uniform(1e-4, 100.0, size=1000)
    for model in models.values():
        for rk in r[:250]:
            back = maps.alpha_e(model, maps.eta_e(model, rk))
            assert abs(back - rk) < 1e-10 * max(1.0, rk)


def test_alpha_sandwich_and_edges():
    model = viscoelastic(1.0)
    assert maps.alpha_e(model, 0.0) == 0.0
    s = np.logspace(-6, 4, 300)
    alpha = np.array([maps.alpha_e(model, sk) for sk in s])
    assert np.all(alpha >= s * (1.0 - 1e-12))
    assert np.all(alpha <= 2.0 * s * (1.0 + 1e-12))
    assert maps.alpha_e(elastic(), 5.0) == pytest.approx(
        5.0, abs=1e-11)


def test_eta_prime_bounds(models):
    grid = np.logspace(-3, 3, 200)
    h = 1e-5
    for model in models.values():
        for r in grid:
            d = ((maps.eta_e(model, r + h * r) - maps.eta_e(model, r - h * r))
                 / (2 * h * r))
            assert d >= 0.5 - 1e-6
            assert d <= maps.eta_e(model, r) / r + 1e-6


def test_jacobian_constant_closed_form():
    e0 = 0.6
    model = constant(e0)
    expect = (1.0 + e0) ** 3 / 8.0
    for rho in (0.2, 1.0, 7.0):
        assert maps.jacobian_Je(model, rho) == pytest.approx(expect, rel=1e-5)
    assert maps.jacobian_Je(elastic(), 2.0) == pytest.approx(
        1.0, rel=1e-6)


def test_jacobian_universal_bound(models):
    grid = np.logspace(-6, 4, 1000)
    for model in models.values():
        jac = np.array([maps.jacobian_Je(model, rho) for rho in grid])
        assert np.all(jac >= 0.125 - 1e-9)
        assert np.all(jac <= 1.0 + 1e-9)


def test_cone_map_axis_aligned():
    sigma = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(maps.phi_sigma(3.0 * sigma, sigma), 3.0 * sigma)
    np.testing.assert_allclose(maps.varphi_sigma(3.0 * sigma, sigma),
                               3.0 * sigma)


def test_cone_roundtrip_and_jacobian(rng):
    for _ in range(300):
        sigma = random_unit(rng)
        u = rng.normal(size=3)
        uhat = u / np.linalg.norm(u)
        if uhat @ sigma <= -0.9:  # stay inside the forward cone
            continue
        w = maps.phi_sigma(u, sigma)
        back = maps.varphi_sigma(w, sigma)
        assert np.max(np.abs(back - u)) < 1e-10 * max(1.0, np.linalg.norm(u))
        det = maps.numerical_jacobian(lambda x: maps.phi_sigma(x, sigma), u)
        assert det == pytest.approx((1.0 + uhat @ sigma) / 8.0, abs=1e-6)


def test_varphi_domain_error():
    sigma = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InputError):
        maps.varphi_sigma(np.array([0.0, 0.0, -1.0]), sigma)


def test_pi_maps(models, rng):
    elastic_model = elastic()
    w = rng.normal(size=3)
    np.testing.assert_allclose(maps.pi_forward(elastic_model, w), w)
    np.testing.assert_allclose(maps.pi_inverse(elastic_model, w), w)
    for model in models.values():
        for _ in range(250):
            w = rng.normal(size=3) * rng.uniform(0.1, 10.0)
            z = maps.pi_forward(model, w)
            # Radial structure: |z| = eta(|w|) exactly.
            assert np.linalg.norm(z) == pytest.approx(
                maps.eta_e(model, np.linalg.norm(w)), rel=1e-14)
            back = maps.pi_inverse(model, z)
            assert np.max(np.abs(back - w)) < 1e-10 * max(1.0, np.linalg.norm(w))
        np.testing.assert_array_equal(maps.pi_inverse(model, np.zeros(3)),
                                      np.zeros(3))


def test_composite_jacobian(models, rng):
    """det D(pi_forward . phi_sigma) = J_sigma(u) * J_e(|z|)."""
    for model in models.values():
        count = 0
        for _ in range(200):
            if count >= 25:
                break
            sigma = random_unit(rng)
            u = rng.normal(size=3)
            uhat = u / np.linalg.norm(u)
            if uhat @ sigma <= -0.8:
                continue
            count += 1
            compose = lambda x: maps.pi_forward(model, maps.phi_sigma(x, sigma))
            det = maps.numerical_jacobian(compose, u)
            z = compose(u)
            expect = (1.0 + uhat @ sigma) / 8.0 * maps.jacobian_Je(
                model, float(np.linalg.norm(z)))
            assert det == pytest.approx(expect, rel=1e-5, abs=1e-9)
