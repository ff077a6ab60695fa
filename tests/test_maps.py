import warnings

import numpy as np
import pytest

from gsteady import maps
from gsteady.errors import InputError
from gsteady.restitution import constant, elastic, power_law, viscoelastic

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
        eta = maps.eta_e(model, grid)
        assert np.all(eta >= grid / 2.0)
        assert np.all(eta <= grid)


def test_alpha_inverse_roundtrip(models, rng):
    r = rng.uniform(1e-4, 100.0, size=1000)
    for model in models.values():
        back = maps.alpha_e(model, maps.eta_e(model, r))
        assert np.all(np.abs(back - r) < 1e-10 * np.maximum(1.0, r))


def test_alpha_sandwich_and_edges():
    model = viscoelastic(1.0)
    assert maps.alpha_e(model, 0.0) == 0.0
    s = np.logspace(-6, 4, 300)
    alpha = maps.alpha_e(model, s)
    assert np.all(alpha >= s * (1.0 - 1e-12))
    assert np.all(alpha <= 2.0 * s * (1.0 + 1e-12))
    assert maps.alpha_e(elastic(), 5.0) == pytest.approx(
        5.0, abs=1e-11)
    # s = 0 and an exact root eta_e(s) = s return s itself, next to elements
    # that bisect and past 2^1023, where s + s would overflow.
    s = np.array([0.0, 1e-100, 1.0, 1.5e308])
    np.testing.assert_array_equal(maps.alpha_e(elastic(), s), s)
    np.testing.assert_array_equal(maps.alpha_e(model, s[:3]),
                                  [0.0, 1e-100, maps.alpha_e(model, 1.0)])
    assert maps.alpha_e(model, 1.0) > 1.0


def test_alpha_range():
    """An element that bisects past f64max / 2 raises InputError naming
    alpha_e's range, with no warning first; up to f64max / 2 the root lies
    in its bracket and J_e in [1/8, 1], and the elastic law's exact roots
    need no bracket."""
    model = power_law(1.0, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, law in ((maps.alpha_e, model), (maps.jacobian_Je, viscoelastic(1.0))):
            with pytest.raises(InputError, match="alpha_e argument must be at most"):
                fn(law, np.array([1.0, 1e308]))
        s = np.array([6e307, maps.ALPHA_MAX])
        alpha = maps.alpha_e(model, s)
        jac = maps.jacobian_Je(model, s)
        assert maps.alpha_e(elastic(), 1.5e308) == 1.5e308
    assert np.all((alpha > s) & (alpha <= 2.0 * s))
    assert np.all((jac >= 0.125) & (jac <= 1.0))
    np.testing.assert_allclose(maps.eta_e(model, alpha), s, rtol=1e-12, atol=0.0)


def test_eta_prime_bounds(models):
    grid = np.logspace(-3, 3, 200)
    h = 1e-5
    for model in models.values():
        d = ((maps.eta_e(model, grid + h * grid) - maps.eta_e(model, grid - h * grid))
             / (2 * h * grid))
        assert np.all(d >= 0.5 - 1e-6)
        assert np.all(d <= maps.eta_e(model, grid) / grid + 1e-6)


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
        jac = maps.jacobian_Je(model, grid)
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
        w = rng.normal(size=(250, 3)) * rng.uniform(0.1, 10.0, size=(250, 1))
        z = maps.pi_forward(model, w)
        # Radial structure: |z| = eta(|w|) exactly.
        wn = np.linalg.norm(w, axis=1)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1),
                                   maps.eta_e(model, wn), rtol=1e-14, atol=0.0)
        back = maps.pi_inverse(model, z)
        assert np.all(np.max(np.abs(back - w), axis=1)
                      < 1e-10 * np.maximum(1.0, wn))
        np.testing.assert_array_equal(maps.pi_inverse(model, np.zeros(3)),
                                      np.zeros(3))
        one = maps.pi_inverse(model, z[0])
        assert one.shape == (3,)
        np.testing.assert_allclose(one, back[0], rtol=1e-15, atol=0.0)


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


def reference_alpha(model, s):
    """The bisection every element of alpha_e runs, one value at a time:
    40 halvings of [s, 2s]."""
    if s == 0.0:
        return 0.0
    lo, hi = s, 2.0 * s
    if maps.eta_e(model, lo) - s == 0.0:
        return lo
    for _ in range(40):
        mid = 0.5 * lo + 0.5 * hi
        if maps.eta_e(model, mid) - s <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def test_array_forms_match_per_element_calls(models):
    """An array gives each element's value bit for bit: every element of
    alpha_e's bisection takes the same 40 halvings as a lone call."""
    grid = np.concatenate([[0.0], np.logspace(-6, 4, 60)])
    for model in models.values():
        for fn in (maps.eta_e, maps.alpha_e, maps.theta_prime,
                   maps.jacobian_Je):
            vals = fn(model, grid)
            assert vals.shape == grid.shape
            one = [fn(model, float(x)) for x in grid]
            assert all(type(x) is float for x in one)
            np.testing.assert_array_equal(vals, one)
            np.testing.assert_array_equal(fn(model, grid[1:].reshape(6, 10)),
                                          vals[1:].reshape(6, 10))
        np.testing.assert_array_equal(
            maps.alpha_e(model, grid[::3]),
            [reference_alpha(model, float(x)) for x in grid[::3]])
