import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsteady import verify
from gsteady.dissipation import DissipationSpec
from gsteady.errors import InputError
from gsteady.restitution import (RestitutionModel, _visco_newton, beta,
                                 constant, eval_e, implicit_residual, log_grid,
                                 power_law, rescale, theta, viscoelastic)

# Frozen root of e + e^{3/5} = 1 (independent bracketed bisection oracle).
E_VISC_AT_1 = 0.4123201971422618
# Frozen root of e + 4^{1/5} e^{3/5} = 1.
E_VISC_AT_4 = 0.32621983874569727


def test_viscoelastic_at_zero_is_elastic():
    assert eval_e(viscoelastic(1.0), 0.0) == 1.0
    assert eval_e(power_law(1.0, 0.2), 0.0) == 1.0


def test_viscoelastic_frozen_roots():
    m = viscoelastic(1.0)
    assert eval_e(m, 1.0) == pytest.approx(E_VISC_AT_1, abs=1e-12)
    assert eval_e(m, 4.0) == pytest.approx(E_VISC_AT_4, abs=1e-12)
    assert beta(m, 1.0) == pytest.approx(0.5 * (1.0 + E_VISC_AT_1), abs=1e-12)


def test_power_law_closed_form():
    assert eval_e(power_law(1.0, 0.5), 4.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_constant_beta():
    assert beta(constant(0.5), 7.3) == 0.75


def test_visco_newton_does_not_depend_on_its_array():
    """Each element equals a lone call on it, whether it stops with most of
    the array or is left among the few slow ones, in a 1-d array and in a
    (rows x 64 nodes) block shaped like psi_e's."""
    rng = np.random.default_rng(12)
    c = np.concatenate([[0.0, 1e-30, 1e3, 1e8], 10.0 ** rng.uniform(-8, 8, 200),
                        rng.uniform(0.0, 2.0, 200)])
    rng.shuffle(c)
    y = _visco_newton(c)
    for i, ci in enumerate(c):
        assert y[i] == _visco_newton(np.array([ci]))[0], ci
    model = viscoelastic(2.0)
    spec = DissipationSpec(model)
    r = np.concatenate([[0.0, 1e-20, 1e6], rng.exponential(2.0, size=37)])
    s = np.sqrt(r) ** model.gamma
    block = model.a * (s[:, None] * spec._z_gamma)
    assert block.shape == (40, 64)
    y = _visco_newton(block)
    assert y.shape == block.shape
    for idx, ci in np.ndenumerate(block):
        assert y[idx] == _visco_newton(np.array([ci]))[0], ci


def test_implicit_residual_tight():
    m = viscoelastic(1.0)
    res = implicit_residual(m, log_grid())
    assert np.max(np.abs(res)) < 1e-10


def test_implicit_residual_wrong_kind():
    with pytest.raises(InputError):
        implicit_residual(power_law(1.0, 0.2), 1.0)


def test_monotone_and_theta_increasing(models, rng):
    r = np.sort(rng.uniform(0.0, 50.0, size=2000))
    for m in models.values():
        e = eval_e(m, r)
        assert np.all(np.diff(e) <= 1e-15)
        assert np.all((0.0 < e) & (e <= 1.0))
        th = theta(m, r)
        assert np.all(np.diff(th) > 0.0)


def test_small_r_expansion(models):
    r = np.logspace(-6, -2, 400)
    for name in ("power_law", "viscoelastic"):
        m = models[name]
        gap = np.abs(eval_e(m, r) - (1.0 - m.a * r ** m.gamma))
        assert np.max(gap / r ** m.gamma_bar) < 10.0


def test_rescale_composition():
    m = viscoelastic(1.0)
    r = np.linspace(0.1, 10.0, 50)
    twice = rescale(rescale(m, 0.5), 0.5)
    np.testing.assert_allclose(eval_e(twice, r), eval_e(m, 0.25 * r), rtol=1e-13)
    np.testing.assert_array_equal(eval_e(rescale(m, 1.0), r), eval_e(m, r))


def test_rescale_power_law_closed_form():
    m = power_law(2.0, 0.4)
    r = np.linspace(0.01, 5.0, 40)
    lam = 0.3
    expect = 1.0 / (1.0 + 2.0 * (lam * r) ** 0.4)
    np.testing.assert_allclose(eval_e(rescale(m, lam), r), expect, rtol=1e-13)


def test_ell_gamma_rescale_bound():
    """ell(e_lam) <= lam^gamma ell(e) holds for true suprema; on a finite grid
    the left side can exceed by O(r_min^gamma), so the grid must reach low r."""
    m = viscoelastic(1.0)
    grid = log_grid(lo=1e-30)
    lam = 0.2
    ell = [np.max((1.0 - eval_e(model, grid)) / grid ** m.gamma)
           for model in (rescale(m, lam), m)]
    assert ell[0] / ell[1] <= lam ** m.gamma * (1.0 + 1e-5)
    rows = {name: passed for name, _, passed in verify.check_restitution()}
    assert rows["ell_gamma_rescale[power_law]"]
    assert rows["ell_gamma_rescale[viscoelastic]"]


def test_input_validation():
    with pytest.raises(InputError):
        eval_e(viscoelastic(1.0), -1.0)
    with pytest.raises(InputError):
        eval_e(viscoelastic(1.0), np.inf)
    with pytest.raises(InputError):
        RestitutionModel(kind="bogus")
    with pytest.raises(InputError):
        constant(0.0)
    with pytest.raises(InputError):
        constant(1.5)
    with pytest.raises(InputError):
        power_law(1.0, 1.5)
    with pytest.raises(InputError):
        power_law(-1.0, 0.2)
    with pytest.raises(InputError):
        viscoelastic(0.0)
    with pytest.raises(InputError, match="fixes gamma"):
        RestitutionModel(kind="viscoelastic", gamma=0.5)
    with pytest.raises(InputError):
        rescale(viscoelastic(1.0), 1.5)


@pytest.mark.parametrize("a", [np.nan, np.inf])
@pytest.mark.parametrize("law", [lambda a: power_law(a, 0.2), viscoelastic],
                         ids=["power_law", "viscoelastic"])
def test_law_coefficient_must_be_finite(law, a):
    with pytest.raises(InputError, match="finite"):
        law(a)


def test_viscoelastic_coefficient_keeps_e_finite():
    """The largest admitted viscoelastic a gives a finite e in [0, 1] at the
    largest finite impact speed, with no warning; the next float up is
    refused, as is a = 1e308, whose Newton solve once returned NaN."""
    f64max = float(np.finfo(float).max)
    a = f64max / (3.0 * f64max ** 0.2)
    while 3.0 * (a * f64max ** 0.2) == math.inf:  # Python floats: no warning
        a = math.nextafter(a, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = viscoelastic(a)
        e = eval_e(model, f64max)
        es = eval_e(model, np.array([f64max, 1e300, 1.0, 0.0]))
        for b in (math.nextafter(a, math.inf), 1e308):
            with pytest.raises(InputError, match="viscoelastic coefficient a"):
                viscoelastic(b)
    assert 0.0 <= e <= 1.0
    assert np.all((es >= 0.0) & (es <= 1.0))


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0),
                                    (2.0, 1.0), (1.0, 1.0), (1.0, np.inf),
                                    (np.nan, 1.0)])
def test_log_grid_rejects_bad_bounds(lo, hi):
    with pytest.raises(InputError, match="log_grid"):
        log_grid(lo, hi)


def reference_visco_newton(c):
    """The fixed-step Newton solve written with one new array per
    operation: the in-place loop must give its values bit for bit."""
    y = (c + 1.0) ** (-1.0 / 3.0)
    c3 = 3.0 * c
    for _ in range(4):
        y2 = y * y
        step = y2 * y
        step *= y2 + c
        step -= 1.0
        dg = 5.0 * y
        dg *= y
        dg += c3
        dg *= y2
        step /= dg
        y = y - step
    return y


def test_visco_newton_equals_allocating_loop():
    c = np.concatenate([[0.0], np.logspace(-12, 6, 20_001)])
    np.testing.assert_array_equal(_visco_newton(c), reference_visco_newton(c))
    block = c[:20_000].reshape(100, 200)
    np.testing.assert_array_equal(_visco_newton(block),
                                  reference_visco_newton(block))


def test_visco_newton_within_one_ulp_of_long_double_root():
    """Every y lies within 1 ulp of the double nearest the root, which 80
    Newton steps in long double find, for c from 0 and the smallest
    subnormal up to 1e300."""
    rng = np.random.default_rng(26)
    c = np.concatenate([[0.0, 5e-324], np.logspace(-300, 300, 20_001),
                        10.0 ** rng.uniform(-300.0, 300.0, 10_000),
                        rng.uniform(0.0, 50.0, 10_000)])
    cl = c.astype(np.longdouble)
    root = 1.0 / np.cbrt(cl + 1.0)
    for _ in range(80):
        root -= ((root ** 3 * (root * root + cl) - 1.0)
                 / (root * root * (5.0 * root * root + 3.0 * cl)))
    near = root.astype(float)
    y = _visco_newton(c)
    bad = np.abs(y - near) > np.spacing(near)
    assert not bad.any(), c[bad][:5]


def test_gamma_bar_defaults():
    """gamma_bar follows from the law and cannot be set."""
    assert power_law(1.0, 0.3).gamma_bar == pytest.approx(0.6)
    assert viscoelastic(1.0).gamma_bar == pytest.approx(0.4)
    with pytest.raises(TypeError):
        RestitutionModel(kind="power_law", a=1.0, gamma=0.5, gamma_bar=0.4)


@settings(max_examples=200, deadline=None)
@given(r1=st.floats(0.0, 1e6), r2=st.floats(0.0, 1e6),
       kind=st.sampled_from(["power_law", "viscoelastic"]))
def test_monotone_property(r1, r2, kind):
    m = power_law(1.0, 0.2) if kind == "power_law" else viscoelastic(1.0)
    lo, hi = sorted((r1, r2))
    assert eval_e(m, lo) >= eval_e(m, hi)
    assert theta(m, lo) <= theta(m, hi)
