import numpy as np
import pytest

from gsteady import povzner, verify
from gsteady.dissipation import DissipationSpec, psi_e
from gsteady.errors import InputError
from gsteady.kinematics import AngularQuadrature
from gsteady.restitution import elastic, viscoelastic

QUAD = povzner.BATTERY_QUAD


def test_case_constants():
    for p in (2.0, 3.0):
        case = povzner.PovznerCase(p)
        assert case.a_const == 2.0 ** (p - 1.0)
        assert case.k_const * 2.0 ** (p - 2.0) == pytest.approx(5.0 / 96.0)
        assert case.a_const > 0.0 and case.k_const > 0.0
    with pytest.raises(InputError):
        povzner.PovznerCase(0.5)
    with pytest.raises(InputError):
        povzner.check_inequality([1.0, 0, 0], [0, 1.0, 0], 1.5, elastic(),
                                 QUAD)


def test_p1_is_dissipation_bridge(models, rng):
    """The p = 1 angular kernel equals -2 Psi(|u|^2)/|u|."""
    for model in models.values():
        spec = DissipationSpec(model)
        for _ in range(20):
            v, vstar = rng.normal(size=3), rng.normal(size=3)
            un = float(np.linalg.norm(v - vstar))
            val = povzner.angular_kernel(v, vstar, 1.0, model,
                                         AngularQuadrature(n_s=64))
            ref = -2.0 * psi_e(spec, un * un) / un
            if model.kind == "constant" and model.e0 == 1.0:
                assert abs(val) < 1e-12
            else:
                assert val == pytest.approx(ref, rel=1e-6)


def test_elastic_p1_zero(rng):
    v, vstar = rng.normal(size=3), rng.normal(size=3)
    assert abs(povzner.angular_kernel(v, vstar, 1.0, elastic(), QUAD)) < 1e-12


def test_elastic_antipodal_p2():
    """For v* = -v the center of mass vanishes: elastically |v'| = |v| on the
    whole sphere, so the kernel value is exactly 0 (the quadrature must agree
    with this 1-D reduction to tight tolerance)."""
    v = np.array([1.3, -0.4, 0.2])
    val = povzner.angular_kernel(v, -v, 2.0, elastic(), QUAD)
    assert abs(val) <= 1e-8
    assert val <= 1e-8  # never above the symmetry-reduced value


def test_zero_pair_margin():
    z = np.zeros(3)
    assert povzner.angular_kernel(z, z, 2.0, elastic(), QUAD) == 0.0
    assert povzner.check_inequality(z, z, 2.0, elastic(), QUAD) == 0.0


def test_margins_battery(models, rng):
    for model in models.values():
        for p in (2.0, 3.0):
            margins, norms = povzner.battery(p, model, 400, rng)
            assert norms.shape == (400,)
            assert np.min(norms) >= -1e-9


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_battery_needs_a_pair(rng, n_pairs):
    with pytest.raises(InputError, match="n_pairs must be at least 1"):
        povzner.battery(2.0, elastic(), n_pairs, rng)


def test_batch_matches_per_pair(models, rng):
    """The batched kernel, gain term, bound and margin equal one call per pair.
    Made equal to v[4], vstar[4] gives kernel 0 to rounding and leaves every
    other pair's kernel as it was, bit for bit."""
    v = rng.normal(size=(15, 3))
    vstar = rng.normal(size=(15, 3))
    for model in models.values():
        for fn in (povzner.angular_kernel, povzner.gain_term,
                   povzner.check_inequality):
            batch = fn(v, vstar, 3.0, model, QUAD)
            assert batch.shape == (15,)
            ref = [fn(v[k], vstar[k], 3.0, model, QUAD) for k in range(15)]
            np.testing.assert_allclose(batch, ref, rtol=1e-13, atol=0.0)
    bound = povzner.gain_upper_bound(v, vstar, 3.0)
    ref = [povzner.gain_upper_bound(v[k], vstar[k], 3.0) for k in range(15)]
    np.testing.assert_allclose(bound, ref, rtol=1e-13, atol=0.0)
    equal = vstar.copy()
    equal[4] = v[4]
    others = np.arange(15) != 4
    for model in models.values():
        kernel = povzner.angular_kernel(v, equal, 3.0, model, QUAD)
        assert abs(kernel[4]) <= 1e-14 * float(v[4] @ v[4]) ** 3.0
        np.testing.assert_array_equal(
            kernel[others],
            povzner.angular_kernel(v, vstar, 3.0, model, QUAD)[others])


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_gain_term_of_equal_pair(rng, p):
    """A pair with v == v* does not collide: its gain term is
    2 |v|^(2p) for every law."""
    v = rng.normal(size=3)
    want = 2.0 * float(v @ v) ** p
    for model in verify._models().values():
        got = povzner.gain_term(v, v, p, model, QUAD)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_refit_k_matches_pair_loop():
    """refit_k of a battery's margins equals min over its pairs of
    (head - kernel) / (p (p-1) E^p), the pairs drawn as battery draws them
    (a block of v, then a block of v*, per chunk), across several chunks."""
    n = povzner.PAIR_CHUNK + 7
    model = viscoelastic(1.0)
    for p in (2.0, 3.0):
        _, norms = povzner.battery(p, model, n, np.random.default_rng(11))
        k = povzner.PovznerCase(p).refit_k(norms)
        draw = np.random.default_rng(11)
        a_const = 2.0 ** (p - 1.0)
        ref = np.inf
        for start in range(0, n, povzner.PAIR_CHUNK):
            m = min(povzner.PAIR_CHUNK, n - start)
            vs, vstars = draw.normal(size=(m, 3)), draw.normal(size=(m, 3))
            for v, vstar in zip(vs, vstars):
                x, y = float(v @ v), float(vstar @ vstar)
                head = a_const * p * (x * y ** (p - 1.0) + y * x ** (p - 1.0))
                kernel = povzner.angular_kernel(v, vstar, p, model, QUAD)
                ref = min(ref, (head - kernel) / (p * (p - 1.0) * (x + y) ** p))
        assert k == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_gain_upper_bound(models, rng):
    for _ in range(100):
        v, vstar = rng.normal(size=3), rng.normal(size=3)
        for model in models.values():
            for p in (2.0, 3.0):
                gain = povzner.gain_term(v, vstar, p, model, QUAD)
                bound = povzner.gain_upper_bound(v, vstar, p)
                e_tot = float(v @ v + vstar @ vstar)
                assert gain <= bound + 1e-9 * e_tot ** p


def test_refit_k_positive(rng):
    _, norms = povzner.battery(2.0, viscoelastic(1.0), 50, rng)
    k = povzner.PovznerCase(2.0).refit_k(norms)
    assert k > 0.0
    # The printed constant must not exceed the refit headroom.
    assert povzner.PovznerCase(2.0).k_const <= k
