import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gsteady import _helper
from gsteady.dissipation import (PSI_BLOCK, DissipationSpec,
                                 dissipation_functional,
                                 gaussian_pair_average, psi_e,
                                 steady_temperature_ansatz, theta_limit,
                                 zeta_lambda, zeta_zero)
from gsteady.errors import InputError
from gsteady.kinematics import gauss_legendre
from gsteady.observables import maxwell_moment
from gsteady.restitution import (constant, e_of_s, elastic, eval_e, power_law,
                                 rescale, viscoelastic)

# Frozen oracles (independent closed-form / bisection evaluation).
ZETA0_A1_G02_R4 = 2.187996866661019  # 4^{1.6} / 4.2
THETA_A1_G02 = 1.0649041657330351
THETA_A1_G05 = 0.8987760449750569


def test_psi_elastic_zero():
    spec = DissipationSpec(elastic())
    assert psi_e(spec, 3.7) == 0.0
    assert np.all(psi_e(spec, np.linspace(0, 10, 5)) == 0.0)


def test_psi_constant_closed_form():
    e0 = 0.4
    spec = DissipationSpec(constant(e0))
    r = np.array([0.5, 1.0, 9.0])
    np.testing.assert_allclose(psi_e(spec, r),
                               r ** 1.5 * (1.0 - e0 * e0) / 8.0, rtol=1e-12)
    assert psi_e(spec, 0.0) == 0.0


def test_psi_small_r_asymptotic():
    """Psi(r) -> a r^{(3+gamma)/2}/(4+gamma) with relative error O(a r^{gamma/2});
    for gamma = 0.2 the 1e-2 band therefore needs r below ~1e-22."""
    spec = DissipationSpec(power_law(1.0, 0.2))
    m = spec.model
    ratios = []
    for r in (1e-6, 1e-12, 1e-24):
        ref = m.a * r ** (0.5 * (3.0 + m.gamma)) / (4.0 + m.gamma)
        ratios.append(psi_e(spec, r) / ref)
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0
    assert ratios[2] == pytest.approx(1.0, abs=1e-2)


def test_psi_negative_rejected():
    with pytest.raises(InputError):
        psi_e(DissipationSpec(viscoelastic(1.0)), -0.1)


@pytest.mark.parametrize("r", [-0.1, np.nan, np.inf, [1.0, np.nan, 2.0],
                               [[0.5, -np.inf]]])
def test_psi_rejects_negative_and_non_finite(r):
    with pytest.raises(InputError):
        psi_e(DissipationSpec(power_law(1.0, 0.2)), r)


@pytest.mark.parametrize("model", [
    constant(0.4), power_law(1.0, 0.2), rescale(power_law(1.0, 1.0), 0.3),
    viscoelastic(1.0), rescale(viscoelastic(1.0), 0.1)])
def test_psi_e_matches_per_node_definition(model):
    """One law power per pair agrees with evaluating e at every node,
    0.5 r^1.5 sum_k (1 - e(sqrt(r) z_k)^2) z_k^3 w_k."""
    z, w = gauss_legendre(64)
    z, w = 0.5 * (z + 1.0), 0.5 * w
    r = np.concatenate([[0.0], np.logspace(-12, 8, 400)])
    e = np.asarray(eval_e(model, np.sqrt(r)[:, None] * z))
    ref = 0.5 * r ** 1.5 * np.sum((1.0 - e * e) * z ** 3 * w, axis=-1)
    np.testing.assert_allclose(psi_e(DissipationSpec(model), r), ref,
                               rtol=1e-13, atol=0.0)


def test_psi_convex_nondecreasing():
    spec = DissipationSpec(viscoelastic(1.0))
    grid = np.logspace(-4, 4, 300)
    vals = psi_e(spec, grid)
    assert np.all(np.diff(vals) >= 0.0)
    second = np.diff(np.diff(vals))
    assert np.min(second) >= -1e-9 * np.max(vals)


def test_psi_upper_bound_power():
    spec = DissipationSpec(power_law(1.0, 0.2))
    r = np.logspace(-3, 3, 200)
    ratio = psi_e(spec, r * r) / r ** (3.0 + spec.model.gamma)
    assert np.all(np.isfinite(ratio))
    assert np.max(ratio) < 10.0


def test_zeta_lambda_identity_and_elastic():
    spec = DissipationSpec(power_law(1.0, 0.2))
    r2 = np.linspace(0.1, 5.0, 20)
    np.testing.assert_allclose(zeta_lambda(spec, 1.0, r2), psi_e(spec, r2),
                               rtol=1e-14)
    assert np.all(zeta_lambda(DissipationSpec(elastic()), 0.3, r2) == 0.0)
    with pytest.raises(InputError):
        zeta_lambda(spec, 0.0, 1.0)


def test_zeta_limit_monotone():
    spec = DissipationSpec(power_law(1.0, 0.2))
    target = zeta_zero(1.0, 0.2, 1.0)
    gaps = [abs(zeta_lambda(spec, lam, 1.0) - target)
            for lam in (0.5, 0.1, 0.01)]
    assert gaps[0] > gaps[1] > gaps[2]
    # Rate envelope: gap/target <= C lambda^gamma with moderate C.
    for lam, gap in zip((0.5, 0.1, 0.01), gaps):
        assert gap / target < 3.0 * lam ** 0.2


def test_zeta_zero_values():
    assert zeta_zero(1.0, 0.2, 0.0) == 0.0
    assert zeta_zero(4.2, 0.2, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert zeta_zero(1.0, 0.2, 4.0) == pytest.approx(ZETA0_A1_G02_R4, rel=1e-13)


def test_functional_two_particles():
    vel = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    zeta = lambda r2: zeta_zero(4.2, 0.2, r2)
    est = dissipation_functional(vel, zeta)
    assert est == pytest.approx(zeta(4.0) / 2.0, rel=1e-14)


def test_functional_single_particle_and_errors():
    assert dissipation_functional(np.zeros((1, 3)), lambda r2: r2) == 0.0
    with pytest.raises(InputError):
        dissipation_functional(np.zeros((0, 3)), lambda r2: r2)
    with pytest.raises(InputError):
        dissipation_functional(np.zeros((4, 2)), lambda r2: r2)
    for bad in (0, -5):
        with pytest.raises(InputError, match="n_pairs must be at least 1"):
            dissipation_functional(np.ones((4, 3)), lambda r2: r2, n_pairs=bad)


def test_functional_sampled_close_to_exact(rng):
    vel = rng.normal(size=(500, 3))
    zeta = lambda r2: zeta_zero(1.0, 0.2, r2)
    exact = dissipation_functional(vel, zeta)
    sampled = dissipation_functional(vel, zeta, n_pairs=200_000, rng=rng)
    assert sampled == pytest.approx(exact, rel=0.02)


def test_functional_all_pairs_when_asked_for_more(rng):
    """n_pairs at or above N(N-1)/2 evaluates every pair once: N=3000 with
    5e6 pairs asked for gives the mean over its 4,498,500 pairs."""
    n = 3000
    vel = rng.normal(size=(n, 3))
    sizes = []

    def zeta(r2):
        sizes.append(r2.size)
        return r2

    total = n * (n - 1) // 2
    # Mean of |v_i - v_j|^2 over the pairs i < j, summed row by row.
    direct = sum(float(np.sum((vel[i] - vel[i + 1:]) ** 2))
                 for i in range(n - 1)) / total
    for n_pairs in (5_000_000, total):
        est = dissipation_functional(vel, zeta, n_pairs)
        assert sizes.pop() == total
        assert est == pytest.approx((n - 1) / n * direct, rel=1e-12)
    dissipation_functional(vel, zeta, total - 1, np.random.default_rng(1))
    assert sizes.pop() == total - 1


def test_functional_maxwellian_gives_six(rng):
    theta = theta_limit(1.0, 0.2).theta
    vel = rng.normal(0.0, np.sqrt(theta), size=(120_000, 3))
    est = dissipation_functional(vel, lambda r2: zeta_zero(1.0, 0.2, r2),
                                 n_pairs=400_000, rng=rng)
    assert est == pytest.approx(6.0, rel=0.02)


def test_theta_limit_frozen():
    res = theta_limit(1.0, 0.2)
    assert res.theta == pytest.approx(THETA_A1_G02, rel=1e-12)
    assert theta_limit(1.0, 0.5).theta == pytest.approx(THETA_A1_G05, rel=1e-12)
    assert res.theta_paper_formula > 0.0
    assert res.theta_paper_formula != pytest.approx(res.theta, rel=0.05)


def test_theta_scaling_law():
    g = 0.2
    ratio = theta_limit(3.0, g).theta / theta_limit(1.0, g).theta
    assert ratio == pytest.approx(3.0 ** (-2.0 / (3.0 + g)), rel=1e-12)
    with pytest.raises(InputError):
        theta_limit(-1.0, 0.2)


@pytest.mark.parametrize("a, g", [(math.nan, 0.2), (math.inf, 0.2),
                                  (1.0, math.nan), (1.0, math.inf)])
def test_theta_limit_rejects_non_finite(a, g):
    """A NaN or infinite parameter raises rather than giving a NaN or zero
    temperature."""
    with pytest.raises(InputError, match="finite"):
        theta_limit(a, g)


@pytest.mark.parametrize("g", [0.2, 0.5, 1.0])
def test_theta_monte_carlo(g, rng):
    theta = theta_limit(1.0, g).theta
    v = rng.normal(0.0, np.sqrt(theta), size=(1_000_000, 3))
    w = rng.normal(0.0, np.sqrt(theta), size=(1_000_000, 3))
    r = np.linalg.norm(v - w, axis=1)
    est = np.mean(r ** (3.0 + g)) / (4.0 + g)
    assert est == pytest.approx(6.0, rel=0.02)


def test_relative_speed_moment_vs_mc(rng):
    theta, q = 0.7, 3.2
    v = rng.normal(0.0, np.sqrt(theta), size=(1_000_000, 3))
    w = rng.normal(0.0, np.sqrt(theta), size=(1_000_000, 3))
    mc = float(np.mean(np.linalg.norm(v - w, axis=1) ** q))
    # V - V* is Gaussian at temperature 2 theta.
    assert maxwell_moment(2.0 * theta, q / 2) == pytest.approx(mc, rel=0.01)


def test_gaussian_pair_average_consistency():
    theta = theta_limit(1.0, 0.2).theta
    val = gaussian_pair_average(lambda r2: zeta_zero(1.0, 0.2, r2), theta)
    assert val == pytest.approx(6.0, abs=1e-6)


def test_steady_ansatz_limits():
    spec = DissipationSpec(power_law(1.0, 0.2))
    # Finite-lambda bias is O(lambda^gamma), so a tight check needs tiny lambda.
    t_small = steady_temperature_ansatz(spec, 1e-12)
    assert t_small == pytest.approx(theta_limit(1.0, 0.2).theta, rel=2e-2)
    # Monotone in lambda: weaker inelasticity needs higher temperature.
    ts = [steady_temperature_ansatz(spec, lam) for lam in (0.4, 0.2, 0.1, 0.05)]
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_steady_ansatz_without_root_is_input_error():
    """An elastic law dissipates nothing: the balance is -6 at both ends of
    the bracket, so there is no steady temperature to find."""
    for model in (elastic(), constant(1.0)):
        with pytest.raises(InputError, match="no steady temperature"):
            steady_temperature_ansatz(DissipationSpec(model), 0.5)


# The fewest rows whose psi_e the caller and the helper thread split: two
# blocks and _helper.MIN_SIZE law evaluations.
SPLIT_ROWS = max(_helper.MIN_SIZE // 64, PSI_BLOCK + 1)


@pytest.mark.parametrize("model", [constant(0.4), power_law(1.0, 0.2),
                                   viscoelastic(1.0)],
                         ids=["constant", "power_law", "viscoelastic"])
def test_psi_e_split_equals_serial_blocks(model, monkeypatch):
    """Just below the split threshold psi_e runs inline; at it, just above
    it and at a row count that is no multiple of PSI_BLOCK, the helper
    evaluates the second half of the blocks.  Every value equals the serial
    block loop's (the pool workers' path) bit for bit."""
    started = []
    submit = _helper.submit

    def spy(fn, *args):
        started.append(fn.__name__)
        return submit(fn, *args)

    monkeypatch.setattr(_helper, "submit", spy)
    spec = DissipationSpec(model)
    r = np.random.default_rng(6).exponential(2.0, size=3 * SPLIT_ROWS)
    sizes = (SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1, 2 * SPLIT_ROWS + 37)
    assert sizes[-1] % PSI_BLOCK != 0
    split = [psi_e(spec, r[:n]) for n in sizes]
    assert started == ["_psi_blocks"] * 3
    monkeypatch.setattr(_helper, "MIN_SIZE", math.inf)
    for n, got in zip(sizes, split):
        np.testing.assert_array_equal(got.view(np.int64),
                                      psi_e(spec, r[:n]).view(np.int64))
    assert started == ["_psi_blocks"] * 3


def test_psi_e_split_keeps_caller_error_state():
    """The helper's half runs under the caller's numpy error state: an
    overflow there raises in the caller under `over="raise"`, as inline,
    and warns nothing under `over="ignore"`."""
    spec = DissipationSpec(constant(0.4))
    r = np.ones(2 * SPLIT_ROWS)
    r[-1] = 1e300  # r ** 1.5 overflows, in the helper's half
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        psi_e(spec, r)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psi_e(spec, r)[-1] == np.inf


def test_psi_e_blocks_match_whole_array():
    """Blocks of rows leave every value bit for bit as one whole-array pass."""
    r = np.random.default_rng(4).exponential(2.0, size=2 * PSI_BLOCK + 5)
    for model in (power_law(1.0, 0.2), viscoelastic(1.0)):
        spec = DissipationSpec(model)
        s = (model.lambda_scale * np.sqrt(r)) ** model.gamma
        e = e_of_s(model, s[:, None] * spec._z_gamma)
        whole = 0.5 * r ** 1.5 * np.sum((1.0 - e * e) * spec._z3w, axis=-1)
        np.testing.assert_array_equal(psi_e(spec, r), whole)
        np.testing.assert_array_equal(psi_e(spec, r.reshape(-1, 1)),
                                      whole.reshape(-1, 1))
        assert psi_e(spec, r[7]) == whole[7]


def test_psi_e_memory_bounded():
    """One call on 100 000 pairs (the diagnostic's default sample) peaks
    under 32 MB of traced memory, for the power law and for the
    viscoelastic law with its Newton arrays; its (pairs x 64 nodes)
    temporaries held at once would take about 200 MB."""
    r = np.random.default_rng(5).exponential(2.0, size=100_000)
    for model in (power_law(1.0, 0.2), viscoelastic(1.0)):
        spec = DissipationSpec(model)
        psi_e(spec, r[:10])
        tracemalloc.start()
        try:
            psi_e(spec, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, model.kind
