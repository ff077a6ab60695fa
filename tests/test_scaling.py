import dataclasses
import math

import numpy as np
import pytest

from gsteady.dsmc import EngineConfig, InitialCondition, initial_ensemble
from gsteady.errors import InputError
from gsteady.observables import moments
from gsteady.restitution import power_law
from gsteady.scaling import (rescale_ensemble, scaling_equivalence_test,
                             two_sample_z)


def test_rescale_ensemble_moments():
    cfg = EngineConfig(n=3000, dt=0.01, mu=0.1, seed=4)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    lam = 0.25
    scaled = rescale_ensemble(ens, lam)
    m_orig = moments(ens)
    m_scaled = moments(scaled)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert m_scaled[p] == pytest.approx(lam ** (-2 * p) * m_orig[p],
                                            rel=1e-12)
    assert scaled.t == ens.t
    # Composition and identity.
    twice = rescale_ensemble(rescale_ensemble(ens, 0.5), 0.5)
    np.testing.assert_array_equal(twice.velocities,
                                  rescale_ensemble(ens, 0.25).velocities)
    np.testing.assert_array_equal(rescale_ensemble(ens, 1.0).velocities,
                                  ens.velocities)
    with pytest.raises(InputError):
        rescale_ensemble(ens, 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_rescale_ensemble_rejects_bad_factor(lam):
    """A NaN factor would turn every velocity into NaN, and an infinite one
    every velocity into 0."""
    cfg = EngineConfig(n=100, dt=0.01, mu=0.1, seed=4)
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    with pytest.raises(InputError, match="finite and positive"):
        rescale_ensemble(ens, lam)


def test_equivalence_smoke_lambda_one():
    cfg = EngineConfig(n=1500, dt=0.02, mu=1.0, seed=0, max_steps=1500,
                       window=40, sample_every=5, diss_pairs=5000, tol=0.02)
    model = power_law(1.0, 0.2)
    rep = scaling_equivalence_test(cfg, model, 1.0, seeds=range(3),
                                   init_t0=1.0)
    assert rep.all_converged
    assert set(rep.z_scores) == {1.0, 2.0, 3.0}
    for z in rep.z_scores.values():
        assert np.isfinite(z)
        assert abs(z) < 6.0
    for p in (1.0, 2.0, 3.0):
        assert rep.moments_physical[p] == pytest.approx(
            rep.moments_rescaled[p], rel=0.2)
    with pytest.raises(InputError):
        scaling_equivalence_test(cfg, model, 1.5, seeds=range(2))


def test_equivalence_needs_two_seeds(monkeypatch):
    """One seed gives no variance, so the test refuses it before any run."""
    runs = []
    monkeypatch.setattr("gsteady.scaling.run_many", runs.append)
    cfg = EngineConfig(n=100, dt=0.02, mu=1.0)
    for seeds in ([1], []):
        with pytest.raises(InputError, match="at least 2 seeds"):
            scaling_equivalence_test(cfg, power_law(1.0, 0.2), 0.5, seeds=seeds)
    assert runs == []


def test_two_sample_z():
    assert two_sample_z([1.0, 3.0], [0.0, 2.0]) == pytest.approx(1.0 / math.sqrt(2.0))
    assert two_sample_z([2.0, 2.0, 2.0], [1.0, 1.0]) == 0.0
    for x, y in (([1.0], [1.0, 2.0]), ([1.0, 2.0], [])):
        with pytest.raises(InputError):
            two_sample_z(x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_two_sample_z_rejects_non_finite(bad):
    """A diverged replica is no agreement: a NaN or infinite value on
    either side raises instead of reading as z = 0."""
    for x, y in (([1.0, bad], [1.0, 2.0]), ([1.0, 2.0], [bad, 2.0, 3.0])):
        with pytest.raises(InputError, match="finite"):
            two_sample_z(x, y)
    assert two_sample_z([2.0, 2.0], [2.0, 2.0, 2.0]) == 0.0
