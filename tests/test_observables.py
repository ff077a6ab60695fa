import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gsteady.errors import InputError
from gsteady.observables import (MaxwellianDistance, default_tail_rate,
                                 maxwell_moment, maxwellian_distance, moments,
                                 tail_integral)


def test_moments_hand_examples():
    zeros = np.zeros((5, 3))
    assert moments(zeros) == {1.0: 0.0, 1.5: 0.0, 2.0: 0.0, 3.0: 0.0}

    pair = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    mom = moments(pair)
    assert mom[1.0] == 1.0
    assert mom[2.0] == 1.0


def test_moments_maxwellian(rng):
    theta = 0.8
    vel = rng.normal(0.0, np.sqrt(theta), size=(1_000_000, 3))
    se = np.sqrt(2.0 / 3.0) * 3 * theta / 1000.0
    assert abs(moments(vel)[1.0] - 3 * theta) < 3 * se


def test_moments_errors():
    with pytest.raises(InputError):
        moments(np.zeros((0, 3)))
    with pytest.raises(InputError):
        moments(np.zeros((4, 2)))


@settings(max_examples=100, deadline=None)
@given(vel=hnp.arrays(np.float64, (20, 3),
                      elements=st.floats(-50, 50, allow_nan=False)))
def test_jensen_property(vel):
    mom = moments(vel)
    m1 = mom[1.0]
    for p in (1.5, 2.0, 3.0):
        assert mom[p] >= m1 ** p - 1e-9 * max(1.0, m1 ** p)


def test_tail_hand_examples():
    vel = np.array([[1.0, 0.0, 0.0]])
    assert tail_integral(vel, 0.0).value == 1.0
    rep = tail_integral(vel, np.log(2.0))
    assert rep.value == pytest.approx(2.0, rel=1e-14)
    assert rep.max_share == 1.0
    with pytest.raises(InputError):
        tail_integral(vel, -0.1)


def test_tail_positive_and_share(rng):
    vel = rng.normal(size=(5000, 3))
    a = default_tail_rate(vel)
    rep = tail_integral(vel, a)
    assert rep.value > 0.0
    assert 0.0 < rep.max_share < 0.05
    # Rate normalization: a * RMS^{3/2} = 0.1.
    m1 = np.mean(np.einsum("ij,ij->i", vel, vel))
    assert a * m1 ** 0.75 == pytest.approx(0.1, rel=1e-12)


def test_maxwell_moment_mc(rng):
    theta = 0.7
    vel = rng.normal(0.0, np.sqrt(theta), size=(1_000_000, 3))
    sq = np.einsum("ij,ij->i", vel, vel)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert maxwell_moment(theta, p) == pytest.approx(
            float(np.mean(sq ** p)), rel=0.01)


def test_distance_on_maxwellian(rng):
    theta = 1.3
    vel = rng.normal(0.0, np.sqrt(theta), size=(1_000_000, 3))
    d = maxwellian_distance(vel, theta)
    assert d.d_moment < 0.05
    assert d.d_hist < 0.01


def test_distance_point_mass():
    vel = np.tile([[2.0, 0.0, 0.0]], (100, 1))
    d = maxwellian_distance(vel, 1.0)
    assert d.d_moment > 1.0
    assert 0.0 <= d.d_hist <= 2.0
    assert d.d_hist > 1.5


def test_distance_self_temperature(rng):
    vel = rng.normal(size=(20_000, 3))
    m1 = float(np.mean(np.einsum("ij,ij->i", vel, vel)))
    d = maxwellian_distance(vel, m1 / 3.0, p_set=(1.0,))
    # p = 1 contribution vanishes at the ensemble's own temperature.
    assert d.d_moment < 1e-12


def test_distance_errors():
    with pytest.raises(InputError):
        maxwellian_distance(np.zeros((3, 3)), 0.0)


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_distance_rejects_non_finite_theta(theta):
    vel = np.random.default_rng(2).normal(size=(50, 3))
    with pytest.raises(InputError, match="finite"):
        maxwellian_distance(vel, theta)


@pytest.mark.parametrize("a", [np.nan, np.inf])
def test_tail_rejects_non_finite_rate(a):
    vel = np.random.default_rng(2).normal(size=(50, 3))
    with pytest.raises(InputError, match="finite"):
        tail_integral(vel, a)


def test_tail_rejects_overflowing_weights():
    """At a=1000 the weights exp(a |v|^{3/2}) of an N(0, 1) sample
    overflow; the sum is refused instead of read as value=inf,
    max_share=nan, and no overflow warning escapes."""
    vel = np.random.default_rng(2).normal(size=(100, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="tail weights"):
            tail_integral(vel, 1000.0)
    # A sample the old code read as NaN: a non-finite speed.
    vel[7, 1] = np.nan
    with pytest.raises(InputError, match="tail weights"):
        tail_integral(vel, 0.1)
