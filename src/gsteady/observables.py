"""Moment, tail, and Maxwellian-distance estimators over ensembles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

from .errors import InputError

DEFAULT_P_SET = (1.0, 1.5, 2.0, 3.0)


def _sq_speeds(ensemble) -> np.ndarray:
    """|v_i|^2 of an ensemble or of a non-empty (N, 3) velocity array."""
    vel = getattr(ensemble, "velocities", ensemble)
    vel = np.asarray(vel, dtype=float)
    if vel.ndim != 2 or vel.shape[1] != 3 or vel.shape[0] == 0:
        raise InputError("expected a non-empty (N, 3) velocity array")
    return np.einsum("ij,ij->i", vel, vel)


@dataclass(frozen=True)
class TailReport:
    a: float
    value: float
    max_share: float


@dataclass(frozen=True)
class MaxwellianDistance:
    d_moment: float
    d_hist: float


def moments(ensemble, p_set=DEFAULT_P_SET) -> dict[float, float]:
    """Empirical moments {p: m_p} with m_p = (1/N) sum |v_i|^{2p}."""
    sq = _sq_speeds(ensemble)
    return {float(p): float(np.mean(sq ** p)) for p in p_set}


def tail_integral(ensemble, a: float) -> TailReport:
    """Empirical mean of exp(a |v|^{3/2}) with a single-sample share flag."""
    if not 0.0 <= a < np.inf:
        raise InputError("tail rate must be finite and non-negative")
    speeds = np.sqrt(_sq_speeds(ensemble))
    with np.errstate(over="ignore"):  # an overflow is rejected below
        weights = np.exp(a * speeds ** 1.5)
        total = float(np.sum(weights))
    if not total < np.inf:
        raise InputError(f"tail weights exp(a |v|^(3/2)) sum to {total!r} at "
                         f"a={a!r}: a speed is not finite or a is too large")
    return TailReport(a=a, value=total / len(weights),
                      max_share=float(np.max(weights)) / total)


def default_tail_rate(ensemble) -> float:
    """Tail rate scaled so a * RMS^{3/2} = 0.1, avoiding sample domination."""
    m1 = float(np.mean(_sq_speeds(ensemble)))
    return 0.1 * m1 ** -0.75 if m1 > 0 else 0.0


def maxwell_moment(theta: float, p: float) -> float:
    """m_p of the temperature-theta Maxwellian: (2 theta)^p Gamma(p+3/2)/Gamma(3/2)."""
    return (2.0 * theta) ** p * gamma_fn(p + 1.5) / gamma_fn(1.5)


def maxwellian_distance(ensemble, theta: float,
                        p_set=DEFAULT_P_SET) -> MaxwellianDistance:
    """Two surrogate distances to the temperature-theta Maxwellian.

    d_moment sums relative moment deviations over p_set; d_hist is the L1
    distance between the empirical speed histogram (64 bins on [0, 5 sqrt
    theta] plus overflow) and the exact Maxwell speed law.
    """
    if not 0.0 < theta < np.inf:
        raise InputError("temperature must be positive and finite")
    emp = moments(ensemble, p_set)
    d_m = sum(abs(emp[float(p)] - maxwell_moment(theta, p))
              / maxwell_moment(theta, p) for p in p_set)
    sq = _sq_speeds(ensemble)
    edges = np.linspace(0.0, 5.0 * np.sqrt(theta), 65)
    counts, _ = np.histogram(np.sqrt(sq), bins=edges)
    p_emp = np.append(counts / len(sq), 1.0 - counts.sum() / len(sq))
    # Maxwell speed law CDF: the regularized lower incomplete gamma P(3/2, x^2/2)
    # at x = speed / sqrt(theta), as scipy.stats.maxwell evaluates it.
    x = edges / np.sqrt(theta)
    cdf = gammainc(1.5, x * x / 2.0)
    p_exact = np.append(np.diff(cdf), 1.0 - cdf[-1])
    return MaxwellianDistance(d_moment=float(d_m),
                              d_hist=float(np.sum(np.abs(p_emp - p_exact))))
