"""Correspondence between the physical problem (e, mu) and the rescaled
problem (e_lambda, lambda^gamma).

The dictionary is mu = lambda^{3+gamma}; velocities rescale by 1/lambda
so that moments transform as m_p -> lambda^{-2p} m_p.  The equivalence is
probed statistically by running both sides to steadiness over seed
replicas and comparing moment means.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dsmc import EngineConfig, Ensemble, InitialCondition, run_many
from .errors import InputError
from .observables import moments
from .restitution import RestitutionModel, rescale

# Moment orders p of m_p that the equivalence test compares.
P_SET = (1.0, 2.0, 3.0)


def rescale_ensemble(ens: Ensemble, lam: float) -> Ensemble:
    """Divide every velocity by lam; clock and counters are preserved."""
    if not 0.0 < lam < math.inf:
        raise InputError("rescale factor must be finite and positive")
    return dataclasses.replace(ens, velocities=ens.velocities / lam)


@dataclass(frozen=True)
class EquivalenceReport:
    lam: float
    z_scores: dict
    moments_physical: dict
    moments_rescaled: dict
    all_converged: bool


def two_sample_z(x, y) -> float:
    """(mean(x) - mean(y)) over its standard error from the two sample
    variances; 0 when both samples are constant and finite."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise InputError("a two-sample z-score needs at least 2 samples a side")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("a two-sample z-score needs finite samples")
    se = math.sqrt(x.var(ddof=1) / len(x) + y.var(ddof=1) / len(y))
    return float((x.mean() - y.mean()) / se) if se > 0 else 0.0


def scaling_equivalence_test(config_base: EngineConfig, model: RestitutionModel,
                             lam: float, seeds,
                             init_t0: float = 1.0) -> EquivalenceReport:
    """Compare steady moments of the two equivalent formulations.

    Side A runs the physical problem with bath lambda^{3+gamma} and
    rescales the steady ensemble by lambda; side B runs the rescaled
    model with bath lambda^gamma.  Two-sample z-scores of m_1, m_2 and
    m_3 over the seed replicas are returned.  Both sides of every seed run
    as separate jobs of dsmc.run_many.
    """
    if not 0.0 < lam <= 1.0:
        raise InputError("lambda must lie in (0, 1]")
    if len(seeds) < 2:
        raise InputError("the equivalence test needs at least 2 seeds")
    gamma = model.gamma
    mu_a = lam ** (3.0 + gamma)
    mu_b = lam ** gamma
    model_b = rescale(model, lam)
    jobs = []
    for seed in seeds:
        # Physical side: speeds are smaller by lam, so stretch dt to keep
        # the per-step collision budget comparable.
        cfg_a = dataclasses.replace(config_base, mu=mu_a, seed=int(seed),
                                    dt=config_base.dt / lam)
        jobs.append((cfg_a, model,
                     InitialCondition("maxwellian", t0=lam * lam * init_t0)))
        cfg_b = dataclasses.replace(config_base, mu=mu_b, seed=int(seed) + 7919)
        jobs.append((cfg_b, model_b,
                     InitialCondition("maxwellian", t0=init_t0)))
    runs = run_many(jobs)
    ok = all(rep.converged for _, rep in runs)
    a = np.array([list(moments(rescale_ensemble(ens, lam), P_SET).values())
                  for ens, _ in runs[0::2]])
    b = np.array([list(moments(ens, P_SET).values()) for ens, _ in runs[1::2]])
    return EquivalenceReport(
        lam=lam,
        z_scores={p: two_sample_z(a[:, k], b[:, k]) for k, p in enumerate(P_SET)},
        moments_physical={p: float(a[:, k].mean()) for k, p in enumerate(P_SET)},
        moments_rescaled={p: float(b[:, k].mean()) for k, p in enumerate(P_SET)},
        all_converged=ok)
