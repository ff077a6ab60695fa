"""End-to-end acceptance suite.

Each numbered test covers one acceptance criterion and emits a single
verdict line of the form

    [acceptance NN] PASS|FAIL: <summary>

so the suite can be scanned or grepped after a `pytest -v` run.  The
heavy simulation fixtures (the lambda sweep and the scaling replicas)
are module scoped and shared between criteria.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gsteady import verify as verify_mod
from gsteady.dissipation import (DissipationSpec, psi_e,
                                 steady_temperature_ansatz, theta_limit)
from gsteady.dsmc import (EngineConfig, InitialCondition, initial_ensemble,
                          run_many, run_to_steady, save_snapshot, step)
from gsteady.kinematics import AngularQuadrature, angular_average
from gsteady.observables import (maxwellian_distance, moments, tail_integral)
from gsteady.povzner import BATTERY_QUAD, battery, gain_term, gain_upper_bound
from gsteady.restitution import (constant, elastic, power_law, rescale,
                                 viscoelastic)
from gsteady.scaling import scaling_equivalence_test

MODEL = power_law(1.0, 0.2)
THETA = theta_limit(1.0, 0.2).theta
SWEEP_LAMBDAS = (0.4, 0.2, 0.1, 0.05)

ALL_KINDS = {
    "constant_0.3": constant(0.3),
    "constant_0.8": constant(0.8),
    "power_law": power_law(1.0, 0.2),
    "viscoelastic": viscoelastic(1.0),
}


def _verdict(tag, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {tag}] {status}: {detail}"
    print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def sweep():
    """Steady runs of the rescaled problem over the acceptance lambda set.

    Shared by criteria 4, 5 and 6.  Each run uses N = 1e5 particles with
    bath strength lambda^gamma and starts from a Maxwellian at the
    Gaussian-closure steady temperature so the transient is short.
    """
    spec = DissipationSpec(MODEL)
    # Common tail rate, pinned to the hottest predicted steady state so
    # no single sample dominates the exponential average at any lambda.
    rate = 0.1 * (3.0 * steady_temperature_ansatz(spec, SWEEP_LAMBDAS[0])) ** -0.75
    rows = []
    start = time.time()
    jobs = [(EngineConfig(n=100_000, dt=0.04, mu=lam ** MODEL.gamma,
                          seed=30 + i, max_steps=3000, window=80,
                          sample_every=5, tol=0.005),
             rescale(MODEL, lam),
             InitialCondition("maxwellian",
                              t0=steady_temperature_ansatz(spec, lam)))
            for i, lam in enumerate(SWEEP_LAMBDAS)]
    for lam, (ens, rep) in zip(SWEEP_LAMBDAS, run_many(jobs)):
        dist = maxwellian_distance(ens, THETA)
        rows.append(dict(lam=lam, temperature=rep.temperature,
                         converged=rep.converged, d_moment=dist.d_moment,
                         d_hist=dist.d_hist, m3=moments(ens)[3.0],
                         tail=tail_integral(ens, rate).value))
    return dict(rows=rows, wall=time.time() - start)


def test_criterion_01_elastic_conservation():
    cfg = EngineConfig(n=10_000, dt=0.05, mu=0.0, seed=1, max_steps=1100)
    model = elastic()
    ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
    e0 = ens.energy()
    start = time.time()
    for _ in range(1000):
        step(ens, cfg, model)
    wall = time.time() - start
    drift = abs(ens.energy() - e0) / e0
    rms = math.sqrt(ens.energy() / cfg.n)
    mom = float(np.max(np.abs(ens.velocities.mean(axis=0))))
    ok = drift < 1e-10 and mom < 1e-12 * rms and wall < 10.0
    line = _verdict("01", ok,
                    f"elastic conservation drift={drift:.2e} "
                    f"momentum/rms={mom / rms:.2e} wall={wall:.1f}s")
    assert ok, line


def test_criterion_02_dissipation_bridge():
    rng = np.random.default_rng(2)
    quad = AngularQuadrature(n_s=64)
    start = time.time()
    worst = 0.0
    for model in ALL_KINDS.values():
        spec = DissipationSpec(model)
        for _ in range(100):
            v, vstar = rng.normal(size=3), rng.normal(size=3)
            un = float(np.linalg.norm(v - vstar))
            lhs = un * float(angular_average(lambda x: x, v, vstar, model,
                                             quad))
            ref = -2.0 * psi_e(spec, un * un)
            if ref != 0.0:
                worst = max(worst, abs(lhs - ref) / abs(ref))
    wall = time.time() - start
    ok = worst < 1e-6 and wall < 5.0
    line = _verdict("02", ok,
                    f"dissipation bridge worst rel err={worst:.2e} "
                    f"wall={wall:.1f}s")
    assert ok, line


def test_criterion_03_steady_energy_identity():
    mu = 1e-2
    lam = mu ** (1.0 / (3.0 + MODEL.gamma))
    t0 = lam * lam * steady_temperature_ansatz(DissipationSpec(MODEL), lam)
    cfg = EngineConfig(n=100_000, dt=0.1, mu=mu, seed=21, max_steps=4000,
                       window=100, sample_every=5, tol=0.005)
    start = time.time()
    ens, rep = run_to_steady(cfg, MODEL, InitialCondition("maxwellian", t0=t0))
    wall = time.time() - start
    ratio = rep.diss_estimate / (6.0 * mu)
    ok = rep.converged and 0.95 <= ratio <= 1.05 and wall < 300.0
    line = _verdict("03", ok,
                    f"steady identity diss/(6 mu)={ratio:.4f} "
                    f"converged={rep.converged} wall={wall:.0f}s")
    assert ok, line


def test_criterion_04a_temperature_monotone_approach(sweep):
    rows = sweep["rows"]
    gaps = [abs(r["temperature"] - THETA) for r in rows]
    temps = ", ".join(f"{r['lam']:g}:{r['temperature']:.3f}" for r in rows)
    ok = (all(r["converged"] for r in rows)
          and all(a > b for a, b in zip(gaps, gaps[1:]))
          and sweep["wall"] < 1800.0)
    line = _verdict("04a", ok,
                    f"temperature approaches theta={THETA:.4f} monotonically "
                    f"({temps}) wall={sweep['wall']:.0f}s")
    assert ok, line


def test_criterion_04b_temperature_within_band(sweep):
    """Limit-band clause: steady temperature at lambda=0.05 within 15% of
    the zero-lambda oracle.  The finite-lambda bias decays only like
    lambda^gamma = lambda^0.2, so at lambda=0.05 the bias is still large;
    this clause is expected to fail and is kept at its stated tolerance.
    A Gaussian-closure prediction at the same lambda is checked alongside
    as the attainable finite-lambda target.
    """
    last = sweep["rows"][-1]
    rel = abs(last["temperature"] - THETA) / THETA
    ansatz = steady_temperature_ansatz(DissipationSpec(MODEL), last["lam"])
    rel_ansatz = abs(last["temperature"] - ansatz) / ansatz
    ok = rel < 0.15
    line = _verdict("04b", ok,
                    f"T(lambda=0.05)={last['temperature']:.4f} vs "
                    f"theta={THETA:.4f} rel={rel:.3f} (band 0.15); "
                    f"finite-lambda prediction {ansatz:.4f} "
                    f"rel={rel_ansatz:.3f}")
    assert ok, line


def test_criterion_05_rate_diagnostic(sweep):
    rows = sweep["rows"]
    d = np.array([r["d_moment"] for r in rows])
    lams = np.array([r["lam"] for r in rows])
    coef, cov = np.polyfit(np.log(lams), np.log(d), 1, cov=True)
    slope, se = coef[0], math.sqrt(cov[0, 0])
    ok = bool(np.all(np.diff(d) < 0.0)) and math.isfinite(se)
    line = _verdict("05", ok,
                    f"d_moment decreases across sweep "
                    f"({', '.join(f'{x:.3f}' for x in d)}); "
                    f"slope={slope:.3f} +/- {se:.3f} (informational, "
                    f"expected near gamma=0.2)")
    assert ok, line


def test_criterion_06_uniform_moments_and_tails(sweep):
    rows = sweep["rows"]
    m3 = np.array([r["m3"] for r in rows])
    tails = np.array([r["tail"] for r in rows])
    band = float(np.max(m3) / np.min(m3))
    ok = band <= 3.0 and bool(np.all(tails < 2.0))
    line = _verdict("06", ok,
                    f"m3 band ratio={band:.2f} (<=3), "
                    f"tail values max={np.max(tails):.3f} (<2)")
    assert ok, line


def test_criterion_07_povzner_battery():
    rng = np.random.default_rng(7)
    start = time.time()
    worst_norm = np.inf
    for model in ALL_KINDS.values():
        for p in (2.0, 3.0):
            _, norms = battery(p, model, 10_000, rng)
            worst_norm = min(worst_norm, float(np.min(norms)))
    worst_gain = np.inf
    for _ in range(250):
        v, vstar = rng.normal(size=3), rng.normal(size=3)
        e_tot = float(v @ v + vstar @ vstar)
        for model in ALL_KINDS.values():
            for p in (2.0, 3.0):
                gap = (gain_upper_bound(v, vstar, p)
                       - gain_term(v, vstar, p, model, BATTERY_QUAD))
                worst_gain = min(worst_gain, gap / e_tot ** p)
    wall = time.time() - start
    ok = worst_norm >= -1e-9 and worst_gain >= -1e-9 and wall < 120.0
    line = _verdict("07", ok,
                    f"margins/E^p min={worst_norm:.3f}, gain-bound "
                    f"margin min={worst_gain:.3f} wall={wall:.0f}s")
    assert ok, line


def test_criterion_08_map_suite():
    start = time.time()
    rows = verify_mod.check_maps()
    wall = time.time() - start
    failed = [name for name, _, passed in rows if not passed]
    ok = not failed and wall < 30.0
    line = _verdict("08", ok,
                    f"map suite {len(rows)} properties, "
                    f"failures={failed or 'none'} wall={wall:.1f}s")
    assert ok, line


def _scaling_pass(lams, n_seeds):
    base = EngineConfig(n=4000, dt=0.02, mu=1.0, seed=0, max_steps=3000,
                        window=60, sample_every=5, tol=0.01, diss_pairs=2000)
    out = {}
    for lam in lams:
        rep = scaling_equivalence_test(base, MODEL, lam, range(n_seeds),
                                       init_t0=2.0)
        out[lam] = rep
    return out


def test_criterion_09_scaling_equivalence():
    start = time.time()
    reports = _scaling_pass((1.0, 0.5, 0.25), 8)
    worst = max(abs(z) for rep in reports.values()
                for z in rep.z_scores.values())
    retried = False
    if 3.0 <= worst < 5.0:
        # Borderline z-scores get one retry with more replicas before
        # the criterion is declared failed.
        retried = True
        redo = [lam for lam, rep in reports.items()
                if any(abs(z) >= 3.0 for z in rep.z_scores.values())]
        reports.update(_scaling_pass(redo, 16))
        worst = max(abs(z) for rep in reports.values()
                    for z in rep.z_scores.values())
    wall = time.time() - start
    conv = all(rep.all_converged for rep in reports.values())
    ok = conv and worst < 3.0 and wall < 1200.0
    line = _verdict("09", ok,
                    f"scaling equivalence worst |z|={worst:.2f} "
                    f"retried={retried} wall={wall:.0f}s")
    assert ok, line


def test_criterion_10_uniqueness_probe():
    lam = 0.1
    spec = DissipationSpec(MODEL)
    t_ansatz = steady_temperature_ansatz(spec, lam)
    model_l = rescale(MODEL, lam)
    base = EngineConfig(n=20_000, dt=0.05, mu=lam ** MODEL.gamma, seed=0,
                        max_steps=4000, window=80, sample_every=5, tol=0.01,
                        diss_pairs=50_000)
    inits = {
        "maxwellian": InitialCondition("maxwellian", t0=THETA),
        "bimodal": InitialCondition("bimodal", v0=math.sqrt(3.0 * t_ansatz)),
    }
    start = time.time()
    runs = run_many([(dataclasses.replace(base, seed=100 + k), model_l, ic)
                     for ic in inits.values() for k in range(4)])
    conv = all(rep.converged for _, rep in runs)
    stats = {}
    for i, name in enumerate(inits):
        reps = [rep for _, rep in runs[4 * i:4 * i + 4]]
        stats[name] = (np.array([rep.temperature for rep in reps]),
                       np.array([rep.moments[2.0] for rep in reps]))
    zs = {}
    for idx, label in ((0, "T"), (1, "m2")):
        x, y = stats["maxwellian"][idx], stats["bimodal"][idx]
        se = math.sqrt(x.var(ddof=1) / len(x) + y.var(ddof=1) / len(y))
        zs[label] = abs(float(x.mean() - y.mean())) / se
    # Negative control: elastic with a bath gains energy without bound and
    # must be reported as non-converged.
    ctrl_cfg = dataclasses.replace(base, n=2000, mu=0.05, max_steps=400)
    _, ctrl = run_to_steady(ctrl_cfg, elastic(),
                            InitialCondition("maxwellian", t0=1.0))
    wall = time.time() - start
    ok = (conv and all(z < 3.0 for z in zs.values())
          and not ctrl.converged and wall < 1200.0)
    line = _verdict("10", ok,
                    f"uniqueness probe z(T)={zs['T']:.2f} "
                    f"z(m2)={zs['m2']:.2f}, elastic control "
                    f"converged={ctrl.converged} wall={wall:.0f}s")
    assert ok, line


def test_criterion_11_determinism(tmp_path):
    cfg = EngineConfig(n=2000, dt=0.02, mu=0.05, seed=1234, max_steps=300)
    model = viscoelastic(1.0)
    blobs = []
    for run in range(2):
        ens = initial_ensemble(cfg, InitialCondition("maxwellian", t0=1.0))
        for _ in range(200):
            step(ens, cfg, model)
        path = tmp_path / f"run{run}.bin"
        save_snapshot(path, ens)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    line = _verdict("11", ok,
                    f"repeated run snapshot bit-identical={ok} "
                    f"({len(blobs[0])} bytes)")
    assert ok, line
