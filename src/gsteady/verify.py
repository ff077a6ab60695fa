"""Property batteries behind the `verify` CLI subcommand.

Each check returns (name, margin, passed) rows; margins are oriented so
that non-negative means the property holds with room to spare, and a row
passes exactly when its margin is >= 0.
"""

from __future__ import annotations

import numpy as np

from . import maps, povzner, restitution
from .dissipation import (DissipationSpec, gaussian_pair_average, psi_e,
                          theta_limit, zeta_lambda, zeta_zero)
from .kinematics import (AngularQuadrature, angular_average, energy_loss,
                         post_collision_nhat, post_collision_sigma, sq_norm)
from .restitution import (RestitutionModel, constant, eval_e, power_law,
                          rescale, viscoelastic)


# Random (sigma, u) draws of check_maps' cone-map rows.
CONE_SAMPLES = 200


def _models() -> dict[str, RestitutionModel]:
    return {
        "constant_0.3": constant(0.3),
        "constant_0.8": constant(0.8),
        "power_law": power_law(1.0, 0.2),
        "viscoelastic": viscoelastic(1.0),
    }


def _row(name: str, margin) -> tuple[str, float, bool]:
    """One (name, margin, passed) row: it passes exactly when margin >= 0."""
    margin = float(margin)
    return name, margin, margin >= 0.0


def check_restitution():
    rows = []
    grid = restitution.log_grid()
    # The paper bound ell_gamma[e_lam] <= lam^gamma ell_gamma[e], with
    # ell_gamma[e] = sup (1 - e(r)) / r^gamma.  A grid down to r = 1e-30 keeps
    # the grid supremum within the 1e-5 slack of the true one.
    fine = restitution.log_grid(lo=1e-30)
    lam = 0.2
    for name, model in _models().items():
        e = eval_e(model, grid)
        rows.append(_row(f"monotone_e[{name}]", np.min(e[:-1] - e[1:])))
        th = grid * e
        rows.append(_row(f"increasing_theta[{name}]", np.min(np.diff(th))))
        rows.append(_row(f"range[{name}]",
                         min(np.min(e), 1.0 + 1e-15 - np.max(e))))
    for name in ("power_law", "viscoelastic"):
        model = _models()[name]
        small = np.logspace(-6, -2, 200)
        gap = np.abs(eval_e(model, small) - (1.0 - model.a * small ** model.gamma))
        ratio = np.max(gap / small ** model.gamma_bar)
        rows.append(_row(f"small_r_expansion[{name}]", 10.0 - ratio))
        ell = [np.max((1.0 - eval_e(m, fine)) / fine ** model.gamma)
               for m in (rescale(model, lam), model)]
        rows.append(_row(f"ell_gamma_rescale[{name}]",
                         lam ** model.gamma * (1.0 + 1e-5) - ell[0] / ell[1]))
    visc = _models()["viscoelastic"]
    res = np.max(np.abs(restitution.implicit_residual(visc, grid)))
    rows.append(_row("implicit_residual", 1e-10 - res))
    return rows


def check_kinematics():
    draws = np.random.default_rng(5).normal(size=(1000, 3, 3))
    v, vstar, nhat = draws[:, 0], draws[:, 1], draws[:, 2]
    nhat /= np.linalg.norm(nhat, axis=1, keepdims=True)
    u = v - vstar
    uhat = u / np.linalg.norm(u, axis=1, keepdims=True)
    sigma = uhat - 2.0 * np.sum(uhat * nhat, axis=1, keepdims=True) * nhat
    sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
    model = viscoelastic(1.0)
    vp, vps = post_collision_sigma(v, vstar, sigma, model)
    worst_mom = np.max(np.abs(vp + vps - v - vstar))
    vp2, vps2 = post_collision_nhat(v, vstar, nhat, model)
    worst_equiv = max(np.max(np.abs(vp - vp2)), np.max(np.abs(vps - vps2)))
    least_loss = np.min(energy_loss(v, vstar, sigma, model))
    return [_row("momentum_conservation", 1e-12 - worst_mom),
            _row("parametrization_equivalence", 1e-12 - worst_equiv),
            _row("energy_loss_nonnegative", least_loss)]


def check_dissipation_bridge():
    """Micro/macro consistency: |u| <dE>_sigma = -2 Psi_e(|u|^2)."""
    rng = np.random.default_rng(7)
    quad = AngularQuadrature(n_s=64)
    rows = []
    for name, model in _models().items():
        pairs = rng.normal(size=(100, 2, 3))
        v, vstar = pairs[:, 0], pairs[:, 1]
        un = np.linalg.norm(v - vstar, axis=1)
        lhs = un * angular_average(lambda x: x, v, vstar, model, quad)
        ref = -2.0 * psi_e(DissipationSpec(model), un * un)
        nonzero = ref != 0.0
        worst = np.max(np.abs(lhs - ref)[nonzero] / np.abs(ref[nonzero]),
                       initial=0.0)
        rows.append(_row(f"dissipation_bridge[{name}]", 1e-6 - worst))
    return rows


def check_maps():
    rng = np.random.default_rng(11)
    rows = []
    grid = np.logspace(-6, 4, 1000)
    for name, model in _models().items():
        eta = maps.eta_e(model, grid)
        rows.append(_row(f"eta_sandwich[{name}]",
                         min(np.min(eta - grid / 2), np.min(grid - eta))))
        alpha = maps.alpha_e(model, grid)
        rows.append(_row(f"alpha_sandwich[{name}]",
                         min(np.min(alpha - grid), np.min(2 * grid - alpha))))
        rt = maps.alpha_e(model, eta)
        worst = float(np.max(np.abs(rt - grid) / np.maximum(1.0, grid)))
        rows.append(_row(f"alpha_eta_roundtrip[{name}]", 1e-10 - worst))
        jac = maps.jacobian_Je(model, grid)
        rows.append(_row(f"jacobian_universal_bound[{name}]",
                         min(np.min(jac - 0.125), np.min(1.0 - jac)) + 1e-9))
    # Cone map roundtrip and Jacobian.
    worst_rt = 0.0
    worst_jac = 0.0
    for _ in range(CONE_SAMPLES):
        sigma = rng.normal(size=3)
        sigma /= np.linalg.norm(sigma)
        u = rng.normal(size=3)
        uhat = u / np.linalg.norm(u)
        if uhat @ sigma <= -0.9:
            continue
        w = maps.phi_sigma(u, sigma)
        back = maps.varphi_sigma(w, sigma)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - u)))
                       / max(1.0, float(np.linalg.norm(u))))
        det = maps.numerical_jacobian(lambda x: maps.phi_sigma(x, sigma), u)
        worst_jac = max(worst_jac, abs(det - (1.0 + uhat @ sigma) / 8.0))
    rows.append(_row("cone_roundtrip", 1e-10 - worst_rt))
    rows.append(_row("cone_jacobian", 1e-6 - worst_jac))
    return rows


def check_dissipation():
    rows = []
    model = power_law(1.0, 0.2)
    spec = DissipationSpec(model)
    grid = np.logspace(-4, 4, 400)
    vals = psi_e(spec, grid)
    rows.append(_row("psi_nondecreasing", np.min(np.diff(vals))))
    second = np.diff(np.diff(vals))
    rows.append(_row("psi_convex_loggrid", np.min(second) + 1e-9 * np.max(vals)))
    # Pointwise limit of zeta_lambda: the gaps must shrink as lambda does.
    gaps = [abs(zeta_lambda(spec, lam, 1.0) - zeta_zero(1.0, 0.2, 1.0))
            for lam in (0.5, 0.1, 0.01)]
    rows.append(_row("zeta_limit_monotone", min(np.diff([-g for g in gaps]))))
    # The limit temperature balances the bath: E_theta[zeta_0] = 6.
    for g in (0.2, 0.5, 1.0):
        avg = gaussian_pair_average(lambda r2: zeta_zero(1.0, g, r2),
                                    theta_limit(1.0, g).theta)
        rows.append(_row(f"theta_quadrature[gamma={g}]", 1e-6 - abs(avg - 6.0)))
    return rows


def check_povzner():
    rng = np.random.default_rng(17)
    rows = []
    for name, model in _models().items():
        for p in (2.0, 3.0):
            _, norms = povzner.battery(p, model, 500, rng)
            rows.append(_row(f"povzner_margin[p={p:g},{name}]",
                             np.min(norms) + 1e-9))
    # Gain-term upper bound (restitution independent).
    pairs = rng.normal(size=(200, 2, 3))
    v, vstar = pairs[:, 0], pairs[:, 1]
    bound = povzner.gain_upper_bound(v, vstar, 2.0)
    e_sq = (sq_norm(v) + sq_norm(vstar)) ** 2
    quad = povzner.BATTERY_QUAD
    worst = min(np.min((bound - povzner.gain_term(v, vstar, 2.0, m, quad)) / e_sq)
                for m in _models().values())
    rows.append(_row("gain_upper_bound[p=2]", worst + 1e-9))
    return rows


SUITES = {
    "maps": (check_maps,),
    "povzner": (check_povzner,),
    "dissipation": (check_dissipation,),
    "all": (check_restitution, check_kinematics, check_dissipation_bridge,
            check_maps, check_dissipation, check_povzner),
}


def run_suite(name: str):
    """The rows of every check of SUITES[name], in order."""
    return [row for check in SUITES[name] for row in check()]
