"""Numerical verification of Povzner-type bounds for the angular-averaged
collision kernel with power test functions x^p.

The angular kernel is the isotropic sphere average of
Psi(|v'|^2) + Psi(|v'*|^2) - Psi(|v|^2) - Psi(|v*|^2); its claimed upper
bound A (|v|^2 Psi'(|v*|^2) + |v*|^2 Psi'(|v|^2)) - k E^2 Psi''(E) holds
with constants independent of the restitution law; for the isotropic
cross-section, k eta_2(2) = 5/96.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kinematics import AngularQuadrature, gauss_legendre, post_collision_grid
from .restitution import RestitutionModel, beta as beta_fn


@dataclass(frozen=True)
class PovznerCase:
    """Constants of the bound for Psi(x) = x^p."""

    p: float

    def __post_init__(self):
        if self.p < 1.0:
            raise InputError("moment exponent p must be at least 1")

    @property
    def a_const(self) -> float:
        # eta_1(2) for Psi' = p x^{p-1}
        return 2.0 ** (self.p - 1.0)

    @property
    def k_const(self) -> float:
        # k eta_2(2) = 5/96 with eta_2(a) = a^{p-2}
        return 5.0 / 96.0 / 2.0 ** (self.p - 2.0)


def angular_kernel(v, vstar, p: float, model: RestitutionModel,
                   quad: AngularQuadrature | None = None) -> float:
    """Sphere average of the x^p collision difference (full 2-D quadrature)."""
    if quad is None:
        quad = AngularQuadrature()
    v = np.asarray(v, dtype=float)
    vstar = np.asarray(vstar, dtype=float)
    if np.array_equal(v, vstar):
        return 0.0
    vp, vps, w = post_collision_grid(v, vstar, model, quad)
    sp = np.einsum("ijk,ijk->ij", vp, vp)
    sps = np.einsum("ijk,ijk->ij", vps, vps)
    gain = float(w @ (sp ** p + sps ** p).mean(axis=1))
    return gain - float(v @ v) ** p - float(vstar @ vstar) ** p


def gain_term(v, vstar, p: float, model: RestitutionModel,
              quad: AngularQuadrature | None = None) -> float:
    """Sphere average of Psi(|v'|^2) + Psi(|v'*|^2) alone."""
    if quad is None:
        quad = AngularQuadrature()
    vp, vps, w = post_collision_grid(np.asarray(v, float),
                                     np.asarray(vstar, float), model, quad)
    sp = np.einsum("ijk,ijk->ij", vp, vp)
    sps = np.einsum("ijk,ijk->ij", vps, vps)
    return float(w @ (sp ** p + sps ** p).mean(axis=1))


def gain_upper_bound(v, vstar, p: float, n_nodes: int = 128) -> float:
    """The restitution-independent bound on the gain term:
    int_0^1 [Psi(E (3+s)/4) + Psi(E (1-s)/4)] ds with E = |v|^2 + |v*|^2."""
    v = np.asarray(v, dtype=float)
    vstar = np.asarray(vstar, dtype=float)
    e_tot = float(v @ v + vstar @ vstar)
    s, w = gauss_legendre(n_nodes)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    vals = (e_tot * (3.0 + s) / 4.0) ** p + (e_tot * (1.0 - s) / 4.0) ** p
    return float(w @ vals)


def check_inequality(v, vstar, p: float, model: RestitutionModel,
                     quad: AngularQuadrature | None = None) -> float:
    """Signed margin of the Povzner bound; non-negative when it holds."""
    if p < 2.0:
        raise InputError("the clean bound needs p >= 2 (locally bounded Psi'')")
    v = np.asarray(v, dtype=float)
    vstar = np.asarray(vstar, dtype=float)
    case = PovznerCase(p)
    x = float(v @ v)
    y = float(vstar @ vstar)
    e_tot = x + y
    rhs = case.a_const * p * (x * y ** (p - 1.0) + y * x ** (p - 1.0))
    if e_tot > 0.0:
        rhs -= case.k_const * p * (p - 1.0) * e_tot ** p
    return rhs - angular_kernel(v, vstar, p, model, quad)


def _batch_kernel(v, vstar, p: float, model: RestitutionModel,
                  quad: AngularQuadrature) -> np.ndarray:
    """angular_kernel for a batch of pairs, shapes (m, 3) -> (m,)."""
    u = v - vstar
    un = np.linalg.norm(u, axis=1)
    if np.any(un == 0.0):
        raise InputError("batch kernel requires distinct pair velocities")
    uhat = u / un[:, None]
    # Per-pair orthonormal frame around uhat.
    pick = np.zeros_like(uhat)
    pick[:, 0] = 1.0
    flip = np.abs(uhat[:, 0]) > 0.9
    pick[flip, 0] = 0.0
    pick[flip, 1] = 1.0
    e1 = np.cross(uhat, pick)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(uhat, e1)

    s = quad.nodes
    w = 0.5 * quad.weights
    phi = 2.0 * np.pi * np.arange(quad.n_phi) / quad.n_phi
    sin_t = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    # sigma[m, i, j, k]
    sigma = (s[None, :, None, None] * uhat[:, None, None, :]
             + sin_t[None, :, None, None]
             * (np.cos(phi)[None, None, :, None] * e1[:, None, None, :]
                + np.sin(phi)[None, None, :, None] * e2[:, None, None, :]))
    impact = un[:, None] * np.sqrt(0.5 * (1.0 - s))[None, :]
    b = np.asarray(beta_fn(model, impact))  # (m, n_s)
    h = 0.5 * b[:, :, None, None] * (u[:, None, None, :]
                                     - un[:, None, None, None] * sigma)
    vp = v[:, None, None, :] - h
    vps = vstar[:, None, None, :] + h
    sp = np.einsum("mijk,mijk->mij", vp, vp)
    sps = np.einsum("mijk,mijk->mij", vps, vps)
    gain = np.einsum("i,mi->m", w, (sp ** p + sps ** p).mean(axis=2))
    x = np.einsum("mk,mk->m", v, v)
    y = np.einsum("mk,mk->m", vstar, vstar)
    return gain - x ** p - y ** p


def battery(p: float, model: RestitutionModel, n_pairs: int,
            rng: np.random.Generator,
            quad: AngularQuadrature | None = None, chunk: int = 512):
    """Margins of the bound on Gaussian random pairs, normalized by E^p.

    Returns (margins, normalized_margins); a failing constant would show
    as a negative normalized margin.  Pairs are processed in vectorized
    chunks; per-pair results match check_inequality.
    """
    if p < 2.0:
        raise InputError("the clean bound needs p >= 2 (locally bounded Psi'')")
    if quad is None:
        quad = AngularQuadrature(n_s=32, n_phi=16)
    case = PovznerCase(p)
    margins = np.empty(n_pairs)
    norms = np.empty(n_pairs)
    done = 0
    while done < n_pairs:
        m = min(chunk, n_pairs - done)
        v = rng.normal(size=(m, 3))
        vstar = rng.normal(size=(m, 3))
        x = np.einsum("mk,mk->m", v, v)
        y = np.einsum("mk,mk->m", vstar, vstar)
        e_tot = x + y
        rhs = (case.a_const * p * (x * y ** (p - 1.0) + y * x ** (p - 1.0))
               - case.k_const * p * (p - 1.0) * e_tot ** p)
        marg = rhs - _batch_kernel(v, vstar, p, model, quad)
        margins[done:done + m] = marg
        norms[done:done + m] = marg / e_tot ** p
        done += m
    return margins, norms


def refit_k(p: float, model: RestitutionModel, n_pairs: int,
            rng: np.random.Generator,
            quad: AngularQuadrature | None = None) -> float:
    """Largest k for which the bound holds on the sampled battery.

    Fallback diagnostic: if the printed constant ever fails the sign
    check, the qualitative content (existence of a positive k) is still
    asserted and the refit value reported alongside.
    """
    if quad is None:
        quad = AngularQuadrature(n_s=32, n_phi=16)
    case = PovznerCase(p)
    best = np.inf
    for _ in range(n_pairs):
        v = rng.normal(size=3)
        vstar = rng.normal(size=3)
        x = float(v @ v)
        y = float(vstar @ vstar)
        e_tot = x + y
        if e_tot == 0.0:
            continue
        head = case.a_const * p * (x * y ** (p - 1.0) + y * x ** (p - 1.0))
        curv = p * (p - 1.0) * e_tot ** p
        best = min(best, (head - angular_kernel(v, vstar, p, model, quad)) / curv)
    return float(best)
