"""Radial and cone change-of-variables maps with their quantitative bounds.

A small verified math library: the radial contraction r -> r (1+e(r))/2 and
its inverse, the half-sum cone map u -> (u + |u| sigma)/2 and its inverse,
and the composed map whose Jacobian is bounded universally in [1/8, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .restitution import RestitutionModel, beta
from .restitution import theta as theta_map

ROOT_TOL = 1e-12


def eta_e(model: RestitutionModel, r: float) -> float:
    """r * beta(r); sandwiched between r/2 and r."""
    if r < 0.0:
        raise InputError("eta_e argument must be non-negative")
    return float(r * beta(model, r))


def alpha_e(model: RestitutionModel, s: float) -> float:
    """Inverse of eta_e, bracketed on [s, 2s] by the sandwich bounds."""
    if s < 0.0:
        raise InputError("alpha_e argument must be non-negative")
    if s == 0.0:
        return 0.0
    lo, hi = s, 2.0 * s
    flo = eta_e(model, lo) - s
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eta_e(model, mid) - s <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < ROOT_TOL * max(1.0, s):
            break
    return 0.5 * (lo + hi)


def theta_prime(model: RestitutionModel, r: float,
                scale: float | None = None) -> float:
    """Central finite difference of r -> r e(r)."""
    h = max(1e-6, 1e-6 * (r if scale is None else scale))
    lo = max(r - h, 0.0)
    hi = r + h
    return float((theta_map(model, hi) - theta_map(model, lo)) / (hi - lo))


def jacobian_Je(model: RestitutionModel, rho: float) -> float:
    """Jacobian of the radial contraction at radius rho; lies in [1/8, 1]."""
    if rho < 0.0:
        raise InputError("jacobian argument must be non-negative")
    r = alpha_e(model, rho)
    b = float(beta(model, r))
    return 0.5 * (1.0 + theta_prime(model, r)) * b * b


def phi_sigma(u, sigma):
    """Half-sum cone map u -> (u + |u| sigma) / 2."""
    u = np.asarray(u, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return 0.5 * (u + np.linalg.norm(u) * sigma)


def varphi_sigma(w, sigma, tol: float = 1e-12):
    """Inverse of phi_sigma on the forward cone w-hat . sigma > 0."""
    w = np.asarray(w, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    wn = np.linalg.norm(w)
    if wn == 0.0:
        return np.zeros(3)
    cos = float(w @ sigma) / wn
    if cos <= tol:
        raise InputError("varphi_sigma requires w-hat . sigma > 0")
    return 2.0 * w - (wn / cos) * sigma


def pi_forward(model: RestitutionModel, w):
    """Radial contraction w -> beta(|w|) w."""
    w = np.asarray(w, dtype=float)
    wn = np.linalg.norm(w)
    if wn == 0.0:
        return np.zeros(3)
    return float(beta(model, wn)) * w


def pi_inverse(model: RestitutionModel, z):
    """Inverse contraction z -> (alpha(|z|)/|z|) z; fixes the origin."""
    z = np.asarray(z, dtype=float)
    zn = np.linalg.norm(z)
    if zn == 0.0:
        return np.zeros(3)
    return (alpha_e(model, zn) / zn) * z


def numerical_jacobian(func, x, h: float = 1e-6) -> float:
    """Determinant of the central-difference Jacobian of a 3-vector map."""
    x = np.asarray(x, dtype=float)
    step = h * max(1.0, float(np.linalg.norm(x)))
    jac = np.empty((3, 3))
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = step
        jac[:, k] = (np.asarray(func(x + dx)) - np.asarray(func(x - dx))) / (2 * step)
    return float(np.linalg.det(jac))
