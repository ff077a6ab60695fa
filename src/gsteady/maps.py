"""Radial and cone change-of-variables maps with their quantitative bounds.

A small verified math library: the radial contraction r -> r (1+e(r))/2 and
its inverse, the half-sum cone map u -> (u + |u| sigma)/2 and its inverse,
and the composed map whose Jacobian is bounded universally in [1/8, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .restitution import RestitutionModel, beta, scalar_or_array
from .restitution import theta as theta_map

ROOT_TOL = 1e-12
# Bisection steps of alpha_e: the fewest n with 2^-n < ROOT_TOL, i.e. 40.
ROOT_HALVINGS = int(np.ceil(-np.log2(ROOT_TOL)))
_F64MAX = float(np.finfo(float).max)
# Largest argument of alpha_e whose bracket end 2 s is finite.
ALPHA_MAX = _F64MAX / 2.0


def _non_negative(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InputError(f"{name} argument must be non-negative")
    return x


def eta_e(model: RestitutionModel, r):
    """r * beta(r); sandwiched between r/2 and r.  One value or an array."""
    r = _non_negative(r, "eta_e")
    return scalar_or_array(r * beta(model, r))


def alpha_e(model: RestitutionModel, s):
    """Inverse of eta_e, bracketed on [s, 2s] by the sandwich bounds.

    One value or an array, each s at most ALPHA_MAX = f64max / 2 (InputError
    above it).  Every element halves its bracket ROOT_HALVINGS = 40 times, so
    the bracket ends shorter than ROOT_TOL * max(1, s), and an element's
    value depends only on its own s.
    """
    s = _non_negative(s, "alpha_e")
    flat = s.reshape(-1)
    # s = 0 and an exact eta_e(s) = s both return s itself; their brackets
    # stay at [0, 0], so that the elastic law takes any finite s.
    bisect = (flat != 0.0) & (eta_e(model, flat) - flat != 0.0)
    lo = np.where(bisect, flat, 0.0)
    if np.any(lo > ALPHA_MAX):
        raise InputError(f"alpha_e argument must be at most {ALPHA_MAX:.6g} "
                         "(f64max / 2), so that its bracket [s, 2s] is finite")
    hi = 2.0 * lo
    for _ in range(ROOT_HALVINGS):
        # Halved before the sum, which would overflow above f64max / 3.
        mid = 0.5 * lo + 0.5 * hi
        below = eta_e(model, mid) - flat <= 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = np.where(bisect, 0.5 * lo + 0.5 * hi, flat)
    return scalar_or_array(out.reshape(s.shape))


def theta_prime(model: RestitutionModel, r):
    """Central finite difference of r -> r e(r).  One value or an array."""
    r = np.asarray(r, dtype=float)
    h = np.maximum(1e-6, 1e-6 * r)
    lo = np.maximum(r - h, 0.0)
    # The upper step stops at f64max, so that hi is finite for every finite r.
    hi = r + np.minimum(h, _F64MAX - r)
    return scalar_or_array((theta_map(model, hi) - theta_map(model, lo))
                           / (hi - lo))


def jacobian_Je(model: RestitutionModel, rho):
    """Jacobian of the radial contraction at radius rho; lies in [1/8, 1].
    One value or an array."""
    r = alpha_e(model, _non_negative(rho, "jacobian"))
    b = beta(model, r)
    return scalar_or_array(0.5 * (1.0 + theta_prime(model, r)) * b * b)


def phi_sigma(u, sigma):
    """Half-sum cone map u -> (u + |u| sigma) / 2."""
    u = np.asarray(u, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return 0.5 * (u + np.linalg.norm(u) * sigma)


def varphi_sigma(w, sigma):
    """Inverse of phi_sigma on the forward cone w-hat . sigma > 1e-12."""
    w = np.asarray(w, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    wn = np.linalg.norm(w)
    if wn == 0.0:
        return np.zeros(3)
    cos = float(w @ sigma) / wn
    if cos <= 1e-12:
        raise InputError("varphi_sigma requires w-hat . sigma > 0")
    return 2.0 * w - (wn / cos) * sigma


def pi_forward(model: RestitutionModel, w):
    """Radial contraction w -> beta(|w|) w; one vector (3,) or a batch (m, 3)."""
    w = np.asarray(w, dtype=float)
    return np.asarray(beta(model, np.linalg.norm(w, axis=-1)))[..., None] * w


def pi_inverse(model: RestitutionModel, z):
    """Inverse contraction z -> (alpha(|z|)/|z|) z; fixes the origin.
    One vector (3,) or a batch (m, 3)."""
    z = np.asarray(z, dtype=float)
    zn = np.linalg.norm(z, axis=-1)
    ratio = np.asarray(alpha_e(model, zn)) / np.where(zn == 0.0, 1.0, zn)
    return ratio[..., None] * z


def numerical_jacobian(func, x) -> float:
    """Determinant of the central-difference Jacobian of a 3-vector map,
    with step 1e-6 max(1, |x|)."""
    x = np.asarray(x, dtype=float)
    step = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    jac = np.empty((3, 3))
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = step
        jac[:, k] = (np.asarray(func(x + dx)) - np.asarray(func(x - dx))) / (2 * step)
    return float(np.linalg.det(jac))
