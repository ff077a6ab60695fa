"""Post-collision velocity maps and angular averaging over the sphere.

Two equivalent parametrizations of a binary inelastic collision are
implemented: the scattering-direction form (sigma) and the impact-direction
form (n-hat).  Both conserve momentum exactly and dissipate kinetic energy
according to the velocity-dependent restitution law.  The sphere averages
take radial test functions psi(|w|^2), so the quadrature grid holds the
post-collision squared speeds |v'|^2, |v'*|^2 and no velocity vectors.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .restitution import (RestitutionModel, beta, checked_e, eval_e,
                          scalar_or_array)

UNIT_TOL = 1e-12


def _frozen_rule(nodes: np.ndarray, weights: np.ndarray):
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.cache
def gauss_legendre(n: int):
    """Read-only n-point Gauss-Legendre (nodes, weights) on [-1, 1], built
    once."""
    return _frozen_rule(*np.polynomial.legendre.leggauss(n))


@functools.cache
def gauss_laguerre(n: int):
    """Read-only n-point Gauss-Laguerre (nodes, weights) for exp(-x) on
    [0, inf), built once."""
    return _frozen_rule(*np.polynomial.laguerre.laggauss(n))


@dataclass(frozen=True)
class AngularQuadrature:
    """Gauss-Legendre nodes in cos(theta) plus a trapezoid rule in azimuth.

    n_s is the number of Gauss-Legendre nodes s_i in [-1, 1] and n_phi the
    number of nodes phi_j = 2 pi j / n_phi of the trapezoid rule on the full
    circle; both are integers.  post_collision_grid evaluates only the half
    ring j = 0 .. n_phi // 2, because a node's value depends on phi_j only
    through cos(phi_j) (see there).
    """

    n_s: int = 64
    n_phi: int = 32
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # A float size fails in numpy (n_s) or builds a non-uniform rule
        # (n_phi).
        for name in ("n_s", "n_phi"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.n_s < 2:
            raise InputError("angular quadrature needs at least 2 nodes")
        if self.n_phi < 1:
            raise InputError("azimuthal rule needs at least 1 node")
        nodes, weights = gauss_legendre(self.n_s)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def sq_norm(w):
    """Squared length over the last axis: (..., 3) -> (...)."""
    return np.einsum("...k,...k->...", w, w)


def _dot(a, b):
    """Dot product over the last axis, the three products added left to
    right, so that one pair and a batch round alike."""
    p = a * b
    return p[..., 0] + p[..., 1] + p[..., 2]


def _check_unit(vec, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] != 3:
        raise InputError(f"{name} must be a 3-vector or an (m, 3) batch")
    if np.any(np.abs(np.linalg.norm(vec, axis=-1) - 1.0) > UNIT_TOL):
        raise InputError(f"{name} must be a unit vector (tol {UNIT_TOL})")
    return vec


def sigma_collision(u, sigma, model: RestitutionModel):
    """(h, loss) of sigma-form collisions with relative velocity u = v - v*:
    v' = v - h, v*' = v* + h, and loss >= 0 is the kinetic energy dissipated.

    Unchecked: sigma must be a unit vector of u's shape.  A pair with
    v == v* has u = 0, so its h and loss come out 0 without a special case.
    """
    un = np.sqrt(_dot(u, u))
    s = np.clip(_dot(u, sigma) / np.where(un == 0.0, 1.0, un), -1.0, 1.0)
    e = checked_e(model, un * np.sqrt(0.5 * (1.0 - s))).reshape(un.shape)
    b = 0.5 * (1.0 + e)
    h = 0.5 * b[..., None] * (u - un[..., None] * sigma)
    return h, 0.25 * un * un * (1.0 - s) * (1.0 - e * e)


def post_collision_sigma(v, vstar, sigma, model: RestitutionModel):
    """Post-collision velocities in the scattering-direction parametrization.

    v, vstar and sigma are one pair (3,) or a batch (m, 3).
    """
    v = np.asarray(v, dtype=float)
    vstar = np.asarray(vstar, dtype=float)
    h, _ = sigma_collision(v - vstar, _check_unit(sigma, "sigma"), model)
    return v - h, vstar + h


def post_collision_nhat(v, vstar, nhat, model: RestitutionModel):
    """Post-collision velocities in the impact-direction parametrization.

    v, vstar and nhat are one pair (3,) or a batch (m, 3).
    """
    v = np.asarray(v, dtype=float)
    vstar = np.asarray(vstar, dtype=float)
    nhat = _check_unit(nhat, "nhat")
    un_n = _dot(v - vstar, nhat)
    e = np.asarray(eval_e(model, np.abs(un_n)))
    h = (0.5 * (1.0 + e) * un_n)[..., None] * nhat
    return v - h, vstar + h


def energy_loss(v, vstar, sigma, model: RestitutionModel):
    """Kinetic energy dissipated by a collision (non-negative): a float for
    one pair (3,), shape (m,) for a batch (m, 3)."""
    u = np.asarray(v, dtype=float) - np.asarray(vstar, dtype=float)
    _, loss = sigma_collision(u, _check_unit(sigma, "sigma"), model)
    return scalar_or_array(loss)


def post_collision_grid(v, vstar, model: RestitutionModel,
                        quad: AngularQuadrature):
    """Post-collision squared speeds on the half-ring sigma quadrature grid.

    v, vstar are one pair of shape (3,) or a batch of shape (m, 3); one pair
    against a batch is taken as that pair repeated.  Returns (xp, xps, w):
    xp = |v'|^2 and xps = |v'*|^2 of shape (..., n_s, n_phi // 2 + 1), and
    weights w of shape (n_s, n_phi // 2 + 1) that sum to 1, i.e. they
    integrate the isotropic kernel 1/(4 pi) d sigma.

    Node (i, j) is the collision with direction
    sigma_ij = s_i uhat + sin_i (cos phi_j e1 + sin phi_j e2), where s_i is
    the i-th Gauss-Legendre node, sin_i = sqrt(1 - s_i^2),
    phi_j = 2 pi j / n_phi, uhat = u / |u| with u = v - v*, e1 is the unit
    vector along v_perp = v - (v.uhat) uhat (any unit vector normal to uhat
    when v_perp = 0) and e2 = uhat x e1.  v* has the same v_perp, since u
    is parallel to uhat.

    No frame and no velocity is built: a pair enters only through |v|^2,
    |v*|^2, vu = v.uhat, wu = v*.uhat and |v_perp|.  With c = beta_i / 2
    (beta at the node's impact speed |u| sqrt((1 - s_i) / 2)) and
    k = 2 c |u|,
    |v'|^2 = |v|^2 - k (1 - s_i) (vu - c |u|) + k sin_i |v_perp| cos phi_j
    and
    |v'*|^2 = |v*|^2 + k (1 - s_i) (wu + c |u|) - k sin_i |v_perp| cos phi_j.

    So a node depends on phi_j only through cos phi_j, and node n_phi - j
    holds the values of node j.  The grid keeps the half ring
    j = 0 .. n_phi // 2, and w = outer(weights / 2, w_phi) folds each
    mirrored node into its twin: w_phi = (1, 2, ..., 2, 1) / n_phi, with
    weight 1 at j = 0 and, for even n_phi, at j = n_phi / 2.  This is the
    n_phi-point trapezoid rule on the full circle, node for node.

    A pair with v == v* has u = 0, so uhat = 0 (u is divided by 1 there, as
    in `sigma_collision`) and k = 0: its grid holds |v|^2 and |v*|^2 on
    every node, alone or in a batch.
    """
    v, vstar = np.broadcast_arrays(np.asarray(v, dtype=float),
                                   np.asarray(vstar, dtype=float))
    u = v - vstar
    un = np.sqrt(_dot(u, u))
    uhat = u / np.where(un == 0.0, 1.0, un)[..., None]
    vu = _dot(v, uhat)[..., None]
    # |v_perp| from the vector: sqrt(|v|^2 - vu^2) would cancel.
    v_perp = v - vu * uhat
    s = quad.nodes
    j = np.arange(quad.n_phi // 2 + 1)
    phi = 2.0 * np.pi * j / quad.n_phi
    w_phi = np.where((j == 0) | (2 * j == quad.n_phi), 1.0, 2.0) / quad.n_phi
    w = np.outer(0.5 * quad.weights, w_phi)
    sin_t = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    un = un[..., None]
    k = np.asarray(beta(model, un * np.sqrt(0.5 * (1.0 - s)))) * un
    half = 0.5 * k  # c |u|
    # The azimuth-free part, shape (..., n_s), and the ring term on top.
    axial = _dot(v, v)[..., None] - k * (1.0 - s) * (vu - half)
    axial_s = (_dot(vstar, vstar)[..., None]
               + k * (1.0 - s) * (_dot(vstar, uhat)[..., None] + half))
    ring = np.sqrt(_dot(v_perp, v_perp))[..., None] * np.cos(phi)
    turn = (k * sin_t)[..., None] * ring[..., None, :]
    return axial[..., None] + turn, axial_s[..., None] - turn, w


def gain_average(psi, v, vstar, model: RestitutionModel,
                 quad: AngularQuadrature):
    """Isotropic sphere average of psi(|v'|^2) + psi(|v'*|^2).

    v, vstar are one pair (3,) or a batch (m, 3), or one of each; psi takes
    squared speeds, an array of shape (...), and returns shape (...) or
    (..., k); the result has the batch shape followed by psi's trailing
    shape.
    """
    xp, xps, w = post_collision_grid(v, vstar, model, quad)
    vals = np.asarray(psi(xp)) + np.asarray(psi(xps))
    # Both grid axes at once: Gauss-Legendre in cos(theta), half-ring
    # trapezoid in azimuth.
    lead = xp.ndim - 2
    return np.tensordot(vals, w, axes=([lead, lead + 1], [0, 1]))


def angular_average(psi, v, vstar, model: RestitutionModel,
                    quad: AngularQuadrature):
    """Isotropic sphere average of
    psi(|v'|^2) + psi(|v'*|^2) - psi(|v|^2) - psi(|v*|^2).

    Takes one pair or a batch, and psi of the squared speed, as gain_average
    does.  A pair with v == v* has u = 0 and gives 0 to rounding, alone or
    in a batch (see post_collision_grid).
    """
    v = np.asarray(v, dtype=float)
    vstar = np.asarray(vstar, dtype=float)
    x, xstar = sq_norm(v), sq_norm(vstar)
    return (gain_average(psi, v, vstar, model, quad)
            - np.asarray(psi(x)) - np.asarray(psi(xstar)))
