"""Numerical verification of Povzner-type bounds for the angular-averaged
collision kernel with power test functions x^p.

The angular kernel is the isotropic sphere average of
Psi(|v'|^2) + Psi(|v'*|^2) - Psi(|v|^2) - Psi(|v*|^2); its claimed upper
bound A (|v|^2 Psi'(|v*|^2) + |v*|^2 Psi'(|v|^2)) - k E^2 Psi''(E) holds
with constants independent of the restitution law; for the isotropic
cross-section, k eta_2(2) = 5/96.  Psi(x) = x^p is applied directly to the
squared speeds on kinematics.post_collision_grid's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kinematics import (AngularQuadrature, angular_average, gain_average,
                         gauss_legendre, sq_norm)
from .restitution import RestitutionModel, scalar_or_array

# Pairs per vectorized batch in battery.
PAIR_CHUNK = 512
# Sphere quadrature of battery and of the verify suite's gain-term check.
BATTERY_QUAD = AngularQuadrature(n_s=32, n_phi=16)


@dataclass(frozen=True)
class PovznerCase:
    """Constants of the bound for Psi(x) = x^p."""

    p: float

    def __post_init__(self):
        if not 1.0 <= self.p < np.inf:  # NaN fails too
            raise InputError(f"moment exponent p = {self.p} must be finite and >= 1")

    @property
    def a_const(self) -> float:
        # eta_1(2) for Psi' = p x^{p-1}
        return 2.0 ** (self.p - 1.0)

    @property
    def k_const(self) -> float:
        # k eta_2(2) = 5/96 with eta_2(a) = a^{p-2}
        return 5.0 / 96.0 / 2.0 ** (self.p - 2.0)

    def bound_terms(self, x, y):
        """The two terms of the bound at x = |v|^2, y = |v*|^2: the head
        A p (x y^{p-1} + y x^{p-1}) and the curvature p (p-1) E^p with
        E = x + y; the bound is head - k * curvature."""
        p = self.p
        return (self.a_const * p * (x * y ** (p - 1.0) + y * x ** (p - 1.0)),
                p * (p - 1.0) * (x + y) ** p)

    def refit_k(self, norms) -> float:
        """Largest k for which the bound holds on a battery's pairs, from
        its normalized margins (battery's second output).

        Fallback diagnostic: if the printed constant ever fails the sign
        check, the qualitative content (existence of a positive k) is still
        asserted and the refit value reported alongside.  A margin is
        head - k_const curv - kernel with curv = p (p-1) E^p, so a pair's
        largest k is k_const + margin / curv = k_const + norm / (p (p-1)).
        """
        return self.k_const + float(np.min(norms)) / (self.p * (self.p - 1.0))


def angular_kernel(v, vstar, p: float, model: RestitutionModel,
                   quad: AngularQuadrature):
    """Sphere average of the x^p collision difference (full 2-D quadrature).

    One pair (3,) gives a float, 0.0 when v == v*; a batch (m, 3) gives
    shape (m,) and must not contain a pair with v == v*.
    """
    return scalar_or_array(angular_average(lambda x: x ** p, v, vstar, model,
                                            quad))


def gain_term(v, vstar, p: float, model: RestitutionModel,
              quad: AngularQuadrature):
    """Sphere average of Psi(|v'|^2) + Psi(|v'*|^2) alone; one pair or a batch."""
    return scalar_or_array(gain_average(lambda x: x ** p, v, vstar, model, quad))


def gain_upper_bound(v, vstar, p: float):
    """The restitution-independent bound on the gain term:
    int_0^1 [Psi(E (3+s)/4) + Psi(E (1-s)/4)] ds with E = |v|^2 + |v*|^2.

    One pair gives a float, a batch (m, 3) shape (m,)."""
    e_tot = np.asarray(sq_norm(v) + sq_norm(vstar), dtype=float)[..., None]
    s, w = gauss_legendre(128)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    vals = (e_tot * (3.0 + s) / 4.0) ** p + (e_tot * (1.0 - s) / 4.0) ** p
    return scalar_or_array(vals @ w)


def check_inequality(v, vstar, p: float, model: RestitutionModel,
                     quad: AngularQuadrature):
    """Signed margin of the Povzner bound; non-negative when it holds.

    One pair gives a float, a batch (m, 3) shape (m,)."""
    if p < 2.0:
        raise InputError("the clean bound needs p >= 2 (locally bounded Psi'')")
    case = PovznerCase(p)
    head, curv = case.bound_terms(sq_norm(v), sq_norm(vstar))
    return scalar_or_array(head - case.k_const * curv
                            - angular_kernel(v, vstar, p, model, quad))


def battery(p: float, model: RestitutionModel, n_pairs: int,
            rng: np.random.Generator):
    """Margins of the bound on Gaussian random pairs, normalized by E^p.

    Returns (margins, normalized_margins); a failing constant would show
    as a negative normalized margin.  Pairs go through check_inequality, so
    p >= 2, in batches of PAIR_CHUNK, on the BATTERY_QUAD sphere grid.
    """
    margins = np.empty(n_pairs)
    norms = np.empty(n_pairs)
    for start in range(0, n_pairs, PAIR_CHUNK):
        m = min(PAIR_CHUNK, n_pairs - start)
        v = rng.normal(size=(m, 3))
        vstar = rng.normal(size=(m, 3))
        marg = check_inequality(v, vstar, p, model, BATTERY_QUAD)
        margins[start:start + m] = marg
        norms[start:start + m] = marg / (sq_norm(v) + sq_norm(vstar)) ** p
    return margins, norms

