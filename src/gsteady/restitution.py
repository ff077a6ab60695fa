"""Restitution-coefficient families and their rescalings.

Three families are provided: a constant coefficient, a power-law form
e(r) = 1/(1 + a r^gamma) and the viscoelastic implicit law
e + a r^{1/5} e^{3/5} = 1.  All share the small-impact behaviour
e(r) = 1 - a r^gamma + O(r^gamma_bar) and may be pre-composed with a
scale factor, e_lam(r) = e(lam * r).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

CONSTANT = "constant"
POWER_LAW = "power_law"
VISCOELASTIC = "viscoelastic"

VISCO_GAMMA = 0.2
VISCO_GAMMA_BAR = 0.4
_NEWTON_STEPS = 4
# Largest s = (lambda_scale r)^(1/5) of a finite r.  The Newton solve forms
# 3 c with c = a s, so a viscoelastic a must keep 3 (a _VISCO_S_MAX) finite.
_VISCO_S_MAX = float(np.finfo(float).max) ** VISCO_GAMMA


@dataclass(frozen=True)
class RestitutionModel:
    """Immutable description of a restitution law e(.)."""

    kind: str
    e0: float = 1.0
    a: float = 1.0
    gamma: float = VISCO_GAMMA
    lambda_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (CONSTANT, POWER_LAW, VISCOELASTIC):
            raise InputError(f"unknown restitution kind {self.kind!r}")
        if self.kind == CONSTANT and not 0.0 < self.e0 <= 1.0:
            raise InputError("constant restitution requires e0 in (0, 1]")
        if self.kind != CONSTANT and not 0.0 < self.a < math.inf:
            raise InputError("restitution coefficient a must be positive and finite")
        if self.kind == POWER_LAW and not 0.0 < self.gamma <= 1.0:
            raise InputError("power-law exponent gamma must lie in (0, 1]")
        if self.kind == VISCOELASTIC and self.gamma != VISCO_GAMMA:
            raise InputError(f"the viscoelastic law fixes gamma = {VISCO_GAMMA}")
        if (self.kind == VISCOELASTIC
                and 3.0 * (float(self.a) * _VISCO_S_MAX) == math.inf):
            raise InputError("viscoelastic coefficient a must be below about "
                             "1.3386e+246, so that e stays finite at every "
                             "finite impact speed")
        if not 0.0 < self.lambda_scale <= 1.0:
            raise InputError("lambda_scale must lie in (0, 1]")

    @property
    def gamma_bar(self) -> float:
        """Second-order exponent of the small-impact expansion, fixed by the
        law: 2 gamma for the power law, 2/5 for the viscoelastic law."""
        return VISCO_GAMMA_BAR if self.kind == VISCOELASTIC else 2.0 * self.gamma


def constant(e0: float) -> RestitutionModel:
    return RestitutionModel(kind=CONSTANT, e0=e0)


def power_law(a: float, gamma: float) -> RestitutionModel:
    return RestitutionModel(kind=POWER_LAW, a=a, gamma=gamma)


def viscoelastic(a: float) -> RestitutionModel:
    return RestitutionModel(kind=VISCOELASTIC, a=a)


def elastic() -> RestitutionModel:
    return constant(1.0)


def scalar_or_array(out):
    """A Python float for a 0-d result, the array otherwise."""
    return float(out) if np.ndim(out) == 0 else out


def _visco_newton(c):
    """Root y of g(y) = y^5 + c y^3 - 1 per element of the array c >= 0, of
    any shape: _NEWTON_STEPS Newton steps for every element from
    y0 = (1 + c)^(-1/3).

    g is increasing and convex on y > 0, and g(y0) = (y0^2 - 1)/(1 + c) <= 0,
    so the first step lands right of the root and every later step decreases
    onto it quadratically.  In long double the start is at most 5.5 % off
    (near c = 1.55) and four steps leave a relative error of at most 4.1e-18,
    far below 2^-53, so each y lies within 1 ulp of the double nearest the
    root for c from 0 to 1e300 (c = 0 gives y0 = 1, the root itself).  Every
    element takes the same steps, so its value depends only on its own c.
    Every array the loop writes is allocated once, before it.
    """
    y = c + 1.0
    y **= -1.0 / 3.0
    y2, step, dg = np.empty((3,) + c.shape)
    c3 = 3.0 * c
    for _ in range(_NEWTON_STEPS):
        # step = g / dg, g = y^2 y (y^2 + c) - 1, dg = y^2 (5y y + 3c), each
        # grouped as written.
        np.multiply(y, y, out=y2)
        np.multiply(y2, y, out=step)
        np.add(y2, c, out=dg)
        step *= dg
        step -= 1.0
        np.multiply(5.0, y, out=dg)
        dg *= y
        dg += c3
        dg *= y2
        step /= dg
        y -= step
    return y


def e_of_s(model: RestitutionModel, s):
    """The law core: e as a function of s = (lambda_scale * r) ** gamma, for
    an array s of any shape, unchecked; checked_e is its checked entry.

    The power law is 1 / (1 + a s); the viscoelastic law is e = y^5 with
    y^5 + a s y^3 = 1.  May overwrite s and return it, so callers pass an
    array they own and no longer need.
    """
    if model.kind == CONSTANT:
        s.fill(model.e0)
        return s
    s *= model.a
    if model.kind == POWER_LAW:
        s += 1.0
        return np.divide(1.0, s, out=s)
    y = _visco_newton(s)
    return np.power(y, 5, out=y)


def eval_e(model: RestitutionModel, r):
    """Restitution coefficient at impact speed r: a float for a scalar r,
    an array of r's shape otherwise.

    Every element goes through the same array code, so an element's value
    does not depend on the shape it is passed in.
    """
    arr = np.asarray(r, dtype=float)
    return scalar_or_array(checked_e(model, arr).reshape(arr.shape))


def checked_e(model: RestitutionModel, r: np.ndarray) -> np.ndarray:
    """eval_e's array core: e at the impact speeds of the float array r, of
    any shape, as a 1-d array.  Raises InputError for a negative or
    non-finite speed."""
    if not np.all((r >= 0.0) & (r < np.inf)):
        raise InputError("impact speed must be finite and non-negative")
    # Computed on 1-d arrays: numpy's scalar pow rounds unlike its array pow.
    return e_of_s(model, (model.lambda_scale * r.reshape(-1)) ** model.gamma)


def beta(model: RestitutionModel, r):
    """Momentum-transfer fraction (1 + e(r)) / 2, in (1/2, 1]."""
    e = eval_e(model, r)
    return 0.5 * (1.0 + e)


def theta(model: RestitutionModel, r):
    """The mapping r -> r e(r), strictly increasing for admissible laws."""
    return np.asarray(r, dtype=float) * eval_e(model, r)


def rescale(model: RestitutionModel, lam: float) -> RestitutionModel:
    """Model evaluating r -> e(lam * r); rescales compose multiplicatively."""
    if not 0.0 < lam <= 1.0:
        raise InputError("rescale factor must lie in (0, 1]")
    return dataclasses.replace(model, lambda_scale=model.lambda_scale * lam)


def implicit_residual(model: RestitutionModel, r) -> float:
    """Residual of the viscoelastic implicit equation at the returned root."""
    if model.kind != VISCOELASTIC:
        raise InputError("implicit_residual applies to the viscoelastic law")
    rr = model.lambda_scale * np.asarray(r, dtype=float)
    e = eval_e(model, r)
    return e + model.a * rr ** VISCO_GAMMA * e ** 0.6 - 1.0


def log_grid(lo: float = 1e-8, hi: float = 1e8, n: int = 1000) -> np.ndarray:
    """Log-spaced evaluation grid used by the grid-based invariant checks."""
    if not 0.0 < lo < hi < math.inf:
        raise InputError("log_grid needs 0 < lo < hi < inf")
    return np.logspace(math.log10(lo), math.log10(hi), n)
