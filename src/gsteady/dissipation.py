"""Energy dissipation potential, its quasi-elastic limit and the
pairwise dissipation functional.

The central object is the potential
    Psi_e(r) = (r^{3/2} / 2) * int_0^1 (1 - e(sqrt(r) z)^2) z^3 dz
whose pair integral against f x f gives the energy dissipation rate.
Its rescalings zeta_lam(r^2) = lam^{-(3+gamma)} Psi_e(lam^2 r^2) converge
pointwise to the closed form zeta_0(r^2) = a/(4+gamma) * r^{3+gamma},
which fixes the temperature of the quasi-elastic limit Maxwellian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn

from .errors import InputError
from .kinematics import gauss_laguerre, gauss_legendre
from .observables import maxwell_moment
from .restitution import RestitutionModel, e_of_s

# Rows of psi_e's argument evaluated together, in one (rows x 64 nodes)
# scratch block that the law core overwrites.  The viscoelastic Newton solve
# keeps five more arrays of the block's size; on a 2-core x86_64 host it
# took 16-23 ns per element at 256 and at 512 rows, and 23-26 ns at 1024
# rows, where its arrays outgrow the cache.
PSI_BLOCK = 512


@dataclass(frozen=True)
class DissipationSpec:
    """Quadrature setup for Psi_e built on a restitution model: 64
    Gauss-Legendre nodes z on [0, 1], the node factor z^gamma of the law's
    argument s = (lambda_scale sqrt(r) z)^gamma and the weights z^3 w."""

    model: RestitutionModel
    _z_gamma: np.ndarray = field(init=False, repr=False)
    _z3w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        z, w = gauss_legendre(64)
        z = 0.5 * (z + 1.0)
        object.__setattr__(self, "_z_gamma", z ** self.model.gamma)
        object.__setattr__(self, "_z3w", z ** 3 * (0.5 * w))


def psi_e(spec: DissipationSpec, r):
    """Energy dissipation potential at squared relative speed r.

    One law power per pair: s at node z is (lambda_scale sqrt(r))^gamma
    times z^gamma, passed to the law core restitution.e_of_s, PSI_BLOCK
    rows at a time in one (rows x 64 nodes) scratch block.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise InputError("psi_e argument must be finite and non-negative")
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    scratch = np.empty((min(flat.size, PSI_BLOCK), spec._z3w.size))
    model = spec.model
    s = (model.lambda_scale * np.sqrt(flat)) ** model.gamma
    pre = 0.5 * flat ** 1.5
    for lo in range(0, flat.size, PSI_BLOCK):
        hi = min(lo + PSI_BLOCK, flat.size)
        blk = np.multiply(s[lo:hi, None], spec._z_gamma,
                          out=scratch[:hi - lo])
        e = e_of_s(model, blk)
        # pre * sum((1 - e e) z^3 w), grouped as written.
        e *= e
        np.subtract(1.0, e, out=e)
        e *= spec._z3w
        np.sum(e, axis=-1, out=out[lo:hi])
        out[lo:hi] *= pre[lo:hi]
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def psi_e_sample(model: RestitutionModel, r, u):
    """One-node estimate of psi_e at squared relative speed r, for u
    uniform on [0, 1) of r's shape.

    Psi_e(r) = (r^{3/2}/8) E[1 - e(sqrt(r) z)^2] for z = u^{1/4}, whose
    density 4 z^3 is the integral's weight z^3, so the estimate
    (r^{3/2}/8)(1 - e^2) at that z has mean Psi_e(r); for a constant law
    it does not depend on u.  One law power per pair, as in psi_e:
    s = (lambda_scale sqrt(r))^gamma u^(gamma/4).
    """
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise InputError("psi_e argument must be finite and non-negative")
    # Computed on 1-d arrays: numpy's scalar pow rounds unlike its array pow.
    flat = arr.reshape(-1)
    s = (model.lambda_scale * np.sqrt(flat)) ** model.gamma
    s *= np.reshape(u, -1) ** (0.25 * model.gamma)
    e = e_of_s(model, s)
    e *= e
    np.subtract(1.0, e, out=e)
    e *= 0.125 * flat ** 1.5
    return float(e[0]) if arr.ndim == 0 else e.reshape(arr.shape)


def zeta_lambda(spec: DissipationSpec, lam: float, r2):
    """Rescaled potential lam^{-(3+gamma)} Psi_e(lam^2 r^2).

    Raises InputError for lam outside (0, 1], or so small that the
    prefactor overflows (below about 4.7e-97 at gamma 0.2)."""
    if not 0.0 < lam <= 1.0:
        raise InputError("lambda must lie in (0, 1]")
    try:
        scale = float(lam) ** (-(3.0 + spec.model.gamma))
    except OverflowError:
        raise InputError(f"lambda = {lam!r} is too small: lam^-(3+gamma) "
                         "overflows a float") from None
    return scale * psi_e(spec, lam * lam * np.asarray(r2, dtype=float))


def zeta_zero(a: float, gamma: float, r2):
    """Quasi-elastic limit of zeta_lambda: a/(4+gamma) * r^{3+gamma}."""
    return a / (4.0 + gamma) * np.asarray(r2, dtype=float) ** (0.5 * (3.0 + gamma))


def dissipation_functional(velocities, zeta, n_pairs: int | None = None,
                           rng: np.random.Generator | None = None) -> float:
    """Unbiased pairwise estimate of the double integral f f zeta(|v-v*|^2).

    Every one of the N(N-1)/2 unordered pairs is evaluated when n_pairs is
    None or at least that count; otherwise n_pairs (at least 1) uniformly
    sampled pairs are.  The i == j diagonal of the population functional
    vanishes because zeta(0) = 0, leaving the (N-1)/N prefactor on the
    unordered-pair mean.
    """
    vel = np.asarray(velocities, dtype=float)
    if vel.ndim != 2 or vel.shape[1] != 3:
        raise InputError("velocities must have shape (N, 3)")
    if n_pairs is not None and n_pairs < 1:
        raise InputError("n_pairs must be at least 1")
    n = vel.shape[0]
    if n == 0:
        raise InputError("empty ensemble")
    if n == 1:
        return 0.0
    if n_pairs is None or n_pairs >= n * (n - 1) // 2:
        ii, jj = np.triu_indices(n, k=1)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        ii = rng.integers(0, n, size=n_pairs)
        jj = rng.integers(0, n - 1, size=n_pairs)
        jj = jj + (jj >= ii)
    # take gathers the same rows as vel[ii], at less than half its cost.
    diff = vel.take(ii, axis=0) - vel.take(jj, axis=0)
    mean = float(np.mean(zeta(np.einsum("ij,ij->i", diff, diff))))
    return (n - 1) / n * mean


@dataclass(frozen=True)
class ThetaResult:
    """Limit temperature by the Gaussian-moment oracle and by the printed
    closed form; the two normalizations disagree and both are reported."""

    theta: float
    theta_paper_formula: float


def theta_limit(a: float, gamma: float) -> ThetaResult:
    """Temperature of the quasi-elastic limit Maxwellian.

    Solves 6 = a/(4+gamma) * E|V - V*|^{3+gamma} in closed form.  The
    printed-formula variant uses the prefactor 2^{3/2} and the moment of
    pi^{-3/2} exp(-|v|^2/2); it is reported for comparison only.
    """
    if not (0.0 < a < np.inf and 0.0 < gamma < np.inf):
        raise InputError("theta_limit requires finite a > 0 and gamma > 0")
    q = 3.0 + gamma
    # V - V* is Gaussian at temperature 2 theta, so E|V - V*|^q is the
    # Maxwellian moment m_{q/2}(2 theta), which scales as theta^{q/2}: solve
    # from its value at 4 theta = 1.
    theta = 0.25 * (6.0 * (4.0 + gamma)
                    / (a * maxwell_moment(0.5, 0.5 * q))) ** (2.0 / q)
    m_q = 4.0 / np.sqrt(np.pi) * 2.0 ** (0.5 * (q + 1.0)) * gamma_fn(0.5 * (q + 3.0))
    theta_paper = (6.0 * (4.0 + gamma) / (a * 2.0 ** 1.5 * m_q)) ** (2.0 / q)
    return ThetaResult(theta=float(theta), theta_paper_formula=float(theta_paper))


def gaussian_pair_average(zeta, theta: float) -> float:
    """E[zeta(|V - V*|^2)] for independent Gaussians of temperature theta.

    100-node Gauss-Laguerre quadrature over the chi-square law of
    |V - V*|^2 / (4 theta).
    """
    x, w = gauss_laguerre(100)
    dens = 2.0 / np.sqrt(np.pi) * np.sqrt(x)
    return float(np.sum(w * dens * zeta(4.0 * theta * x)))


def steady_temperature_ansatz(spec: DissipationSpec, lam: float) -> float:
    """Finite-lambda steady temperature under a Gaussian closure.

    Solves 6 = E_T[zeta_lambda(|V - V*|^2)] for the temperature T of a
    Maxwellian ansatz, bracketed in [1e-3, 1e3]; tends to the theta_limit
    oracle as lam -> 0.  Raises InputError when the balance has one sign at
    both ends of the bracket, as for an elastic law, which dissipates
    nothing and so has no steady temperature.
    """
    def balance(t):
        return gaussian_pair_average(lambda r2: zeta_lambda(spec, lam, r2), t) - 6.0

    try:
        return float(brentq(balance, 1e-3, 1e3, xtol=1e-12, rtol=1e-12))
    except ValueError:
        if np.sign(balance(1e-3)) != np.sign(balance(1e3)):
            raise
    raise InputError(f"no steady temperature in [1e-3, 1e3] at lambda={lam!r}: "
                     "the bath input and the collision loss do not balance there")
