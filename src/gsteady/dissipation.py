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

from . import _helper
from .errors import InputError
from .kinematics import gauss_laguerre, gauss_legendre
from .observables import maxwell_moment
from .restitution import RestitutionModel, e_of_s

# Rows of psi_e's argument evaluated together, in one (rows x 64 nodes)
# scratch block that the law core overwrites.  The viscoelastic Newton solve
# keeps five more arrays of the block's size; on a 2-core x86_64 host it
# took 21.5 ns per element at 256 and at 512 rows, and 31 ns at 1024 rows,
# where its arrays outgrow the cache.  From two blocks and _helper.MIN_SIZE
# law evaluations (rows x 64 nodes) on, psi_e splits its blocks at a block
# boundary, queues the second half on the long-lived helper thread and does
# the first meanwhile (a fork waits for the queued half; a forked child
# starts a helper thread of its own).  Fewer blocks leave the two threads
# less often waiting for the interpreter lock: on 10,000 viscoelastic pairs
# a split call took 14.8 ms at 256 rows, 11.0 ms at 512 and 13.3 ms at 1024.
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


def _psi_blocks(spec: DissipationSpec, flat, out, scratch, start, stop):
    """psi_e of flat[start:stop] into out, PSI_BLOCK rows at a time in
    scratch (a block's rows x 64 nodes); start is a multiple of PSI_BLOCK."""
    model = spec.model
    r = flat[start:stop]
    s = (model.lambda_scale * np.sqrt(r)) ** model.gamma
    pre = 0.5 * r ** 1.5
    for lo in range(0, r.size, PSI_BLOCK):
        hi = min(lo + PSI_BLOCK, r.size)
        blk = np.multiply(s[lo:hi, None], spec._z_gamma,
                          out=scratch[:hi - lo])
        e = e_of_s(model, blk)
        # pre * sum((1 - e e) z^3 w), grouped as written.
        e *= e
        np.subtract(1.0, e, out=e)
        e *= spec._z3w
        dst = out[start + lo:start + hi]
        np.sum(e, axis=-1, out=dst)
        dst *= pre[lo:hi]


def psi_e(spec: DissipationSpec, r):
    """Energy dissipation potential at squared relative speed r.

    One law power per pair: s at node z is (lambda_scale sqrt(r))^gamma
    times z^gamma, passed to the law core restitution.e_of_s.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise InputError("psi_e argument must be finite and non-negative")
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    blocks = -(-flat.size // PSI_BLOCK)
    scratch = np.empty((min(flat.size, PSI_BLOCK), spec._z3w.size))
    if blocks >= 2 and flat.size * spec._z3w.size >= _helper.MIN_SIZE:
        mid = blocks // 2 * PSI_BLOCK
        # Allocated here: a thread that allocates takes its own malloc arena.
        half = _helper.submit(_psi_blocks, spec, flat, out,
                              np.empty_like(scratch), mid, flat.size)
        _psi_blocks(spec, flat, out, scratch, 0, mid)
        half.result()
    else:
        _psi_blocks(spec, flat, out, scratch, 0, flat.size)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def zeta_lambda(spec: DissipationSpec, lam: float, r2):
    """Rescaled potential lam^{-(3+gamma)} Psi_e(lam^2 r^2)."""
    if not 0.0 < lam <= 1.0:
        raise InputError("lambda must lie in (0, 1]")
    return (lam ** (-(3.0 + spec.model.gamma))
            * psi_e(spec, lam * lam * np.asarray(r2, dtype=float)))


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
    diff = vel[ii] - vel[jj]
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
