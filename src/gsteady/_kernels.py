"""The majorant collision sweep, in numpy.

The sweep runs in rounds (see `apply_collisions`); it makes the same accept
decisions as a one-candidate-at-a-time loop and differs from it only where
numpy's `pow` rounds differently from libm's.

The majorant U_max = 4 max|v| (`dsmc._UMAX_FACTOR`) has a factor-2 margin:
within one step max|v| grows by a few percent at most.  The sweep spends
that margin on speed without changing what it decides: while no speed
exceeds `_SPEED_BOUND * max|v|`, a candidate whose accept threshold is above
twice that bound is sure to be rejected, so it never enters a round.
"""

import math

import numpy as np

from .errors import MajorantViolation
from .kinematics import _dot, sigma_collision
from .restitution import RestitutionModel

# The sweep assumes every speed stays at or below _SPEED_BOUND * max|v|,
# skips the candidates that assumption rejects, checks it after each round,
# and undoes its rounds and reruns without it when the check fails.  Any
# factor in (1, _UMAX_FACTOR) gives the same result; the factor sets only how
# many candidates are skipped and how often the rerun happens.
_SPEED_BOUND = 1.1


def _predecessors(idx_i, idx_j):
    """(prev_i, prev_j): the candidate holding the previous endpoint on each
    candidate's particle i and j, or m (the candidate count) when there is
    none."""
    m = idx_i.shape[0]
    # Endpoint 2k is i_k and 2k+1 is j_k.  Sorting the unique keys
    # (particle << w) | position, with 2m < 2^w, lists each particle's
    # endpoints in candidate order, and the keys decode back to
    # (particle, position) by a shift and a mask.  Particles are below N and
    # 2^w <= 4m, so a key is below 4 N m: within int64 while N m < 2^61.
    w = (2 * m).bit_length()
    key = np.empty(2 * m, dtype=np.int64)
    key[0::2] = idx_i
    key[1::2] = idx_j
    key <<= w
    key |= np.arange(2 * m)
    key.sort()
    part = key >> w
    pos = key & ((1 << w) - 1)
    prev = np.empty(2 * m, dtype=np.int64)
    prev[pos[:1]] = m
    prev[pos[1:]] = np.where(part[1:] == part[:-1], pos[:-1] >> 1, m)
    prev_i = prev[0::2]
    prev_j = prev[1::2]
    # A pair with i == j would find itself as j's predecessor.
    self_dep = prev_j == np.arange(m)
    prev_j[self_dep] = prev_i[self_dep]
    return prev_i, prev_j


def sphere_directions(dirs):
    """Unit vectors uniform on S^2 from rows (d0, d1) of uniforms on [0, 1):
    c = 2 d0 - 1, phi = 2 pi d1, sigma = (sqrt(1 - c^2) (cos phi, sin phi), c).
    By Archimedes' hat-box theorem c is the height of a uniform point on the
    sphere, so sigma is exactly uniform; it is a unit vector to rounding."""
    c = 2.0 * dirs[:, 0] - 1.0
    phi = 2.0 * math.pi * dirs[:, 1]
    rho = np.sqrt(1.0 - c * c)
    return np.stack((rho * np.cos(phi), rho * np.sin(phi), c), axis=-1)


def apply_collisions(vel, idx_i, idx_j, accept_u, dirs, umax,
                     model: RestitutionModel, vmax):
    """Thin candidate pairs and apply accepted collisions in candidate order.

    dirs holds each candidate's two direction uniforms, an (m, 2) array;
    only the accepted rows are mapped to a scattering direction
    (`sphere_directions`), so a candidate's direction does not depend on
    the round that takes it.  vmax must be max|v| over vel.

    Each round takes every pending candidate whose previous candidates on i
    and on j are both done.  Candidates of one round touch disjoint
    particles, and each sees the velocities the one-at-a-time loop would
    give it.

    The first pass leaves out the candidates that are sure to be rejected
    while no speed exceeds `_SPEED_BOUND * vmax`.  If a round writes a faster
    (or NaN) speed, the pass undoes its rounds in reverse order and the
    sweep reruns over every candidate with no bound.

    Mutates vel in place.  Returns (accepted, energy_loss).  Raises
    MajorantViolation at the first round that holds a pair whose relative
    speed exceeds umax, with vel part-updated, so the caller must discard
    vel.
    """
    m = idx_i.shape[0]
    if m == 0:
        return 0, 0.0
    # The accept test's threshold, computed once as the test computes it.
    thresh = accept_u * umax
    for bound in (_SPEED_BOUND * vmax, math.inf):
        # With no speed above bound, |u| <= 2 bound: a candidate whose
        # threshold is above that is rejected, and cannot raise since
        # thresh < umax.  The 1e-12 covers the rounding in |u|.  The rerun,
        # with an infinite bound, keeps every candidate.
        cand = np.flatnonzero(thresh < 2.0 * (1.0 + 1e-12) * bound)
        ci = idx_i.take(cand)
        cj = idx_j.take(cand)
        ct = thresh.take(cand)
        mc = cand.size
        prev_i, prev_j = _predecessors(ci, cj)
        done = np.zeros(mc + 1, dtype=bool)
        done[mc] = True
        pending = np.arange(mc)
        terms = np.zeros(m)
        accepted = 0
        undo = []
        while pending.size:
            ready = done.take(prev_i.take(pending))
            ready &= done.take(prev_j.take(pending))
            ks = pending[ready]
            pending = pending[~ready]
            done[ks] = True
            i = ci.take(ks)
            j = cj.take(ks)
            vi = vel.take(i, axis=0)
            vj = vel.take(j, axis=0)
            u = vi - vj
            un = np.sqrt(_dot(u, u))
            if np.any(un > umax):
                raise MajorantViolation("pairwise speed exceeded U_max")
            # Negated skip test, so a NaN speed collides as in the scalar loop.
            hit = np.flatnonzero(~((un <= 0.0) | (ct.take(ks) >= un)))
            if not hit.size:
                continue
            ks = cand.take(ks.take(hit))
            sigma = sphere_directions(dirs.take(ks, axis=0))
            h, terms[ks] = sigma_collision(u.take(hit, axis=0), sigma, model)
            i, j = i.take(hit), j.take(hit)
            vi, vj = vi.take(hit, axis=0), vj.take(hit, axis=0)
            wi = vi - h
            wj = vj + h
            vel[i] = wi
            vel[j] = wj
            accepted += ks.size
            if bound < math.inf:
                undo.append((i, j, vi, vj))
                # Compared as a speed, so that neither NaN nor an overflowed
                # square passes.
                peak = np.sqrt(np.maximum(_dot(wi, wi).max(),
                                          _dot(wj, wj).max()))
                if not peak <= bound:
                    for i, j, vi, vj in reversed(undo):
                        vel[i] = vi
                        vel[j] = vj
                    break
        else:
            # No round broke the bound.  The loss is accumulated in
            # candidate order, as the sequential sweep adds it.
            return accepted, float(np.cumsum(terms)[-1])
