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
    # particle * 2m + position lists each particle's endpoints in candidate
    # order, and the keys decode back to (particle, position).
    parts = np.empty(2 * m, dtype=np.int64)
    parts[0::2] = idx_i
    parts[1::2] = idx_j
    key = np.sort(parts * (2 * m) + np.arange(2 * m))
    part, pos = np.divmod(key, 2 * m)
    prev = np.empty(2 * m, dtype=np.int64)
    prev[pos[:1]] = m
    prev[pos[1:]] = np.where(part[1:] == part[:-1], pos[:-1] // 2, m)
    prev_i = prev[0::2]
    prev_j = prev[1::2]
    # A pair with i == j would find itself as j's predecessor.
    self_dep = prev_j == np.arange(m)
    prev_j[self_dep] = prev_i[self_dep]
    return prev_i, prev_j


def apply_collisions(vel, idx_i, idx_j, accept_u, normals, umax,
                     model: RestitutionModel, vmax):
    """Thin candidate pairs and apply accepted collisions in candidate order.

    normals holds each candidate's raw scattering normal; only the accepted
    rows are normalised.  It is an (m, 3) array, or a zero-argument callable
    that returns one, called once before the first accepted collision (so
    the draw can still run while the sweep filters candidates and finds its
    rounds).  vmax must be max|v| over vel.

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
        mc = cand.size
        prev_i, prev_j = _predecessors(ci, cj)
        done = np.zeros(mc + 1, dtype=bool)
        done[mc] = True
        pending = np.arange(mc)
        terms = np.zeros(m)
        accepted = 0
        undo = []
        while pending.size:
            ready = done[prev_i[pending]] & done[prev_j[pending]]
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
            ks = cand.take(ks)
            # Negated skip test, so a NaN speed collides as in the scalar loop.
            hit = ~((un <= 0.0) | (thresh.take(ks) >= un))
            if not hit.any():
                continue
            ks = ks[hit]
            if callable(normals):
                normals = normals()
            raw = normals.take(ks, axis=0)
            sigma = raw / np.maximum(
                np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
            h, terms[ks] = sigma_collision(u[hit], sigma, model)
            i, j, vi, vj = i[hit], j[hit], vi[hit], vj[hit]
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
