"""The majorant collision sweep, in numpy.

The sweep runs in rounds (see `apply_collisions`); it makes the same accept
decisions as a one-candidate-at-a-time loop and differs from it only where
numpy's `pow` rounds differently from libm's.
"""

import numpy as np

from .errors import MajorantViolation
from .kinematics import _dot, sigma_collision
from .restitution import RestitutionModel


def apply_collisions(vel, idx_i, idx_j, accept_u, sigma, umax,
                     model: RestitutionModel):
    """Thin candidate pairs and apply accepted collisions in candidate order.

    Each round takes every pending candidate whose previous candidates on i
    and on j are both done.  Candidates of one round touch disjoint
    particles, and each sees the velocities the one-at-a-time loop would
    give it.

    Mutates vel in place.  Returns (accepted, energy_loss).  Raises
    MajorantViolation at the first round that holds a pair whose relative
    speed exceeds umax, with vel part-updated, so the caller must discard
    vel.
    """
    m = idx_i.shape[0]
    if m == 0:
        return 0, 0.0
    # Endpoint 2k is i_k and 2k+1 is j_k.  Sorting the unique keys
    # particle * 2m + position lists each particle's endpoints in candidate
    # order, and the keys decode back to (particle, position).
    parts = np.empty(2 * m, dtype=np.int64)
    parts[0::2] = idx_i
    parts[1::2] = idx_j
    key = np.sort(parts * (2 * m) + np.arange(2 * m))
    part, pos = np.divmod(key, 2 * m)
    # prev[endpoint] = candidate holding the particle's previous endpoint,
    # or m (always done) when there is none.
    prev = np.empty(2 * m, dtype=np.int64)
    prev[pos[0]] = m
    prev[pos[1:]] = np.where(part[1:] == part[:-1], pos[:-1] // 2, m)
    prev_i = prev[0::2]
    prev_j = prev[1::2]
    # A pair with i == j would find itself as j's predecessor.
    self_dep = prev_j == np.arange(m)
    prev_j[self_dep] = prev_i[self_dep]
    done = np.zeros(m + 1, dtype=bool)
    done[m] = True
    pending = np.arange(m)
    terms = np.zeros(m)
    accepted = 0
    while pending.size:
        ready = done[prev_i[pending]] & done[prev_j[pending]]
        ks = pending[ready]
        pending = pending[~ready]
        done[ks] = True
        i = idx_i.take(ks)
        j = idx_j.take(ks)
        vi = vel.take(i, axis=0)
        vj = vel.take(j, axis=0)
        u = vi - vj
        un = np.sqrt(_dot(u, u))
        if np.any(un > umax):
            raise MajorantViolation("pairwise speed exceeded U_max")
        # Negated skip test, so a NaN speed collides as in the scalar loop.
        hit = ~((un <= 0.0) | (accept_u.take(ks) * umax >= un))
        if not hit.any():
            continue
        ks = ks[hit]
        h, terms[ks] = sigma_collision(u[hit], sigma.take(ks, axis=0), model)
        vel[i[hit]] = vi[hit] - h
        vel[j[hit]] = vj[hit] + h
        accepted += ks.size
    # Accumulated in candidate order, as the sequential sweep adds them.
    return accepted, float(np.cumsum(terms)[-1])
