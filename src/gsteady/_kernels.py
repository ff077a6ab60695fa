"""The majorant collision sweep, in numpy.

The sweep is executed level by level (see `collision_levels`); it makes the
same accept decisions as a one-candidate-at-a-time loop and differs from it
only where numpy's `pow` rounds differently from libm's.
"""

import numpy as np

from .kinematics import _dot, sigma_collision
from .restitution import RestitutionModel

def collision_levels(idx_i, idx_j):
    """Dependency level of each candidate pair of a sequential sweep.

    A candidate waits for every earlier candidate that shares a particle
    with it: its level is 1 + the larger level of the previous candidates
    touching i and j (0 when there are none).  Candidates on one level touch
    disjoint particles, and every later candidate touching the same particle
    sits on a higher level, so sweeping the levels in order gives each
    candidate the velocities the sequential sweep would.
    """
    m = idx_i.shape[0]
    # Endpoint 2k is i_k and 2k+1 is j_k.  Sorting the unique keys
    # particle * 2m + position lists each particle's endpoints in candidate
    # order, and the keys decode back to (particle, position).
    parts = np.empty(2 * m, dtype=np.int64)
    parts[0::2] = idx_i
    parts[1::2] = idx_j
    key = np.sort(parts * (2 * m) + np.arange(2 * m))
    part, pos = np.divmod(key, 2 * m)
    # prev[endpoint] = candidate holding the particle's previous endpoint,
    # or m (whose level is pinned at -1) when there is none.
    prev = np.empty(2 * m, dtype=np.int64)
    prev[pos[0]] = m
    prev[pos[1:]] = np.where(part[1:] == part[:-1], pos[:-1] // 2, m)
    prev_i = prev[0::2]
    prev_j = prev[1::2]
    # A pair with i == j would find itself as j's predecessor.
    self_dep = prev_j == np.arange(m)
    prev_j[self_dep] = prev_i[self_dep]
    level = np.zeros(m + 1, dtype=np.int64)
    level[m] = -1
    while True:
        new = 1 + np.maximum(level.take(prev_i), level.take(prev_j))
        if np.array_equal(new, level[:m]):
            return new
        level[:m] = new


def apply_collisions(vel, idx_i, idx_j, accept_u, sigma, umax,
                     model: RestitutionModel):
    """Thin candidate pairs and apply accepted collisions in candidate order.

    Mutates vel in place.  Returns (accepted, energy_loss, violated) where
    violated = 1 flags a pair whose relative speed exceeded umax; the counts
    then cover the candidates before the first such pair, as a sequential
    sweep stopping there would report, but vel holds a partial update that
    is not the sequential one, so the caller must discard it.
    """
    m = idx_i.shape[0]
    if m == 0:
        return 0, 0.0, 0
    level = collision_levels(idx_i, idx_j)
    accepted = np.zeros(m, dtype=bool)
    terms = np.zeros(m)
    stop = m  # index of the first violating candidate, if any
    for lv in range(int(level.max()) + 1):
        ks = np.flatnonzero(level == lv)
        i = idx_i.take(ks)
        j = idx_j.take(ks)
        vi = vel.take(i, axis=0)
        vj = vel.take(j, axis=0)
        u = vi - vj
        un = np.sqrt(_dot(u, u))
        over = un > umax
        if over.any():
            stop = min(stop, int(ks[over][0]))
        # Negated skip test, so a NaN speed collides as in the scalar loop.
        hit = ~(over | (un <= 0.0) | (accept_u.take(ks) * umax >= un))
        if not hit.any():
            continue
        ks = ks[hit]
        h, terms[ks] = sigma_collision(u[hit], sigma.take(ks, axis=0), model)
        vel[i[hit]] = vi[hit] - h
        vel[j[hit]] = vj[hit] + h
        accepted[ks] = True
    # Accumulated in candidate order, as the sequential sweep adds them.
    loss = float(np.cumsum(terms[:stop])[-1]) if stop else 0.0
    return int(np.count_nonzero(accepted[:stop])), loss, int(stop < m)
