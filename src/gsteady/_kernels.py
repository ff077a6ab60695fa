"""The majorant collision sweep, in numpy.

The sweep runs in rounds (see `apply_collisions`); it makes the same accept
decisions as a one-candidate-at-a-time loop and differs from it only where
numpy's `pow` rounds differently from libm's.

Thinning is exact for any majorant U_max that bounds every pairwise speed
the sweep meets (Rjasanow & Wagner 2005, chs. 3-4).  The engine takes
U_max = 2.5 max|v| (`dsmc._UMAX_FACTOR` = 1.25), with max|v| read before the
sweep.  A collision dissipates energy, so it leaves each of its particles at
most sqrt(2) max|v| fast, and such a particle meets one that has not collided
at |u| <= (1 + sqrt 2) max|v| = 2.414 max|v|.  The factor must stay above
(1 + sqrt 2)/2 = 1.207 for that one-collision bound; 1.25 sits above it.
Only further collisions in the same step can beat U_max, and a pair that
does raises `MajorantViolation`.  In steady runs of all three laws
(BENCH_one_pass_sweep.json) the fastest pair met was 0.76 U_max.
"""

import math

import numpy as np

from .errors import MajorantViolation
from .kinematics import _dot, sigma_collision
from .restitution import RestitutionModel


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
                     model: RestitutionModel):
    """Thin candidate pairs and apply accepted collisions in candidate order.

    dirs holds each candidate's two direction uniforms, an (m, 2) array;
    only the accepted rows are mapped to a scattering direction
    (`sphere_directions`), so a candidate's direction does not depend on
    the round that takes it.  umax is the majorant, one value for every
    candidate or an array of one per candidate: runs that share a sweep
    (`dsmc`) each keep their own.

    Each round takes every pending candidate whose previous candidates on i
    and on j are both done.  Candidates of one round touch disjoint
    particles, and each sees the velocities the one-at-a-time loop would
    give it.  The sweep is one pass over every candidate.

    Mutates vel in place.  Returns (accepted, loss, collided, terms): the
    number of collisions and the energy they dissipated, added in candidate
    order, and per candidate whether it collided and the energy it
    dissipated (0 where it did not).  A sweep over several runs takes each
    run's counts from its slice of collided and terms.  Raises
    MajorantViolation at the first round that holds a pair whose relative
    speed exceeds its umax, with vel part-updated, so the caller must
    discard vel.
    """
    m = idx_i.shape[0]
    if m == 0:
        return 0, 0.0, np.zeros(0, dtype=bool), np.zeros(0)
    umax = np.broadcast_to(umax, (m,))
    # The accept test's threshold, computed once as the test computes it.
    thresh = accept_u * umax
    prev_i, prev_j = _predecessors(idx_i, idx_j)
    done = np.zeros(m + 1, dtype=bool)
    done[m] = True
    pending = np.arange(m)
    collided = np.zeros(m, dtype=bool)
    terms = np.zeros(m)
    while pending.size:
        ready = done.take(prev_i.take(pending))
        ready &= done.take(prev_j.take(pending))
        ks = pending[ready]
        pending = pending[~ready]
        done[ks] = True
        i = idx_i.take(ks)
        j = idx_j.take(ks)
        vi = vel.take(i, axis=0)
        vj = vel.take(j, axis=0)
        u = vi - vj
        un = np.sqrt(_dot(u, u))
        if np.any(un > umax.take(ks)):
            raise MajorantViolation("pairwise speed exceeded U_max")
        # Negated skip test, so a NaN speed collides as in the scalar loop.
        hit = np.flatnonzero(~((un <= 0.0) | (thresh.take(ks) >= un)))
        if not hit.size:
            continue
        ks = ks.take(hit)
        collided[ks] = True
        sigma = sphere_directions(dirs.take(ks, axis=0))
        h, terms[ks] = sigma_collision(u.take(hit, axis=0), sigma, model)
        vel[i.take(hit)] = vi.take(hit, axis=0) - h
        vel[j.take(hit)] = vj.take(hit, axis=0) + h
    # The loss is accumulated in candidate order, as the sequential sweep
    # adds it.
    return (int(np.count_nonzero(collided)), float(np.cumsum(terms)[-1]),
            collided, terms)
