"""Reference for cone.min_enclosing_ball: the support-subset enumeration it replaced.

x* is the min-norm point of the affine hull of some subset of at most n + 1
of the embedded points with nonnegative weights, and every subset with
nonnegative weights gives a point of conv(P), so x* is the least of them.
Each subset is solved relative to its first point, x = p0 + y with
y = D^T mu and D y = |D|^2 / 2 row by row, D = P_S[1:] - p0, the same
difference-form solve the active set makes.  The cost grows like
C(k, n + 1), so this is for small k only.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from curvebound import GeometryError, Kind
from curvebound.spaceform import _dist_can, embed, unembed


def subset_min_enclosing_ball(space, points) -> tuple[np.ndarray, float]:
    """min_enclosing_ball by enumerating every support subset of <= n + 1 points."""
    if space.kind is not Kind.SPHERE:
        raise GeometryError("min_enclosing_ball is implemented for the sphere")
    pc = embed(space, np.atleast_2d(np.asarray(points, dtype=float)))
    k, n = pc.shape
    best = pc[0]
    for size in range(2, min(k, n + 1) + 1):
        sub = pc[list(combinations(range(k), size))]
        d = sub[:, 1:] - sub[:, :1]
        b = 0.5 * np.einsum("sji,sji->sj", d, d)
        pinv = np.linalg.pinv(d)
        y = np.einsum("sij,sj->si", pinv, b)
        mu = np.einsum("sij,si->sj", pinv, y)
        x = sub[:, 0] + y
        resid = np.linalg.norm(np.einsum("sji,si->sj", d, y) - b, axis=-1)
        ok = (np.all(mu >= 0.0, axis=-1) & (np.sum(mu, axis=-1) <= 1.0)
              & (resid <= 1e-9 * np.linalg.norm(b, axis=-1)))
        norms = np.where(ok, np.linalg.norm(x, axis=-1), np.inf)
        i = int(np.argmin(norms))
        if norms[i] < np.linalg.norm(best):
            best = x[i]
    nb = np.linalg.norm(best)
    if nb < 1e-12:
        raise GeometryError("points lie in no open hemisphere")
    c = best / nb
    radius = float(np.max(_dist_can(Kind.SPHERE, c[None, :], pc)))
    return unembed(space, c), radius
