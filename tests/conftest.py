"""Shared generators for randomized geometry tests."""

from __future__ import annotations

import numpy as np
import pytest

from curvebound import Kind, PolygonalCurve, SpaceForm, simple_mask_euclidean


def random_unit(rng, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_simple_polygons(rng, count: int, k: int = 5, dim: int = 3,
                           scale: float = 1.0) -> np.ndarray:
    """Batch of (count, k, dim) vertex arrays that pass the chord simplicity test."""
    out = []
    need = count
    while need > 0:
        batch = rng.standard_normal((max(2 * need, 64), k, dim)) * scale
        mask = simple_mask_euclidean(batch, closed=True)
        good = batch[mask]
        out.append(good[:need])
        need -= len(good[:need])
    return np.concatenate(out, axis=0)


def euclidean_curve(vertices, closed=True) -> PolygonalCurve:
    vertices = np.asarray(vertices, dtype=float)
    space = SpaceForm.euclidean(vertices.shape[-1])
    return PolygonalCurve(space, vertices, closed=closed)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def _ambient_inner(kind, a, b):
    # <a, a> = +1 on the unit sphere and -1 on the hyperboloid
    prod = a * b
    if kind is Kind.HYPERBOLIC:
        prod[..., 0] *= -1.0
    return np.sum(prod, axis=-1)


def curved_frame(kind, rng, scale: float, count: int = 2, dim: int = 3):
    """A random point x of S^dim or H^dim in canonical coords and ``count``
    orthonormal tangent vectors at x."""
    y = rng.standard_normal(dim) * scale
    if kind is Kind.SPHERE:
        x = np.concatenate([[1.0], y])
        x /= np.linalg.norm(x)
    else:
        x = np.concatenate([[np.sqrt(1.0 + y @ y)], y])
    curv = _ambient_inner(kind, x, x)
    frame = []
    for _ in range(count):
        w = rng.standard_normal(dim + 1)
        w = w - _ambient_inner(kind, w, x) / curv * x
        for e in frame:
            w = w - _ambient_inner(kind, w, e) * e
        frame.append(w / np.sqrt(_ambient_inner(kind, w, w)))
    return x, frame


def small_plane_pentagon(kind, r):
    """A regular pentagon of circumradius r in the totally geodesic S^2 of S^3
    or H^2 of H^3 (last coordinate 0), canonical coords, with its area to O(r^4)."""
    t = 2.0 * np.pi * np.arange(5) / 5.0
    c, s = (np.cos(r), np.sin(r)) if kind is Kind.SPHERE else (np.cosh(r), np.sinh(r))
    verts = np.stack([np.full(5, c), s * np.cos(t), s * np.sin(t), np.zeros(5)], axis=1)
    return verts, 2.5 * r * r * np.sin(2.0 * np.pi / 5.0)


def exp_can(kind, x, v, s):
    """The point at distance s from x along the unit tangent v, canonical coords."""
    if kind is Kind.SPHERE:
        return np.cos(s) * x + np.sin(s) * v
    return np.cosh(s) * x + np.sinh(s) * v
