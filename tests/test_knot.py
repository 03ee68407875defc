from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvebound import (
    ConstructionError,
    Crossing,
    Diagram,
    GeometryError,
    PolygonalCurve,
    SpaceForm,
    determinant,
    granny_curve,
    hexagonal_trefoil,
    knot,
    knot_determinant,
    polycurve,
    project,
    random_isometry,
    random_projection,
    validate,
)

from conftest import euclidean_curve, random_simple_polygons, random_unit
from goeritz_oracle import checkerboard_determinant
from project_loop import loop_project

Z_AXIS = np.array([0.0, 0.0, 1.0])


def kink_quadrilateral():
    # projects along z to a one-crossing bowtie; a 4-gon is always unknotted
    return euclidean_curve([[0, 0, 0], [2, 2, 0.5], [2, 0, 1], [0, 2, 1.5]])


def generic_direction(curve, rng):
    for _ in range(60):
        d = rng.standard_normal(3)
        try:
            project(curve, d)
            return d
        except ConstructionError:
            continue
    raise AssertionError("no generic direction found")


# ---------------------------------------------------------------------------
# reference curves
# ---------------------------------------------------------------------------


def test_trefoil_is_simple_and_alternates():
    curve = hexagonal_trefoil()
    assert curve.k == 6
    assert validate(curve).simple
    assert curve.vertices[:, 2] == pytest.approx(
        np.array([-1, 1, -1, 1, -1, 1]), abs=1e-12
    )


def test_granny_is_simple():
    curve = granny_curve()
    assert curve.k == 12
    assert validate(curve).simple


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_trefoil_axis_projection():
    dia = project(hexagonal_trefoil(), Z_AXIS)
    assert len(dia.crossings) == 3
    assert dia.n_arcs == 3
    assert len(dia.gauss_code) == 6
    # alternating: over and under passages strictly alternate along the curve
    signs = [1 if g > 0 else -1 for g in dia.gauss_code]
    assert all(a != b for a, b in zip(signs, signs[1:]))
    assert sorted(abs(g) for g in dia.gauss_code) == [1, 1, 2, 2, 3, 3]


def test_projection_rejects_parallel_direction():
    curve = hexagonal_trefoil()
    d = curve.vertices[1] - curve.vertices[0]
    with pytest.raises(ConstructionError):
        project(curve, d)


def test_projection_rejects_unseparated_depths():
    flat = euclidean_curve([[0, 0, 0], [2, 2, 0], [2, 0, 0], [0, 2, 0]])
    with pytest.raises(ConstructionError):
        project(flat, Z_AXIS)


def test_projection_input_validation():
    curve = hexagonal_trefoil()
    with pytest.raises(GeometryError):
        project(curve, np.zeros(3))
    chain = euclidean_curve([[0, 0, 0], [1, 0, 0], [1, 1, 0]], closed=False)
    with pytest.raises(GeometryError):
        project(chain, Z_AXIS)
    sphere_curve = PolygonalCurve(SpaceForm.sphere(2), np.eye(3))
    with pytest.raises(GeometryError):
        project(sphere_curve, Z_AXIS)


def test_simple_convex_polygon_has_no_crossings(rng):
    t = 2.0 * np.pi * np.arange(5) / 5.0
    flatish = np.stack([np.cos(t), np.sin(t), 0.01 * rng.normal(size=5)], axis=1)
    dia = project(euclidean_curve(flatish), Z_AXIS)
    assert dia.crossings == []
    assert determinant(dia) == 1


def test_diagram_validates_arc_indices():
    with pytest.raises(GeometryError):
        Diagram([Crossing(5, 0, 0, 1)], n_arcs=2)


# ---------------------------------------------------------------------------
# determinant against the checkerboard oracle
# ---------------------------------------------------------------------------


def test_trefoil_determinant_many_directions(rng):
    curve = hexagonal_trefoil()
    assert knot_determinant(curve, direction=Z_AXIS) == 3
    for _ in range(8):
        d = generic_direction(curve, rng)
        assert knot_determinant(curve, direction=d) == 3
        oracle = checkerboard_determinant(curve.vertices, d)
        assert oracle.determinant == 3
        assert oracle.n_crossings == len(project(curve, d).crossings)


def test_granny_determinant_many_directions(rng):
    curve = granny_curve()
    for _ in range(5):
        d = generic_direction(curve, rng)
        assert knot_determinant(curve, direction=d) == 9
        assert checkerboard_determinant(curve.vertices, d).determinant == 9


def test_kink_determinant():
    curve = kink_quadrilateral()
    dia = project(curve, Z_AXIS)
    assert len(dia.crossings) == 1
    assert determinant(dia) == 1
    oracle = checkerboard_determinant(curve.vertices, Z_AXIS)
    assert oracle.determinant == 1
    assert oracle.n_faces == 3


def test_random_pentagons_match_oracle(rng):
    polys = random_simple_polygons(rng, 20)
    for verts in polys:
        curve = euclidean_curve(verts)
        d = generic_direction(curve, rng)
        mod = knot_determinant(curve, direction=d)
        oracle = checkerboard_determinant(verts, d)
        assert mod == oracle.determinant == 1
        assert oracle.n_crossings == len(project(curve, d).crossings)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_determinant_invariant_under_isometries_and_projection_seed(seed):
    # closed 60-step random walks of unit steps, about one in ten of them
    # knotted; a mirror image has the same determinant
    rng = np.random.default_rng(seed)
    curve = euclidean_curve(np.cumsum(random_unit(rng, 60, 3), axis=0))
    assume(validate(curve).simple)
    det = knot_determinant(curve, rng=seed)
    rot = random_isometry(SpaceForm.euclidean(3), rng).matrix
    for m in (rot, rot @ np.diag([1.0, 1.0, -1.0])):
        moved = euclidean_curve(curve.vertices @ m.T + 10.0 * rng.standard_normal(3))
        assert knot_determinant(moved, rng=seed) == det
    assert knot_determinant(curve, rng=seed + 1) == det


def test_determinant_is_odd(rng):
    # knot determinants are always odd
    for curve in (hexagonal_trefoil(), granny_curve(), kink_quadrilateral()):
        d = generic_direction(curve, rng)
        assert knot_determinant(curve, direction=d) % 2 == 1


def test_random_projection_driver(rng):
    assert knot_determinant(hexagonal_trefoil(), rng=4) == 3
    dia = random_projection(granny_curve(), rng=4)
    assert determinant(dia) == 9
    assert len(dia.crossings) >= 6


def test_random_projection_rejects_zero_retries():
    with pytest.raises(GeometryError, match="retries must be >= 1"):
        random_projection(hexagonal_trefoil(), retries=0)
    with pytest.raises(GeometryError, match="retries must be >= 1"):
        knot_determinant(hexagonal_trefoil(), retries=-1)


# ---------------------------------------------------------------------------
# the vectorized projection against the per-pair loops it replaced
# ---------------------------------------------------------------------------


def _outcome(fn, curve, direction):
    try:
        return fn(curve, direction)
    except ConstructionError as exc:
        return str(exc)


def _degenerate_projections():
    """(curve, direction, message) reaching each of project's six failures."""
    trefoil = hexagonal_trefoil()
    # a crossing 0.85e-9 along the diagonal segment 0 -> 1 of the unit square:
    # the parameter is below PARAM_TOL while vertex 0 stays 1.2e-9 off the
    # crossing segment 3 -> 4, above COINCIDENCE_TOL * scale
    c = 0.85e-9
    near = np.array([[0, 0, 0], [1, 1, 0], [1, 0.5, 0.3], [c - 0.01, c + 0.01, 0.6],
                     [c + 0.01, c - 0.01, 0.9], [0.6, 0.1, 0.4]])
    # segments 0 and 2 now cross at equal depth as well: pair (0, 2) comes
    # before pair (0, 3); after a cyclic shift by 3 the near-vertex pair is first
    flat = near.copy()
    flat[2:4, 2] = 0.0
    # three segment images through the origin
    angles = (0.0, np.pi / 3, 2 * np.pi / 3)
    star = [[sign * np.cos(a), sign * np.sin(a), n]
            for n, a in enumerate(angles) for sign in (1.0, -1.0)]
    # segment images 0 and 3 are parallel, with vertex 4 at 3.4e-17 beyond
    # COINCIDENCE_TOL * scale = 1.95e-8 from segment 0: the vertex check
    # measures vertex 4 itself, the pair check its rounded copy 3 + (4 - 3),
    # which lands 1.5e-17 inside
    overlap = [[0.0, 0.0, 0.0], [1.0, 0.5171212264929015, 0.1],
               [1.5, -9.224318160260648, 0.2], [2.698512391584905, 1.3954580596049204, 0.3],
               [0.548978859331253, 0.28388864301829314, 0.4],
               [0.548978859331253, 10.283888621056052, 0.5]]
    return [
        (trefoil, trefoil.vertices[1] - trefoil.vertices[0],
         "a segment is nearly parallel to the direction"),
        (euclidean_curve([[0, 0, 0], [2, 0, 1], [2, 2, 0], [1, 0, -1]]), Z_AXIS,
         "a vertex image lies on a segment image"),
        (euclidean_curve(overlap), Z_AXIS, "near-parallel overlapping segment images"),
        (euclidean_curve(near), Z_AXIS, "crossing too close to a vertex image"),
        (euclidean_curve(flat), Z_AXIS, "crossing depths not separated"),
        (euclidean_curve(np.roll(flat, 3, axis=0)), Z_AXIS,
         "crossing too close to a vertex image"),
        (euclidean_curve([[0, 0, 0], [2, 2, 0], [2, 0, 0], [0, 2, 0]]), Z_AXIS,
         "crossing depths not separated"),
        (euclidean_curve(star), Z_AXIS, "triple point in projection"),
    ]


def test_project_reaches_each_failure_in_loop_order():
    for curve, direction, message in _degenerate_projections():
        assert _outcome(loop_project, curve, direction) == message
        assert _outcome(project, curve, direction) == message


def _aimed_direction(rng, verts):
    """A direction nearly through a vertex and a point of another segment."""
    k = len(verts)
    a, b = rng.choice(k, 2, replace=False)
    d = verts[a] - verts[b] - rng.uniform() * (verts[(b + 1) % k] - verts[b])
    return d / np.linalg.norm(d) + 10.0 ** rng.uniform(-13, -6) * rng.standard_normal(3)


def test_project_matches_pairwise_loops(rng):
    """3000 random and aimed (curve, direction) pairs: equal diagrams or messages."""
    cases = []
    for k in range(4, 10):
        polys = random_simple_polygons(rng, 400, k)
        cases += [(euclidean_curve(v), rng.standard_normal(3)) for v in polys[:250]]
        cases += [(euclidean_curve(v), _aimed_direction(rng, v)) for v in polys[250:]]
    for curve in (hexagonal_trefoil(), granny_curve()):
        cases += [(curve, rng.standard_normal(3)) for _ in range(200)]
        cases += [(curve, _aimed_direction(rng, curve.vertices)) for _ in range(100)]
    outcomes = []
    for curve, d in cases:
        expected = _outcome(loop_project, curve, d)
        assert _outcome(project, curve, d) == expected
        outcomes.append(expected if isinstance(expected, str) else len(expected.crossings))
    assert len(cases) == 3000
    assert sum(isinstance(o, int) and o > 0 for o in outcomes) > 1000
    assert {o for o in outcomes if isinstance(o, str)} >= {
        "a segment is nearly parallel to the direction",
        "a vertex image lies on a segment image",
    }


def test_project_matches_pairwise_loops_on_long_gaussian_polygons():
    """Thousands of crossings: the arc ranks agree with the loops' list lookups."""
    rng = np.random.default_rng(0)
    crossings = []
    for k in (100, 150, 200):
        curve = euclidean_curve(rng.standard_normal((k, 3)))
        d = rng.standard_normal(3)
        diagram = project(curve, d)
        assert diagram == loop_project(curve, d)
        crossings.append(len(diagram.crossings))
    assert min(crossings) > 1000


def test_project_does_not_depend_on_the_pair_blocks(rng, monkeypatch):
    """Blocks of one pair row and one vertex row keep the diagrams and the
    first failure of the loops, also on curves that span many blocks."""
    cases = [(curve, d) for curve, d, _ in _degenerate_projections()]
    for k in (5, 9, 40):
        for v in random_simple_polygons(rng, 20, k):
            cases += [(euclidean_curve(v), rng.standard_normal(3)),
                      (euclidean_curve(v), _aimed_direction(rng, v))]
    expected = [_outcome(loop_project, curve, d) for curve, d in cases]
    assert sum(isinstance(e, str) for e in expected) > 10
    monkeypatch.setattr(polycurve, "PAIR_BLOCK", 1)
    monkeypatch.setattr(knot, "PAIR_BLOCK", 1)
    assert [_outcome(project, curve, d) for curve, d in cases] == expected


def test_criterion_12_retries_unchanged(monkeypatch):
    """The criterion-12 pentagons draw as many directions as under the loop."""
    verts = random_simple_polygons(np.random.default_rng(112), 2000)
    counts = {}
    for name, fn in (("loop", loop_project), ("vectorized", project)):
        calls = []
        monkeypatch.setattr(knot, "project", lambda c, d, fn=fn: calls.append(1) or fn(c, d))
        dets = []
        for i, v in enumerate(verts):
            before = len(calls)
            dets.append((knot_determinant(euclidean_curve(v), rng=i), len(calls) - before))
        counts[name] = dets
    assert counts["vectorized"] == counts["loop"]
    assert {det for det, _ in counts["loop"]} == {1}
