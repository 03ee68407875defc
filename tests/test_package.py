"""The package namespace: every public name of the eager package, resolved
lazily from its defining module and never cached in the package."""

from __future__ import annotations

import importlib

import pytest

import curvebound
from curvebound import knot

from test_tracer_names import tracer_namespace

# the public names of the package as it was when it imported every module: its
# __all__ plus zero_graph, which it imported from h2xr but left out of __all__
PUBLIC_NAMES = [
    "__version__", "BoundCheck", "BoundVariant", "Certificate", "CertVerdict",
    "ConeDensityReport", "ConeSurface", "ConstructionError", "Crossing", "DensityCase",
    "DensityCheck", "Diagram", "EqualityFlags", "ExtremalResult", "FrameNormal",
    "GeodesicNormalForm", "GeometryError", "GreenProfile", "H2RIsometry", "H2RPoint",
    "Isometry", "Kind", "MobiusMap", "MobiusVolumeResult", "Model", "ModelMismatchError",
    "NonUniqueGeodesicError", "NumericalError", "OnCurveError", "Point", "PolygonalCurve",
    "RadialProfile", "SampledCurve", "SimplicityReport", "SpaceForm", "SphericalPolygon",
    "analytic_bound", "as_rng", "base_point_isometry", "certify_embedded", "check_bound",
    "check_bound_batch", "christoffel", "cone_angle", "cone_angle_sampled",
    "cone_boundary_integral", "convert", "convert_coords", "curve_length_on_sphere",
    "cusp_vertices", "decay_graph", "density_bound_check", "density_report", "determinant",
    "dist", "embed", "end_curve_ratio", "example_34_curve", "extremal_search", "geodesic",
    "geodesic_ode_residual", "geodesic_point", "granny_curve", "great_circle_curve",
    "hessian_log_rho", "hexagonal_trefoil", "hull_sample", "indicatrix_length_batch",
    "jacobi", "jacobi_ode_residual", "knot_determinant", "laplacian_G", "laplacian_log_rho",
    "latitude_circle_curve", "metric_norm", "min_enclosing_ball", "mobius_translate",
    "mobius_volume", "mobius_volume_grid", "normal_form", "on_curve_bound",
    "point_curve_distance", "point_segment_distance", "polyline_length", "project",
    "radial_profile", "random_isometry", "random_projection", "reflection_swapping",
    "round_sphere_volume", "s_coth_s", "segment_pair_distance", "sharpness_family",
    "simple_mask_euclidean", "spherical_length", "tangent_indicatrix", "total_curvature",
    "total_curvature_batch", "turning_angles", "unembed", "validate", "vertex_angle",
    "zero_graph",
]
LIBRARY_NAMES = [n for n in PUBLIC_NAMES if n != "__version__"]


def test_all_lists_the_public_names_once():
    assert sorted(curvebound.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(curvebound.__all__)) == len(curvebound.__all__)
    assert sorted(dir(curvebound)) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_name_resolves_to_its_defining_module(name):
    obj = getattr(curvebound, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.startswith("curvebound.")
    assert getattr(module, name) is obj


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from curvebound import *", namespace)
    assert namespace["__version__"] == curvebound.__version__
    assert all(namespace[name] is getattr(curvebound, name) for name in LIBRARY_NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        curvebound.no_such_name  # noqa: B018


def test_package_names_follow_patches_of_the_defining_module(monkeypatch):
    real = knot.project

    def fake(curve, direction):
        return real(curve, direction)

    monkeypatch.setattr(knot, "project", fake)
    assert curvebound.project is fake
    monkeypatch.undo()
    assert curvebound.project is real
    assert "project" not in vars(curvebound)


def test_tracer_uninstall_restores_the_package_names():
    tracer = tracer_namespace()["Tracer"]()
    before = {name: getattr(curvebound, name) for name in LIBRARY_NAMES}
    tracer.install()
    try:
        assert curvebound.project is not before["project"]
        assert curvebound.project.__wrapped__ is before["project"]
    finally:
        tracer.uninstall()
    assert all(getattr(curvebound, name) is obj for name, obj in before.items())
