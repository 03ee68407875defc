"""Curvature bounds, density certificates, and knot checks for polygonal
curves in constant-curvature spaces.

The package namespace is lazy: ``import curvebound`` loads no submodule, and
a public name imports its defining module on first access.  The value is
looked up there on every access and never cached here, so a patch of the
defining module (``curvebound.knot.project``) shows as ``curvebound.project``.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "cone": (
        "Certificate",
        "CertVerdict",
        "ConeDensityReport",
        "DensityCase",
        "cone_angle",
        "cone_angle_sampled",
        "certify_embedded",
        "density_report",
        "hull_sample",
        "min_enclosing_ball",
        "on_curve_bound",
    ),
    "errors": (
        "ConstructionError",
        "GeometryError",
        "ModelMismatchError",
        "NonUniqueGeodesicError",
        "NumericalError",
        "OnCurveError",
    ),
    "h2xr": (
        "FrameNormal",
        "GeodesicNormalForm",
        "H2RIsometry",
        "H2RPoint",
        "christoffel",
        "decay_graph",
        "end_curve_ratio",
        "geodesic",
        "geodesic_ode_residual",
        "hessian_log_rho",
        "jacobi",
        "jacobi_ode_residual",
        "laplacian_log_rho",
        "metric_norm",
        "normal_form",
        "s_coth_s",
        "zero_graph",
    ),
    "hyp_density": (
        "ConeSurface",
        "DensityCheck",
        "GreenProfile",
        "cone_boundary_integral",
        "density_bound_check",
        "laplacian_G",
    ),
    "knot": (
        "Crossing",
        "Diagram",
        "determinant",
        "granny_curve",
        "hexagonal_trefoil",
        "knot_determinant",
        "project",
        "random_projection",
    ),
    "mobius": (
        "MobiusMap",
        "MobiusVolumeResult",
        "SampledCurve",
        "curve_length_on_sphere",
        "example_34_curve",
        "great_circle_curve",
        "latitude_circle_curve",
        "mobius_translate",
        "mobius_volume",
        "mobius_volume_grid",
        "polyline_length",
        "round_sphere_volume",
    ),
    "polycurve": (
        "PolygonalCurve",
        "SimplicityReport",
        "SphericalPolygon",
        "cusp_vertices",
        "indicatrix_length_batch",
        "point_curve_distance",
        "point_segment_distance",
        "segment_pair_distance",
        "simple_mask_euclidean",
        "spherical_length",
        "tangent_indicatrix",
        "total_curvature",
        "total_curvature_batch",
        "turning_angles",
        "validate",
    ),
    "spaceform": (
        "Isometry",
        "Kind",
        "Model",
        "Point",
        "RadialProfile",
        "SpaceForm",
        "as_rng",
        "base_point_isometry",
        "convert",
        "convert_coords",
        "dist",
        "embed",
        "geodesic_point",
        "radial_profile",
        "random_isometry",
        "reflection_swapping",
        "unembed",
        "vertex_angle",
    ),
    "spherical_bounds": (
        "BoundCheck",
        "BoundVariant",
        "EqualityFlags",
        "ExtremalResult",
        "analytic_bound",
        "check_bound",
        "check_bound_batch",
        "extremal_search",
        "sharpness_family",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(__all__)
