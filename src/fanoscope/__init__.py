"""Exact-arithmetic toolkit for torus-fibration models of Fano threefolds."""

from .degeneration import (DegenerationData, DegenerationError, Slab,
                           decomposition_regimes, line_fan_data, method1_data,
                           normal_fan_data, polygon_of_sections, product_data)
from .discriminant import assemble_global, max_triangulation, render_svg
from .gamma import b2, barT_sections, build_system, gamma_dimension
from .invariants import (InvariantReport, analyze, b3_from, degree,
                         euler_number, euler_product, euler_smooth_mink,
                         fano_index, p1c1_expected)
from .minkowski import Summand, enumerate_smooth_decompositions
from .polytope import (LatticePolytope, Polygon, gorenstein_index,
                       identity24, pick_area)

__version__ = "0.1.0"

__all__ = [
    "DegenerationData", "DegenerationError", "InvariantReport",
    "LatticePolytope", "Polygon", "Slab", "Summand", "analyze",
    "assemble_global", "b2", "b3_from", "barT_sections", "build_system",
    "decomposition_regimes", "degree",
    "enumerate_smooth_decompositions", "euler_number", "euler_product",
    "euler_smooth_mink", "fano_index", "gamma_dimension", "gorenstein_index",
    "identity24", "line_fan_data", "max_triangulation", "method1_data",
    "normal_fan_data", "p1c1_expected", "pick_area", "polygon_of_sections",
    "product_data", "render_svg",
]
