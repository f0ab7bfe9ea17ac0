"""Plucker-type invariants of generic plane curves from their Newton
polygons: combinatorial formulas, dual curves, genericity checks, and an
independent analytic oracle."""

from .assumptions import (
    AssumptionReport,
    ThinTriangleWitness,
    Verdict,
    assumption2_holds,
    check_assumption1,
    check_assumption3,
    full_assumption_report,
    is_class_Qd,
    is_thin,
)
from .formulas import (
    PluckerReport,
    bitangent_count,
    dual_area_closed,
    dual_fan,
    dual_polygon,
    inflection_count,
    plucker_report,
    vertical_tangent_count,
)
from .lattice import (
    DegeneratePolygonError,
    LatticePolygon,
    Point,
    contains_translate,
    dilate,
    doubled_area,
    edge_fan,
    interior_lattice_points,
    lattice_points,
    rectangle,
    rotate_r,
    standard_triangle,
    volume,
)
from .oracle import (
    DegenerateSampleError,
    OracleConfig,
    OracleError,
    RetriesExhaustedError,
    count_torus_solutions,
    hessian_curve,
    implicitize_dual,
    inflection_oracle,
    sample_poly,
    vertical_tangent_oracle,
)

__version__ = "0.1.0"
