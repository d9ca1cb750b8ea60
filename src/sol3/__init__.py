"""Numerical geometry of vertically invariant surfaces in the Sol3 space.

Surfaces invariant under all vertical left translations are swept from a
generating curve in the plane z = 0.  This package integrates the generating
curve equations for prescribed mean curvature (zero or constant), provides
the closed-form flat (zero Gauss curvature) circle, evaluates the surface's
differential invariants two independent ways, classifies the curve shapes,
and hunts closed constant-mean-curvature generating curves by shooting.
"""

from .analysis import (
    Axis,
    BracketError,
    Classification,
    ClosureError,
    CurveClass,
    Line,
    NotSettledError,
    ShootingResult,
    TheoremReport,
    asymptote_estimate,
    classify_minimal,
    closed_curve_search,
    first_return,
    inflection_points,
    origin_symmetry_deviation,
    scan_bracket,
    slab_width,
    theorem_checks,
)
from .core import (
    AXIS_SWAP_FLIP,
    BasePointMismatch,
    FrameVector,
    IsometryDescriptor,
    IsometryFamily,
    SolPoint,
    TangentVector,
    connection_coeff,
    frame_at,
    group_mul,
    inverse,
    isometry_apply,
    isometry_compose,
    isometry_differential,
    isometry_push,
    left_translate,
    metric_eval,
    ricci_frame_origin,
    vertical_translation,
)
from .ode import (
    InitialCondition,
    IntegrationError,
    InvalidInitialCondition,
    OdeSettings,
    Trajectory,
    circle_flat,
    explicit_solution,
    find_event,
    graph_residual,
    integrate,
    integrate_forward,
    rhs_cmc,
    rhs_minimal,
)
from .surface import (
    CurvatureReport,
    CurveState,
    FundamentalForms,
    covariant_derivatives,
    curvature_report,
    extrinsic_curvature,
    first_form,
    flat_residual,
    fundamental_forms,
    gauss_curvature,
    immersion,
    mean_curvature,
    second_form,
    sectional_curvature,
    surface_tangents,
    unit_normal,
)
from .verify import run_verification

__version__ = "0.1.0"
