"""Complementarity solvers, Wardrop traffic equilibria, and congestion-aware
geodesic routing on planar domains.

The pieces fit together like this: a congestion vector field induces a
direction-dependent travel-cost structure (``finsler``); shortest routes
through it solve a geodesic boundary-value problem (``geodesic``,
``routing``); route-based equilibria are complementarity problems solved by
Fischer-Burmeister merit minimization (``ncp``, ``traffic``); and the
time-dependent functional over flow trajectories lives in ``dynamic``.
"""

from .finsler import (
    CongestionField,
    DomainError,
    RandersStructure,
    RiemannianField,
    build_randers,
    congestion_none,
    congestion_uniform,
    congestion_vortex,
    constant_randers,
    euclidean_metric,
    euclidean_randers,
    fundamental_tensor,
    grid_congestion,
    parse_congestion_spec,
    randers_eval,
)
from .geodesic import (
    BvpConfig,
    BvpResult,
    Curve,
    GeodesicIvp,
    Lagrangian,
    StartOutcome,
    curve_length,
    el_residual,
    geodesic_bvp,
    geodesic_ivp,
)
from .ncp import (
    NcpProblem,
    SolveReport,
    fb_phi,
    fb_subgradient,
    fb_system,
    merit,
    merit_gradient,
    solve_ncp,
)
from .traffic import (
    ElasticDemand,
    FixedDemand,
    Link,
    OdPair,
    Route,
    TrafficNetwork,
    UeSolution,
    WardropResiduals,
    assemble_ncp,
    gap_value,
    link_time,
    route_cost,
    solve_ue,
    wardrop_residuals,
)
from .dynamic import (
    AffineCost,
    MinimizeResult,
    Trajectory,
    complementarity_merit,
    dynamic_gap,
    minimize_dynamic,
    parse_cost_model,
)
from .routing import RouteResult, RoutingScenario, certified_structure, chord_curve, route, validity_box

__version__ = "0.1.0"
