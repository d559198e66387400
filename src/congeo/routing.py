"""End-to-end congestion routing: field -> Randers structure ->
origin-destination geodesic -> route polyline with travel-time length.

The congestion field is exogenous: routed traffic does not feed back into
the field.  Validity (saturation below 1 - eps_cong) is certified on a
sample grid over the OD bounding box expanded by a configurable margin
before any integration starts; geodesics may bow outside the raw OD box,
hence the margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .finsler import (
    EPS_CONG,
    CongestionField,
    RiemannianField,
    congestion_none,
    euclidean_metric,
    build_randers,
    _pt,
)
from .geodesic import BvpConfig, Curve, StartOutcome, curve_length, geodesic_bvp

__all__ = [
    "RoutingScenario",
    "RouteResult",
    "RoutingDiagnostics",
    "route",
    "chord_curve",
    "validity_box",
]


@dataclass(frozen=True)
class RoutingScenario:
    origin: tuple[float, ...]
    destination: tuple[float, ...]
    metric: RiemannianField = field(default_factory=euclidean_metric)
    congestion: CongestionField = field(default_factory=congestion_none)
    eps_cong: float = EPS_CONG
    bvp: BvpConfig = field(default_factory=lambda: BvpConfig(explore=True))
    box_margin: float = 0.5
    box_samples: int = 21

    def __post_init__(self):
        p = _pt(self.origin)
        q = _pt(self.destination, len(p))
        if np.array_equal(p, q):
            raise ValueError("origin and destination must differ")
        if self.box_margin < 0:
            raise ValueError("box_margin must be nonnegative")
        if self.box_samples < 2:
            raise ValueError("box_samples must be at least 2")
        object.__setattr__(self, "origin", tuple(p))
        object.__setattr__(self, "destination", tuple(q))


@dataclass(frozen=True)
class RoutingDiagnostics:
    endpoint_error: float
    restarts: int
    multiplicity: int
    iterations: int
    chord_time: float
    starts: tuple[StartOutcome, ...]


@dataclass(frozen=True)
class RouteResult:
    curve: Curve
    travel_time: float
    converged: bool
    diagnostics: RoutingDiagnostics


def validity_box(p, q, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """OD bounding box with each side padded by margin * max(extent, chord)/2."""
    p = _pt(p)
    q = _pt(q, len(p))
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    chord = float(np.linalg.norm(q - p))
    pad = 0.5 * margin * np.maximum(hi - lo, chord)
    return lo - pad, hi + pad


def chord_curve(p, q, nodes: int = 200) -> Curve:
    p = _pt(p)
    q = _pt(q, len(p))
    t = np.linspace(0.0, 1.0, nodes)
    pts = p[None, :] + t[:, None] * (q - p)[None, :]
    return Curve(params=t, points=pts)


def route(scenario: RoutingScenario) -> RouteResult:
    """Build the congestion-induced structure and solve the OD geodesic.

    Saturated congestion raises DomainError (detected on the expanded-box
    sample grid or lazily during integration); BVP non-convergence is
    reported through the result, never raised.
    """
    p = np.array(scenario.origin)
    q = np.array(scenario.destination)
    lo, hi = validity_box(p, q, scenario.box_margin)
    axes = [np.linspace(lo[i], hi[i], scenario.box_samples) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    check_points = np.stack([m.ravel() for m in mesh], axis=1)

    structure = build_randers(
        scenario.metric,
        scenario.congestion,
        eps_cong=scenario.eps_cong,
        check_points=check_points,
    )
    result = geodesic_bvp(structure, p, q, scenario.bvp)
    chord_time = curve_length(structure, chord_curve(p, q, scenario.bvp.nodes))
    return RouteResult(
        curve=result.curve,
        travel_time=result.length,
        converged=result.converged,
        diagnostics=RoutingDiagnostics(
            endpoint_error=result.endpoint_error,
            restarts=result.restarts_used,
            multiplicity=result.multiplicity,
            iterations=result.iterations,
            chord_time=chord_time,
            starts=result.starts,
        ),
    )
