"""End-to-end congestion routing: field -> Randers structure ->
origin-destination geodesic -> route polyline with travel-time length.

The congestion field is exogenous: routed traffic does not feed back into
the field.  ``certified_structure`` is the one place a scenario's structure
is built, over the Euclidean metric: saturation below 1 - eps_cong is
certified at the field's probes and on a sample grid over the OD bounding
box padded by ``BOX_MARGIN`` before any integration starts; geodesics may
bow outside the raw OD box, hence the margin.  ``route`` and the CLI's
``validate`` both call it, so ``validate`` rejects every scenario that
``route`` rejects before integrating.

``route`` returns the solver's ``BvpResult`` as it is, beside the chord's
travel time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .finsler import (
    EPS_CONG,
    CongestionField,
    RandersStructure,
    congestion_none,
    euclidean_metric,
    build_randers,
    _pt,
)
from .geodesic import BvpConfig, BvpResult, Curve, curve_length, geodesic_bvp

__all__ = [
    "RoutingScenario",
    "RouteResult",
    "certified_structure",
    "route",
    "chord_curve",
    "validity_box",
]

# Sample points per axis of the grid on which the validity box is certified.
BOX_SAMPLES = 21
# Padding of the validity box, as a fraction of the OD extent (see ``validity_box``).
BOX_MARGIN = 0.5


@dataclass(frozen=True)
class RoutingScenario:
    origin: tuple[float, ...]
    destination: tuple[float, ...]
    congestion: CongestionField = field(default_factory=congestion_none)
    eps_cong: float = EPS_CONG
    bvp: BvpConfig = field(default_factory=lambda: BvpConfig(explore=True))

    def __post_init__(self):
        p = _pt(self.origin)
        q = _pt(self.destination, len(p))
        if np.array_equal(p, q):
            raise ValueError("origin and destination must differ")
        if not 0 < self.eps_cong < 1:
            raise ValueError("eps_cong must lie in (0, 1)")
        object.__setattr__(self, "origin", tuple(p))
        object.__setattr__(self, "destination", tuple(q))


@dataclass(frozen=True)
class RouteResult:
    """The OD geodesic's ``BvpResult`` (its ``length`` is the travel time) and
    the travel time along the straight chord, which an admissible route does
    not exceed."""

    bvp: BvpResult
    chord_time: float


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


def certified_structure(scenario: RoutingScenario) -> RandersStructure:
    """The scenario's Randers structure, certified before any integration.

    ``build_randers`` builds it over the field's ``euclidean_metric`` and
    checks the saturation bound under the scenario's ``eps_cong`` at the
    field's probes plus a BOX_SAMPLES x BOX_SAMPLES grid over the validity
    box (padded by ``BOX_MARGIN``); a violation raises DomainError naming
    the first offending point.
    """
    lo, hi = validity_box(scenario.origin, scenario.destination, BOX_MARGIN)
    axes = [np.linspace(lo[i], hi[i], BOX_SAMPLES) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    check_points = np.stack([m.ravel() for m in mesh], axis=1)
    return build_randers(
        euclidean_metric(scenario.congestion.dim),
        scenario.congestion,
        eps_cong=scenario.eps_cong,
        check_points=check_points,
    )


def route(scenario: RoutingScenario) -> RouteResult:
    """Build the certified structure and solve the OD geodesic.

    Saturated congestion raises DomainError (detected by
    ``certified_structure`` or lazily during integration); BVP
    non-convergence is reported through the result, never raised.
    """
    structure = certified_structure(scenario)
    p = np.array(scenario.origin)
    q = np.array(scenario.destination)
    bvp = geodesic_bvp(structure, p, q, scenario.bvp)
    return RouteResult(bvp, curve_length(structure, chord_curve(p, q, scenario.bvp.nodes)))
