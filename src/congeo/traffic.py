"""Route-based static user equilibrium as a complementarity problem.

A network carries links with BPR congestion costs t0*(1 + b*(v/cap)^p),
enumerated loop-free routes, and origin-destination pairs with fixed or
truncated-affine elastic demand.  The equilibrium conditions (used routes
attain the minimal OD time; demand is served) are assembled into an
NcpProblem over x = (route flows, OD times) and handed to the
Fischer-Burmeister solver.

Two demand-block layouts are supported, and they differ only in the time
variable each route is priced against.  ``per_od`` (default) has one time
pi_k per OD pair, paired against flow conservation sum_{r in k} h_r -
d_k(pi_k).  ``per_route`` gives every route its own time pi_r, paired
against h_r - d_od(r)(pi_r), which forces every route to carry the full
demand; the layouts coincide on single-route networks and diverge
otherwise.  ``per_route`` is kept for comparison only: the solver converges
on the two demo networks but stops at ``max_iter`` on 4 of the 8 seed-1
``small_net_*`` lattices of the cli-small benchmark workload.  ``_layout``
turns the choice into a route -> time-variable map plus the demand arrays
of d(pi) = max(0, d0 - k pi), and every function below has one body for
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .ncp import TOL, NcpProblem, SolveReport, merit, solve_ncp

__all__ = [
    "Link",
    "Route",
    "OdPair",
    "FixedDemand",
    "ElasticDemand",
    "TrafficNetwork",
    "UeSolution",
    "WardropResiduals",
    "link_time",
    "route_cost",
    "assemble_ncp",
    "solve_ue",
    "gap_value",
    "wardrop_residuals",
]

DEMAND_BLOCKS = ("per_od", "per_route")


@dataclass(frozen=True)
class Link:
    id: str
    from_node: str
    to_node: str
    t0: float
    capacity: float
    bpr_b: float = 0.15
    bpr_p: float = 4.0

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError(f"link {self.id}: free-flow time must be positive")
        if not self.capacity > 0:
            raise ValueError(f"link {self.id}: capacity must be positive")
        if self.bpr_b < 0:
            raise ValueError(f"link {self.id}: bpr_b must be nonnegative")
        if self.bpr_p < 1:
            raise ValueError(f"link {self.id}: bpr_p must be at least 1")


@dataclass(frozen=True)
class FixedDemand:
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("fixed demand must be nonnegative")

    def __call__(self, pi: float) -> float:
        return self.value


@dataclass(frozen=True)
class ElasticDemand:
    """Truncated-affine decreasing demand d(pi) = max(0, d0 - k*pi)."""

    d0: float
    k: float

    def __post_init__(self):
        if self.d0 < 0 or self.k < 0:
            raise ValueError("elastic demand needs d0 >= 0 and k >= 0")

    def __call__(self, pi: float) -> float:
        return max(0.0, self.d0 - self.k * pi)


Demand = Union[FixedDemand, ElasticDemand]


@dataclass(frozen=True)
class OdPair:
    id: str
    origin: str
    destination: str
    demand: Demand

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValueError(f"od pair {self.id}: origin equals destination")


@dataclass(frozen=True)
class Route:
    id: str
    od: str
    links: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValueError(f"route {self.id}: needs at least one link")


@dataclass(frozen=True)
class TrafficNetwork:
    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    routes: tuple[Route, ...]
    od_pairs: tuple[OdPair, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "routes", tuple(self.routes))
        object.__setattr__(self, "od_pairs", tuple(self.od_pairs))

        for label, ids in (
            ("node", self.nodes),
            ("link", [l.id for l in self.links]),
            ("route", [r.id for r in self.routes]),
            ("od pair", [od.id for od in self.od_pairs]),
        ):
            seen = set()
            for i in ids:
                if i in seen:
                    raise ValueError(f"duplicate {label} id {i!r}")
                seen.add(i)

        node_set = set(self.nodes)
        link_by_id = {l.id: l for l in self.links}
        od_by_id = {od.id: od for od in self.od_pairs}
        for l in self.links:
            if l.from_node not in node_set or l.to_node not in node_set:
                raise ValueError(f"link {l.id}: endpoint not among nodes")
        for od in self.od_pairs:
            if od.origin not in node_set or od.destination not in node_set:
                raise ValueError(f"od pair {od.id}: endpoint not among nodes")

        routed_ods = set()
        for r in self.routes:
            if r.od not in od_by_id:
                raise ValueError(f"route {r.id}: unknown od pair {r.od!r}")
            od = od_by_id[r.od]
            walk = [od.origin]
            for lid in r.links:
                link = link_by_id.get(lid)
                if link is None:
                    raise ValueError(f"route {r.id}: unknown link {lid!r}")
                if link.from_node != walk[-1]:
                    raise ValueError(f"route {r.id}: link {lid!r} does not continue the walk")
                walk.append(link.to_node)
            if walk[-1] != od.destination:
                raise ValueError(f"route {r.id}: walk ends at {walk[-1]!r}, not the destination")
            if len(set(walk)) != len(walk):
                raise ValueError(f"route {r.id}: repeated node (route must be loop-free)")
            routed_ods.add(r.od)
        for od in self.od_pairs:
            if od.id not in routed_ods:
                raise ValueError(f"od pair {od.id}: no route serves it")

        # route-link incidence (routes x links) and route -> od index
        link_index = {l.id: i for i, l in enumerate(self.links)}
        od_index = {od.id: i for i, od in enumerate(self.od_pairs)}
        inc = np.zeros((len(self.routes), len(self.links)))
        r_od = np.zeros(len(self.routes), dtype=int)
        for ri, r in enumerate(self.routes):
            r_od[ri] = od_index[r.od]
            for lid in r.links:
                inc[ri, link_index[lid]] += 1.0
        inc.setflags(write=False)
        r_od.setflags(write=False)
        object.__setattr__(self, "_incidence", inc)
        object.__setattr__(self, "_route_od", r_od)
        # per-link BPR parameters, read by every F and Jacobian evaluation
        for attr in ("t0", "capacity", "bpr_b", "bpr_p"):
            arr = np.array([getattr(l, attr) for l in self.links])
            arr.setflags(write=False)
            object.__setattr__(self, f"_{attr}", arr)

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    @property
    def n_od(self) -> int:
        return len(self.od_pairs)

    def incidence(self) -> np.ndarray:
        return self._incidence

    def route_od_index(self) -> np.ndarray:
        return self._route_od


def link_time(link: Link, v: float) -> float:
    """BPR travel time t0*(1 + b*(v/capacity)^p); flow must be nonnegative."""
    if v < 0:
        raise ValueError(f"link {link.id}: negative flow {v}")
    return link.t0 * (1.0 + link.bpr_b * (v / link.capacity) ** link.bpr_p)


def _link_times_vec(network: TrafficNetwork, v: np.ndarray) -> np.ndarray:
    """Vectorized link times; negative flows (solver iterates) clamp to free flow."""
    t0, cap, b, p = network._t0, network._capacity, network._bpr_b, network._bpr_p
    return t0 * (1.0 + b * (np.maximum(v, 0.0) / cap) ** p)


def _link_time_slopes(network: TrafficNetwork, v: np.ndarray) -> np.ndarray:
    t0, cap, b, p = network._t0, network._capacity, network._bpr_b, network._bpr_p
    vpos = np.maximum(v, 0.0)
    slopes = np.zeros_like(vpos)
    pos = v > 0.0
    slopes[pos] = (t0 * b * p)[pos] * vpos[pos] ** (p[pos] - 1.0) / cap[pos] ** p[pos]
    return slopes


def _route_costs_clamped(network: TrafficNetwork, h: np.ndarray) -> np.ndarray:
    inc = network.incidence()
    v = inc.T @ h
    return inc @ _link_times_vec(network, v)


def route_cost(network: TrafficNetwork, h) -> np.ndarray:
    """Per-route travel times at route flows h >= 0 (shared links aggregate)."""
    h = np.asarray(h, dtype=float)
    if h.shape != (network.n_routes,):
        raise ValueError(f"flow vector shape {h.shape}, expected ({network.n_routes},)")
    if np.any(h < 0):
        raise ValueError("route flows must be nonnegative")
    return _route_costs_clamped(network, h)


def _layout(network: TrafficNetwork, demand_block: str) -> tuple[np.ndarray, tuple[str, ...], np.ndarray, np.ndarray]:
    """The route -> time-variable map of a demand-block layout.

    Returns ``group`` (group[r] is the time variable route r is priced
    against), the ids of the time variables and each one's demand as the
    arrays ``d0`` and ``k`` of d(pi) = max(0, d0 - k pi) (k = 0 for fixed
    demand); ``_served`` evaluates it.
    """
    if demand_block not in DEMAND_BLOCKS:
        raise ValueError(f"demand_block must be one of {DEMAND_BLOCKS}")
    r_od = network.route_od_index()
    demands = [od.demand for od in network.od_pairs]
    d0 = np.array([d.value if isinstance(d, FixedDemand) else d.d0 for d in demands], dtype=float)
    k = np.array([0.0 if isinstance(d, FixedDemand) else d.k for d in demands], dtype=float)
    if demand_block == "per_od":
        return r_od, tuple(od.id for od in network.od_pairs), d0, k
    return np.arange(network.n_routes), tuple(r.id for r in network.routes), d0[r_od], k[r_od]


def _served(d0: np.ndarray, k: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Demand d(pi) = max(0, d0 - k pi) of each time variable."""
    return np.maximum(0.0, d0 - k * pi)


def assemble_ncp(network: TrafficNetwork, demand_block: str = "per_od") -> NcpProblem:
    """Encode the equilibrium conditions as an NcpProblem.

    Unknowns x = (h_1..h_R, pi_1..pi_K), where the K time variables are the
    OD pairs (``per_od``) or the routes (``per_route``), in network order.
    With the one-hot route -> time-variable map P (R x K),
    F = (c(h) - P pi; P^T h - d(pi)), and the Jacobian
    [[dc/dh, -P], [P^T, -diag(d'(pi))]] is filled into one (R+K)^2 array.
    """
    group, _, d0, k = _layout(network, demand_block)
    R, K = network.n_routes, len(d0)
    inc = network.incidence()
    P = np.zeros((R, K))
    P[np.arange(R), group] = 1.0

    def f(x: np.ndarray) -> np.ndarray:
        h, pi = x[:R], x[R:]
        costs = _route_costs_clamped(network, h)
        return np.concatenate([costs - P @ pi, P.T @ h - _served(d0, k, pi)])

    def jacobian(x: np.ndarray) -> np.ndarray:
        h, pi = x[:R], x[R:]
        jac = np.empty((R + K, R + K))
        np.matmul(inc * _link_time_slopes(network, inc.T @ h), inc.T, out=jac[:R, :R])
        np.negative(P, out=jac[:R, R:])
        jac[R:, :R] = P.T
        jac[R:, R:] = 0.0
        np.fill_diagonal(jac[R:, R:], k * (_served(d0, k, pi) > 0.0))  # -d'(pi)
        return jac

    return NcpProblem(n=R + K, f=f, jacobian=jacobian)


@dataclass(frozen=True)
class WardropResiduals:
    """Violation measures of the equilibrium conditions at a candidate point."""

    max_complementarity: float  # max_r |h_r (c_r - pi)|
    max_time_violation: float  # max_r max(0, pi - c_r)
    max_negative_flow: float  # max_r max(0, -h_r)
    demand_gaps: dict[str, float]  # per OD (per route in per_route layout)

    @property
    def max_demand_gap(self) -> float:
        return max(self.demand_gaps.values()) if self.demand_gaps else 0.0

    def within(self, tol: float) -> bool:
        return (
            self.max_complementarity <= tol
            and self.max_time_violation <= tol
            and self.max_negative_flow <= tol
            and self.max_demand_gap <= tol
        )


@dataclass(frozen=True)
class UeSolution:
    h: np.ndarray
    pi: np.ndarray
    residuals: WardropResiduals
    report: SolveReport
    demand_block: str
    route_ids: tuple[str, ...]
    pi_ids: tuple[str, ...]  # od ids (per_od) or route ids (per_route)

    @property
    def converged(self) -> bool:
        return self.report.converged

    def flows_by_route(self) -> dict[str, float]:
        return {rid: float(v) for rid, v in zip(self.route_ids, self.h)}

    def times_by_key(self) -> dict[str, float]:
        return {pid: float(v) for pid, v in zip(self.pi_ids, self.pi)}

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.h, self.pi])


def _default_start(network: TrafficNetwork, demand_block: str) -> np.ndarray:
    """Times at the cheapest free-flow route of each time variable; its
    demand at that time split evenly over the routes priced against it."""
    group, _, d0, k = _layout(network, demand_block)
    K = len(d0)
    c0 = _route_costs_clamped(network, np.zeros(network.n_routes))
    pi0 = np.full(K, np.inf)
    np.minimum.at(pi0, group, c0)
    h0 = _served(d0, k, pi0)[group] / np.bincount(group, minlength=K)[group]
    return np.concatenate([h0, pi0])


def wardrop_residuals(network: TrafficNetwork, solution, demand_block: str = "per_od") -> WardropResiduals:
    """Evaluate the equilibrium violation measures at a candidate solution.

    ``solution`` is an (h, pi) pair; costs are evaluated with flows clamped
    at zero so infeasible candidates still report finite numbers.
    Demand gaps are keyed by the layout's time variables: OD ids for
    ``per_od``, route ids for ``per_route``.
    """
    h, pi = solution
    h = np.asarray(h, dtype=float)
    pi = np.asarray(pi, dtype=float)
    group, ids, d0, k = _layout(network, demand_block)
    R = network.n_routes
    costs = _route_costs_clamped(network, h)
    pi_per_route = pi[group]
    comp = float(np.max(np.abs(h * (costs - pi_per_route)))) if R else 0.0
    time_violation = float(np.max(np.maximum(pi_per_route - costs, 0.0))) if R else 0.0
    neg_flow = float(np.max(np.maximum(-h, 0.0))) if R else 0.0
    gaps = np.abs(np.bincount(group, weights=h, minlength=len(ids)) - _served(d0, k, pi))
    return WardropResiduals(
        max_complementarity=comp,
        max_time_violation=time_violation,
        max_negative_flow=neg_flow,
        demand_gaps=dict(zip(ids, gaps.tolist())),
    )


def solve_ue(network: TrafficNetwork, demand_block: str = "per_od", x0=None, *, tol: float = TOL) -> UeSolution:
    """Solve for user equilibrium; solver statuses propagate in the report."""
    problem = assemble_ncp(network, demand_block)
    start = np.asarray(x0, dtype=float) if x0 is not None else _default_start(network, demand_block)
    report = solve_ncp(problem, start, tol=tol)
    R = network.n_routes
    h, pi = report.x_star[:R], report.x_star[R:]
    residuals = wardrop_residuals(network, (h, pi), demand_block)
    return UeSolution(
        h=h,
        pi=pi,
        residuals=residuals,
        report=report,
        demand_block=demand_block,
        route_ids=tuple(r.id for r in network.routes),
        pi_ids=_layout(network, demand_block)[1],
    )


def gap_value(network: TrafficNetwork, x, demand_block: str = "per_od") -> float:
    """Sum of (1/2) phi(x_i, F_i)^2 over the assembled system; zero exactly
    at equilibria."""
    problem = assemble_ncp(network, demand_block)
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"candidate shape {x.shape}, expected ({problem.n},)")
    return merit(x, problem)
