"""Route-based static user equilibrium as a complementarity problem.

A network carries links with BPR congestion costs t0*(1 + b*(v/cap)^p),
enumerated loop-free routes, and origin-destination pairs with fixed or
truncated-affine elastic demand.  The equilibrium conditions (used routes
attain the minimal OD time; demand is served) are assembled into an
NcpProblem over x = (route flows, OD times) and handed to the
Fischer-Burmeister solver.  Each route is priced against the time pi_k of
its OD pair k, paired against flow conservation sum_{r in k} h_r - d_k(pi_k).
An elastic OD pair that the equilibrium prices out (served demand 0, so no
flow on its routes) has no unique time: every pi_k in [d0/k, cheapest route
cost] meets the conditions, and the solver reports whichever one it reaches.

A ``TrafficNetwork`` stores the route-link incidence A in CSR form, as
flat read-only index arrays built in one pass over the routes: each
route's link indices in order (routes concatenated in network order), the
route of each entry, and each route's OD index.  No dense route x link or
route x OD matrix is formed: link flows A^T h and route costs A t(v) are
``np.bincount`` sums over the entries, P pi is pi[route_od] and P^T h a
bincount, and the route block of the Jacobian is S S^T with
S = A_f diag(sqrt(t'(v))), one (free routes x links) array filled from the
free routes' entries (Jayakrishnan et al. 1994 on path-based UE at scale).

The solve starts from all-or-nothing loading (Sheffi 1985, ch. 5): each OD
pair's demand at its free-flow time goes on its cheapest free-flow route
(the first in network order among ties) and nothing on the others.  An
unloaded route costlier than its OD time is held at zero by the solver's
free-set step and leaves the dense solve; the Jacobian is only formed over
the free routes and OD pairs.

``per_route_network`` splits a network into one OD pair per route, which
forces every route to carry its OD pair's full demand.  It is kept for
comparison only: the solver converges on the two demo networks and on the 8
seed-1 ``small_net_*`` lattices of the cli-small benchmark workload, but in
15-189 iterations where the OD layout takes 11-18.
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
    "per_route_network",
    "solve_ue",
    "gap_value",
    "wardrop_residuals",
]

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
        for l in self.links:
            if l.from_node not in node_set or l.to_node not in node_set:
                raise ValueError(f"link {l.id}: endpoint not among nodes")
        for od in self.od_pairs:
            if od.origin not in node_set or od.destination not in node_set:
                raise ValueError(f"od pair {od.id}: endpoint not among nodes")

        # one pass over the routes: each one's od index and link indices (-1
        # where unknown), the route-link incidence in CSR form with its
        # entries in route order; the walks are checked on these arrays
        link_index = {l.id: i for i, l in enumerate(self.links)}
        od_index = {od.id: i for i, od in enumerate(self.od_pairs)}
        r_od, lengths, e_link = [], [], []
        for r in self.routes:
            r_od.append(od_index.get(r.od, -1))
            lengths.append(len(r.links))
            e_link += [link_index.get(lid, -1) for lid in r.links]
        r_od, e_link, lengths = (np.array(a, dtype=np.intp) for a in (r_od, e_link, lengths))
        e_route = np.repeat(np.arange(len(self.routes)), lengths)
        self._check_walks(r_od, e_link, e_route, lengths)
        for od, served in zip(self.od_pairs, np.bincount(r_od, minlength=len(self.od_pairs))):
            if not served:
                raise ValueError(f"od pair {od.id}: no route serves it")
        demands = [od.demand for od in self.od_pairs]
        arrays = {
            "entry_link": e_link,
            "entry_route": e_route,
            "route_od": r_od,
            # per-link BPR parameters, read by every F and Jacobian evaluation
            **{a: np.array([getattr(l, a) for l in self.links]) for a in ("t0", "capacity", "bpr_b", "bpr_p")},
            # each OD pair's demand d(pi) = max(0, d0 - k pi), k = 0 for fixed demand
            "d0": np.array([d.value if isinstance(d, FixedDemand) else d.d0 for d in demands], dtype=float),
            "k": np.array([0.0 if isinstance(d, FixedDemand) else d.k for d in demands], dtype=float),
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, f"_{name}", arr)

    def _check_walks(self, r_od, e_link, e_route, lengths) -> None:
        """Raise for the first failing route in network order the error of
        the first check it fails: its od pair, then link by link whether the
        link is known and continues the walk, then the walk's end, then
        whether a node repeats."""
        node = {n: i for i, n in enumerate(self.nodes)}
        # node indices, each array with a trailing -1 that an unknown index (-1) reads
        tail = np.array([node[l.from_node] for l in self.links] + [-1])
        head = np.array([node[l.to_node] for l in self.links] + [-1])
        origin = np.array([node[od.origin] for od in self.od_pairs] + [-1])[r_od]
        dest = np.array([node[od.destination] for od in self.od_pairs] + [-1])[r_od]
        ends = np.cumsum(lengths)
        starts = ends - lengths
        # the node each link must leave: the previous link's head, or the
        # origin for a route's first link
        at = np.empty_like(e_link)
        at[1:] = head[e_link[:-1]]
        at[starts] = origin
        broken = (e_link < 0) | (tail[e_link] != at)
        end = head[e_link[ends - 1]]
        # each walk's nodes (its origin, then its links' heads), keyed by route
        n = len(self.nodes) + 1
        key = np.sort(np.concatenate([np.arange(len(r_od)) * n + origin, e_route * n + head[e_link]]) + 1)
        fails = (r_od < 0) | (end != dest)
        fails[e_route[broken]] = True
        fails[key[1:][key[1:] == key[:-1]] // n] = True
        if not fails.any():
            return
        ri = int(np.argmax(fails))
        r, first = self.routes[ri], starts[ri]
        if r_od[ri] < 0:
            raise ValueError(f"route {r.id}: unknown od pair {r.od!r}")
        broken_at = np.flatnonzero(broken[first:ends[ri]])
        if broken_at.size:
            j = broken_at[0]
            if e_link[first + j] < 0:
                raise ValueError(f"route {r.id}: unknown link {r.links[j]!r}")
            raise ValueError(f"route {r.id}: link {r.links[j]!r} does not continue the walk")
        if end[ri] != dest[ri]:
            raise ValueError(f"route {r.id}: walk ends at {self.nodes[end[ri]]!r}, not the destination")
        raise ValueError(f"route {r.id}: repeated node (route must be loop-free)")

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    @property
    def n_od(self) -> int:
        return len(self.od_pairs)

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


def _link_flows(network: TrafficNetwork, h: np.ndarray) -> np.ndarray:
    """Link flows v = A^T h: each link's sum of its routes' flows."""
    return np.bincount(network._entry_link, weights=h[network._entry_route], minlength=len(network.links))


def _route_costs_clamped(network: TrafficNetwork, h: np.ndarray) -> np.ndarray:
    times = _link_times_vec(network, _link_flows(network, h))
    return np.bincount(network._entry_route, weights=times[network._entry_link], minlength=network.n_routes)


def route_cost(network: TrafficNetwork, h) -> np.ndarray:
    """Per-route travel times at route flows h >= 0 (shared links aggregate)."""
    h = np.asarray(h, dtype=float)
    if h.shape != (network.n_routes,):
        raise ValueError(f"flow vector shape {h.shape}, expected ({network.n_routes},)")
    if np.any(h < 0):
        raise ValueError("route flows must be nonnegative")
    return _route_costs_clamped(network, h)


def per_route_network(network: TrafficNetwork) -> TrafficNetwork:
    """The network with one OD pair per route: the route's id, its OD pair's
    endpoints and demand (the ``per_route`` layout of ``solve-ue``)."""
    ods = [network.od_pairs[i] for i in network.route_od_index()]
    return TrafficNetwork(
        nodes=network.nodes,
        links=network.links,
        routes=tuple(Route(r.id, r.id, r.links) for r in network.routes),
        od_pairs=tuple(OdPair(r.id, od.origin, od.destination, od.demand) for r, od in zip(network.routes, ods)),
    )


def _served(network: TrafficNetwork, pi: np.ndarray) -> np.ndarray:
    """Demand d(pi) = max(0, d0 - k pi) of each OD pair."""
    return np.maximum(0.0, network._d0 - network._k * pi)


def assemble_ncp(network: TrafficNetwork) -> NcpProblem:
    """Encode the equilibrium conditions as an NcpProblem.

    Unknowns x = (h_1..h_R, pi_1..pi_K), routes and OD pairs in network
    order.  With the route-link incidence A and the one-hot route -> OD map
    P, F = (A t(A^T h) - P pi; P^T h - d(pi)), evaluated from the CSR
    entries and the routes' OD indices.  The Jacobian
    [[A diag(t'(v)) A^T, -P], [P^T, -diag(d'(pi))]] is filled into one new
    array over the free routes and OD pairs; its route block is S S^T with
    S = A_f diag(sqrt(t'(v))), one row per free route, filled from that
    route's CSR entries.
    """
    R, K, L = network.n_routes, network.n_od, len(network.links)
    e_link, e_route, r_od, k = network._entry_link, network._entry_route, network._route_od, network._k

    def f(x: np.ndarray) -> np.ndarray:
        h, pi = x[:R], x[R:]
        costs = _route_costs_clamped(network, h)
        return np.concatenate([costs - pi[r_od], np.bincount(r_od, weights=h, minlength=K) - _served(network, pi)])

    def jacobian(x: np.ndarray, free: np.ndarray | slice) -> np.ndarray:
        h, pi = x[:R], x[R:]
        routes, ods = (np.arange(R), np.arange(K)) if isinstance(free, slice) else (free[free < R], free[free >= R] - R)
        r, m = len(routes), len(routes) + len(ods)
        # S = A_f diag(sqrt(t'(v))): each free route's CSR entries in its row
        row_of = np.full(R, -1)
        row_of[routes] = np.arange(r)
        rows = row_of[e_route]
        on = rows >= 0
        root = np.sqrt(_link_time_slopes(network, _link_flows(network, h)))
        s = np.zeros((r, L))
        s[rows[on], e_link[on]] = root[e_link[on]]
        jac = np.zeros((m, m))
        np.matmul(s, s.T, out=jac[:r, :r])
        # -P and P^T where a free route's OD pair is free
        col_of = np.full(K, -1)
        col_of[ods] = np.arange(r, m)
        cols = col_of[r_od[routes]]
        i = np.flatnonzero(cols >= 0)
        jac[i, cols[i]] = -1.0
        jac[cols[i], i] = 1.0
        np.fill_diagonal(jac[r:, r:], (k * (_served(network, pi) > 0.0))[ods])  # -d'(pi)
        return jac

    return NcpProblem(n=R + K, f=f, jacobian=jacobian)


@dataclass(frozen=True)
class WardropResiduals:
    """Violation measures of the equilibrium conditions at a candidate point."""

    max_complementarity: float  # max_r |h_r (c_r - pi)|
    max_time_violation: float  # max_r max(0, pi - c_r)
    max_negative_flow: float  # max_r max(0, -h_r)
    demand_gaps: dict[str, float]  # per OD pair

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
    route_ids: tuple[str, ...]
    od_ids: tuple[str, ...]

    @property
    def converged(self) -> bool:
        return self.report.converged

    def flows_by_route(self) -> dict[str, float]:
        return {rid: float(v) for rid, v in zip(self.route_ids, self.h)}

    def times_by_od(self) -> dict[str, float]:
        return {oid: float(v) for oid, v in zip(self.od_ids, self.pi)}

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.h, self.pi])


def _default_start(network: TrafficNetwork) -> np.ndarray:
    """All-or-nothing loading: times at the cheapest free-flow route of each
    OD pair, and its demand at that time on that route (the first in network
    order among ties), 0 on the others."""
    group, R = network.route_od_index(), network.n_routes
    c0 = _route_costs_clamped(network, np.zeros(R))
    pi0 = np.full(network.n_od, np.inf)
    np.minimum.at(pi0, group, c0)
    cheapest = np.flatnonzero(c0 == pi0[group])
    _, first = np.unique(group[cheapest], return_index=True)  # every OD pair, in order
    h0 = np.zeros(R)
    h0[cheapest[first]] = _served(network, pi0)
    return np.concatenate([h0, pi0])


def wardrop_residuals(network: TrafficNetwork, solution) -> WardropResiduals:
    """Evaluate the equilibrium violation measures at a candidate solution.

    ``solution`` is an (h, pi) pair; costs are evaluated with flows clamped
    at zero so infeasible candidates still report finite numbers.
    Demand gaps are keyed by OD id.
    """
    h, pi = solution
    h = np.asarray(h, dtype=float)
    pi = np.asarray(pi, dtype=float)
    group = network.route_od_index()
    R = network.n_routes
    costs = _route_costs_clamped(network, h)
    pi_per_route = pi[group]
    comp = float(np.max(np.abs(h * (costs - pi_per_route)))) if R else 0.0
    time_violation = float(np.max(np.maximum(pi_per_route - costs, 0.0))) if R else 0.0
    neg_flow = float(np.max(np.maximum(-h, 0.0))) if R else 0.0
    gaps = np.abs(np.bincount(group, weights=h, minlength=network.n_od) - _served(network, pi))
    return WardropResiduals(
        max_complementarity=comp,
        max_time_violation=time_violation,
        max_negative_flow=neg_flow,
        demand_gaps=dict(zip((od.id for od in network.od_pairs), gaps.tolist())),
    )


def solve_ue(network: TrafficNetwork, x0=None, *, tol: float = TOL) -> UeSolution:
    """Solve for user equilibrium; solver statuses propagate in the report."""
    problem = assemble_ncp(network)
    start = np.asarray(x0, dtype=float) if x0 is not None else _default_start(network)
    report = solve_ncp(problem, start, tol=tol)
    R = network.n_routes
    h, pi = report.x_star[:R], report.x_star[R:]
    residuals = wardrop_residuals(network, (h, pi))
    return UeSolution(
        h=h,
        pi=pi,
        residuals=residuals,
        report=report,
        route_ids=tuple(r.id for r in network.routes),
        od_ids=tuple(od.id for od in network.od_pairs),
    )


def gap_value(network: TrafficNetwork, x) -> float:
    """Sum of (1/2) phi(x_i, F_i)^2 over the assembled system; zero exactly
    at equilibria."""
    problem = assemble_ncp(network)
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"candidate shape {x.shape}, expected ({problem.n},)")
    return merit(x, problem)
