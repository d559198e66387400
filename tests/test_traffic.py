import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congeo.ncp import _system_jacobian, fb_subgradient, fb_system
from congeo.traffic import (
    ElasticDemand,
    FixedDemand,
    Link,
    OdPair,
    Route,
    TrafficNetwork,
    assemble_ncp,
    gap_value,
    link_time,
    per_route_network,
    _default_start,
    _link_flows,
    _link_time_slopes,
    _link_times_vec,
    route_cost,
    solve_ue,
    wardrop_residuals,
)
from oracles import (
    central_jacobian,
    dense_incidence,
    dense_ue_problem,
    random_lattice,
    system_jacobian_reference,
)


def affine_link(lid, frm, to, t0, slope):
    """BPR with p=1 tuned so travel time is t0 + slope * v."""
    return Link(lid, frm, to, t0=t0, capacity=1.0, bpr_b=slope / t0, bpr_p=1.0)


def two_route_network(t01=1.0, m1=1.0, t02=2.0, m2=1.0, demand=None):
    demand = demand if demand is not None else FixedDemand(3.0)
    return TrafficNetwork(
        nodes=("o", "d"),
        links=(affine_link("A", "o", "d", t01, m1), affine_link("B", "o", "d", t02, m2)),
        routes=(Route("r1", "od1", ("A",)), Route("r2", "od1", ("B",))),
        od_pairs=(OdPair("od1", "o", "d", demand),),
    )


def single_route_network(demand):
    return TrafficNetwork(
        nodes=("o", "d"),
        links=(affine_link("A", "o", "d", 1.0, 1.0),),
        routes=(Route("r1", "od1", ("A",)),),
        od_pairs=(OdPair("od1", "o", "d", demand),),
    )


def mixed_demand_network():
    """Two OD pairs, elastic and fixed demand, whose routes share links."""
    return TrafficNetwork(
        nodes=("o", "m", "d1", "d2"),
        links=(
            Link("s1", "o", "m", 1.0, 2.0),
            Link("s2", "o", "m", 1.5, 3.0, bpr_b=0.3, bpr_p=2.0),
            Link("a", "m", "d1", 0.5, 1.0),
            Link("b", "m", "d2", 0.7, 1.5, bpr_p=3.0),
            Link("c", "o", "d1", 2.5, 4.0),
        ),
        routes=(
            Route("r1", "od1", ("s1", "a")),
            Route("r2", "od2", ("s1", "b")),
            Route("r3", "od1", ("s2", "a")),
            Route("r4", "od1", ("c",)),
            Route("r5", "od2", ("s2", "b")),
        ),
        od_pairs=(
            OdPair("od1", "o", "d1", ElasticDemand(4.0, 0.5)),
            OdPair("od2", "o", "d2", FixedDemand(1.0)),
        ),
    )


def lattice_network():
    """4 x 4 lattice (links east and south) with every monotone route of
    three OD pairs, 32 routes in all; fixed and elastic demand alternate.
    Route flows are not unique, so the Newton matrix is nearly singular."""
    side = 4

    def node(i, j):
        return f"n{i}{j}"

    links = []
    for i, j in itertools.product(range(side), repeat=2):
        for di, dj in ((0, 1), (1, 0)):
            if i + di < side and j + dj < side:
                k = len(links)
                links.append(Link(f"{node(i, j)}-{node(i + di, j + dj)}", node(i, j), node(i + di, j + dj),
                                  t0=1.0 + 0.1 * (k % 3), capacity=1.0))
    ods = (((0, 0), (3, 3)), ((1, 0), (3, 2)), ((0, 1), (2, 3)))
    od_pairs, routes = [], []
    for k, (o, d) in enumerate(ods):
        demand = FixedDemand(3.0) if k % 2 == 0 else ElasticDemand(5.0, 0.2)
        od_pairs.append(OdPair(f"od{k}", node(*o), node(*d), demand))
        down, right = d[0] - o[0], d[1] - o[1]
        for downs in itertools.combinations(range(down + right), down):
            (i, j), path = o, []
            for step in range(down + right):
                ni, nj = (i + 1, j) if step in downs else (i, j + 1)
                path.append(f"{node(i, j)}-{node(ni, nj)}")
                i, j = ni, nj
            routes.append(Route(f"r{len(routes)}", f"od{k}", tuple(path)))
    nodes = tuple(node(i, j) for i, j in itertools.product(range(side), repeat=2))
    return TrafficNetwork(nodes, tuple(links), tuple(routes), tuple(od_pairs))


# The two demand-block layouts of solve-ue: per_route solves the route-split network.
LAYOUTS = {"per_od": lambda net: net, "per_route": per_route_network}


def two_route_closed_form(t01, m1, t02, m2, d):
    """Equal-times algebra for affine costs c_i = t0_i + m_i h_i, fixed demand."""
    h1 = (t02 - t01 + m2 * d) / (m1 + m2)
    if h1 < 0.0:
        return np.array([0.0, d]), t02 + m2 * d
    if h1 > d:
        return np.array([d, 0.0]), t01 + m1 * d
    return np.array([h1, d - h1]), t01 + m1 * h1


class TestLinkTime:
    def test_free_flow(self):
        assert link_time(Link("l", "a", "b", 1.0, 1.0), 0.0) == 1.0

    def test_at_capacity(self):
        assert link_time(Link("l", "a", "b", 1.0, 1.0), 1.0) == pytest.approx(1.15)

    def test_twice_capacity(self):
        assert link_time(Link("l", "a", "b", 1.0, 1.0), 2.0) == pytest.approx(3.4)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            link_time(Link("l", "a", "b", 1.0, 1.0), -0.1)

    @given(st.floats(0, 100), st.floats(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_positive_and_nondecreasing(self, v1, v2):
        link = Link("l", "a", "b", 2.0, 3.0, bpr_b=0.3, bpr_p=2.0)
        lo, hi = sorted((v1, v2))
        assert link_time(link, lo) > 0
        assert link_time(link, hi) >= link_time(link, lo)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Link("l", "a", "b", t0=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            Link("l", "a", "b", t0=1.0, capacity=0.0)
        with pytest.raises(ValueError):
            Link("l", "a", "b", t0=1.0, capacity=1.0, bpr_p=0.5)
        # NaN fails every comparison, so each bound is checked as "not x >= bound"
        for name in ("t0", "capacity", "bpr_b", "bpr_p"):
            with pytest.raises(ValueError, match=name if name.startswith("bpr") else "link l"):
                Link("l", "a", "b", **{"t0": 1.0, "capacity": 1.0, name: float("nan")})
            # infinite values meet every lower bound, so finiteness is its own check
            with pytest.raises(ValueError, match=f"link l: {name} must be finite"):
                Link("l", "a", "b", **{"t0": 1.0, "capacity": 1.0, name: float("inf")})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FixedDemand(-1.0),
            lambda: FixedDemand(float("nan")),
            lambda: ElasticDemand(-1.0, 1.0),
            lambda: ElasticDemand(4.0, -1.0),
            lambda: ElasticDemand(float("nan"), 1.0),
            lambda: ElasticDemand(4.0, float("nan")),
            lambda: FixedDemand(float("inf")),
            lambda: ElasticDemand(float("inf"), 1.0),
            lambda: ElasticDemand(4.0, float("inf")),
        ],
    )
    def test_demand_validation(self, make):
        with pytest.raises(ValueError, match="demand"):
            make()


class TestRouteCost:
    def test_disjoint_routes_see_own_link(self):
        net = two_route_network()
        c = route_cost(net, [1.0, 2.0])
        assert c[0] == pytest.approx(1.0 + 1.0)
        assert c[1] == pytest.approx(2.0 + 2.0)

    def test_zero_flow_gives_free_flow_sums(self):
        net = two_route_network()
        assert np.allclose(route_cost(net, [0.0, 0.0]), [1.0, 2.0])

    def test_shared_link_aggregates_flow(self):
        # Y network: shared stem o->m, branches m->d1 and m->d2
        net = TrafficNetwork(
            nodes=("o", "m", "d1", "d2"),
            links=(
                affine_link("s", "o", "m", 1.0, 0.5),
                affine_link("a", "m", "d1", 0.5, 1.0),
                affine_link("b", "m", "d2", 0.5, 2.0),
            ),
            routes=(Route("r1", "od1", ("s", "a")), Route("r2", "od2", ("s", "b"))),
            od_pairs=(
                OdPair("od1", "o", "d1", FixedDemand(1.0)),
                OdPair("od2", "o", "d2", FixedDemand(1.0)),
            ),
        )
        h = np.array([2.0, 3.0])
        c = route_cost(net, h)
        stem = 1.0 + 0.5 * (2.0 + 3.0)
        assert c[0] == pytest.approx(stem + 0.5 + 1.0 * 2.0)
        assert c[1] == pytest.approx(stem + 0.5 + 2.0 * 3.0)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            route_cost(two_route_network(), [-1.0, 0.0])


class TestNetworkValidation:
    def test_duplicate_link_id(self):
        with pytest.raises(ValueError, match="duplicate link"):
            TrafficNetwork(
                nodes=("o", "d"),
                links=(affine_link("A", "o", "d", 1, 1), affine_link("A", "o", "d", 2, 1)),
                routes=(Route("r1", "od1", ("A",)),),
                od_pairs=(OdPair("od1", "o", "d", FixedDemand(1.0)),),
            )

    def test_route_with_loop_rejected(self):
        with pytest.raises(ValueError, match="loop-free"):
            TrafficNetwork(
                nodes=("o", "m", "d"),
                links=(
                    affine_link("A", "o", "m", 1, 1),
                    affine_link("B", "m", "o", 1, 1),
                    affine_link("C", "o", "d", 1, 1),
                ),
                routes=(Route("r1", "od1", ("A", "B", "C")),),
                od_pairs=(OdPair("od1", "o", "d", FixedDemand(1.0)),),
            )

    def test_disconnected_route_rejected(self):
        with pytest.raises(ValueError, match="does not continue"):
            TrafficNetwork(
                nodes=("o", "m", "d"),
                links=(affine_link("A", "o", "m", 1, 1), affine_link("B", "o", "d", 1, 1)),
                routes=(Route("r1", "od1", ("A", "B")),),
                od_pairs=(OdPair("od1", "o", "d", FixedDemand(1.0)),),
            )

    @pytest.mark.parametrize("route, message", [
        (Route("r1", "od9", ("A",)), "route r1: unknown od pair 'od9'"),
        (Route("r1", "od1", ("Z",)), "route r1: unknown link 'Z'"),
    ], ids=["od", "link"])
    def test_route_naming_an_unknown_id_rejected(self, route, message):
        with pytest.raises(ValueError) as exc:
            TrafficNetwork(
                nodes=("o", "d"),
                links=(affine_link("A", "o", "d", 1, 1),),
                routes=(route,),
                od_pairs=(OdPair("od1", "o", "d", FixedDemand(1.0)),),
            )
        assert str(exc.value) == message

    def test_route_must_end_at_destination(self):
        with pytest.raises(ValueError, match="destination"):
            TrafficNetwork(
                nodes=("o", "m", "d"),
                links=(affine_link("A", "o", "m", 1, 1),),
                routes=(Route("r1", "od1", ("A",)),),
                od_pairs=(OdPair("od1", "o", "d", FixedDemand(1.0)),),
            )

    def test_od_without_route_rejected(self):
        with pytest.raises(ValueError, match="no route"):
            TrafficNetwork(
                nodes=("o", "d", "e"),
                links=(affine_link("A", "o", "d", 1, 1), affine_link("B", "o", "e", 1, 1)),
                routes=(Route("r1", "od1", ("A",)),),
                od_pairs=(
                    OdPair("od1", "o", "d", FixedDemand(1.0)),
                    OdPair("od2", "o", "e", FixedDemand(1.0)),
                ),
            )

    def test_network_without_od_pair_rejected(self):
        with pytest.raises(ValueError) as exc:
            TrafficNetwork(nodes=(), links=(), routes=(), od_pairs=())
        assert str(exc.value) == "needs at least one od pair"

    def test_self_loop_od_rejected(self):
        with pytest.raises(ValueError, match="origin equals destination"):
            OdPair("od1", "o", "o", FixedDemand(1.0))


def walk_network(*routes):
    """o -> a -> {b, d}, b -> d, a -> o and o -> d, one OD pair from o to d
    served by o-a-d, then ``routes`` (id, od, links) in order."""
    return TrafficNetwork(
        nodes=("o", "a", "b", "d"),
        links=tuple(affine_link(lid, lid[0], lid[1], 1.0, 1.0) for lid in ("oa", "ab", "ad", "bd", "ao", "od")),
        routes=(Route("good", "od", ("oa", "ad")),) + tuple(Route(*r) for r in routes),
        od_pairs=(OdPair("od", "o", "d", FixedDemand(1.0)),),
    )


# one bad route of each kind the walk checks find, with its message
BAD_ROUTES = {
    "od": (("od9", ("oa", "ad")), "unknown od pair 'od9'"),
    "link": (("od", ("oa", "zz")), "unknown link 'zz'"),
    "walk": (("od", ("oa", "bd")), "link 'bd' does not continue the walk"),
    "destination": (("od", ("oa", "ab")), "walk ends at 'b', not the destination"),
    "loop": (("od", ("oa", "ao", "od")), "repeated node (route must be loop-free)"),
}


class TestWalkCheckOrder:
    """The walks are checked route by route, link by link, in the pass that
    builds the CSR arrays: the error names the first failing route in
    network order, with the message of the first check its walk fails."""

    @pytest.mark.parametrize("first, second", list(itertools.permutations(BAD_ROUTES, 2)))
    def test_first_failing_route_is_named(self, first, second):
        (od1, links1), message = BAD_ROUTES[first]
        (od2, links2), _ = BAD_ROUTES[second]
        with pytest.raises(ValueError) as exc:
            walk_network(("x", od1, links1), ("y", od2, links2))
        assert str(exc.value) == f"route x: {message}"

    @pytest.mark.parametrize("od, links, message", [
        ("od9", ("zz", "bd"), "unknown od pair 'od9'"),
        ("od", ("oa", "bd", "zz"), "link 'bd' does not continue the walk"),
        ("od", ("zz", "bd"), "unknown link 'zz'"),
        ("od", ("oa", "zz", "ao", "oa"), "unknown link 'zz'"),
        ("od", ("ab",), "link 'ab' does not continue the walk"),
        ("od", ("oa", "ao", "oa", "ab"), "walk ends at 'b', not the destination"),
        ("od", ("oa", "ao"), "walk ends at 'o', not the destination"),
    ], ids=["od-before-links", "walk-before-unknown-link", "unknown-link-before-walk", "unknown-link-before-loop",
            "walk-before-destination", "destination-before-loop", "destination-at-a-loop"])
    def test_first_check_a_route_fails_is_reported(self, od, links, message):
        with pytest.raises(ValueError) as exc:
            walk_network(("x", od, links), ("y", "od9", ("oa", "ad")))
        assert str(exc.value) == f"route x: {message}"

    def test_valid_walks_pass(self):
        net = walk_network(("x", "od", ("od",)), ("y", "od", ("oa", "ab", "bd")))
        assert net.n_routes == 3 and np.array_equal(net._entry_route, [0, 0, 1, 2, 2, 2])


def corrupt_route(net, route, pos, kind):
    """``route`` with one fault of ``kind`` at link position ``pos``, and the
    message of the first check a link-by-link walk of it fails: an unknown
    od pair, an unknown link, a known link that does not leave the walk's
    node, or the walk cut before that link."""
    links = route.links
    tail = {l.id: l.from_node for l in net.links}
    if kind == "od":
        return Route(route.id, "od?", links), "unknown od pair 'od?'"
    if kind == "link":
        return Route(route.id, route.od, links[:pos] + ("zz",) + links[pos + 1:]), "unknown link 'zz'"
    if kind == "walk":
        stray = next(l.id for l in net.links if l.from_node != tail[links[pos]])
        return (Route(route.id, route.od, links[:pos] + (stray,) + links[pos + 1:]),
                f"link {stray!r} does not continue the walk")
    return Route(route.id, route.od, links[:pos]), f"walk ends at {tail[links[pos]]!r}, not the destination"


def draw_fault(data, routes, first):
    """A route at index ``first`` or later, a fault kind for ``corrupt_route``
    and a link position (a cut keeps at least the first link)."""
    ri = data.draw(st.integers(first, len(routes) - 1))
    kind = data.draw(st.sampled_from(("od", "link", "walk", "cut")))
    pos = data.draw(st.integers(1 if kind == "cut" else 0, len(routes[ri].links) - 1))
    return ri, kind, pos


class TestWalkChecksOnLattices:
    """Random test lattices with corrupted routes, checked against the
    per-route, link-by-link reading of each walk."""

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_the_corrupted_route_is_named(self, seed, data):
        net = random_lattice(np.random.default_rng(seed), side=6, n_od=3, per_od=3)
        routes = list(net.routes)
        ri, kind, pos = draw_fault(data, routes, 0)
        routes[ri], message = corrupt_route(net, routes[ri], pos, kind)
        message = f"route {routes[ri].id}: {message}"
        with pytest.raises(ValueError) as exc:
            TrafficNetwork(net.nodes, net.links, routes, net.od_pairs)
        assert str(exc.value) == message
        # a second corrupted route later in the network leaves the message
        if ri + 1 < len(routes):
            rj, kind, pos = draw_fault(data, routes, ri + 1)
            routes[rj], _ = corrupt_route(net, routes[rj], pos, kind)
            with pytest.raises(ValueError) as exc:
                TrafficNetwork(net.nodes, net.links, routes, net.od_pairs)
            assert str(exc.value) == message

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_csr_arrays_match_their_per_route_construction(self, seed):
        net = random_lattice(np.random.default_rng(seed), side=6, n_od=3, per_od=3)
        links, ods = [l.id for l in net.links], [od.id for od in net.od_pairs]
        assert net._entry_link.tolist() == [links.index(lid) for r in net.routes for lid in r.links]
        assert net._entry_route.tolist() == [ri for ri, r in enumerate(net.routes) for _ in r.links]
        assert net._route_od.tolist() == [ods.index(r.od) for r in net.routes]


class TestAssembleNcp:
    def test_single_route_solution_zeros_system(self):
        net = single_route_network(FixedDemand(2.0))
        problem = assemble_ncp(net)
        assert problem.n == 2
        # h = d, pi = c(d) = 1 + 2 = 3
        assert np.max(np.abs(fb_system([2.0, 3.0], problem))) <= 1e-12

    def test_two_route_solution_zeros_system(self):
        problem = assemble_ncp(two_route_network())
        assert problem.n == 3
        assert np.max(np.abs(fb_system([2.0, 1.0, 3.0], problem))) <= 1e-12

    def test_elastic_solution_zeros_system(self):
        net = single_route_network(ElasticDemand(4.0, 1.0))
        problem = assemble_ncp(net)
        assert np.max(np.abs(fb_system([1.5, 2.5], problem))) <= 1e-12

    def test_per_route_layout_dimensions(self):
        problem = assemble_ncp(per_route_network(two_route_network()))
        assert problem.n == 4
        # every route carries the full demand: h=(3,3), pi=(c1(3), c2(3))=(4,5)
        assert np.max(np.abs(fb_system([3.0, 3.0, 4.0, 5.0], problem))) <= 1e-12

    def test_per_route_network_has_one_od_pair_per_route(self):
        net = mixed_demand_network()
        split = per_route_network(net)
        ods = {od.id: od for od in net.od_pairs}
        assert split.nodes == net.nodes and split.links == net.links
        assert split.routes == tuple(Route(r.id, r.id, r.links) for r in net.routes)
        assert split.od_pairs == tuple(
            OdPair(r.id, ods[r.od].origin, ods[r.od].destination, ods[r.od].demand) for r in net.routes
        )
        assert np.array_equal(split.route_od_index(), np.arange(net.n_routes))

    @pytest.mark.parametrize("demand_block", LAYOUTS)
    @pytest.mark.parametrize("make_network", [two_route_network, mixed_demand_network], ids=["two_route", "mixed"])
    def test_jacobian_matches_fd(self, make_network, demand_block):
        net = LAYOUTS[demand_block](make_network())
        problem = assemble_ncp(net)
        n, R = problem.n, net.n_routes
        # positive flows and times inside the elastic demand's linear piece
        x = np.concatenate([np.linspace(0.3, 1.5, R), np.linspace(2.0, 4.0, n - R)])
        assert np.allclose(problem.jac_eval(x), central_jacobian(problem, x, 1e-7), atol=1e-6)

    @pytest.mark.parametrize("demand_block", LAYOUTS)
    def test_jacobian_on_a_free_set_is_its_block(self, rng, demand_block):
        # the free routes' rows of the incidence give the block of the whole Jacobian
        net = LAYOUTS[demand_block](lattice_network())
        problem = assemble_ncp(net)
        n = problem.n
        for _ in range(10):
            x = rng.uniform(0.0, 30.0, size=n)  # the elastic demand hits zero at pi = 25
            full = problem.jac_eval(x)
            free = np.flatnonzero(rng.random(n) < 0.5)
            assert np.allclose(problem.jac_eval(x, free), full[np.ix_(free, free)], rtol=1e-14, atol=0.0)


class TestSolveUe:
    def test_two_route_closed_form(self):
        sol = solve_ue(two_route_network())
        assert sol.converged
        assert np.allclose(sol.h, [2.0, 1.0], atol=1e-6)
        assert sol.pi[0] == pytest.approx(3.0, abs=1e-6)
        assert sol.residuals.within(1e-6)

    def test_elastic_closed_form(self):
        sol = solve_ue(single_route_network(ElasticDemand(4.0, 1.0)))
        assert sol.converged
        assert sol.h[0] == pytest.approx(1.5, abs=1e-6)
        assert sol.pi[0] == pytest.approx(2.5, abs=1e-6)

    def test_per_route_divergence_documented(self):
        per_od = solve_ue(two_route_network())
        per_route = solve_ue(per_route_network(two_route_network()))
        assert per_route.converged
        assert np.allclose(per_route.h, [3.0, 3.0], atol=1e-6)
        assert np.allclose(per_route.pi, [4.0, 5.0], atol=1e-6)
        assert not np.allclose(per_od.h, per_route.h, atol=1e-3)

    def test_layouts_coincide_on_single_route(self):
        net = single_route_network(ElasticDemand(4.0, 1.0))
        a = solve_ue(net)
        b = solve_ue(per_route_network(net))
        assert np.allclose(a.h, b.h, atol=1e-6)
        assert np.allclose(a.pi, b.pi, atol=1e-6)

    def test_scaling_flow_independent_costs(self):
        def flat_net(scale):
            return TrafficNetwork(
                nodes=("o", "d"),
                links=(
                    Link("A", "o", "d", t0=scale * 1.0, capacity=1.0, bpr_b=0.0, bpr_p=1.0),
                    Link("B", "o", "d", t0=scale * 2.0, capacity=1.0, bpr_b=0.0, bpr_p=1.0),
                ),
                routes=(Route("r1", "od1", ("A",)), Route("r2", "od1", ("B",))),
                od_pairs=(OdPair("od1", "o", "d", FixedDemand(3.0)),),
            )

        base = solve_ue(flat_net(1.0))
        doubled = solve_ue(flat_net(2.0))
        assert base.converged and doubled.converged
        assert doubled.pi[0] == pytest.approx(2.0 * base.pi[0], abs=1e-6)
        assert np.allclose(doubled.h, base.h, atol=1e-6)
        assert np.allclose(base.h, [3.0, 0.0], atol=1e-6)

    def test_random_affine_instances_match_closed_form(self, rng):
        for _ in range(40):
            t01, t02 = rng.uniform(0.5, 3.0, size=2)
            m1, m2 = rng.uniform(0.2, 2.0, size=2)
            d = rng.uniform(0.5, 5.0)
            sol = solve_ue(two_route_network(t01, m1, t02, m2, FixedDemand(d)))
            h_ref, pi_ref = two_route_closed_form(t01, m1, t02, m2, d)
            assert sol.converged
            assert np.allclose(sol.h, h_ref, atol=1e-6), (t01, m1, t02, m2, d)
            assert sol.pi[0] == pytest.approx(pi_ref, abs=1e-6)
            assert sol.residuals.within(1e-5)  # every converged solution honors the bounds


class TestMultiOdNetwork:
    def _y_network(self):
        return TrafficNetwork(
            nodes=("o", "m", "d1", "d2"),
            links=(
                affine_link("s", "o", "m", 1.0, 0.5),
                affine_link("a", "m", "d1", 0.5, 1.0),
                affine_link("b", "m", "d2", 0.5, 2.0),
            ),
            routes=(Route("r1", "od1", ("s", "a")), Route("r2", "od2", ("s", "b"))),
            od_pairs=(
                OdPair("od1", "o", "d1", FixedDemand(2.0)),
                OdPair("od2", "o", "d2", FixedDemand(1.0)),
            ),
        )

    def test_shared_stem_equilibrium(self):
        # single route per OD: h = demand, pi = route cost at those flows
        sol = solve_ue(self._y_network())
        assert sol.converged
        assert np.allclose(sol.h, [2.0, 1.0], atol=1e-6)
        stem = 1.0 + 0.5 * 3.0
        assert sol.pi[0] == pytest.approx(stem + 0.5 + 1.0 * 2.0, abs=1e-6)
        assert sol.pi[1] == pytest.approx(stem + 0.5 + 2.0 * 1.0, abs=1e-6)
        assert sol.residuals.within(1e-6)

    def test_gap_couples_through_shared_link(self):
        net = self._y_network()
        sol = solve_ue(net)
        x = sol.as_vector().copy()
        x[0] += 0.5  # extra flow on route 1 raises the stem cost for both
        assert gap_value(net, x) > 1e-4

    def test_priced_out_elastic_pair_time_lies_in_its_interval(self):
        # od2's demand max(0, 1 - pi) is zero at any time its routes offer
        # (2.5 through the stem that od1 loads, 4 on its own link), so every
        # pi in [d0/k, cheapest route cost] = [1, 2.5] meets the conditions
        net = TrafficNetwork(
            nodes=("o", "m", "d1", "d2"),
            links=(
                affine_link("s", "o", "m", 1.0, 0.5),
                affine_link("a", "m", "d1", 0.5, 1.0),
                affine_link("b", "m", "d2", 0.5, 2.0),
                affine_link("c", "o", "d2", 4.0, 1.0),
            ),
            routes=(Route("r1", "od1", ("s", "a")), Route("r2", "od2", ("s", "b")), Route("r3", "od2", ("c",))),
            od_pairs=(
                OdPair("od1", "o", "d1", FixedDemand(2.0)),
                OdPair("od2", "o", "d2", ElasticDemand(1.0, 1.0)),
            ),
        )
        sol = solve_ue(net)
        assert sol.converged
        assert sol.residuals.within(1e-6)
        assert np.allclose(sol.h, [2.0, 0.0, 0.0], atol=1e-8)
        served = net.od_pairs[1].demand(sol.pi[1])
        assert served == 0.0
        cheapest = route_cost(net, np.maximum(sol.h, 0.0))[1:].min()
        assert cheapest == pytest.approx(2.5, abs=1e-8)
        assert 1.0 - 1e-8 <= sol.pi[1] <= cheapest + 1e-8


class TestVectorizedHelpers:
    """The cached link arrays and the vectorized start against per-link and
    per-route loops; the arithmetic is the same, so results are equal."""

    def test_link_arrays_match_per_link_loop(self):
        net = mixed_demand_network()
        v = np.array([0.0, 0.7, 1.3, -0.2, 2.5])
        times = [link_time(l, max(vi, 0.0)) for l, vi in zip(net.links, v)]
        assert np.array_equal(_link_times_vec(net, v), times)
        slopes = [
            l.t0 * l.bpr_b * l.bpr_p * vi ** (l.bpr_p - 1.0) / l.capacity ** l.bpr_p if vi > 0 else 0.0
            for l, vi in zip(net.links, v)
        ]
        assert np.array_equal(_link_time_slopes(net, v), slopes)
        assert not net._t0.flags.writeable

    def test_route_arrays_match_the_network_objects(self):
        net = mixed_demand_network()
        # the CSR entries of the incidence: each route's links in order, routes in network order
        assert [net.links[i].id for i in net._entry_link] == [lid for r in net.routes for lid in r.links]
        assert [net.routes[i].id for i in net._entry_route] == [r.id for r in net.routes for _ in r.links]
        assert [net.od_pairs[k].id for k in net.route_od_index()] == [r.od for r in net.routes]
        # d(pi) = max(0, d0 - k pi): ElasticDemand(4.0, 0.5) and FixedDemand(1.0)
        assert np.array_equal(net._d0, [4.0, 1.0]) and np.array_equal(net._k, [0.5, 0.0])
        arrays = (net._entry_link, net._entry_route, net.route_od_index(), net._d0, net._k)
        assert not any(a.flags.writeable for a in arrays)

    def test_default_start_matches_per_od_loop(self):
        # all-or-nothing: each OD pair's demand at its cheapest free-flow time
        # on its cheapest free-flow route, the first one among ties
        tie = two_route_network(t02=1.0)
        for net in (mixed_demand_network(), tie, lattice_network()):
            R, K = net.n_routes, net.n_od
            r_od = net.route_od_index()
            c0 = route_cost(net, np.zeros(R))
            h0, pi0 = np.zeros(R), np.zeros(K)
            for k in range(K):
                best = min((r for r in range(R) if r_od[r] == k), key=lambda r: c0[r])  # first among ties
                pi0[k] = c0[best]
                h0[best] = net.od_pairs[k].demand(pi0[k])
            assert np.array_equal(_default_start(net), np.concatenate([h0, pi0]))
        assert np.array_equal(_default_start(tie), [3.0, 0.0, 1.0])
        # per_route: every route is its own time variable, started at its free-flow cost
        net = mixed_demand_network()
        c0 = route_cost(net, np.zeros(net.n_routes))
        h0 = np.array([net.od_pairs[k].demand(c) for k, c in zip(net.route_od_index(), c0)])
        assert np.array_equal(_default_start(per_route_network(net)), np.concatenate([h0, c0]))


class TestCsrAgainstDense:
    """Link flows, route costs, F and the free Jacobian block from the CSR
    arrays against the dense incidence of ``oracles.dense_ue_problem``, to
    1e-12 relative."""

    NETWORKS = {
        "mixed": mixed_demand_network,
        "lattice_4x4": lattice_network,
        "lattice_10x10": lambda: random_lattice(np.random.default_rng(7), side=10, n_od=25, per_od=12),
    }

    @staticmethod
    def points(rng, net, count):
        """Points with some route flows at 0 and OD times on both sides of
        the elastic demands' zero."""
        R = net.n_routes
        for _ in range(count):
            h = np.where(rng.random(R) < 0.3, 0.0, rng.uniform(0.0, 3.0, size=R))
            yield np.concatenate([h, rng.uniform(0.0, 30.0, size=net.n_od)])

    @pytest.mark.parametrize("name", NETWORKS)
    def test_flows_costs_and_f(self, rng, name):
        net = self.NETWORKS[name]()
        inc, reference, problem = dense_incidence(net), dense_ue_problem(net), assemble_ncp(net)
        for x in self.points(rng, net, 10):
            h = x[:net.n_routes]
            v = inc.T @ h
            assert np.allclose(_link_flows(net, h), v, rtol=1e-12, atol=0.0)
            times = [link_time(l, vi) for l, vi in zip(net.links, v)]
            assert np.allclose(route_cost(net, h), inc @ times, rtol=1e-12, atol=0.0)
            # F = c - pi can cancel, so F is compared relative to its largest entry
            f_ref = reference.f_eval(x)
            assert np.max(np.abs(problem.f_eval(x) - f_ref)) <= 1e-12 * np.max(np.abs(f_ref))

    @pytest.mark.parametrize("name", NETWORKS)
    def test_free_jacobian_block(self, rng, name):
        # S S^T with S = A_f diag(sqrt t'(v)) against (A_f * t'(v)) A_f^T, with the OD columns
        net = self.NETWORKS[name]()
        reference, problem = dense_ue_problem(net), assemble_ncp(net)
        n = problem.n
        for x in self.points(rng, net, 10):
            for free in (np.arange(n), np.flatnonzero(rng.random(n) < 0.5), np.flatnonzero(rng.random(n) < 0.1)):
                jac = problem.jac_eval(x, free)
                assert np.allclose(jac, reference.jac_eval(x, free), rtol=1e-12, atol=0.0)


class TestGapAndResiduals:
    def test_gap_zero_at_equilibrium(self):
        net = two_route_network()
        assert gap_value(net, [2.0, 1.0, 3.0]) <= 1e-10

    def test_gap_positive_off_equilibrium(self):
        net = two_route_network()
        assert gap_value(net, [3.0, 0.0, 3.0]) > 1e-4
        assert gap_value(net, [0.0, 0.0, 0.0]) > 1e-4

    def test_residuals_at_equilibrium(self):
        net = two_route_network()
        res = wardrop_residuals(net, ([2.0, 1.0], [3.0]))
        assert res.within(1e-6)

    def test_all_flow_on_slow_route(self):
        net = two_route_network()
        res = wardrop_residuals(net, ([0.0, 3.0], [5.0]))
        assert not res.within(1e-6)
        assert res.max_time_violation > 1.0  # the unused fast route beats pi

    def test_zero_candidate_demand_gap(self):
        net = two_route_network()
        res = wardrop_residuals(net, ([0.0, 0.0], [0.0]))
        assert res.max_demand_gap == pytest.approx(3.0)

    def test_per_route_gaps_keyed_by_route(self):
        net = per_route_network(two_route_network())
        # per_route: each route must carry the full demand 3 at its own time
        res = wardrop_residuals(net, ([3.0, 3.0], [4.0, 5.0]))
        assert res.within(1e-12)
        res = wardrop_residuals(net, ([3.0, 2.5], [4.0, 5.0]))
        assert res.demand_gaps == {"r1": 0.0, "r2": 0.5}
        sol = solve_ue(net)
        assert set(sol.residuals.demand_gaps) == {"r1", "r2"}
        assert set(sol.times_by_od()) == {"r1", "r2"}

    def test_gap_iff_residuals(self, rng):
        net = two_route_network()
        sol = solve_ue(net)
        assert gap_value(net, sol.as_vector()) <= 1e-10
        assert sol.residuals.within(1e-5)
        hits = 0
        for _ in range(100):
            x = rng.uniform(0.0, 4.0, size=3)
            gap = gap_value(net, x)
            res = wardrop_residuals(net, (x[:2], x[2:]))
            if gap > 1e-8:
                assert not res.within(1e-8)
                hits += 1
            if res.within(1e-10):
                assert gap <= 1e-8
        assert hits > 90  # random candidates are essentially never equilibria

    def test_solution_accessors(self):
        sol = solve_ue(two_route_network())
        flows = sol.flows_by_route()
        assert set(flows) == {"r1", "r2"}
        assert flows["r1"] == pytest.approx(2.0, abs=1e-6)
        assert set(sol.times_by_od()) == {"od1"}


class TestRegularizedNewtonOnNetworks:
    def test_lattice_with_non_unique_route_flows_converges(self):
        net = lattice_network()
        assert net.n_routes == 32
        sol = solve_ue(net)
        assert sol.converged
        assert sol.report.newton_steps + sol.report.gradient_steps == sol.report.iterations
        assert wardrop_residuals(net, (sol.h, sol.pi)).within(1e-8)

    @pytest.mark.parametrize("demand_block", LAYOUTS)
    def test_system_matrix_matches_reference_on_lattice(self, rng, demand_block):
        net = LAYOUTS[demand_block](lattice_network())
        problem = assemble_ncp(net)
        start = _default_start(net)
        for x in (start, start + rng.normal(scale=0.5, size=problem.n)):
            jac = problem.jac_eval(x)
            da, db = fb_subgradient(x, problem.f_eval(x))
            for eps in (0.0, 1e-4 * float(np.linalg.norm(fb_system(x, problem)))):
                expected = system_jacobian_reference(jac, da, db, eps)
                system = _system_jacobian(jac.copy(), da, db, eps)
                assert np.array_equal(system, expected)

    @pytest.mark.parametrize("demand_block", LAYOUTS)
    def test_demand_block_matches_the_demand_objects(self, rng, demand_block):
        net = mixed_demand_network()
        problem = assemble_ncp(LAYOUTS[demand_block](net))
        R = net.n_routes
        r_od = net.route_od_index()
        demands = [od.demand for od in net.od_pairs]
        if demand_block == "per_route":
            demands = [demands[k] for k in r_od]
        for _ in range(20):
            x = rng.uniform(0.0, 12.0, size=problem.n)  # the elastic demand hits zero at pi = 8
            pi = x[R:]
            served = np.array([d(p) for d, p in zip(demands, pi)])
            group = r_od if demand_block == "per_od" else np.arange(R)
            flows = np.array([x[:R][group == k].sum() for k in range(len(pi))])
            assert np.allclose(problem.f_eval(x)[R:], flows - served, rtol=0.0, atol=1e-14)
            # -d'(pi): the elastic slope while its demand is positive, else 0
            slopes = [d.k if isinstance(d, ElasticDemand) and d(p) > 0.0 else 0.0 for d, p in zip(demands, pi)]
            assert np.array_equal(problem.jac_eval(x)[R:, R:], np.diag(slopes))
