"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them) and
enforces its runtime budget.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from congeo import fileio
from congeo.cli import EXIT_INPUT, EXIT_NONCONVERGED, EXIT_OK, main
from congeo.dynamic import Trajectory, dynamic_gap, minimize_dynamic, parse_cost_model
from congeo.finsler import (
    build_randers,
    congestion_uniform,
    congestion_vortex,
    euclidean_metric,
    euclidean_randers,
    fundamental_tensor,
    randers_eval,
)
from congeo.geodesic import BvpConfig, GeodesicIvp, curve_length, geodesic_bvp, geodesic_ivp
from congeo.ncp import fb_phi, merit, merit_gradient, solve_ncp
from congeo.routing import RoutingScenario, chord_curve, route
from congeo.traffic import gap_value, solve_ue
from conftest import random_randers
from oracles import (
    affine_problem,
    fd_fundamental_tensor,
    lcp_enumeration_oracle,
    perturbed_curve,
    random_monotone_affine,
    two_route_closed_form,
)

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")
SQ2 = np.sqrt(2.0)


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"criterion {num} runtime {elapsed:.2f}s exceeds {limit_s}s"
    print(f"[criterion {num}] {name}: PASS ({elapsed:.2f}s)")


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code)


def test_criterion_1_fb_equivalence():
    with criterion(1, "FB equivalence on 1e5 random pairs", 1.0):
        rng = np.random.default_rng(101)
        a = rng.uniform(-10, 10, size=100_000)
        b = rng.uniform(-10, 10, size=100_000)
        phi = fb_phi(a, b)
        zero_phi = np.abs(phi) <= 1e-12
        complementary = (a >= -1e-10) & (b >= -1e-10) & (np.abs(a * b) <= 1e-10)
        assert np.array_equal(zero_phi, complementary)
        # exercise the nonvacuous direction with constructed solutions
        t = rng.uniform(0, 10, size=1000)
        assert np.all(np.abs(fb_phi(t, np.zeros_like(t))) <= 1e-12)
        assert np.all(np.abs(fb_phi(np.zeros_like(t), t)) <= 1e-12)


def test_criterion_2_ncp_oracle_suite():
    with criterion(2, "200 random monotone affine NCPs vs enumeration oracle", 10.0):
        rng = np.random.default_rng(202)
        for i in range(200):
            n = int(rng.integers(1, 7))
            M, q = random_monotone_affine(rng, n)
            report = solve_ncp(affine_problem(M, q))
            assert report.converged, f"instance {i} (n={n}) failed to converge"
            oracle = lcp_enumeration_oracle(M, q)
            assert oracle, f"oracle found no solution for instance {i}"
            err = min(np.max(np.abs(report.x_star - s)) for s in oracle)
            assert err <= 1e-6, f"instance {i}: deviation {err:.2e}"


def test_criterion_3_merit_gradient():
    with criterion(3, "merit gradient vs finite differences at 100 points", 5.0):
        rng = np.random.default_rng(303)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 6))
            M, q = random_monotone_affine(rng, n)
            problem = affine_problem(M, q)
            x = rng.uniform(0.2, 3.0, size=n)
            fx = problem.f_eval(x)
            if np.min(np.hypot(x, fx)) < 1e-2:
                continue
            grad = merit_gradient(x, problem)
            h = 1e-6
            fd = np.empty(n)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd[j] = (merit(x + e, problem) - merit(x - e, problem)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grad - fd)) <= 1e-5 * scale
            checked += 1


def test_criterion_4_wardrop_closed_forms():
    with criterion(4, "Wardrop closed forms (two-route and elastic)", 1.0):
        two = fileio.load_network(os.path.join(DEMO, "network_two_routes.json"))
        sol = solve_ue(two)
        assert sol.converged
        assert np.allclose(sol.h, [2.0, 1.0], atol=1e-6)
        assert sol.pi[0] == pytest.approx(3.0, abs=1e-6)
        assert gap_value(two, [2.0, 1.0, 3.0]) <= 1e-10

        elastic = fileio.load_network(os.path.join(DEMO, "network_elastic.json"))
        sol2 = solve_ue(elastic)
        assert sol2.converged
        assert sol2.h[0] == pytest.approx(1.5, abs=1e-6)
        assert sol2.pi[0] == pytest.approx(2.5, abs=1e-6)
        assert gap_value(elastic, [1.5, 2.5]) <= 1e-10


def test_criterion_5_finsler_validity_suite():
    with criterion(5, "validity of 20 random structures on 1000 samples", 10.0):
        rng = np.random.default_rng(505)
        structures = [random_randers(rng) for _ in range(20)]
        for s in range(1000):
            F = structures[s % 20]
            x = rng.uniform(-1, 1, size=2)
            y = rng.normal(size=2)
            while np.linalg.norm(y) < 1e-6:
                y = rng.normal(size=2)
            y *= 10 ** rng.uniform(-1, 1)
            base = randers_eval(F, x, y)
            for lam in (0.5, 2.0, 10.0):
                scaled = randers_eval(F, x, lam * y)
                assert abs(scaled - lam * base) <= 1e-10 * abs(lam * base)
            analytic = fundamental_tensor(F, x, y)
            eigs = np.linalg.eigvalsh(analytic)
            assert np.all(eigs > 0.0)
            fd = fd_fundamental_tensor(F, x, y)
            assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(analytic))


def test_criterion_6_geodesic_suite():
    with criterion(6, "geodesic BVP/IVP accuracy, order, and minimality", 60.0):
        rng = np.random.default_rng(606)
        euclid = euclidean_randers()
        # chord reproduction
        for p, q in [((0, 0), (1, 2)), ((-1, 0.5), (2, -1)), ((0, 0), (0.1, 3))]:
            res = geodesic_bvp(euclid, p, q)
            assert res.converged
            chord = chord_curve(p, q, res.curve.n_nodes)
            assert np.max(np.abs(res.curve.points - chord.points)) <= 1e-6

        # constant F-speed along every integrated geodesic
        vortex = build_randers(euclidean_metric(), congestion_vortex(0.0, 0.0, 0.8))
        for y0 in [(1.0, 0.1), (0.4, -1.0), (0.9, 0.9)]:
            curve = geodesic_ivp(vortex, GeodesicIvp((-2.0, 0.1), y0, steps=300))
            speeds = np.array(
                [randers_eval(vortex, curve.points[k], curve.velocities[k]) for k in range(curve.n_nodes)]
            )
            assert np.max(np.abs(speeds - speeds[0])) <= 1e-6 * abs(speeds[0])

        # fourth-order endpoint convergence (pure Euclidean dynamics are exact,
        # so the order is measured on the curved Euclidean-base structure)
        exact = geodesic_ivp(euclid, GeodesicIvp((0, 0), (1, 1), steps=40))
        assert np.allclose(exact.points[-1], [1.0, 1.0], atol=1e-12)
        x0, y0 = (-2.0, 0.15), (1.1, 0.2)
        ref = geodesic_ivp(vortex, GeodesicIvp(x0, y0, steps=3200)).points[-1]
        errors = [
            np.linalg.norm(geodesic_ivp(vortex, GeodesicIvp(x0, y0, steps=steps)).points[-1] - ref)
            for steps in (25, 50, 100)
        ]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert min(orders) >= 3.5, f"observed orders {orders}"

        # sampled local minimality of converged BVP curves
        drift = build_randers(euclidean_metric(), congestion_uniform(0.4, 0.2))
        for structure, p, q, cfg in (
            (vortex, (-2, 0), (2, 0), BvpConfig(explore=True, restarts=3)),
            (drift, (0, 0), (1.5, -0.5), BvpConfig()),
        ):
            bvp = geodesic_bvp(structure, p, q, cfg)
            assert bvp.converged
            for _ in range(50):
                pert = perturbed_curve(rng, bvp.curve)
                assert bvp.length <= curve_length(structure, pert) + 1e-9


def test_criterion_7_congestion_routing():
    with criterion(7, "congestion routing pipeline", 60.0):
        # zero-field reduction
        res = route(RoutingScenario(origin=(0, 0), destination=(1, 0)))
        assert res.bvp.converged
        chord = chord_curve((0, 0), (1, 0), res.bvp.curve.n_nodes)
        assert np.max(np.abs(res.bvp.curve.points - chord.points)) <= 1e-6

        # uniform-field chord asymmetry against direct evaluation of the
        # induced structure on the two chords
        field = congestion_uniform(0.5, 0.0)
        structure = build_randers(euclidean_metric(), field)
        fwd = route(RoutingScenario(origin=(0, 0), destination=(1, 0), congestion=field))
        bwd = route(RoutingScenario(origin=(0, 0), destination=(-1, 0), congestion=field))
        assert fwd.bvp.converged and bwd.bvp.converged
        assert abs(fwd.bvp.length - randers_eval(structure, (0, 0), (1, 0))) <= 1e-8
        assert abs(bwd.bvp.length - randers_eval(structure, (0, 0), (-1, 0))) <= 1e-8
        assert fwd.bvp.length != bwd.bvp.length

        # vortex: never worse than the straight chord
        vortex_sc = RoutingScenario(
            origin=(-2, 0),
            destination=(2, 0),
            congestion=congestion_vortex(0.0, 0.0, 0.8),
            bvp=BvpConfig(explore=True, restarts=3),
        )
        res = route(vortex_sc)
        assert res.bvp.converged
        assert res.bvp.length <= res.chord_time + 1e-8


def test_criterion_8_dynamic_functional():
    with criterion(8, "dynamic functional closed forms and minimizer", 30.0):
        t = np.linspace(0.0, 1.0, 1000)
        traj = Trajectory(grid=t, h=t, c=t)
        assert dynamic_gap(traj, variant="half_phi") == pytest.approx(
            (SQ2 - 2.0) / 4.0, abs=1e-5
        )
        assert dynamic_gap(traj, variant="half_phi_squared") == pytest.approx(
            (SQ2 - 2.0) ** 2 / 6.0, abs=1e-5
        )

        # order-2 quadrature convergence on a curved trajectory
        from scipy.integrate import quad

        ref, _ = quad(lambda s: 0.5 * fb_phi(s**3, s) ** 2 * 3 * s**2, 0.0, 1.0, epsabs=1e-14)
        errs = []
        for n in (51, 101, 201):
            tt = np.linspace(0, 1, n)
            errs.append(abs(dynamic_gap(Trajectory(grid=tt, h=tt**3, c=tt)) - ref))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.8, f"observed orders {orders}"

        grid = np.linspace(0.0, 1.0, 101)
        res = minimize_dynamic(parse_cost_model("identity"), grid, h0=np.ones_like(grid))
        assert np.max(np.abs(res.trajectory.h)) <= 1e-3


def test_criterion_9_cli_contract(tmp_path):
    with criterion(9, "CLI exit codes and artifact round-trips", 10.0):
        out = str(tmp_path)
        # exit-code matrix on the bundled demo inputs
        assert run_cli("solve-ncp", os.path.join(DEMO, "ncp_affine.json"), "--out", out) == EXIT_OK
        bad = tmp_path / "missing_q.json"
        bad.write_text('{"n": 1, "f": {"type": "affine", "M": [[1.0]]}}')
        assert run_cli("solve-ncp", str(bad), "--out", out) == EXIT_INPUT
        infeasible = tmp_path / "infeasible.json"
        fileio.dump_json({"n": 1, "f": {"type": "affine", "M": [[0.0]], "q": [-1.0]}}, str(infeasible))
        assert run_cli("solve-ncp", str(infeasible), "--out", out) == EXIT_NONCONVERGED

        assert run_cli("solve-ue", os.path.join(DEMO, "network_two_routes.json"), "--out", out) == EXIT_OK
        flows = fileio.read_flows_csv(os.path.join(out, "ue_flows.csv"))
        times = fileio.read_times_csv(os.path.join(out, "ue_times.csv"))
        assert flows["r1"] == pytest.approx(2.0, abs=1e-6)
        assert times["od1"] == pytest.approx(3.0, abs=1e-6)

        assert run_cli("route", os.path.join(DEMO, "scenario_none.json"), "--svg", "--out", out) == EXIT_OK
        curve = fileio.read_curve_csv(os.path.join(out, "scenario_none_route.csv"))
        assert np.allclose(curve.points[-1], [1.0, 0.0], atol=1e-6)
        saturated = tmp_path / "saturated.json"
        fileio.dump_json(
            {"origin": [-2.0, 0.0], "destination": [2.0, 0.0], "field": "vortex(0, 0, 0.9995)"},
            str(saturated),
        )
        assert run_cli("route", str(saturated), "--out", out) == EXIT_NONCONVERGED

        assert run_cli(
            "dynamic", os.path.join(DEMO, "trajectory_linear.csv"), "--variant", "half_phi", "--out", out
        ) == EXIT_OK
        summary = fileio.load_json(os.path.join(out, "dynamic_summary.json"))
        assert summary["results"]["gap"] == pytest.approx(-0.146447, abs=1e-5)
        assert run_cli("dynamic", os.path.join(DEMO, "trajectory_constant.csv"), "--out", out) == EXIT_INPUT

        assert run_cli("validate", os.path.join(DEMO, "network_two_routes.json"), "--out", out) == EXIT_OK
        doc = fileio.load_json(os.path.join(DEMO, "network_two_routes.json"))
        doc["links"][0]["color"] = "red"
        unknown = tmp_path / "unknown_field.json"
        fileio.dump_json(doc, str(unknown))
        assert run_cli("validate", str(unknown), "--out", out) == EXIT_INPUT

        # every emitted JSON re-parses; summaries carry the artifact paths
        for name in ("solve-ncp_summary.json", "solve-ue_summary.json", "route_summary.json",
                     "dynamic_summary.json", "validate_summary.json"):
            summary = fileio.load_json(os.path.join(out, name))
            assert summary["command"] in name
            for artifact in summary["artifacts"]:
                assert os.path.exists(artifact)


def test_two_route_oracle_family_regression(rng):
    """Random affine two-route instances vs the closed form (supports criterion 4)."""
    from congeo.traffic import FixedDemand, Link, OdPair, Route, TrafficNetwork

    for _ in range(20):
        t01, t02 = rng.uniform(0.5, 3.0, size=2)
        m1, m2 = rng.uniform(0.2, 2.0, size=2)
        d = rng.uniform(0.5, 5.0)
        net = TrafficNetwork(
            nodes=("o", "d"),
            links=(
                Link("A", "o", "d", t0=t01, capacity=1.0, bpr_b=m1 / t01, bpr_p=1.0),
                Link("B", "o", "d", t0=t02, capacity=1.0, bpr_b=m2 / t02, bpr_p=1.0),
            ),
            routes=(Route("r1", "od1", ("A",)), Route("r2", "od1", ("B",))),
            od_pairs=(OdPair("od1", "o", "d", FixedDemand(d)),),
        )
        sol = solve_ue(net)
        h_ref, pi_ref = two_route_closed_form(t01, m1, t02, m2, d)
        assert sol.converged
        assert np.allclose(sol.h, h_ref, atol=1e-6)
        assert sol.pi[0] == pytest.approx(pi_ref, abs=1e-6)
