#!/usr/bin/env python3
"""Solve the bundled demo networks and print flows, times, and residuals,
including the per_od vs per_route demand-block comparison (per_route solves
the route-split network of ``per_route_network``)."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from congeo import fileio
from congeo.traffic import gap_value, per_route_network, solve_ue

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")


def show(title, network, layout="per_od"):
    sol = solve_ue(network)
    print(f"\n== {title} [{layout}] ==")
    print(f"status: {sol.report.status} in {sol.report.iterations} iterations")
    for rid, flow in sol.flows_by_route().items():
        print(f"  flow[{rid}] = {flow:.8f}")
    for key, t in sol.times_by_od().items():
        print(f"  time[{key}] = {t:.8f}")
    print(f"  gap value = {gap_value(network, sol.as_vector()):.3e}")
    res = sol.residuals
    print(
        f"  residuals: complementarity {res.max_complementarity:.2e}, "
        f"time violation {res.max_time_violation:.2e}, demand gap {res.max_demand_gap:.2e}"
    )


def main():
    two = fileio.load_network(os.path.join(DEMO, "network_two_routes.json"))
    elastic = fileio.load_network(os.path.join(DEMO, "network_elastic.json"))
    show("two parallel routes, fixed demand 3", two)
    show("two parallel routes, fixed demand 3", per_route_network(two), layout="per_route")
    show("single route, elastic demand 4 - pi", elastic)


if __name__ == "__main__":
    main()
