#!/usr/bin/env python3
"""Regenerate the bundled demo inputs under demo/."""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from congeo import fileio
from congeo.finsler import congestion_uniform

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")


def main():
    os.makedirs(DEMO, exist_ok=True)

    # Two parallel routes, affine costs c1 = 1 + h1, c2 = 2 + h2, demand 3.
    # Equilibrium: flows (2, 1), common time 3.
    fileio.dump_json(
        {
            "nodes": ["o", "d"],
            "links": [
                {"id": "A", "from": "o", "to": "d", "t0": 1.0, "capacity": 1.0, "bpr_b": 1.0, "bpr_p": 1.0},
                {"id": "B", "from": "o", "to": "d", "t0": 2.0, "capacity": 1.0, "bpr_b": 0.5, "bpr_p": 1.0},
            ],
            "routes": [
                {"id": "r1", "od": "od1", "links": ["A"]},
                {"id": "r2", "od": "od1", "links": ["B"]},
            ],
            "od_pairs": [
                {"id": "od1", "origin": "o", "destination": "d", "demand": {"type": "fixed", "d0": 3.0}}
            ],
        },
        os.path.join(DEMO, "network_two_routes.json"),
    )

    # Single route, elastic demand d(pi) = 4 - pi, cost 1 + h.
    # Equilibrium: flow 1.5, time 2.5.
    fileio.dump_json(
        {
            "nodes": ["o", "d"],
            "links": [
                {"id": "A", "from": "o", "to": "d", "t0": 1.0, "capacity": 1.0, "bpr_b": 1.0, "bpr_p": 1.0}
            ],
            "routes": [{"id": "r1", "od": "od1", "links": ["A"]}],
            "od_pairs": [
                {
                    "id": "od1",
                    "origin": "o",
                    "destination": "d",
                    "demand": {"type": "elastic", "d0": 4.0, "k": 1.0},
                }
            ],
        },
        os.path.join(DEMO, "network_elastic.json"),
    )

    # Scalar affine complementarity problem F(x) = x - 2: solution x = 2.
    fileio.dump_json(
        {"n": 1, "f": {"type": "affine", "M": [[1.0]], "q": [-2.0]}},
        os.path.join(DEMO, "ncp_affine.json"),
    )

    # Routing scenarios: empty field, uniform drift, vortex ring.
    fileio.dump_json(
        {"origin": [0.0, 0.0], "destination": [1.0, 0.0], "field": "none"},
        os.path.join(DEMO, "scenario_none.json"),
    )
    fileio.dump_json(
        {"origin": [0.0, 0.0], "destination": [1.0, 0.0], "field": "uniform(0.5, 0)"},
        os.path.join(DEMO, "scenario_uniform.json"),
    )
    fileio.dump_json(
        {"origin": [-2.0, 0.0], "destination": [2.0, 0.0], "field": "vortex(0, 0, 0.8)", "restarts": 3},
        os.path.join(DEMO, "scenario_vortex.json"),
    )

    # Grid-sampled uniform field + a scenario referencing it.
    xs = ys = np.linspace(-3.0, 3.0, 13)
    field = congestion_uniform(0.3, 0.0)
    vectors = np.zeros((len(xs), len(ys), 2))
    for i, px in enumerate(xs):
        for j, py in enumerate(ys):
            vectors[i, j] = field((px, py))
    fileio.save_congestion_grid(os.path.join(DEMO, "field_grid.csv"), xs, ys, vectors)
    fileio.dump_json(
        {
            "origin": [-1.0, 0.0],
            "destination": [1.0, 0.0],
            "field": {"grid_csv": "field_grid.csv"},
            "explore": False,
        },
        os.path.join(DEMO, "scenario_grid.json"),
    )

    # Trajectories: h(t) = c(t) = t on 1000 nodes; constant unit flow on 101.
    t = np.linspace(0.0, 1.0, 1000)
    from congeo.dynamic import Trajectory

    fileio.write_trajectory_csv(
        os.path.join(DEMO, "trajectory_linear.csv"), Trajectory(grid=t, h=t, c=t)
    )
    t2 = np.linspace(0.0, 1.0, 101)
    fileio.write_trajectory_csv(
        os.path.join(DEMO, "trajectory_constant.csv"),
        Trajectory(grid=t2, h=np.ones_like(t2), c=np.ones_like(t2)),
        include_cost=False,
    )

    # Whole-run config: the elastic network inline plus the command field.
    fileio.dump_json(
        {
            "command": "solve-ue",
            "out": "demo_out",
            "nodes": ["o", "d"],
            "links": [
                {"id": "A", "from": "o", "to": "d", "t0": 1.0, "capacity": 1.0, "bpr_b": 1.0, "bpr_p": 1.0}
            ],
            "routes": [{"id": "r1", "od": "od1", "links": ["A"]}],
            "od_pairs": [
                {
                    "id": "od1",
                    "origin": "o",
                    "destination": "d",
                    "demand": {"type": "elastic", "d0": 4.0, "k": 1.0},
                }
            ],
        },
        os.path.join(DEMO, "run_ue_config.json"),
    )
    print(f"demo inputs written to {os.path.abspath(DEMO)}")


if __name__ == "__main__":
    main()
