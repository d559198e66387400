#!/usr/bin/env python3
"""Route across a vortex congestion field and compare with the straight chord.

Writes route CSV + SVG next to this script (under scripts/out/) and prints a
small comparison table for a sweep of vortex strengths.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from congeo import fileio
from congeo.finsler import congestion_vortex
from congeo.geodesic import BvpConfig
from congeo.routing import RoutingScenario, route

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    print(f"{'strength':>9} {'travel time':>12} {'chord time':>11} {'saving %':>9} {'restarts':>9}")
    for strength in (0.0, 0.2, 0.4, 0.6, 0.8):
        scenario = RoutingScenario(
            origin=(-2.0, 0.0),
            destination=(2.0, 0.0),
            congestion=congestion_vortex(0.0, 0.0, strength),
            bvp=BvpConfig(explore=True, restarts=3),
        )
        result = route(scenario)
        bvp = result.bvp
        saving = 100.0 * (1.0 - bvp.length / result.chord_time)
        print(
            f"{strength:9.2f} {bvp.length:12.6f} {result.chord_time:11.6f} "
            f"{saving:9.3f} {bvp.restarts_used:9d}"
        )
        stem = os.path.join(OUT, f"vortex_{strength:.1f}".replace(".", "p"))
        fileio.write_curve_csv(stem + ".csv", bvp.curve)
        fileio.write_curve_svg(stem + ".svg", bvp.curve)
    print(f"\ncurves written to {os.path.abspath(OUT)}")


if __name__ == "__main__":
    main()
