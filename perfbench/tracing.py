"""Span tracing of congeo's public functions, from outside the library.

``Tracer.install`` replaces each traced name at the attribute its caller
looks up (``congeo.cli.route``, ``congeo.routing.geodesic_bvp``,
``Lagrangian.acceleration``, ...) with a wrapper that records a span, and
``uninstall`` puts the originals back.  A span is ``[name, start, end,
parent index, op id, info]``; spans stay in memory until the run writes them
out.  ``layer_metrics`` turns the spans of the traced ops into the
``<module>.<metric>`` numbers the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, INFO = range(6)

FILEIO_LOADERS = (
    "load_json", "load_network", "load_ncp_problem", "load_congestion_grid",
    "load_congestion_spec", "load_scenario", "read_curve_csv", "read_trajectory_csv",
    "read_flows_csv", "read_times_csv",
)
FILEIO_WRITERS = (
    "dump_json", "save_congestion_grid", "write_curve_csv", "write_trajectory_csv",
    "write_flows_csv", "write_times_csv", "write_curve_svg",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span; ``info(args, result)``
        may attach a small record of the call's outcome."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[INFO] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, info=None, inner=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, inner(original) if inner else original, info))

    def _traced_bundle(self, build_randers):
        """build_randers whose returned structure traces its ``bundle``."""
        def build(*args, **kwargs):
            structure = build_randers(*args, **kwargs)
            return dataclasses.replace(structure, bundle=self.wrap("finsler.bundle", structure.bundle))
        return build

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from congeo import cli, dynamic, fileio, geodesic, ncp, routing, traffic

        for owner in (routing, cli):
            self._patch(owner, "build_randers", "routing.build_randers", _probe_count, self._traced_bundle)
        self._patch(cli, "route", "cli.route")
        self._patch(cli, "solve_ue", "cli.solve_ue")
        self._patch(cli, "solve_ncp", "ncp.solve_ncp", _ncp_info)
        for name in FILEIO_LOADERS:
            self._patch(fileio, name, "fileio.load")
        for name in FILEIO_WRITERS:
            self._patch(fileio, name, "fileio.write")
        self._patch(routing, "geodesic_bvp", "geodesic.bvp", _bvp_info)
        self._patch(routing, "curve_length", "geodesic.length")
        self._patch(geodesic, "curve_length", "geodesic.length")
        self._patch(geodesic, "geodesic_ivp", "geodesic.shot")
        self._patch(geodesic.Lagrangian, "acceleration", "geodesic.accel")
        self._patch(ncp.NcpProblem, "f_eval", "traffic.f")
        self._patch(ncp.NcpProblem, "jac_eval", "traffic.jac")
        self._patch(traffic, "solve_ncp", "ncp.solve_ncp", _ncp_info)
        self._patch(traffic, "assemble_ncp", "traffic.assemble")
        self._patch(traffic, "wardrop_residuals", "traffic.residuals")
        self._patch(dynamic, "minimize_dynamic", "dynamic.minimize", _minimize_info)
        self._patch(dynamic, "complementarity_merit", "dynamic.objective")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _probe_count(args, kwargs, result):
    check_points = kwargs.get("check_points", args[3] if len(args) > 3 else ())
    return len(args[1].probes) + len(check_points)


def _bvp_info(args, kwargs, result):
    return (result.iterations, result.restarts_used + 1, result.multiplicity)


def _ncp_info(args, kwargs, report):
    hist = report.merit_history
    lowered = sum(1 for a, b in zip(hist, hist[1:]) if b < a)
    return (report.iterations, len(hist) - 1, lowered, report.status)


def _minimize_info(args, kwargs, result):
    return result.iterations


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append((s[END] - s[START]) - covered)
    return out


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced ops (per-op means unless a per-call
    cost or a ratio)."""
    own = self_times(spans)
    per = max(n_ops, 1)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name, pred=None):
        return sum(spans[i][END] - spans[i][START] for i in idx(name) if pred is None or pred(i))

    def self_total(name):
        return sum(own[i] for i in idx(name))

    def mean_us(name, pred=None):
        sel = [i for i in idx(name) if pred is None or pred(i)]
        return 1e6 * sum(spans[i][END] - spans[i][START] for i in sel) / len(sel) if sel else 0.0

    def parent_is(name):
        return lambda i: spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == name

    def top_level(i):  # not nested in another span of the same name
        p = spans[i][PARENT]
        return p < 0 or spans[p][NAME] != spans[i][NAME]

    bvp = [spans[i][INFO] for i in idx("geodesic.bvp") if isinstance(spans[i][INFO], tuple)]
    ncp_runs = [spans[i][INFO] for i in idx("ncp.solve_ncp") if isinstance(spans[i][INFO], tuple)]
    n_iter = sum(r[0] for r in ncp_runs)
    accepted = sum(r[1] for r in ncp_runs)
    lowered = sum(r[2] for r in ncp_runs)
    ls_f = sum(1 for i in idx("traffic.f") if spans[i][PARENT] >= 0
               and spans[spans[i][PARENT]][NAME] == "ncp.solve_ncp")
    backtracks = ls_f - len(ncp_runs) - accepted
    dyn_iters = sum(spans[i][INFO] or 0 for i in idx("dynamic.minimize"))
    objective_in_min = len([i for i in idx("dynamic.objective") if parent_is("dynamic.minimize")(i)])
    starts = sum(b[1] for b in bvp)
    shots = idx("geodesic.shot")
    probes = sum(spans[i][INFO] or 0 for i in idx("routing.build_randers"))

    m = {
        "finsler.coeff_calls": (len(idx("finsler.bundle")) / per, "1/op"),
        "finsler.coeff_us": (mean_us("finsler.bundle"), "us"),
        "finsler.probes": (probes / per, "1/op"),
        "geodesic.shots": (len(shots) / per, "1/op"),
        "geodesic.shot_ms": (mean_us("geodesic.shot") / 1e3, "ms"),
        "geodesic.shot_self_s": (self_total("geodesic.shot") / per, "s/op"),
        "geodesic.accel_calls": (len(idx("geodesic.accel")) / per, "1/op"),
        "geodesic.accel_us": (mean_us("geodesic.accel"), "us"),
        "geodesic.accel_self_s": (self_total("geodesic.accel") / per, "s/op"),
        "geodesic.newton_iters": (sum(b[0] for b in bvp) / per, "1/op"),
        "geodesic.starts": (starts / per, "1/op"),
        "geodesic.solutions_per_start": (sum(b[2] for b in bvp) / starts if starts else 0.0, "ratio"),
        "geodesic.shot_domain_exits": (sum(1 for i in shots if spans[i][INFO] == "DomainError") / per, "1/op"),
        "geodesic.bvp_self_s": (self_total("geodesic.bvp") / per, "s/op"),
        "geodesic.length_s": (total("geodesic.length", top_level) / per, "s/op"),
        "routing.build_s": (total("routing.build_randers") / per, "s/op"),
        "routing.chord_s": (total("geodesic.length", parent_is("cli.route")) / per, "s/op"),
        "routing.self_s": (self_total("cli.route") / per, "s/op"),
        "traffic.f_calls": (len(idx("traffic.f")) / per, "1/op"),
        "traffic.f_ms": (mean_us("traffic.f") / 1e3, "ms"),
        "traffic.jac_calls": (len(idx("traffic.jac")) / per, "1/op"),
        "traffic.jac_ms": (mean_us("traffic.jac") / 1e3, "ms"),
        "traffic.assemble_s": (total("traffic.assemble") / per, "s/op"),
        "traffic.residuals_s": (total("traffic.residuals") / per, "s/op"),
        "traffic.solve_ue_self_s": (self_total("cli.solve_ue") / per, "s/op"),
        "ncp.iterations": (n_iter / per, "1/op"),
        "ncp.accepted_steps": (accepted / per, "1/op"),
        "ncp.backtracks_per_iter": (backtracks / n_iter if n_iter else 0.0, "ratio"),
        "ncp.useful_step_ratio": (lowered / accepted if accepted else 0.0, "ratio"),
        "ncp.nonconverged": (sum(1 for r in ncp_runs if r[3] != "converged") / per, "1/op"),
        "ncp.self_s": (self_total("ncp.solve_ncp") / per, "s/op"),
        "dynamic.iterations": (dyn_iters / per, "1/op"),
        "dynamic.objective_calls_per_iter": (objective_in_min / dyn_iters if dyn_iters else 0.0, "ratio"),
        "dynamic.objective_us": (mean_us("dynamic.objective", parent_is("dynamic.minimize")), "us"),
        "dynamic.minimize_s": (total("dynamic.minimize") / per, "s/op"),
        "dynamic.eval_s": (total("dynamic.objective", parent_is("op")) / per, "s/op"),
        "fileio.load_s": (total("fileio.load", top_level) / per, "s/op"),
        "fileio.write_s": (total("fileio.write", top_level) / per, "s/op"),
        "cli.self_s": (self_total("op") / per, "s/op"),
    }
    return m
