"""Command-line front end.

Commands: solve-ncp, solve-ue, route, dynamic, validate.  Exit codes: 0 for
converged/valid runs, 2 for solver non-convergence (including congestion
saturation discovered at run time), 1 for input or usage errors.  A config
file carrying a "command" discriminator can drive a whole run via
``congeo --config run.json``.  No environment variables are consulted.

Every run writes its result artifacts plus a ``*_summary.json`` (command,
status, wall time, key scalars, artifact paths).  Result artifacts are
deterministic for a fixed seed; the summary contains the wall time and is
the one file excluded from byte-level reproducibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dynamic as dyn
from . import fileio
from .finsler import DomainError, build_randers, euclidean_metric, validate_structure
from .ncp import SolverConfig, solve_ncp
from .routing import route
from .traffic import solve_ue, gap_value
from .fileio import SchemaError

__all__ = ["main", "RunConfig", "RunSummary", "EXIT_OK", "EXIT_INPUT", "EXIT_NONCONVERGED"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all commands."""

    command: str
    inputs: tuple
    out: str
    seed: int
    tol: float | None
    svg: bool
    jobs: int
    demand_block: str = "per_od"
    cost_model: str | None = None
    variant: str = "half_phi_squared"
    minimize: bool = False
    config_dir: str = "."

    def __post_init__(self):
        if self.seed < 0:
            raise SchemaError("seed must be nonnegative")
        if self.tol is not None and self.tol <= 0:
            raise SchemaError("tol must be positive")
        if self.jobs < 1:
            raise SchemaError("jobs must be at least 1")
        for item in self.inputs:
            if isinstance(item, str) and not os.path.exists(item):
                raise SchemaError(f"input file not found: {item}")


def _run_config(args) -> RunConfig:
    inputs = getattr(args, _REQUIRED_INPUT[args.command])
    if not isinstance(inputs, list):
        inputs = [inputs]
    return RunConfig(
        command=args.command,
        inputs=tuple(inputs),
        out=args.out,
        seed=args.seed,
        tol=args.tol,
        svg=bool(args.svg),
        jobs=args.jobs,
        demand_block=getattr(args, "demand_block", "per_od"),
        cost_model=getattr(args, "cost_model", None),
        variant=getattr(args, "variant", "half_phi_squared"),
        minimize=bool(getattr(args, "minimize", False)),
        config_dir=getattr(args, "config_dir", "."),
    )


@dataclass
class RunSummary:
    command: str
    status: str
    wall_time_s: float
    results: dict
    artifacts: list[str]

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "wall_time_s": self.wall_time_s,
            "results": self.results,
            "artifacts": self.artifacts,
        }


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors (exit 1)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (default: current directory)")
    p.add_argument("--seed", type=int, default=0, help="random seed for restart perturbations")
    p.add_argument("--tol", type=float, default=None, help="tolerance override for the command's solver")
    p.add_argument("--svg", action="store_true", help="also emit SVG polylines for curves")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for independent scenario files")


def build_parser() -> _Parser:
    parser = _Parser(prog="congeo", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="JSON run config with a 'command' discriminator")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve-ncp", parents=[], help="solve a complementarity problem file")
    p.add_argument("problem", nargs="?", help="problem JSON path")
    _common_flags(p)

    p = sub.add_parser("solve-ue", help="solve a traffic network for user equilibrium")
    p.add_argument("network", nargs="?", help="network JSON path")
    p.add_argument("--demand-block", choices=["per_od", "per_route"], default="per_od")
    _common_flags(p)

    p = sub.add_parser("route", help="route through a congested region")
    p.add_argument("scenarios", nargs="*", help="scenario JSON path(s)")
    _common_flags(p)

    p = sub.add_parser("dynamic", help="evaluate or minimize the time-dependent functional")
    p.add_argument("trajectory", nargs="?", help="trajectory CSV path (t,h or t,h,c)")
    p.add_argument("--cost-model", default=None, help="zero | identity | affine(a,b)")
    p.add_argument("--variant", choices=list(dyn.VARIANTS), default="half_phi_squared")
    p.add_argument("--minimize", action="store_true")
    _common_flags(p)

    p = sub.add_parser("validate", help="run invariant checks on a metric/field/network file")
    p.add_argument("file", nargs="?", help="file to validate")
    _common_flags(p)

    return parser


def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise SchemaError(f"output directory {out_dir!r} is not writable")
    return out_dir


def _emit(summary: RunSummary, out_dir: str, name: str) -> None:
    text = fileio.dump_json(summary.to_dict(), os.path.join(out_dir, name))
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve_ncp(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out = _ensure_out(cfg.out)
    problem = fileio.load_ncp_problem(cfg.inputs[0])
    solver_cfg = SolverConfig(tol_residual=cfg.tol) if cfg.tol else SolverConfig()
    report = solve_ncp(problem, solver_cfg)
    solution_path = os.path.join(out, "ncp_solution.json")
    fileio.dump_json(
        {
            "x_star": list(report.x_star),
            "merit": report.merit,
            "residual": report.residual,
            "iterations": report.iterations,
            "status": report.status,
        },
        solution_path,
    )
    summary = RunSummary(
        command="solve-ncp",
        status=report.status,
        wall_time_s=time.perf_counter() - t0,
        results={"merit": report.merit, "residual": report.residual, "iterations": report.iterations},
        artifacts=[solution_path],
    )
    _emit(summary, out, "solve-ncp_summary.json")
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def cmd_solve_ue(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out = _ensure_out(cfg.out)
    network = fileio.load_network(cfg.inputs[0])
    solver_cfg = SolverConfig(tol_residual=cfg.tol) if cfg.tol else SolverConfig()
    sol = solve_ue(network, solver_cfg, demand_block=cfg.demand_block)
    flows_path = os.path.join(out, "ue_flows.csv")
    times_path = os.path.join(out, "ue_times.csv")
    resid_path = os.path.join(out, "ue_residuals.json")
    fileio.write_flows_csv(flows_path, sol)
    fileio.write_times_csv(times_path, sol)
    fileio.dump_json(
        {
            "max_complementarity": sol.residuals.max_complementarity,
            "max_time_violation": sol.residuals.max_time_violation,
            "max_negative_flow": sol.residuals.max_negative_flow,
            "demand_gaps": sol.residuals.demand_gaps,
            "gap_value": gap_value(network, sol.as_vector(), sol.demand_block),
        },
        resid_path,
    )
    summary = RunSummary(
        command="solve-ue",
        status=sol.report.status,
        wall_time_s=time.perf_counter() - t0,
        results={
            "demand_block": sol.demand_block,
            "merit": sol.report.merit,
            "residual": sol.report.residual,
            "iterations": sol.report.iterations,
        },
        artifacts=[flows_path, times_path, resid_path],
    )
    _emit(summary, out, "solve-ue_summary.json")
    return EXIT_OK if sol.converged else EXIT_NONCONVERGED


def _route_one(source, stem: str, cfg: RunConfig, out: str):
    if isinstance(source, dict):
        scenario = fileio.load_scenario(source, base_dir=cfg.config_dir)
    else:
        scenario = fileio.load_scenario(source)
    overrides = {}
    if cfg.tol:
        overrides["tol"] = cfg.tol
    overrides["seed"] = cfg.seed
    scenario = dataclasses.replace(scenario, bvp=dataclasses.replace(scenario.bvp, **overrides))
    try:
        result = route(scenario)
    except DomainError as exc:
        return stem, None, str(exc)
    curve_path = os.path.join(out, f"{stem}_route.csv")
    fileio.write_curve_csv(curve_path, result.curve)
    artifacts = [curve_path]
    if cfg.svg:
        svg_path = os.path.join(out, f"{stem}_route.svg")
        fileio.write_curve_svg(svg_path, result.curve)
        artifacts.append(svg_path)
    diag = result.diagnostics
    summary_path = os.path.join(out, f"{stem}_summary.json")
    fileio.dump_json(
        {
            "travel_time": result.travel_time,
            "converged": result.converged,
            "endpoint_error": diag.endpoint_error,
            "restarts": diag.restarts,
            "multiplicity": diag.multiplicity,
            "chord_time": diag.chord_time,
        },
        summary_path,
    )
    artifacts.append(summary_path)
    return stem, (result, artifacts), None


def cmd_route(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out = _ensure_out(cfg.out)
    if not cfg.inputs:
        raise SchemaError("route: no scenario files given")
    for source in cfg.inputs:  # fail fast on malformed inputs
        if isinstance(source, dict):
            fileio.load_scenario(source, base_dir=cfg.config_dir)
        else:
            fileio.load_scenario(source)
    stems = [
        "scenario" if isinstance(s, dict) else os.path.splitext(os.path.basename(s))[0]
        for s in cfg.inputs
    ]
    for i, stem in enumerate(stems):  # same basename from different dirs
        if stems.index(stem) != i:
            stems[i] = f"{stem}_{i}"
    jobs = list(zip(cfg.inputs, stems))

    if cfg.jobs > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(lambda j: _route_one(j[0], j[1], cfg, out), jobs))
    else:
        outcomes = [_route_one(source, stem, cfg, out) for source, stem in jobs]

    results = {}
    artifacts: list[str] = []
    any_bad = False
    for stem, payload, error in outcomes:
        if error is not None:
            results[stem] = {"error": error}
            any_bad = True
            continue
        result, arts = payload
        artifacts.extend(arts)
        results[stem] = {
            "travel_time": result.travel_time,
            "converged": result.converged,
            "chord_time": result.diagnostics.chord_time,
        }
        any_bad = any_bad or not result.converged
    summary = RunSummary(
        command="route",
        status="converged" if not any_bad else "non_converged",
        wall_time_s=time.perf_counter() - t0,
        results=results,
        artifacts=artifacts,
    )
    _emit(summary, out, "route_summary.json")
    return EXIT_OK if not any_bad else EXIT_NONCONVERGED


def cmd_dynamic(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out = _ensure_out(cfg.out)
    grid, flows, costs = fileio.read_trajectory_csv(cfg.inputs[0])
    model = None
    if cfg.cost_model is not None:
        try:
            model = dyn.parse_cost_model(cfg.cost_model)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    if costs is None and model is None:
        raise SchemaError("trajectory has no cost column; supply --cost-model")

    opt = dyn.OptimizerSettings(tol=cfg.tol) if cfg.tol else dyn.OptimizerSettings()
    dyn_cfg = dyn.DynamicConfig(variant=cfg.variant, optimizer=opt)
    try:
        if model is not None:
            traj = dyn.Trajectory(grid=grid, h=flows, cost=model)
        else:
            traj = dyn.Trajectory(grid=grid, h=flows, c=costs)
    except ValueError as exc:
        raise SchemaError(f"{cfg.inputs[0]}: {exc}") from None

    results = {
        "variant": dyn_cfg.variant,
        "gap": dyn.dynamic_gap(traj, dyn_cfg),
        "complementarity_merit": dyn.complementarity_merit(traj, dyn_cfg),
        "monotone_flow": traj.monotone(),
    }
    artifacts: list[str] = []
    status = "converged"
    if cfg.minimize:
        if model is None:
            model = dyn.AffineCost(0.0, np.array(costs))
        res = dyn.minimize_dynamic(model, grid, dyn_cfg, h0=flows)
        status = "converged" if res.converged else "non_converged"
        results.update(
            {
                "minimized_objective": res.objective,
                "minimized_gap": res.gap,
                "iterations": res.iterations,
                "minimizer_converged": res.converged,
                "minimizer_objective_evaluations": res.objective_evaluations,
                "minimizer_gradient": res.gradient,
                "minimized_monotone_flow": res.monotone_flow,
            }
        )
        opt_path = os.path.join(out, "dynamic_minimized.csv")
        fileio.write_trajectory_csv(opt_path, res.trajectory, include_cost=True)
        artifacts.append(opt_path)
    summary = RunSummary(
        command="dynamic",
        status=status,
        wall_time_s=time.perf_counter() - t0,
        results=results,
        artifacts=artifacts,
    )
    _emit(summary, out, "dynamic_summary.json")
    return EXIT_OK if status == "converged" else EXIT_NONCONVERGED


def _validate_field(field, eps_cong: float, failures: list[str]) -> None:
    g = euclidean_metric()
    try:
        structure = build_randers(g, field, eps_cong=eps_cong)
    except DomainError as exc:
        failures.append(str(exc))
        return
    probes = field.probes or ((0.0, 0.0),)
    rng = np.random.default_rng(0)
    samples = []
    for p in list(probes)[:50]:
        y = rng.normal(size=2)
        y /= np.linalg.norm(y)
        samples.append((np.asarray(p, dtype=float), y))
    report = validate_structure(structure, samples)
    for check in report.failures():
        failures.append(
            f"structure check failed at x={check.x}, y={check.y}: "
            f"positive={check.positive}, homogeneous={check.homogeneous}, "
            f"drift_valid={check.drift_valid}, positive_definite={check.positive_definite}"
        )


def cmd_validate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out = _ensure_out(cfg.out)
    path = cfg.inputs[0]
    eps = cfg.tol if cfg.tol else 1e-3
    failures: list[str] = []
    kind = "unknown"
    try:
        if path.endswith(".csv"):
            kind = "congestion_grid"
            field = fileio.load_congestion_grid(path)
            _validate_field(field, eps, failures)
        else:
            doc = fileio.load_json(path)
            if not isinstance(doc, dict):
                raise SchemaError(f"{path}: expected a JSON object")
            if {"nodes", "links", "routes", "od_pairs"} <= set(doc):
                kind = "network"
                fileio.load_network(doc)
            elif {"origin", "destination", "field"} <= set(doc):
                kind = "scenario"
                scenario = fileio.load_scenario(doc, base_dir=os.path.dirname(os.path.abspath(path)))
                _validate_field(scenario.congestion, eps, failures)
            elif {"n", "f"} <= set(doc):
                kind = "ncp_problem"
                fileio.load_ncp_problem(doc)
            else:
                raise SchemaError(f"{path}: unrecognized file kind (expected network, scenario, or problem)")
    except (SchemaError, DomainError) as exc:
        failures.append(str(exc))

    ok = not failures
    report_path = os.path.join(out, "validate_report.json")
    fileio.dump_json({"file": path, "kind": kind, "ok": ok, "failures": failures}, report_path)
    summary = RunSummary(
        command="validate",
        status="valid" if ok else "invalid",
        wall_time_s=time.perf_counter() - t0,
        results={"kind": kind, "ok": ok, "failures": failures},
        artifacts=[report_path],
    )
    _emit(summary, out, "validate_summary.json")
    return EXIT_OK if ok else EXIT_INPUT


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_REQUIRED_INPUT = {
    "solve-ncp": "problem",
    "solve-ue": "network",
    "route": "scenarios",
    "dynamic": "trajectory",
    "validate": "file",
}

# Option keys a config file may set alongside the command's own input schema.
_CONFIG_OPTIONS = ("out", "seed", "tol", "svg", "jobs", "demand_block", "cost_model", "variant", "minimize")


def _apply_config(args, parser: _Parser) -> None:
    """Drive a run from one JSON document: the per-command input schema plus
    a 'command' discriminator and optional flag overrides.  The CSV-backed
    commands reference their files via 'trajectory_csv' / 'file' (paths
    relative to the config file)."""
    doc = fileio.load_json(args.config)
    if not isinstance(doc, dict) or "command" not in doc:
        raise SchemaError(f"{args.config}: config must be an object with a 'command' field")
    doc = dict(doc)
    command = doc.pop("command")
    if command not in _REQUIRED_INPUT:
        raise SchemaError(f"{args.config}: unknown command {command!r}")
    if args.command is not None:
        raise SchemaError(f"{args.config}: --config cannot be combined with an explicit command")
    config_dir = os.path.dirname(os.path.abspath(args.config))

    defaults = parser.parse_args([command])
    for key, value in vars(defaults).items():
        setattr(args, key, value)
    args.command = command
    args.config_dir = config_dir

    options = {k: doc.pop(k) for k in list(doc) if k in _CONFIG_OPTIONS}
    for key, value in options.items():
        setattr(args, key, value)

    def _resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(config_dir, p)

    if command == "dynamic":
        allowed = {"trajectory_csv"}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise SchemaError(f"{args.config}: unknown config field(s) {unknown}")
        if "trajectory_csv" not in doc:
            raise SchemaError(f"{args.config}: dynamic config needs 'trajectory_csv'")
        args.trajectory = _resolve(str(doc["trajectory_csv"]))
    elif command == "validate":
        allowed = {"file"}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise SchemaError(f"{args.config}: unknown config field(s) {unknown}")
        if "file" not in doc:
            raise SchemaError(f"{args.config}: validate config needs 'file'")
        args.file = _resolve(str(doc["file"]))
    elif command == "route":
        args.scenarios = [doc]
    else:  # solve-ncp, solve-ue: remainder is the inline input document
        setattr(args, _REQUIRED_INPUT[command], doc)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(args, parser)
        if args.command is None:
            parser.error("a command is required (or --config with a 'command' field)")
        missing = _REQUIRED_INPUT[args.command]
        if not getattr(args, missing, None):
            parser.error(f"{args.command}: missing input {missing!r}")
        handler = {
            "solve-ncp": cmd_solve_ncp,
            "solve-ue": cmd_solve_ue,
            "route": cmd_route,
            "dynamic": cmd_dynamic,
            "validate": cmd_validate,
        }[args.command]
        return handler(_run_config(args))
    except SystemExit:
        raise
    except DomainError as exc:
        sys.stderr.write(f"congeo: {exc}\n")
        return EXIT_NONCONVERGED
    except (SchemaError, OSError, ValueError) as exc:
        sys.stderr.write(f"congeo: input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
