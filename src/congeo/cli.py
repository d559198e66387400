"""Command-line front end.

Commands: solve-ncp, solve-ue, route, dynamic, validate.  Each command is one
entry of ``_COMMANDS``: the argument that names its input and a handler that
loads, solves, writes its result artifacts and returns ``(status, results,
artifacts)``.  One runner does the rest for every command: it times the run,
creates the output directory, writes and prints ``<command>_summary.json``
(command, status, wall time, results, artifact paths) and maps the status
to the exit code:

    0  converged | valid
    1  invalid (validate), or an input or usage error
    2  any other status (solver non-convergence), or a run-time numerical
       failure such as congestion saturation or a non-finite F

A config file carrying a "command" discriminator can drive a whole run via
``congeo --config run.json``; shared flags given with it override the file's
values.  No environment variables are consulted.
Result artifacts are deterministic for a fixed seed; the summary contains
the wall time and is the one file excluded from byte-level reproducibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from dataclasses import dataclass

from . import dynamic as dyn
from . import fileio
from .finsler import EPS_CONG, DomainError, build_randers, euclidean_metric
from .ncp import TOL, solve_ncp
from .routing import certified_structure, route
from .traffic import per_route_network, solve_ue
from .fileio import SchemaError

__all__ = ["main", "RunConfig", "EXIT_OK", "EXIT_INPUT", "EXIT_NONCONVERGED"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2

# Exit code of each status a handler can return; every other status is a
# solver's non-convergence (non_converged, max_iter, line_search_failure).
_EXIT_CODES = {"converged": EXIT_OK, "valid": EXIT_OK, "invalid": EXIT_INPUT}

# solve-ue's --demand-block -> the key column of ue_times.csv.  per_route
# solves traffic.per_route_network, whose OD pairs are the routes.
_TIMES_KEYS = {"per_od": "od", "per_route": "route"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all commands; its defaults are
    the flags' defaults."""

    command: str
    inputs: tuple
    out: str = "."
    seed: int | None = None
    tol: float | None = None
    svg: bool = False
    jobs: int = 1
    demand_block: str = "per_od"
    cost_model: str | None = None
    variant: str = "half_phi_squared"
    minimize: bool = False
    config_dir: str = "."

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise SchemaError("seed must be nonnegative")
        if self.command == "validate" and self.tol is not None and not 0 < self.tol < 1:
            raise SchemaError("validate --tol is the saturation margin eps_cong and must lie in (0, 1)")
        if self.tol is not None and not 0 < self.tol < float("inf"):
            raise SchemaError("tol must be positive and finite")
        if self.jobs < 1:
            raise SchemaError("jobs must be at least 1")
        if self.demand_block not in _TIMES_KEYS:
            raise SchemaError(f"demand_block must be one of {tuple(_TIMES_KEYS)}")
        for item in self.inputs:
            if isinstance(item, str) and not os.path.exists(item):
                raise SchemaError(f"input file not found: {item}")


def _run_config(args, input_attr: str) -> RunConfig:
    inputs = getattr(args, input_attr)
    options = {f.name for f in dataclasses.fields(RunConfig)} - {"command", "inputs"}
    return RunConfig(
        command=args.command,
        inputs=tuple(inputs if isinstance(inputs, list) else [inputs]),
        **{key: value for key, value in vars(args).items() if key in options},
    )


class _Parser(argparse.ArgumentParser):
    """A flag that is not given sets no attribute, so RunConfig holds the
    defaults and a flag given with --config overrides the file's value."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):  # usage problems are input errors (exit 1)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output directory (default: current directory)")
    p.add_argument("--seed", type=int, help="seed override for route restart perturbations")
    p.add_argument("--tol", type=float, help="tolerance override for the command's solver")
    p.add_argument("--svg", action="store_true", help="also emit SVG polylines for curves")
    p.add_argument("--jobs", type=int, help="accepted for compatibility; scenarios run one after another")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="congeo", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="JSON run config with a 'command' discriminator")
    _common_flags(parser)  # overrides of a --config file's values
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve-ncp", help="solve a complementarity problem file")
    p.add_argument("problem", nargs="?", help="problem JSON path")
    _common_flags(p)

    p = sub.add_parser("solve-ue", help="solve a traffic network for user equilibrium")
    p.add_argument("network", nargs="?", help="network JSON path")
    p.add_argument("--demand-block", choices=list(_TIMES_KEYS))
    _common_flags(p)

    p = sub.add_parser("route", help="route through a congested region")
    p.add_argument("scenarios", nargs="*", help="scenario JSON path(s)")
    _common_flags(p)

    p = sub.add_parser("dynamic", help="evaluate or minimize the time-dependent functional")
    p.add_argument("trajectory", nargs="?", help="trajectory CSV path (t,h or t,h,c)")
    p.add_argument("--cost-model", help="zero | identity | affine(a,b)")
    p.add_argument("--variant", choices=list(dyn.VARIANTS))
    p.add_argument("--minimize", action="store_true")
    _common_flags(p)

    p = sub.add_parser("validate", help="check a network, NCP problem, scenario or congestion grid file")
    p.add_argument("file", nargs="?", help="file to validate")
    _common_flags(p)

    return parser


def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise SchemaError(f"output directory {out_dir!r} is not writable")
    return out_dir


def _run(handler, cfg: RunConfig) -> int:
    """Run one command: the handler's artifacts plus the printed summary."""
    t0 = time.perf_counter()
    out = _ensure_out(cfg.out)
    status, results, artifacts = handler(cfg)
    summary = {
        "command": cfg.command,
        "status": status,
        "wall_time_s": time.perf_counter() - t0,
        "results": results,
        "artifacts": artifacts,
    }
    sys.stdout.write(fileio.dump_json(summary, os.path.join(out, f"{cfg.command}_summary.json")))
    return _EXIT_CODES.get(status, EXIT_NONCONVERGED)


# ---------------------------------------------------------------------------
# Commands: each returns (status, results, artifacts)
# ---------------------------------------------------------------------------

def cmd_solve_ncp(cfg: RunConfig):
    problem = fileio.load_ncp_problem(cfg.inputs[0])
    report = solve_ncp(problem, tol=cfg.tol or TOL)
    solution_path = os.path.join(cfg.out, "ncp_solution.json")
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
    results = {"merit": report.merit, "residual": report.residual, **_work_counts(report)}
    return report.status, results, [solution_path]


def _work_counts(report) -> dict:
    """The solver's iteration and step counts, reported in the summary only."""
    return {
        "iterations": report.iterations,
        "newton_steps": report.newton_steps,
        "gradient_steps": report.gradient_steps,
        "backtracks": report.backtracks,
        "newton_rows": report.newton_rows,
    }


def cmd_solve_ue(cfg: RunConfig):
    network = fileio.load_network(cfg.inputs[0])
    if cfg.demand_block == "per_route":
        network = per_route_network(network)
    sol = solve_ue(network, tol=cfg.tol or TOL)
    flows_path = os.path.join(cfg.out, "ue_flows.csv")
    times_path = os.path.join(cfg.out, "ue_times.csv")
    resid_path = os.path.join(cfg.out, "ue_residuals.json")
    fileio.write_flows_csv(flows_path, sol)
    fileio.write_times_csv(times_path, sol, _TIMES_KEYS[cfg.demand_block])
    fileio.dump_json(
        {
            "max_complementarity": sol.residuals.max_complementarity,
            "max_time_violation": sol.residuals.max_time_violation,
            "max_negative_flow": sol.residuals.max_negative_flow,
            "demand_gaps": sol.residuals.demand_gaps,
            "gap_value": sol.report.merit,  # the merit at x_star is the gap function's value there
        },
        resid_path,
    )
    results = {
        "demand_block": cfg.demand_block,
        "merit": sol.report.merit,
        "residual": sol.report.residual,
        **_work_counts(sol.report),
    }
    return sol.report.status, results, [flows_path, times_path, resid_path]


def _route_one(scenario, stem: str, cfg: RunConfig, artifacts: list[str]) -> dict:
    """Route one scenario, write its artifacts and return its results entry."""
    # a given --tol or --seed overrides the scenario file's value
    overrides = {key: value for key, value in (("tol", cfg.tol), ("seed", cfg.seed)) if value is not None}
    scenario = dataclasses.replace(scenario, bvp=dataclasses.replace(scenario.bvp, **overrides))
    try:
        result = route(scenario)
    except DomainError as exc:
        return {"error": str(exc)}
    bvp = result.bvp
    curve_path = os.path.join(cfg.out, f"{stem}_route.csv")
    fileio.write_curve_csv(curve_path, bvp.curve)
    artifacts.append(curve_path)
    if cfg.svg:
        svg_path = os.path.join(cfg.out, f"{stem}_route.svg")
        fileio.write_curve_svg(svg_path, bvp.curve)
        artifacts.append(svg_path)
    summary_path = os.path.join(cfg.out, f"{stem}_summary.json")
    fileio.dump_json(
        {
            "travel_time": bvp.length,
            "converged": bvp.converged,
            "endpoint_error": bvp.endpoint_error,
            "restarts": bvp.restarts_used,
            "multiplicity": bvp.multiplicity,
            "chord_time": result.chord_time,
            "stages": bvp.stages,
            "starts": [{"outcome": s.outcome, "iterations": s.iterations, "nodes": s.nodes} for s in bvp.starts],
        },
        summary_path,
    )
    artifacts.append(summary_path)
    return {"travel_time": bvp.length, "converged": bvp.converged, "chord_time": result.chord_time}


def cmd_route(cfg: RunConfig):
    # load (and so validate) every scenario before routing the first one
    scenarios = [
        fileio.load_scenario(s, base_dir=cfg.config_dir if isinstance(s, dict) else None) for s in cfg.inputs
    ]
    stems = [
        "scenario" if isinstance(s, dict) else os.path.splitext(os.path.basename(s))[0]
        for s in cfg.inputs
    ]
    taken = set(stems)
    for i, stem in enumerate(stems):  # same basename from different dirs
        if stems.index(stem) != i:
            k = i
            while f"{stem}_{k}" in taken:  # e.g. a_2.json is among the inputs
                k += 1
            stems[i] = f"{stem}_{k}"
            taken.add(stems[i])
    artifacts: list[str] = []
    results = {stem: _route_one(scenario, stem, cfg, artifacts) for scenario, stem in zip(scenarios, stems)}
    converged = all(entry.get("converged") for entry in results.values())
    return "converged" if converged else "non_converged", results, artifacts


def cmd_dynamic(cfg: RunConfig):
    grid, flows, costs = fileio.read_trajectory_csv(cfg.inputs[0])
    if cfg.cost_model is not None:
        try:
            model = dyn.parse_cost_model(cfg.cost_model)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    elif costs is not None:
        model = dyn.AffineCost(0.0, costs)
    else:
        raise SchemaError("trajectory has no cost column; supply --cost-model")

    try:
        traj = dyn.Trajectory(grid=grid, h=flows, c=model(flows, grid))
    except ValueError as exc:
        raise SchemaError(f"{cfg.inputs[0]}: {exc}") from None

    results = {
        "variant": cfg.variant,
        "gap": dyn.dynamic_gap(traj, variant=cfg.variant),
        "complementarity_merit": dyn.complementarity_merit(traj, variant=cfg.variant),
        "monotone_flow": traj.monotone(),
    }
    if not cfg.minimize:
        return "converged", results, []
    res = dyn.minimize_dynamic(model, grid, variant=cfg.variant, h0=flows)
    results.update(
        {
            "minimized_objective": res.objective,
            "minimized_gap": res.gap,
            "minimized_monotone_flow": res.monotone_flow,
        }
    )
    opt_path = os.path.join(cfg.out, "dynamic_minimized.csv")
    fileio.write_trajectory_csv(opt_path, res.trajectory)
    return "converged", results, [opt_path]


def cmd_validate(cfg: RunConfig):
    """Load the file as its kind's loader does; a congestion field is also
    certified as ``route`` certifies it: a scenario by
    ``certified_structure`` (probes plus the validity box, under its
    ``eps_cong``), a grid CSV at every node.  A given --tol replaces the
    saturation margin ``eps_cong``."""
    path = cfg.inputs[0]
    failures: list[str] = []
    kind = "unknown"
    try:
        if path.endswith(".csv"):
            kind = "congestion_grid"
            grid = fileio.load_congestion_grid(path)
            build_randers(euclidean_metric(), grid, eps_cong=cfg.tol or EPS_CONG)
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
                if cfg.tol is not None:
                    scenario = dataclasses.replace(scenario, eps_cong=cfg.tol)
                certified_structure(scenario)
            elif {"n", "f"} <= set(doc):
                kind = "ncp_problem"
                fileio.load_ncp_problem(doc)
            else:
                raise SchemaError(f"{path}: unrecognized file kind (expected network, scenario, or problem)")
    except (SchemaError, DomainError) as exc:
        failures.append(str(exc))

    ok = not failures
    report_path = os.path.join(cfg.out, "validate_report.json")
    fileio.dump_json({"file": path, "kind": kind, "ok": ok, "failures": failures}, report_path)
    return "valid" if ok else "invalid", {"kind": kind, "ok": ok, "failures": failures}, [report_path]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# command -> (argument naming its input, handler)
_COMMANDS = {
    "solve-ncp": ("problem", cmd_solve_ncp),
    "solve-ue": ("network", cmd_solve_ue),
    "route": ("scenarios", cmd_route),
    "dynamic": ("trajectory", cmd_dynamic),
    "validate": ("file", cmd_validate),
}

# Config key that names the input file of the CSV-backed commands; for the
# other commands the config document itself is the input.
_CONFIG_FILE_KEYS = {"dynamic": "trajectory_csv", "validate": "file"}

# Option keys a config file may set alongside the command's own input schema,
# each with the type rule its value must pass.
_CONFIG_OPTIONS = {
    "out": fileio._string, "seed": fileio._integer, "tol": fileio._number, "svg": fileio._boolean,
    "jobs": fileio._integer, "demand_block": fileio._string, "cost_model": fileio._string,
    "variant": fileio._string, "minimize": fileio._boolean,
}


def _apply_config(args) -> None:
    """Drive a run from one JSON document: the per-command input schema plus
    a 'command' discriminator and optional flag overrides, which flags given
    on the command line override in turn.  The CSV-backed commands reference
    their files via 'trajectory_csv' / 'file' (paths relative to the config
    file)."""
    doc = fileio.load_json(args.config)
    if not isinstance(doc, dict) or "command" not in doc:
        raise SchemaError(f"{args.config}: config must be an object with a 'command' field")
    doc = dict(doc)
    command = doc.pop("command")
    if command not in _COMMANDS:
        raise SchemaError(f"{args.config}: unknown command {command!r}")
    if args.command is not None:
        raise SchemaError(f"{args.config}: --config cannot be combined with an explicit command")
    config_dir = os.path.dirname(os.path.abspath(args.config))
    args.command = command
    args.config_dir = config_dir

    for key in [k for k in doc if k in _CONFIG_OPTIONS]:
        vars(args).setdefault(key, _CONFIG_OPTIONS[key](doc, key, "config"))  # a given flag wins
        del doc[key]

    input_attr = _COMMANDS[command][0]
    file_key = _CONFIG_FILE_KEYS.get(command)
    if file_key is None:
        setattr(args, input_attr, doc)
        return
    unknown = sorted(set(doc) - {file_key})
    if unknown:
        raise SchemaError(f"{args.config}: unknown config field(s) {unknown}")
    if file_key not in doc:
        raise SchemaError(f"{args.config}: {command} config needs {file_key!r}")
    setattr(args, input_attr, os.path.join(config_dir, str(doc[file_key])))  # an absolute path stays as is


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(args)
        if args.command is None:
            parser.error("a command is required (or --config with a 'command' field)")
        input_attr, handler = _COMMANDS[args.command]
        if not getattr(args, input_attr, None):
            parser.error(f"{args.command}: missing input {input_attr!r}")
        return _run(handler, _run_config(args, input_attr))
    except SystemExit:
        raise
    except (DomainError, FloatingPointError) as exc:  # numerical failure at run time
        sys.stderr.write(f"congeo: {exc}\n")
        return EXIT_NONCONVERGED
    except (SchemaError, OSError, ValueError) as exc:
        sys.stderr.write(f"congeo: input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
