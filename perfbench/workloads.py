"""Seeded input generators for the benchmark workloads.

Each generator writes its input files into a directory and returns the run's
pool of operations.  An operation is one ``congeo`` command line (without
``--out``/``--jobs``) plus what the independent checker needs to know about
its input.  The same ``(workload, seed)`` always produces byte-identical
files and the same pool; nothing here looks at a solver outcome.

Every pool is a fixed design of problem shapes (the properties the solvers'
cost depends on, spread evenly over their ranges), and the seed supplies new
inputs of those shapes: a placement for routes, a 2 % jitter of every number
for networks and trajectories.  Two seeds thus cost about the same to run,
which is what lets runs with different seeds be compared.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("route-vortex", "route-grid", "ue-lattice", "cli-small")

# Route settings shared by both route workloads: sized for run time (a shot
# of NODES-1 RK4 steps), not by outcome.
ROUTE_NODES = 24
VORTEX_RESTARTS = 2  # explore on: every op runs all 1 + 2 starts
GRID_RESTARTS = 1  # explore off: the restart only runs when the first start fails
VORTEX_POOL = 24  # instances per route-vortex run
GRID_EXTENT = 4.0
GRID_SIZE = 41  # 41 x 41 samples over [-4, 4]^2, spacing 0.2
GRID_FIELDS = 2  # route-grid: grid CSVs per run ...
GRID_ODS_PER_FIELD = 4  # ... and OD pairs on each

# ue-lattice: networks per run, all on one LATTICE_SIDE x LATTICE_SIDE
# lattice with LATTICE_ROUTES_PER_OD routes per OD pair.
LATTICE_POOL = 48
LATTICE_SIDE = 10
LATTICE_ROUTES_PER_OD = 12

# cli-small: cycles of demo, seeded and minimizer ops per run.
CLI_CYCLES = 8

# Demo inputs that cli-small copies into its input directory.
DEMO_FILES = (
    "ncp_affine.json",
    "network_two_routes.json",
    "network_elastic.json",
    "scenario_uniform.json",
    "trajectory_linear.csv",
    "trajectory_constant.csv",
)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a CLI call on generated inputs.

    ``key`` names the instance (repeats of one key must give byte-identical
    artifacts); ``kind`` selects the checker; ``spec`` is the checker's view
    of the input; ``loads`` lists ``(fileio loader, path)`` pairs that the
    set-up measurement replays; ``size`` is the input size the solver's
    memory grows with (routes of a network, nodes of a route or trajectory,
    unknowns of an NCP), which picks the memory-pass instance.
    """

    key: str
    kind: str
    argv: tuple
    spec: dict = field(default_factory=dict)
    loads: tuple = ()
    size: int = 0


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([tag, seed])


def _r(x: float, digits: int = 6) -> float:
    return round(float(x), digits)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _design(n: int, lo: float, hi: float, stride: int = 1) -> np.ndarray:
    """n values at the middles of n equal slices of [lo, hi].

    Value k takes slice ``(k * stride) % n``; strides coprime with n pair
    the parameters of a design and spread each one along the pool, so a
    partial pass over the pool costs about the same share of a full one.
    """
    return lo + (hi - lo) * ((np.arange(n) * stride) % n + 0.5) / n


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def vortex_field(x: np.ndarray, cx: float, cy: float, s: float) -> np.ndarray:
    """The ``vortex(cx, cy, s)`` preset: Gaussian-damped swirl, |w| peaks at s."""
    u = np.asarray(x, dtype=float) - np.array([cx, cy])
    r2 = np.sum(u * u, axis=-1)
    env = s * np.exp((1.0 - r2) / 2.0)
    return np.stack([-env * u[..., 1], env * u[..., 0]], axis=-1)


def _od_through(center, offset: float, length: float, theta: float) -> tuple[list, list]:
    """OD pair whose chord passes ``offset`` from the vortex center."""
    u = np.array([math.cos(theta), math.sin(theta)])
    n = np.array([-u[1], u[0]])
    mid = np.asarray(center) + offset * n
    return [_r(v) for v in mid - 0.5 * length * u], [_r(v) for v in mid + 0.5 * length * u]


def _quarter_turns(v, turns: int) -> tuple[float, float]:
    """Rotate v by turns * 90 degrees; exact in floating point."""
    x, y = v
    for _ in range(turns):
        x, y = -y, x
    return x, y


def _route_op(path: str, scenario: dict, field_spec: dict) -> Op:
    key = os.path.splitext(os.path.basename(path))[0]
    spec = {
        "origin": scenario["origin"],
        "destination": scenario["destination"],
        "tol": 1e-6,
        "nodes": scenario["nodes"],
        "field": field_spec,
        "stem": key,
    }
    return Op(key=key, kind="route", argv=("route", path), spec=spec, loads=(("load_scenario", path),),
              size=scenario["nodes"])


def gen_route_vortex(rng, inputs: str) -> list[Op]:
    """Fixed problem shapes (strength, chord offset, OD length), each moved by
    a seeded translation and quarter-turn.

    The vortex problem is unchanged by moving field and OD together, and a
    quarter-turn maps coordinates onto coordinates, so the solver's
    per-coordinate finite-difference steps see the same problem too.  Any
    other change (a jittered shape, an arbitrary heading) moves Newton's
    path enough to flip which start finds which geodesic, and runs then
    differed by up to 40 % in ``ops_per_s``.
    """
    strengths = _design(VORTEX_POOL, 0.4, 0.8, stride=11)
    offsets = _design(VORTEX_POOL, -0.8, 0.8, stride=5)
    lengths = _design(VORTEX_POOL, 2.5, 3.5, stride=7)
    ops = []
    for k in range(VORTEX_POOL):
        s = _r(strengths[k], 4)
        # shape k about the origin, at a fixed heading inside the first quadrant
        ends = _od_through((0.0, 0.0), offsets[k], lengths[k], (0.7 * k) % (0.5 * math.pi))
        turns = int(rng.integers(4))
        cx, cy = (float(v) for v in rng.integers(-32, 33, 2) / 64.0)  # exact binary fractions
        origin, destination = ([cx + x, cy + y] for x, y in (_quarter_turns(e, turns) for e in ends))
        scenario = {
            "origin": origin,
            "destination": destination,
            "field": f"vortex({cx!r}, {cy!r}, {s!r})",
            "explore": True,
            "restarts": VORTEX_RESTARTS,
            "nodes": ROUTE_NODES,
        }
        path = os.path.join(inputs, f"vortex_{k:02d}.json")
        _write_json(path, scenario)
        ops.append(_route_op(path, scenario, {"type": "vortex", "cx": cx, "cy": cy, "s": s}))
    return ops


def gen_route_grid(rng, inputs: str) -> list[Op]:
    axis = np.linspace(-GRID_EXTENT, GRID_EXTENT, GRID_SIZE)
    n_od = GRID_FIELDS * GRID_ODS_PER_FIELD
    strengths = _design(GRID_FIELDS, 0.4, 0.8)
    offsets = _design(n_od, -0.8, 0.8, stride=3)
    lengths = _design(n_od, 2.5, 3.5, stride=5)
    thetas = _design(n_od, 0.0, 2.0 * math.pi, stride=7)
    ops = []
    spacing = 2.0 * GRID_EXTENT / (GRID_SIZE - 1)
    for g in range(GRID_FIELDS):
        s = _r(strengths[g], 4)
        # vortex centre near a grid node: the bilinear sampling is alike across seeds
        cx, cy = (_r(spacing * v, 4) for v in rng.integers(-2, 3, 2) + rng.uniform(-0.05, 0.05, 2))
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        w = vortex_field(np.stack([xx, yy], axis=-1), cx, cy, s)
        grid_name = f"grid_{g}.csv"
        rows = ((xx[i, j], yy[i, j], w[i, j, 0], w[i, j, 1]) for i in range(GRID_SIZE) for j in range(GRID_SIZE))
        _write_csv(os.path.join(inputs, grid_name), ["x", "y", "wx", "wy"], rows)
        for k in range(g, n_od, GRID_FIELDS):  # grids alternate along the pool
            origin, destination = _od_through((cx, cy), offsets[k], lengths[k], thetas[k])
            scenario = {
                "origin": origin,
                "destination": destination,
                "field": {"grid_csv": grid_name},
                "explore": False,
                "restarts": GRID_RESTARTS,
                "nodes": ROUTE_NODES,
            }
            path = os.path.join(inputs, f"grid_od_{k:02d}.json")
            _write_json(path, scenario)
            field_spec = {"type": "grid", "csv": os.path.join(inputs, grid_name)}
            ops.append(_route_op(path, scenario, field_spec))
    return sorted(ops, key=lambda op: op.key)


# ---------------------------------------------------------------------------
# Traffic networks
# ---------------------------------------------------------------------------

def lattice_network(shape: np.random.Generator, rng: np.random.Generator, n: int, n_od: int,
                    per_od: int, demand_scale: float = 1.0) -> dict:
    """Directed n x n lattice (links east and south) with monotone routes.

    ``shape`` draws the structure: link parameters, OD pairs (a north-west
    node to a south-east node) and each OD's distinct random monotone walks.
    ``rng`` then jitters every number by up to 2 %.  BPR p = 4 everywhere;
    OD pairs alternate fixed and elastic demand, loading links to about
    capacity.
    """
    def node(i, j):
        return f"n{i}_{j}"

    def value(lo, hi):
        return _r(shape.uniform(lo, hi) * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)), 4)

    nodes = [node(i, j) for i in range(n) for j in range(n)]
    links = []
    for i in range(n):
        for j in range(n):
            for name, (di, dj) in (("e", (0, 1)), ("s", (1, 0))):
                if i + di < n and j + dj < n:
                    links.append({
                        "id": f"{name}{i}_{j}",
                        "from": node(i, j),
                        "to": node(i + di, j + dj),
                        "t0": value(1.0, 2.0),
                        "capacity": value(1.0, 3.0),
                        "bpr_b": 0.15,
                        "bpr_p": 4,
                    })
    half = n // 2
    od_pairs, routes = [], []
    for k in range(n_od):
        i0, j0 = (int(v) for v in shape.integers(0, half - 1, 2))
        i1, j1 = (int(v) for v in shape.integers(half + 1, n, 2))
        od_id = f"od{k}"
        if k % 2:
            demand = {"type": "elastic", "d0": value(2.0 * demand_scale, 4.0 * demand_scale),
                      "k": value(0.02 * demand_scale, 0.06 * demand_scale)}
        else:
            demand = {"type": "fixed", "d0": value(1.0 * demand_scale, 3.0 * demand_scale)}
        od_pairs.append({"id": od_id, "origin": node(i0, j0), "destination": node(i1, j1), "demand": demand})
        moves = ["s"] * (i1 - i0) + ["e"] * (j1 - j0)
        seen = set()
        for _ in range(50 * per_od):
            if len(seen) == per_od:
                break
            walk = tuple(shape.permutation(moves))
            if walk in seen:
                continue
            seen.add(walk)
            i, j, ids = i0, j0, []
            for m in walk:
                ids.append(f"{m}{i}_{j}")
                i, j = (i + 1, j) if m == "s" else (i, j + 1)
            routes.append({"id": f"r{k}_{len(seen) - 1}", "od": od_id, "links": ids})
    return {"nodes": nodes, "links": links, "routes": routes, "od_pairs": od_pairs}


def _shape(workload: str, k: int) -> np.random.Generator:
    """Structure stream of pool slot k: the same for every seed."""
    return np.random.default_rng([WORKLOADS.index(workload), 0, k])


def _ue_op(path: str, key: str, routes: int, demand_block: str = "per_od") -> Op:
    argv = ("solve-ue", path) if demand_block == "per_od" else ("solve-ue", path, "--demand-block", demand_block)
    return Op(
        key=key,
        kind="ue",
        argv=argv,
        spec={"network": path, "demand_block": demand_block},
        loads=(("load_network", path),),
        size=routes,
    )


def gen_ue_lattice(rng, inputs: str) -> list[Op]:
    """Networks of about 80 to 320 routes on one lattice size; total demand
    stays level as the OD count grows, so larger networks are not busier."""
    n_routes = _design(LATTICE_POOL, 80, 320, stride=5)
    ops = []
    for k in range(LATTICE_POOL):
        n_od = int(round(n_routes[k] / LATTICE_ROUTES_PER_OD))
        net = lattice_network(_shape("ue-lattice", k), rng, LATTICE_SIDE, n_od, LATTICE_ROUTES_PER_OD,
                              demand_scale=12.0 / n_od)
        key = f"lattice_{k:02d}"
        path = os.path.join(inputs, key + ".json")
        _write_json(path, net)
        ops.append(_ue_op(path, key, len(net["routes"])))
    return ops


# ---------------------------------------------------------------------------
# Small CLI commands
# ---------------------------------------------------------------------------

def affine_ncp(rng, n: int) -> dict:
    """F(x) = M x + q with M symmetric positive definite (unique solution)."""
    b = rng.normal(size=(n, n))
    m = b @ b.T / n + np.eye(n)
    q = rng.normal(size=n)
    return {"n": n, "f": {"type": "affine", "M": [[_r(v) for v in row] for row in m], "q": [_r(v) for v in q]}}


def _trajectory(shape, rng, nodes: int, with_cost: bool) -> list[tuple]:
    """Smooth positive flow on [0, 1] (shape from ``shape``, 2 % jitter from ``rng``)."""
    t = np.linspace(0.0, 1.0, nodes)
    a = shape.uniform(0.5, 1.5, 3) * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, 3))
    h = 1.0 + a[0] * t + 0.3 * np.sin(2 * math.pi * a[1] * t) ** 2
    if not with_cost:
        return [(tk, _r(hk)) for tk, hk in zip(t, h)]
    c = np.maximum(a[2] - h + 0.5 * np.cos(3 * t), 0.0)
    return [(tk, _r(hk), _r(ck)) for tk, hk, ck in zip(t, h, c)]


# Minimizer trajectories: node counts cycle through these; cost model c = a h + b.
MINIMIZE_NODES = (160, 200, 240, 200)
TRAJ_EVAL_NODES = 120  # evaluate-only trajectories


def gen_cli_small(rng, inputs: str, demo_dir: str) -> list[Op]:
    for name in DEMO_FILES:
        shutil.copyfile(os.path.join(demo_dir, name), os.path.join(inputs, name))

    def p(name):
        return os.path.join(inputs, name)

    demo = [
        Op("demo_ncp", "ncp", ("solve-ncp", p("ncp_affine.json")),
           {"problem": p("ncp_affine.json")}, (("load_ncp_problem", p("ncp_affine.json")),), 1),
        _ue_op(p("network_two_routes.json"), "demo_two_routes", 2),
        _ue_op(p("network_two_routes.json"), "demo_two_routes_per_route", 2, "per_route"),
        _ue_op(p("network_elastic.json"), "demo_elastic_per_route", 1, "per_route"),
        Op("demo_validate_network", "validate", ("validate", p("network_two_routes.json")),
           {"kind": "network"}, (("load_network", p("network_two_routes.json")),)),
        Op("demo_validate_scenario", "validate", ("validate", p("scenario_uniform.json")),
           {"kind": "scenario"}, (("load_scenario", p("scenario_uniform.json")),)),
        Op("demo_dynamic_linear", "dyn_eval", ("dynamic", p("trajectory_linear.csv"), "--variant", "half_phi"),
           {"trajectory": p("trajectory_linear.csv"), "variant": "half_phi", "model": None},
           (("read_trajectory_csv", p("trajectory_linear.csv")),), 1000),
        Op("demo_dynamic_constant", "dyn_eval",
           ("dynamic", p("trajectory_constant.csv"), "--cost-model", "identity"),
           {"trajectory": p("trajectory_constant.csv"), "variant": "half_phi_squared", "model": (1.0, 0.0)},
           (("read_trajectory_csv", p("trajectory_constant.csv")),), 101),
    ]
    ops = []
    for k in range(CLI_CYCLES):
        shape = _shape("cli-small", k)
        net = lattice_network(shape, rng, 5, 4 + k % 3, 6)
        net_path = p(f"small_net_{k}.json")
        _write_json(net_path, net)
        ncp_path = p(f"small_ncp_{k}.json")
        _write_json(ncp_path, affine_ncp(rng, 6 + 3 * k))
        eval_path = p(f"traj_eval_{k}.csv")
        _write_csv(eval_path, ["t", "h", "c"], _trajectory(shape, rng, TRAJ_EVAL_NODES, True))
        min_path = p(f"traj_min_{k}.csv")
        _write_csv(min_path, ["t", "h"], _trajectory(shape, rng, MINIMIZE_NODES[k % len(MINIMIZE_NODES)], False))
        jitter = 1.0 + 0.02 * rng.uniform(-1.0, 1.0, 2)
        a, b = _r(shape.uniform(0.5, 1.5) * jitter[0], 4), _r(shape.uniform(-2.5, -1.5) * jitter[1], 4)
        model = f"affine({a!r},{b!r})"
        seeded = [
            _ue_op(net_path, f"small_net_{k}", len(net["routes"])),
            Op(f"small_ncp_{k}", "ncp", ("solve-ncp", ncp_path), {"problem": ncp_path},
               (("load_ncp_problem", ncp_path),), 6 + 3 * k),
            Op(f"traj_eval_{k}", "dyn_eval", ("dynamic", eval_path),
               {"trajectory": eval_path, "variant": "half_phi_squared", "model": None},
               (("read_trajectory_csv", eval_path),), TRAJ_EVAL_NODES),
            Op(f"validate_ncp_{k}", "validate", ("validate", ncp_path), {"kind": "ncp_problem"},
               (("load_ncp_problem", ncp_path),)),
            Op(f"traj_min_{k}", "dyn_min", ("dynamic", min_path, "--cost-model", model, "--minimize"),
               {"trajectory": min_path, "variant": "half_phi_squared", "model": (a, b)},
               (("read_trajectory_csv", min_path),), MINIMIZE_NODES[k % len(MINIMIZE_NODES)]),
        ]
        # one cycle: every demo command, four seeded short ops, one minimizer op
        ops += demo[:5] if k % 2 == 0 else demo[3:]
        ops += seeded
    return ops


def generate(workload: str, seed: int, inputs: str, demo_dir: str) -> list[Op]:
    """Write the inputs of one run into ``inputs`` and return its op pool."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(inputs, exist_ok=True)
    rng = _rng(workload, seed)
    if workload == "route-vortex":
        return gen_route_vortex(rng, inputs)
    if workload == "route-grid":
        return gen_route_grid(rng, inputs)
    if workload == "ue-lattice":
        return gen_ue_lattice(rng, inputs)
    return gen_cli_small(rng, inputs, demo_dir)
