"""Independent checks of each operation's artifacts.

Nothing here imports congeo: travel times, Wardrop conditions, NCP
complementarity and the dynamic merit are recomputed with the benchmark's
own arithmetic from the generated inputs and the files the command wrote.

A check returns a ``Verdict``:

* ``ok``: the command reported success and its artifacts bear that out;
* ``unsolved``: the command told the truth but delivered no acceptable
  answer (solver non-convergence reported with exit code 2, or a converged
  route that is slower than the straight chord);
* ``wrong``: the artifacts contradict what the command reported, or the
  command crashed or rejected a valid input.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

EXIT_OK, EXIT_INPUT, EXIT_NONCONVERGED = 0, 1, 2

# Slack for values that went through a 17-digit text round trip.
REL_TOL = 1e-9
# Equilibrium/complementarity slack, relative to the problem's scale; the
# solvers stop at a Fischer-Burmeister residual of 1e-8.
KKT_TOL = 1e-6
# A recomputed travel time may differ from the reported one by this share:
# the benchmark differentiates the written polyline, the solver used the
# integrator's own velocities.
LENGTH_RTOL = 0.05


@dataclass(frozen=True)
class Verdict:
    status: str  # ok | unsolved | wrong
    reason: str = ""
    route_ratio: float | None = None  # travel_time / chord_time of a converged route


OK = Verdict("ok")


def _unsolved(reason: str) -> Verdict:
    return Verdict("unsolved", reason)


def _wrong(reason: str) -> Verdict:
    return Verdict("wrong", reason)


def artifact_hash(out_dir: str) -> str:
    """SHA-256 over the result artifacts, leaving out ``*_summary.json``."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith("_summary.json"):
            continue
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return [h.strip() for h in rows[0]], rows[1:]


def _numeric_table(path: str, header: list[str]) -> np.ndarray:
    got, rows = _read_table(path)
    if got != header:
        raise ValueError(f"{os.path.basename(path)}: header {got} != {header}")
    return np.array([[float(v) for v in row] for row in rows])


def _keyed(path: str, key: str, value: str) -> dict[str, float]:
    header, rows = _read_table(path)
    if header != [key, value]:
        raise ValueError(f"{os.path.basename(path)}: header {header} != {[key, value]}")
    return {row[0]: float(row[1]) for row in rows}


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def fb_phi(a, b):
    return np.sqrt(a * a + b * b) - a - b


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

class BilinearGrid:
    """Bilinear interpolation of a congestion grid CSV (x, y, wx, wy)."""

    def __init__(self, path: str):
        data = _numeric_table(path, ["x", "y", "wx", "wy"])
        self.xs = np.unique(data[:, 0])
        self.ys = np.unique(data[:, 1])
        self.w = data[:, 2:4].reshape(len(self.xs), len(self.ys), 2)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        xs, ys, w = self.xs, self.ys, self.w
        i = np.clip(np.searchsorted(xs, pts[:, 0]) - 1, 0, len(xs) - 2)
        j = np.clip(np.searchsorted(ys, pts[:, 1]) - 1, 0, len(ys) - 2)
        tx = ((pts[:, 0] - xs[i]) / (xs[i + 1] - xs[i]))[:, None]
        ty = ((pts[:, 1] - ys[j]) / (ys[j + 1] - ys[j]))[:, None]
        return ((1 - tx) * (1 - ty) * w[i, j] + tx * (1 - ty) * w[i + 1, j]
                + (1 - tx) * ty * w[i, j + 1] + tx * ty * w[i + 1, j + 1])


def congestion(field: dict):
    if field["type"] == "vortex":
        c = np.array([field["cx"], field["cy"]])
        s = field["s"]

        def vortex(pts):
            u = pts - c
            env = s * np.exp((1.0 - np.sum(u * u, axis=1)) / 2.0)
            return np.stack([-env * u[:, 1], env * u[:, 0]], axis=1)

        return vortex
    return BilinearGrid(field["csv"])


def randers_speed(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F(x, y) over the Euclidean base: (|y| + w.y) / (1 - |w|^2)."""
    lam = 1.0 - np.sum(w * w, axis=1)
    return (np.linalg.norm(y, axis=1) + np.sum(w * y, axis=1)) / lam


def chord_time(field, p: np.ndarray, q: np.ndarray, nodes: int) -> float:
    t = np.linspace(0.0, 1.0, nodes)
    pts = p[None, :] + t[:, None] * (q - p)[None, :]
    y = np.broadcast_to(q - p, pts.shape)
    return _trapezoid(randers_speed(field(pts), y), t)


def polyline_time(field, t: np.ndarray, pts: np.ndarray) -> float:
    y = np.gradient(pts, t, axis=0, edge_order=2)
    return _trapezoid(randers_speed(field(pts), y), t)


def check_route(spec: dict, out_dir: str, code: int) -> Verdict:
    stem = spec["stem"]
    summary = _load(os.path.join(out_dir, "route_summary.json"))
    entry = summary["results"].get(stem, {})
    if "error" in entry:
        if code != EXIT_NONCONVERGED:
            return _wrong(f"route error with exit {code}: {entry['error']}")
        return _unsolved("domain_error")
    claim = _load(os.path.join(out_dir, f"{stem}_summary.json"))
    table = _numeric_table(os.path.join(out_dir, f"{stem}_route.csv"), ["t", "x", "y"])
    t, pts = table[:, 0], table[:, 1:]
    p = np.array(spec["origin"], dtype=float)
    q = np.array(spec["destination"], dtype=float)
    field = congestion(spec["field"])
    if pts.shape[0] != spec["nodes"] or t[0] != 0.0 or t[-1] != 1.0:
        return _wrong("route polyline has the wrong node grid")
    if np.linalg.norm(pts[0] - p) > REL_TOL * max(1.0, np.linalg.norm(p)):
        return _wrong("route does not start at the origin")
    err = float(np.linalg.norm(pts[-1] - q))
    if abs(err - claim["endpoint_error"]) > 1e-12 + 1e-6 * err:
        return _wrong(f"endpoint error {err:.3e} != reported {claim['endpoint_error']:.3e}")
    chord = chord_time(field, p, q, spec["nodes"])
    if abs(chord - claim["chord_time"]) > 1e-6 * abs(chord):
        return _wrong(f"chord time {chord:.9g} != reported {claim['chord_time']:.9g}")
    travel = claim["travel_time"]
    if abs(polyline_time(field, t, pts) - travel) > LENGTH_RTOL * abs(travel):
        return _wrong("reported travel time does not match the written route")
    if code == EXIT_NONCONVERGED:
        if claim["converged"] or err <= spec["tol"]:
            return _wrong("exit 2 but the route reaches the destination")
        return _unsolved("nonconverged")
    if code != EXIT_OK or not claim["converged"]:
        return _wrong(f"exit {code} with converged={claim['converged']}")
    if err > spec["tol"]:
        return _wrong(f"converged route ends {err:.3e} from the destination")
    ratio = travel / chord
    if travel > chord + 1e-8:
        return Verdict("unsolved", "slower_than_chord", ratio)
    return Verdict("ok", "", ratio)


# ---------------------------------------------------------------------------
# Traffic equilibria
# ---------------------------------------------------------------------------

def demand(spec: dict, pi: float) -> float:
    if spec["type"] == "fixed":
        return float(spec["d0"])
    return max(0.0, spec["d0"] - spec["k"] * pi)


def wardrop_violation(network: dict, flows: dict, times: dict, demand_block: str) -> float:
    """Largest violation of the equilibrium conditions, relative to scale.

    Recomputes BPR link times from route flows, then checks nonnegativity,
    c_r >= pi, h_r (c_r - pi) = 0, served >= demand and pi (served - demand) = 0.
    """
    links = {l["id"]: i for i, l in enumerate(network["links"])}
    t0 = np.array([l["t0"] for l in network["links"]], dtype=float)
    cap = np.array([l["capacity"] for l in network["links"]], dtype=float)
    b = np.array([l.get("bpr_b", 0.15) for l in network["links"]], dtype=float)
    pw = np.array([l.get("bpr_p", 4) for l in network["links"]], dtype=float)
    routes = network["routes"]
    od_of = {od["id"]: od for od in network["od_pairs"]}
    if set(flows) != {r["id"] for r in routes}:
        raise ValueError("flow table does not list exactly the network's routes")
    keys = [od["id"] for od in network["od_pairs"]] if demand_block == "per_od" else [r["id"] for r in routes]
    if set(times) != set(keys):
        raise ValueError("time table does not list exactly the expected keys")
    h = np.array([flows[r["id"]] for r in routes])
    v = np.zeros(len(t0))
    for r, hr in zip(routes, h):
        for lid in r["links"]:
            v[links[lid]] += hr
    link_t = t0 * (1.0 + b * (np.maximum(v, 0.0) / cap) ** pw)
    cost = np.array([sum(link_t[links[lid]] for lid in r["links"]) for r in routes])
    if demand_block == "per_od":
        pi_r = np.array([times[r["od"]] for r in routes])
        pi = np.array([times[k] for k in keys])
        served = np.array([sum(hr for r, hr in zip(routes, h) if r["od"] == k) for k in keys])
        dem = np.array([demand(od_of[k]["demand"], times[k]) for k in keys])
    else:
        pi_r = pi = np.array([times[r["id"]] for r in routes])
        served = h
        dem = np.array([demand(od_of[r["od"]]["demand"], times[r["id"]]) for r in routes])
    scale = max(1.0, float(np.max(np.abs(cost))), float(np.max(np.abs(h))))
    gap = served - dem
    signs = max(
        float(np.max(-h, initial=0.0)),
        float(np.max(pi_r - cost, initial=0.0)),
        float(np.max(-pi, initial=0.0)),
        float(np.max(-gap, initial=0.0)),
    )
    products = max(float(np.max(np.abs(h * (cost - pi_r)))), float(np.max(np.abs(pi * gap))))
    return max(signs / scale, products / scale**2)


def check_ue(spec: dict, out_dir: str, code: int) -> Verdict:
    status = _load(os.path.join(out_dir, "solve-ue_summary.json"))["status"]
    network = _load(spec["network"])
    block = spec["demand_block"]
    key = "od" if block == "per_od" else "route"
    flows = _keyed(os.path.join(out_dir, "ue_flows.csv"), "route", "flow")
    times = _keyed(os.path.join(out_dir, "ue_times.csv"), key, "time")
    if code == EXIT_NONCONVERGED and status != "converged":
        return _unsolved(status)
    if code != EXIT_OK or status != "converged":
        return _wrong(f"exit {code} with status {status}")
    violation = wardrop_violation(network, flows, times, block)
    if violation > KKT_TOL:
        return _wrong(f"Wardrop conditions violated by {violation:.3e}")
    return OK


# ---------------------------------------------------------------------------
# Complementarity problems and the dynamic merit
# ---------------------------------------------------------------------------

def ncp_map(problem: dict, x: np.ndarray) -> np.ndarray:
    """F(x) = M x + q of an affine problem (the only family the workloads use)."""
    f = problem["f"]
    if f["type"] != "affine":
        raise ValueError(f"no independent map for NCP family {f['type']!r}")
    return np.array(f["M"], dtype=float) @ x + np.array(f["q"], dtype=float)


def check_ncp(spec: dict, out_dir: str, code: int) -> Verdict:
    sol = _load(os.path.join(out_dir, "ncp_solution.json"))
    if code == EXIT_NONCONVERGED and sol["status"] != "converged":
        return _unsolved(sol["status"])
    if code != EXIT_OK or sol["status"] != "converged":
        return _wrong(f"exit {code} with status {sol['status']}")
    x = np.array(sol["x_star"], dtype=float)
    fx = ncp_map(_load(spec["problem"]), x)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(fx))))
    worst = max(float(np.max(-x, initial=0.0)), float(np.max(-fx, initial=0.0)), abs(float(x @ fx)) / scale)
    if worst > KKT_TOL * scale:
        return _wrong(f"complementarity violated by {worst:.3e}")
    return OK


def psi(h: np.ndarray, c: np.ndarray, variant: str) -> np.ndarray:
    phi = fb_phi(h, c)
    return 0.5 * phi if variant == "half_phi" else 0.5 * phi * phi


def merit(t: np.ndarray, h: np.ndarray, c: np.ndarray, variant: str) -> float:
    return _trapezoid(psi(h, c, variant), t)


def _trajectory(spec: dict, path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    header, _ = _read_table(path)
    table = _numeric_table(path, header)
    t, h = table[:, 0], table[:, 1]
    if spec["model"] is not None:
        a, b = spec["model"]
        return t, h, a * h + b
    return t, h, table[:, 2]


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-12 + REL_TOL * max(abs(x), abs(y))


def check_dyn_eval(spec: dict, out_dir: str, code: int) -> Verdict:
    if code != EXIT_OK:
        return _wrong(f"exit {code}")
    results = _load(os.path.join(out_dir, "dynamic_summary.json"))["results"]
    t, h, c = _trajectory(spec, spec["trajectory"])
    m = merit(t, h, c, spec["variant"])
    if not _close(m, results["complementarity_merit"]):
        return _wrong(f"merit {results['complementarity_merit']!r} != recomputed {m!r}")
    gap = _trapezoid(psi(h, c, spec["variant"]) * np.gradient(h, t, edge_order=1), t)
    if not _close(gap, results["gap"]):
        return _wrong(f"gap {results['gap']!r} != recomputed {gap!r}")
    return OK


def check_dyn_min(spec: dict, out_dir: str, code: int) -> Verdict:
    results = _load(os.path.join(out_dir, "dynamic_summary.json"))["results"]
    t0, h0, c0 = _trajectory(spec, spec["trajectory"])
    initial = merit(t0, np.maximum(h0, 0.0), c0, spec["variant"])
    table = _numeric_table(os.path.join(out_dir, "dynamic_minimized.csv"), ["t", "h", "c"])
    t, h, c = table[:, 0], table[:, 1], table[:, 2]
    a, b = spec["model"]
    if not np.array_equal(t, t0) or np.any(h < 0):
        return _wrong("minimized trajectory leaves the grid or the nonnegative orthant")
    if np.max(np.abs(c - (a * h + b))) > 1e-9 * max(1.0, float(np.max(np.abs(c)))):
        return _wrong("minimized costs do not follow the cost model")
    final = merit(t, h, c, spec["variant"])
    if final > initial * (1 + REL_TOL) + 1e-15:
        return _wrong(f"minimized merit {final!r} exceeds the initial {initial!r}")
    if not _close(final, results["minimized_objective"]):
        return _wrong(f"reported objective {results['minimized_objective']!r} != recomputed {final!r}")
    if code == EXIT_NONCONVERGED and not results["minimizer_converged"]:
        return _unsolved("nonconverged")
    if code != EXIT_OK:
        return _wrong(f"exit {code}")
    return OK


def check_validate(spec: dict, out_dir: str, code: int) -> Verdict:
    report = _load(os.path.join(out_dir, "validate_report.json"))
    if code != EXIT_OK or not report["ok"] or report["kind"] != spec["kind"]:
        return _wrong(f"valid {spec['kind']} reported as {report['kind']}, ok={report['ok']}")
    return OK


CHECKERS = {
    "route": check_route,
    "ue": check_ue,
    "ncp": check_ncp,
    "dyn_eval": check_dyn_eval,
    "dyn_min": check_dyn_min,
    "validate": check_validate,
}


def check(kind: str, spec: dict, out_dir: str, code: int) -> Verdict:
    """Check one op; a missing or unreadable artifact is a wrong result."""
    if code == EXIT_INPUT:
        return _wrong("valid input rejected (exit 1)")
    try:
        return CHECKERS[kind](spec, out_dir, code)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _wrong(f"unreadable artifacts: {type(exc).__name__}: {exc}")
