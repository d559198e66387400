"""Readers and writers for every on-disk format the CLI touches.

All emitted floats are printed with 17 significant digits so that every
JSON/CSV artifact re-parses to bit-identical values.  Readers are strict:
unknown fields, wrong types, non-finite numbers and malformed shapes raise
SchemaError with a field path (``path:line`` for CSV tables), which the CLI
maps to exit code 1.  Every CSV table is read by ``_read_table`` and
written by ``_write_table``.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from .dynamic import Trajectory
from .finsler import CongestionField, euclidean_metric, grid_congestion, parse_congestion_spec
from .geodesic import BvpConfig, Curve
from .ncp import NcpProblem, free_block
from .routing import RoutingScenario
from .traffic import (
    ElasticDemand,
    FixedDemand,
    Link,
    OdPair,
    Route,
    TrafficNetwork,
    UeSolution,
)

__all__ = [
    "SchemaError",
    "fmt_float",
    "dump_json",
    "load_json",
    "load_network",
    "load_ncp_problem",
    "load_scenario",
    "load_congestion_grid",
    "save_congestion_grid",
    "load_congestion_spec",
    "write_curve_csv",
    "read_curve_csv",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_flows_csv",
    "read_flows_csv",
    "write_times_csv",
    "read_times_csv",
    "write_curve_svg",
]


class SchemaError(ValueError):
    """Malformed input file: wrong type, missing or unknown field, bad shape."""


# ---------------------------------------------------------------------------
# JSON with controlled float formatting
# ---------------------------------------------------------------------------

def fmt_float(v: float) -> str:
    v = float(v)
    if not np.isfinite(v):
        raise ValueError(f"refusing to serialize non-finite float {v}")
    return format(v, ".17g")


def _encode(obj: Any, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_encode(v, indent + 2)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_encode(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj: Any, path: str | None = None) -> str:
    text = _encode(obj, 0) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# Strict object validation
# ---------------------------------------------------------------------------

@functools.cache
def _key_sets(required: tuple[str, ...], optional: tuple[str, ...]) -> tuple[frozenset, frozenset]:
    """The required keys and all allowed keys of an object, as sets."""
    return frozenset(required), frozenset(required + optional)


def _check_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    needed, allowed = _key_sets(required, optional)
    if needed <= obj.keys() <= allowed:
        return
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing field(s) {missing}")
    raise SchemaError(f"{where}: unknown field(s) {sorted(obj.keys() - allowed)}")


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}.{key}: expected a number, got {v!r}")
    if not -sys.float_info.max <= v <= sys.float_info.max:  # NaN, Infinity, 1e999, ints past float range
        raise SchemaError(f"{where}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _integer(obj: dict, key: str, where: str, nonnegative: bool = False) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int) or (nonnegative and v < 0):
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise SchemaError(f"{where}.{key}: expected {kind}, got {v!r}")
    return v


def _boolean(obj: dict, key: str, where: str) -> bool:
    v = obj[key]
    if not isinstance(v, bool):
        raise SchemaError(f"{where}.{key}: expected a boolean, got {v!r}")
    return v


def _string(obj: dict, key: str, where: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise SchemaError(f"{where}.{key}: expected a string, got {v!r}")
    return v


def _list(obj: dict, key: str, where: str) -> list:
    v = obj[key]
    if not isinstance(v, list):
        raise SchemaError(f"{where}.{key}: expected a list")
    return v


def _string_list(obj: dict, key: str, where: str) -> list[str]:
    v = obj[key]
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise SchemaError(f"{where}.{key}: expected a list of strings")
    return v


def _matrix(obj: dict, key: str, where: str) -> np.ndarray:
    v = obj[key]
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{where}.{key}: expected a numeric matrix") from None
    if arr.ndim != 2:
        raise SchemaError(f"{where}.{key}: expected a 2-d matrix, got shape {arr.shape}")
    return _finite(arr, key, where)


def _vector(obj: dict, key: str, where: str) -> np.ndarray:
    v = obj[key]
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{where}.{key}: expected a numeric vector") from None
    if arr.ndim != 1:
        raise SchemaError(f"{where}.{key}: expected a 1-d vector, got shape {arr.shape}")
    return _finite(arr, key, where)


def _finite(arr: np.ndarray, key: str, where: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}.{key}: expected finite numbers")
    return arr


def _as_dict(source) -> dict:
    if isinstance(source, dict):
        return source
    return load_json(os.fspath(source))


# ---------------------------------------------------------------------------
# Traffic network JSON
# ---------------------------------------------------------------------------

def load_network(source) -> TrafficNetwork:
    """Parse the network schema; every structural invariant violation is a
    SchemaError naming the offending element."""
    doc = _as_dict(source)
    _check_keys(doc, ("nodes", "links", "routes", "od_pairs"), (), "network")
    nodes = _string_list(doc, "nodes", "network")

    links = []
    for i, raw in enumerate(_list(doc, "links", "network")):
        where = f"links[{i}]"
        _check_keys(raw, ("id", "from", "to", "t0", "capacity"), ("bpr_b", "bpr_p"), where)
        kwargs = {}
        if "bpr_b" in raw:
            kwargs["bpr_b"] = _number(raw, "bpr_b", where)
        if "bpr_p" in raw:
            kwargs["bpr_p"] = _number(raw, "bpr_p", where)
        try:
            links.append(
                Link(
                    id=_string(raw, "id", where),
                    from_node=_string(raw, "from", where),
                    to_node=_string(raw, "to", where),
                    t0=_number(raw, "t0", where),
                    capacity=_number(raw, "capacity", where),
                    **kwargs,
                )
            )
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None

    routes = []
    for i, raw in enumerate(_list(doc, "routes", "network")):
        where = f"routes[{i}]"
        _check_keys(raw, ("id", "od", "links"), (), where)
        try:
            routes.append(
                Route(
                    id=_string(raw, "id", where),
                    od=_string(raw, "od", where),
                    links=tuple(_string_list(raw, "links", where)),
                )
            )
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None

    od_pairs = []
    for i, raw in enumerate(_list(doc, "od_pairs", "network")):
        where = f"od_pairs[{i}]"
        _check_keys(raw, ("id", "origin", "destination", "demand"), (), where)
        dem_raw = raw["demand"]
        dwhere = f"{where}.demand"
        if not isinstance(dem_raw, dict) or "type" not in dem_raw:
            raise SchemaError(f"{dwhere}: expected an object with a 'type' field")
        dtype = dem_raw["type"]
        try:
            if dtype == "fixed":
                _check_keys(dem_raw, ("type", "d0"), (), dwhere)
                demand = FixedDemand(_number(dem_raw, "d0", dwhere))
            elif dtype == "elastic":
                _check_keys(dem_raw, ("type", "d0", "k"), (), dwhere)
                demand = ElasticDemand(_number(dem_raw, "d0", dwhere), _number(dem_raw, "k", dwhere))
            else:
                raise SchemaError(f"{dwhere}.type: must be 'fixed' or 'elastic', got {dtype!r}")
            od_pairs.append(
                OdPair(
                    id=_string(raw, "id", where),
                    origin=_string(raw, "origin", where),
                    destination=_string(raw, "destination", where),
                    demand=demand,
                )
            )
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None

    try:
        return TrafficNetwork(
            nodes=tuple(nodes), links=tuple(links), routes=tuple(routes), od_pairs=tuple(od_pairs)
        )
    except ValueError as exc:
        raise SchemaError(f"network: {exc}") from None


# ---------------------------------------------------------------------------
# NCP problem JSON (closed set of named map families; no code evaluation)
# ---------------------------------------------------------------------------

def load_ncp_problem(source) -> NcpProblem:
    """Problem schema: {"n": int, "f": {"type": "affine"|"quadratic", ...}}.

    ``affine``: F(x) = M x + q.  ``quadratic``: F(x) = a*x^2 + M x + q with
    the square taken componentwise (a nonnegative keeps F monotone on the
    nonnegative orthant).
    """
    doc = _as_dict(source)
    _check_keys(doc, ("n", "f"), (), "problem")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError(f"problem.n: expected a positive integer, got {n!r}")
    spec = doc["f"]
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError("problem.f: expected an object with a 'type' field")
    ftype = spec["type"]
    if ftype == "affine":
        _check_keys(spec, ("type", "M", "q"), (), "problem.f")
        M = _matrix(spec, "M", "problem.f")
        q = _vector(spec, "q", "problem.f")
        if M.shape != (n, n) or q.shape != (n,):
            raise SchemaError(f"problem.f: M must be {n}x{n} and q length {n}")
        return NcpProblem(n=n, f=lambda x: M @ x + q, jacobian=lambda x, free: free_block(M, free))
    if ftype == "quadratic":
        _check_keys(spec, ("type", "a", "M", "q"), (), "problem.f")
        a = _vector(spec, "a", "problem.f")
        M = _matrix(spec, "M", "problem.f")
        q = _vector(spec, "q", "problem.f")
        if a.shape != (n,) or M.shape != (n, n) or q.shape != (n,):
            raise SchemaError(f"problem.f: a, q must have length {n} and M be {n}x{n}")
        return NcpProblem(
            n=n,
            f=lambda x: a * x * x + M @ x + q,
            jacobian=lambda x, free: np.diag((2.0 * a * x)[free]) + free_block(M, free),
        )
    raise SchemaError(f"problem.f.type: unknown family {ftype!r}")


# ---------------------------------------------------------------------------
# Congestion grids (CSV) and field specs
# ---------------------------------------------------------------------------

GRID_HEADER = ["x", "y", "wx", "wy"]


def save_congestion_grid(path: str, xs, ys, vectors) -> None:
    """Row-major rectangular dump: x is the outer (slowest) coordinate."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    columns = (np.repeat(xs, len(ys)), np.tile(ys, len(xs)), vectors[..., 0].ravel(), vectors[..., 1].ravel())
    _write_table(path, GRID_HEADER, columns)


def load_congestion_grid(path: str) -> CongestionField:
    _, data = _read_table(path, [GRID_HEADER])
    if not len(data):
        raise SchemaError(f"{path}: no grid rows")
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    nx, ny = len(xs), len(ys)
    if nx < 2 or ny < 2:
        raise SchemaError(f"{path}: grid needs at least 2 distinct coordinates per axis")
    if len(data) != nx * ny:
        raise SchemaError(f"{path}: expected {nx * ny} rows for a {nx}x{ny} grid, got {len(data)}")
    expected_x = np.repeat(xs, ny)
    expected_y = np.tile(ys, nx)
    if not (np.array_equal(data[:, 0], expected_x) and np.array_equal(data[:, 1], expected_y)):
        raise SchemaError(f"{path}: rows must sweep y fastest with x then y strictly increasing")
    vectors = data[:, 2:4].reshape(nx, ny, 2)
    try:
        return grid_congestion(xs, ys, vectors)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def load_congestion_spec(spec, base_dir: str = ".") -> CongestionField:
    """Field spec: a preset string or {"grid_csv": path} (path relative to
    the referencing file)."""
    if isinstance(spec, str):
        try:
            return parse_congestion_spec(spec)
        except ValueError as exc:
            raise SchemaError(f"field: {exc}") from None
    if isinstance(spec, dict):
        _check_keys(spec, ("grid_csv",), (), "field")
        rel = _string(spec, "grid_csv", "field")
        return load_congestion_grid(os.path.join(base_dir, rel))
    raise SchemaError(f"field: expected a preset string or grid reference, got {spec!r}")


# ---------------------------------------------------------------------------
# Routing scenario JSON
# ---------------------------------------------------------------------------

def load_scenario(source, base_dir: str | None = None) -> RoutingScenario:
    if isinstance(source, dict):
        doc = source
        base = base_dir or "."
    else:
        doc = load_json(os.fspath(source))
        base = base_dir or os.path.dirname(os.path.abspath(os.fspath(source)))
    _check_keys(
        doc,
        ("origin", "destination", "field"),
        ("metric", "tol", "nodes", "seed", "explore", "restarts", "eps_cong", "box_margin"),
        "scenario",
    )
    origin = _vector(doc, "origin", "scenario")
    destination = _vector(doc, "destination", "scenario")
    if origin.shape != (2,) or destination.shape != (2,):
        raise SchemaError("scenario: origin and destination must be [x, y] pairs")
    metric_name = doc.get("metric", "euclidean")
    if metric_name != "euclidean":
        raise SchemaError(f"scenario.metric: only 'euclidean' is available, got {metric_name!r}")
    field = load_congestion_spec(doc["field"], base)
    bvp_kwargs = {"explore": True}
    if "tol" in doc:
        bvp_kwargs["tol"] = _number(doc, "tol", "scenario")
    if "nodes" in doc:
        bvp_kwargs["nodes"] = _integer(doc, "nodes", "scenario")
    for key in ("seed", "restarts"):
        if key in doc:
            bvp_kwargs[key] = _integer(doc, key, "scenario", nonnegative=True)
    if "explore" in doc:
        bvp_kwargs["explore"] = _boolean(doc, "explore", "scenario")
    kwargs = {}
    if "eps_cong" in doc:
        kwargs["eps_cong"] = _number(doc, "eps_cong", "scenario")
    if "box_margin" in doc:
        kwargs["box_margin"] = _number(doc, "box_margin", "scenario")
    try:
        return RoutingScenario(
            origin=tuple(origin),
            destination=tuple(destination),
            metric=euclidean_metric(),
            congestion=field,
            bvp=BvpConfig(**bvp_kwargs),
            **kwargs,
        )
    except ValueError as exc:
        raise SchemaError(f"scenario: {exc}") from None


# ---------------------------------------------------------------------------
# Curve / trajectory / solution tables (CSV)
# ---------------------------------------------------------------------------

def _read_table(path: str, headers: list[list[str]], keyed: bool = False):
    """Read a CSV table whose header is one of ``headers``.

    Returns ``(keys, data)``: the first field of each row as a string when
    ``keyed`` (else an empty list), and the other fields as a float array
    with one row per table row.  Blank rows are skipped; a wrong header,
    field count or number, or a non-finite value, is a SchemaError naming
    ``path:line``.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if header not in headers:
            raise SchemaError(f"{path}:1: header must be {' or '.join(','.join(h) for h in headers)}")
        keys, values, blank = [], [], []  # flat: a list per row would raise the peak memory of a read
        for ln, row in enumerate(reader, start=2):
            if not row:
                blank.append(ln)
                continue
            if len(row) != len(header):
                raise SchemaError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
            if keyed:
                keys.append(row[0])
            try:
                values.extend(map(float, row[keyed:]))
            except ValueError:
                raise SchemaError(f"{path}:{ln}: non-numeric value") from None
    width = len(header) - keyed
    data = np.array(values, dtype=float).reshape(len(values) // width, width)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        ln = int(finite.argmin()) + 2
        for skipped in blank:  # ascending, so each shift moves past earlier ones
            ln += skipped <= ln
        raise SchemaError(f"{path}:{ln}: non-finite value")
    return keys, data


def _write_table(path: str, header: Sequence[str], columns) -> None:
    """Write one CSV row per index of ``columns`` (one sequence per header
    field): strings as they are, numbers through ``fmt_float``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*((v if isinstance(v, str) else fmt_float(v) for v in col) for col in columns)))


def write_curve_csv(path: str, curve: Curve) -> None:
    _write_table(path, ["t", "x", "y"], (curve.params, curve.points[:, 0], curve.points[:, 1]))


def read_curve_csv(path: str) -> Curve:
    _, data = _read_table(path, [["t", "x", "y"]])
    try:
        return Curve(params=data[:, 0], points=data[:, 1:])
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def write_trajectory_csv(path: str, traj: Trajectory, include_cost: bool = True) -> None:
    columns = (traj.grid, traj.h, traj.c) if include_cost else (traj.grid, traj.h)
    _write_table(path, ["t", "h", "c"][: len(columns)], columns)


def read_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (grid, h, c-or-None); attach a cost model downstream if c is absent."""
    _, data = _read_table(path, [["t", "h"], ["t", "h", "c"]])
    if len(data) < 3:
        raise SchemaError(f"{path}: trajectory needs at least three rows")
    columns = data.T.copy()  # contiguous columns
    return columns[0], columns[1], columns[2] if len(columns) == 3 else None


def write_flows_csv(path: str, solution: UeSolution) -> None:
    _write_table(path, ["route", "flow"], (solution.route_ids, solution.h))


def read_flows_csv(path: str) -> dict[str, float]:
    keys, data = _read_table(path, [["route", "flow"]], keyed=True)
    return dict(zip(keys, data[:, 0].tolist()))


def write_times_csv(path: str, solution: UeSolution, key: str = "od") -> None:
    """OD times under the header ``key,time`` (``route`` for a route-split network)."""
    _write_table(path, [key, "time"], (solution.od_ids, solution.pi))


def read_times_csv(path: str) -> dict[str, float]:
    keys, data = _read_table(path, [["od", "time"], ["route", "time"]], keyed=True)
    return dict(zip(keys, data[:, 0].tolist()))


# Margin of the SVG viewBox on each side, as a fraction of the curve's larger extent.
SVG_PAD_FRAC = 0.05


def write_curve_svg(path: str, curve: Curve) -> None:
    """Minimal SVG polyline with a viewBox fitted to the curve."""
    pts = curve.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = SVG_PAD_FRAC * float(np.max(span))
    origin = lo - pad
    size = span + 2 * pad
    # SVG y grows downward; mirror the second coordinate inside the box
    flip = float(lo[1] + hi[1])
    coords = " ".join(f"{fmt_float(p[0])},{fmt_float(flip - p[1])}" for p in pts)
    view = f"{fmt_float(origin[0])} {fmt_float(origin[1])} {fmt_float(size[0])} {fmt_float(size[1])}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">'
            f'<polyline fill="none" stroke="black" stroke-width="{fmt_float(0.01 * float(np.max(size)))}" '
            f'points="{coords}"/></svg>\n'
        )
