"""Tests of the benchmark's own code (generators, checkers, span arithmetic).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402

DEMO = os.path.join(ROOT, "demo")


def _tree(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_byte_identical_for_a_seed(tmp_path, workload):
    pools = []
    for name in ("a", "b"):
        pools.append(workloads.generate(workload, 7, str(tmp_path / name), DEMO))
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    strip = [[(op.key, op.kind, op.argv[0]) for op in pool] for pool in pools]
    assert strip[0] == strip[1]
    workloads.generate(workload, 8, str(tmp_path / "c"), DEMO)
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def _run_op(op, out):
    from congeo import cli

    return cli.main([*op.argv, "--out", str(out), "--jobs", "1"])


def test_ue_checker_rejects_a_changed_flow(tmp_path, capsys):
    net = workloads.lattice_network(np.random.default_rng(0), np.random.default_rng(1), 5, 4, 6)
    path = tmp_path / "net.json"
    workloads._write_json(str(path), net)
    op = workloads._ue_op(str(path), "net", len(net["routes"]))
    out = tmp_path / "out"
    code = _run_op(op, out)
    assert code == 0
    assert checks.check("ue", op.spec, str(out), code).status == "ok"
    flows = (out / "ue_flows.csv").read_text().splitlines()
    rid, value = flows[1].split(",")
    flows[1] = f"{rid},{float(value) + 0.05!r}"
    (out / "ue_flows.csv").write_text("\n".join(flows) + "\n")
    verdict = checks.check("ue", op.spec, str(out), code)
    assert verdict.status == "wrong" and "Wardrop" in verdict.reason


def test_ncp_checker_rejects_a_negative_component(tmp_path, capsys):
    path = tmp_path / "p.json"
    workloads._write_json(str(path), workloads.affine_ncp(np.random.default_rng(1), 5))
    op = workloads.Op("p", "ncp", ("solve-ncp", str(path)), {"problem": str(path)})
    out = tmp_path / "out"
    code = _run_op(op, out)
    assert checks.check("ncp", op.spec, str(out), code).status == "ok"
    sol = json.loads((out / "ncp_solution.json").read_text())
    sol["x_star"][0] = -0.1
    (out / "ncp_solution.json").write_text(json.dumps(sol))
    assert checks.check("ncp", op.spec, str(out), code).status == "wrong"


def test_route_checker_rejects_a_moved_endpoint(tmp_path, capsys):
    pool = workloads.generate("route-vortex", 3, str(tmp_path / "in"), DEMO)
    op = pool[0]
    out = tmp_path / "out"
    code = _run_op(op, out)
    assert checks.check("route", op.spec, str(out), code).status in ("ok", "unsolved")
    csv_path = out / f"{op.key}_route.csv"
    lines = csv_path.read_text().splitlines()
    t, x, y = lines[-1].split(",")
    lines[-1] = f"{t},{float(x) + 1e-3!r},{y}"
    csv_path.write_text("\n".join(lines) + "\n")
    assert checks.check("route", op.spec, str(out), code).status == "wrong"


def test_dynamic_checker_recomputes_the_merit(tmp_path, capsys):
    pool = workloads.generate("cli-small", 0, str(tmp_path / "in"), DEMO)
    op = next(op for op in pool if op.kind == "dyn_min")
    out = tmp_path / "out"
    code = _run_op(op, out)
    assert checks.check("dyn_min", op.spec, str(out), code).status == "ok"
    table = (out / "dynamic_minimized.csv").read_text().splitlines()
    t, h, c = table[5].split(",")
    a, b = op.spec["model"]
    h_new = float(h) + 0.5
    table[5] = f"{t},{h_new!r},{a * h_new + b!r}"
    (out / "dynamic_minimized.csv").write_text("\n".join(table) + "\n")
    assert checks.check("dyn_min", op.spec, str(out), code).status == "wrong"


def test_artifact_hash_ignores_summaries(tmp_path):
    (tmp_path / "a.csv").write_text("1\n")
    (tmp_path / "x_summary.json").write_text("{}")
    before = checks.artifact_hash(str(tmp_path))
    (tmp_path / "x_summary.json").write_text('{"wall_time_s": 1}')
    assert checks.artifact_hash(str(tmp_path)) == before
    (tmp_path / "a.csv").write_text("2\n")
    assert checks.artifact_hash(str(tmp_path)) != before


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, 0, info]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("cli.route", 1.0, 9.0, 0),
        _span("geodesic.shot", 2.0, 5.0, 1),
        _span("geodesic.accel", 2.5, 3.0, 2),
        _span("geodesic.accel", 3.5, 4.5, 2),
        _span("geodesic.shot", 5.0, 6.0, 1),
        _span("fileio.write", 9.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 8 - 0.5, 8 - 4, 3 - 1.5, 0.5, 1.0, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 4.0, -1), _span("b", 1.0, 3.0, 0), _span("c", 2.0, 3.5, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5)


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("cli.route", 0.0, 9.0, 0),
        _span("geodesic.bvp", 1.0, 8.0, 1, (4, 3, 1)),
        _span("geodesic.shot", 1.0, 5.0, 2),
        _span("geodesic.accel", 1.0, 2.0, 3),
        _span("geodesic.accel", 2.0, 4.0, 3),
        _span("geodesic.shot", 5.0, 7.0, 2, "DomainError"),
        _span("geodesic.length", 8.0, 8.5, 1),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans, n_ops=2).items()}
    assert m["geodesic.shots"] == 1.0
    assert m["geodesic.shot_ms"] == pytest.approx(3000.0)
    assert m["geodesic.shot_self_s"] == pytest.approx((4 - 3 + 2) / 2)
    assert m["geodesic.accel_us"] == pytest.approx(1.5e6)
    assert m["geodesic.shot_domain_exits"] == 0.5
    assert m["geodesic.bvp_self_s"] == pytest.approx((7 - 6) / 2)
    assert m["geodesic.newton_iters"] == 2.0
    assert m["geodesic.solutions_per_start"] == pytest.approx(1 / 3)
    assert m["routing.chord_s"] == pytest.approx(0.25)
    assert m["routing.self_s"] == pytest.approx((9 - 7 - 0.5) / 2)
    assert m["cli.self_s"] == pytest.approx(0.5)


def test_tracer_restores_every_patched_name():
    from congeo import cli, geodesic, routing

    before = (cli.route, routing.geodesic_bvp, geodesic.Lagrangian.acceleration)
    tracer = Tracer()
    tracer.install()
    assert cli.route is not before[0]
    tracer.uninstall()
    assert (cli.route, routing.geodesic_bvp, geodesic.Lagrangian.acceleration) == before


def test_tail_percentile_leaves_ten_samples_beyond():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail(lat)
    assert pct == 90 and sum(1 for v in lat if v > value) >= 10
    assert run.tail(lat[:19]) == (18.0, 100)


class _SleepRunner:
    """Stands in for ``run.Runner``: every op sleeps a fixed time."""

    def __init__(self, op_s):
        self.op_s = op_s
        self.calls = []

    def run(self, op, tracer=None, timed=True, mem=False):
        self.calls.append((op, timed))
        time.sleep(self.op_s)


def test_setup_probes_span_the_loop_and_leave_its_wall_time():
    probe_times = []

    def probe():
        probe_times.append(time.perf_counter())
        time.sleep(0.02)
        return 0.02

    runner = _SleepRunner(0.01)
    start = time.perf_counter()
    wall, tracer, setup = run.closed_loop(runner, ["a", "b"], 0.6, False, probe)
    total = time.perf_counter() - start
    assert tracer is None and len(setup) == run.SETUP_REPEATS
    assert wall == pytest.approx(0.6, abs=0.05)
    assert total - wall >= run.SETUP_REPEATS * 0.02
    gaps = np.diff(probe_times)
    assert gaps.min() > 0.02  # ops ran between probes, not one burst


def test_memory_pass_reruns_the_largest_instance(tmp_path, capsys):
    from congeo import cli

    pool = workloads.generate("ue-lattice", 3, str(tmp_path / "in"), DEMO)
    runner = run.Runner(cli, str(tmp_path / "out"))
    run.memory_pass(runner, pool)
    (record,) = runner.records
    routes = {op.key: len(json.loads(open(op.spec["network"]).read())["routes"]) for op in pool}
    assert routes[record["key"]] == max(routes.values())
    assert not record["timed"] and record["mem_peak"] > 100_000
