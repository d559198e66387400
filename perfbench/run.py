#!/usr/bin/env python3
"""congeo benchmark: one workload, closed loop, independent output checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload route-vortex --seed 1 --seconds 30 --trace 0

One op is one in-process call to ``congeo.cli.main([...])`` with ``--jobs 1``
and a fresh output directory.  A single client sends the next op when the
previous one has returned.  The seed fixes the generated inputs; the program
only sees those files.  Every op's artifacts are checked by ``checks.py``
and hashed; a repeated instance must reproduce its hashes exactly.

``--trace 0`` prints the end-to-end metrics; after the timed loop it reruns
the largest instance under tracemalloc for the memory metric.  ``--trace 1``
runs every op twice, untraced then traced, and prints the per-layer metrics
of the traced copies plus the tracing overhead measured on those pairs.  The last line of
standard output is the JSON result; everything else is for people.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import INFO, NAME, OP, PARENT, START, END, Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 11  # spread evenly over the timed loop
RUN_LIMIT_S = 170  # a run that is still going by now stops with an error

# Fresh interpreter: import congeo, then one pass of the fileio loaders.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import congeo
from congeo import fileio
for name, path in json.loads(sys.argv[2]):
    getattr(fileio, name)(path)
print(repr(time.perf_counter() - t0))
"""


class RunTimeout(Exception):
    pass


# ---------------------------------------------------------------------------
# Machine context
# ---------------------------------------------------------------------------

def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name", "unknown"), dep.get("version", "unknown")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def reference_ms() -> float:
    """Median of five timings of a fixed pure-Python loop: the machine's
    speed at that moment, so that a slow run can be told apart later."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(100_000))
        times.append(1000.0 * (time.perf_counter() - t0))
    return statistics.median(times)


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "loadavg_before": os.getloadavg(),
        "reference_ms_before": reference_ms(),
    }


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def setup_probe(pool: list):
    """Return a function that times one fresh interpreter's set-up."""
    loads = json.dumps(sorted({load for op in pool for load in op.loads}))

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, loads],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    return probe


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops, checks them, and keeps the determinism record."""

    def __init__(self, cli, out_root: str):
        self.cli = cli
        self.out_root = out_root
        self.hashes: dict[str, str] = {}
        self.records: list[dict] = []
        self.count = 0

    def run(self, op, tracer: Tracer | None = None, timed: bool = True, mem: bool = False) -> dict:
        out = os.path.join(self.out_root, f"op{self.count:05d}")
        self.count += 1
        argv = [*op.argv, "--out", out, "--jobs", "1"]
        err = io.StringIO()
        if tracer is not None:
            tracer.op = self.count - 1
            tracer.install()
        if mem:
            gc.collect()  # the op's collections then fall at the same points in every run
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = tracer.wrap("op", self.cli.main)(argv) if tracer else self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except RunTimeout:
            raise
        except Exception:  # a crash is a wrong result; keep the run going
            code = None
            err.write(traceback.format_exc())
        finally:
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            if mem:
                mem_peak = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.stop()
        if code is None:
            verdict = checks.Verdict("wrong", "crashed: " + err.getvalue().strip().splitlines()[-1])
        else:
            verdict = checks.check(op.kind, op.spec, out, code)
        record = {"key": op.key, "latency": latency, "code": code, "timed": timed, "traced": tracer is not None,
                  "status": verdict.status, "reason": verdict.reason, "route_ratio": verdict.route_ratio,
                  "repeat": False, "bytes": 0, "mem_peak": mem_peak if mem else None}
        if os.path.isdir(out):
            record["bytes"] = sum(e.stat().st_size for e in os.scandir(out))
            digest = checks.artifact_hash(out)
            if op.key in self.hashes:
                record["repeat"] = True
                if self.hashes[op.key] != digest:
                    record["status"], record["reason"] = "wrong", "artifacts differ from an earlier run"
            else:
                self.hashes[op.key] = digest
            shutil.rmtree(out)
        self.records.append(record)
        return record


def closed_loop(runner: Runner, pool: list, seconds: float, trace: bool,
                probe=None) -> tuple[float, Tracer | None, list[float]]:
    """Run ops back to back until ``seconds`` have passed.

    An untimed warm-up op first pays the process's one-off costs; the loop
    starts with the same instance, so every run checks determinism once.
    ``probe`` (set-up time) runs SETUP_REPEATS times at even steps of the
    loop, so its samples span the machine's drift over the run; the time
    it takes is left out of the returned wall time.
    """
    tracer = Tracer() if trace else None
    runner.run(pool[0], timed=False)
    setup: list[float] = []
    paused = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start - paused
        if i > 0 and elapsed >= seconds:
            break
        if probe is not None and len(setup) * seconds <= elapsed * SETUP_REPEATS:
            t0 = time.perf_counter()
            setup.append(probe())
            paused += time.perf_counter() - t0
        op = pool[i % len(pool)]
        runner.run(op)
        if tracer is not None:
            runner.run(op, tracer)
        i += 1
    wall = time.perf_counter() - start - paused
    while probe is not None and len(setup) < SETUP_REPEATS:  # ops too long to fit them all in
        setup.append(probe())
    return wall, tracer, setup


def memory_pass(runner: Runner, pool: list) -> None:
    """Rerun the largest instance (by ``Op.size``, first in pool order) once
    under tracemalloc, which counts Python objects and numpy buffers.  This
    follows the timed loop because tracing every allocation slows ops down."""
    runner.run(max(pool, key=lambda op: op.size), timed=False, mem=True)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it (the
    maximum when there are fewer than twenty samples)."""
    n = len(latencies)
    pct = 100 if n < 20 else int(100 * (1 - 10 / n))
    return float(np.percentile(latencies, pct)), pct


def end_to_end(records: list[dict], wall: float, setup: list[float]) -> tuple[dict, list[str]]:
    timed = [r for r in records if r["timed"] and not r["traced"]]
    lat = [r["latency"] for r in timed]
    tail_s, pct = tail(lat)
    metrics = {
        "ops_per_s": (len(timed) / wall, "ops/s"),
        "op_s_p50": (statistics.median(lat), "s"),
        "op_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "op_alloc_peak_mb": (max(r["mem_peak"] for r in records if r["mem_peak"] is not None) / 2**20, "MB"),
    }
    notes = [
        f"op_s_tail is p{pct} of n={len(lat)} timed ops",
        f"failed_frac {failed_frac(records):.4f} (ops not solved: exit != 0 or a failed check)",
        f"peak RSS of the whole benchmark process {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB",
        f"setup_s samples {', '.join(f'{s:.4f}' for s in setup)}",
    ]
    return metrics, notes


def failed_frac(records: list[dict]) -> float:
    return sum(1 for r in records if r["status"] != "ok") / len(records)


def route_ratio(records: list[dict]) -> float:
    ratios = [r["route_ratio"] for r in records if r["route_ratio"] is not None]
    return float(np.mean(ratios)) if ratios else 0.0


def per_layer(records: list[dict], tracer: Tracer) -> tuple[dict, list[str]]:
    plain = sum(r["latency"] for r in records if not r["traced"] and r["timed"])
    traced = sum(r["latency"] for r in records if r["traced"])
    n_traced = sum(1 for r in records if r["traced"])
    metrics = layer_metrics(tracer.spans, n_traced)
    metrics["fileio.bytes_written"] = (sum(r["bytes"] for r in records if r["traced"]) / n_traced, "B/op")
    metrics["ops.failed_frac"] = (failed_frac(records), "ratio")
    metrics["routing.time_vs_chord"] = (route_ratio(records), "ratio")
    metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    notes = [f"{n_traced} traced ops paired with {n_traced} untraced ones; "
             f"{len(tracer.spans)} spans; overhead from the paired totals {traced:.3f} s vs {plain:.3f} s"]
    return metrics, notes


def write_spans(path: str, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,op,info\n")
        for s in tracer.spans:
            info = "" if s[INFO] is None else str(s[INFO]).replace(",", ";")
            fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},{info}\n")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "congeo", "cli.py")):
        print(f"perfbench: no congeo sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    context = machine_context()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs, outputs = os.path.join(work, "inputs"), os.path.join(work, "out")
    os.makedirs(outputs)
    pool = workloads.generate(args.workload, args.seed, inputs, os.path.join(ROOT, "demo"))

    sys.path.insert(0, SRC)
    from congeo import cli

    runner = Runner(cli, outputs)
    probe = None if args.trace else setup_probe(pool)
    wall, tracer, setup = closed_loop(runner, pool, args.seconds, bool(args.trace), probe)
    if tracer is None:
        memory_pass(runner, pool)
    signal.alarm(0)
    records = runner.records
    if tracer is not None:
        metrics, notes = per_layer(records, tracer)
        write_spans(os.path.join(work, "spans.csv"), tracer)
    else:
        metrics, notes = end_to_end(records, wall, setup)
        notes.append(f"route travel_time / chord_time over converged routes: {route_ratio(records):.4f}")
    context["loadavg_after"] = os.getloadavg()
    context["reference_ms_after"] = reference_ms()

    wrong = [r for r in records if r["status"] == "wrong"]
    unsolved = [r for r in records if r["status"] == "unsolved"]
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(work, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": context, "records": records, "result": result}, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{len(pool)} instances, {len(records)} ops in {wall:.2f} s")
    print("machine " + json.dumps(context))
    reasons: dict[str, int] = {}
    for r in unsolved + wrong:
        label = f"{r['status']}:{r['reason']}"
        reasons[label] = reasons.get(label, 0) + 1
    print(f"outcomes ok={len(records) - len(unsolved) - len(wrong)} unsolved={len(unsolved)} "
          f"wrong={len(wrong)} {json.dumps(reasons)}")
    for r in wrong[:5]:
        print(f"wrong {r['key']}: {r['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for note in notes:
        print("note " + note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunTimeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)
