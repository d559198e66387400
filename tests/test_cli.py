import dataclasses
import json
import os
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from congeo import fileio
from congeo.cli import EXIT_INPUT, EXIT_NONCONVERGED, EXIT_OK, main
from congeo.routing import route

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def demo(name):
    return os.path.join(DEMO, name)


def run_cli(*argv):
    """In-process invocation; argparse usage errors surface as SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code)


class TestExitCodes:
    def test_ncp_converged(self, tmp_path):
        assert run_cli("solve-ncp", demo("ncp_affine.json"), "--out", str(tmp_path)) == EXIT_OK
        sol = fileio.load_json(str(tmp_path / "ncp_solution.json"))
        assert sol["x_star"][0] == pytest.approx(2.0, abs=1e-8)
        assert sol["status"] == "converged"

    def test_ncp_infeasible_exits_2_with_best_iterate(self, tmp_path):
        problem = tmp_path / "infeasible.json"
        fileio.dump_json({"n": 1, "f": {"type": "affine", "M": [[0.0]], "q": [-1.0]}}, str(problem))
        assert run_cli("solve-ncp", str(problem), "--out", str(tmp_path)) == EXIT_NONCONVERGED
        sol = fileio.load_json(str(tmp_path / "ncp_solution.json"))
        assert sol["status"] in ("max_iter", "line_search_failure")
        assert np.isfinite(sol["x_star"][0])

    def test_ncp_missing_field_exits_1(self, tmp_path):
        problem = tmp_path / "broken.json"
        problem.write_text('{"n": 1, "f": {"type": "affine", "M": [[1.0]]}}')
        assert run_cli("solve-ncp", str(problem), "--out", str(tmp_path)) == EXIT_INPUT

    def test_ncp_overflowing_f_exits_2_with_one_line(self, tmp_path, capsys):
        problem = tmp_path / "overflow.json"  # finite input, F overflows at the start point
        fileio.dump_json({"n": 1, "f": {"type": "affine", "M": [[1e308]], "q": [1e308]}}, str(problem))
        assert run_cli("solve-ncp", str(problem), "--out", str(tmp_path)) == EXIT_NONCONVERGED
        err = capsys.readouterr().err
        assert err.startswith("congeo: ") and "non-finite" in err
        assert len(err.splitlines()) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert run_cli("solve-ncp", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == EXIT_INPUT

    def test_unknown_command_exits_1(self):
        assert run_cli("optimize-everything") == EXIT_INPUT

    def test_no_command_exits_1(self):
        assert run_cli() == EXIT_INPUT

    def test_route_saturated_exits_2(self, tmp_path):
        scenario = tmp_path / "saturated.json"
        fileio.dump_json(
            {"origin": [-2.0, 0.0], "destination": [2.0, 0.0], "field": "vortex(0, 0, 0.9995)"},
            str(scenario),
        )
        assert run_cli("route", str(scenario), "--out", str(tmp_path)) == EXIT_NONCONVERGED

    def test_validate_good_network_exits_0(self, tmp_path):
        assert run_cli("validate", demo("network_two_routes.json"), "--out", str(tmp_path)) == EXIT_OK
        report = fileio.load_json(str(tmp_path / "validate_report.json"))
        assert report["ok"] is True
        assert report["kind"] == "network"

    def test_validate_looping_route_exits_1_naming_route(self, tmp_path):
        doc = fileio.load_json(demo("network_two_routes.json"))
        doc["nodes"].append("m")
        doc["links"] += [
            {"id": "C", "from": "o", "to": "m", "t0": 1.0, "capacity": 1.0},
            {"id": "D", "from": "m", "to": "o", "t0": 1.0, "capacity": 1.0},
            {"id": "E", "from": "o", "to": "d", "t0": 1.0, "capacity": 1.0},
        ]
        doc["routes"].append({"id": "loopy", "od": "od1", "links": ["C", "D", "E"]})
        bad = tmp_path / "loopy.json"
        fileio.dump_json(doc, str(bad))
        assert run_cli("validate", str(bad), "--out", str(tmp_path)) == EXIT_INPUT
        report = fileio.load_json(str(tmp_path / "validate_report.json"))
        assert report["ok"] is False
        assert any("loopy" in f for f in report["failures"])

    @pytest.mark.parametrize("section", ["links", "routes", "od_pairs"])
    @pytest.mark.parametrize("value", [5, {"x": 1}], ids=["number", "object"])
    def test_non_list_network_section_is_an_input_error(self, tmp_path, capsys, section, value):
        doc = fileio.load_json(demo("network_two_routes.json"))
        doc[section] = value
        bad = tmp_path / "bad.json"
        fileio.dump_json(doc, str(bad))
        message = f"network.{section}: expected a list"
        assert run_cli("validate", str(bad), "--out", str(tmp_path)) == EXIT_INPUT
        report = fileio.load_json(str(tmp_path / "validate_report.json"))
        assert report["failures"] == [message]
        capsys.readouterr()
        assert run_cli("solve-ue", str(bad), "--out", str(tmp_path / "ue")) == EXIT_INPUT
        assert capsys.readouterr().err == f"congeo: input error: {message}\n"

    def test_validate_saturated_field_exits_1(self, tmp_path):
        xs = ys = np.linspace(-1, 1, 3)
        vectors = np.zeros((3, 3, 2))
        vectors[1, 1, 0] = 0.9995
        grid = tmp_path / "field.csv"
        fileio.save_congestion_grid(str(grid), xs, ys, vectors)
        assert run_cli("validate", str(grid), "--out", str(tmp_path)) == EXIT_INPUT
        report = fileio.load_json(str(tmp_path / "validate_report.json"))
        assert any("saturated" in f for f in report["failures"])

    def test_validate_clean_field_exits_0(self, tmp_path):
        xs = ys = np.linspace(-1, 1, 3)
        vectors = np.full((3, 3, 2), 0.2)
        grid = tmp_path / "field.csv"
        fileio.save_congestion_grid(str(grid), xs, ys, vectors)
        assert run_cli("validate", str(grid), "--out", str(tmp_path)) == EXIT_OK

    def test_validate_scenario_kinds(self, tmp_path):
        assert run_cli("validate", demo("scenario_vortex.json"), "--out", str(tmp_path)) == EXIT_OK
        report = fileio.load_json(str(tmp_path / "validate_report.json"))
        assert report["kind"] == "scenario"
        bad = tmp_path / "sat.json"
        fileio.dump_json(
            {"origin": [0.0, 0.0], "destination": [1.0, 0.0], "field": "uniform(0.9999, 0)"},
            str(bad),
        )
        assert run_cli("validate", str(bad), "--out", str(tmp_path)) == EXIT_INPUT

    def test_validate_ncp_problem_kind(self, tmp_path):
        assert run_cli("validate", demo("ncp_affine.json"), "--out", str(tmp_path)) == EXIT_OK
        report = fileio.load_json(str(tmp_path / "validate_report.json"))
        assert report["kind"] == "ncp_problem"


class TestSolveUeCommand:
    def test_two_route_flows_and_times(self, tmp_path):
        assert run_cli("solve-ue", demo("network_two_routes.json"), "--out", str(tmp_path)) == EXIT_OK
        flows = fileio.read_flows_csv(str(tmp_path / "ue_flows.csv"))
        times = fileio.read_times_csv(str(tmp_path / "ue_times.csv"))
        assert flows["r1"] == pytest.approx(2.0, abs=1e-6)
        assert flows["r2"] == pytest.approx(1.0, abs=1e-6)
        assert times["od1"] == pytest.approx(3.0, abs=1e-6)
        resid = fileio.load_json(str(tmp_path / "ue_residuals.json"))
        assert resid["gap_value"] <= 1e-10

    def test_per_route_flag_documented_divergence(self, tmp_path):
        assert (
            run_cli(
                "solve-ue", demo("network_two_routes.json"), "--demand-block", "per_route",
                "--out", str(tmp_path),
            )
            == EXIT_OK
        )
        flows = fileio.read_flows_csv(str(tmp_path / "ue_flows.csv"))
        times = fileio.read_times_csv(str(tmp_path / "ue_times.csv"))
        assert flows["r1"] == pytest.approx(3.0, abs=1e-6)
        assert flows["r2"] == pytest.approx(3.0, abs=1e-6)
        assert times["r1"] == pytest.approx(4.0, abs=1e-6)
        assert times["r2"] == pytest.approx(5.0, abs=1e-6)

    def test_elastic_demo(self, tmp_path):
        assert run_cli("solve-ue", demo("network_elastic.json"), "--out", str(tmp_path)) == EXIT_OK
        flows = fileio.read_flows_csv(str(tmp_path / "ue_flows.csv"))
        times = fileio.read_times_csv(str(tmp_path / "ue_times.csv"))
        assert flows["r1"] == pytest.approx(1.5, abs=1e-6)
        assert times["od1"] == pytest.approx(2.5, abs=1e-6)


    @pytest.mark.parametrize("layout", ["per_od", "per_route"])
    def test_gap_value_is_the_solver_merit(self, tmp_path, layout):
        code = run_cli(
            "solve-ue", demo("network_two_routes.json"), "--demand-block", layout, "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        resid = fileio.load_json(str(tmp_path / "ue_residuals.json"))
        summary = fileio.load_json(str(tmp_path / "solve-ue_summary.json"))
        assert resid["gap_value"] == summary["results"]["merit"]


def _infeasible_ncp(tmp_path):
    path = tmp_path / "infeasible.json"
    fileio.dump_json({"n": 1, "f": {"type": "affine", "M": [[0.0]], "q": [-1.0]}}, str(path))
    return str(path)


# Every non-route command; route has its own determinism tests below.
RUN_CASES = {
    "solve-ncp": lambda tmp: ("solve-ncp", demo("ncp_affine.json")),
    "solve-ncp-nonconverged": lambda tmp: ("solve-ncp", _infeasible_ncp(tmp)),
    "solve-ue-per_od": lambda tmp: ("solve-ue", demo("network_elastic.json")),
    "solve-ue-per_route": lambda tmp: ("solve-ue", demo("network_two_routes.json"), "--demand-block", "per_route"),
    "dynamic-evaluate": lambda tmp: ("dynamic", demo("trajectory_linear.csv"), "--variant", "half_phi"),
    "dynamic-minimize": lambda tmp: (
        "dynamic", demo("trajectory_constant.csv"), "--cost-model", "identity", "--minimize"
    ),
    "validate": lambda tmp: ("validate", demo("network_two_routes.json")),
    "validate-invalid": lambda tmp: ("validate", demo("trajectory_linear.csv")),
}


class TestRunContract:
    @pytest.mark.parametrize("case", RUN_CASES.values(), ids=RUN_CASES.keys())
    def test_summary_exit_code_and_determinism(self, tmp_path, capsys, case):
        argv = case(tmp_path)
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli(*argv, "--out", str(out))
            printed = capsys.readouterr().out
            summary_path = out / f"{argv[0]}_summary.json"
            assert printed == summary_path.read_text()
            summary = json.loads(printed)
            assert list(summary) == ["command", "status", "wall_time_s", "results", "artifacts"]
            assert summary["command"] == argv[0]
            expected = {"converged": EXIT_OK, "valid": EXIT_OK, "invalid": EXIT_INPUT}
            assert code == expected.get(summary["status"], EXIT_NONCONVERGED)
            names = [os.path.basename(p) for p in summary["artifacts"]]
            assert sorted(os.listdir(out)) == sorted(names + [summary_path.name])
            artifacts = {n: open(p, "rb").read() for n, p in zip(names, summary["artifacts"])}
            runs.append((summary["status"], summary["results"], artifacts))
        assert runs[0] == runs[1]


# The status and iteration count each command reaches at its default
# principal tolerance and under the given --tol.
TOL_CASES = {
    "solve-ncp": (("solve-ncp", demo("ncp_affine.json")), "1e-10", ("converged", 4), ("converged", 5)),
    "solve-ncp-loose": (("solve-ncp", demo("ncp_affine.json")), "0.1", ("converged", 4), ("converged", 2)),
    "solve-ue": (("solve-ue", demo("network_two_routes.json")), "0.1", ("converged", 5), ("converged", 2)),
    "validate": (("validate", demo("scenario_uniform.json")), "0.6", ("valid", None), ("invalid", None)),
}


class TestTolFlag:
    @pytest.mark.parametrize("argv, tol, default, overridden", TOL_CASES.values(), ids=TOL_CASES.keys())
    def test_tol_reaches_the_principal_tolerance(self, tmp_path, argv, tol, default, overridden):
        outcomes = []
        for name, extra in (("default", ()), ("tol", ("--tol", tol))):
            run_cli(*argv, *extra, "--out", str(tmp_path / name))
            summary = fileio.load_json(str(tmp_path / name / f"{argv[0]}_summary.json"))
            outcomes.append((summary["status"], summary["results"].get("iterations")))
        assert outcomes == [default, overridden]


def _readme_commands():
    text = open(README, encoding="utf-8").read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("congeo ")]


class TestReadmeCommands:
    def test_block_lists_every_command(self):
        assert {argv[0] for argv in _readme_commands()} == {
            "solve-ncp", "solve-ue", "route", "dynamic", "validate", "--config",
        }

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_exits_0(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # a config's relative "out" lands here
        argv = [os.path.join(DEMO, a[len("demo/"):]) if a.startswith("demo/") else a for a in argv]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path)
        assert run_cli(*argv) == EXIT_OK


class TestRouteCommand:
    def test_demo_scenarios_roundtrip(self, tmp_path):
        code = run_cli(
            "route", demo("scenario_none.json"), demo("scenario_uniform.json"),
            "--svg", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        curve = fileio.read_curve_csv(str(tmp_path / "scenario_none_route.csv"))
        assert np.allclose(curve.points[-1], [1.0, 0.0], atol=1e-6)
        none_summary = fileio.load_json(str(tmp_path / "scenario_none_summary.json"))
        uniform_summary = fileio.load_json(str(tmp_path / "scenario_uniform_summary.json"))
        assert none_summary["travel_time"] == pytest.approx(1.0, abs=1e-6)
        assert uniform_summary["travel_time"] == pytest.approx(2.0, abs=1e-8)
        assert (tmp_path / "scenario_none_route.svg").exists()
        # one record per start: flat geometry converges from every start,
        # at once from the chord
        starts = none_summary["starts"]
        assert [s["outcome"] for s in starts] == ["converged"] * (none_summary["restarts"] + 1)
        assert starts[0]["iterations"] == 0

    def test_jobs_flag_same_results(self, tmp_path):
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        for out, jobs in ((out1, "1"), (out2, "2")):
            code = run_cli(
                "route", demo("scenario_none.json"), demo("scenario_grid.json"),
                "--jobs", jobs, "--out", str(out),
            )
            assert code == EXIT_OK
        for name in ("scenario_none_route.csv", "scenario_grid_route.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_overrides_only_when_given(self, tmp_path):
        doc = fileio.load_json(demo("scenario_vortex.json"))
        doc.update(seed=5, nodes=40)
        path = tmp_path / "seeded.json"
        fileio.dump_json(doc, str(path))
        scenario = fileio.load_scenario(str(path))
        records = {}
        for name, flags, seed in (("file", (), 5), ("flag", ("--seed", "0"), 0)):
            run_cli("route", str(path), *flags, "--out", str(tmp_path / name))
            starts = fileio.load_json(str(tmp_path / name / "seeded_summary.json"))["starts"]
            expected = route(dataclasses.replace(scenario, bvp=dataclasses.replace(scenario.bvp, seed=seed)))
            assert starts == [{"outcome": s.outcome, "iterations": s.iterations} for s in expected.diagnostics.starts]
            records[name] = starts
        assert records["file"] != records["flag"]  # the two seeds restart differently

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert (
                run_cli("route", demo("scenario_vortex.json"), "--seed", "7", "--out", str(out))
                == EXIT_OK
            )
        assert (out1 / "scenario_vortex_route.csv").read_bytes() == (
            out2 / "scenario_vortex_route.csv"
        ).read_bytes()
        s1 = fileio.load_json(str(out1 / "scenario_vortex_summary.json"))
        s2 = fileio.load_json(str(out2 / "scenario_vortex_summary.json"))
        assert s1 == s2


class TestDynamicCommand:
    def test_half_phi_value(self, tmp_path):
        assert (
            run_cli("dynamic", demo("trajectory_linear.csv"), "--variant", "half_phi",
                    "--out", str(tmp_path))
            == EXIT_OK
        )
        summary = fileio.load_json(str(tmp_path / "dynamic_summary.json"))
        assert summary["results"]["gap"] == pytest.approx(-0.146447, abs=1e-5)

    def test_half_phi_squared_value(self, tmp_path):
        assert (
            run_cli("dynamic", demo("trajectory_linear.csv"), "--variant", "half_phi_squared",
                    "--out", str(tmp_path))
            == EXIT_OK
        )
        summary = fileio.load_json(str(tmp_path / "dynamic_summary.json"))
        assert summary["results"]["gap"] == pytest.approx(0.057191, abs=1e-5)

    def test_minimize_identity_cost(self, tmp_path):
        code = run_cli(
            "dynamic", demo("trajectory_constant.csv"), "--cost-model", "identity",
            "--minimize", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        grid, h, c = fileio.read_trajectory_csv(str(tmp_path / "dynamic_minimized.csv"))
        assert np.max(np.abs(h)) <= 1e-3

    @pytest.mark.parametrize("model_args", [("--cost-model", "identity"), ()])
    def test_minimize_reports_exact_gradient_work(self, tmp_path, model_args):
        path = demo("trajectory_linear.csv")
        code = run_cli("dynamic", path, *model_args, "--minimize", "--out", str(tmp_path))
        assert code == EXIT_OK
        _, h, c = fileio.read_trajectory_csv(str(tmp_path / "dynamic_minimized.csv"))
        assert np.all(h >= 0.0) and np.all(c >= 0.0)
        assert np.array_equal(h * c, np.zeros_like(h))
        results = fileio.load_json(str(tmp_path / "dynamic_summary.json"))["results"]
        assert results["minimized_objective"] == 0.0

    @pytest.mark.parametrize(
        "model_args, reason",
        [
            (("--cost-model", "identity", "--variant", "half_phi"), "half_phi merit is unbounded below"),
            (("--cost-model", "affine(0,-1)"), "no flow of zero merit"),
            (("--cost-model", "affine(-1,-1)"), "no flow of zero merit"),
            (("--cost-model", "affine(1e-320,-1)"), "overflows for a=1e-320; flows must be finite"),
        ],
        ids=["half_phi", "a_zero", "a_negative", "overflow"],
    )
    def test_minimize_without_zero_merit_flow_exits_1(self, tmp_path, capsys, model_args, reason):
        code = run_cli("dynamic", demo("trajectory_constant.csv"), *model_args, "--minimize", "--out", str(tmp_path))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("congeo: input error: ") and reason in err
        assert not (tmp_path / "dynamic_minimized.csv").exists()

    def test_missing_cost_model_exits_1(self, tmp_path):
        assert run_cli("dynamic", demo("trajectory_constant.csv"), "--out", str(tmp_path)) == EXIT_INPUT


class TestConfigMode:
    def test_inline_network_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("--config", demo("run_ue_config.json")) == EXIT_OK
        flows = fileio.read_flows_csv(str(tmp_path / "demo_out" / "ue_flows.csv"))
        assert flows["r1"] == pytest.approx(1.5, abs=1e-6)

    def test_config_with_explicit_command_rejected(self, tmp_path):
        assert run_cli("--config", demo("run_ue_config.json"), "solve-ue", "x.json") == EXIT_INPUT

    def test_config_unknown_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"command": "fly"}')
        assert run_cli("--config", str(cfg)) == EXIT_INPUT

    def test_route_config_inline_scenario(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        fileio.dump_json(
            {
                "command": "route",
                "out": str(tmp_path / "out"),
                "origin": [0.0, 0.0],
                "destination": [1.0, 0.0],
                "field": "none",
            },
            str(cfg),
        )
        assert run_cli("--config", str(cfg)) == EXIT_OK
        assert (tmp_path / "out" / "scenario_route.csv").exists()

    def test_dynamic_config_with_csv_reference(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        fileio.dump_json(
            {
                "command": "dynamic",
                "trajectory_csv": os.path.join(DEMO, "trajectory_constant.csv"),
                "cost_model": "identity",
                "minimize": True,
                "out": str(tmp_path / "out"),
            },
            str(cfg),
        )
        assert run_cli("--config", str(cfg)) == EXIT_OK
        grid, h, _ = fileio.read_trajectory_csv(str(tmp_path / "out" / "dynamic_minimized.csv"))
        assert np.max(np.abs(h)) <= 1e-3

    @pytest.mark.parametrize(
        "key, value",
        [("seed", "x"), ("jobs", "2"), ("tol", "1e-9"), ("minimize", "false"), ("svg", "no"), ("out", 3)],
    )
    def test_config_option_types_checked(self, tmp_path, capsys, key, value):
        doc = {
            "command": "dynamic",
            "trajectory_csv": os.path.join(DEMO, "trajectory_constant.csv"),
            "cost_model": "identity",
            "out": str(tmp_path / "out"),
        }
        doc[key] = value
        cfg = tmp_path / "cfg.json"
        fileio.dump_json(doc, str(cfg))
        assert run_cli("--config", str(cfg)) == EXIT_INPUT
        assert f"config.{key}: expected" in capsys.readouterr().err
        assert not (tmp_path / "out" / "dynamic_minimized.csv").exists()

    def test_validate_config_file_relative_to_config(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        shutil.copy(demo("network_two_routes.json"), cfg_dir / "net.json")
        cfg = cfg_dir / "run.json"
        fileio.dump_json({"command": "validate", "file": "net.json", "out": str(tmp_path / "out")}, str(cfg))
        monkeypatch.chdir(tmp_path)
        assert run_cli("--config", str(cfg)) == EXIT_OK
        report = fileio.load_json(str(tmp_path / "out" / "validate_report.json"))
        assert report["file"] == str(cfg_dir / "net.json")
        assert report["kind"] == "network" and report["ok"] is True

    def test_validate_config_without_file_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        fileio.dump_json({"command": "validate", "out": str(tmp_path / "out")}, str(cfg))
        assert run_cli("--config", str(cfg)) == EXIT_INPUT
        assert "validate config needs 'file'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_unknown_option_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        fileio.dump_json(
            {"command": "dynamic", "trajectory_csv": "x.csv", "verbosity": 3}, str(cfg)
        )
        assert run_cli("--config", str(cfg)) == EXIT_INPUT


class TestSubprocessEntryPoints:
    def test_ue_demo_script_prints_both_layouts(self):
        script = os.path.join(os.path.dirname(__file__), "..", "scripts", "ue_demo.py")
        proc = subprocess.run([sys.executable, script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "[per_od] ==" in proc.stdout
        assert "[per_route] ==" in proc.stdout
        assert "time[r2]" in proc.stdout  # per_route times are keyed by route

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "congeo", "solve-ncp", demo("ncp_affine.json"), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        summary = json.loads(proc.stdout)
        assert summary["command"] == "solve-ncp"
        assert summary["status"] == "converged"

    def test_usage_error_returncode(self):
        proc = subprocess.run(
            [sys.executable, "-m", "congeo", "solve-ncp"], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_INPUT

    def test_overflowing_cost_model_prints_one_input_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "congeo", "dynamic", demo("trajectory_constant.csv"),
             "--cost-model", "affine(1e308,1e308)", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_INPUT
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("congeo: input error: ") and "finite" in proc.stderr


class TestSolverWorkCounts:
    @pytest.mark.parametrize("argv", [
        ("solve-ncp", demo("ncp_affine.json")),
        ("solve-ue", demo("network_two_routes.json")),
        ("solve-ue", demo("network_elastic.json"), "--demand-block", "per_route"),
    ], ids=["solve-ncp", "solve-ue-per_od", "solve-ue-per_route"])
    def test_summary_carries_step_counts(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
        results = fileio.load_json(str(tmp_path / f"{argv[0]}_summary.json"))["results"]
        assert results["newton_steps"] + results["gradient_steps"] == results["iterations"]
        assert results["backtracks"] >= 0
        # the counts stay out of the hashed result artifacts
        for name in os.listdir(tmp_path):
            if not name.endswith("_summary.json"):
                text = (tmp_path / name).read_text()
                assert "newton_steps" not in text and "backtracks" not in text
