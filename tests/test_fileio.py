import importlib.util
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congeo import fileio
from congeo.dynamic import Trajectory
from congeo.fileio import SchemaError
from congeo.geodesic import Curve
from congeo.ncp import solve_ncp
from congeo.traffic import ElasticDemand, FixedDemand, solve_ue
from oracles import central_jacobian

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")
MAKE_DEMO = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_demo_inputs.py")
QUADRATIC_DOC = {"n": 2, "f": {"type": "quadratic", "a": [1.0, 0.5], "M": [[1.0, 0.0], [0.0, 1.0]], "q": [-4.0, -2.0]}}


class TestJsonFormatting:
    def test_floats_roundtrip_exactly(self, rng, tmp_path):
        values = list(rng.uniform(-1e6, 1e6, size=200)) + [1e-300, 2**-52, np.pi]
        path = tmp_path / "vals.json"
        fileio.dump_json({"values": values}, str(path))
        back = fileio.load_json(str(path))
        assert back["values"] == [float(v) for v in values]

    def test_17_significant_digits(self):
        text = fileio.dump_json({"v": 0.3})
        assert "0.29999999999999999" in text

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_fmt_float_roundtrips_any_finite_double(self, v):
        assert float(fileio.fmt_float(v)) == v

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fileio.dump_json({"v": float("inf")})

    def test_nested_types(self):
        text = fileio.dump_json({"a": [1, 2.5, "s", None, True, False], "b": {}})
        parsed = json.loads(text)
        assert parsed == {"a": [1, 2.5, "s", None, True, False], "b": {}}

    def test_numpy_scalars_and_arrays(self):
        text = fileio.dump_json({"x": np.float64(1.5), "n": np.int64(3), "arr": np.array([1.0, 2.0])})
        assert json.loads(text) == {"x": 1.5, "n": 3, "arr": [1.0, 2.0]}

    def test_invalid_json_is_schema_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SchemaError, match="invalid JSON"):
            fileio.load_json(str(p))


class TestNetworkLoader:
    def _doc(self):
        return json.loads(open(os.path.join(DEMO, "network_two_routes.json")).read())

    def test_demo_network_loads(self):
        net = fileio.load_network(os.path.join(DEMO, "network_two_routes.json"))
        assert net.n_routes == 2
        assert isinstance(net.od_pairs[0].demand, FixedDemand)

    def test_elastic_demo_loads(self):
        net = fileio.load_network(os.path.join(DEMO, "network_elastic.json"))
        assert isinstance(net.od_pairs[0].demand, ElasticDemand)

    def test_unknown_top_level_field_rejected(self):
        doc = self._doc()
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown field"):
            fileio.load_network(doc)

    def test_unknown_link_field_rejected(self):
        doc = self._doc()
        doc["links"][0]["speed"] = 50
        with pytest.raises(SchemaError, match="unknown field"):
            fileio.load_network(doc)

    def test_missing_field_rejected(self):
        doc = self._doc()
        del doc["links"][0]["t0"]
        with pytest.raises(SchemaError, match="missing"):
            fileio.load_network(doc)

    @pytest.mark.parametrize("drop, add, message", [
        (["t0"], {}, "links[0]: missing field(s) ['t0']"),
        (["capacity", "from"], {"speed": 50}, "links[0]: missing field(s) ['from', 'capacity']"),
        ([], {"speed": 50, "bpr_q": 1, "bpr_b": 0.1}, "links[0]: unknown field(s) ['bpr_q', 'speed']"),
    ], ids=["missing", "missing-before-unknown", "unknown-sorted"])
    def test_field_check_messages(self, drop, add, message):
        doc = self._doc()
        link = doc["links"][0]
        for key in drop:
            del link[key]
        link.update(add)
        with pytest.raises(SchemaError) as exc:
            fileio.load_network(doc)
        assert str(exc.value) == message

    def test_fixed_demand_rejects_k(self):
        doc = self._doc()
        doc["od_pairs"][0]["demand"]["k"] = 1.0
        with pytest.raises(SchemaError, match="unknown field"):
            fileio.load_network(doc)

    def test_bad_demand_type(self):
        doc = self._doc()
        doc["od_pairs"][0]["demand"]["type"] = "logit"
        with pytest.raises(SchemaError, match="fixed"):
            fileio.load_network(doc)

    def test_structural_violation_is_schema_error(self):
        doc = self._doc()
        doc["routes"][0]["links"] = ["B", "A"]  # not a connected walk
        with pytest.raises(SchemaError):
            fileio.load_network(doc)

    def test_nonnumeric_value_rejected(self):
        doc = self._doc()
        doc["links"][0]["t0"] = "fast"
        with pytest.raises(SchemaError, match="number"):
            fileio.load_network(doc)

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("links", "t0", "fast", "links[0].t0: expected a number, got 'fast'"),
            ("routes", "links", 3, "routes[0].links: expected a list of strings"),
            ("routes", "id", 5, "routes[0].id: expected a string, got 5"),
            ("od_pairs", "id", 3, "od_pairs[0].id: expected a string, got 3"),
            ("links", "t0", -1.0, "links[0]: link A: free-flow time must be positive"),
            ("routes", "links", [], "routes[0]: route r1: needs at least one link"),
            ("od_pairs", "demand", {"type": "fixed", "d0": -1.0}, "od_pairs[0]: fixed demand must be nonnegative"),
            ("od_pairs", "demand", {"type": "elastic", "d0": 1.0, "k": -0.5},
             "od_pairs[0]: elastic demand needs d0 >= 0 and k >= 0"),
            ("od_pairs", "destination", "o", "od_pairs[0]: od pair od1: origin equals destination"),
            ("links", "id", "B", "network: duplicate link id 'B'"),
        ],
    )
    def test_error_names_the_element_once(self, section, field, value, message):
        # a field reader's error carries its own path; a constructor's gets the element's
        doc = self._doc()
        doc[section][0][field] = value
        with pytest.raises(SchemaError) as exc:
            fileio.load_network(doc)
        assert str(exc.value) == message


class TestNcpProblemLoader:
    def test_affine_demo(self):
        problem = fileio.load_ncp_problem(os.path.join(DEMO, "ncp_affine.json"))
        report = solve_ncp(problem)
        assert report.converged
        assert report.x_star[0] == pytest.approx(2.0, abs=1e-8)

    def test_quadratic_family(self):
        problem = fileio.load_ncp_problem(QUADRATIC_DOC)
        x = np.array([1.0, 2.0])
        assert np.allclose(problem.f_eval(x), [1 + 1 - 4, 0.5 * 4 + 2 - 2])

    @pytest.mark.parametrize(
        "source",
        [
            os.path.join(DEMO, "ncp_affine.json"),
            {"n": 2, "f": {"type": "affine", "M": [[2.0, 1.0], [-1.0, 3.0]], "q": [-1.0, 0.5]}},
            QUADRATIC_DOC,
        ],
        ids=["affine_demo", "affine_nonsymmetric", "quadratic"],
    )
    def test_family_jacobian_matches_differences(self, source):
        # the solver sees only these closed forms: no family is differenced
        problem = fileio.load_ncp_problem(source)
        x = np.linspace(1.0, 2.0, problem.n)
        full = problem.jac_eval(x)
        assert np.allclose(full, central_jacobian(problem, x, 1e-7), atol=1e-6)
        # on a free set, the block of the whole Jacobian
        for free in (np.arange(problem.n), np.array([problem.n - 1]), np.arange(0, problem.n, 2)):
            assert np.array_equal(problem.jac_eval(x, free), full[np.ix_(free, free)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="M must be"):
            fileio.load_ncp_problem({"n": 2, "f": {"type": "affine", "M": [[1.0]], "q": [1.0, 2.0]}})

    def test_unknown_family_rejected(self):
        with pytest.raises(SchemaError, match="unknown family"):
            fileio.load_ncp_problem({"n": 1, "f": {"type": "cubic", "c": [1.0]}})

    def test_missing_q_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            fileio.load_ncp_problem({"n": 1, "f": {"type": "affine", "M": [[1.0]]}})

    def test_bad_n_rejected(self):
        with pytest.raises(SchemaError, match="positive integer"):
            fileio.load_ncp_problem({"n": 0, "f": {"type": "affine", "M": [], "q": []}})

    @pytest.mark.parametrize(
        "family, key, value, message",
        [
            ("affine", "M", [["a", 1.0], [0.0, 1.0]], "problem.f.M: expected a numeric matrix"),
            ("affine", "M", [1.0, 2.0], "problem.f.M: expected a 2-d matrix, got shape (2,)"),
            ("affine", "q", [[1.0], [2.0]], "problem.f.q: expected a 1-d vector, got shape (2, 1)"),
            ("quadratic", "a", [1.0, "x"], "problem.f.a: expected a numeric vector"),
            ("quadratic", "M", [[1.0, 0.0], [0.0]], "problem.f.M: expected a numeric matrix"),
        ],
    )
    def test_malformed_arrays_rejected(self, family, key, value, message):
        doc = {"n": 2, "f": {"type": family, "a": [0.5, 0.5], "M": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, 1.0]}}
        if family == "affine":
            del doc["f"]["a"]
        doc["f"][key] = value
        with pytest.raises(SchemaError) as exc:
            fileio.load_ncp_problem(doc)
        assert str(exc.value) == message


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# (demo file, loader, field path, value, field named in the error); json
# writes NaN / Infinity literals, which Python's json parses back
NON_FINITE = {
    "network-nan": ("network_two_routes.json", "load_network", ("links", 0, "bpr_b"), float("nan"),
                    r"links\[0\]\.bpr_b"),
    "network-inf": ("network_two_routes.json", "load_network", ("links", 1, "t0"), float("inf"),
                    r"links\[1\]\.t0"),
    "network-huge-int": ("network_two_routes.json", "load_network", ("links", 0, "capacity"), 10**400,
                         r"links\[0\]\.capacity"),
    "network-demand": ("network_elastic.json", "load_network", ("od_pairs", 0, "demand", "k"),
                       float("-inf"), r"od_pairs\[0\]\.demand\.k"),
    "ncp-q-nan": ("ncp_affine.json", "load_ncp_problem", ("f", "q"), [float("nan")], r"problem\.f\.q"),
    "ncp-M-inf": ("ncp_affine.json", "load_ncp_problem", ("f", "M"), [[float("inf")]], r"problem\.f\.M"),
    "ncp-q-huge-int": ("ncp_affine.json", "load_ncp_problem", ("f", "q"), [10**400], r"problem\.f\.q"),
    "scenario-tol": ("scenario_none.json", "load_scenario", ("tol",), float("nan"), r"scenario\.tol"),
    "scenario-origin": ("scenario_none.json", "load_scenario", ("origin",), [float("inf"), 0.0],
                        r"scenario\.origin"),
}


@pytest.mark.parametrize("case", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_json_numbers_rejected(tmp_path, case):
    name, loader, field, value, where = case
    doc = json.loads(open(os.path.join(DEMO, name)).read())
    _set(doc, field, value)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=where):
        getattr(fileio, loader)(str(path))


class TestGridCsv:
    def test_roundtrip(self, rng, tmp_path):
        xs = np.linspace(-1, 1, 4)
        ys = np.linspace(0, 2, 3)
        vectors = rng.uniform(-0.4, 0.4, size=(4, 3, 2))
        path = str(tmp_path / "grid.csv")
        fileio.save_congestion_grid(path, xs, ys, vectors)
        field = fileio.load_congestion_grid(path)
        for i, px in enumerate(xs):
            for j, py in enumerate(ys):
                assert np.allclose(field((px, py)), vectors[i, j], atol=1e-15)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(SchemaError, match="header"):
            fileio.load_congestion_grid(str(p))

    def test_incomplete_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,wx,wy\n0,0,0,0\n0,1,0,0\n1,0,0,0\n")
        with pytest.raises(SchemaError, match="expected 4 rows"):
            fileio.load_congestion_grid(str(p))

    def test_wrong_order_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,wx,wy\n0,1,0,0\n0,0,0,0\n1,0,0,0\n1,1,0,0\n")
        with pytest.raises(SchemaError, match="sweep"):
            fileio.load_congestion_grid(str(p))

    def test_nonnumeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,wx,wy\n0,0,0,zero\n")
        with pytest.raises(SchemaError, match="non-numeric"):
            fileio.load_congestion_grid(str(p))


class TestScenarioLoader:
    def test_presets(self):
        sc = fileio.load_scenario(os.path.join(DEMO, "scenario_vortex.json"))
        assert sc.origin == (-2.0, 0.0)
        assert sc.bvp.restarts == 3

    def test_grid_reference_resolved_relative_to_file(self):
        sc = fileio.load_scenario(os.path.join(DEMO, "scenario_grid.json"))
        assert np.allclose(sc.congestion((0.0, 0.0)), [0.3, 0.0])

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown field"):
            fileio.load_scenario({"origin": [0, 0], "destination": [1, 0], "field": "none", "speed": 3})

    def test_metric_is_an_unknown_field(self):
        # the base metric is always Euclidean, so a scenario does not name it
        with pytest.raises(SchemaError, match=r"unknown field\(s\) \['metric'\]"):
            fileio.load_scenario(
                {"origin": [0, 0], "destination": [1, 0], "field": "none", "metric": "hyperbolic"}
            )

    def test_box_margin_is_an_unknown_field(self):
        # the validity box is always padded by routing.BOX_MARGIN
        with pytest.raises(SchemaError) as exc:
            fileio.load_scenario({"origin": [0, 0], "destination": [1, 0], "field": "none", "box_margin": 0.5})
        assert str(exc.value) == "scenario: unknown field(s) ['box_margin']"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("origin", ["a", 0.0], "scenario.origin: expected a numeric vector"),
            ("origin", [[0.0, 0.0]], "scenario.origin: expected a 1-d vector, got shape (1, 2)"),
            ("destination", 1.0, "scenario.destination: expected a 1-d vector, got shape ()"),
        ],
    )
    def test_malformed_endpoints_rejected(self, key, value, message):
        doc = {"origin": [0, 0], "destination": [1, 0], "field": "none", key: value}
        with pytest.raises(SchemaError) as exc:
            fileio.load_scenario(doc)
        assert str(exc.value) == message

    def test_identical_endpoints_rejected(self):
        with pytest.raises(SchemaError):
            fileio.load_scenario({"origin": [0, 0], "destination": [0, 0], "field": "none"})


class TestTableFormats:
    def test_curve_roundtrip(self, tmp_path):
        t = np.linspace(0, 1, 17)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        path = str(tmp_path / "curve.csv")
        fileio.write_curve_csv(path, Curve(params=t, points=pts))
        back = fileio.read_curve_csv(path)
        assert np.array_equal(back.params, t)
        assert np.array_equal(back.points, pts)

    def test_trajectory_roundtrip_with_cost(self, tmp_path):
        t = np.linspace(0, 1, 9)
        traj = Trajectory(grid=t, h=t**2, c=1 - t)
        path = str(tmp_path / "traj.csv")
        fileio.write_trajectory_csv(path, traj)
        grid, h, c = fileio.read_trajectory_csv(path)
        assert np.array_equal(grid, t)
        assert np.array_equal(h, t**2)
        assert np.array_equal(c, 1 - t)

    def test_trajectory_roundtrip_without_cost(self, tmp_path):
        t = np.linspace(0, 1, 9)
        traj = Trajectory(grid=t, h=np.ones_like(t), c=np.ones_like(t))
        path = str(tmp_path / "traj.csv")
        fileio.write_trajectory_csv(path, traj, include_cost=False)
        grid, h, c = fileio.read_trajectory_csv(path)
        assert c is None
        assert np.array_equal(h, np.ones_like(t))

    def test_flows_and_times_roundtrip(self, tmp_path):
        net = fileio.load_network(os.path.join(DEMO, "network_two_routes.json"))
        sol = solve_ue(net)
        fpath, tpath = str(tmp_path / "flows.csv"), str(tmp_path / "times.csv")
        fileio.write_flows_csv(fpath, sol)
        fileio.write_times_csv(tpath, sol)
        assert fileio.read_flows_csv(fpath) == sol.flows_by_route()
        assert fileio.read_times_csv(tpath) == sol.times_by_od()

    def test_svg_contains_fitted_polyline(self, tmp_path):
        t = np.linspace(0, 1, 5)
        pts = np.stack([t * 4 - 2, t * 0], axis=1)
        path = str(tmp_path / "curve.svg")
        fileio.write_curve_svg(path, Curve(params=t, points=pts))
        text = open(path).read()
        assert "<polyline" in text and "viewBox" in text
        assert "-2" in text


# format -> (reader, header, a valid row, the row with a non-numeric field)
TABLES = {
    "curve": ("read_curve_csv", "t,x,y", "0,0,0", "0,0,zero"),
    "trajectory": ("read_trajectory_csv", "t,h", "0,1", "0,one"),
    "flows": ("read_flows_csv", "route,flow", "r1,1", "r1,one"),
    "times": ("read_times_csv", "od,time", "od1,3", "od1,three"),
    "grid": ("load_congestion_grid", "x,y,wx,wy", "0,0,0,0", "0,0,0,zero"),
}


# defect -> (line it is on, message)
DEFECTS = {
    "bad_header": (1, "header must be"),
    "field_count": (4, "expected"),
    "non_numeric": (3, "non-numeric"),
    "nan": (3, "non-finite"),
    "inf": (4, "non-finite"),
}


class TestTableErrors:
    @pytest.mark.parametrize("fmt", TABLES)
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_error_names_path_and_line(self, tmp_path, fmt, defect):
        reader, header, row, bad_row = TABLES[fmt]
        line, match = DEFECTS[defect]
        lines = {
            "bad_header": ["a,b", row],
            "field_count": [header, row, "", row + ",0"],  # the blank line is skipped but counted
            "non_numeric": [header, row, bad_row],
            "nan": [header, row, row.rsplit(",", 1)[0] + ",nan"],
            "inf": [header, "", row, row.rsplit(",", 1)[0] + ",-inf"],
        }[defect]
        path = tmp_path / f"{fmt}.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:{line}: ") + match):
            getattr(fileio, reader)(str(path))


class TestDemoInputs:
    def test_script_reproduces_demo_files(self, tmp_path):
        spec = importlib.util.spec_from_file_location("make_demo_inputs", MAKE_DEMO)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.DEMO = str(tmp_path)
        script.main()
        assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(DEMO))
        for name in os.listdir(DEMO):
            with open(os.path.join(DEMO, name), "rb") as want, open(tmp_path / name, "rb") as got:
                assert got.read() == want.read(), name
