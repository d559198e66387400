import dataclasses

import numpy as np
import pytest

from congeo.finsler import (
    CongestionField,
    DomainError,
    RandersStructure,
    build_randers,
    congestion_none,
    congestion_uniform,
    congestion_vortex,
    constant_metric,
    constant_randers,
    euclidean_metric,
    euclidean_randers,
    grid_congestion,
    randers_eval,
)
from congeo import geodesic
from congeo.geodesic import (
    BvpConfig,
    Curve,
    GeodesicIvp,
    Lagrangian,
    StartOutcome,
    curve_length,
    el_residual,
    geodesic_bvp,
    geodesic_ivp,
)
from conftest import invalid_drift_structure
from oracles import perturbed_curve


def straight_curve(p, q, n=200):
    t = np.linspace(0.0, 1.0, n)
    p, q = np.asarray(p, float), np.asarray(q, float)
    pts = p[None, :] + t[:, None] * (q - p)[None, :]
    return Curve(params=t, points=pts)


def vortex_structure(strength=0.8):
    return build_randers(euclidean_metric(), congestion_vortex(0.0, 0.0, strength))


def one_level(F, p, q, cfg, calls=None):
    """``geodesic._solve`` on ``geodesic_bvp``'s starts: the single-level solve
    at ``cfg.nodes`` nodes that a solve above ``COARSE_NODES`` falls back to.
    ``calls``, when given, gets one entry per acceleration call."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    accel = Lagrangian(F).acceleration

    def acceleration(x, v):
        if calls is not None:
            calls.append(len(x))
        return accel(x, v)

    return geodesic._solve(acceleration, p, q, geodesic._starts(p, q, cfg), cfg)


def decisions(F, level):
    """(iterations, restarts used, multiplicity, (velocity, curve, length) of
    the shortest solution) of a level, as ``geodesic_bvp`` reports them for a
    single-level solve."""
    shortest = min(((y0, c, curve_length(F, c)) for y0, c in level.solutions), key=lambda s: s[2])
    return sum(r.iterations for r in level.records), len(level.records) - 1, len(level.solutions), shortest


def small_grid_field():
    """A swirl sampled on non-uniform axes over [-1.5, 1.5]^2."""
    xs = np.array([-1.5, -1.0, -0.2, 0.3, 0.9, 1.5])
    ys = np.array([-1.5, -0.7, 0.0, 0.4, 1.5])
    w = np.array([[[0.2 * np.sin(2 * px) * np.cos(py), 0.1 * px * py] for py in ys] for px in xs])
    return grid_congestion(xs, ys, w)


def small_grid_structure():
    return build_randers(euclidean_metric(), small_grid_field())


class TestCurve:
    def test_requires_three_nodes(self):
        with pytest.raises(ValueError):
            Curve(params=np.array([0.0, 1.0]), points=np.zeros((2, 2)))

    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            Curve(params=np.array([0.0, 0.5, 0.5]), points=np.zeros((3, 2)))

    def test_velocities_default_to_differences(self):
        c = straight_curve((0, 0), (2, 4), n=11)
        v = c.velocity_samples()
        assert np.allclose(v, [2.0, 4.0], atol=1e-12)

    def test_arrays_are_readonly(self):
        c = straight_curve((0, 0), (1, 0))
        with pytest.raises(ValueError):
            c.points[0, 0] = 99.0


class TestCurveLength:
    def test_euclidean_345(self):
        c = straight_curve((0, 0), (3, 4))
        assert curve_length(euclidean_randers(), c) == pytest.approx(5.0, abs=1e-8)

    def test_reparametrization_invariance(self):
        # quadratic reparametrization of the same segment
        s = np.linspace(0.0, 1.0, 200)
        pts = np.array([3.0, 4.0])[None, :] * (s**2)[:, None]
        c = Curve(params=s, points=pts)
        assert curve_length(euclidean_randers(), c) == pytest.approx(5.0, abs=1e-6)

    def test_drifted_segment(self):
        F = constant_randers(np.eye(2), [0.5, 0.0])
        c = straight_curve((0, 0), (1, 0))
        assert curve_length(F, c) == pytest.approx(1.5, abs=1e-8)

    def test_invalid_drift_rejected(self):
        with pytest.raises(DomainError, match="drift"):
            curve_length(invalid_drift_structure(), straight_curve((0, 0), (1, 0)))

    def test_invalid_drift_names_first_node(self):
        # ||b|| = x_0 reaches 1 at the fourth of five nodes on [0, 1.5]
        def bundle(x):
            b = np.stack([x[..., 0], 0.0 * x[..., 0]], axis=-1)
            return np.eye(2), b, np.zeros((2, 2, 2)), np.zeros((2, 2))

        c = straight_curve((0, 0), (1.5, 0), n=5)  # x_0 = 0, 0.375, 0.75, 1.125, 1.5
        with pytest.raises(DomainError, match=r"drift: \|\|b\|\|_a = 1.125 >= 1 at \[1.125 0\.\s*\]"):
            curve_length(RandersStructure(bundle=bundle), c)

    def test_degenerate_curve_rejected(self):
        c = Curve(params=np.linspace(0, 1, 5), points=np.ones((5, 2)))
        with pytest.raises(DomainError, match="degenerate"):
            curve_length(euclidean_randers(), c)


SPRAY_FIELDS = {
    "none": congestion_none,
    "uniform": lambda: congestion_uniform(0.5, -0.6),
    "vortex": lambda: congestion_vortex(0.2, -0.1, 0.8),
    "grid": small_grid_field,
}


def without_spray(F):
    """F with its accelerations derived from ``bundle`` (``Lagrangian._terms``)."""
    return dataclasses.replace(F, spray=None)


def terms_at(F, x, y) -> list:
    """``Lagrangian._terms`` at one state: (F, ell + b, tensor, dF, mixed) without the batch axis."""
    return [t[0] for t in Lagrangian(F)._terms(np.array([x], dtype=float), np.array([y], dtype=float))]


def half_f_squared(F):
    """L(x, y) = F(x, y)^2 / 2 through ``randers_eval``, the reference the terms are checked against."""
    return lambda x, y: 0.5 * randers_eval(F, x, y) ** 2


def second_differences(fun, h: float, dim: int = 2) -> np.ndarray:
    """Four-point central differences d^2 fun / (ds_m dt_i) at s = t = 0 of fun(s, t)."""
    e = h * np.eye(dim)
    return np.array([
        [(fun(e[m], e[i]) - fun(e[m], -e[i]) - fun(-e[m], e[i]) + fun(-e[m], -e[i])) / (4 * h * h) for i in range(dim)]
        for m in range(dim)
    ])


class TestLagrangian:
    """The terms of ``Lagrangian._terms`` against L = F^2 / 2 and its central differences."""

    def test_value_is_half_f_squared(self):
        F = constant_randers(np.eye(2), [0.5, 0.0])
        Fv = terms_at(F, (0, 0), (1, 0))[0]
        assert Fv == pytest.approx(randers_eval(F, (0, 0), (1, 0)), rel=1e-15)
        assert 0.5 * Fv**2 == pytest.approx(0.5 * 1.5**2)

    def test_degree_two_homogeneity(self, rng):
        F = constant_randers([[1.2, 0.1], [0.1, 0.9]], [0.2, -0.3])
        for _ in range(20):
            y = rng.normal(size=2)
            lam = rng.uniform(0.1, 10)
            L, L_scaled = (0.5 * terms_at(F, (0, 0), v)[0] ** 2 for v in (y, lam * y))
            assert L_scaled == pytest.approx(lam**2 * L, rel=1e-12)

    def test_fiber_grad_matches_fd(self):
        F = vortex_structure(0.6)
        x = np.array([0.4, -0.2])
        y = np.array([1.0, 0.7])
        Fv, lb, *_ = terms_at(F, x, y)  # L_i = F (ell + b)
        L = half_f_squared(F)
        h = 1e-6
        for i, e in enumerate(h * np.eye(2)):
            fd = (L(x, y + e) - L(x, y - e)) / (2 * h)
            assert Fv * lb[i] == pytest.approx(fd, rel=1e-6)

    def test_fiber_hessian_matches_fd(self):
        F = vortex_structure(0.6)
        x = np.array([0.4, -0.2])
        y = np.array([1.0, 0.7])
        tensor = terms_at(F, x, y)[2]
        L = half_f_squared(F)
        fd = second_differences(lambda s, t: L(x, y + s + t), 1e-4)
        assert np.allclose(tensor, fd, rtol=1e-5, atol=1e-8)

    def test_position_grad_matches_fd(self):
        F = vortex_structure(0.6)
        x = np.array([0.4, -0.2])
        y = np.array([1.0, 0.7])
        Fv, _, _, dF, _ = terms_at(F, x, y)  # dL/dx = F dF
        L = half_f_squared(F)
        h = 1e-6
        for m, e in enumerate(h * np.eye(2)):
            fd = (L(x + e, y) - L(x - e, y)) / (2 * h)
            assert Fv * dF[m] == pytest.approx(fd, rel=1e-5)

    def test_mixed_matches_fd(self):
        F = vortex_structure(0.6)
        x = np.array([0.4, -0.2])
        y = np.array([1.0, 0.7])
        mixed = terms_at(F, x, y)[4]  # mixed[m, i] = dL_i/dx^m
        L = half_f_squared(F)
        fd = second_differences(lambda s, t: L(x + s, y + t), 1e-4)
        assert np.allclose(mixed, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_singular_message_prints_plain_floats(self, dim):
        # moving along -b with ||b||_a = 1 gives F = 0, so the tensor vanishes
        e = np.eye(dim)
        packed = (e, -e[0], np.zeros((dim, dim, dim)), np.zeros((dim, dim)))
        lag = Lagrangian(RandersStructure(bundle=lambda x: packed, dim=dim))
        with pytest.raises(DomainError) as exc:
            lag.acceleration(5.0 * e[:1], e[:1])
        assert str(exc.value) == f"singular fiber Hessian at x={(5.0,) + (0.0,) * (dim - 1)}"


class TestBatching:
    """Rows of a batch equal the same states (or shots) computed alone, bit for bit."""

    @pytest.mark.parametrize("spray", [True, False])
    @pytest.mark.parametrize("make", [vortex_structure, small_grid_structure])
    def test_acceleration_rows_equal_single_states(self, rng, make, spray):
        lag = Lagrangian(make() if spray else without_spray(make()))
        x = rng.uniform(-1.2, 1.2, size=(27, 2))
        v = rng.normal(size=(27, 2))
        batch = lag.acceleration(x, v)
        for k in range(27):
            assert np.array_equal(batch[k], lag.acceleration(x[k:k + 1], v[k:k + 1])[0])

    def test_other_terms_rows_equal_single_states(self, rng):
        lag = Lagrangian(vortex_structure(0.6))
        x = rng.uniform(-1.2, 1.2, size=(9, 2))
        y = rng.normal(size=(9, 2))
        batch = lag._terms(x, y)
        for k in range(9):
            for term, alone in zip(batch, lag._terms(x[k:k + 1], y[k:k + 1])):
                assert np.array_equal(term[k], alone[0])

    @pytest.mark.parametrize("make", [vortex_structure, small_grid_structure])
    def test_batched_shot_rows_equal_solo_shots(self, make):
        F = make()
        x0 = (-0.5, 0.1)
        # on the grid, the third velocity carries its shot out of the grid
        y0 = np.array([[1.0, 0.2], [0.5, -0.3], [30.0, 1.0], [0.9, 0.9]])
        steps = 30
        lag, calls = Lagrangian(F), []
        xs, vs, errors = geodesic._integrate(
            lambda x, v: calls.append(len(x)) or lag.acceleration(x, v),
            np.broadcast_to(x0, y0.shape), y0, steps, 1.0 / steps,
        )
        # four calls per step; on the grid, the step that loses the third row
        # fails at its fourth stage and is retaken in halves: rows 0-1 (4),
        # rows 2-3 (4, failing at the fourth stage again), rows 2 and 3 alone (4 + 4)
        assert len(calls) == 4 * steps + (16 if make is small_grid_structure else 0)
        for k in range(len(y0)):
            try:
                solo = geodesic_ivp(F, GeodesicIvp(x0, tuple(y0[k]), steps=steps))
            except DomainError as exc:
                assert errors[k] is not None and str(errors[k]) == str(exc)
                continue
            assert errors[k] is None
            assert np.array_equal(xs[k], solo.points)
            assert np.array_equal(vs[k], solo.velocities)
        if make is small_grid_structure:
            assert [e is None for e in errors] == [True, True, False, True]
            assert "outside" in str(errors[2])

    def test_failed_step_is_bisected(self):
        # eight rows, the sixth shot out of the grid: the step that loses it
        # fails at its fourth stage and is retaken in halves, and only the
        # halves that fail are split again (28 calls, not 4 + 8 * 4)
        lag = Lagrangian(small_grid_structure())
        sizes = []

        def acceleration(x, v):
            sizes.append(len(x))
            return lag.acceleration(x, v)

        x = np.full((8, 2), [-0.5, 0.1])
        v = np.array([[1.0, 0.2], [0.5, -0.3], [0.9, 0.9], [0.2, 0.1], [-0.4, 0.6], [30.0, 1.0], [0.3, -0.8], [-0.7, -0.2]])
        h = 1.0 / 30
        failed = {}
        while not failed:
            sizes.clear()
            x_new, v_new, failed = geodesic._step(acceleration, x, v, h)
            if not failed:
                x, v = x_new, v_new
        assert list(failed) == [5] and "outside" in str(failed[5])
        assert sizes == [s for s in (8, 4, 4, 2, 1, 1, 2) for _ in range(4)]
        for k in set(range(8)) - {5}:
            (x_solo,), (v_solo,), _ = geodesic._step(lag.acceleration, x[k:k + 1], v[k:k + 1], h)
            assert np.array_equal(x_new[k], x_solo) and np.array_equal(v_new[k], v_solo)

    def test_single_ivp_raises_the_row_error(self):
        with pytest.raises(DomainError, match="outside congestion grid"):
            geodesic_ivp(small_grid_structure(), GeodesicIvp((-0.5, 0.1), (30.0, 1.0), steps=30))


class TestSpray:
    """The closed-form spray of a structure over the Euclidean plane against
    the general path from ``bundle`` and Cramer's rule."""

    @pytest.mark.parametrize("name", list(SPRAY_FIELDS))
    def test_matches_the_bundle_path(self, rng, name):
        # rows equal their solo evaluation: TestBatching, on both paths
        F = build_randers(euclidean_metric(), SPRAY_FIELDS[name]())
        assert F.spray is not None
        x = rng.uniform(-1.4, 1.4, size=(200, 2))
        v = rng.normal(size=(200, 2))
        got = Lagrangian(F).acceleration(x, v)
        ref = Lagrangian(without_spray(F)).acceleration(x, v)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.linalg.norm(ref, axis=1)[:, None])

    @pytest.mark.parametrize("name", ["saturated", "zero velocity", "outside the grid"])
    def test_errors_match_the_bundle_path(self, name):
        radial = CongestionField(lambda x: (0.5 * x, 0.5 * np.eye(2)), probes=((0.0, 0.0),))
        field, x, v = {
            "saturated": (radial, [[0.5, 0.0], [2.5, 0.0], [3.0, 0.0]], [[1.0, 0.0]] * 3),
            "zero velocity": (radial, [[0.5, 0.0], [0.2, 0.1]], [[1.0, 0.0], [0.0, 0.0]]),
            "outside the grid": (small_grid_field(), [[0.0, 0.0], [1.6, 0.0], [0.0, -2.0]], [[1.0, 0.0]] * 3),
        }[name]
        F = build_randers(euclidean_metric(), field)
        x, v = np.array(x), np.array(v)
        raised = []
        for structure in (F, without_spray(F)):
            with pytest.raises(DomainError) as exc:
                Lagrangian(structure).acceleration(x, v)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1]
        if name == "saturated":
            assert "at [2.5 0. ]" in raised[0][1]

    def test_one_jet_call_per_evaluation(self, rng):
        calls = []
        field = congestion_vortex(0.0, 0.0, 0.7)
        F = build_randers(euclidean_metric(), CongestionField(lambda x: calls.append(1) or field.jet(x), probes=field.probes))
        calls.clear()
        F.spray(rng.uniform(-1.0, 1.0, size=(12, 2)), rng.normal(size=(12, 2)))
        assert len(calls) == 1

    def test_a_copy_with_another_bundle_keeps_it(self):
        F = vortex_structure()
        assert dataclasses.replace(F, bundle=lambda x: F.bundle(x)).spray is F.spray

    def test_only_structures_over_the_euclidean_plane_have_one(self):
        vortex = congestion_vortex(0.0, 0.0, 0.5)
        assert euclidean_metric() is euclidean_metric(2)
        assert build_randers(constant_metric(np.eye(2)), vortex).spray is None
        assert build_randers(euclidean_metric(3), congestion_none(3)).spray is None
        assert constant_randers(np.eye(2), [0.3, 0.0]).spray is None

    @pytest.mark.parametrize(
        "p, q, vortex",
        [((-2, 0), (2, 0), (0.0, 0.0, 0.8)), ((-1.5, -0.3), (1.8, 0.6), (0.1, -0.2, 0.6)), ((-1.0, 1.0), (1.5, -1.2), (0.0, 0.0, 0.7))],
    )
    def test_same_bvp_decisions(self, p, q, vortex):
        F = build_randers(euclidean_metric(), congestion_vortex(*vortex))
        cfg = BvpConfig(nodes=24, restarts=2, explore=True)
        got, ref = geodesic_bvp(F, p, q, cfg), geodesic_bvp(without_spray(F), p, q, cfg)
        assert got.converged
        assert (got.starts, got.stages, got.multiplicity) == (ref.starts, ref.stages, ref.multiplicity)
        assert got.length == pytest.approx(ref.length, rel=1e-11, abs=0.0)


class TestGeneralDimension:
    """n = 3: the batched linear solve of ``acceleration`` and the non-planar
    restart rule of ``geodesic_bvp`` (2-D uses Cramer's rule and rotations)."""

    def test_singular_row_is_named(self):
        # row 1 moves along -b with ||b||_a = 1, so F = 0 and its tensor vanishes
        packed = (np.eye(3), np.array([-1.0, 0.0, 0.0]), np.zeros((3, 3, 3)), np.zeros((3, 3)))
        lag = Lagrangian(RandersStructure(bundle=lambda x: packed, dim=3))
        x = np.array([[0.0, 0.0, 0.0], [5.0, 6.0, 7.0]])
        v = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match=r"singular fiber Hessian at x=\(.*5\.0.*6\.0.*7\.0"):
            lag.acceleration(x, v)

    def test_constant_structure_geodesics(self):
        F = constant_randers(np.eye(3), (0.3, -0.1, 0.2))
        y0 = np.array([1.0, -0.5, 0.25])
        c = geodesic_ivp(F, GeodesicIvp((0.0, 0.0, 0.0), tuple(y0), steps=40))
        assert np.allclose(c.points, c.params[:, None] * y0, rtol=0.0, atol=1e-12)
        cfg = BvpConfig(explore=True, restarts=2, nodes=20)
        res = geodesic_bvp(F, (0, 0, 0), (1.0, 2.0, -0.5), cfg)
        assert res.converged and res.multiplicity == 1
        level = one_level(F, (0, 0, 0), (1.0, 2.0, -0.5), cfg)
        assert [s.outcome for s in level.records] == ["converged"] * 3
        # the driver: three coarse starts, one distinct solution, one polish
        assert [(s.outcome, s.nodes) for s in res.starts] == [("converged", 8)] * 3 + [("converged", 20)]


class TestElResidual:
    def test_straight_line_euclidean(self):
        c = straight_curve((0, 0), (3, 4), n=50)
        r = el_residual(euclidean_randers(), c)
        assert np.max(np.abs(r)) <= 1e-8

    def test_parabola_not_geodesic(self):
        t = np.linspace(0, 1, 100)
        pts = np.stack([t, t**2], axis=1)
        r = el_residual(euclidean_randers(), Curve(params=t, points=pts))
        assert np.max(np.abs(r)) > 0.5

    def test_straight_line_constant_randers(self):
        F = constant_randers([[1.4, 0.2], [0.2, 0.9]], [0.3, -0.2])
        c = straight_curve((0, 0), (1, 1), n=50)
        r = el_residual(F, c)
        assert np.max(np.abs(r)) <= 1e-8

    def test_zero_velocity_node_rejected(self):
        t = np.linspace(0, 1, 5)
        pts = np.array([[0.0, 0], [1.0, 0], [1.0, 0], [1.0, 0], [2.0, 0]])
        with pytest.raises(DomainError):
            el_residual(euclidean_randers(), Curve(params=t, points=pts))


class TestGeodesicIvp:
    def test_euclidean_endpoint(self):
        c = geodesic_ivp(euclidean_randers(), GeodesicIvp((0, 0), (1, 1), steps=100))
        assert np.allclose(c.points[-1], [1.0, 1.0], atol=1e-6)

    def test_constant_randers_straight(self):
        F = constant_randers(np.eye(2), [0.5, 0.0])
        c = geodesic_ivp(F, GeodesicIvp((0, 0), (0, 1), steps=100))
        assert np.allclose(c.points[-1], [0.0, 1.0], atol=1e-6)
        assert np.max(np.abs(el_residual(F, c))) <= 1e-8

    def test_zero_initial_velocity_rejected(self):
        with pytest.raises(ValueError):
            GeodesicIvp((0, 0), (0, 0))

    def test_non_integer_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be an integer"):
            GeodesicIvp((0, 0), (1, 0), steps=10.5)

    def test_constant_speed_first_integral(self):
        F = vortex_structure(0.8)
        for y0 in [(1.0, 0.1), (0.3, -1.2)]:
            c = geodesic_ivp(F, GeodesicIvp((-2.0, 0.1), y0, steps=300))
            speeds = [
                float(np.sqrt(c.velocities[k] @ F.coefficients(c.points[k])[0] @ c.velocities[k])
                      + F.coefficients(c.points[k])[1] @ c.velocities[k])
                for k in range(c.n_nodes)
            ]
            speeds = np.array(speeds)
            assert np.max(np.abs(speeds - speeds[0])) <= 1e-6 * abs(speeds[0])

    def test_doubled_velocity_covers_two_unit_flows(self):
        # L = F^2/2 is 2-homogeneous in y: the flow from 2 y0 over unit time is
        # the flow from y0 over time 2, and RK4 steps of 1/(2n) on the first
        # are steps of 1/n on the second
        F = vortex_structure(0.5)
        x0, y0, n = (-1.5, 0.2), np.array([0.5, 0.15]), 200
        doubled = geodesic_ivp(F, GeodesicIvp(x0, 2.0 * y0, steps=2 * n))
        first = geodesic_ivp(F, GeodesicIvp(x0, y0, steps=n))
        second = geodesic_ivp(F, GeodesicIvp(first.points[-1], first.velocities[-1], steps=n))
        assert np.allclose(doubled.points[-1], second.points[-1], rtol=0.0, atol=1e-12)
        assert np.allclose(doubled.velocities[-1], 2.0 * second.velocities[-1], rtol=0.0, atol=1e-12)

    def test_fourth_order_convergence_on_curved_field(self):
        # Euclidean base + position-dependent congestion; reference from a fine run
        F = vortex_structure(0.8)
        x0, y0 = (-2.0, 0.15), (1.1, 0.2)
        ref = geodesic_ivp(F, GeodesicIvp(x0, y0, steps=3200)).points[-1]
        errors = []
        for steps in (25, 50, 100):
            end = geodesic_ivp(F, GeodesicIvp(x0, y0, steps=steps)).points[-1]
            errors.append(np.linalg.norm(end - ref))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert min(orders) >= 3.5

    def test_euclidean_integrates_exactly(self):
        # trivial dynamics: endpoint exact to round-off at any resolution
        for steps in (10, 40):
            c = geodesic_ivp(euclidean_randers(), GeodesicIvp((0, 0), (1, 1), steps=steps))
            assert np.allclose(c.points[-1], [1.0, 1.0], atol=1e-12)


class TestGeodesicBvp:
    def test_euclidean_chord(self):
        res = geodesic_bvp(euclidean_randers(), (0, 0), (1, 2))
        assert res.converged
        assert res.length == pytest.approx(np.sqrt(5.0), abs=1e-6)
        chord = straight_curve((0, 0), (1, 2), n=res.curve.n_nodes)
        assert np.max(np.abs(res.curve.points - chord.points)) <= 1e-6

    def test_identical_endpoints_rejected(self):
        with pytest.raises(ValueError):
            geodesic_bvp(euclidean_randers(), (1, 1), (1, 1))

    def test_distinct_endpoints_at_large_coordinates_accepted(self):
        # 5 apart at 1e6: np.allclose would call these equal
        res = geodesic_bvp(euclidean_randers(), (1e6, 0), (1e6 + 5, 0), BvpConfig(restarts=0))
        assert res.converged
        assert res.length == pytest.approx(5.0, abs=1e-6)

    def test_drift_asymmetry(self):
        F = constant_randers(np.eye(2), [-0.3, 0.0])
        fwd = geodesic_bvp(F, (0, 0), (1, 0))
        bwd = geodesic_bvp(F, (0, 0), (-1, 0))
        assert fwd.converged and bwd.converged
        assert fwd.length == pytest.approx(0.7, abs=1e-8)
        assert bwd.length == pytest.approx(1.3, abs=1e-8)

    def test_vortex_beats_chord(self):
        F = vortex_structure(0.8)
        cfg = BvpConfig(explore=True)
        level = one_level(F, (-2, 0), (2, 0), cfg)
        # the decisions of the unbatched single-level solver (63 Newton
        # iterations, four distinct geodesics, the same chosen start)
        iterations, restarts, multiplicity, (y0, _, length) = decisions(F, level)
        assert (iterations, multiplicity, restarts) == (63, 4, 8)
        assert np.allclose(y0, [2.802499374474956, 2.4194874062777747], rtol=0.0, atol=1e-9)
        chord = straight_curve((-2, 0), (2, 0), n=400)
        assert length <= curve_length(F, chord) + 1e-8
        # coarse to fine: the same winner, two of the four polished
        # geodesics merge, 86 Newton iterations over both levels
        res = geodesic_bvp(F, (-2, 0), (2, 0), cfg)
        assert res.converged
        assert (res.iterations, res.multiplicity, res.restarts_used) == (86, 3, 8)
        assert [s.nodes for s in res.starts] == [8] * 9 + [200] * 4
        assert np.allclose(res.initial_velocity, y0, rtol=1e-9, atol=0.0)
        assert res.length == pytest.approx(length, rel=1e-10)

    def test_minimality_against_perturbations(self, rng):
        F = vortex_structure(0.8)
        res = geodesic_bvp(F, (-2, 0), (2, 0))
        assert res.converged
        for _ in range(50):
            pert = perturbed_curve(rng, res.curve)
            assert res.length <= curve_length(F, pert) + 1e-9

    def test_el_residual_refinement_order(self):
        F = vortex_structure(0.8)
        norms = []
        for nodes in (100, 200, 400):
            res = geodesic_bvp(F, (-2, 0), (2, 0), BvpConfig(nodes=nodes))
            assert res.converged
            norms.append(np.max(np.abs(el_residual(F, res.curve))))
        orders = [np.log2(norms[i] / norms[i + 1]) for i in range(len(norms) - 1)]
        assert min(orders) >= 1.5

    def test_nonconvergence_reported_not_raised(self, monkeypatch):
        F = vortex_structure(0.8)
        cfg = BvpConfig(restarts=0)
        monkeypatch.setattr(geodesic, "MAX_NEWTON", 0)
        res = geodesic_bvp(F, (-2, 0), (2, 0), cfg)
        assert not res.converged
        assert res.endpoint_error > cfg.tol
        assert res.multiplicity == 0

    def test_deterministic_given_seed(self):
        F = vortex_structure(0.8)
        r1 = geodesic_bvp(F, (-2, 0), (2, 0), BvpConfig(seed=7))
        r2 = geodesic_bvp(F, (-2, 0), (2, 0), BvpConfig(seed=7))
        assert np.array_equal(r1.curve.points, r2.curve.points)
        assert r1.length == r2.length


# 24-node vortex scenarios (route-vortex benchmark pool, seed 1, instances 2,
# 7 and 22) with the decisions of the unbatched solver: for explore on and
# off, (iterations, restarts used, multiplicity, chosen initial velocity).
PINNED_BVPS = [
    (
        (0.303492, -1.155872), (0.831098, 1.903128), (0.46875, 0.390625, 0.775),
        {True: (23, 2, 3, (-2.615364147075801, 2.1026073234770712)),
         False: (8, 0, 1, (2.412697192717185, -3.8499952153070534))},
    ),
    (
        (-0.7838, -0.662342), (1.733734, -0.184404), (0.46875, -0.390625, 0.4917),
        {True: (16, 2, 1, (1.3223973943969967, 2.386404094692849)),
         False: (16, 2, 1, (1.3223973943969967, 2.386404094692849))},
    ),
    (
        (-0.9272549999999999, 0.510281), (1.872044, -0.38013), (0.421875, -0.09375, 0.4417),
        {True: (14, 2, 1, (2.7140418909975796, 0.9721685026825235)),
         False: (10, 1, 1, (2.7140418909975796, 0.9721685026825235))},
    ),
]


class TestBvpDecisions:
    @pytest.mark.parametrize("explore", [True, False])
    @pytest.mark.parametrize("case", range(len(PINNED_BVPS)))
    def test_batching_keeps_the_decisions(self, case, explore):
        p, q, vortex, expected = PINNED_BVPS[case]
        F = build_randers(euclidean_metric(), congestion_vortex(*vortex))
        level = one_level(F, p, q, BvpConfig(nodes=24, restarts=2, explore=explore))
        iterations, restarts, multiplicity, y0 = expected[explore]
        assert level.solutions
        got_iterations, got_restarts, got_multiplicity, (got_y0, _, _) = decisions(F, level)
        assert (got_iterations, got_restarts, got_multiplicity) == (iterations, restarts, multiplicity)
        assert np.allclose(got_y0, y0, rtol=0.0, atol=1e-9)

    def test_start_outcomes_repeat_and_report_domain_exit(self):
        # the fourth of five starts shoots out of the sampled grid
        F = small_grid_structure()
        cfg = BvpConfig(explore=True, restarts=4, nodes=30, seed=2)
        runs = [one_level(F, (-1.0, 0.0), (1.0, 0.0), cfg) for _ in range(2)]
        assert runs[0].records == runs[1].records
        outcomes = [s.outcome for s in runs[0].records]
        assert outcomes == ["converged", "converged", "converged", "domain_exit", "converged"]
        assert all(s.iterations == 0 for s in runs[0].records if s.outcome == "domain_exit")
        # the driver's coarse level meets the same exit; its records repeat too
        driven = [geodesic_bvp(F, (-1.0, 0.0), (1.0, 0.0), cfg) for _ in range(2)]
        assert (driven[0].starts, driven[0].stages) == (driven[1].starts, driven[1].stages)
        assert [s.outcome for s in driven[0].starts if s.nodes == 8] == outcomes

    def test_stalled_outcome(self, monkeypatch):
        F = vortex_structure(0.8)
        monkeypatch.setattr(geodesic, "MAX_NEWTON", 0)
        level = one_level(F, (-2, 0), (2, 0), BvpConfig(restarts=0))
        assert [(s.outcome, s.iterations) for s in level.records] == [("stalled", 0)]

    def test_fd_failed_outcome(self):
        # a wall x_0 = c between the reach of the chord's shot and that of its
        # first finite-difference companion: the shot stays inside, the
        # companion leaves, and the start has no Jacobian.  The wall stands in
        # the congestion field's jet, which the structure's spray evaluates.
        field = congestion_vortex(0.0, 0.0, 0.3)
        p, q = np.array([-2.0, 1.0]), np.array([2.0, 1.0])
        cfg = BvpConfig(nodes=24, restarts=0)
        steps = cfg.nodes - 1

        def walled(wall, seen):  # the structure, its field raising beyond x_0 = wall
            def jet(x):
                seen.append(np.max(x[..., 0]))
                if seen[-1] > wall:
                    raise DomainError("beyond the wall")
                return field.jet(x)

            return build_randers(euclidean_metric(), CongestionField(jet, probes=field.probes))

        def reach(y0):  # the largest x_0 at which a shot of y0 evaluates the field
            seen = []
            lag = Lagrangian(walled(np.inf, seen))
            seen.clear()  # the probe check of build_randers
            geodesic._integrate(lag.acceleration, p[None], y0[None], steps, 1.0 / steps)
            return max(seen)

        y0 = q - p
        inside, outside = reach(y0), reach(y0 + [geodesic.SHOT_FD_STEP * max(1.0, abs(y0[0])), 0.0])
        assert inside < outside
        level = one_level(walled(0.5 * (inside + outside), []), p, q, cfg)
        assert level.records == [StartOutcome("fd_failed", 1, 24)]
        assert not level.solutions
        assert geodesic_bvp(build_randers(euclidean_metric(), field), p, q, cfg).converged  # without the wall

    def test_singular_outcome(self):
        # near x_0 = 1e10 a coordinate resolves only about 2e-6, coarser than
        # the finite-difference change of the endpoint, so the shooting
        # Jacobian's columns are zero
        F = constant_randers(np.eye(2), [0.2, -0.1])
        p = np.array([1e10, 0.0])
        level = one_level(F, p, p + [1.0, 0.5], BvpConfig(nodes=24, restarts=0))
        assert level.records == [StartOutcome("singular", 1, 24)]
        assert not level.solutions

    def test_overflowing_step_is_singular(self):
        # a Jacobian of subnormal entries solves to an infinite step
        end = np.zeros(2)
        shot = geodesic._Shot(np.array([end, end]), np.ones((2, 2)), end + 1e-318 * np.eye(2), np.ones(2))
        run = geodesic._newton(np.ones(2), np.ones(2), BvpConfig())
        next(run)
        with pytest.raises(StopIteration) as stop:
            run.send([shot])
        assert stop.value.value[0] == StartOutcome("singular", 1, 200)

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol": float("inf")},
            {"tol": float("nan")},
            {"tol": 0.0},
            {"restarts": -1},
            {"nodes": 30.5},
            {"nodes": True},
            {"restarts": 1.5},
            {"seed": 0.5},
        ],
    )
    def test_config_rejects_invalid(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            BvpConfig(**bad)


def driver_cases():
    """(structure, p, q, config) of the pinned 24-node cases, the default
    200-node vortex(0.8) solve and the 3-D constant structure."""
    for p, q, vortex, _ in PINNED_BVPS:
        F = build_randers(euclidean_metric(), congestion_vortex(*vortex))
        for explore in (True, False):
            yield F, p, q, BvpConfig(nodes=24, restarts=2, explore=explore)
    yield vortex_structure(0.8), (-2, 0), (2, 0), BvpConfig()
    F3 = constant_randers(np.eye(3), (0.3, -0.1, 0.2))
    yield F3, (0, 0, 0), (1.0, 2.0, -0.5), BvpConfig(explore=True, restarts=2, nodes=20)


class TestCoarseToFine:
    """``geodesic_bvp`` above ``COARSE_NODES`` against the single-level solve
    ``_solve`` at the full resolution."""

    @pytest.mark.parametrize("case", list(driver_cases()))
    def test_no_worse_than_one_level(self, monkeypatch, case):
        F, p, q, cfg = case
        level = one_level(F, p, q, cfg)
        calls = []
        accel = Lagrangian.acceleration
        monkeypatch.setattr(Lagrangian, "acceleration", lambda self, x, v: calls.append(1) or accel(self, x, v))
        res = geodesic_bvp(F, p, q, cfg)
        monkeypatch.undo()
        assert level.solutions and res.converged
        assert res.length <= decisions(F, level)[3][2] * (1 + 1e-6)
        assert res.curve.n_nodes == cfg.nodes
        assert res.starts[-1].nodes == cfg.nodes
        assert res.iterations == sum(s.iterations for s in res.starts)
        assert res.restarts_used == sum(s.nodes == geodesic.COARSE_NODES for s in res.starts) - 1
        assert res.stages == len(calls)
        again = geodesic_bvp(F, p, q, cfg)
        assert (again.stages, again.starts) == (res.stages, res.starts)

    @pytest.mark.parametrize("nodes", [5, geodesic.COARSE_NODES])
    def test_coarse_resolution_is_one_level(self, nodes):
        F = vortex_structure(0.8)
        cfg = BvpConfig(explore=True, restarts=2, nodes=nodes)
        calls = []
        level = one_level(F, (-2, 0), (2, 0), cfg, calls)
        res = geodesic_bvp(F, (-2, 0), (2, 0), cfg)
        assert res.converged
        iterations, restarts, multiplicity, (y0, curve, length) = decisions(F, level)
        assert (res.iterations, res.restarts_used, res.multiplicity) == (iterations, restarts, multiplicity)
        assert np.array_equal(res.initial_velocity, y0)
        assert np.array_equal(res.curve.points, curve.points)
        assert res.length == length
        assert (res.starts, res.stages) == (tuple(level.records), len(calls))

    def test_never_converging_falls_back_to_full_resolution(self, monkeypatch):
        F = vortex_structure(0.8)
        cfg = BvpConfig(restarts=1)
        monkeypatch.setattr(geodesic, "MAX_NEWTON", 0)
        level = one_level(F, (-2, 0), (2, 0), cfg)
        res = geodesic_bvp(F, (-2, 0), (2, 0), cfg)
        assert not res.converged and res.multiplicity == 0
        assert res.curve.n_nodes == cfg.nodes
        _, curve, y0 = level.closest
        assert np.array_equal(res.curve.points, curve.points)
        assert np.array_equal(res.initial_velocity, y0)
        # two coarse records, then the fallback's, which are the level's
        assert [s.nodes for s in res.starts] == [geodesic.COARSE_NODES] * 2 + [cfg.nodes] * 2
        assert res.starts[2:] == tuple(level.records)
        assert res.restarts_used == 1
