import numpy as np
import pytest

from congeo.finsler import (
    DomainError,
    RandersStructure,
    build_randers,
    congestion_vortex,
    constant_randers,
    euclidean_metric,
    euclidean_randers,
    grid_congestion,
)
from congeo import geodesic
from congeo.geodesic import (
    BvpConfig,
    Curve,
    GeodesicIvp,
    Lagrangian,
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


def small_grid_structure():
    """A swirl sampled on non-uniform axes over [-1.5, 1.5]^2."""
    xs = np.array([-1.5, -1.0, -0.2, 0.3, 0.9, 1.5])
    ys = np.array([-1.5, -0.7, 0.0, 0.4, 1.5])
    w = np.array([[[0.2 * np.sin(2 * px) * np.cos(py), 0.1 * px * py] for py in ys] for px in xs])
    return build_randers(euclidean_metric(), grid_congestion(xs, ys, w))


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


class TestLagrangian:
    def test_value_is_half_f_squared(self):
        F = constant_randers(np.eye(2), [0.5, 0.0])
        lag = Lagrangian(F)
        assert lag.value((0, 0), (1, 0)) == pytest.approx(0.5 * 1.5**2)

    def test_degree_two_homogeneity(self, rng):
        lag = Lagrangian(constant_randers([[1.2, 0.1], [0.1, 0.9]], [0.2, -0.3]))
        for _ in range(20):
            y = rng.normal(size=2)
            lam = rng.uniform(0.1, 10)
            assert lag.value((0, 0), lam * y) == pytest.approx(lam**2 * lag.value((0, 0), y), rel=1e-12)

    def test_fiber_grad_matches_fd(self, rng):
        F = vortex_structure(0.6)
        lag = Lagrangian(F)
        x = np.array([0.4, -0.2])
        y = np.array([1.0, 0.7])
        g = lag.fiber_grad(x, y)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (lag.value(x, y + e) - lag.value(x, y - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6)

    def test_position_grad_matches_fd(self):
        F = vortex_structure(0.6)
        lag = Lagrangian(F)
        x = np.array([0.4, -0.2])
        y = np.array([1.0, 0.7])
        g = lag.position_grad(x, y)
        h = 1e-6
        for m in range(2):
            e = np.zeros(2)
            e[m] = h
            fd = (lag.value(x + e, y) - lag.value(x - e, y)) / (2 * h)
            assert g[m] == pytest.approx(fd, rel=1e-5)

    def test_mixed_matches_fd(self):
        F = vortex_structure(0.6)
        lag = Lagrangian(F)
        x = np.array([0.4, -0.2])
        y = np.array([1.0, 0.7])
        mx = lag.mixed(x, y)
        h = 1e-6
        for m in range(2):
            e = np.zeros(2)
            e[m] = h
            fd = (lag.fiber_grad(x + e, y) - lag.fiber_grad(x - e, y)) / (2 * h)
            assert np.allclose(mx[m], fd, rtol=1e-5, atol=1e-8)


class TestBatching:
    """Rows of a batch equal the same states (or shots) computed alone, bit for bit."""

    @pytest.mark.parametrize("make", [vortex_structure, small_grid_structure])
    def test_acceleration_rows_equal_single_states(self, rng, make):
        lag = Lagrangian(make())
        x = rng.uniform(-1.2, 1.2, size=(27, 2))
        v = rng.normal(size=(27, 2))
        batch = lag.acceleration(x, v)
        for k in range(27):
            assert np.array_equal(batch[k], lag.acceleration(x[k], v[k]))

    def test_other_terms_rows_equal_single_states(self, rng):
        lag = Lagrangian(vortex_structure(0.6))
        x = rng.uniform(-1.2, 1.2, size=(9, 2))
        y = rng.normal(size=(9, 2))
        for term in (lag.value, lag.fiber_grad, lag.fiber_hessian, lag.position_grad, lag.mixed):
            batch = term(x, y)
            for k in range(9):
                assert np.array_equal(batch[k], term(x[k], y[k]))

    @pytest.mark.parametrize("make", [vortex_structure, small_grid_structure])
    def test_batched_shot_rows_equal_solo_shots(self, make):
        F = make()
        x0 = (-0.5, 0.1)
        # on the grid, the third velocity carries its shot out of the grid
        y0 = np.array([[1.0, 0.2], [0.5, -0.3], [30.0, 1.0], [0.9, 0.9]])
        steps = 30
        xs, vs, errors = geodesic._integrate(
            Lagrangian(F), np.broadcast_to(x0, y0.shape), y0, steps, 1.0 / steps
        )
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

    def test_single_ivp_raises_the_row_error(self):
        with pytest.raises(DomainError, match="outside congestion grid"):
            geodesic_ivp(small_grid_structure(), GeodesicIvp((-0.5, 0.1), (30.0, 1.0), steps=30))


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
        res = geodesic_bvp(F, (0, 0, 0), (1.0, 2.0, -0.5), BvpConfig(explore=True, restarts=2, nodes=20))
        assert res.converged and res.multiplicity == 1
        assert [s.outcome for s in res.starts] == ["converged"] * 3


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
        c = geodesic_ivp(euclidean_randers(), GeodesicIvp((0, 0), (1, 1), horizon=1.0, steps=100))
        assert np.allclose(c.points[-1], [1.0, 1.0], atol=1e-6)

    def test_constant_randers_straight(self):
        F = constant_randers(np.eye(2), [0.5, 0.0])
        c = geodesic_ivp(F, GeodesicIvp((0, 0), (0, 1), horizon=1.0, steps=100))
        assert np.allclose(c.points[-1], [0.0, 1.0], atol=1e-6)
        assert np.max(np.abs(el_residual(F, c))) <= 1e-8

    def test_zero_initial_velocity_rejected(self):
        with pytest.raises(ValueError):
            GeodesicIvp((0, 0), (0, 0))

    def test_constant_speed_first_integral(self):
        F = vortex_structure(0.8)
        for y0 in [(1.0, 0.1), (0.3, -1.2)]:
            c = geodesic_ivp(F, GeodesicIvp((-2.0, 0.1), y0, horizon=1.0, steps=300))
            speeds = [
                float(np.sqrt(c.velocities[k] @ F.coefficients(c.points[k])[0] @ c.velocities[k])
                      + F.coefficients(c.points[k])[1] @ c.velocities[k])
                for k in range(c.n_nodes)
            ]
            speeds = np.array(speeds)
            assert np.max(np.abs(speeds - speeds[0])) <= 1e-6 * abs(speeds[0])

    def test_horizon_rescaling_preserves_endpoint(self):
        F = vortex_structure(0.5)
        c1 = geodesic_ivp(F, GeodesicIvp((-1.5, 0.2), (1.0, 0.3), horizon=1.0, steps=400))
        c2 = geodesic_ivp(F, GeodesicIvp((-1.5, 0.2), (0.5, 0.15), horizon=2.0, steps=400))
        assert np.allclose(c1.points[-1], c2.points[-1], atol=1e-8)

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
        res = geodesic_bvp(F, (-2, 0), (2, 0), BvpConfig(explore=True))
        assert res.converged
        # the decisions of the unbatched solver (63 Newton iterations, four
        # distinct geodesics, the same chosen start)
        assert (res.iterations, res.multiplicity, res.restarts_used) == (63, 4, 8)
        assert np.allclose(res.initial_velocity, [2.802499374474956, 2.4194874062777747], rtol=0.0, atol=1e-9)
        chord = straight_curve((-2, 0), (2, 0), n=400)
        assert res.length <= curve_length(F, chord) + 1e-8

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

    def test_nonconvergence_reported_not_raised(self):
        F = vortex_structure(0.8)
        cfg = BvpConfig(max_newton=0, restarts=0)
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
        res = geodesic_bvp(F, p, q, BvpConfig(nodes=24, restarts=2, explore=explore))
        iterations, restarts, multiplicity, y0 = expected[explore]
        assert res.converged
        assert (res.iterations, res.restarts_used, res.multiplicity) == (iterations, restarts, multiplicity)
        assert np.allclose(res.initial_velocity, y0, rtol=0.0, atol=1e-9)
        assert len(res.starts) == res.restarts_used + 1
        assert sum(s.iterations for s in res.starts) == res.iterations

    def test_start_outcomes_repeat_and_report_domain_exit(self):
        # the fourth of five starts shoots out of the sampled grid
        F = small_grid_structure()
        cfg = BvpConfig(explore=True, restarts=4, nodes=30, seed=2)
        runs = [geodesic_bvp(F, (-1.0, 0.0), (1.0, 0.0), cfg) for _ in range(2)]
        assert runs[0].starts == runs[1].starts
        outcomes = [s.outcome for s in runs[0].starts]
        assert outcomes == ["converged", "converged", "converged", "domain_exit", "converged"]
        assert all(s.iterations == 0 for s in runs[0].starts if s.outcome == "domain_exit")

    def test_stalled_outcome(self):
        F = vortex_structure(0.8)
        res = geodesic_bvp(F, (-2, 0), (2, 0), BvpConfig(max_newton=0, restarts=0))
        assert [(s.outcome, s.iterations) for s in res.starts] == [("stalled", 0)]

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol": float("inf")},
            {"tol": float("nan")},
            {"tol": 0.0},
            {"fd_step": 0.0},
            {"fd_step": -1e-6},
            {"fd_step": float("nan")},
            {"max_newton": -1},
            {"restarts": -1},
            {"max_backtracks": 0},
        ],
    )
    def test_config_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            BvpConfig(**bad)
