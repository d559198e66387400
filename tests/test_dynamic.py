import numpy as np
import pytest
from scipy.integrate import quad

from congeo.dynamic import (
    AffineCost,
    DynamicConfig,
    Trajectory,
    complementarity_merit,
    dynamic_gap,
    minimize_dynamic,
    parse_cost_model,
)
from congeo.dynamic import _affine_gradient, _fd_gradient
from congeo.ncp import fb_phi

SQ2 = np.sqrt(2.0)

HALF_PHI_LINEAR = (SQ2 - 2.0) / 4.0  # int of (phi(t,t)/2) dt on [0,1]
HALF_PHI_SQ_LINEAR = (SQ2 - 2.0) ** 2 / 6.0


def linear_traj(n=1001):
    t = np.linspace(0.0, 1.0, n)
    return Trajectory(grid=t, h=t, c=t)


class TestTrajectory:
    def test_requires_some_cost(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="exactly one"):
            Trajectory(grid=t, h=t)

    def test_rejects_both_costs(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="exactly one"):
            Trajectory(grid=t, h=t, c=t, cost=lambda h, tt: h)

    def test_rejects_negative_flow(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            Trajectory(grid=t, h=t - 0.5, c=t)

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            Trajectory(grid=np.array([0.0, 1.0]), h=np.zeros(2), c=np.zeros(2))

    def test_monotone_flag(self):
        t = np.linspace(0, 1, 9)
        assert Trajectory(grid=t, h=t, c=t).monotone()
        assert not Trajectory(grid=t, h=np.abs(t - 0.5), c=t).monotone()

    def test_cost_model_evaluation(self):
        t = np.linspace(0, 1, 5)
        traj = Trajectory(grid=t, h=2 * t, cost=parse_cost_model("affine(0.5, 1)"))
        assert np.allclose(traj.cost_values(), t + 1.0)


class TestDynamicGap:
    def test_complementary_path_is_zero(self):
        t = np.linspace(0, 1, 101)
        traj = Trajectory(grid=t, h=t, c=np.zeros_like(t))
        assert dynamic_gap(traj, DynamicConfig(variant="half_phi")) == pytest.approx(0.0, abs=1e-14)

    def test_half_phi_closed_form(self):
        val = dynamic_gap(linear_traj(), DynamicConfig(variant="half_phi"))
        assert val == pytest.approx(HALF_PHI_LINEAR, abs=1e-5)
        assert val == pytest.approx(-0.146447, abs=1e-5)

    def test_half_phi_squared_closed_form(self):
        val = dynamic_gap(linear_traj(), DynamicConfig(variant="half_phi_squared"))
        assert val == pytest.approx(HALF_PHI_SQ_LINEAR, abs=1e-5)
        assert val == pytest.approx(0.057191, abs=1e-5)

    def test_pi_offset_shifts_cost(self):
        t = np.linspace(0, 1, 201)
        traj = Trajectory(grid=t, h=t, c=t + 0.7)
        shifted = dynamic_gap(traj, DynamicConfig(variant="half_phi", pi_offset=0.7))
        assert shifted == pytest.approx(HALF_PHI_LINEAR, abs=1e-5)

    def test_order_two_convergence(self):
        # h = t^3 exercises genuine error in both the quadrature and h'
        cfg = DynamicConfig(variant="half_phi_squared")

        def exact_integrand(t):
            return 0.5 * fb_phi(t**3, t) ** 2 * 3 * t**2

        ref, _ = quad(exact_integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
        errs = []
        for n in (51, 101, 201, 401):
            t = np.linspace(0, 1, n)
            val = dynamic_gap(Trajectory(grid=t, h=t**3, c=t), cfg)
            errs.append(abs(val - ref))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.8


class TestComplementarityMerit:
    def test_nonnegative_squared_variant(self, rng):
        t = np.linspace(0, 1, 64)
        for _ in range(50):
            h = rng.uniform(0, 3, size=64)
            c = rng.uniform(-2, 3, size=64)
            assert complementarity_merit(Trajectory(grid=t, h=h, c=c)) >= 0.0

    def test_zero_iff_pointwise_complementarity(self):
        t = np.linspace(0, 1, 64)
        h = np.concatenate([np.zeros(32), np.linspace(0, 1, 32)])
        c = np.concatenate([np.linspace(2, 1, 32), np.zeros(32)])
        assert complementarity_merit(Trajectory(grid=t, h=h, c=c)) == pytest.approx(0.0, abs=1e-14)
        c_bad = c.copy()
        c_bad[10] = -1.0
        assert complementarity_merit(Trajectory(grid=t, h=h, c=c_bad)) > 1e-6


class TestMinimizeDynamic:
    def test_zero_cost_returns_start_unchanged(self):
        grid = np.linspace(0, 1, 51)
        h0 = 0.5 + 0.3 * np.sin(4 * grid) ** 2
        res = minimize_dynamic(parse_cost_model("zero"), grid, h0=h0)
        assert res.converged
        assert np.array_equal(res.trajectory.h, np.maximum(h0, 0.0))
        assert res.objective == 0.0

    def test_identity_cost_drives_flow_to_zero(self):
        grid = np.linspace(0, 1, 101)
        res = minimize_dynamic(parse_cost_model("identity"), grid, h0=np.ones(101))
        assert np.max(np.abs(res.trajectory.h)) <= 1e-3
        assert res.objective <= 1e-8

    def test_grid_refinement_stability(self):
        vals = []
        for n in (51, 201):
            grid = np.linspace(0, 1, n)
            res = minimize_dynamic(parse_cost_model("identity"), grid, h0=np.ones(n))
            vals.append(res.objective)
        assert abs(vals[0] - vals[1]) <= 1e-4

    def test_objective_monotone_and_flows_nonnegative(self):
        grid = np.linspace(0, 1, 41)
        res = minimize_dynamic(parse_cost_model("affine(1, -0.5)"), grid, h0=np.full(41, 2.0))
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 0.0)
        assert np.all(res.trajectory.h >= 0.0)

    def test_fix_endpoints_respected(self):
        grid = np.linspace(0, 1, 31)
        cfg = DynamicConfig(fix_endpoints=True)
        res = minimize_dynamic(parse_cost_model("identity"), grid, cfg, h0=np.ones(31))
        assert res.trajectory.h[0] == 1.0
        assert res.trajectory.h[-1] == 1.0
        assert np.max(res.trajectory.h[1:-1]) <= 1e-3

    def test_iteration_budget_reported(self):
        grid = np.linspace(0, 1, 31)
        cfg = DynamicConfig(max_iter=2)
        res = minimize_dynamic(parse_cost_model("identity"), grid, cfg, h0=np.ones(31))
        assert not res.converged
        assert res.iterations == 2

    def test_reports_literal_gap_and_monotone_flag(self):
        grid = np.linspace(0, 1, 31)
        res = minimize_dynamic(parse_cost_model("identity"), grid, h0=grid.copy())
        assert res.monotone_flow in (True, False)
        assert np.isfinite(res.gap)


class TestExactGradient:
    """The AffineCost gradient against the finite-difference reference path."""

    @pytest.mark.parametrize("variant", ["half_phi", "half_phi_squared"])
    @pytest.mark.parametrize("per_node", [False, True])
    @pytest.mark.parametrize("a", [0.0, 0.7, 1.0])
    def test_matches_finite_differences(self, rng, a, per_node, variant):
        n = 41
        grid = np.sort(rng.uniform(0.0, 2.0, n))
        h = rng.uniform(0.2, 2.0, n)
        b = rng.uniform(-1.5, 1.5, n) if per_node else 0.8
        zero = [3, 17, 30]
        h[zero] = 0.0
        if per_node:
            b[zero] = 1.1
        model = AffineCost(a, b)
        cfg = DynamicConfig(variant=variant, pi_offset=0.3)
        assert np.all(model(h, grid)[zero] - cfg.pi_offset > 0.0)  # zero flow, positive cost

        def objective(hv):
            return complementarity_merit(Trajectory(grid=grid, h=hv, cost=model), cfg)

        exact = _affine_gradient(model, grid, h, cfg)
        fd = _fd_gradient(objective, h, 1e-7)
        # the one-sided differences at h = 0 carry an O(fd_step) truncation error
        np.testing.assert_allclose(exact, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))

    def test_minimize_matches_finite_difference_path(self):
        grid = np.linspace(0, 1, 41)
        model = parse_cost_model("affine(1, -0.5)")
        exact = minimize_dynamic(model, grid, h0=np.full(41, 2.0))
        fd = minimize_dynamic(lambda h, t: 1.0 * np.asarray(h) - 0.5, grid, h0=np.full(41, 2.0))
        assert (exact.gradient, fd.gradient) == ("exact", "finite_difference")
        assert exact.iterations == fd.iterations
        assert np.max(np.abs(exact.trajectory.h - fd.trajectory.h)) <= 1e-8
        assert exact.objective_evaluations < fd.objective_evaluations / 20


class TestCostModels:
    def test_zero(self):
        m = parse_cost_model("zero")
        assert np.allclose(m(np.array([1.0, 2.0]), np.array([0.0, 1.0])), 0.0)

    def test_identity(self):
        m = parse_cost_model("identity")
        assert np.allclose(m(np.array([1.0, 2.0]), np.zeros(2)), [1.0, 2.0])

    def test_affine(self):
        m = parse_cost_model("affine(2, -1)")
        assert np.allclose(m(np.array([1.0, 2.0]), np.zeros(2)), [1.0, 3.0])

    @pytest.mark.parametrize("bad", ["cubic(1)", "affine(1)", "identity(2)", "affine(x,y)"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_cost_model(bad)
