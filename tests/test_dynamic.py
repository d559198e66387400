import numpy as np
import pytest
from scipy.integrate import quad

from congeo.dynamic import (
    AffineCost,
    Trajectory,
    complementarity_merit,
    dynamic_gap,
    minimize_dynamic,
    parse_cost_model,
)
from congeo.ncp import fb_phi

SQ2 = np.sqrt(2.0)

HALF_PHI_LINEAR = (SQ2 - 2.0) / 4.0  # int of (phi(t,t)/2) dt on [0,1]
HALF_PHI_SQ_LINEAR = (SQ2 - 2.0) ** 2 / 6.0


def linear_traj(n=1001):
    t = np.linspace(0.0, 1.0, n)
    return Trajectory(grid=t, h=t, c=t)


class TestTrajectory:
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


class TestDynamicGap:
    def test_complementary_path_is_zero(self):
        t = np.linspace(0, 1, 101)
        traj = Trajectory(grid=t, h=t, c=np.zeros_like(t))
        assert dynamic_gap(traj, variant="half_phi") == pytest.approx(0.0, abs=1e-14)

    def test_half_phi_closed_form(self):
        val = dynamic_gap(linear_traj(), variant="half_phi")
        assert val == pytest.approx(HALF_PHI_LINEAR, abs=1e-5)
        assert val == pytest.approx(-0.146447, abs=1e-5)

    def test_half_phi_squared_closed_form(self):
        val = dynamic_gap(linear_traj(), variant="half_phi_squared")
        assert val == pytest.approx(HALF_PHI_SQ_LINEAR, abs=1e-5)
        assert val == pytest.approx(0.057191, abs=1e-5)

    def test_order_two_convergence(self):
        # h = t^3 exercises genuine error in both the quadrature and h'
        def exact_integrand(t):
            return 0.5 * fb_phi(t**3, t) ** 2 * 3 * t**2

        ref, _ = quad(exact_integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
        errs = []
        for n in (51, 101, 201, 401):
            t = np.linspace(0, 1, n)
            val = dynamic_gap(Trajectory(grid=t, h=t**3, c=t), variant="half_phi_squared")
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

    def test_closed_form_is_complementary(self, rng):
        for trial in range(20):
            n = int(rng.integers(5, 60))
            grid = np.cumsum(rng.uniform(0.01, 1.0, n))
            a = float(rng.uniform(0.1, 3.0))
            if trial % 2:  # per node, with exact zeros
                b = rng.uniform(-2.0, 2.0, n)
                b[rng.choice(n, 3, replace=False)] = 0.0
            else:  # scalar, exactly zero in every fourth model
                b = 0.0 if trial % 4 == 0 else float(rng.uniform(-2.0, 2.0))
            h0 = rng.uniform(-1.0, 2.0, n)
            res = minimize_dynamic(AffineCost(a, b), grid, h0=h0)
            h, c = res.trajectory.h, res.trajectory.c
            assert np.all(h >= 0.0) and np.all(c >= 0.0)
            assert np.all(np.abs(h * c) <= 1e-12 * np.maximum(1.0, np.abs(b)))
            assert res.objective <= 1e-28

    def test_idle_nodes_keep_the_start(self, rng):
        n = 40
        grid = np.cumsum(rng.uniform(0.01, 1.0, n))
        b = rng.uniform(0.5, 2.0, n)
        idle = rng.choice(n, 12, replace=False)
        b[idle] = 0.0
        h0 = rng.uniform(-1.0, 2.0, n)
        res = minimize_dynamic(AffineCost(0.0, b), grid, h0=h0)
        assert np.array_equal(res.trajectory.h[idle], np.maximum(h0[idle], 0.0))
        assert res.objective == 0.0

    def test_unknown_variant_rejected(self):
        grid = np.linspace(0, 1, 11)
        traj = Trajectory(grid=grid, h=grid, c=grid)
        for call in (
            lambda: dynamic_gap(traj, variant="half_phi_cubed"),
            lambda: complementarity_merit(traj, variant="half_phi_cubed"),
            lambda: minimize_dynamic(parse_cost_model("identity"), grid, variant="half_phi_cubed"),
        ):
            with pytest.raises(ValueError, match="variant must be one of"):
                call()

    def test_reports_literal_gap_and_monotone_flag(self):
        grid = np.linspace(0, 1, 31)
        res = minimize_dynamic(parse_cost_model("identity"), grid, h0=grid.copy())
        assert res.monotone_flow in (True, False)
        assert np.isfinite(res.gap)

    def test_rejects_other_cost_callables(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(TypeError, match="AffineCost"):
            minimize_dynamic(lambda h, t: h, grid)


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
