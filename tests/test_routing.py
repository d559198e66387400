import numpy as np
import pytest

from congeo.finsler import (
    DomainError,
    congestion_uniform,
    congestion_vortex,
    grid_congestion,
)
from congeo import geodesic
from congeo.geodesic import BvpConfig
from congeo.routing import RouteResult, RoutingScenario, chord_curve, route, validity_box


class TestValidityBox:
    def test_diagonal_pair(self):
        lo, hi = validity_box((0, 0), (2, 2), margin=0.5)
        # extent 2 per axis, chord 2*sqrt(2); pad = 0.5*0.5*max(2, 2.83) = 0.707
        assert np.allclose(lo, [-0.70710678, -0.70710678], atol=1e-6)
        assert np.allclose(hi, [2.70710678, 2.70710678], atol=1e-6)

    def test_axis_aligned_pair_gets_width(self):
        lo, hi = validity_box((0, 0), (4, 0), margin=0.5)
        assert hi[1] - lo[1] > 1.9  # flat axis padded from the chord length

    def test_zero_margin(self):
        lo, hi = validity_box((0, 0), (1, 2), margin=0.0)
        assert np.allclose(lo, [0, 0])
        assert np.allclose(hi, [1, 2])


class TestRoute:
    def test_zero_field_reduces_to_straight_line(self):
        sc = RoutingScenario(origin=(0, 0), destination=(1, 0))
        res = route(sc)
        assert res.bvp.converged
        assert res.bvp.length == pytest.approx(1.0, abs=1e-6)
        chord = chord_curve((0, 0), (1, 0), res.bvp.curve.n_nodes)
        assert np.max(np.abs(res.bvp.curve.points - chord.points)) <= 1e-6

    def test_uniform_field_asymmetry_matches_chord_evaluation(self):
        field = congestion_uniform(0.5, 0.0)
        fwd = route(RoutingScenario(origin=(0, 0), destination=(1, 0), congestion=field))
        bwd = route(RoutingScenario(origin=(0, 0), destination=(-1, 0), congestion=field))
        assert fwd.bvp.converged and bwd.bvp.converged
        # constant coefficients: geodesics are straight; travel time is the
        # chord F-value: lam=0.75, alpha=1/lam, b=2/3 -> 2.0 with, 2/3 against
        assert fwd.bvp.length == pytest.approx(2.0, abs=1e-8)
        assert bwd.bvp.length == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert fwd.bvp.length - bwd.bvp.length == pytest.approx(2 * (2.0 / 3.0), abs=1e-8)

    def test_vortex_route_beats_chord_and_bows(self):
        sc = RoutingScenario(
            origin=(-2, 0),
            destination=(2, 0),
            congestion=congestion_vortex(0.0, 0.0, 0.8),
            bvp=BvpConfig(explore=True, restarts=3),
        )
        res = route(sc)
        assert res.bvp.converged
        assert res.bvp.length <= res.chord_time + 1e-8
        chord = chord_curve((-2, 0), (2, 0), res.bvp.curve.n_nodes)
        assert np.max(np.abs(res.bvp.curve.points - chord.points)) > 0.05

    def test_saturated_field_rejected(self):
        sc = RoutingScenario(
            origin=(-2, 0), destination=(2, 0), congestion=congestion_vortex(0.0, 0.0, 0.9995)
        )
        with pytest.raises(DomainError, match="saturated"):
            route(sc)

    def test_grid_not_covering_box_rejected(self):
        xs = ys = np.linspace(-0.4, 0.4, 5)
        field = grid_congestion(xs, ys, np.zeros((5, 5, 2)))
        sc = RoutingScenario(origin=(-0.3, 0), destination=(0.3, 0), congestion=field)
        with pytest.raises(DomainError, match="outside"):
            route(sc)

    def test_grid_field_covering_box_works(self):
        xs = ys = np.linspace(-3, 3, 13)
        w = np.zeros((13, 13, 2))
        w[:, :, 0] = 0.3
        field = grid_congestion(xs, ys, w)
        res = route(RoutingScenario(origin=(-1, 0), destination=(1, 0), congestion=field))
        assert res.bvp.converged
        # uniform 0.3 drift over a chord of length 2: lam = 0.91
        assert res.bvp.length == pytest.approx(2 * 1.3 / 0.91, abs=1e-6)

    def test_grid_sampled_vortex_matches_analytic(self):
        # sampling the analytic field on a fine grid must reproduce the route
        # up to interpolation error
        analytic = congestion_vortex(0.0, 0.0, 0.6)
        xs = ys = np.linspace(-3.5, 3.5, 71)
        vectors = np.zeros((71, 71, 2))
        for i, px in enumerate(xs):
            for j, py in enumerate(ys):
                vectors[i, j] = analytic((px, py))
        sampled = grid_congestion(xs, ys, vectors)
        cfg = BvpConfig(explore=False)
        res_a = route(RoutingScenario(origin=(-2, 0), destination=(2, 0), congestion=analytic, bvp=cfg))
        res_g = route(RoutingScenario(origin=(-2, 0), destination=(2, 0), congestion=sampled, bvp=cfg))
        assert res_a.bvp.converged and res_g.bvp.converged
        assert res_g.bvp.length == pytest.approx(res_a.bvp.length, rel=2e-3)
        assert np.max(np.abs(res_g.bvp.curve.points - res_a.bvp.curve.points)) < 0.05

    def test_identical_scenarios_identical_output(self):
        sc = RoutingScenario(
            origin=(-2, 0),
            destination=(2, 0),
            congestion=congestion_vortex(0.0, 0.0, 0.8),
            bvp=BvpConfig(seed=3, explore=True, restarts=2, nodes=120),
        )
        r1, r2 = route(sc), route(sc)
        assert np.array_equal(r1.bvp.curve.points, r2.bvp.curve.points)
        assert r1.bvp.length == r2.bvp.length

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError):
            RoutingScenario(origin=(1, 1), destination=(1, 1))

    def test_distinct_endpoints_at_large_coordinates_accepted(self):
        # metre-scale grid coordinates: 5 apart at 1e6
        res = route(RoutingScenario(origin=(1e6, 0), destination=(1e6 + 5, 0), bvp=BvpConfig(restarts=0)))
        assert res.bvp.converged
        assert res.bvp.length == pytest.approx(5.0, abs=1e-6)

    def test_nonconvergence_reported(self, monkeypatch):
        sc = RoutingScenario(
            origin=(-2, 0),
            destination=(2, 0),
            congestion=congestion_vortex(0.0, 0.0, 0.8),
            bvp=BvpConfig(restarts=0),
        )
        monkeypatch.setattr(geodesic, "MAX_NEWTON", 0)
        res = route(sc)
        assert isinstance(res, RouteResult)
        assert not res.bvp.converged
        assert res.bvp.endpoint_error > 1e-6
