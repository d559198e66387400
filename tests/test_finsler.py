import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congeo import finsler
from congeo.finsler import (
    DomainError,
    Point,
    TangentVector,
    build_randers,
    congestion_none,
    congestion_uniform,
    congestion_vortex,
    constant_randers,
    covector_norm,
    euclidean_metric,
    euclidean_randers,
    fd_jet,
    fundamental_tensor,
    grid_congestion,
    norm_g,
    parse_congestion_spec,
    randers_eval,
    validate_structure,
)
from conftest import invalid_drift_structure, random_direction, random_randers


class TestPointsAndVectors:
    def test_point_roundtrip(self):
        p = Point((1.0, -2.5))
        assert p.dim == 2
        assert np.allclose(p.as_array(), [1.0, -2.5])

    def test_point_rejects_nan(self):
        with pytest.raises(DomainError):
            Point((float("nan"), 0.0))

    def test_tangent_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TangentVector(Point((0.0, 0.0)), (1.0,))

    def test_tangent_rejects_inf(self):
        with pytest.raises(DomainError):
            TangentVector(Point((0.0, 0.0)), (float("inf"), 1.0))


class TestNormG:
    def test_euclidean_345(self):
        assert norm_g(euclidean_metric(), (0, 0), (3, 4)) == pytest.approx(5.0, abs=1e-14)

    def test_zero_vector(self):
        assert norm_g(euclidean_metric(), (0, 0), (0, 0)) == 0.0

    def test_diagonal_metric(self):
        g = finsler.constant_metric(np.diag([4.0, 1.0]))
        # g_ij y^i y^j = 4 + 1 = 5 by hand
        assert norm_g(g, (0, 0), (1, 1)) == pytest.approx(np.sqrt(5.0), abs=1e-14)

    def test_rejects_indefinite_metric(self):
        g = finsler.RiemannianField(fd_jet(lambda x: np.diag([1.0, -1.0]), (2, 2)))
        with pytest.raises(DomainError):
            norm_g(g, (0, 0), (1, 0))

    def test_rejects_nonfinite_components(self):
        with pytest.raises(DomainError):
            norm_g(euclidean_metric(), (0, 0), (np.nan, 1.0))


class TestRandersEval:
    def test_euclidean_reduction(self):
        assert randers_eval(euclidean_randers(), (0, 0), (3, 4)) == pytest.approx(5.0)

    def test_zero_direction_returns_zero(self):
        F = constant_randers(np.eye(2), [0.5, 0.0])
        assert randers_eval(F, (0, 0), (0, 0)) == 0.0

    def test_drift_half(self):
        F = constant_randers(np.eye(2), [0.5, 0.0])
        assert randers_eval(F, (0, 0), (1, 0)) == pytest.approx(1.5, abs=1e-14)

    def test_constructor_rejects_unit_drift(self):
        # ||(-1,-1)|| = sqrt(2) >= 1 would allow F <= 0 along (1,0)
        with pytest.raises(DomainError):
            constant_randers(np.eye(2), [-1.0, -1.0])

    def test_eval_rejects_invalid_drift_structure(self):
        F = invalid_drift_structure()
        with pytest.raises(DomainError):
            randers_eval(F, (0, 0), (1, 0))

    def test_accepts_point_objects(self):
        F = euclidean_randers()
        assert randers_eval(F, Point((0.0, 0.0)), (0, 1)) == pytest.approx(1.0)


class TestBuildRanders:
    def test_zero_congestion_recovers_base(self):
        F = build_randers(euclidean_metric(), congestion_none())
        a, b = F.coefficients((0.3, -0.7))
        assert np.allclose(a, np.eye(2), atol=1e-15)
        assert np.allclose(b, 0.0, atol=1e-15)

    def test_uniform_half_coefficients(self):
        # lam = 1 - 0.25 = 0.75, a = I/0.5625, b = (2/3, 0)
        F = build_randers(euclidean_metric(), congestion_uniform(0.5, 0.0))
        a, b = F.coefficients((0, 0))
        assert np.allclose(a, np.eye(2) / 0.5625, rtol=1e-14)
        assert np.allclose(b, [2.0 / 3.0, 0.0], rtol=1e-14)
        assert covector_norm(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_saturated_uniform_rejected(self):
        with pytest.raises(DomainError, match="saturated"):
            build_randers(euclidean_metric(), congestion_uniform(0.999, 0.0), eps_cong=1e-3)

    def test_saturated_vortex_rejected_at_probe_ring(self):
        with pytest.raises(DomainError, match="saturated"):
            build_randers(euclidean_metric(), congestion_vortex(0.0, 0.0, 0.9995))

    def test_lazy_check_names_offending_point(self):
        field = finsler.CongestionField(
            fd_jet(lambda x: np.stack([np.minimum(0.9999, 0.2 + 0.3 * x[..., 0] ** 2), 0.0 * x[..., 0]], axis=-1), (2,)),
            probes=((0.0, 0.0),),
        )
        F = build_randers(euclidean_metric(), field)
        F.coefficients((0.1, 0.0))
        with pytest.raises(DomainError, match="saturated"):
            F.coefficients((2.0, 0.0))

    def test_batched_check_names_first_offending_point(self):
        # ||w|| = 0.5 |x_0| saturates from x_0 = 1.998 on; both late points do
        field = finsler.CongestionField(
            fd_jet(lambda x: np.stack([0.5 * x[..., 0], 0.0 * x[..., 0]], axis=-1), (2,)),
            probes=((0.0, 0.0),),
        )
        with pytest.raises(DomainError, match=r"saturated.*at \[3\. 0\.\]"):
            build_randers(euclidean_metric(), field, check_points=[(0.0, 0.0), (3.0, 0.0), (2.5, 0.0)])

    def test_batched_check_keeps_metric_checks(self):
        asymmetric = finsler.RiemannianField(fd_jet(lambda x: np.array([[1.0, 0.1], [0.0, 1.0]]), (2, 2)))
        with pytest.raises(DomainError, match="not symmetric"):
            build_randers(asymmetric, congestion_none())
        wrong_shape = finsler.RiemannianField(fd_jet(lambda x: np.eye(3), (2, 2)))
        with pytest.raises(ValueError, match="shape"):
            build_randers(wrong_shape, congestion_none())

    @pytest.mark.parametrize("name", ["vortex", "grid"])
    def test_bundle_calls_each_jet_once(self, rng, name):
        calls = {"metric": 0, "congestion": 0}

        def counted(key, jet):
            def counting_jet(x):
                calls[key] += 1
                return jet(x)

            return counting_jet

        g, field = euclidean_metric(), TestBatchedPresets._fields()[name]
        F = build_randers(
            finsler.RiemannianField(counted("metric", g.jet)),
            finsler.CongestionField(counted("congestion", field.jet), probes=field.probes),
        )
        calls.update(metric=0, congestion=0)
        F.bundle(rng.uniform(-1.9, 1.9, size=(12, 2)))
        assert calls == {"metric": 1, "congestion": 1}

    def test_drift_norm_equals_congestion_norm(self, rng):
        g = euclidean_metric()
        field = congestion_vortex(0.2, -0.1, 0.8)
        F = build_randers(g, field)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            a, b = F.coefficients(x)
            assert covector_norm(a, b) == pytest.approx(norm_g(g, x, field(x)), abs=1e-10)

    def test_chain_rule_derivatives_match_fd(self, rng):
        F = build_randers(euclidean_metric(), congestion_vortex(0.1, 0.3, 0.7))
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=2)
            da, db = F.coefficient_derivatives(x)
            da_fd = finsler._fd_derivative(lambda p: F.coefficients(p)[0], x, (2, 2))
            db_fd = finsler._fd_derivative(lambda p: F.coefficients(p)[1], x, (2,))
            assert np.allclose(da, da_fd, rtol=1e-6, atol=1e-8)
            assert np.allclose(db, db_fd, rtol=1e-6, atol=1e-8)

    def test_fields_without_derivatives_match_fd(self, rng):
        # both fields are given by values alone: the chain rule runs over
        # central differences of each field
        g = finsler.RiemannianField(
            fd_jet(
                lambda x: np.moveaxis(
                    np.array([[1.0 + 0.2 * x[..., 0] ** 2, 0.1 * x[..., 1]], [0.1 * x[..., 1], 1.5 + 0.3 * np.sin(x[..., 0])]]),
                    (0, 1),
                    (-2, -1),
                ),
                (2, 2),
            )
        )
        field = finsler.CongestionField(
            fd_jet(lambda x: 0.3 * np.stack([np.cos(x[..., 1]), np.sin(x[..., 0] * x[..., 1])], axis=-1), (2,)),
            probes=((0.0, 0.0),),
        )
        F = build_randers(g, field)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=2)
            da, db = F.coefficient_derivatives(x)
            da_fd = finsler._fd_derivative(lambda p: F.coefficients(p)[0], x, (2, 2))
            db_fd = finsler._fd_derivative(lambda p: F.coefficients(p)[1], x, (2,))
            assert np.allclose(da, da_fd, rtol=1e-6, atol=1e-8)
            assert np.allclose(db, db_fd, rtol=1e-6, atol=1e-8)


class TestFundamentalTensor:
    def test_euclidean_gives_identity(self, rng):
        F = euclidean_randers()
        for _ in range(10):
            y = random_direction(rng)
            t = fundamental_tensor(F, (0, 0), y)
            assert np.allclose(t.matrix, np.eye(2), atol=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            fundamental_tensor(euclidean_randers(), (0, 0), (0, 0))
        with pytest.raises(DomainError):
            fundamental_tensor(euclidean_randers(), (0, 0), (0, 0), mode="finite_difference")

    def test_analytic_matches_finite_difference(self, rng):
        worst = 0.0
        for _ in range(200):
            F = random_randers(rng)
            x = rng.uniform(-1, 1, size=2)
            y = random_direction(rng)
            ga = fundamental_tensor(F, x, y, mode="analytic").matrix
            gf = fundamental_tensor(F, x, y, mode="finite_difference").matrix
            worst = max(worst, np.max(np.abs(ga - gf)) / np.max(np.abs(ga)))
        assert worst <= 1e-6

    def test_positive_definite_on_valid_structures(self, rng):
        for _ in range(100):
            F = random_randers(rng)
            y = random_direction(rng)
            eigs = fundamental_tensor(F, (0, 0), y).eigenvalues()
            assert np.all(eigs > 0)

    def test_position_dependent_structure(self, rng):
        F = build_randers(euclidean_metric(), congestion_vortex(0.0, 0.0, 0.6))
        x = np.array([0.7, -0.4])
        y = np.array([1.0, 2.0])
        ga = fundamental_tensor(F, x, y, mode="analytic").matrix
        gf = fundamental_tensor(F, x, y, mode="finite_difference").matrix
        assert np.max(np.abs(ga - gf)) / np.max(np.abs(ga)) <= 1e-6


class TestHomogeneityAndAsymmetry:
    @given(
        yx=st.floats(-50, 50, allow_nan=False),
        yy=st.floats(-50, 50, allow_nan=False),
        lam=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_homogeneity(self, yx, yy, lam):
        y = np.array([yx, yy])
        if np.linalg.norm(y) < 1e-6:
            return
        F = constant_randers([[1.3, 0.2], [0.2, 0.8]], [0.3, -0.4])
        v1 = randers_eval(F, (0, 0), lam * y)
        v2 = lam * randers_eval(F, (0, 0), y)
        assert abs(v1 - v2) <= 1e-10 * abs(v2)

    def test_asymmetry_witness_with_drift(self, rng):
        for _ in range(20):
            F = random_randers(rng)
            _, b = F.coefficients((0, 0))
            y = b / np.linalg.norm(b)
            fwd = randers_eval(F, (0, 0), y)
            bwd = randers_eval(F, (0, 0), -y)
            assert fwd - bwd == pytest.approx(2 * b @ y, rel=1e-10)
            assert fwd != bwd

    def test_symmetric_without_drift(self, rng):
        F = euclidean_randers()
        y = random_direction(rng)
        assert randers_eval(F, (0, 0), y) == pytest.approx(randers_eval(F, (0, 0), -y))


class TestValidateStructure:
    def _samples(self, rng, k=10):
        return [(rng.uniform(-1, 1, 2), random_direction(rng)) for _ in range(k)]

    def test_euclidean_passes(self, rng):
        report = validate_structure(euclidean_randers(), self._samples(rng))
        assert report.ok
        assert not report.failures()

    def test_built_structure_passes(self, rng):
        F = build_randers(euclidean_metric(), congestion_uniform(0.5, 0.0))
        report = validate_structure(F, self._samples(rng))
        assert report.ok

    def test_invalid_drift_fails_validity(self, rng):
        F = invalid_drift_structure()
        report = validate_structure(F, self._samples(rng))
        assert not report.ok
        assert any(not c.drift_valid for c in report.checks)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            validate_structure(euclidean_randers(), [])

    def test_zero_tangent_rejected(self):
        with pytest.raises(ValueError):
            validate_structure(euclidean_randers(), [((0, 0), (0, 0))])


class TestGridCongestion:
    def _linear_field_grid(self):
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-2, 2, 9)
        w = np.zeros((5, 9, 2))
        for i, px in enumerate(xs):
            for j, py in enumerate(ys):
                w[i, j] = [0.1 * px + 0.05 * py, -0.03 * px]
        return xs, ys, w

    def test_reproduces_linear_field_exactly(self, rng):
        xs, ys, w = self._linear_field_grid()
        field = grid_congestion(xs, ys, w)
        for _ in range(30):
            p = np.array([rng.uniform(-1, 1), rng.uniform(-2, 2)])
            expected = np.array([0.1 * p[0] + 0.05 * p[1], -0.03 * p[0]])
            assert np.allclose(field(p), expected, atol=1e-14)

    def test_in_cell_derivative(self):
        xs, ys, w = self._linear_field_grid()
        field = grid_congestion(xs, ys, w)
        d = field.derivative((0.3, 0.4))
        assert np.allclose(d, [[0.1, -0.03], [0.05, 0.0]], atol=1e-12)

    def test_outside_grid_is_domain_error(self):
        xs, ys, w = self._linear_field_grid()
        field = grid_congestion(xs, ys, w)
        with pytest.raises(DomainError, match="outside"):
            field((5.0, 0.0))

    def test_grid_probes_gate_saturation(self):
        xs = ys = np.linspace(-1, 1, 3)
        w = np.zeros((3, 3, 2))
        w[2, 2] = [0.9995, 0.0]
        field = grid_congestion(xs, ys, w)
        with pytest.raises(DomainError, match="saturated"):
            build_randers(euclidean_metric(), field, eps_cong=1e-3)

    def test_derivative_continuous_across_cell_edges(self):
        # fixed-step RK4 shooting is only differentiable in its initial
        # velocity when the field's Jacobian has no jumps on cell edges
        xs = np.array([-1.0, -0.6, -0.1, 0.3, 1.0])
        ys = np.array([-1.0, -0.2, 0.1, 0.7, 1.2, 2.0])
        w = np.array([[[0.2 * np.sin(2 * px) * np.cos(py), 0.1 * px * px * py] for py in ys] for px in xs])
        field = grid_congestion(xs, ys, w)
        for edge, other in ((xs[2], 0.35), (xs[3], -0.5)):
            left = field.derivative((np.nextafter(edge, -np.inf), other))
            right = field.derivative((np.nextafter(edge, np.inf), other))
            assert np.allclose(left, right, rtol=0.0, atol=1e-9)
        for edge, other in ((ys[2], 0.1), (ys[4], -0.8)):
            below = field.derivative((other, np.nextafter(edge, -np.inf)))
            above = field.derivative((other, np.nextafter(edge, np.inf)))
            assert np.allclose(below, above, rtol=0.0, atol=1e-9)
        for p in ((0.05, 0.4), (-0.8, 1.5), (0.6, -0.7)):
            d_fd = finsler._fd_derivative(field, np.array(p), (2,))
            assert np.allclose(field.derivative(p), d_fd, rtol=1e-7, atol=1e-9)

    def test_two_samples_per_axis(self, rng):
        # second-order nodal slopes need three samples; two fall back to the secant
        xs = np.array([-1.0, 1.0])
        ys = np.linspace(-2, 2, 4)
        w = np.array([[[0.1 * px + 0.05 * py, -0.03 * px] for py in ys] for px in xs])
        field = grid_congestion(xs, ys, w)
        for _ in range(20):
            p = np.array([rng.uniform(-1, 1), rng.uniform(-2, 2)])
            assert np.allclose(field(p), [0.1 * p[0] + 0.05 * p[1], -0.03 * p[0]], atol=1e-14)
            assert np.allclose(field.derivative(p), [[0.1, -0.03], [0.05, 0.0]], atol=1e-12)

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(ValueError):
            grid_congestion([0.0, 0.0, 1.0], [0.0, 1.0], np.zeros((3, 2, 2)))


class TestBatchedPresets:
    """Preset fields evaluated on a batch equal their per-point evaluation."""

    @staticmethod
    def _fields():
        xs = np.array([-2.0, -1.1, -0.2, 0.4, 1.3, 2.0])  # non-uniform axes
        ys = np.array([-2.0, -0.5, 0.1, 0.9, 2.0])
        w = np.array([[[0.2 * np.sin(2 * px) * np.cos(py), 0.1 * px * py] for py in ys] for px in xs])
        return {
            "vortex": congestion_vortex(0.3, -0.2, 0.7),
            "uniform": congestion_uniform(0.4, -0.1),
            "grid": grid_congestion(xs, ys, w),
        }

    @pytest.mark.parametrize("name", ["vortex", "uniform", "grid"])
    def test_batch_equals_per_point(self, rng, name):
        field = self._fields()[name]
        pts = rng.uniform(-1.9, 1.9, size=(25, 2))
        batch_w = field(pts)
        batch_dw = field.derivative(pts)
        assert batch_w.shape == (25, 2) and batch_dw.shape == (25, 2, 2)
        for k, p in enumerate(pts):
            assert np.allclose(batch_w[k], field(p), rtol=1e-14, atol=0.0)
            assert np.allclose(batch_dw[k], field.derivative(p), rtol=1e-14, atol=0.0)

    def test_batched_structure_equals_per_point(self, rng):
        F = build_randers(euclidean_metric(), self._fields()["grid"])
        pts = rng.uniform(-1.9, 1.9, size=(25, 2))
        a, b, da, db = F.bundle(pts)
        for k, p in enumerate(pts):
            a1, b1 = F.coefficients(p)
            da1, db1 = F.coefficient_derivatives(p)
            for batched, single in ((a, a1), (b, b1), (da, da1), (db, db1)):
                assert np.allclose(batched[k], single, rtol=1e-14, atol=0.0)

    def test_grid_batch_names_point_outside(self):
        field = self._fields()["grid"]
        with pytest.raises(DomainError, match=r"point \([^,]*\b2\.5\b[^,]*, .*outside"):
            field(np.array([[0.0, 0.0], [2.5, 0.0], [3.0, 0.0]]))


class TestPresetParsing:
    def test_none(self):
        f = parse_congestion_spec("none")
        assert np.allclose(f((0.5, 0.5)), 0.0)

    def test_uniform(self):
        f = parse_congestion_spec("uniform(0.5, -0.25)")
        assert np.allclose(f((3, 4)), [0.5, -0.25])

    def test_vortex_peak_on_unit_ring(self):
        f = parse_congestion_spec("vortex(1, 2, 0.8)")
        assert np.linalg.norm(f((2.0, 2.0))) == pytest.approx(0.8, abs=1e-12)
        assert np.linalg.norm(f((1.0, 2.0))) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "name",
        [
            "euclidean_metric",
            "constant_metric",
            "congestion_none",
            "congestion_uniform",
            "congestion_vortex",
            "grid_congestion",
        ],
    )
    def test_jet_derivative_matches_fd(self, rng, name):
        xs = np.array([-2.5, -1.1, -0.2, 0.4, 1.3, 2.5])  # non-uniform axes
        ys = np.array([-2.5, -0.5, 0.1, 0.9, 2.5])
        w = np.array([[[0.2 * np.sin(2 * px) * np.cos(py), 0.1 * px * py] for py in ys] for px in xs])
        field = {
            "euclidean_metric": euclidean_metric,
            "constant_metric": lambda: finsler.constant_metric([[1.4, 0.2], [0.2, 0.9]]),
            "congestion_none": congestion_none,
            "congestion_uniform": lambda: parse_congestion_spec("uniform(0.5, -0.25)"),
            "congestion_vortex": lambda: parse_congestion_spec("vortex(0, 0, 0.7)"),
            "grid_congestion": lambda: grid_congestion(xs, ys, w),
        }[name]()
        shape = (2, 2) if isinstance(field, finsler.RiemannianField) else (2,)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=(1, 2))
            d_an = np.broadcast_to(field.jet(x)[1], (1, 2) + shape)
            d_fd = finsler._fd_derivative(lambda p: field.jet(p)[0], x, shape)
            assert np.allclose(d_an, d_fd, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize(
        "bad", ["spiral(1)", "uniform(1)", "vortex(0,0)", "uniform(a,b)", "none(3)"]
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_congestion_spec(bad)
