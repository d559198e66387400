import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congeo import ncp
from congeo.ncp import (
    REGULARIZATION,
    NcpProblem,
    _system_jacobian,
    fb_phi,
    fb_subgradient,
    fb_system,
    merit,
    merit_gradient,
    solve_ncp,
)
from oracles import (
    affine_problem,
    fd_problem,
    lcp_enumeration_oracle,
    random_monotone_affine,
    system_jacobian_reference,
)

SQ2 = np.sqrt(2.0)


class TestFbPhi:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (3.0, 4.0, -2.0), (-1.0, 0.0, 2.0)],
    )
    def test_hand_values(self, a, b, expected):
        assert fb_phi(a, b) == pytest.approx(expected, abs=1e-15)

    @given(st.floats(0, 1e8, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_zero_on_complementary_pairs(self, t):
        assert fb_phi(t, 0.0) == 0.0
        assert fb_phi(0.0, t) == 0.0

    @given(
        st.floats(-1e6, -1e-6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonzero_when_first_negative(self, a, b):
        assert fb_phi(a, b) > 0.0

    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_negative_when_both_positive(self, a, b):
        assert fb_phi(a, b) < 0.0

    def test_vectorized(self):
        a = np.array([0.0, 3.0, -1.0])
        b = np.array([0.0, 4.0, 0.0])
        assert np.allclose(fb_phi(a, b), [0.0, -2.0, 2.0])

    def test_no_overflow_for_huge_inputs(self):
        assert np.isfinite(fb_phi(1e308, 1e308))


class TestFbSubgradient:
    def test_smooth_branch(self):
        da, db = fb_subgradient(3.0, 4.0)
        assert da == pytest.approx(-0.4)
        assert db == pytest.approx(-0.2)

    def test_origin_element(self):
        da, db = fb_subgradient(0.0, 0.0)
        assert da == pytest.approx(1 / SQ2 - 1)
        assert db == pytest.approx(1 / SQ2 - 1)

    def test_axis_limit(self):
        da, db = fb_subgradient(2.5, 0.0)
        assert da == pytest.approx(0.0, abs=1e-15)
        assert db == pytest.approx(-1.0)

    def test_matches_fd_away_from_origin(self, rng):
        for _ in range(100):
            a, b = rng.uniform(-5, 5, size=2)
            if np.hypot(a, b) < 1e-3:
                continue
            da, db = fb_subgradient(a, b)
            h = 1e-7
            assert da == pytest.approx((fb_phi(a + h, b) - fb_phi(a - h, b)) / (2 * h), abs=1e-6)
            assert db == pytest.approx((fb_phi(a, b + h) - fb_phi(a, b - h)) / (2 * h), abs=1e-6)


class TestSystemAndMerit:
    def test_scalar_interior_solution(self):
        p = fd_problem(1, lambda x: x - 2.0)
        assert fb_system([2.0], p) == pytest.approx([0.0], abs=1e-15)

    def test_scalar_boundary_solution(self):
        p = fd_problem(1, lambda x: x + 1.0)
        assert fb_system([0.0], p) == pytest.approx([0.0], abs=1e-15)

    def test_two_dim_solution(self):
        p = fd_problem(2, lambda x: np.array([x[0] - 1.0, x[1]]))
        assert np.allclose(fb_system([1.0, 0.0], p), 0.0)

    def test_merit_zero_at_solution(self):
        p = fd_problem(1, lambda x: x - 1.0)
        assert merit([1.0], p) == 0.0

    def test_merit_hand_value(self):
        # phi(0, -1) = 1 - (-1) = 2, so G = 2
        p = fd_problem(1, lambda x: x - 1.0)
        assert merit([0.0], p) == pytest.approx(2.0)

    @given(st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_merit_nonnegative(self, x):
        p = fd_problem(1, lambda v: v**2 - 3.0 * v + 1.0)
        assert merit([x], p) >= 0.0

    def test_nonfinite_f_raises(self):
        p = fd_problem(1, lambda x: np.full(1, np.inf))
        with pytest.raises(FloatingPointError):
            fb_system([1.0], p)


class TestMeritGradient:
    def test_zero_at_solution(self):
        p = affine_problem([[2.0, 1.0], [1.0, 2.0]], [-1.0, -1.0])
        g = merit_gradient([1 / 3, 1 / 3], p)
        assert np.max(np.abs(g)) <= 1e-8

    def test_hand_chain_rule(self):
        # n=1, F(x)=x at x=1: grad = phi(1,1) * (da + db) = 2(sqrt2-2)(1/sqrt2-1)
        p = NcpProblem(n=1, f=lambda x: x.copy(), jacobian=lambda x: np.eye(1))
        expected = (SQ2 - 2.0) * 2.0 * (1 / SQ2 - 1.0)
        assert merit_gradient([1.0], p)[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            n = rng.integers(1, 5)
            M, q = random_monotone_affine(rng, n)
            p = affine_problem(M, q)
            x = rng.uniform(0.2, 3.0, size=n)
            fx = p.f_eval(x)
            if np.min(np.hypot(x, fx)) < 1e-2:
                continue  # stay away from the kink
            g = merit_gradient(x, p)
            h = 1e-6
            fd = np.empty(n)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd[j] = (merit(x + e, p) - merit(x - e, p)) / (2 * h)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


class TestSolveNcp:
    def test_scalar_interior(self):
        rep = solve_ncp(fd_problem(1, lambda x: x - 2.0), x0=[5.0])
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(2.0, abs=1e-8)

    def test_scalar_boundary(self):
        rep = solve_ncp(fd_problem(1, lambda x: x + 1.0), x0=[5.0])
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(0.0, abs=1e-8)

    def test_two_dim_matches_oracle(self):
        M = [[2.0, 1.0], [1.0, 2.0]]
        q = [-1.0, -1.0]
        rep = solve_ncp(affine_problem(M, q))
        oracle = lcp_enumeration_oracle(M, q)
        assert len(oracle) == 1
        assert np.allclose(oracle[0], [1 / 3, 1 / 3], atol=1e-12)
        assert rep.converged
        assert np.allclose(rep.x_star, oracle[0], atol=1e-6)

    def test_default_start_is_ones(self):
        rep = solve_ncp(fd_problem(2, lambda x: x))
        assert rep.converged
        assert np.allclose(rep.x_star, 0.0, atol=1e-6)

    def test_random_monotone_lcps_match_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 7))
            M, q = random_monotone_affine(rng, n)
            rep = solve_ncp(affine_problem(M, q))
            oracle = lcp_enumeration_oracle(M, q)
            assert len(oracle) >= 1
            assert rep.converged, f"failed on n={n} M={M} q={q}"
            assert min(np.max(np.abs(rep.x_star - s)) for s in oracle) <= 1e-6

    def test_converged_report_satisfies_ncp(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            M, q = random_monotone_affine(rng, n)
            p = affine_problem(M, q)
            rep = solve_ncp(p)
            assert rep.converged
            x = rep.x_star
            fx = p.f_eval(x)
            assert np.all(x >= -1e-6)
            assert np.all(fx >= -1e-6)
            assert abs(x @ fx) <= 1e-6
            assert rep.residual <= 1e-8 or rep.merit <= 1e-12

    def test_monotone_merit_descent(self, rng):
        M, q = random_monotone_affine(rng, 4)
        rep = solve_ncp(affine_problem(M, q))
        hist = np.array(rep.merit_history)
        assert np.all(np.diff(hist) <= 1e-15)

    def test_max_iter_status(self, monkeypatch):
        monkeypatch.setattr(ncp, "MAX_ITER", 1)
        M, q = random_monotone_affine(np.random.default_rng(3), 4)
        rep = solve_ncp(affine_problem(M, q), tol=1e-300)
        assert (rep.status, rep.iterations) == ("max_iter", 1)

    def test_infeasible_problem_reports_status(self):
        # F = -1 has no complementary point; merit is bounded below by 1/2
        rep = solve_ncp(fd_problem(1, lambda x: np.array([-1.0])))
        assert rep.status in ("max_iter", "line_search_failure")
        assert rep.merit > 0.1

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.inf, np.nan])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_ncp(affine_problem([[1.0]], [-2.0]), tol=tol)

    def test_tol_sets_the_stopping_residual(self):
        M, q = random_monotone_affine(np.random.default_rng(5), 4)
        loose = solve_ncp(affine_problem(M, q), tol=1e-2)
        tight = solve_ncp(affine_problem(M, q))
        assert loose.converged and tight.converged
        assert tight.residual <= ncp.TOL < loose.residual <= 1e-2
        assert loose.iterations < tight.iterations

    def test_jacobian_is_required(self):
        with pytest.raises(TypeError):
            NcpProblem(n=1, f=lambda x: x - 2.0)

    def test_bad_x0_rejected(self):
        with pytest.raises(ValueError):
            solve_ncp(fd_problem(2, lambda x: x), x0=[1.0])
        with pytest.raises(ValueError):
            solve_ncp(fd_problem(1, lambda x: x), x0=[np.nan])


class TestComplementarityEquivalence:
    def test_random_sample_equivalence(self, rng):
        a = rng.uniform(-10, 10, size=100_000)
        b = rng.uniform(-10, 10, size=100_000)
        phi = fb_phi(a, b)
        zero_phi = np.abs(phi) <= 1e-12
        comp = (a >= -1e-10) & (b >= -1e-10) & (np.abs(a * b) <= 1e-10)
        assert np.array_equal(zero_phi, comp)

    def test_constructed_solutions_on_both_sides(self, rng):
        t = rng.uniform(0, 10, size=1000)
        assert np.all(np.abs(fb_phi(t, np.zeros_like(t))) <= 1e-12)
        assert np.all((t >= -1e-10) & (np.abs(t * 0.0) <= 1e-10))


class TestRegularizedNewton:
    """The in-place system matrix against its fresh-array reference, the
    caller's Jacobian left untouched, and the step counts of the report."""

    def test_system_matrix_matches_reference(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            M, q = random_monotone_affine(rng, n)
            p = affine_problem(M, q)
            x = rng.normal(size=n)
            da, db = fb_subgradient(x, p.f_eval(x))
            expected = system_jacobian_reference(M, da, db)
            assert np.array_equal(_system_jacobian(M, da, db), expected)
            stale = rng.normal(size=(n, n))  # a reused buffer holds the last iterate's matrix
            assert np.array_equal(_system_jacobian(M, da, db, out=stale), expected)
            assert np.array_equal(_system_jacobian(M, da, db, eps=0.0, out=stale), expected)

    def test_regularization_adds_scaled_db_on_the_diagonal(self, rng):
        M, q = random_monotone_affine(rng, 5)
        x = rng.normal(size=5)
        da, db = fb_subgradient(x, M @ x + q)
        eps = REGULARIZATION * 3.0
        expected = system_jacobian_reference(M, da, db) + np.diag(eps * db)
        assert np.allclose(_system_jacobian(M, da, db, eps), expected, rtol=1e-15, atol=1e-15)

    def test_solve_leaves_the_callers_jacobian_unchanged(self, rng):
        # the affine problem returns the same M on every call
        M, q = random_monotone_affine(rng, 5)
        p = affine_problem(M, q)
        before = M.copy()
        rep = solve_ncp(p)
        merit_gradient(rep.x_star, p)
        assert rep.converged and rep.iterations > 1
        assert p.jac_eval(rep.x_star) is p.jac_eval(np.ones(5))
        assert np.array_equal(M, before)

    def test_step_counts(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            M, q = random_monotone_affine(rng, n)
            calls = []

            def f(x, M=M, q=q):
                calls.append(1)
                return M @ x + q

            rep = solve_ncp(NcpProblem(n=n, f=f, jacobian=lambda x, M=M: M))
            assert rep.converged
            assert rep.newton_steps + rep.gradient_steps == rep.iterations
            # one F at the start, then one per trial point: accepted or backtracked
            assert len(calls) == 1 + (len(rep.merit_history) - 1) + rep.backtracks

    def test_step_counts_of_a_failed_solve(self):
        # F = -1 has no solution; the counts still add up to the iterations
        rep = solve_ncp(fd_problem(1, lambda x: np.array([-1.0])))
        assert not rep.converged
        assert rep.newton_steps + rep.gradient_steps == rep.iterations
