import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congeo import fileio, ncp, traffic
from congeo.ncp import (
    REGULARIZATION,
    NcpProblem,
    _system_jacobian,
    fb_phi,
    fb_subgradient,
    fb_system,
    merit,
    merit_gradient,
    penalized_phi,
    penalized_subgradient,
    solve_ncp,
)
from oracles import (
    affine_problem,
    dense_incidence,
    fd_problem,
    full_system_reference,
    lcp_enumeration_oracle,
    random_lattice,
    random_monotone_affine,
    system_jacobian_reference,
)

SQ2 = np.sqrt(2.0)
DEMO_NCP = os.path.join(os.path.dirname(__file__), "..", "demo", "ncp_affine.json")


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
        p = NcpProblem(n=1, f=lambda x: x.copy(), jacobian=lambda x, free: np.eye(1))
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
        assert rep.status == "max_iter"
        assert rep.merit > 0.1

    def test_line_search_failure_status(self):
        # the Jacobian says F' = -1/2 where F' = 1: along the direction it
        # gives, no step down to MIN_STEP lowers the merit
        rep = solve_ncp(NcpProblem(n=1, f=lambda x: x - 2.0, jacobian=lambda x, free: -0.5 * np.eye(1)), x0=[1.0])
        assert (rep.status, rep.iterations, rep.backtracks) == ("line_search_failure", 1, 54)
        assert rep.x_star[0] == 1.0

    def test_non_finite_trial_point_backtracks(self):
        # F = sqrt(3 - x) - 1 is nan past x = 3; the first full step from
        # x = 1 lands there, and the solve halves it and goes on
        trials = []

        def f(x):
            trials.append(float(x[0]))
            return np.sqrt(3.0 - x) - 1.0

        rep = solve_ncp(NcpProblem(n=1, f=f, jacobian=lambda x, free: -0.5 / np.sqrt(3.0 - x)[None]), x0=[1.0])
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(2.0, abs=1e-8)
        assert sum(t > 3.0 for t in trials) == 1
        assert rep.backtracks == 2

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
    """The system matrix written over the Jacobian against its fresh-array
    reference, the caller's stored matrix left untouched, and the step
    counts of the report."""

    def test_system_matrix_matches_reference(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            M, q = random_monotone_affine(rng, n)
            p = affine_problem(M, q)
            x = rng.normal(size=n)
            da, db = fb_subgradient(x, p.f_eval(x))
            expected = system_jacobian_reference(M, da, db)
            assert np.array_equal(_system_jacobian(M, da, db), expected)

    def test_regularization_adds_scaled_db_on_the_diagonal(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            M, q = random_monotone_affine(rng, n)
            x = rng.normal(size=n)
            da, db = fb_subgradient(x, M @ x + q)
            eps = REGULARIZATION * float(rng.uniform(0.1, 10.0))
            expected = db[:, None] * M + np.diag(da + eps * db)
            system = _system_jacobian(M, da, db, eps)
            assert system is M and np.array_equal(system, expected)

    def test_solve_leaves_the_callers_jacobian_unchanged(self, rng):
        # the affine problem stores M and hands out a new copy on every call,
        # which the solver overwrites
        M, q = random_monotone_affine(rng, 5)
        p = affine_problem(M, q)
        before = M.copy()
        rep = solve_ncp(p)
        merit_gradient(rep.x_star, p)
        assert rep.converged and rep.iterations > 1
        assert p.jac_eval(rep.x_star) is not M
        assert np.array_equal(M, before)

    def test_step_counts(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            M, q = random_monotone_affine(rng, n)
            calls = []

            def f(x, M=M, q=q):
                calls.append(1)
                return M @ x + q

            rep = solve_ncp(NcpProblem(n=n, f=f, jacobian=lambda x, free, M=M: M[np.ix_(free, free)]))
            assert rep.converged
            assert rep.newton_steps + rep.gradient_steps == rep.iterations
            # one F at the start, then one per trial point: accepted or backtracked
            assert len(calls) == 1 + (len(rep.merit_history) - 1) + rep.backtracks

    def test_step_counts_of_a_failed_solve(self):
        # F = -1 has no solution; the counts still add up to the iterations
        rep = solve_ncp(fd_problem(1, lambda x: np.array([-1.0])))
        assert not rep.converged
        assert rep.newton_steps + rep.gradient_steps == rep.iterations


class TestPenalizedFb:
    """The penalized function the Newton step and line search run on: its
    gradient element, the sign of its penalty, and the plain-FB reference."""

    @pytest.mark.parametrize("both_positive", [True, False], ids=["a,b>0", "otherwise"])
    def test_subgradient_matches_central_differences(self, rng, both_positive):
        h = 1e-7
        checked = 0
        while checked < 200:
            a, b = rng.uniform(-5, 5, size=2)
            if ((a > 0) and (b > 0)) != both_positive or min(abs(a), abs(b)) < 1e-3:
                continue  # wrong regime, or too near a kink (a = 0, b = 0 or both)
            da, db = penalized_subgradient(a, b)
            assert da == pytest.approx((penalized_phi(a + h, b) - penalized_phi(a - h, b)) / (2 * h), abs=1e-6)
            assert db == pytest.approx((penalized_phi(a, b + h) - penalized_phi(a, b - h)) / (2 * h), abs=1e-6)
            checked += 1

    def test_zero_exactly_where_fb_is_zero(self, rng):
        a = rng.uniform(-3, 3, size=10_000)
        b = np.where(rng.random(10_000) < 0.3, 0.0, rng.uniform(-3, 3, size=10_000))
        assert np.array_equal(penalized_phi(a, b) == 0.0, np.abs(fb_phi(a, b)) <= 1e-15)
        assert np.all(penalized_phi(a, b) <= ncp.PENALTY * fb_phi(a, b))  # the penalty is subtracted

    def test_solutions_are_complementary(self, rng):
        problems = [fileio.load_ncp_problem(DEMO_NCP)]
        for _ in range(20):
            problems.append(affine_problem(*random_monotone_affine(rng, int(rng.integers(1, 8)))))
        for p in problems:
            rep = solve_ncp(p)
            assert rep.converged
            x, fx = rep.x_star, p.f_eval(rep.x_star)
            assert np.all(x >= -ncp.TOL) and np.all(fx >= -ncp.TOL)
            assert abs(x @ fx) <= 1e-6

    def test_matches_the_plain_fb_reference_on_a_lattice(self, monkeypatch):
        network = random_lattice(np.random.default_rng(7), side=10, n_od=25, per_od=12)
        assert network.n_routes == 300
        penalized = traffic.solve_ue(network)
        monkeypatch.setattr(ncp, "PENALTY", 1.0)
        reference = traffic.solve_ue(network)
        assert penalized.converged and reference.converged
        # every OD pair serves demand, so its time is unique (an elastic pair
        # priced out of the network may take any time up to its cheapest route)
        assert np.all(np.bincount(network.route_od_index(), weights=reference.h) > 0.1)
        inc = dense_incidence(network)
        assert np.allclose(inc.T @ penalized.h, inc.T @ reference.h, rtol=0.0, atol=1e-7)
        assert np.allclose(penalized.pi, reference.pi, rtol=0.0, atol=1e-7)
        assert penalized.report.iterations < reference.report.iterations


class TestFreeSetStep:
    """The Newton step on the free set against the full (n, n) system it
    replaces: components held at x_i = 0 < F_i(x) get a zero step."""

    @staticmethod
    def recorded_solve(network):
        """solve_ue's problem solved from all-or-nothing loading, with each
        iterate recorded (the solver asks for one Jacobian per iteration)."""
        problem = traffic.assemble_ncp(network)
        iterates = []

        def jacobian(x, free):
            iterates.append(x.copy())
            return problem.jacobian(x, free)

        rep = solve_ncp(NcpProblem(problem.n, problem.f, jacobian), traffic._default_start(network))
        assert rep.converged and rep.gradient_steps == 0
        return problem, rep, iterates

    @staticmethod
    def assert_steps_match_the_full_system(problem, iterates):
        """The first iterates' free-set steps against the full system; returns
        how many components each one holds."""
        n, held_counts = problem.n, []
        for x in iterates[:5]:
            fx = problem.f_eval(x)
            pen = penalized_phi(x, fx)
            held = (x == 0.0) & (fx > 0.0)
            direction, _, rows = ncp._search_direction(problem, x, fx, pen)
            assert rows == n - np.count_nonzero(held)
            da, db = penalized_subgradient(x, fx)
            eps = REGULARIZATION * np.linalg.norm(pen)
            system = system_jacobian_reference(problem.jac_eval(x), da, db) + np.diag(eps * db)
            full = np.linalg.solve(system, -pen)
            assert np.linalg.norm(direction - full) <= 1e-10 * np.linalg.norm(full)
            assert np.all(direction[held] == 0.0)
            held_counts.append(np.count_nonzero(held))
        return held_counts

    def test_step_matches_the_full_system(self):
        network = random_lattice(np.random.default_rng(7), side=10, n_od=25, per_od=12)
        problem, rep, iterates = self.recorded_solve(network)
        held_counts = self.assert_steps_match_the_full_system(problem, iterates)
        assert held_counts[0] > network.n_routes // 2  # most routes start unloaded and costlier
        assert rep.newton_rows < problem.n * rep.newton_steps

    def test_a_tied_route_at_zero_is_free(self):
        # two parallel links of equal free-flow time: all-or-nothing loads r1,
        # and r2 starts at h = 0 with F = c - pi = 0 exactly, so it is not held
        links = [{"id": i, "from": "o", "to": "d", "t0": 1.0, "capacity": 1.0} for i in "ab"]
        network = fileio.load_network({
            "nodes": ["o", "d"], "links": links,
            "routes": [{"id": "r1", "od": "od", "links": ["a"]}, {"id": "r2", "od": "od", "links": ["b"]}],
            "od_pairs": [{"id": "od", "origin": "o", "destination": "d", "demand": {"type": "fixed", "d0": 3.0}}],
        })
        problem, rep, iterates = self.recorded_solve(network)
        assert np.array_equal(iterates[0], [3.0, 0.0, 1.0]) and problem.f_eval(iterates[0])[1] == 0.0
        assert self.assert_steps_match_the_full_system(problem, iterates)[0] == 0
        assert np.allclose(rep.x_star[:2], 1.5, rtol=0.0, atol=1e-8)

    def test_held_components_stay_zero_across_accepted_steps(self):
        network = random_lattice(np.random.default_rng(9), side=10, n_od=25, per_od=12)
        problem, rep, iterates = self.recorded_solve(network)
        held_total = 0
        for x, x_next in zip(iterates, iterates[1:] + [rep.x_star]):
            held = (x == 0.0) & (problem.f_eval(x) > 0.0)
            assert np.all(x_next[held] == 0.0)
            held_total += np.count_nonzero(held)
        assert held_total > 0

    @staticmethod
    def index_checked(problem, sizes):
        """``problem`` with a Jacobian that asserts it is asked for its block
        by a 1-d integer index array, recording each block's size."""

        def jacobian(x, free):
            assert isinstance(free, np.ndarray) and free.ndim == 1 and free.dtype.kind == "i"
            sizes.append(len(free))
            return problem.jacobian(x, free)

        return NcpProblem(problem.n, problem.f, jacobian)

    def test_jacobian_receives_index_arrays_only(self):
        # an interior solution x* = (1, 1) with F(x*) = 0: nothing is held
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        sizes = []
        problem = self.index_checked(affine_problem(M, -M @ np.ones(2)), sizes)
        rep = solve_ncp(problem, x0=[3.0, 2.0])
        assert rep.converged and np.allclose(rep.x_star, 1.0)
        assert sizes and set(sizes) == {2}
        merit_gradient(rep.x_star, problem)  # the whole Jacobian is np.arange(n)
        assert sizes[-1] == 2
        # a lattice from all-or-nothing loading, where most routes are held
        network = random_lattice(np.random.default_rng(7), side=8, n_od=10, per_od=8)
        sizes = []
        problem = self.index_checked(traffic.assemble_ncp(network), sizes)
        assert solve_ncp(problem, traffic._default_start(network)).converged
        assert min(sizes) < problem.n

    def test_gradient_fallback_takes_the_whole_jacobian(self):
        # F = (x_0 - 2, x_1 + 1) at x = (1, 0) holds x_1.  The free block makes
        # the system nearly singular, so the Newton step is huge and fails the
        # descent test; the fallback gradient H^T phi_pen also has a held
        # component, through the held column J[0, 1].
        x, fx = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
        pen = penalized_phi(x, fx)
        da, db = penalized_subgradient(x, fx)
        eps = REGULARIZATION * np.linalg.norm(pen)
        jac = np.array([[(1e-9 - da[0] - eps * db[0]) / db[0], 3.0], [0.0, 1.0]])
        problem = NcpProblem(2, lambda v: v + np.array([-2.0, 1.0]), lambda v, free: jac[np.ix_(free, free)])
        direction, slope, rows = ncp._search_direction(problem, x, fx, pen)
        assert rows == 0
        expected = -(system_jacobian_reference(jac, da, db).T @ pen)
        assert np.allclose(direction, expected, rtol=1e-12, atol=0.0) and direction[1] != 0.0
        assert slope == float(direction @ -direction)

    def test_nothing_held_keeps_the_full_system_bit_for_bit(self, rng):
        cases = [(affine_problem(*random_monotone_affine(rng, n)), np.ones(n)) for n in (2, 4, 6)]
        network = random_lattice(np.random.default_rng(7), side=8, n_od=10, per_od=8)
        start = traffic._default_start(network)
        start[:network.n_routes] += 0.05  # every route loaded, so no flow sits at 0
        cases.append((traffic.assemble_ncp(network), start))
        for problem, x0 in cases:
            iterates, history = full_system_reference(problem, x0, ncp.TOL)
            assert not any(np.any((x == 0.0) & (problem.f_eval(x) > 0.0)) for x in iterates)
            rep = solve_ncp(problem, x0)
            assert rep.converged and rep.newton_rows == problem.n * rep.newton_steps
            assert rep.merit_history == tuple(history)
            assert np.array_equal(rep.x_star, iterates[-1])

