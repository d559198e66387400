"""Independent reference computations shared by the unit and acceptance tests.

Everything here deliberately avoids the library's own solution paths:
the LCP oracle enumerates active sets, the Newton system matrix is formed
from fresh arrays, the UE map and its Jacobian come from a dense route-link
incidence and a one-hot route-OD matrix, the reference Newton loop solves the system on all
unknowns, the two-route equilibrium comes from equal-times algebra, NCP
Jacobians come from differences of F, coefficient-field x-derivatives come from central differences of the field's values, the
fundamental tensor comes from second differences of F^2, and curve
perturbations are rebuilt from splined control points.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from congeo import fileio
from congeo.finsler import DomainError, _raw_eval, _vec
from congeo.ncp import NcpProblem, free_block
from congeo.traffic import ElasticDemand

# Relative step of the forward-difference Jacobian of ``fd_problem``.
JACOBIAN_FD_STEP = 1e-7
# Relative step for x-derivatives of coefficient fields (first derivatives).
COEFF_FD_STEP = 1e-5
# Relative step for the finite-difference fundamental tensor (second
# derivatives).  1e-4 keeps the round-off floor near 1e-7 relative; smaller
# steps amplify cancellation past the 1e-6 agreement target.
HESSIAN_FD_STEP = 1e-4


def affine_problem(M, q):
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    return NcpProblem(n=len(q), f=lambda x: M @ x + q, jacobian=lambda x, free: free_block(M, free))


def fd_problem(n, f):
    """NcpProblem for a test map written without its Jacobian: forward
    differences of F, column j with step ``JACOBIAN_FD_STEP * max(1, |x_j|)``,
    cut to the free block the solver asks for."""

    def jacobian(x, free):
        f0 = problem.f_eval(x)
        jac = np.empty((n, n))
        for j in range(n):
            h = JACOBIAN_FD_STEP * max(1.0, abs(x[j]))
            e = np.zeros(n)
            e[j] = h
            jac[:, j] = (problem.f_eval(x + e) - f0) / h
        return free_block(jac, free)

    problem = NcpProblem(n=n, f=f, jacobian=jacobian)
    return problem


def central_jacobian(problem, x, h):
    """Central differences of ``problem.f_eval`` at x with absolute step h:
    the cross-check of a closed-form NCP Jacobian."""
    x = np.asarray(x, dtype=float)
    jac = np.empty((problem.n, problem.n))
    for j in range(problem.n):
        e = np.zeros(problem.n)
        e[j] = h
        jac[:, j] = (problem.f_eval(x + e) - problem.f_eval(x - e)) / (2 * h)
    return jac


def fd_derivative(fn, x, value_shape):
    """Central-difference x-derivative (relative step ``COEFF_FD_STEP``) of a
    coefficient map at a point or a batch of points ``x[..., :]``; the
    derivative axis follows the batch axes.  The cross-check of a field's
    closed-form jet."""
    x = np.asarray(x, dtype=float)
    batch = x.shape[:-1]
    columns = []
    for m in range(x.shape[-1]):
        h = COEFF_FD_STEP * np.maximum(1.0, np.abs(x[..., m]))
        e = np.zeros_like(x)
        e[..., m] = h
        diff = np.asarray(fn(x + e), float) - np.asarray(fn(x - e), float)
        columns.append(diff / (2 * h).reshape(batch + (1,) * len(value_shape)))
    # stacked, not written into a preallocated array, so that a value of the
    # wrong shape reaches the field's schema check and its error message
    return np.stack(columns, axis=len(batch))


def fd_jet(values, value_shape):
    """Jet of a test field written by its values alone, e.g.
    ``CongestionField(fd_jet(vector, (2,)))``: ``values`` maps a (B, dim)
    batch to values of shape ``(B, *value_shape)`` (or a broadcasting
    constant), and the derivative comes from ``fd_derivative``."""
    return lambda x: (values(x), fd_derivative(values, x, value_shape))


def system_jacobian_reference(jac, da, db, eps=0.0):
    """H + eps diag(d_b) = diag(d_b) J + diag(d_a + eps d_b) from fresh
    arrays: the reference for the system matrix ``ncp._system_jacobian``
    writes over the Jacobian."""
    return db[:, None] * jac + np.diag(da + eps * db)


def dense_incidence(network):
    """The (routes, links) route-link incidence, filled from the route
    objects' link ids."""
    ids = [l.id for l in network.links]
    inc = np.zeros((network.n_routes, len(ids)))
    for r, route in enumerate(network.routes):
        for lid in route.links:
            inc[r, ids.index(lid)] += 1.0
    return inc


def dense_ue_problem(network):
    """``traffic.assemble_ncp``'s map and Jacobian from the dense incidence A
    and the one-hot (routes, OD pairs) matrix P, with the BPR times, their
    slopes and the demands written out per link and per OD pair:
    F = (A t(A^T h) - P pi; P^T h - d(pi)) and
    F' = [[(A * t'(v)) A^T, -P], [P^T, -diag(d'(pi))]], cut to the free block."""
    A = dense_incidence(network)
    ods = [od.id for od in network.od_pairs]
    P = np.zeros((network.n_routes, len(ods)))
    for r, route in enumerate(network.routes):
        P[r, ods.index(route.od)] = 1.0
    links, demands = network.links, [od.demand for od in network.od_pairs]
    R = network.n_routes

    def times(v):
        return np.array([l.t0 * (1.0 + l.bpr_b * (max(x, 0.0) / l.capacity) ** l.bpr_p) for l, x in zip(links, v)])

    def slopes(v):
        return np.array([
            l.t0 * l.bpr_b * l.bpr_p * x ** (l.bpr_p - 1.0) / l.capacity ** l.bpr_p if x > 0.0 else 0.0
            for l, x in zip(links, v)
        ])

    def f(x):
        h, pi = x[:R], x[R:]
        served = np.array([d(p) for d, p in zip(demands, pi)])
        return np.concatenate([A @ times(A.T @ h) - P @ pi, P.T @ h - served])

    def jacobian(x, free):
        h, pi = x[:R], x[R:]
        elastic = [d.k if isinstance(d, ElasticDemand) and d(p) > 0.0 else 0.0 for d, p in zip(demands, pi)]
        jac = np.block([[(A * slopes(A.T @ h)) @ A.T, -P], [P.T, np.diag(elastic)]])
        return free_block(jac, free)

    return NcpProblem(n=R + len(ods), f=f, jacobian=jacobian)


def random_lattice(rng, side, n_od, per_od):
    """Directed side x side lattice (links east and south, BPR p = 4) whose OD
    pairs run from the north-west quarter to the south-east one along up to
    ``per_od`` distinct monotone walks; OD pairs alternate fixed and elastic
    demand, 12 units in all, which loads the links to about capacity."""
    def node(i, j):
        return f"n{i}_{j}"

    links = [
        {"id": f"{m}{i}_{j}", "from": node(i, j), "to": node(i + di, j + dj),
         "t0": rng.uniform(1.0, 2.0), "capacity": rng.uniform(1.0, 3.0)}
        for i in range(side) for j in range(side) for m, (di, dj) in (("e", (0, 1)), ("s", (1, 0)))
        if i + di < side and j + dj < side
    ]
    half, scale = side // 2, 12.0 / n_od
    od_pairs, routes = [], []
    for k in range(n_od):
        i0, j0 = rng.integers(0, half - 1, 2)
        i1, j1 = rng.integers(half + 1, side, 2)
        if k % 2:
            demand = {"type": "elastic", "d0": rng.uniform(2.0, 4.0) * scale, "k": rng.uniform(0.02, 0.06) * scale}
        else:
            demand = {"type": "fixed", "d0": rng.uniform(1.0, 3.0) * scale}
        od_pairs.append({"id": f"od{k}", "origin": node(i0, j0), "destination": node(i1, j1), "demand": demand})
        walks = {tuple(rng.permutation(["s"] * (i1 - i0) + ["e"] * (j1 - j0))) for _ in range(10 * per_od)}
        for w, walk in enumerate(sorted(walks)[:per_od]):
            i, j, ids = i0, j0, []
            for m in walk:
                ids.append(f"{m}{i}_{j}")
                i, j = (i + 1, j) if m == "s" else (i, j + 1)
            routes.append({"id": f"r{k}_{w}", "od": f"od{k}", "links": ids})
    nodes = [node(i, j) for i in range(side) for j in range(side)]
    return fileio.load_network({"nodes": nodes, "links": links, "routes": routes, "od_pairs": od_pairs})


def full_system_reference(problem, x0, tol):
    """The solver loop with every Newton system on all n unknowns, in the
    solver's own arithmetic: the path the free-set step replaces.  Returns
    the accepted iterates (x0 first) and the penalized merit history."""
    from congeo import ncp

    x = np.asarray(x0, dtype=float).copy()
    fx = problem.f_eval(x)
    pen = ncp.penalized_phi(x, fx)
    iterates, history = [x], [0.5 * float(pen @ pen)]
    for _ in range(ncp.MAX_ITER):
        if np.max(np.abs(ncp.fb_phi(x, fx))) <= tol:
            break
        da, db = ncp.penalized_subgradient(x, fx)
        eps = ncp.REGULARIZATION * float(np.linalg.norm(pen))
        system = ncp._system_jacobian(problem.jac_eval(x), da, db, eps)
        grad = system.T @ pen - eps * db * pen
        direction = np.linalg.solve(system, -pen)
        slope = float(direction @ grad)
        assert slope <= -ncp.DESCENT_RHO * np.linalg.norm(direction) ** ncp.DESCENT_P  # no fallback here
        step = 1.0
        while True:
            x_new = x + step * direction
            fx_new = problem.f_eval(x_new)
            pen_new = ncp.penalized_phi(x_new, fx_new)
            g_new = 0.5 * float(pen_new @ pen_new)
            if g_new <= history[-1] + ncp.ARMIJO_SIGMA * step * slope:
                break
            step *= ncp.ARMIJO_BETA
        x, fx, pen = x_new, fx_new, pen_new
        iterates.append(x)
        history.append(g_new)
    return iterates, history


def random_monotone_affine(rng, n):
    """Monotone (positive-definite symmetric part) affine map, not symmetric."""
    A = rng.normal(size=(n, n))
    M = A @ A.T + 0.5 * np.eye(n)
    skew = rng.normal(size=(n, n))
    M = M + 0.3 * (skew - skew.T)
    q = rng.normal(size=n) * 2.0
    return M, q


def lcp_enumeration_oracle(M, q, tol=1e-9):
    """Brute-force LCP solve: try every active set, keep feasible candidates."""
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    n = len(q)
    solutions = []
    for mask in range(2**n):
        active = [i for i in range(n) if mask >> i & 1]
        x = np.zeros(n)
        if active:
            sub = M[np.ix_(active, active)]
            try:
                x[active] = np.linalg.solve(sub, -q[active])
            except np.linalg.LinAlgError:
                continue
        w = M @ x + q
        scale = max(1.0, np.max(np.abs(x)), np.max(np.abs(w)))
        if np.all(x >= -tol * scale) and np.all(w >= -tol * scale) and abs(x @ w) <= tol * scale**2:
            if not any(np.allclose(x, s, atol=1e-7) for s in solutions):
                solutions.append(x)
    return solutions


def two_route_closed_form(t01, m1, t02, m2, d):
    """Equal-times algebra for affine costs c_i = t0_i + m_i h_i, fixed demand."""
    h1 = (t02 - t01 + m2 * d) / (m1 + m2)
    if h1 < 0.0:
        return np.array([0.0, d]), t02 + m2 * d
    if h1 > d:
        return np.array([d, 0.0]), t01 + m1 * d
    return np.array([h1, d - h1]), t01 + m1 * h1


def fd_fundamental_tensor(F, x, y):
    """Half the fiber Hessian of F^2 at (x, y), y != 0, by central second
    differences with step ``HESSIAN_FD_STEP * ||y||``: the cross-check of the
    closed-form ``finsler.fundamental_tensor``."""
    a, b = F.coefficients(x)
    y = _vec(y, "tangent components")
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        raise DomainError("fundamental tensor undefined at y = 0")

    def fsq(v: np.ndarray) -> float:
        return float(_raw_eval(a, b, v)) ** 2

    n = y.shape[0]
    h = HESSIAN_FD_STEP * ny
    mat = np.empty((n, n))
    f0 = fsq(y)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        mat[i, i] = (fsq(y + ei) - 2 * f0 + fsq(y - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (
                fsq(y + ei + ej) - fsq(y + ei - ej) - fsq(y - ei + ej) + fsq(y - ei - ej)
            ) / (4 * h**2)
            mat[i, j] = mat[j, i] = mixed
    return 0.5 * mat


def perturbed_curve(rng, curve, n_ctrl=7, amp_range=(0.03, 0.10)):
    """Endpoint-preserving spline perturbation with jitter scaled to the chord."""
    chord = float(np.linalg.norm(curve.points[-1] - curve.points[0]))
    t = curve.params
    ctrl_t = np.linspace(0.0, 1.0, n_ctrl)
    ctrl = np.array([curve.points[min(np.searchsorted(t, s), len(t) - 1)] for s in ctrl_t])
    amp = rng.uniform(*amp_range) * chord
    ctrl[1:-1] += rng.normal(size=(n_ctrl - 2, curve.points.shape[1])) * amp / np.sqrt(2)
    spline = CubicSpline(ctrl_t, ctrl, axis=0)
    from congeo.geodesic import Curve

    return Curve(params=t, points=spline(t))
