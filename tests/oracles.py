"""Independent reference computations shared by the unit and acceptance tests.

Everything here deliberately avoids the library's own solution paths:
the LCP oracle enumerates active sets, the Newton system matrix is formed
from fresh arrays, the two-route equilibrium comes from equal-times
algebra, NCP Jacobians come from differences of F, the fundamental tensor
comes from second differences of F^2, and curve perturbations are rebuilt
from splined control points.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from congeo.finsler import DomainError, _raw_eval, _vec
from congeo.ncp import NcpProblem

# Relative step of the forward-difference Jacobian of ``fd_problem``.
JACOBIAN_FD_STEP = 1e-7
# Relative step for the finite-difference fundamental tensor (second
# derivatives).  1e-4 keeps the round-off floor near 1e-7 relative; smaller
# steps amplify cancellation past the 1e-6 agreement target.
HESSIAN_FD_STEP = 1e-4


def affine_problem(M, q):
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    return NcpProblem(n=len(q), f=lambda x: M @ x + q, jacobian=lambda x: M)


def fd_problem(n, f):
    """NcpProblem for a test map written without its Jacobian: forward
    differences of F, column j with step ``JACOBIAN_FD_STEP * max(1, |x_j|)``."""

    def jacobian(x):
        f0 = problem.f_eval(x)
        jac = np.empty((n, n))
        for j in range(n):
            h = JACOBIAN_FD_STEP * max(1.0, abs(x[j]))
            e = np.zeros(n)
            e[j] = h
            jac[:, j] = (problem.f_eval(x + e) - f0) / h
        return jac

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


def system_jacobian_reference(jac, da, db):
    """H = diag(d_a) + diag(d_b) J from fresh arrays: the reference for the
    in-place system matrix ``ncp._system_jacobian`` builds."""
    return np.diag(da) + db[:, None] * jac


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
