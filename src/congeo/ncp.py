"""Nonlinear complementarity solving via the Fischer-Burmeister reformulation.

NCP(F): find x with x >= 0, F(x) >= 0, x^T F(x) = 0.  The scalar function
phi(a, b) = sqrt(a^2 + b^2) - (a + b) vanishes exactly on complementary
nonnegative pairs, so the componentwise system phi(x_i, F_i(x)) = 0 encodes
the NCP and the merit G(x) = ||phi(x)||^2 / 2 turns it into unconstrained
minimization.  The solver runs damped semismooth Newton steps with Armijo
backtracking, replacing steps that are not sufficient descent directions by
the negative merit gradient.

Steps and line search run on the penalized function of Chen, Chen & Kanzow
(2000), phi_pen = PENALTY phi - (1 - PENALTY) max(a, 0) max(b, 0), which has
the zeros of phi; phi <= 0 where a, b > 0, so the penalty is subtracted.
With (d_a, d_b) = penalized_subgradient(x, F(x)) and J = F'(x), the
closed-form Jacobian every ``NcpProblem`` carries, the system Jacobian is
H = diag(d_a) + diag(d_b) J.  The Newton step solves the
Tikhonov-regularized equation (H + eps diag(d_b)) d = -phi_pen with
eps = REGULARIZATION ||phi_pen||_2 (Facchinei & Kanzow 1999), which keeps the
step defined where H is singular (non-unique route flows) and vanishes with
phi_pen, so fast local convergence is kept.  The descent test and the
gradient H^T phi_pen of the penalized merit ||phi_pen||^2 / 2, which
``SolveReport.merit_history`` records, use the unregularized H.  The stopping
rule and the reported ``merit`` and ``residual`` stay on the plain phi: the
solve stops when the max-norm of phi reaches its tolerance (``TOL`` unless
the caller passes ``tol``) or after ``MAX_ITER`` iterations.

The Newton equation is solved on the free set.  A component held at
x_i = 0 < F_i(x) (both exact) has phi_pen_i = d_b,i = 0, so its row of
H + eps diag(d_b) is d_a,i e_i with right-hand side 0 and its step is 0:
the strictly inactive set of Facchinei, Fischer & Kanzow (1998).  The step
solves the m x m system of the other m components, and ``NcpProblem``'s
Jacobian is asked for that block alone, ``jacobian(x, free)`` =
F'(x)[free][:, free]; ``free`` is an index array, or ``slice(None)`` when
nothing is held, and ``free_block`` copies a stored matrix's block.  The
block is a new array, which the solver may overwrite: the Newton system
H + eps diag(d_b) is written over it, so an iteration holds one m x m
array besides the copy that ``np.linalg.solve`` factors.  The descent
test takes the gradient H^T phi_pen on the free set, to which the held
rows (phi_pen_i = 0) add nothing; the gradient fallback and
``merit_gradient`` take the whole Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "MAX_ITER",
    "NcpProblem",
    "SolveReport",
    "TOL",
    "fb_phi",
    "fb_subgradient",
    "fb_system",
    "free_block",
    "merit",
    "merit_gradient",
    "penalized_phi",
    "penalized_subgradient",
    "solve_ncp",
]

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# Default tolerance on the max-norm system residual, and the iteration budget.
TOL = 1e-8
MAX_ITER = 200
# Line search and descent test of De Luca, Facchinei & Kanzow (1996) on the
# penalized merit G: accept step t when G(x + t d) <= G(x) + ARMIJO_SIGMA t d.grad G,
# shrinking t by the factor ARMIJO_BETA down to MIN_STEP; keep the Newton
# direction d only when d.grad G <= -DESCENT_RHO ||d||^DESCENT_P.
ARMIJO_SIGMA = 1e-4
ARMIJO_BETA = 0.5
DESCENT_RHO = 1e-10
DESCENT_P = 2.1
MIN_STEP = 1e-16
# Tikhonov weight of the Newton equation: eps = REGULARIZATION * ||phi_pen||_2.
REGULARIZATION = 1e-4
# Weight of the penalized function the steps run on; 1.0 is plain Fischer-Burmeister.
PENALTY = 0.8


def fb_phi(a, b):
    """Fischer-Burmeister function sqrt(a^2 + b^2) - (a + b).

    Zero exactly when a >= 0, b >= 0 and ab = 0.  Accepts scalars or arrays;
    hypot plus the subtraction order keep huge inputs from overflowing.
    """
    return np.hypot(a, b) - a - b


def fb_subgradient(a, b):
    """An element (d_a, d_b) of the generalized gradient of fb_phi.

    Away from the origin the function is smooth: (a/r - 1, b/r - 1) with
    r = sqrt(a^2 + b^2).  At the origin any (xi - 1, zeta - 1) with
    xi^2 + zeta^2 <= 1 is admissible; the symmetric boundary element
    xi = zeta = 1/sqrt(2) is the deterministic choice used here.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r = np.hypot(a, b)
    origin = r == 0.0
    r = np.where(origin, 1.0, r)
    da = np.where(origin, _SQRT_HALF, a / r) - 1.0
    db = np.where(origin, _SQRT_HALF, b / r) - 1.0
    if da.ndim == 0:
        return float(da), float(db)
    return da, db


def penalized_phi(a, b):
    """PENALTY fb_phi(a, b) - (1 - PENALTY) max(a, 0) max(b, 0), zero
    exactly where fb_phi is (Chen, Chen & Kanzow 2000)."""
    return PENALTY * fb_phi(a, b) - (1.0 - PENALTY) * np.maximum(a, 0.0) * np.maximum(b, 0.0)


def penalized_subgradient(a, b):
    """PENALTY fb_subgradient(a, b) - (1 - PENALTY) (b, a) where a, b > 0,
    and PENALTY fb_subgradient(a, b) elsewhere."""
    da, db = fb_subgradient(a, b)
    penalty = (1.0 - PENALTY) * (np.minimum(a, b) > 0.0)
    return PENALTY * da - penalty * b, PENALTY * db - penalty * a


@dataclass(frozen=True)
class NcpProblem:
    """Dimension n, the mapping F and its closed-form Jacobian F'.

    ``jacobian(x, free)`` returns the block F'(x)[free][:, free] (the whole
    (n, n) array when ``free`` is ``slice(None)``) in a new array, which the
    solver may overwrite; the solver never differences F.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray | slice], np.ndarray]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")

    def f_eval(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite F raises below
            fx = np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)
        if fx.shape != (self.n,):
            raise ValueError(f"F returned shape {fx.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(fx)):
            raise FloatingPointError(f"F non-finite at x={x}")
        return fx

    def jac_eval(self, x: np.ndarray, free: np.ndarray | slice = slice(None)) -> np.ndarray:
        jac = np.asarray(self.jacobian(np.asarray(x, dtype=float), free), dtype=float)
        m = self.n if isinstance(free, slice) else len(free)
        if jac.shape != (m, m):
            raise ValueError(f"Jacobian shape {jac.shape}, expected ({m},{m})")
        if not np.all(np.isfinite(jac)):
            raise FloatingPointError(f"Jacobian non-finite at x={x}")
        return jac


def free_block(a: np.ndarray, free: np.ndarray | slice) -> np.ndarray:
    """A new array a[free][:, free] of a square array: a copy of ``a`` when
    ``free`` is ``slice(None)``, else of its free rows and columns."""
    return a.copy() if isinstance(free, slice) else a[np.ix_(free, free)]


@dataclass(frozen=True)
class SolveReport:
    x_star: np.ndarray
    merit: float
    residual: float
    iterations: int
    status: str  # converged | max_iter | line_search_failure
    merit_history: tuple[float, ...] = field(default=(), repr=False)
    newton_steps: int = 0  # iterations that took the Newton direction
    gradient_steps: int = 0  # iterations that fell back to the negative merit gradient
    backtracks: int = 0  # rejected line-search trial points
    newton_rows: int = 0  # summed dimension of the systems behind the Newton steps

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def fb_system(x, problem: NcpProblem) -> np.ndarray:
    """Componentwise phi(x_i, F_i(x)); zero exactly at NCP solutions."""
    x = np.asarray(x, dtype=float)
    return fb_phi(x, problem.f_eval(x))


def merit(x, problem: NcpProblem) -> float:
    """G(x) = ||phi(x)||^2 / 2 (nonnegative, zero exactly at solutions)."""
    phi = fb_system(x, problem)
    return 0.5 * float(phi @ phi)


def _system_jacobian(jac: np.ndarray, da: np.ndarray, db: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """H + eps diag(d_b) with H = diag(d_a) + diag(d_b) J, written over
    ``jac`` (a new array from ``jac_eval``) and returned."""
    jac *= db[:, None]
    diag = np.arange(len(db))
    jac[diag, diag] += da + eps * db
    return jac


def merit_gradient(x, problem: NcpProblem) -> np.ndarray:
    """Gradient of the merit via the chain rule over the system Jacobian."""
    x = np.asarray(x, dtype=float)
    fx = problem.f_eval(x)
    phi = fb_phi(x, fx)
    return _system_jacobian(problem.jac_eval(x), *fb_subgradient(x, fx)).T @ phi


def _newton_system(problem: NcpProblem, x, da, db, eps, phi_pen, free):
    """H + eps diag(d_b) on the free set, written over the Jacobian block,
    and the free part of the gradient H^T phi_pen of the penalized merit
    (phi_pen is 0 on held rows, so they add nothing)."""
    system = _system_jacobian(problem.jac_eval(x, free), da[free], db[free], eps)
    pen = phi_pen[free]
    return system, system.T @ pen - eps * db[free] * pen  # without the regularization


def _search_direction(problem: NcpProblem, x, fx, phi_pen):
    """(direction, slope d . grad G, rows) of one iteration: the regularized
    Newton step on the free set, 0 on held components, with rows its
    dimension; or, when that step is no sufficient descent direction, the
    negative penalized-merit gradient with rows = 0."""
    da, db = penalized_subgradient(x, fx)
    eps = REGULARIZATION * float(np.linalg.norm(phi_pen))
    held = (x == 0.0) & (fx > 0.0)
    free = np.flatnonzero(~held) if held.any() else slice(None)
    system, grad = _newton_system(problem, x, da, db, eps, phi_pen, free)
    try:
        step = np.linalg.solve(system, -phi_pen[free])
        if np.all(np.isfinite(step)):
            slope = float(step @ grad)
            if slope <= -DESCENT_RHO * np.linalg.norm(step) ** DESCENT_P:
                direction = np.zeros(len(x))
                direction[free] = step
                return direction, slope, len(step)
    except np.linalg.LinAlgError:
        pass
    if held.any():  # the gradient is nonzero on held components too
        _, grad = _newton_system(problem, x, da, db, eps, phi_pen, slice(None))
    direction = -grad
    return direction, float(direction @ grad), 0


def solve_ncp(problem: NcpProblem, x0=None, *, tol: float = TOL) -> SolveReport:
    """Damped semismooth Newton on the componentwise penalized system.

    Each step solves the regularized Newton equation of the module docstring
    on the free set, in an array of the free set's size.  Newton
    directions failing the sufficient-descent test
    d . grad G <= -rho ||d||^p fall back to the negative gradient of the
    penalized merit G; steps are accepted under the Armijo condition on G.
    Convergence is the max-norm of the plain phi reaching ``tol``, which
    bounds the reported merit by n tol^2 / 2.  Line-search breakdown and the
    exhaustion of ``MAX_ITER`` iterations are reported as statuses, never
    raised.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if x0 is None:
        x = np.ones(problem.n)
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (problem.n,):
            raise ValueError(f"x0 shape {x.shape}, expected ({problem.n},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("x0 must be finite")

    fx = problem.f_eval(x)
    phi = fb_phi(x, fx)
    phi_pen = penalized_phi(x, fx)
    g_val = 0.5 * float(phi_pen @ phi_pen)
    history = [g_val]
    newton_steps = gradient_steps = backtracks = newton_rows = 0

    def finish(status: str, iterations: int) -> SolveReport:
        return SolveReport(
            x_star=x.copy(),
            merit=0.5 * float(phi @ phi),
            residual=float(np.max(np.abs(phi))),
            iterations=iterations,
            status=status,
            merit_history=tuple(history),
            newton_steps=newton_steps,
            gradient_steps=gradient_steps,
            backtracks=backtracks,
            newton_rows=newton_rows,
        )

    for it in range(MAX_ITER + 1):
        if float(np.max(np.abs(phi))) <= tol:
            return finish("converged", it)
        if it == MAX_ITER:
            return finish("max_iter", it)

        direction, slope, rows = _search_direction(problem, x, fx, phi_pen)
        if rows:
            newton_steps += 1
            newton_rows += rows
        else:
            gradient_steps += 1

        step = 1.0
        while step >= MIN_STEP:
            x_new = x + step * direction
            try:
                fx_new = problem.f_eval(x_new)
            except FloatingPointError:
                step *= ARMIJO_BETA
                backtracks += 1
                continue
            pen_new = penalized_phi(x_new, fx_new)
            g_new = 0.5 * float(pen_new @ pen_new)
            if g_new <= g_val + ARMIJO_SIGMA * step * slope:
                x, fx, phi_pen, g_val = x_new, fx_new, pen_new, g_new
                phi = fb_phi(x, fx)
                history.append(g_val)
                break
            step *= ARMIJO_BETA
            backtracks += 1
        else:  # no trial step down to MIN_STEP was accepted
            return finish("line_search_failure", it + 1)
