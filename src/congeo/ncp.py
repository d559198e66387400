"""Nonlinear complementarity solving via the Fischer-Burmeister reformulation.

NCP(F): find x with x >= 0, F(x) >= 0, x^T F(x) = 0.  The scalar function
phi(a, b) = sqrt(a^2 + b^2) - (a + b) vanishes exactly on complementary
nonnegative pairs, so the componentwise system phi(x_i, F_i(x)) = 0 encodes
the NCP and the merit G(x) = ||phi(x)||^2 / 2 turns it into unconstrained
minimization.  The solver runs damped semismooth Newton steps on the system
with Armijo backtracking on the merit, replacing steps that are not
sufficient descent directions by the negative merit gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "NcpProblem",
    "SolverConfig",
    "SolveReport",
    "fb_phi",
    "fb_subgradient",
    "fb_system",
    "merit",
    "merit_gradient",
    "solve_ncp",
]

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# Relative step of the forward-difference Jacobian of an F given without one.
JACOBIAN_FD_STEP = 1e-7
# Line search and descent test of De Luca, Facchinei & Kanzow (1996): accept
# step t when G(x + t d) <= G(x) + ARMIJO_SIGMA t d.grad G, shrinking t by
# the factor ARMIJO_BETA down to MIN_STEP; keep the Newton direction d only when
# d.grad G <= -DESCENT_RHO ||d||^DESCENT_P.
ARMIJO_SIGMA = 1e-4
ARMIJO_BETA = 0.5
DESCENT_RHO = 1e-10
DESCENT_P = 2.1
MIN_STEP = 1e-16


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
    with np.errstate(invalid="ignore", divide="ignore"):
        da = np.where(r > 0.0, a / np.where(r > 0.0, r, 1.0), _SQRT_HALF) - 1.0
        db = np.where(r > 0.0, b / np.where(r > 0.0, r, 1.0), _SQRT_HALF) - 1.0
    if da.ndim == 0:
        return float(da), float(db)
    return da, db


@dataclass(frozen=True)
class NcpProblem:
    """Dimension n plus the mapping F (and optionally its Jacobian).

    Without an analytic Jacobian, forward differences with relative step
    ``JACOBIAN_FD_STEP`` are used.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

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

    def jac_eval(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            jac = np.asarray(self.jacobian(x), dtype=float)
            if jac.shape != (self.n, self.n):
                raise ValueError(f"Jacobian shape {jac.shape}, expected ({self.n},{self.n})")
        else:
            f0 = self.f_eval(x)
            jac = np.empty((self.n, self.n))
            for j in range(self.n):
                h = JACOBIAN_FD_STEP * max(1.0, abs(x[j]))
                e = np.zeros(self.n)
                e[j] = h
                jac[:, j] = (self.f_eval(x + e) - f0) / h
        if not np.all(np.isfinite(jac)):
            raise FloatingPointError(f"Jacobian non-finite at x={x}")
        return jac


@dataclass(frozen=True)
class SolverConfig:
    tol_merit: float = 1e-12
    tol_residual: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        for name in ("tol_merit", "tol_residual", "max_iter"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SolveReport:
    x_star: np.ndarray
    merit: float
    residual: float
    iterations: int
    status: str  # converged | max_iter | line_search_failure
    merit_history: tuple[float, ...] = field(default=(), repr=False)

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


def _system_jacobian(x: np.ndarray, fx: np.ndarray, problem: NcpProblem) -> np.ndarray:
    da, db = fb_subgradient(x, fx)
    jac = problem.jac_eval(x)
    return np.diag(np.atleast_1d(da)) + np.atleast_1d(db)[:, None] * jac


def merit_gradient(x, problem: NcpProblem) -> np.ndarray:
    """Gradient of the merit via the chain rule over the system Jacobian."""
    x = np.asarray(x, dtype=float)
    fx = problem.f_eval(x)
    phi = fb_phi(x, fx)
    return _system_jacobian(x, fx, problem).T @ phi


def solve_ncp(
    problem: NcpProblem,
    config: SolverConfig | None = None,
    x0=None,
) -> SolveReport:
    """Damped semismooth Newton on the componentwise system.

    Newton directions failing the sufficient-descent test
    d . grad G <= -rho ||d||^p fall back to the negative merit gradient;
    steps are accepted under the Armijo condition on the merit.  Convergence
    requires both the merit and the max-norm system residual to reach their
    tolerances (the residual is the binding one in practice).  Line-search
    breakdown and iteration exhaustion are reported as statuses, never
    raised.
    """
    cfg = config or SolverConfig()
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
    g_val = 0.5 * float(phi @ phi)
    history = [g_val]

    def finish(status: str, iterations: int) -> SolveReport:
        return SolveReport(
            x_star=x.copy(),
            merit=g_val,
            residual=float(np.max(np.abs(phi))),
            iterations=iterations,
            status=status,
            merit_history=tuple(history),
        )

    for it in range(cfg.max_iter):
        residual = float(np.max(np.abs(phi)))
        if g_val <= cfg.tol_merit and residual <= cfg.tol_residual:
            return finish("converged", it)

        jac_sys = _system_jacobian(x, fx, problem)
        grad = jac_sys.T @ phi

        direction = None
        try:
            cand = np.linalg.solve(jac_sys, -phi)
            if np.all(np.isfinite(cand)):
                slope = float(cand @ grad)
                if slope <= -DESCENT_RHO * np.linalg.norm(cand) ** DESCENT_P:
                    direction = cand
        except np.linalg.LinAlgError:
            pass
        if direction is None:
            direction = -grad
        slope = float(direction @ grad)

        step = 1.0
        accepted = False
        while step >= MIN_STEP:
            x_new = x + step * direction
            try:
                fx_new = problem.f_eval(x_new)
            except FloatingPointError:
                step *= ARMIJO_BETA
                continue
            phi_new = fb_phi(x_new, fx_new)
            g_new = 0.5 * float(phi_new @ phi_new)
            if g_new <= g_val + ARMIJO_SIGMA * step * slope:
                x, fx, phi, g_val = x_new, fx_new, phi_new, g_new
                history.append(g_val)
                accepted = True
                break
            step *= ARMIJO_BETA
        if not accepted:
            return finish("line_search_failure", it + 1)

    residual = float(np.max(np.abs(phi)))
    if g_val <= cfg.tol_merit and residual <= cfg.tol_residual:
        return finish("converged", cfg.max_iter)
    return finish("max_iter", cfg.max_iter)
