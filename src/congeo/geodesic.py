"""Geodesics of Randers structures: direct integration, length evaluation,
and two-point boundary-value solving by single shooting.

With the quadratic Lagrangian L(x, y) = F(x, y)^2 / 2, length-minimizing
curves solve

    L_ij xdd^j + (dL_i/dx^j) xd^j - dL/dx^i = 0,

where L_i and L_ij are fiber derivatives (L_ij equals the fundamental tensor,
invertible away from y = 0).  Curves are stored on grids over the unit
interval with free parametrization speed; geodesics of L keep F(x, xd)
constant along the way, which the tests use as a first integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import trapezoid
from .finsler import DomainError, RandersStructure, _fundamental_matrix, _pt, _raw_eval, _vec, randers_eval

__all__ = [
    "Curve",
    "GeodesicIvp",
    "BvpConfig",
    "BvpResult",
    "Lagrangian",
    "finite_difference_velocities",
    "curve_length",
    "el_residual",
    "geodesic_ivp",
    "geodesic_bvp",
]

def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Curve:
    """Discretized parametrized path: nodes (t_k, x_k) with optional velocities.

    The grid must be strictly increasing inside [0, 1] with at least three
    nodes; velocities default to second-order finite differences of the
    points when not supplied.
    """

    params: np.ndarray
    points: np.ndarray
    velocities: np.ndarray | None = None

    def __post_init__(self):
        t = _readonly(self.params)
        x = _readonly(self.points)
        if t.ndim != 1 or t.shape[0] < 3:
            raise ValueError("curve needs at least three nodes")
        if np.any(np.diff(t) <= 0):
            raise ValueError("curve parameters must be strictly increasing")
        if t[0] < 0.0 or t[-1] > 1.0:
            raise ValueError("curve parameters must lie in [0, 1]")
        if x.ndim != 2 or x.shape[0] != t.shape[0]:
            raise ValueError("points must have shape (n_nodes, dim)")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise DomainError("curve nodes must be finite")
        object.__setattr__(self, "params", t)
        object.__setattr__(self, "points", x)
        if self.velocities is not None:
            v = _readonly(self.velocities)
            if v.shape != x.shape or not np.all(np.isfinite(v)):
                raise ValueError("velocities must match points and be finite")
            object.__setattr__(self, "velocities", v)

    @property
    def n_nodes(self) -> int:
        return self.params.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def velocity_samples(self) -> np.ndarray:
        if self.velocities is not None:
            return self.velocities
        return finite_difference_velocities(self.params, self.points)


def finite_difference_velocities(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Second-order velocity estimates on a (possibly nonuniform) grid."""
    return np.gradient(x, t, axis=0, edge_order=2)


def _second_differences(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Three-point second derivative at interior nodes of a nonuniform grid."""
    h1 = (t[1:-1] - t[:-2])[:, None]
    h2 = (t[2:] - t[1:-1])[:, None]
    return 2.0 * (h1 * x[2:] - (h1 + h2) * x[1:-1] + h2 * x[:-2]) / (h1 * h2 * (h1 + h2))


@dataclass(frozen=True)
class Lagrangian:
    """Quadratic action density L(x, y) = F(x, y)^2 / 2 and its derivatives,
    each from a single ``bundle`` evaluation of the structure."""

    structure: RandersStructure

    def _coeffs(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.structure.bundle(np.asarray(x, dtype=float))

    def value(self, x, y) -> float:
        a, b, _, _ = self._coeffs(x)
        return 0.5 * _raw_eval(a, b, _vec(y)) ** 2

    @staticmethod
    def _fiber(a, b, y):
        al = np.sqrt(max(y @ a @ y, 0.0))
        if al == 0.0:
            raise DomainError("Lagrangian fiber derivatives undefined at y = 0")
        ell = (a @ y) / al
        Fv = al + b @ y
        return al, ell, Fv

    def _terms(self, x, y):
        """(a, b, F, dF, mixed) at (x, y) from one bundle call, where
        dF[m] = dF/dx^m and mixed[m, i] = dL_i/dx^m, so dL/dx = F * dF."""
        a, b, da, db = self._coeffs(x)
        al, ell, Fv = self._fiber(a, b, y)
        da_y = da @ y
        dal = (da_y @ y) / (2.0 * al)
        dF = dal + db @ y
        dell = da_y / al - np.outer(dal, ell) / al
        mixed = np.outer(dF, ell + b) + Fv * (dell + db)
        return a, b, Fv, dF, mixed

    def fiber_grad(self, x, y) -> np.ndarray:
        a, b, _, _ = self._coeffs(x)
        _, ell, Fv = self._fiber(a, b, _vec(y))
        return Fv * (ell + b)

    def fiber_hessian(self, x, y) -> np.ndarray:
        a, b, _, _ = self._coeffs(x)
        return _fundamental_matrix(a, b, _vec(y))

    def position_grad(self, x, y) -> np.ndarray:
        _, _, Fv, dF, _ = self._terms(x, _vec(y))
        return Fv * dF

    def mixed(self, x, y) -> np.ndarray:
        """dL_i/dx^m with derivative axis first: mixed[m, i]."""
        return self._terms(x, _vec(y))[4]

    def acceleration(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Solve L_ij xdd = dL/dx - (dL_i/dx^j) xd^j for the geodesic flow."""
        a, b, Fv, dF, mixed = self._terms(x, v)
        rhs = Fv * dF - mixed.T @ v
        tensor = _fundamental_matrix(a, b, v)
        if tensor.shape == (2, 2):
            det = tensor[0, 0] * tensor[1, 1] - tensor[0, 1] * tensor[1, 0]
            if det == 0.0:
                raise DomainError(f"singular fiber Hessian at x={tuple(x)}")
            return np.array(
                [
                    (tensor[1, 1] * rhs[0] - tensor[0, 1] * rhs[1]) / det,
                    (tensor[0, 0] * rhs[1] - tensor[1, 0] * rhs[0]) / det,
                ]
            )
        try:
            return np.linalg.solve(tensor, rhs)
        except np.linalg.LinAlgError:
            raise DomainError(f"singular fiber Hessian at x={tuple(x)}") from None


def curve_length(F: RandersStructure, c: Curve) -> float:
    """Trapezoid quadrature of F(x, xd) along the curve (travel time); drift
    with ||b||_a >= 1 at a node is a domain error, as in ``randers_eval``."""
    v = c.velocity_samples()
    if np.max(np.abs(v)) == 0.0:
        raise DomainError("degenerate curve: zero velocity everywhere")
    speeds = [randers_eval(F, x, y) for x, y in zip(c.points, v)]
    return float(trapezoid(speeds, c.params))


def el_residual(F: RandersStructure, c: Curve) -> np.ndarray:
    """Euler-Lagrange residual at the interior nodes, shape (n_nodes-2, dim).

    True geodesics drive this to zero as the grid refines (the derivatives
    here are second-order differences of the stored nodes).
    """
    if c.n_nodes < 3:
        raise ValueError("residual needs at least three nodes")
    lag = Lagrangian(F)
    v = c.velocity_samples()
    xdd = _second_differences(c.params, c.points)
    out = np.empty((c.n_nodes - 2, c.dim))
    for k in range(1, c.n_nodes - 1):
        x, vk = c.points[k], v[k]
        if np.linalg.norm(vk) == 0.0:
            raise DomainError(f"zero velocity at interior node {k}")
        a, b, Fv, dF, mixed = lag._terms(x, vk)
        out[k - 1] = _fundamental_matrix(a, b, vk) @ xdd[k - 1] + mixed.T @ vk - Fv * dF
    return out


@dataclass(frozen=True)
class GeodesicIvp:
    """Initial data: start point, nonzero initial velocity, horizon, steps."""

    x0: tuple[float, ...]
    y0: tuple[float, ...]
    horizon: float = 1.0
    steps: int = 199

    def __post_init__(self):
        x0 = tuple(float(v) for v in np.asarray(self.x0, dtype=float))
        y0 = tuple(float(v) for v in np.asarray(self.y0, dtype=float))
        if not all(np.isfinite(x0)) or not all(np.isfinite(y0)):
            raise DomainError("initial data must be finite")
        if np.linalg.norm(y0) == 0.0:
            raise ValueError("initial velocity must be nonzero")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.steps < 2:
            raise ValueError("need at least two integration steps")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", y0)


def geodesic_ivp(F: RandersStructure, ivp: GeodesicIvp) -> Curve:
    """Classical fourth-order Runge-Kutta integration of the geodesic flow.

    The returned curve is re-parametrized onto [0, 1] (velocities scaled by
    the horizon), so F-speed along it equals horizon * F(x0, y0) throughout.
    """
    lag = Lagrangian(F)
    n = len(ivp.x0)
    steps = ivp.steps
    h = ivp.horizon / steps
    xs = np.empty((steps + 1, n))
    vs = np.empty((steps + 1, n))
    x = np.array(ivp.x0)
    v = np.array(ivp.y0)
    xs[0], vs[0] = x, v

    def rhs(xc, vc):
        return vc, lag.acceleration(xc, vc)

    for k in range(steps):
        k1x, k1v = rhs(x, v)
        k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = rhs(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise DomainError(f"non-finite state at integration step {k + 1}")
        xs[k + 1], vs[k + 1] = x, v

    params = np.linspace(0.0, 1.0, steps + 1)
    return Curve(params=params, points=xs, velocities=vs * ivp.horizon)


@dataclass(frozen=True)
class BvpConfig:
    tol: float = 1e-6
    nodes: int = 200
    max_newton: int = 25
    restarts: int = 8
    seed: int = 0
    explore: bool = False
    fd_step: float = 1e-6
    max_backtracks: int = 12

    def __post_init__(self):
        if self.nodes < 3:
            raise ValueError("nodes must be at least 3")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class BvpResult:
    curve: Curve
    endpoint_error: float
    converged: bool
    iterations: int
    restarts_used: int
    multiplicity: int
    length: float
    initial_velocity: tuple[float, ...]


def _shoot(F: RandersStructure, p: np.ndarray, y0: np.ndarray, nodes: int) -> Curve:
    ivp = GeodesicIvp(x0=tuple(p), y0=tuple(y0), horizon=1.0, steps=nodes - 1)
    return geodesic_ivp(F, ivp)


def geodesic_bvp(F: RandersStructure, p, q, config: BvpConfig | None = None) -> BvpResult:
    """Connect p to q by a geodesic via Newton iteration on the initial velocity.

    The first guess is the chord velocity q - p; on stagnation the solve
    restarts from deterministically seeded rotations/rescalings of it.  With
    ``explore`` set, every start is tried and the shortest converged geodesic
    wins (``multiplicity`` counts distinct converged initial velocities).
    Non-convergence is reported through the result, never raised.
    """
    cfg = config or BvpConfig()
    p = _pt(p)
    q = _pt(q, len(p))
    if np.array_equal(p, q):
        raise ValueError("boundary points must differ")
    n = len(p)
    rng = np.random.default_rng(cfg.seed)

    starts = [q - p]
    for _ in range(cfg.restarts):
        theta = rng.normal(0.0, 0.8)
        scale = float(np.exp(rng.normal(0.0, 0.4)))
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        if n == 2:
            starts.append(scale * (rot @ (q - p)))
        else:
            starts.append(scale * (q - p) + 0.3 * np.linalg.norm(q - p) * rng.normal(size=n))

    def endpoint_error(curve: Curve) -> float:
        return float(np.linalg.norm(curve.points[-1] - q))

    total_iters = 0
    best: tuple[float, Curve, np.ndarray] | None = None
    solutions: list[tuple[np.ndarray, Curve, float]] = []
    attempts_used = 0

    for y0 in starts:
        attempts_used += 1
        y0 = np.array(y0, dtype=float)
        try:
            curve = _shoot(F, p, y0, cfg.nodes)
        except DomainError:
            continue
        err = endpoint_error(curve)
        initial_err = err
        converged_here = err <= cfg.tol
        for _ in range(cfg.max_newton):
            if converged_here or err > 10.0 * max(initial_err, 1.0):
                break
            total_iters += 1
            resid = curve.points[-1] - q
            jac = np.empty((n, n))
            fd_failed = False
            for j in range(n):
                delta = cfg.fd_step * max(1.0, abs(y0[j]))
                e = np.zeros(n)
                e[j] = delta
                try:
                    curve_j = _shoot(F, p, y0 + e, cfg.nodes)
                except DomainError:
                    fd_failed = True
                    break
                jac[:, j] = (curve_j.points[-1] - curve.points[-1]) / delta
            if fd_failed:
                break
            try:
                step = np.linalg.solve(jac, -resid)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            t = 1.0
            improved = False
            for _ in range(cfg.max_backtracks):
                try:
                    trial = _shoot(F, p, y0 + t * step, cfg.nodes)
                except DomainError:
                    t *= 0.5
                    continue
                trial_err = endpoint_error(trial)
                if trial_err < err:
                    y0 = y0 + t * step
                    curve, err = trial, trial_err
                    improved = True
                    break
                t *= 0.5
            if not improved or np.linalg.norm(t * step) < 1e-16:
                break
            converged_here = err <= cfg.tol

        if best is None or err < best[0]:
            best = (err, curve, y0)
        if converged_here:
            if not any(np.linalg.norm(y0 - s[0]) <= 1e-4 * max(1.0, np.linalg.norm(y0)) for s in solutions):
                solutions.append((y0, curve, curve_length(F, curve)))
            if not cfg.explore:
                break

    if solutions:
        y0, curve, length = min(solutions, key=lambda s: s[2])
        return BvpResult(
            curve=curve,
            endpoint_error=endpoint_error(curve),
            converged=True,
            iterations=total_iters,
            restarts_used=attempts_used - 1,
            multiplicity=len(solutions),
            length=length,
            initial_velocity=tuple(y0),
        )
    if best is None:
        raise DomainError("every shooting attempt left the structure's validity domain")
    err, curve, y0 = best
    return BvpResult(
        curve=curve,
        endpoint_error=err,
        converged=False,
        iterations=total_iters,
        restarts_used=attempts_used - 1,
        multiplicity=0,
        length=curve_length(F, curve),
        initial_velocity=tuple(y0),
    )
