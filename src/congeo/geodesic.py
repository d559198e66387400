"""Geodesics of Randers structures: direct integration, length evaluation,
and two-point boundary-value solving by single shooting, coarse to fine.

With the quadratic Lagrangian L(x, y) = F(x, y)^2 / 2, length-minimizing
curves solve

    L_ij xdd^j + (dL_i/dx^j) xd^j - dL/dx^i = 0,

where L_i and L_ij are fiber derivatives (L_ij equals the fundamental tensor,
invertible away from y = 0).  Curves are stored on grids over the unit
interval with free parametrization speed; geodesics of L keep F(x, xd)
constant along the way, which the tests use as a first integral.

Everything is evaluated in batches.  ``Lagrangian`` takes (B, dim) states
stacked along a leading axis and makes one ``bundle`` call per batch (the
structure's fields must follow the batch contract in ``finsler``); its
acceleration is the structure's closed-form ``spray`` instead where the
structure has one, as every structure ``build_randers`` makes over the
Euclidean plane does.  One classical RK4 integrator advances a batch of
shots; a row that leaves the validity domain or turns non-finite drops out
and the others go on unchanged (a step that fails is retaken in bisected
parts to find it), and ``geodesic_ivp`` is a batch of one.  The rows of a
batch are computed with elementwise operations only (as are the preset
fields), so each row equals the same state or shot computed alone, bit for
bit, and batching changes no decision of ``geodesic_bvp``.

A route costs its sequential RK4 stages, not its batch width, so a
boundary-value solve finer than ``COARSE_NODES`` nodes runs its Newton
starts at ``COARSE_NODES`` first and then polishes the coarse solutions at
the full resolution (nested iteration, Deuflhard 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._common import trapezoid
from .finsler import DomainError, RandersStructure, _cramer, _dot, _fiber, _mv, _pt, _speeds, _sum

__all__ = [
    "Curve",
    "GeodesicIvp",
    "BvpConfig",
    "BvpResult",
    "StartOutcome",
    "Lagrangian",
    "curve_length",
    "el_residual",
    "geodesic_ivp",
    "geodesic_bvp",
]

# Relative step of the finite-difference shooting Jacobian.
SHOT_FD_STEP = 1e-6
# Step lengths 1, 1/2, 1/4, ... a Newton step tries, at most this many.
MAX_BACKTRACKS = 12
# Backtracking levels of a Newton step shot speculatively in one batch.
SPECULATIVE_BACKTRACKS = 4
# Nodes of the coarse level of a boundary-value solve (see ``geodesic_bvp``).
COARSE_NODES = 8

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
        return np.gradient(self.points, self.params, axis=0, edge_order=2)


def _second_differences(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Three-point second derivative at interior nodes of a nonuniform grid."""
    h1 = (t[1:-1] - t[:-2])[:, None]
    h2 = (t[2:] - t[1:-1])[:, None]
    return 2.0 * (h1 * x[2:] - (h1 + h2) * x[1:-1] + h2 * x[:-2]) / (h1 * h2 * (h1 + h2))


@dataclass(frozen=True)
class Lagrangian:
    """Quadratic action density L(x, y) = F(x, y)^2 / 2: its derivatives at a
    (B, dim) batch of states, all from one ``bundle`` call, and the geodesic
    acceleration they give (or the structure's ``spray``, when it has one)."""

    structure: RandersStructure

    def _terms(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """(F, ell + b, tensor, dF, mixed) at a (B, dim) batch of states, where
        tensor = L_ij (the fundamental tensor), dF[m] = dF/dx^m and
        mixed[m, i] = dL_i/dx^m; so L_i = F (ell + b) and dL/dx = F dF."""
        a, b, da, db = self.structure.bundle(x)
        al, ell, Fv, lb, tensor = _fiber(a, b, y, "Lagrangian fiber derivatives")
        ym = y[:, None, :]
        da_y = _mv(da, ym)  # [b, m, i] = d_m a_ij y^j
        dal = _dot(da_y, ym) / (2.0 * al[:, None])
        dF = dal + _dot(db, ym)
        al_m = al[:, None, None]
        dell = da_y / al_m - dal[:, :, None] * ell[:, None, :] / al_m
        mixed = dF[:, :, None] * lb[:, None, :] + Fv[:, None, None] * (dell + db)
        return Fv, lb, tensor, dF, mixed

    def acceleration(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Solve L_ij xdd = dL/dx - (dL_i/dx^j) xd^j for the geodesic flow.

        Takes a (B, dim) batch; a singular fiber Hessian in any row is a
        domain error naming that row's point.  A structure with a ``spray``
        gives the result directly."""
        if self.structure.spray is not None:
            return self.structure.spray(x, v)
        Fv, _, tensor, dF, mixed = self._terms(x, v)
        rhs = Fv[:, None] * dF - _sum(mixed * v[:, :, None], axis=1)
        if x.shape[1] == 2:
            acc = _cramer(tensor[:, 0, 0], tensor[:, 0, 1], tensor[:, 1, 0], tensor[:, 1, 1], rhs[:, 0], rhs[:, 1], x)
        else:
            try:
                acc = np.linalg.solve(tensor, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # the batched solve does not say which row failed: find the first
                for k in range(len(x)):
                    try:
                        np.linalg.solve(tensor[k], rhs[k])
                    except np.linalg.LinAlgError:
                        raise DomainError(f"singular fiber Hessian at x={tuple(map(float, x[k]))}") from None
                raise
        return acc


def curve_length(F: RandersStructure, c: Curve) -> float:
    """Trapezoid quadrature of F(x, xd) along the curve (travel time), all
    nodes in one batched evaluation; drift with ||b||_a >= 1 at a node is a
    domain error naming it, as in ``randers_eval``."""
    v = c.velocity_samples()
    if np.max(np.abs(v)) == 0.0:
        raise DomainError("degenerate curve: zero velocity everywhere")
    return float(trapezoid(_speeds(F, c.points, v), c.params))


def el_residual(F: RandersStructure, c: Curve) -> np.ndarray:
    """Euler-Lagrange residual at the interior nodes, shape (n_nodes-2, dim).

    True geodesics drive this to zero as the grid refines (the derivatives
    here are second-order differences of the stored nodes).  All interior
    nodes are evaluated in one batch.
    """
    if c.n_nodes < 3:
        raise ValueError("residual needs at least three nodes")
    v = c.velocity_samples()[1:-1]
    zero = ~v.any(axis=1)
    if zero.any():
        raise DomainError(f"zero velocity at interior node {int(zero.argmax()) + 1}")
    xdd = _second_differences(c.params, c.points)
    Fv, _, tensor, dF, mixed = Lagrangian(F)._terms(c.points[1:-1], v)
    return _mv(tensor, xdd) + _sum(mixed * v[:, :, None], axis=1) - Fv[:, None] * dF


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


def _rk4_step(acceleration, x: np.ndarray, v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of size h of the flow xdd = acceleration(x, xd), for a batch of states."""
    half = 0.5 * h
    a1 = acceleration(x, v)
    v2 = v + half * a1
    a2 = acceleration(x + half * v, v2)
    v3 = v + half * a2
    a3 = acceleration(x + half * v2, v3)
    v4 = v + h * a3
    a4 = acceleration(x + h * v3, v4)
    return x + (h / 6.0) * (v + 2 * v2 + 2 * v3 + v4), v + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)


def _step(acceleration, x: np.ndarray, v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """``_rk4_step`` plus the rows that left the validity domain, as row -> DomainError.

    A field may raise for a batch as a whole, so a failed batch is retaken
    in two halves, each bisected again while it fails, down to single rows.
    """
    try:
        return *_rk4_step(acceleration, x, v, h), {}
    except DomainError as exc:
        if len(x) == 1:
            return x, v, {0: exc}
    half = len(x) // 2
    x0, v0, failed = _step(acceleration, x[:half], v[:half], h)
    x1, v1, failed1 = _step(acceleration, x[half:], v[half:], h)
    failed.update((half + r, exc) for r, exc in failed1.items())
    return np.concatenate((x0, x1)), np.concatenate((v0, v1)), failed


def _integrate(lag: Lagrangian, x0: np.ndarray, y0: np.ndarray, steps: int, h: float):
    """Classical RK4 for a (B, dim) batch of initial states, ``steps`` steps of size h.

    Returns the trajectories ``xs``, ``vs`` of shape (B, steps + 1, dim),
    per row the ``DomainError`` that stopped it or None, and the number of
    ``lag.acceleration`` calls made, one after the other.  A row that leaves
    the validity domain or turns non-finite drops out of the batch (its
    trajectory is undefined from there on); the other rows go on exactly as
    if integrated alone.
    """
    calls = 0

    def acceleration(x, v):
        nonlocal calls
        calls += 1
        return lag.acceleration(x, v)

    batch, n = y0.shape
    xs = np.empty((batch, steps + 1, n))
    vs = np.empty((batch, steps + 1, n))
    xs[:, 0], vs[:, 0] = x0, y0
    errors: list[DomainError | None] = [None] * batch
    finite = np.isfinite(xs[:, 0]).all(axis=1) & np.isfinite(vs[:, 0]).all(axis=1)
    for r in np.flatnonzero(~finite):
        errors[r] = DomainError("initial data must be finite")
    rows = np.flatnonzero(finite)
    for k in range(steps):
        if not len(rows):
            break
        x, v, failed = _step(acceleration, xs[rows, k], vs[rows, k], h)
        for r in np.flatnonzero(~(np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1))):
            failed.setdefault(r, DomainError(f"non-finite state at integration step {k + 1}"))
        if failed:
            for r, exc in failed.items():
                errors[rows[r]] = exc
            keep = np.ones(len(rows), dtype=bool)
            keep[list(failed)] = False
            rows, x, v = rows[keep], x[keep], v[keep]
        xs[rows, k + 1], vs[rows, k + 1] = x, v
    return xs, vs, errors, calls


def geodesic_ivp(F: RandersStructure, ivp: GeodesicIvp) -> Curve:
    """Classical fourth-order Runge-Kutta integration of the geodesic flow.

    The returned curve is re-parametrized onto [0, 1] (velocities scaled by
    the horizon), so F-speed along it equals horizon * F(x0, y0) throughout.
    Leaving the validity domain or a non-finite state raises ``DomainError``.
    """
    steps = ivp.steps
    xs, vs, errors, _ = _integrate(Lagrangian(F), np.array([ivp.x0]), np.array([ivp.y0]), steps, ivp.horizon / steps)
    if errors[0] is not None:
        raise errors[0]
    params = np.linspace(0.0, 1.0, steps + 1)
    return Curve(params=params, points=xs[0], velocities=vs[0] * ivp.horizon)


@dataclass(frozen=True)
class BvpConfig:
    tol: float = 1e-6
    nodes: int = 200
    max_newton: int = 25
    restarts: int = 8
    seed: int = 0
    explore: bool = False

    def __post_init__(self):
        if self.nodes < 3:
            raise ValueError("nodes must be at least 3")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_newton < 0 or self.restarts < 0:
            raise ValueError("max_newton and restarts must be nonnegative")


@dataclass(frozen=True)
class StartOutcome:
    """How one BVP start ended, after how many Newton iterations, on shots of
    how many nodes.

    ``outcome`` is ``converged``; ``stalled`` (no backtracking level lowered
    the endpoint error, the step vanished, or ``max_newton`` ran out);
    ``domain_exit`` (the start's own shot left the validity domain);
    ``fd_failed`` (a finite-difference companion did); or ``singular`` (the
    shooting Jacobian could not be solved).  A step is taken only if it
    lowers the endpoint error, so the error never exceeds its start."""

    outcome: str
    iterations: int
    nodes: int


@dataclass(frozen=True)
class BvpResult:
    """A boundary-value solve: the returned curve (``config.nodes`` nodes)
    and its travel time ``length``, and the work that found it.

    ``starts`` records every Newton start that ran, coarse ones first, then
    the polish and any full-resolution fallback (see ``geodesic_bvp``);
    ``iterations`` is their sum and ``restarts_used`` counts the first
    level's starts past the first.  ``multiplicity`` counts the distinct
    converged initial velocities of the level that gave the curve.
    ``stages`` counts the sequential RK4 stage batches shot, that is the
    ``Lagrangian.acceleration`` calls made one after the other: four per
    integration step of a batch, more where a step that left the validity
    domain is retaken in bisected parts.
    """

    curve: Curve
    endpoint_error: float
    converged: bool
    iterations: int
    restarts_used: int
    multiplicity: int
    length: float
    initial_velocity: tuple[float, ...]
    starts: tuple[StartOutcome, ...]
    stages: int


@dataclass(frozen=True)
class _Shot:
    """A shot of one trial velocity: its trajectory, plus the endpoints of its
    finite-difference companions (None when one of them left the domain)."""

    points: np.ndarray
    velocities: np.ndarray
    companions: np.ndarray | None
    deltas: np.ndarray

    def error(self, q: np.ndarray) -> float:
        return float(np.linalg.norm(self.points[-1] - q))

    def jacobian(self) -> np.ndarray | None:
        """d endpoint / d velocity by forward differences, column j from companion j."""
        if self.companions is None:
            return None
        return (self.companions - self.points[-1]).T / self.deltas

    def curve(self) -> Curve:
        return Curve(params=np.linspace(0.0, 1.0, len(self.points)), points=self.points, velocities=self.velocities)


def _shoot(lag: Lagrangian, p: np.ndarray, trials: list, cfg: BvpConfig) -> tuple[list[_Shot | None], int]:
    """Shoot every trial velocity together with its n finite-difference
    companions (velocity + delta_j e_j) in one batch; None for a trial whose
    own shot left the domain.  Also returns the acceleration calls made."""
    n = len(p)
    deltas = [SHOT_FD_STEP * np.maximum(1.0, np.abs(u)) for u in trials]
    y0 = np.concatenate([np.vstack([u, u + np.diag(d)]) for u, d in zip(trials, deltas)])
    steps = cfg.nodes - 1
    xs, vs, errors, calls = _integrate(lag, np.broadcast_to(p, y0.shape), y0, steps, 1.0 / steps)
    shots: list[_Shot | None] = []
    for k, d in enumerate(deltas):
        r = k * (n + 1)
        if errors[r] is not None:
            shots.append(None)
            continue
        companions_ok = all(e is None for e in errors[r + 1:r + n + 1])
        companions = xs[r + 1:r + n + 1, -1].copy() if companions_ok else None
        shots.append(_Shot(xs[r].copy(), vs[r].copy(), companions, d))
    return shots, calls


def _newton(q: np.ndarray, y0: np.ndarray, cfg: BvpConfig):
    """Damped Newton iteration on one start's initial velocity, as a generator.

    It yields lists of trial velocities, is sent their shots (``_shoot``) and
    returns ``(StartOutcome, (error, velocity, shot) or None)``.  It decides
    exactly as if each velocity were shot when first needed: a backtracking
    level past the accepted one is shot but never looked at, and an accepted
    trial's companions give the next iteration's Jacobian.
    """
    (shot,) = yield [y0]
    if shot is None:
        return StartOutcome("domain_exit", 0, cfg.nodes), None
    err = shot.error(q)
    converged = err <= cfg.tol
    outcome, iterations = "stalled", 0
    for _ in range(cfg.max_newton):
        if converged:
            break
        iterations += 1
        jac = shot.jacobian()
        if jac is None:
            outcome = "fd_failed"
            break
        try:
            step = np.linalg.solve(jac, -(shot.points[-1] - q))
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            outcome = "singular"
            break
        accepted = None
        for first in range(0, MAX_BACKTRACKS, SPECULATIVE_BACKTRACKS):
            levels = [0.5**k for k in range(first, min(first + SPECULATIVE_BACKTRACKS, MAX_BACKTRACKS))]
            trials = [y0 + t * step for t in levels]
            shots = yield trials
            accepted = next(
                ((t, u, s) for t, u, s in zip(levels, trials, shots) if s is not None and s.error(q) < err), None
            )
            if accepted is not None:
                break
        if accepted is None:
            break
        t, y0, shot = accepted
        err = shot.error(q)
        if np.linalg.norm(t * step) < 1e-16:
            break
        converged = err <= cfg.tol
    if converged:
        outcome = "converged"
    return StartOutcome(outcome, iterations, cfg.nodes), (err, y0, shot)


def _lockstep(lag: Lagrangian, p: np.ndarray, q: np.ndarray, starts: list, cfg: BvpConfig) -> tuple[list, int]:
    """Run the Newton iterations of all starts side by side, the shots of each
    round in one batch; returns each start's ``_newton`` result in order and
    the acceleration calls its shots made."""
    runs = [_newton(q, y0, cfg) for y0 in starts]
    results: list = [None] * len(runs)
    stages = 0
    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        order = list(pending)
        shots, calls = _shoot(lag, p, [u for i in order for u in pending[i]], cfg)
        stages += calls
        for i in order:
            mine, shots = shots[:len(pending[i])], shots[len(pending[i]):]
            try:
                pending[i] = runs[i].send(mine)
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
    return results, stages


def _starts(p: np.ndarray, q: np.ndarray, cfg: BvpConfig) -> list[np.ndarray]:
    """The chord velocity q - p, then ``cfg.restarts`` seeded rotations and
    rescalings of it (perturbations off the plane for dim > 2)."""
    rng = np.random.default_rng(cfg.seed)
    starts = [q - p]
    for _ in range(cfg.restarts):
        theta = rng.normal(0.0, 0.8)
        scale = float(np.exp(rng.normal(0.0, 0.4)))
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        if len(p) == 2:
            starts.append(scale * (rot @ (q - p)))
        else:
            starts.append(scale * (q - p) + 0.3 * np.linalg.norm(q - p) * rng.normal(size=len(p)))
    return starts


class _Level(NamedTuple):
    """One level of a boundary-value solve: a ``StartOutcome`` per start that
    ran, the distinct converged solutions as (velocity, curve), the shot that
    came closest to q as (error, curve, velocity) or None, and the
    acceleration calls its shots made."""

    records: list
    solutions: list
    closest: tuple | None
    stages: int


def _solve(lag: Lagrangian, p: np.ndarray, q: np.ndarray, starts: list, cfg: BvpConfig) -> _Level:
    """Newton iteration from each start on shots of ``cfg.nodes`` nodes.

    Under ``explore`` all starts advance in lockstep, one batch per round;
    without it they run one after the other and the first converged one
    ends the level.  Two converged velocities within 1e-4 relative count as
    one solution.
    """
    records: list[StartOutcome] = []
    solutions: list[tuple[np.ndarray, Curve]] = []
    closest: tuple[float, Curve, np.ndarray] | None = None
    stages = 0
    for group in [starts] if cfg.explore else [[y0] for y0 in starts]:
        results, calls = _lockstep(lag, p, q, group, cfg)
        stages += calls
        for record, found in results:
            records.append(record)
            if found is None:
                continue
            err, y0, shot = found
            curve = shot.curve()
            if closest is None or err < closest[0]:
                closest = (err, curve, y0)
            if record.outcome == "converged" and not any(
                np.linalg.norm(y0 - s[0]) <= 1e-4 * max(1.0, np.linalg.norm(y0)) for s in solutions
            ):
                solutions.append((y0, curve))
        if solutions and not cfg.explore:
            break
    return _Level(records, solutions, closest, stages)


def geodesic_bvp(F: RandersStructure, p, q, config: BvpConfig | None = None) -> BvpResult:
    """Connect p to q by a geodesic via Newton iteration on the initial velocity.

    The first guess is the chord velocity q - p; on stagnation the solve
    restarts from deterministically seeded rotations/rescalings of it.  With
    ``explore`` set, every start is tried and the shortest converged geodesic
    wins (``multiplicity`` counts distinct converged initial velocities).
    Non-convergence is reported through the result, never raised; ``starts``
    records how each start that ran ended.

    Above ``COARSE_NODES`` nodes the solve is coarse to fine: the starts run
    on shots of ``COARSE_NODES`` nodes, then every distinct converged coarse
    velocity is polished on shots of ``config.nodes`` nodes (in lockstep
    under ``explore``), and the shortest converged polished geodesic wins.
    If no coarse start or no polish converges, the starts run again at the
    full resolution, as a solve at ``COARSE_NODES`` nodes or fewer runs
    them; a coarse curve is never returned.

    Batching changes no decision: each Newton trial velocity is shot together
    with its finite-difference companions (so an accepted trial carries the
    next Jacobian), the first ``SPECULATIVE_BACKTRACKS`` backtracking levels
    go in one batch, and under ``explore`` all starts advance in lockstep,
    one batch per round.  Without ``explore`` the starts run one after the
    other and the first converged one ends the level.
    """
    cfg = config or BvpConfig()
    p = _pt(p)
    q = _pt(q, len(p))
    if np.array_equal(p, q):
        raise ValueError("boundary points must differ")
    starts = _starts(p, q, cfg)
    lag = Lagrangian(F)
    if cfg.nodes <= COARSE_NODES:
        levels = [_solve(lag, p, q, starts, cfg)]
    else:
        levels = [_solve(lag, p, q, starts, replace(cfg, nodes=COARSE_NODES))]
        if levels[0].solutions:
            levels.append(_solve(lag, p, q, [s[0] for s in levels[0].solutions], cfg))
        if not levels[-1].solutions:
            levels.append(_solve(lag, p, q, starts, cfg))
    final = levels[-1]
    if final.solutions:  # the shortest converged geodesic
        lengths = [curve_length(F, c) for _, c in final.solutions]
        length = min(lengths)
        y0, curve = final.solutions[lengths.index(length)]
    elif final.closest is None:
        raise DomainError("every shooting attempt left the structure's validity domain")
    else:  # the shot that came closest to q
        _, curve, y0 = final.closest
        length = curve_length(F, curve)
    records = tuple(r for level in levels for r in level.records)
    return BvpResult(
        curve=curve,
        endpoint_error=float(np.linalg.norm(curve.points[-1] - q)),
        converged=bool(final.solutions),
        iterations=sum(r.iterations for r in records),
        restarts_used=len(levels[0].records) - 1,
        multiplicity=len(final.solutions),
        length=length,
        initial_velocity=tuple(y0),
        starts=records,
        stages=sum(level.stages for level in levels),
    )
