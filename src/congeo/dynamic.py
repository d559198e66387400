"""Time-dependent complementarity functionals over flow trajectories.

For a flow trajectory h(t) with sampled travel cost c(t), two quantities are
evaluated on the grid:

* ``dynamic_gap`` -- the literal line integral of psi(h, c) against dh,
  i.e. the quadrature of psi(h(t), c(t)) h'(t) dt, with psi either phi/2
  (``half_phi``) or phi^2/2 (``half_phi_squared``).  Its value depends only
  weakly on the interior of monotone trajectories (it is a line integral in
  h), and it is signed for decreasing h, so it is reported, not optimized.

* ``complementarity_merit`` -- the plain time quadrature of psi.  In the
  squared variant this is nonnegative and vanishes exactly when the
  complementarity residual phi(h(t), c(t)) vanishes at every node, so
  ``minimize_dynamic`` drives this one (projected gradient, h >= 0); the
  literal gap of the optimized trajectory is still reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._common import parse_call, trapezoid
from .ncp import fb_phi, fb_subgradient

__all__ = [
    "AffineCost",
    "Trajectory",
    "DynamicConfig",
    "MinimizeResult",
    "dynamic_gap",
    "complementarity_merit",
    "minimize_dynamic",
    "parse_cost_model",
    "VARIANTS",
]

VARIANTS = ("half_phi", "half_phi_squared")
# Projected gradient descent: the first trial step, and the growth factor
# after an accepted step and its cap.
INITIAL_STEP = 1.0
STEP_GROWTH = 1.5
MAX_STEP = 1e8


@dataclass(frozen=True)
class Trajectory:
    """Flow samples h >= 0 and cost samples c on a strictly increasing time
    grid."""

    grid: np.ndarray
    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        t = np.array(self.grid, dtype=float)
        h = np.array(self.h, dtype=float)
        c = np.array(self.c, dtype=float)
        if t.ndim != 1 or t.shape[0] < 3:
            raise ValueError("trajectory grid needs at least three nodes")
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory grid must be strictly increasing")
        if h.shape != t.shape or not np.all(np.isfinite(h)):
            raise ValueError("flows must match the grid and be finite")
        if np.any(h < 0):
            raise ValueError("flows must be nonnegative")
        if c.shape != t.shape or not np.all(np.isfinite(c)):
            raise ValueError("cost samples must match the grid and be finite")
        for name, arr in (("grid", t), ("h", h), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.h) >= 0.0))

    def flow_rate(self) -> np.ndarray:
        """h'(t): central differences inside, one-sided at the endpoints."""
        return np.gradient(self.h, self.grid, edge_order=1)


@dataclass(frozen=True)
class DynamicConfig:
    """The merit's variant, plus ``minimize_dynamic``'s iteration budget and
    its stopping tolerance on the max-norm flow step."""

    variant: str = "half_phi_squared"
    max_iter: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name in ("max_iter", "tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _psi(h: np.ndarray, c: np.ndarray, variant: str) -> np.ndarray:
    phi = fb_phi(h, c)
    if variant == "half_phi":
        return 0.5 * phi
    return 0.5 * phi * phi


def dynamic_gap(traj: Trajectory, cfg: DynamicConfig | None = None) -> float:
    """Trapezoid value of the literal integral of psi(h, c) h'(t) dt."""
    cfg = cfg or DynamicConfig()
    integrand = _psi(traj.h, traj.c, cfg.variant) * traj.flow_rate()
    return float(trapezoid(integrand, traj.grid))


def complementarity_merit(traj: Trajectory, cfg: DynamicConfig | None = None) -> float:
    """Trapezoid value of psi(h, c) dt; in the squared variant this is
    nonnegative and zero exactly when phi vanishes at every node."""
    cfg = cfg or DynamicConfig()
    return float(trapezoid(_psi(traj.h, traj.c, cfg.variant), traj.grid))


@dataclass(frozen=True)
class AffineCost:
    """Cost model c(h, t) = a*h + b, with ``b`` a scalar or per-node samples.

    Its pointwise slope dc/dh = a gives ``minimize_dynamic`` the exact merit
    gradient.
    """

    a: float
    b: float | np.ndarray

    def __call__(self, h: np.ndarray, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # Trajectory rejects a non-finite cost
            return self.a * np.asarray(h, dtype=float) + self.b


@dataclass(frozen=True)
class MinimizeResult:
    trajectory: Trajectory
    objective: float  # complementarity merit of the final trajectory
    gap: float  # literal dynamic_gap of the final trajectory
    iterations: int
    converged: bool
    monotone_flow: bool
    objective_evaluations: int  # merit evaluations, line search included
    objective_history: tuple[float, ...] = field(repr=False, default=())


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    dt = np.diff(grid)
    w = np.zeros_like(grid)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def _affine_gradient(model: AffineCost, grid: np.ndarray, h: np.ndarray, cfg: DynamicConfig) -> np.ndarray:
    """Exact merit gradient for c = a*h + b: each node's psi depends on its
    own flow only, so dM/dh_k = w_k psi'(phi_k) (d_a phi + a d_b phi) at
    (h_k, c_k), with the symmetric generalized gradient of phi at the
    origin."""
    c = model(h, grid)
    da, db = fb_subgradient(h, c)
    dpsi = fb_phi(h, c) if cfg.variant == "half_phi_squared" else 0.5
    return _trapezoid_weights(grid) * dpsi * (da + model.a * db)


def minimize_dynamic(
    cost_model: AffineCost,
    grid,
    cfg: DynamicConfig | None = None,
    h0=None,
) -> MinimizeResult:
    """Projected gradient descent of the complementarity merit over node flows.

    The flows stay clamped at h >= 0.  The gradient is the closed form of
    the ``AffineCost`` and costs no objective evaluation.  The objective
    never increases across accepted steps; if the iteration budget runs out
    the best iterate is returned with ``converged=False``.
    """
    if not isinstance(cost_model, AffineCost):
        raise TypeError(f"cost_model must be an AffineCost, not {type(cost_model).__name__}")
    cfg = cfg or DynamicConfig()
    grid = np.asarray(grid, dtype=float)
    if h0 is None:
        h = np.ones_like(grid)
    else:
        h = np.array(h0, dtype=float)
        if h.shape != grid.shape:
            raise ValueError("h0 must match the grid")
    h = np.maximum(h, 0.0)
    evaluations = 0

    def objective(hv: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return complementarity_merit(Trajectory(grid=grid, h=hv, c=cost_model(hv, grid)), cfg)

    val = objective(h)
    history = [val]
    step = INITIAL_STEP
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iter + 1):
        grad = _affine_gradient(cost_model, grid, h, cfg)
        moved = False
        while step >= 1e-18:
            trial = np.maximum(h - step * grad, 0.0)
            tval = objective(trial)
            if tval <= val:
                delta = float(np.max(np.abs(trial - h)))
                h, val = trial, tval
                history.append(val)
                moved = True
                step = min(step * STEP_GROWTH, MAX_STEP)
                if delta <= cfg.tol:
                    converged = True
                break
            step *= 0.5
        if not moved or converged:
            converged = converged or not moved  # stationary: no descent direction left
            break

    final = Trajectory(grid=grid, h=h, c=cost_model(h, grid))
    return MinimizeResult(
        trajectory=final,
        objective=val,
        gap=dynamic_gap(final, cfg),
        iterations=iterations,
        converged=converged,
        monotone_flow=final.monotone(),
        objective_evaluations=evaluations,
        objective_history=tuple(history),
    )


def parse_cost_model(spec: str) -> AffineCost:
    """Named cost models, each an ``AffineCost``: ``zero`` (c = 0),
    ``identity`` (c = h) and ``affine(a,b)`` (c = a*h + b)."""
    name, args = parse_call(spec, "cost model")
    if name == "zero":
        if args:
            raise ValueError("cost model 'zero' takes no arguments")
        return AffineCost(0.0, 0.0)
    if name == "identity":
        if args:
            raise ValueError("cost model 'identity' takes no arguments")
        return AffineCost(1.0, 0.0)
    if name == "affine":
        if len(args) != 2:
            raise ValueError("cost model 'affine' takes exactly (a, b)")
        return AffineCost(*args)
    raise ValueError(f"unknown cost model {name!r}")
