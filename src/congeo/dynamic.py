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
  complementarity residual phi(h(t), c(t)) vanishes at every node.  Each
  node's term depends on its own flow only, so for an affine cost
  c = a*h + b ``minimize_dynamic`` writes the zero-merit flows down node by
  node (h = -b/a where b < 0, the start where a = 0 = b, else 0) and
  raises a ``ValueError`` when none exist; the literal gap of the minimized
  trajectory is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import parse_call, trapezoid
from .ncp import fb_phi

__all__ = [
    "AffineCost",
    "Trajectory",
    "MinimizeResult",
    "dynamic_gap",
    "complementarity_merit",
    "minimize_dynamic",
    "parse_cost_model",
    "VARIANTS",
]

VARIANTS = ("half_phi", "half_phi_squared")


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


def _psi(h: np.ndarray, c: np.ndarray, variant: str) -> np.ndarray:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, not {variant!r}")
    phi = fb_phi(h, c)
    if variant == "half_phi":
        return 0.5 * phi
    return 0.5 * phi * phi


def dynamic_gap(traj: Trajectory, *, variant: str = "half_phi_squared") -> float:
    """Trapezoid value of the literal integral of psi(h, c) h'(t) dt."""
    integrand = _psi(traj.h, traj.c, variant) * traj.flow_rate()
    return float(trapezoid(integrand, traj.grid))


def complementarity_merit(traj: Trajectory, *, variant: str = "half_phi_squared") -> float:
    """Trapezoid value of psi(h, c) dt; in the squared variant this is
    nonnegative and zero exactly when phi vanishes at every node."""
    return float(trapezoid(_psi(traj.h, traj.c, variant), traj.grid))


@dataclass(frozen=True)
class AffineCost:
    """Cost model c(h, t) = a*h + b, with ``b`` a scalar or per-node samples."""

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
    monotone_flow: bool
    iterations: int = 0  # the closed form takes none; the perfbench tracer still reads the count


def minimize_dynamic(
    cost_model: AffineCost,
    grid,
    *,
    variant: str = "half_phi_squared",
    h0=None,
) -> MinimizeResult:
    """Closed-form minimizer of the squared complementarity merit over node flows.

    Node k's merit term depends on h_k alone, so the minimizer solves
    h_k >= 0, c_k = a h_k + b_k >= 0, h_k c_k = 0 node by node: h_k = -b_k/a
    where b_k < 0 and h_k = 0 where b_k > 0, or where b_k = 0 and a != 0.
    Where a = 0 = b_k every h_k >= 0 is a minimizer, and the start
    max(h0_k, 0) (h0 defaults to ones) is kept.  A ``ValueError`` names why
    no flow has zero merit: the half_phi merit is unbounded below, a <= 0
    with some b_k < 0 leaves a positive infimum, and -b_k/a may overflow.
    """
    if not isinstance(cost_model, AffineCost):
        raise TypeError(f"cost_model must be an AffineCost, not {type(cost_model).__name__}")
    if variant == "half_phi":
        raise ValueError("the half_phi merit is unbounded below; only half_phi_squared has a minimizer")
    grid = np.asarray(grid, dtype=float)
    start = np.ones_like(grid) if h0 is None else np.array(h0, dtype=float)
    if start.shape != grid.shape:
        raise ValueError("h0 must match the grid")
    a = float(cost_model.a)
    b = np.broadcast_to(np.asarray(cost_model.b, dtype=float), grid.shape)
    negative = b < 0
    if a <= 0 and np.any(negative):
        raise ValueError(
            f"no flow of zero merit: with a={a!r} <= 0, nodes with b < 0 keep a negative cost for every h >= 0"
        )
    h = np.zeros_like(grid)
    if a == 0:
        idle = b == 0
        h[idle] = np.maximum(start[idle], 0.0)
    with np.errstate(over="ignore"):
        h[negative] = -b[negative] / a
    if not np.all(np.isfinite(h)):
        raise ValueError(f"the zero-merit flow -b/a overflows for a={a!r}; flows must be finite")
    # one ulp up where rounding leaves the cost a*h + b just below zero
    h = np.where(cost_model(h, grid) < 0, np.nextafter(h, np.inf), h)

    final = Trajectory(grid=grid, h=h, c=cost_model(h, grid))
    return MinimizeResult(
        trajectory=final,
        objective=complementarity_merit(final, variant=variant),
        gap=dynamic_gap(final, variant=variant),
        monotone_flow=final.monotone(),
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
