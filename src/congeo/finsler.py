"""Planar Randers geometry driven by congestion vector fields.

A Randers structure assigns each point ``x`` and direction ``y`` the travel
cost ``F(x, y) = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i``: a Riemannian norm plus
a drift one-form whose alpha-norm stays below one.  A congestion field ``w``
with ``||w||_g < 1`` over a Riemannian base ``g`` induces such a structure via

    lam = 1 - ||w||_g^2,    a_ij = g_ij / lam^2,    b_j = g_ij w^i / lam,

so travel against the congestion costs more than travel with it.  This module
builds those structures, evaluates F and its fundamental tensor, and checks
the validity conditions (positivity, homogeneity, positive-definiteness).

Derivative-array convention: the derivative axis comes first, i.e.
``dg[m, i, j] = d g_ij / d x^m`` and ``dw[m, i] = d w^i / d x^m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._common import parse_call

__all__ = [
    "DomainError",
    "Point",
    "TangentVector",
    "RiemannianField",
    "CongestionField",
    "RandersStructure",
    "FundamentalTensor",
    "SampleCheck",
    "StructureValidation",
    "norm_g",
    "covector_norm",
    "randers_eval",
    "build_randers",
    "fundamental_tensor",
    "validate_structure",
    "constant_randers",
    "euclidean_metric",
    "euclidean_randers",
    "congestion_none",
    "congestion_uniform",
    "congestion_vortex",
    "grid_congestion",
    "parse_congestion_spec",
]

# Relative step for x-derivatives of coefficient fields (first derivatives).
COEFF_FD_STEP = 1e-5
# Relative step for the finite-difference fundamental tensor (second
# derivatives).  1e-4 keeps the round-off floor near 1e-7 relative; smaller
# steps amplify cancellation past the 1e-6 agreement target.
HESSIAN_FD_STEP = 1e-4
# Default saturation margin: reject congestion with ||w||_g > 1 - EPS_CONG.
EPS_CONG = 1e-3

_SYM_TOL = 1e-12


class DomainError(ValueError):
    """Geometric validity violation: saturated congestion, drift with
    ||b||_a >= 1, zero fiber vector, or evaluation outside a field's domain."""


def _vec(y, name="vector") -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite components: {arr}")
    return arr


def _pt(x, dim=None) -> np.ndarray:
    if isinstance(x, Point):
        arr = x.as_array()
    elif isinstance(x, TangentVector):
        raise TypeError("expected a point, got a TangentVector")
    else:
        arr = np.asarray(x, dtype=float)
    arr = _vec(arr, "point")
    if dim is not None and arr.shape != (dim,):
        raise ValueError(f"point has dimension {arr.shape[0]}, expected {dim}")
    return arr


@dataclass(frozen=True)
class Point:
    """A position in R^n (n = 2 in all shipped configurations)."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if not all(math.isfinite(c) for c in coords):
            raise DomainError(f"point coordinates must be finite: {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)


@dataclass(frozen=True)
class TangentVector:
    """A direction attached to a base point."""

    base: Point
    components: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        if not all(math.isfinite(c) for c in comps):
            raise DomainError(f"tangent components must be finite: {comps}")
        if len(comps) != self.base.dim:
            raise ValueError("tangent dimension does not match base point")
        object.__setattr__(self, "components", comps)

    def as_array(self) -> np.ndarray:
        return np.array(self.components, dtype=float)


def _check_sym_matrix(g: np.ndarray, dim: int, what: str) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError(f"{what} must have shape ({dim},{dim}), got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise DomainError(f"{what} has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(g))))
    if np.max(np.abs(g - g.T)) > _SYM_TOL * scale:
        raise DomainError(f"{what} is not symmetric to tolerance {_SYM_TOL}")
    return 0.5 * (g + g.T)


@dataclass(frozen=True)
class RiemannianField:
    """Symmetric positive-definite coefficient field x -> g_ij(x).

    ``matrix_dx``, when supplied, returns the analytic derivatives
    ``dg[m, i, j] = d g_ij / d x^m``; otherwise central differences are used
    where derivatives are required.
    """

    matrix: Callable[[np.ndarray], np.ndarray]
    matrix_dx: Callable[[np.ndarray], np.ndarray] | None = None
    dim: int = 2

    def __call__(self, x) -> np.ndarray:
        return _check_sym_matrix(self.matrix(_pt(x, self.dim)), self.dim, "metric matrix")

    def derivative(self, x) -> np.ndarray:
        x = _pt(x, self.dim)
        if self.matrix_dx is not None:
            return np.asarray(self.matrix_dx(x), dtype=float)
        return _fd_derivative(self.__call__, x, (self.dim, self.dim))


@dataclass(frozen=True)
class CongestionField:
    """Congestion vector field x -> w(x) with optional analytic Jacobian.

    ``vector_dx`` returns ``dw[m, i] = d w^i / d x^m``.  ``probes`` are the
    field's natural validity sample points (grid nodes for sampled fields,
    the extremal ring for the vortex preset); ``build_randers`` checks the
    saturation bound there up front.
    """

    vector: Callable[[np.ndarray], np.ndarray]
    vector_dx: Callable[[np.ndarray], np.ndarray] | None = None
    probes: tuple[tuple[float, ...], ...] = ()
    dim: int = 2

    def __call__(self, x) -> np.ndarray:
        w = np.asarray(self.vector(_pt(x, self.dim)), dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"congestion vector has shape {w.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(w)):
            raise DomainError(f"congestion vector non-finite at {x}")
        return w

    def derivative(self, x) -> np.ndarray:
        x = _pt(x, self.dim)
        if self.vector_dx is not None:
            return np.asarray(self.vector_dx(x), dtype=float)
        return _fd_derivative(self.__call__, x, (self.dim,))


def _fd_derivative(fn, x: np.ndarray, value_shape: tuple, step_rel: float = COEFF_FD_STEP) -> np.ndarray:
    """Central-difference x-derivative of a coefficient map, derivative axis first."""
    n = x.shape[0]
    out = np.empty((n, *value_shape))
    for m in range(n):
        h = step_rel * max(1.0, abs(x[m]))
        e = np.zeros(n)
        e[m] = h
        out[m] = (np.asarray(fn(x + e), float) - np.asarray(fn(x - e), float)) / (2 * h)
    return out


@dataclass(frozen=True)
class RandersStructure:
    """Coefficient fields (a_ij, b_i) of F(x,y) = sqrt(a_ij y^i y^j) + b_i y^i.

    ``bundle(x)`` returns ``(a, b, da, db)``, derivative axis first, and is the
    only way the structure is evaluated; ``coefficients`` (which re-validates
    the schema) and ``coefficient_derivatives`` are views over it.  The raw
    dataclass represents arbitrary coefficient pairs so that
    ``validate_structure`` can report on invalid ones; the bundles attached by
    ``constant_randers`` and ``build_randers`` enforce validity.
    """

    bundle: Callable[[np.ndarray], tuple]
    dim: int = 2

    def coefficients(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = _pt(x, self.dim)
        a, b, _, _ = self.bundle(x)
        a = _check_sym_matrix(a, self.dim, "alpha matrix")
        b = np.asarray(b, dtype=float)
        if b.shape != (self.dim,):
            raise ValueError(f"beta has shape {b.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(b)):
            raise DomainError(f"beta non-finite at {x}")
        return a, b

    def coefficient_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(da, db) with da[m,i,j] = d a_ij/d x^m, db[m,i] = d b_i/d x^m."""
        _, _, da, db = self.bundle(_pt(x, self.dim))
        return np.asarray(da, dtype=float), np.asarray(db, dtype=float)


@dataclass(frozen=True)
class FundamentalTensor:
    """Direction-dependent metric g_ij(x, y) = half the fiber Hessian of F^2."""

    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


# ---------------------------------------------------------------------------
# Core evaluations
# ---------------------------------------------------------------------------

def norm_g(g: RiemannianField, x, y) -> float:
    """Riemannian norm sqrt(g_ij(x) y^i y^j); requires g(x) positive-definite."""
    mat = g(x)
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise DomainError(f"metric not positive-definite at {x}") from None
    y = _vec(y, "tangent components")
    return float(np.sqrt(max(y @ mat @ y, 0.0)))


def covector_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Norm of the covector b with respect to the inverse of a."""
    return float(np.sqrt(max(b @ np.linalg.solve(a, b), 0.0)))


def _raw_eval(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(max(y @ a @ y, 0.0)) + b @ y)


def randers_eval(F: RandersStructure, x, y) -> float:
    """Evaluate F(x, y).  Zero y returns 0; drift with ||b||_a >= 1 is a
    domain error (F would lose positivity)."""
    a, b = F.coefficients(x)
    nb = covector_norm(a, b)
    if nb >= 1.0:
        raise DomainError(f"invalid drift: ||b||_a = {nb:.6g} >= 1 at {_pt(x)}")
    y = _vec(y, "tangent components")
    return _raw_eval(a, b, y)


def build_randers(
    g: RiemannianField,
    omega: CongestionField,
    eps_cong: float = EPS_CONG,
    check_points: Sequence = (),
) -> RandersStructure:
    """Build the Randers structure induced by congestion ``omega`` over ``g``.

    Coefficients: lam = 1 - ||w||_g^2, a = g/lam^2, b = g w/lam, which gives
    ``||b||_a = ||w||_g``; their x-derivatives come from the chain rule, with
    central differences for a field lacking ``matrix_dx`` / ``vector_dx``.
    The saturation bound ``||w||_g <= 1 - eps_cong`` is verified up front at
    the field's probe points plus ``check_points``, and again lazily at every
    later coefficient evaluation; violations raise ``DomainError`` naming the
    offending point (nothing is clamped).
    """
    if g.dim != omega.dim:
        raise ValueError("metric and congestion field dimensions differ")
    if not 0 < eps_cong < 1:
        raise ValueError("eps_cong must lie in (0, 1)")

    def fields_at(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        mat = np.asarray(g.matrix(x), dtype=float)
        w = np.asarray(omega.vector(x), dtype=float)
        nw = float(np.sqrt(max(w @ mat @ w, 0.0)))
        if not nw < 1.0 - eps_cong:  # also trips on NaN
            raise DomainError(
                f"congestion saturated or non-finite: ||w||_g = {nw:.6g} "
                f"(bound {1 - eps_cong:.6g}) at {x}"
            )
        return mat, w, nw

    for p in (*omega.probes, *check_points):
        p = _pt(p, g.dim)
        _check_sym_matrix(g.matrix(p), g.dim, "metric matrix")
        omega(p)  # full schema validation at the probes
        fields_at(p)

    matrix_dx = g.matrix_dx if g.matrix_dx is not None else g.derivative
    vector_dx = omega.vector_dx if omega.vector_dx is not None else omega.derivative

    def bundle(x: np.ndarray) -> tuple:
        mat, w, nw = fields_at(x)
        lam = 1.0 - nw**2
        a = mat / lam**2
        gw = mat @ w
        b = gw / lam
        dmat = np.asarray(matrix_dx(x), dtype=float)
        dw = np.asarray(vector_dx(x), dtype=float)
        dmat_w = dmat @ w  # [m, i] = d_m g_ij w^j
        dlam = -(dmat_w @ w + 2.0 * (dw @ gw))
        da = dmat / lam**2 - (2.0 / lam**3) * dlam[:, None, None] * mat
        db = (dmat_w + dw @ mat) / lam - dlam[:, None] * gw / lam**2
        return a, b, da, db

    return RandersStructure(bundle=bundle, dim=g.dim)


def _fundamental_matrix(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form fiber Hessian of F^2/2 for coefficients (a, b) at y != 0."""
    al = np.sqrt(y @ a @ y)
    if al == 0.0:
        raise DomainError("fundamental tensor undefined at y = 0")
    ell = (a @ y) / al
    Fv = al + b @ y
    lb = ell + b
    return (Fv / al) * (a - ell[:, None] * ell) + lb[:, None] * lb


def fundamental_tensor(
    F: RandersStructure,
    x,
    y,
    mode: str = "analytic",
    step_rel: float = HESSIAN_FD_STEP,
) -> FundamentalTensor:
    """g_ij(x, y) = half the fiber Hessian of F^2 at (x, y), y != 0.

    ``mode="analytic"`` uses the closed-form Randers Hessian;
    ``mode="finite_difference"`` applies central second differences to F^2
    with step ``step_rel * ||y||`` and serves as the independent cross-check.
    """
    a, b = F.coefficients(x)
    y = _vec(y, "tangent components")
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        raise DomainError("fundamental tensor undefined at y = 0")
    if mode == "analytic":
        return FundamentalTensor(_fundamental_matrix(a, b, y))
    if mode != "finite_difference":
        raise ValueError(f"unknown mode {mode!r}")

    def fsq(v: np.ndarray) -> float:
        return _raw_eval(a, b, v) ** 2

    n = y.shape[0]
    h = step_rel * ny
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
    return FundamentalTensor(0.5 * mat)


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

HOMOGENEITY_SCALES = (0.5, 2.0, 10.0)
HOMOGENEITY_RTOL = 1e-10


@dataclass(frozen=True)
class SampleCheck:
    x: tuple[float, ...]
    y: tuple[float, ...]
    value: float
    positive: bool
    homogeneity_error: float
    homogeneous: bool
    drift_norm: float
    drift_valid: bool
    tensor_det: float
    det_nonzero: bool
    positive_definite: bool

    @property
    def ok(self) -> bool:
        return (
            self.positive
            and self.homogeneous
            and self.drift_valid
            and self.det_nonzero
            and self.positive_definite
        )


@dataclass(frozen=True)
class StructureValidation:
    checks: tuple[SampleCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[SampleCheck]:
        return [c for c in self.checks if not c.ok]


def validate_structure(F: RandersStructure, samples: Sequence) -> StructureValidation:
    """Per-sample report: positivity, degree-one homogeneity, drift validity,
    nonzero tensor determinant, positive-definiteness.  Report-only: invalid
    structures produce failing checks rather than exceptions."""
    if len(samples) == 0:
        raise ValueError("sample list must be nonempty")
    checks = []
    for x, y in samples:
        a, b = F.coefficients(x)
        y = _vec(y, "tangent components")
        if np.linalg.norm(y) == 0.0:
            raise ValueError("samples must use nonzero tangent vectors")
        val = _raw_eval(a, b, y)
        hom_err = 0.0
        for lam in HOMOGENEITY_SCALES:
            scaled = _raw_eval(a, b, lam * y)
            hom_err = max(hom_err, abs(scaled - lam * val) / max(abs(lam * val), 1e-300))
        try:
            drift = covector_norm(a, b)
        except np.linalg.LinAlgError:
            drift = float("inf")
        try:
            tensor = _fundamental_matrix(a, b, y)
            det = float(np.linalg.det(tensor))
            eigs = np.linalg.eigvalsh(tensor)
            pd = bool(np.all(eigs > 0.0))
        except (DomainError, np.linalg.LinAlgError):
            det, pd = 0.0, False
        checks.append(
            SampleCheck(
                x=tuple(_pt(x, F.dim)),
                y=tuple(y),
                value=val,
                positive=val > 0.0,
                homogeneity_error=hom_err,
                homogeneous=hom_err <= HOMOGENEITY_RTOL,
                drift_norm=drift,
                drift_valid=drift < 1.0,
                tensor_det=det,
                det_nonzero=abs(det) > 1e-300,
                positive_definite=pd,
            )
        )
    return StructureValidation(checks=tuple(checks))


# ---------------------------------------------------------------------------
# Constructors and presets
# ---------------------------------------------------------------------------

def euclidean_metric(dim: int = 2) -> RiemannianField:
    eye = np.eye(dim)
    zeros = np.zeros((dim, dim, dim))
    return RiemannianField(matrix=lambda x: eye, matrix_dx=lambda x: zeros, dim=dim)


def constant_metric(matrix) -> RiemannianField:
    mat = _check_sym_matrix(np.asarray(matrix, dtype=float), len(matrix), "metric matrix")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise DomainError("constant metric must be positive-definite") from None
    dim = mat.shape[0]
    zeros = np.zeros((dim, dim, dim))
    return RiemannianField(matrix=lambda x: mat, matrix_dx=lambda x: zeros, dim=dim)


def constant_randers(a, b) -> RandersStructure:
    """Position-independent structure; rejects drift with ||b||_a >= 1."""
    a = _check_sym_matrix(np.asarray(a, dtype=float), len(a), "alpha matrix")
    b = _vec(np.asarray(b, dtype=float), "beta")
    if b.shape[0] != a.shape[0]:
        raise ValueError("alpha/beta dimension mismatch")
    nb = covector_norm(a, b)
    if nb >= 1.0:
        raise DomainError(f"invalid drift: ||b||_a = {nb:.6g} >= 1")
    dim = a.shape[0]
    packed = (a, b, np.zeros((dim, dim, dim)), np.zeros((dim, dim)))
    return RandersStructure(bundle=lambda x: packed, dim=dim)


def euclidean_randers(dim: int = 2) -> RandersStructure:
    return constant_randers(np.eye(dim), np.zeros(dim))


def congestion_none(dim: int = 2) -> CongestionField:
    zero = np.zeros(dim)
    zero_dx = np.zeros((dim, dim))
    return CongestionField(
        vector=lambda x: zero,
        vector_dx=lambda x: zero_dx,
        probes=(tuple(np.zeros(dim)),),
        dim=dim,
    )


def congestion_uniform(wx: float, wy: float) -> CongestionField:
    w = np.array([float(wx), float(wy)])
    zero_dx = np.zeros((2, 2))
    return CongestionField(
        vector=lambda x: w,
        vector_dx=lambda x: zero_dx,
        probes=((0.0, 0.0),),
        dim=2,
    )


def congestion_vortex(cx: float, cy: float, strength: float) -> CongestionField:
    """Gaussian-damped rigid swirl about (cx, cy).

    w(p) = strength * exp((1 - r^2)/2) * rot90(p - c) with r = |p - c|, so
    |w| = strength * r * exp((1 - r^2)/2) peaks at exactly |strength| on the
    unit ring around the center.
    """
    c = np.array([float(cx), float(cy)])
    s = float(strength)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])

    def vector(x: np.ndarray) -> np.ndarray:
        u = x - c
        return s * np.exp((1.0 - u @ u) / 2.0) * (rot @ u)

    def vector_dx(x: np.ndarray) -> np.ndarray:
        u = x - c
        env = s * np.exp((1.0 - u @ u) / 2.0)
        ru = rot @ u
        # dw[m, i] = env * (-u_m * ru_i + rot[i, m])
        return env * (-np.outer(u, ru) + rot.T)

    ring = [(cx + math.cos(t), cy + math.sin(t)) for t in np.linspace(0.0, 2 * math.pi, 8, endpoint=False)]
    return CongestionField(vector=vector, vector_dx=vector_dx, probes=tuple(ring), dim=2)


def _hermite_basis(t: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Cubic Hermite basis on a cell of width h and its derivative along the axis.

    ``t`` is the position scaled to [0, 1].  Order: value at 0, value at 1,
    slope at 0, slope at 1.
    """
    t2 = t * t
    t3 = t2 * t
    basis = np.array([2 * t3 - 3 * t2 + 1, 3 * t2 - 2 * t3, h * (t3 - 2 * t2 + t), h * (t3 - t2)])
    slope = np.array([(6 * t2 - 6 * t) / h, (6 * t - 6 * t2) / h, 3 * t2 - 4 * t + 1, 3 * t2 - 2 * t])
    return basis, slope


def grid_congestion(xs, ys, vectors) -> CongestionField:
    """C1 cubic Hermite interpolation of vectors sampled on a rectangular grid.

    ``vectors`` has shape (len(xs), len(ys), 2).  Each cell is a tensor-product
    cubic Hermite patch whose nodal slopes w_x, w_y and w_xy are second-order
    differences (``np.gradient`` over the possibly non-uniform axes; first
    order on an axis with only two samples).  On uniform axes this is
    Catmull-Rom / Keys (1981) cubic convolution.  Patches share values and
    first derivatives on cell edges, so the field is C1 and the per-cell
    polynomials supply its exact derivative; nodal samples and linear fields
    are reproduced exactly.  Values between nodes may exceed the largest
    nodal magnitude; saturation is still checked at every evaluation and
    never clamped, so such an overshoot raises ``DomainError``.  Evaluation
    outside the grid rectangle is a domain error.  All grid samples become
    validity probes.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or len(xs) < 2 or len(ys) < 2:
        raise ValueError("grid needs at least two strictly increasing samples per axis")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("grid coordinates must be strictly increasing")
    if vectors.shape != (len(xs), len(ys), 2):
        raise ValueError(f"vectors must have shape ({len(xs)},{len(ys)},2), got {vectors.shape}")
    if not np.all(np.isfinite(vectors)):
        raise DomainError("grid congestion samples must be finite")

    def slopes(f: np.ndarray, axis: int, coords: np.ndarray) -> np.ndarray:
        return np.gradient(f, coords, axis=axis, edge_order=2 if len(coords) > 2 else 1)

    wx = slopes(vectors, 0, xs)
    wy = slopes(vectors, 1, ys)
    wxy = slopes(wx, 1, ys)
    # nodal[kx, i, ky, j] = d^(kx+ky) w / dx^kx dy^ky at node (i, j), so that a
    # cell's 2x2 corner block reshapes to its (4, 4, 2) Hermite coefficients
    nodal = np.ascontiguousarray(np.array([[vectors, wy], [wx, wxy]]).transpose(0, 2, 1, 3, 4))

    def patch(x: np.ndarray):
        px, py = x
        if not (xs[0] <= px <= xs[-1] and ys[0] <= py <= ys[-1]):
            raise DomainError(f"point {tuple(x)} outside congestion grid "
                              f"[{xs[0]},{xs[-1]}]x[{ys[0]},{ys[-1]}]")
        i = min(max(int(np.searchsorted(xs, px) - 1), 0), len(xs) - 2)
        j = min(max(int(np.searchsorted(ys, py) - 1), 0), len(ys) - 2)
        dx = xs[i + 1] - xs[i]
        dy = ys[j + 1] - ys[j]
        bx, sx = _hermite_basis((px - xs[i]) / dx, dx)
        by, sy = _hermite_basis((py - ys[j]) / dy, dy)
        return nodal[:, i:i + 2, :, j:j + 2].reshape(4, 4, 2), bx, sx, by, sy

    def vector(x: np.ndarray) -> np.ndarray:
        coef, bx, _, by, _ = patch(x)
        return bx @ (by @ coef)

    def vector_dx(x: np.ndarray) -> np.ndarray:
        coef, bx, sx, by, sy = patch(x)
        return np.stack([sx @ (by @ coef), bx @ (sy @ coef)])

    probes = tuple((float(px), float(py)) for px in xs for py in ys)
    return CongestionField(vector=vector, vector_dx=vector_dx, probes=probes, dim=2)


def parse_congestion_spec(spec: str) -> CongestionField:
    """Parse a preset string: ``none``, ``uniform(wx,wy)``, ``vortex(cx,cy,strength)``."""
    name, args = parse_call(spec, "congestion preset")
    if name == "none":
        if args:
            raise ValueError("preset 'none' takes no arguments")
        return congestion_none()
    if name == "uniform":
        if len(args) != 2:
            raise ValueError("preset 'uniform' takes exactly (wx, wy)")
        return congestion_uniform(*args)
    if name == "vortex":
        if len(args) != 3:
            raise ValueError("preset 'vortex' takes exactly (cx, cy, strength)")
        return congestion_vortex(*args)
    raise ValueError(f"unknown congestion preset {name!r}")
