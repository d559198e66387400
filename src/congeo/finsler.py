"""Planar Randers geometry driven by congestion vector fields.

A Randers structure assigns each point ``x`` and direction ``y`` the travel
cost ``F(x, y) = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i``: a Riemannian norm plus
a drift one-form whose alpha-norm stays below one.  A congestion field ``w``
with ``||w||_g < 1`` over a Riemannian base ``g`` induces such a structure via

    lam = 1 - ||w||_g^2,    a_ij = g_ij / lam^2,    b_j = g_ij w^i / lam,

so travel against the congestion costs more than travel with it.  This module
builds those structures and evaluates F and its fundamental tensor.  The
constructors enforce the conditions under which F is positive, 1-homogeneous
and strongly convex: a positive-definite ``a`` (or ``g``) and a drift with
``||b||_a < 1`` (``||w||_g <= 1 - eps_cong`` for a built structure).

Derivative-array convention: the derivative axis comes first (right after
the batch axis of a batched evaluation), i.e. ``dg[m, i, j] = d g_ij / d x^m``
and ``dw[m, i] = d w^i / d x^m``.

Field contract: each coefficient field is one callable, its *jet*, which
maps a batch of points ``x`` of shape ``(B, dim)`` to its value and its
x-derivative together, stacked along the same leading axis:
``RiemannianField.jet`` gives ``(g, dg)`` of shapes ``(B, dim, dim)`` and
``(B, dim, dim, dim)``, ``CongestionField.jet`` gives ``(w, dw)`` of shapes
``(B, dim)`` and ``(B, dim, dim)``, and ``RandersStructure.bundle`` gives
``(a, b, da, db)``.  Results that broadcast to those shapes, such as
constants, are accepted.  Each field supplies its derivative in closed
form, with its value.  Index point components as ``x[..., i]``:
a callable written for one point (``x[0]``) reads the first *point* of a
batch and gives a wrong answer at B = 2 without raising an error.  The
public one-point methods (``field(x)``, ``F.coefficients(x)``, ...) still
take a single point; they evaluate it as a batch of one.

Over the Euclidean plane (``euclidean_metric(2)``), the structure that
``build_randers`` makes carries a ``spray``: the geodesic acceleration of
L = F^2/2 in closed form, from one congestion jet call and elementwise
arithmetic on the two components.  It agrees with the general derivation
of ``geodesic.Lagrangian`` from ``bundle`` to round-off and costs roughly
half as much; every other structure takes that general path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._common import parse_call

__all__ = [
    "DomainError",
    "RiemannianField",
    "CongestionField",
    "RandersStructure",
    "covector_norm",
    "randers_eval",
    "build_randers",
    "fundamental_tensor",
    "constant_randers",
    "euclidean_metric",
    "euclidean_randers",
    "congestion_none",
    "congestion_uniform",
    "congestion_vortex",
    "grid_congestion",
    "parse_congestion_spec",
]

# Default saturation margin: reject congestion with ||w||_g > 1 - EPS_CONG.
EPS_CONG = 1e-3

_SYM_TOL = 1e-12


class DomainError(ValueError):
    """Geometric validity violation: a metric that is not positive-definite,
    saturated congestion, drift with ||b||_a >= 1, zero fiber vector, or
    evaluation outside a field's domain."""


def _vec(y, name="vector") -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite components: {arr}")
    return arr


def _pt(x, dim=None) -> np.ndarray:
    arr = _vec(x, "point")
    if dim is not None and arr.shape != (dim,):
        raise ValueError(f"point has dimension {arr.shape[0]}, expected {dim}")
    return arr


def _point_rows(points, dim: int) -> np.ndarray:
    """Finite points as a (k, dim) array; an empty sequence gives k = 0."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return np.empty((0, dim))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"points must have shape (k, {dim}), got {arr.shape}")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise DomainError(f"point has non-finite components: {arr[bad.argmax()]}")
    return arr


def _points(x, dim: int) -> tuple[np.ndarray, bool]:
    """A point or a (B, dim) batch of them as a batch, plus whether it was one point."""
    if np.ndim(x) == 1:
        return _pt(x, dim)[None], True
    return _point_rows(x, dim), False


def _batch(values, shape: tuple, what: str) -> np.ndarray:
    """A field callable's result broadcast to the batch shape it must have."""
    values = np.asarray(values, dtype=float)
    if values.shape == shape:
        return values
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(f"{what} has shape {values.shape}, expected {shape}") from None


_sum = np.add.reduce  # ndarray.sum without its Python-level wrapper


def _mv(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product ``a_ij y_j`` over leading axes.

    Elementwise products and a sum over the last axis, so each row of a batch
    is computed exactly as it would be alone (no BLAS, no fused multiply-add).
    """
    return _sum(a * y[..., None, :], axis=-1)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched inner product ``u_i v_i`` over leading axes, as in ``_mv``."""
    return _sum(u * v, axis=-1)


def _check_sym_matrix(g: np.ndarray, dim: int, what: str) -> np.ndarray:
    """Symmetrized copy of a (..., dim, dim) stack of finite, symmetric matrices."""
    g = np.asarray(g, dtype=float)
    if g.shape[-2:] != (dim, dim):
        raise ValueError(f"{what} must have shape ({dim},{dim}), got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise DomainError(f"{what} has non-finite entries")
    gt = np.swapaxes(g, -1, -2)
    scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
    if np.any(np.abs(g - gt).max(axis=(-2, -1)) > _SYM_TOL * scale):
        raise DomainError(f"{what} is not symmetric to tolerance {_SYM_TOL}")
    return 0.5 * (g + gt)


def _indefinite(g: np.ndarray) -> np.ndarray:
    """Whether each of a (..., dim, dim) stack of symmetric matrices fails to
    be positive-definite (its smallest eigenvalue is not positive)."""
    return ~(np.linalg.eigvalsh(g)[..., 0] > 0.0)


@dataclass(frozen=True)
class RiemannianField:
    """Symmetric positive-definite coefficient field x -> g_ij(x).

    ``jet`` maps a (B, dim) batch of points to ``(g, dg)``: the metrics, shape
    (B, dim, dim), and their derivatives ``dg[b, m, i, j] = d g_ij / d x^m``
    at point b (see the module's field contract).  Calling the field gives
    the checked metric (shape, finiteness, symmetry, positive-definiteness;
    a failure names the first offending point) and ``derivative`` the
    derivative, each at a point or a batch.
    """

    jet: Callable[[np.ndarray], tuple]
    dim: int = 2

    def __call__(self, x) -> np.ndarray:
        pts, single = _points(x, self.dim)
        mat = _batch(self.jet(pts)[0], (len(pts), self.dim, self.dim), "metric matrix")
        mat = _check_sym_matrix(mat, self.dim, "metric matrix")
        bad = _indefinite(mat)
        if bad.any():
            raise DomainError(f"metric matrix not positive-definite at {pts[bad.argmax()]}")
        return mat[0] if single else mat

    def derivative(self, x) -> np.ndarray:
        pts, single = _points(x, self.dim)
        d = _batch(self.jet(pts)[1], (len(pts),) + (self.dim,) * 3, "metric derivative")
        return d[0] if single else d


@dataclass(frozen=True)
class CongestionField:
    """Congestion vector field x -> w(x).

    ``jet`` maps a (B, dim) batch of points to ``(w, dw)``: the vectors, shape
    (B, dim), and their Jacobians ``dw[b, m, i] = d w^i / d x^m`` at point b
    (see the module's field contract).  ``probes`` are the field's natural
    validity sample points (grid nodes for sampled fields, the extremal ring
    for the vortex preset); ``build_randers`` checks the saturation bound
    there up front.  Calling the field gives the schema-checked vector and
    ``derivative`` the Jacobian, each at a point or a batch.
    """

    jet: Callable[[np.ndarray], tuple]
    probes: tuple[tuple[float, ...], ...] = ()
    dim: int = 2

    def __call__(self, x) -> np.ndarray:
        pts, single = _points(x, self.dim)
        w = _batch(self.jet(pts)[0], pts.shape, "congestion vector")
        bad = ~np.isfinite(w).all(axis=1)
        if bad.any():
            raise DomainError(f"congestion vector non-finite at {pts[bad.argmax()]}")
        return w[0].copy() if single else w.copy()

    def derivative(self, x) -> np.ndarray:
        pts, single = _points(x, self.dim)
        d = _batch(self.jet(pts)[1], (len(pts), self.dim, self.dim), "congestion derivative")
        return d[0] if single else d


@dataclass(frozen=True)
class RandersStructure:
    """Coefficient fields (a_ij, b_i) of F(x,y) = sqrt(a_ij y^i y^j) + b_i y^i.

    ``bundle(x)`` maps a (B, dim) batch of points to ``(a, b, da, db)`` of
    shapes (B, dim, dim), (B, dim), (B, dim, dim, dim) and (B, dim, dim), the
    derivative axis right after the batch axis (or anything broadcasting to
    those shapes, such as constants).  ``coefficients`` (which re-validates
    the schema) and ``coefficient_derivatives`` are one-point views over it.
    The raw dataclass checks nothing; build structures with
    ``constant_randers`` or ``build_randers``, which enforce validity up
    front (and ``build_randers`` again at every evaluation).  Evaluations
    of F re-check the drift bound.

    ``spray``, when set, maps a (B, dim) batch of states (x, y) to their
    geodesic accelerations, which ``geodesic.Lagrangian`` otherwise derives
    from ``bundle``.  ``build_randers`` sets it over ``euclidean_metric(2)``;
    it evaluates the congestion field's jet, not ``bundle``, so a copy made
    with ``dataclasses.replace(F, bundle=...)`` keeps accelerating as F does.
    """

    bundle: Callable[[np.ndarray], tuple]
    dim: int = 2
    spray: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def coefficients(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = _pt(x, self.dim)
        a, b, _, _ = self.bundle(x[None])
        a = _check_sym_matrix(_batch(a, (1, self.dim, self.dim), "alpha matrix")[0], self.dim, "alpha matrix")
        b = _batch(b, (1, self.dim), "beta")[0]
        if not np.all(np.isfinite(b)):
            raise DomainError(f"beta non-finite at {x}")
        return a, b

    def coefficient_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(da, db) with da[m,i,j] = d a_ij/d x^m, db[m,i] = d b_i/d x^m."""
        _, _, da, db = self.bundle(_pt(x, self.dim)[None])
        dim = self.dim
        return _batch(da, (1, dim, dim, dim), "alpha derivative")[0], _batch(db, (1, dim, dim), "beta derivative")[0]


# ---------------------------------------------------------------------------
# Core evaluations
# ---------------------------------------------------------------------------

def _covector_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Norm of the covector b with respect to the inverse of a, over leading axes."""
    return np.sqrt(np.maximum(_dot(b, np.linalg.solve(a, b[..., None])[..., 0]), 0.0))


def covector_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Norm of the covector b with respect to the inverse of a."""
    return float(_covector_norms(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def _raw_eval(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sqrt(a_ij y^i y^j) + b_i y^i over leading axes (no validity checks)."""
    return np.sqrt(np.maximum(_dot(y, _mv(a, y)), 0.0)) + _dot(b, y)


def randers_eval(F: RandersStructure, x, y) -> float:
    """Evaluate F(x, y).  Zero y returns 0; drift with ||b||_a >= 1 is a
    domain error (F would lose positivity)."""
    a, b = F.coefficients(x)
    nb = covector_norm(a, b)
    if not nb < 1.0:
        raise DomainError(f"invalid drift: ||b||_a = {nb:.6g} >= 1 at {_pt(x)}")
    y = _vec(y, "tangent components")
    return float(_raw_eval(a, b, y))


def _speeds(F: RandersStructure, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F(x_k, y_k) for a (B, dim) batch of states from one ``bundle`` call;
    drift with ||b||_a >= 1 is a domain error naming the first such point."""
    a, b, _, _ = F.bundle(x)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nb = np.broadcast_to(_covector_norms(a, b), x.shape[:-1])
    bad = ~(nb < 1.0)
    if bad.any():
        k = int(bad.argmax())
        raise DomainError(f"invalid drift: ||b||_a = {nb[k]:.6g} >= 1 at {x[k]}")
    return _raw_eval(a, b, y)


def build_randers(
    g: RiemannianField,
    omega: CongestionField,
    eps_cong: float = EPS_CONG,
    check_points: Sequence = (),
) -> RandersStructure:
    """Build the Randers structure induced by congestion ``omega`` over ``g``.

    Coefficients: lam = 1 - ||w||_g^2, a = g/lam^2, b = g w/lam, which gives
    ``||b||_a = ||w||_g``; their x-derivatives come from the chain rule over
    one ``jet`` call per field.
    The saturation bound ``||w||_g <= 1 - eps_cong`` and a positive-definite
    ``g`` are verified up front at the field's probe points plus
    ``check_points`` (one batched evaluation), and the bound again lazily at
    every later coefficient evaluation (and every ``spray`` evaluation, set
    when ``g`` is ``euclidean_metric(2)``); violations raise ``DomainError``
    naming the first offending point (nothing is clamped).
    """
    if g.dim != omega.dim:
        raise ValueError("metric and congestion field dimensions differ")
    if not 0 < eps_cong < 1:
        raise ValueError("eps_cong must lie in (0, 1)")
    dim = g.dim
    bound = 1.0 - eps_cong

    def saturation(x: np.ndarray, w: np.ndarray, gw: np.ndarray) -> np.ndarray:
        """||w||_g at each point, from w and g w; raises at the first saturated one."""
        nw = np.sqrt(np.maximum(_dot(w, gw), 0.0))
        bad = ~(nw < bound)  # also trips on NaN
        if bad.any():
            k = int(bad.argmax())
            raise DomainError(
                f"congestion saturated or non-finite: ||w||_g = {nw[k]:.6g} "
                f"(bound {bound:.6g}) at {x[k]}"
            )
        return nw

    def check(x: np.ndarray) -> None:
        """Schema (metric shape, symmetry, finiteness, positive-definiteness;
        congestion shape, finiteness) and saturation at a batch of points."""
        w = omega(x)
        saturation(x, w, _mv(g(x), w))

    points = np.concatenate([_point_rows(omega.probes, dim), _point_rows(check_points, dim)])
    try:
        if len(points):
            check(points)
    except DomainError:
        # name the first offending point in order: a field that raises for
        # the whole batch (a grid left by one point) may have named another
        for k in range(len(points)):
            check(points[k:k + 1])
        raise

    def bundle(x: np.ndarray) -> tuple:
        mat, dmat, w, dw = (np.asarray(t, dtype=float) for t in (*g.jet(x), *omega.jet(x)))
        if w.shape != x.shape:  # a constant field
            w = np.broadcast_to(w, x.shape)
        gw = _mv(mat, w)
        nw = saturation(x, w, gw)
        lam = 1.0 - nw**2
        lam2 = (lam**2)[:, None, None]
        a = mat / lam2
        b = gw / lam[:, None]
        dmat_w = _mv(dmat, w[:, None, :])  # [b, m, i] = d_m g_ij w^j
        dlam = -(_dot(dmat_w, w[:, None, :]) + 2.0 * _dot(dw, gw[:, None, :]))
        da = dmat / lam2[..., None] - ((2.0 / lam**3)[:, None] * dlam)[:, :, None, None] * mat[..., None, :, :]
        dw_mat = _sum(dw[..., :, :, None] * mat[..., None, :, :], axis=-2)  # [b, m, i] = d_m w^k g_ki
        db = (dmat_w + dw_mat) / lam[:, None, None] - dlam[:, :, None] * gw[:, None, :] / lam2
        return a, b, da, db

    if g is not _EUCLIDEAN_PLANE:
        return RandersStructure(bundle=bundle, dim=dim)

    def spray(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Geodesic acceleration of L = F^2/2 at a (B, 2) batch of states.

        Over g = I: s = |y|, u = y/s, ell = (u + w)/lam (so L_i = F ell_i),
        F = (s + w.y)/lam, d_m lam = -2 d_m w^k w^k,
        d_m F = (d_m w^i y^i - F d_m lam)/lam and the right-hand side
        F (dF - (y^m d_m w - (dlam.y) ell)/lam) - ell (dF.y), solved against
        the fundamental tensor F/(s lam) u_perp u_perp^T + ell ell^T with
        u_perp = (-u_1, u_0).
        """
        w, dw = (np.asarray(t, dtype=float) for t in omega.jet(x))
        if w.shape != x.shape:  # a constant field
            w = np.broadcast_to(w, x.shape)
        lam = 1.0 - saturation(x, w, w) ** 2
        y0, y1 = y[:, 0], y[:, 1]
        s = np.sqrt(y0 * y0 + y1 * y1)
        if not np.all(s):
            raise DomainError("Lagrangian fiber derivatives undefined at y = 0")
        w0, w1 = w[:, 0], w[:, 1]
        d00, d01, d10, d11 = dw[..., 0, 0], dw[..., 0, 1], dw[..., 1, 0], dw[..., 1, 1]
        u0, u1 = y0 / s, y1 / s
        l0, l1 = (u0 + w0) / lam, (u1 + w1) / lam
        Fv = (s + (w0 * y0 + w1 * y1)) / lam
        dl0 = -2.0 * (d00 * w0 + d01 * w1)
        dl1 = -2.0 * (d10 * w0 + d11 * w1)
        dF0 = (d00 * y0 + d01 * y1 - Fv * dl0) / lam
        dF1 = (d10 * y0 + d11 * y1 - Fv * dl1) / lam
        dl_y = dl0 * y0 + dl1 * y1
        dF_y = dF0 * y0 + dF1 * y1
        r0 = Fv * (dF0 - (y0 * d00 + y1 * d10 - dl_y * l0) / lam) - l0 * dF_y
        r1 = Fv * (dF1 - (y0 * d01 + y1 * d11 - dl_y * l1) / lam) - l1 * dF_y
        c = Fv / (s * lam)
        t01 = l0 * l1 - c * u0 * u1
        return _cramer(c * u1 * u1 + l0 * l0, t01, t01, c * u0 * u0 + l1 * l1, r0, r1, x)

    return RandersStructure(bundle=bundle, dim=dim, spray=spray)


def _fiber(a: np.ndarray, b: np.ndarray, y: np.ndarray, what: str) -> tuple:
    """Fiber quantities at directions y != 0 over leading axes: alpha,
    ell = a y / alpha, F, ell + b, and the closed-form fiber Hessian of F^2/2
    (the fundamental tensor).  ``what`` names the quantity in the y = 0 error."""
    ay = _mv(a, y)
    al = np.sqrt(np.maximum(_dot(ay, y), 0.0))
    if not np.all(al):
        raise DomainError(f"{what} undefined at y = 0")
    ell = ay / al[..., None]
    Fv = al + _dot(b, y)
    lb = ell + b
    outer = ell[..., :, None] * ell[..., None, :]
    tensor = (Fv / al)[..., None, None] * (a - outer) + lb[..., :, None] * lb[..., None, :]
    return al, ell, Fv, lb, tensor


def _cramer(t00, t01, t10, t11, r0, r1, x: np.ndarray) -> np.ndarray:
    """Cramer's rule for a batch of 2 x 2 fundamental-tensor systems
    [[t00, t01], [t10, t11]] acc = (r0, r1), entries of shape (B,); a
    singular one is a domain error naming its point in the (B, 2) ``x``."""
    det = t00 * t11 - t01 * t10
    singular = det == 0.0
    if singular.any():
        raise DomainError(f"singular fiber Hessian at x={tuple(map(float, x[singular.argmax()]))}")
    acc = np.empty(x.shape)
    acc[:, 0] = (t11 * r0 - t01 * r1) / det
    acc[:, 1] = (t00 * r1 - t10 * r0) / det
    return acc


def fundamental_tensor(F: RandersStructure, x, y) -> np.ndarray:
    """g_ij(x, y) = half the fiber Hessian of F^2 at (x, y), y != 0, in the
    closed Randers form: a (dim, dim) array."""
    a, b = F.coefficients(x)
    y = _vec(y, "tangent components")
    return _fiber(a, b, y, "fundamental tensor")[-1]


# ---------------------------------------------------------------------------
# Constructors and presets
# ---------------------------------------------------------------------------

def euclidean_metric(dim: int = 2) -> RiemannianField:
    """The Euclidean metric; in the plane always the same instance, over
    which ``build_randers`` gives its structures a closed-form ``spray``."""
    return _EUCLIDEAN_PLANE if dim == 2 else constant_metric(np.eye(dim))


def constant_metric(matrix) -> RiemannianField:
    mat = _check_sym_matrix(np.asarray(matrix, dtype=float), len(matrix), "metric matrix")
    if _indefinite(mat):
        raise DomainError("constant metric must be positive-definite")
    dim = mat.shape[0]
    packed = (mat, np.zeros((dim, dim, dim)))
    for t in packed:  # shared by every evaluation (and every user of _EUCLIDEAN_PLANE)
        t.setflags(write=False)
    return RiemannianField(jet=lambda x: packed, dim=dim)


_EUCLIDEAN_PLANE = constant_metric(np.eye(2))


def constant_randers(a, b) -> RandersStructure:
    """Position-independent structure; rejects an alpha matrix that is not
    positive-definite and drift with ||b||_a >= 1."""
    a = _check_sym_matrix(np.asarray(a, dtype=float), len(a), "alpha matrix")
    if _indefinite(a):
        raise DomainError("alpha matrix must be positive-definite")
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
    packed = (np.zeros(dim), np.zeros((dim, dim)))
    return CongestionField(jet=lambda x: packed, probes=(tuple(np.zeros(dim)),), dim=dim)


def congestion_uniform(wx: float, wy: float) -> CongestionField:
    packed = (np.array([float(wx), float(wy)]), np.zeros((2, 2)))
    return CongestionField(jet=lambda x: packed, probes=((0.0, 0.0),), dim=2)


_ROT_SIGNS = np.array([-1.0, 1.0])


def congestion_vortex(cx: float, cy: float, strength: float) -> CongestionField:
    """Gaussian-damped rigid swirl about (cx, cy).

    w(p) = strength * exp((1 - r^2)/2) * rot90(p - c) with r = |p - c|, so
    |w| = strength * r * exp((1 - r^2)/2) peaks at exactly |strength| on the
    unit ring around the center.
    """
    c = np.array([float(cx), float(cy)])
    s = float(strength)
    rot_t = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rot90 transposed: rot_t[m, i] = rot[i, m]

    def swirl(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = x - c
        env = s * np.exp((1.0 - _dot(u, u)) / 2.0)
        ru = u[..., ::-1] * _ROT_SIGNS  # rot90 @ u = (-u_1, u_0)
        # dw[m, i] = env * (-u_m * ru_i + rot[i, m])
        return env[..., None] * ru, env[..., None, None] * (rot_t - u[..., :, None] * ru[..., None, :])

    ring = [(cx + math.cos(t), cy + math.sin(t)) for t in np.linspace(0.0, 2 * math.pi, 8, endpoint=False)]
    return CongestionField(jet=swirl, probes=tuple(ring), dim=2)


# Cubic Hermite basis on [0, 1] as polynomial coefficients: _HERMITE[p, k] is
# the t^p coefficient of basis function k (value at 0, value at 1, slope at 0,
# slope at 1); _HERMITE_DT holds those of its derivative in t.
_HERMITE = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [-3.0, 3.0, -2.0, -1.0], [2.0, -2.0, 1.0, 1.0]])
_HERMITE_DT = _HERMITE[1:] * np.array([1.0, 2.0, 3.0])[:, None]
_SLOPE_POWERS = np.array([0.0, 0.0, 1.0, 1.0])


def _hermite_basis(t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Cubic Hermite basis on cells of width h, and its derivative along the axis.

    ``t`` holds positions scaled to [0, 1], any shape; the result has two more
    axes: [..., 0, k] is basis function k and [..., 1, k] its derivative, k
    ordered value at 0, value at 1, slope at 0, slope at 1 (the slope
    functions scale with h).
    """
    t = t[..., None]
    scale = h[..., None] ** _SLOPE_POWERS  # 1, 1, h, h
    basis = ((_HERMITE[3] * t + _HERMITE[2]) * t + _HERMITE[1]) * t + _HERMITE[0]
    slope = (_HERMITE_DT[2] * t + _HERMITE_DT[1]) * t + _HERMITE_DT[0]
    out = np.empty(t.shape[:-1] + (2, 4))
    out[..., 0, :] = basis * scale
    out[..., 1, :] = slope * (scale / h[..., None])
    return out


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
    # nodal[kx, i, ky, j] = d^(kx+ky) w / dx^kx dy^ky at node (i, j); cells[i, j]
    # gathers cell (i, j)'s corners as its (4, 4, 2) Hermite coefficients, each
    # axis ordered value at 0, value at 1, slope at 0, slope at 1
    nodal = np.array([[vectors, wy], [wx, wxy]]).transpose(0, 2, 1, 3, 4)
    corners = np.lib.stride_tricks.sliding_window_view(nodal, (2, 2), axis=(1, 3))  # [kx, i, ky, j, c, di, dj]
    cells = np.ascontiguousarray(corners.transpose(1, 3, 0, 5, 2, 6, 4)).reshape(len(xs) - 1, len(ys) - 1, 4, 4, 2)
    hx, hy = np.diff(xs), np.diff(ys)
    lo, hi = np.array([xs[0], ys[0]]), np.array([xs[-1], ys[-1]])

    def patch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value and Jacobian at each point from its cell's Hermite patch."""
        inside = np.logical_and.reduce((lo <= x) & (x <= hi), axis=-1)  # NaN is outside too
        if not inside.all():
            k = int(inside.argmin())
            raise DomainError(f"point {tuple(map(float, x[k]))} outside congestion grid "
                              f"[{xs[0]},{xs[-1]}]x[{ys[0]},{ys[-1]}]")
        # the cell whose right edge is the first node >= p; a point on the
        # left boundary belongs to the first cell
        i = np.maximum(np.searchsorted(xs, x[:, 0]) - 1, 0)
        j = np.maximum(np.searchsorted(ys, x[:, 1]) - 1, 0)
        left = np.empty_like(x)
        width = np.empty_like(x)
        left[:, 0], left[:, 1], width[:, 0], width[:, 1] = xs[i], ys[j], hx[i], hy[j]
        basis = _hermite_basis((x - left) / width, width)  # [k, axis, 0 or 1 (derivative), function]
        # rows[k, r] = sum_ab bx[k, r, a] by[k, r, b] coef[k, a, b]: row 0 pairs
        # the values along both axes (w), row 1 + m the derivative along axis
        # m with the value along the other (dw[m])
        bx, by = basis[:, 0, (0, 1, 0)], basis[:, 1, (0, 0, 1)]
        coef = cells[i, j][:, None]
        rows = _sum(_sum(bx[..., :, None, None] * by[..., None, :, None] * coef, axis=-2), axis=-2)
        return rows[:, 0], rows[:, 1:]

    probes = tuple((float(px), float(py)) for px in xs for py in ys)
    return CongestionField(jet=patch, probes=probes, dim=2)


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
