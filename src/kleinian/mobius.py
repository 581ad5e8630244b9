"""Conformal automorphisms of the closed ball.

A transform is stored as a 2x2 complex matrix of unit determinant (fixed
up to sign, canonicalized).  The boundary action is the fractional-linear
action on the Riemann sphere composed with stereographic projection; the
interior action goes through the upper half-space model and a fixed
Cayley-type conjugation.  For dimension N=1 the matrix is real and the
whole action preserves the equatorial disc, which is the conjugated
fractional-linear action on the unit disc.

Stereographic conventions (the plane is C, the sphere sits in R^3):

    sigma(z) = ((|z|^2 - 1), 2 Re z, 2 Im z) / (|z|^2 + 1)

so the plane origin maps to (-1, 0, 0) and the plane infinity to the
"pole" (1, 0, 0).  Interior points are carried through

    eta(z + t j) = ((|z|^2 + t^2 - 1), 2 Re z, 2 Im z) / (|z|^2 + (t+1)^2)

with the useful exact identity 1 - |eta|^2 = 4 t / (|z|^2 + (t+1)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiscsOverlap, NumericallyAmbiguous
from .model import BoundaryPoint, Disc, InteriorPoint, embed3, project_dim

DET_TOL = 1e-12
IDENTITY_TOL = 1e-12
PARABOLIC_TOL = 1e-12
AMBIGUITY_TOL = 1e-9
REAL_MATRIX_TOL = 1e-10
POLE_MARGIN = 0.05

POLE = np.array([1.0, 0.0, 0.0])


# --- raw matrix/coordinate kernels (broadcast over leading axes) -----------

def _canonical_sign(m: np.ndarray) -> np.ndarray:
    """Fix the overall sign by the first entry of sizeable relative magnitude."""
    scale = float(np.max(np.abs(m)))
    for entry in m.reshape(4):
        if abs(entry) > 1e-8 * scale:
            if entry.real < -1e-12 or (abs(entry.real) <= 1e-12 and entry.imag < 0.0):
                m = -m
            break
    return m


def normalize_matrix(matrix: np.ndarray) -> np.ndarray:
    """Scale to unit determinant and fix the sign of the first sizeable entry."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"transform matrix must be 2x2, got shape {m.shape}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-300:
        raise ValueError("transform matrix is singular")
    return _canonical_sign(m / np.sqrt(det))


def matmul_raw(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Products x @ y of 2x2 matrices (..., 2, 2), broadcast over leading axes.

    Each entry is a sum of two products without fused multiply-adds, as
    ``np.einsum`` forms it.  Real matrices (the walks of dimension-1 groups)
    get the products written out, which is over twice as fast as einsum and
    rounds as einsum does on the same matrices stored complex.  ``out`` may
    be any view of the broadcast shape; the level engine passes views of
    component-major (2, 2, ...) arrays, so that every entry it reads and
    writes is contiguous.
    """
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        return np.einsum("...ij,...jk->...ik", x, y, out=out)
    shape = np.broadcast_shapes(x.shape, y.shape)
    if out is None:
        out = np.empty(shape)
    term = np.empty(shape[:-2])
    for i in (0, 1):
        for k in (0, 1):
            entry = out[..., i, k]
            np.multiply(x[..., i, 0], y[..., 0, k], out=entry)
            entry += np.multiply(x[..., i, 1], y[..., 1, k], out=term)
    return out


def invert_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse of a unit-determinant 2x2 matrix (adjugate); supports batches."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def sphere_to_proj(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map unit vectors (..., 3) to projective plane coordinates (p, q), z = p/q.

    Uses whichever of the two charts has the larger denominator, so the
    pole (plane infinity) is handled without special cases.
    """
    u1 = points[..., 0]
    w = points[..., 1] + 1j * points[..., 2]
    # strict comparison: at the pole itself both quantities vanish and only
    # the second chart ([1 + u1 : conj(w)] = infinity) is usable
    use_a = (1.0 - u1) > np.abs(w)
    p = np.where(use_a, w, 1.0 + u1)
    q = np.where(use_a, 1.0 - u1, np.conj(w))
    return p, q


def proj_to_sphere(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = np.abs(p) ** 2 + np.abs(q) ** 2
    w = 2.0 * p * np.conj(q) / n
    out = np.empty(np.broadcast(p, q).shape + (3,), dtype=float)
    out[..., 0] = (np.abs(p) ** 2 - np.abs(q) ** 2) / n
    out[..., 1] = w.real
    out[..., 2] = w.imag
    return out


def apply_boundary_raw(mats: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Boundary action of matrices (..., 2, 2) on unit vectors (..., 3)."""
    p, q = sphere_to_proj(points)
    p2 = mats[..., 0, 0] * p + mats[..., 0, 1] * q
    q2 = mats[..., 1, 0] * p + mats[..., 1, 1] * q
    return proj_to_sphere(p2, q2)


def ball_to_halfspace(points: np.ndarray,
                      conorm: np.ndarray | float | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(..., 3) ball coordinates -> (z complex, t > 0) half-space coordinates.

    ``conorm`` (1 - |u|^2) may be passed in when the caller has an exact
    value; recomputing it from near-sphere coordinates loses precision.
    """
    u1 = points[..., 0]
    if conorm is None:
        conorm = 1.0 - np.einsum("...i,...i->...", points, points)
    tau = conorm / (2.0 * (1.0 - u1))
    t = tau / (1.0 - tau)
    scale = (t + 1.0) / (1.0 - u1)
    z = scale * (points[..., 1] + 1j * points[..., 2])
    return z, t


def halfspace_to_ball(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    d = np.abs(z) ** 2 + (t + 1.0) ** 2
    out = np.empty(np.broadcast(z, t).shape + (3,), dtype=float)
    out[..., 0] = (np.abs(z) ** 2 + t ** 2 - 1.0) / d
    out[..., 1] = 2.0 * z.real / d
    out[..., 2] = 2.0 * z.imag / d
    return out


def apply_halfspace_raw(mats: np.ndarray, z: np.ndarray,
                        t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    cz_d = c * z + d
    denom = np.abs(cz_d) ** 2 + np.abs(c) ** 2 * t ** 2
    z2 = ((a * z + b) * np.conj(cz_d) + a * np.conj(c) * t ** 2) / denom
    return z2, t / denom


def apply_interior_raw(mats: np.ndarray, points: np.ndarray) -> np.ndarray:
    z, t = ball_to_halfspace(points)
    z2, t2 = apply_halfspace_raw(mats, z, t)
    return halfspace_to_ball(z2, t2)


def origin_images_raw(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images of the ball origin: returns (ball coords (..., 3), 1 - |image|^2).

    The origin is the half-space point (z=0, t=1); the co-norm comes out of
    the exact identity 1 - |eta(z,t)|^2 = 4t / (|z|^2 + (t+1)^2), which
    avoids catastrophic cancellation for images close to the sphere.
    """
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    denom = np.abs(c) ** 2 + np.abs(d) ** 2
    t = 1.0 / denom
    # times the reciprocal: complex division by a real does exactly this, so
    # real (dimension-1) and complex matrices give the same bits
    z = (b * np.conj(d) + a * np.conj(c)) * t
    dd = np.abs(z) ** 2 + (t + 1.0) ** 2
    return halfspace_to_ball(z, t), 4.0 * t / dd


def inverse_origin_images_raw(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    denom = np.abs(a) ** 2 + np.abs(c) ** 2
    t = 1.0 / denom
    z = (-b * np.conj(a) - d * np.conj(c)) * t   # as in origin_images_raw
    dd = np.abs(z) ** 2 + (t + 1.0) ** 2
    return halfspace_to_ball(z, t), 4.0 * t / dd


def boundary_derivative_raw(mats: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """j(g, zeta) = k(g^{-1}(0), zeta), broadcast over matrices (..., 2, 2)
    and boundary points (..., 3): many words at one point, or one word at
    many points."""
    pre, conorm = inverse_origin_images_raw(mats)
    diff = zeta - pre
    return conorm / np.einsum("...i,...i->...", diff, diff)


def interior_derivative_raw(mats: np.ndarray, z: np.ndarray) -> np.ndarray:
    """j(g, z) = (1 - |g(z)|^2) / (1 - |z|^2), vectorized over matrices."""
    zc, t = ball_to_halfspace(z)
    z2, t2 = apply_halfspace_raw(mats, np.asarray(zc), np.asarray(t))
    dd = np.abs(z2) ** 2 + (t2 + 1.0) ** 2
    return (4.0 * t2 / dd) / (1.0 - float(np.dot(z, z)))


# --- rotations --------------------------------------------------------------

def rotation_about_pole_axis(theta: float) -> np.ndarray:
    """Rotation of the sphere about the (1,0,0) axis: z -> e^{i theta} z."""
    half = theta / 2.0
    return np.array([[complex(math.cos(half), math.sin(half)), 0.0],
                     [0.0, complex(math.cos(half), -math.sin(half))]])


def rotation_in_equator(t: float) -> np.ndarray:
    """Rotation by ``t`` in the (u1, u2) plane; real, so it preserves N=1 data."""
    half = t / 2.0
    return np.array([[math.cos(half), -math.sin(half)],
                     [math.sin(half), math.cos(half)]], dtype=complex)


def rotation_moving_to_pole(xi: np.ndarray, dim: int) -> np.ndarray:
    """Matrix of a rotation carrying the unit vector ``xi`` to the pole (1,0,0).

    For dim 1 the vector must lie in the equator and the result is real.
    """
    xi = embed3(np.asarray(xi, dtype=float))
    if dim == 1:
        theta = math.atan2(xi[1], xi[0])
        return rotation_in_equator(-theta)
    psi = math.atan2(xi[2], xi[1])
    first = rotation_about_pole_axis(-psi)
    moved = apply_boundary_raw(first, xi)
    phi = math.atan2(moved[1], moved[0])
    return rotation_in_equator(-phi) @ first


# --- the Transform value type ----------------------------------------------

@dataclass(frozen=True)
class Transform:
    """Conformal automorphism of the closed ball in dimension ``dim``.

    Immutable; carries cached ball images of the origin under the map and
    its inverse, which feed the conformal-derivative formulas.
    """

    matrix: np.ndarray
    dim: int

    def __init__(self, matrix, dim: int, _trusted_unit_det: bool = False):
        if dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dim}")
        if _trusted_unit_det:
            # Word transforms are products of unit-determinant letters; their
            # determinant is 1 by construction, while recomputing it from
            # large entries is catastrophically cancelled.  Only fix the sign.
            m = _canonical_sign(np.asarray(matrix, dtype=complex).copy())
        else:
            m = normalize_matrix(matrix)
        if dim == 1 and np.max(np.abs(m.imag)) > REAL_MATRIX_TOL * max(
                1.0, float(np.max(np.abs(m)))):
            raise ValueError("dimension-1 transforms require a real matrix "
                             "(the action must preserve the equatorial disc)")
        if dim == 1:
            m = m.real.astype(complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", dim)
        img, img_conorm = origin_images_raw(m)
        pre, pre_conorm = inverse_origin_images_raw(m)
        img.setflags(write=False)
        pre.setflags(write=False)
        object.__setattr__(self, "_origin_image", img)
        object.__setattr__(self, "_origin_preimage", pre)
        # 1 - |.|^2 in the cancellation-free 4t/D form; stays positive for
        # arbitrarily deep words
        object.__setattr__(self, "_origin_conorm", float(img_conorm))
        object.__setattr__(self, "_preimage_conorm", float(pre_conorm))

    @classmethod
    def identity(cls, dim: int) -> "Transform":
        return cls(np.eye(2), dim)

    @property
    def origin_image(self) -> InteriorPoint:
        """g(0), cached at construction."""
        return InteriorPoint(project_dim(self._origin_image, self.dim),
                             conorm=self._origin_conorm)

    @property
    def origin_preimage(self) -> InteriorPoint:
        """g^{-1}(0), cached at construction."""
        return InteriorPoint(project_dim(self._origin_preimage, self.dim),
                             conorm=self._preimage_conorm)

    def compose(self, other: "Transform") -> "Transform":
        """(self o other): apply ``other`` first."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Transform(self.matrix @ other.matrix, self.dim,
                         _trusted_unit_det=True)

    def __matmul__(self, other: "Transform") -> "Transform":
        return self.compose(other)

    def inverse(self) -> "Transform":
        return Transform(invert_matrix(self.matrix), self.dim,
                         _trusted_unit_det=True)

    def apply_boundary(self, zeta: BoundaryPoint) -> BoundaryPoint:
        self._check_point_dim(zeta.dim)
        out = apply_boundary_raw(self.matrix, embed3(zeta.coords))
        return BoundaryPoint(project_dim(out, self.dim))

    def apply_interior(self, z: InteriorPoint) -> InteriorPoint:
        self._check_point_dim(z.dim)
        zc, t = ball_to_halfspace(embed3(z.coords), z.conorm)
        z2, t2 = apply_halfspace_raw(self.matrix, np.asarray(zc), np.asarray(t))
        dd = np.abs(z2) ** 2 + (t2 + 1.0) ** 2
        out = halfspace_to_ball(z2, t2)
        return InteriorPoint(project_dim(out, self.dim), conorm=float(4.0 * t2 / dd))

    def derivative_boundary(self, zeta: BoundaryPoint) -> float:
        """Conformal stretch on the sphere: equals k(g^{-1}(0), zeta)."""
        self._check_point_dim(zeta.dim)
        pre = self._origin_preimage
        diff = embed3(zeta.coords) - pre
        return float(self._preimage_conorm / np.dot(diff, diff))

    def derivative_interior(self, z: InteriorPoint) -> float:
        """Conformal stretch in the ball: (1 - |g(z)|^2) / (1 - |z|^2)."""
        self._check_point_dim(z.dim)
        zc, t = ball_to_halfspace(embed3(z.coords), z.conorm)
        z2, t2 = apply_halfspace_raw(self.matrix, np.asarray(zc), np.asarray(t))
        dd = np.abs(z2) ** 2 + (t2 + 1.0) ** 2
        return float(4.0 * t2 / dd) / z.conorm

    def is_identity(self, tol: float = IDENTITY_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(2))) < tol
                    or np.max(np.abs(self.matrix + np.eye(2))) < tol)

    def is_close(self, other: "Transform", tol: float = 1e-10) -> bool:
        d1 = float(np.max(np.abs(self.matrix - other.matrix)))
        d2 = float(np.max(np.abs(self.matrix + other.matrix)))
        return min(d1, d2) < tol

    def classify(self) -> "TransformClass":
        return classify(self)

    def _check_point_dim(self, dim: int) -> None:
        if dim != self.dim:
            raise ValueError(f"point dimension {dim} does not match transform dimension {self.dim}")

    def __repr__(self) -> str:
        return f"Transform(dim={self.dim}, matrix={np.array2string(self.matrix, precision=6)})"


@dataclass(frozen=True)
class TransformClass:
    """Classification result: identity, elliptic, parabolic or loxodromic.

    ``fixed_points`` holds boundary fixed points: one for parabolic, two
    for loxodromic (attracting first).  None are reported for elliptic.
    """

    kind: str
    fixed_points: tuple[BoundaryPoint, ...] = ()


def classify(g: Transform) -> TransformClass:
    """Trace classification with boundary fixed points where applicable.

    Raises :class:`NumericallyAmbiguous` when the discriminant tr^2 - 4 is
    within the ambiguity band of the parabolic threshold; parabolicity is
    a measure-zero property and should not be guessed.
    """
    if g.is_identity():
        return TransformClass("identity")
    m = g.matrix
    tr2 = (m[0, 0] + m[1, 1]) ** 2
    disc = tr2 - 4.0
    if abs(disc) <= PARABOLIC_TOL:
        return TransformClass("parabolic", (_parabolic_fixed_point(g),))
    if abs(disc) < AMBIGUITY_TOL:
        raise NumericallyAmbiguous(
            f"discriminant {disc} within {AMBIGUITY_TOL} of the parabolic threshold")
    if abs(tr2.imag) <= PARABOLIC_TOL and 0.0 <= tr2.real < 4.0:
        return TransformClass("elliptic")
    return TransformClass("loxodromic", _loxodromic_fixed_points(g))


def _plane_point_to_boundary(z: complex, dim: int) -> BoundaryPoint:
    coords = proj_to_sphere(np.asarray(z, dtype=complex), np.asarray(1.0 + 0j))
    return BoundaryPoint(project_dim(coords, dim))


def _parabolic_fixed_point(g: Transform) -> BoundaryPoint:
    m = g.matrix
    a, d, c = m[0, 0], m[1, 1], m[1, 0]
    if abs(c) < 1e-14:
        return BoundaryPoint(project_dim(POLE, g.dim))
    return _plane_point_to_boundary((a - d) / (2.0 * c), g.dim)


def _loxodromic_fixed_points(g: Transform) -> tuple[BoundaryPoint, BoundaryPoint]:
    vals, vecs = np.linalg.eig(g.matrix)
    order = np.argsort(-np.abs(vals))  # eigenvalue with |lambda| > 1 is attracting
    points = []
    for idx in order:
        v = vecs[:, idx]
        coords = proj_to_sphere(v[0], v[1])
        points.append(BoundaryPoint(project_dim(coords, g.dim)))
    return points[0], points[1]


# --- discs: images and pairing ----------------------------------------------

def _disc_frame(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    seed = np.array([1.0, 0.0, 0.0]) if abs(m[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e = seed - np.dot(seed, m) * m
    e /= np.linalg.norm(e)
    return e, np.cross(m, e)


def disc_boundary_points(disc: Disc, count: int) -> np.ndarray:
    """(count, 3) sample of the disc's boundary circle (both endpoints for N=1)."""
    m = embed3(disc.center.coords)
    alpha = disc.angular_radius
    if disc.dim == 1:
        theta = math.atan2(m[1], m[0])
        pts = np.array([[math.cos(theta - alpha), math.sin(theta - alpha), 0.0],
                        [math.cos(theta + alpha), math.sin(theta + alpha), 0.0]])
        return pts if count <= 2 else np.tile(pts, (count // 2 + 1, 1))[:count]
    e, f = _disc_frame(m)
    ts = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return (math.cos(alpha) * m[None, :]
            + math.sin(alpha) * (np.cos(ts)[:, None] * e[None, :]
                                 + np.sin(ts)[:, None] * f[None, :]))


def image_disc(g: Transform, disc: Disc) -> Disc:
    """Exact image of a boundary disc: Mobius maps carry discs to discs."""
    if g.dim != disc.dim:
        raise ValueError("transform and disc dimensions differ")
    m = embed3(disc.center.coords)
    alpha = disc.angular_radius
    if g.dim == 1:
        theta = math.atan2(m[1], m[0])
        ends = apply_boundary_raw(g.matrix[None, :, :],
                                  np.array([[math.cos(theta - alpha), math.sin(theta - alpha), 0.0],
                                            [math.cos(theta + alpha), math.sin(theta + alpha), 0.0]]))
        mid = apply_boundary_raw(g.matrix, m)
        t1 = math.atan2(ends[0, 1], ends[0, 0])
        t2 = math.atan2(ends[1, 1], ends[1, 0])
        tm = math.atan2(mid[1], mid[0])
        span = (t2 - t1) % (2.0 * math.pi)
        if (tm - t1) % (2.0 * math.pi) <= span:
            center, half = t1 + span / 2.0, span / 2.0
        else:
            rest = 2.0 * math.pi - span
            center, half = t2 + rest / 2.0, rest / 2.0
        return Disc.from_angles(center, half)
    e, f = _disc_frame(m)
    pts = np.stack([math.cos(alpha) * m + math.sin(alpha) * (math.cos(t) * e + math.sin(t) * f)
                    for t in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)])
    imgs = apply_boundary_raw(g.matrix[None, :, :], pts)
    n = np.cross(imgs[0] - imgs[1], imgs[0] - imgs[2])
    norm = np.linalg.norm(n)
    if norm < 1e-300:
        raise ValueError("degenerate disc image (boundary points collapsed)")
    n /= norm
    h = float(np.dot(n, imgs[0]))
    center_img = apply_boundary_raw(g.matrix, m)
    if float(np.dot(center_img, n)) < h:
        n, h = -n, -h
    h = min(h, 1.0 - 1e-15)
    return Disc(BoundaryPoint(project_dim(n, g.dim)), math.sqrt(max(2.0 - 2.0 * h, 0.0)))


def _disc_to_plane_circle(disc: Disc) -> tuple[complex, float]:
    """Stereographic image of a disc avoiding the pole: plane center and radius."""
    m = embed3(disc.center.coords)
    h = math.cos(disc.angular_radius)
    if m[0] >= h:
        raise ValueError("disc contains the projection pole")
    center = complex(m[1], m[2]) / (h - m[0])
    radius = math.sqrt(max(1.0 - h * h, 0.0)) / (h - m[0])
    return center, radius


def _gap_point_on_circle(c_plus: Disc, c_minus: Disc) -> np.ndarray:
    """A boundary point well clear of both discs: midpoint of the larger gap
    on the great circle through the two centers."""
    m1 = embed3(c_plus.center.coords)
    m2 = embed3(c_minus.center.coords)
    a1, a2 = c_plus.angular_radius, c_minus.angular_radius
    if c_plus.dim == 1:
        t1 = math.atan2(m1[1], m1[0])
        t2 = math.atan2(m2[1], m2[0])
        span = (t2 - t1) % (2.0 * math.pi)
        gap_a = span - a1 - a2                # from t1+a1 forward to t2-a2
        gap_b = 2.0 * math.pi - span - a1 - a2
        if gap_a >= gap_b:
            theta = t1 + a1 + gap_a / 2.0
        else:
            theta = t2 + a2 + gap_b / 2.0
        return np.array([math.cos(theta), math.sin(theta), 0.0])
    f = m2 - np.dot(m2, m1) * m1
    fn = np.linalg.norm(f)
    if fn < 1e-12:
        f = _disc_frame(m1)[0]
    else:
        f = f / fn
    t2 = math.acos(float(np.clip(np.dot(m1, m2), -1.0, 1.0)))
    gap_a = t2 - a1 - a2
    gap_b = 2.0 * math.pi - t2 - a1 - a2
    if gap_a >= gap_b:
        theta = a1 + gap_a / 2.0
    else:
        theta = t2 + a2 + gap_b / 2.0
    return math.cos(theta) * m1 + math.sin(theta) * f


def pair_discs(c_plus: Disc, c_minus: Disc) -> Transform:
    """Loxodromic transform g with g(Ext(c_plus)) = Int(c_minus).

    The two closed discs must be disjoint; radii may differ.  The inverse
    swaps the roles: g^{-1}(Ext(c_minus)) = Int(c_plus).
    """
    if c_plus.dim != c_minus.dim:
        raise ValueError("paired discs must share a dimension")
    dim = c_plus.dim
    gap = c_plus.angular_gap(c_minus)
    if gap <= 0.0:
        raise DiscsOverlap(
            f"paired discs overlap (angular gap {gap:.3e}); centers "
            f"{c_plus.center.coords} / {c_minus.center.coords}")
    margin = min(math.acos(float(np.clip(embed3(d.center.coords)[0], -1.0, 1.0)))
                 - d.angular_radius for d in (c_plus, c_minus))
    if margin < POLE_MARGIN:
        rot = rotation_moving_to_pole(_gap_point_on_circle(c_plus, c_minus), dim)
        rot_t = Transform(rot, dim)
        moved = pair_discs(_rotate_disc(rot_t, c_plus), _rotate_disc(rot_t, c_minus))
        return rot_t.inverse() @ moved @ rot_t
    p, r = _disc_to_plane_circle(c_plus)
    q, s = _disc_to_plane_circle(c_minus)
    mat = np.array([[q, -p * q - r * s], [1.0, -p]], dtype=complex) / math.sqrt(r * s)
    return Transform(mat, dim)


def _rotate_disc(rot: Transform, disc: Disc) -> Disc:
    center = apply_boundary_raw(rot.matrix, embed3(disc.center.coords))
    return Disc(BoundaryPoint(project_dim(center, disc.dim)), disc.radius)


def parabolic_fixing(disc: Disc, strength: float = 4.0) -> Transform:
    """Parabolic transform fixing the center of ``disc`` whose nonzero powers
    all map Ext(disc) into Int(disc).

    ``strength`` is the translation length in units of the disc's plane
    radius; any value > 2 gives the ping-pong property for every power.
    """
    if strength <= 2.0:
        raise ValueError(f"parabolic strength must exceed 2, got {strength}")
    dim = disc.dim
    rot = rotation_moving_to_pole(embed3(disc.center.coords), dim)
    rot_t = Transform(rot, dim)
    moved = _rotate_disc(rot_t, disc)
    # After the rotation the fixed point is the pole = plane infinity, and the
    # disc complement is a bounded plane disc centered at the origin chart...
    # its plane picture is Ext of a circle; translation by beta > 2R pins it.
    complement = Disc(BoundaryPoint(project_dim(-embed3(moved.center.coords), dim)),
                      math.sqrt(max(0.0, 4.0 - moved.radius ** 2)))
    _, plane_radius = _disc_to_plane_circle(complement)
    beta = strength * plane_radius
    trans = np.array([[1.0, beta], [0.0, 1.0]], dtype=complex)
    return rot_t.inverse() @ Transform(trans, dim) @ rot_t
