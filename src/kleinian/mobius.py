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

IDENTITY_TOL = 1e-12
PARABOLIC_TOL = 1e-12
AMBIGUITY_TOL = 1e-9
REAL_MATRIX_TOL = 1e-10
POLE_MARGIN = 0.05

POLE = np.array([1.0, 0.0, 0.0])


# --- raw matrix/coordinate kernels (broadcast over leading axes) -----------

def _sq(x):
    """x * x: rounds alike on arrays and scalars, where numpy's ``x ** 2`` calls libm pow."""
    return x * x


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
    n = _sq(np.abs(p)) + _sq(np.abs(q))
    w = 2.0 * p * np.conj(q) / n
    out = np.empty(np.broadcast(p, q).shape + (3,), dtype=float)
    out[..., 0] = (_sq(np.abs(p)) - _sq(np.abs(q))) / n
    out[..., 1] = w.real
    out[..., 2] = w.imag
    return out


def apply_boundary_raw(mats: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Boundary action of matrices (..., 2, 2) on unit vectors (..., 3).

    Real matrices acting on points of the equator (the walks of
    dimension-1 groups) take a float64 branch, which also reads points as
    stored, (..., 2), and returns images of their shape.  It forms the
    chart of :func:`sphere_to_proj` in real arithmetic and gives the bits
    of the complex formulas on the same matrices stored complex: p and q
    stay real, so |.|^2 is the square, and numpy divides a complex array
    by a real one by multiplying with the reciprocal, so the second
    coordinate is (2 p q) * (1 / n).  A third coordinate is zero, possibly
    of the other sign.
    """
    if np.iscomplexobj(mats) or (points.shape[-1] == 3 and np.any(points[..., 2])):
        p, q = sphere_to_proj(points)
        p2 = mats[..., 0, 0] * p + mats[..., 0, 1] * q
        q2 = mats[..., 1, 0] * p + mats[..., 1, 1] * q
        return proj_to_sphere(p2, q2)
    u1, u2 = points[..., 0], points[..., 1]
    use_a = (1.0 - u1) > np.abs(u2)   # as in sphere_to_proj
    p = np.where(use_a, u2, 1.0 + u1)
    q = np.where(use_a, 1.0 - u1, u2)
    shape = np.broadcast_shapes(mats.shape[:-2], points.shape[:-1])
    p2, q2, n, tmp = (np.empty(shape) for _ in range(4))
    np.multiply(mats[..., 0, 0], p, out=p2)
    p2 += np.multiply(mats[..., 0, 1], q, out=tmp)
    np.multiply(mats[..., 1, 0], p, out=q2)
    q2 += np.multiply(mats[..., 1, 1], q, out=tmp)
    out = np.zeros(shape + points.shape[-1:])
    np.multiply(p2, p2, out=n)
    np.multiply(q2, q2, out=tmp)
    np.subtract(n, tmp, out=out[..., 0])
    n += tmp
    out[..., 0] /= n
    p2 *= 2.0
    p2 *= q2
    np.divide(1.0, n, out=n)
    np.multiply(p2, n, out=out[..., 1])
    return out


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
    d = _sq(np.abs(z)) + _sq(t + 1.0)
    out = np.empty(np.broadcast(z, t).shape + (3,), dtype=float)
    out[..., 0] = (_sq(np.abs(z)) + _sq(t) - 1.0) / d
    out[..., 1] = 2.0 * z.real / d
    out[..., 2] = 2.0 * z.imag / d
    return out


def conorm_raw(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """1 - |x|^2 of the ball point x at half-space coordinates (z, t), by the
    exact identity 4t / (|z|^2 + (t + 1)^2): no cancellation near the sphere."""
    return 4.0 * t / (_sq(np.abs(z)) + _sq(t + 1.0))


def apply_halfspace_raw(mats: np.ndarray, z: np.ndarray,
                        t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    cz_d = c * z + d
    denom = _sq(np.abs(cz_d)) + _sq(np.abs(c)) * _sq(t)
    z2 = ((a * z + b) * np.conj(cz_d) + a * np.conj(c) * _sq(t)) / denom
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
    denom = _sq(np.abs(c)) + _sq(np.abs(d))
    t = 1.0 / denom
    # times the reciprocal: complex division by a real does exactly this, so
    # real (dimension-1) and complex matrices give the same bits
    z = (b * np.conj(d) + a * np.conj(c)) * t
    return halfspace_to_ball(z, t), conorm_raw(z, t)


def inverse_origin_images_raw(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    denom = _sq(np.abs(a)) + _sq(np.abs(c))
    t = 1.0 / denom
    z = (-b * np.conj(a) - d * np.conj(c)) * t   # as in origin_images_raw
    return halfspace_to_ball(z, t), conorm_raw(z, t)


def poisson_raw(points: np.ndarray, conorm: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """k(x, zeta) = (1 - |x|^2) / |zeta - x|^2 of ball points x (..., 3) with
    co-norms ``conorm``, broadcast against boundary points ``zeta`` (..., 3)."""
    diff = zeta - points
    return conorm / np.einsum("...i,...i->...", diff, diff)


def boundary_derivative_raw(mats: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """j(g, zeta) = k(g^{-1}(0), zeta), broadcast over matrices (..., 2, 2)
    and boundary points (..., 3): many words at one point, or one word at
    many points.

    Real matrices (the walks of dimension-1 groups) take a float64 branch
    on the four entry arrays that gives the bits of the complex formulas on
    the same matrices stored complex, and also reads points as stored,
    (..., 2).  With z = -(b a + d c) t, t = 1 / (a^2 + c^2) and D = z^2 +
    (t + 1)^2, g^{-1}(0) is ((z^2 + t^2 - 1) / D, 2 z / D, 0) with co-norm
    4 t / D, and the squared distance is summed as einsum sums it, (d0^2 +
    d2^2) + d1^2; (..., 2) points skip d2^2, as adding +0 changes no sum.
    """
    if np.iscomplexobj(mats):
        return poisson_raw(*inverse_origin_images_raw(mats), zeta)
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    t, m, dd, zz, sq = (np.empty(np.broadcast_shapes(a.shape, zeta.shape[:-1]))
                        for _ in range(5))
    np.multiply(a, a, out=t)
    t += np.multiply(c, c, out=zz)
    np.divide(1.0, t, out=t)
    np.multiply(b, a, out=m)
    m += np.multiply(d, c, out=zz)
    m *= t                                  # -z, so that d1 = zeta1 + 2 m / D
    np.multiply(m, m, out=zz)
    np.add(t, 1.0, out=dd)
    dd *= dd
    dd += zz
    m *= 2.0
    m /= dd
    m += zeta[..., 1]
    m *= m                                  # d1^2
    np.multiply(t, t, out=sq)
    sq += zz
    sq -= 1.0
    sq /= dd
    np.subtract(zeta[..., 0], sq, out=sq)
    sq *= sq                                # d0^2
    if zeta.shape[-1] == 3:
        sq += np.square(zeta[..., 2])       # d2^2, as g^{-1}(0) has no third coordinate
    sq += m
    t *= 4.0
    t /= dd                                 # the co-norm
    t /= sq
    return t


def interior_images_raw(mats: np.ndarray, point3: np.ndarray) -> tuple[np.ndarray, ...]:
    """Half-space coordinates (z, t) of g(p) for the matrices g (..., 2, 2) at
    the ball point p, and j(g, p) = (1 - |g(p)|^2) / (1 - |p|^2), from the one image."""
    z, t = apply_halfspace_raw(mats, *ball_to_halfspace(point3))
    return z, t, conorm_raw(z, t) / (1.0 - float(np.dot(point3, point3)))


def interior_derivative_raw(mats: np.ndarray, z: np.ndarray) -> np.ndarray:
    """j(g, z) = (1 - |g(z)|^2) / (1 - |z|^2), vectorized over matrices."""
    return interior_images_raw(mats, z)[2]


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

    Immutable.  The ball images of the origin under the map and its inverse,
    which feed the conformal-derivative formulas, are computed on demand,
    with co-norms 1 - |.|^2 in the cancellation-free 4t/D form.
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

    @classmethod
    def identity(cls, dim: int) -> "Transform":
        return cls(np.eye(2), dim)

    @property
    def origin_image(self) -> InteriorPoint:
        """g(0)."""
        img, conorm = origin_images_raw(self.matrix)
        return InteriorPoint(project_dim(img, self.dim), conorm=float(conorm))

    @property
    def origin_preimage(self) -> InteriorPoint:
        """g^{-1}(0)."""
        pre, conorm = inverse_origin_images_raw(self.matrix)
        return InteriorPoint(project_dim(pre, self.dim), conorm=float(conorm))

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
        z2, t2 = self._halfspace_image(z)
        return InteriorPoint(project_dim(halfspace_to_ball(z2, t2), self.dim),
                             conorm=float(conorm_raw(z2, t2)))

    def derivative_boundary(self, zeta: BoundaryPoint) -> float:
        """Conformal stretch on the sphere: equals k(g^{-1}(0), zeta)."""
        self._check_point_dim(zeta.dim)
        pre, conorm = inverse_origin_images_raw(self.matrix)
        diff = embed3(zeta.coords) - pre
        return float(conorm / np.dot(diff, diff))

    def derivative_interior(self, z: InteriorPoint) -> float:
        """Conformal stretch in the ball: (1 - |g(z)|^2) / (1 - |z|^2)."""
        return float(conorm_raw(*self._halfspace_image(z))) / z.conorm

    def _halfspace_image(self, z: InteriorPoint) -> tuple[np.ndarray, np.ndarray]:
        """Half-space coordinates of g(z), from the exact co-norm of ``z``."""
        self._check_point_dim(z.dim)
        zc, t = ball_to_halfspace(embed3(z.coords), z.conorm)
        return apply_halfspace_raw(self.matrix, np.asarray(zc), np.asarray(t))

    def is_identity(self) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(2))) < IDENTITY_TOL
                    or np.max(np.abs(self.matrix + np.eye(2))) < IDENTITY_TOL)

    def is_close(self, other: "Transform") -> bool:
        d1 = float(np.max(np.abs(self.matrix - other.matrix)))
        d2 = float(np.max(np.abs(self.matrix + other.matrix)))
        return min(d1, d2) < 1e-10

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

def image_disc(g: Transform, disc: Disc) -> Disc:
    """Exact image of a boundary disc: Mobius maps carry discs to discs.

    The disc {xi : xi . m > cos(alpha)} is the set of projective points
    v = (p, q) with v* H v > 0, where H = [[m0 - h, w], [conj(w), -(m0 + h)]],
    h = cos(alpha) and w = m1 + i m2.  Its image is the form
    g^{-*} H g^{-1} = [[a, b], [conj(b), c]].  With s = hypot((a - c)/2, |b|)
    the image centre is ((a - c)/2, Re b, Im b) / s, and as det H = -sin^2(alpha)
    is invariant, the image's angular radius is atan2(sin(alpha), -(a + c)/2).
    One formula for arcs and caps: a real g keeps the centre on the equator.
    """
    if g.dim != disc.dim:
        raise ValueError("transform and disc dimensions differ")
    m0, m1, m2 = embed3(disc.center.coords).tolist()
    alpha = disc.angular_radius
    h, w = math.cos(alpha), complex(m1, m2)
    (p, q), (r, t) = invert_matrix(g.matrix).tolist()
    # the columns (p, r) and (q, t) of g^{-1} against H
    hp = (m0 - h) * p + w * r
    hr = w.conjugate() * p - (m0 + h) * r
    hq = (m0 - h) * q + w * t
    ht = w.conjugate() * q - (m0 + h) * t
    a = (p.conjugate() * hp + r.conjugate() * hr).real
    b = p.conjugate() * hq + r.conjugate() * ht
    c = (q.conjugate() * hq + t.conjugate() * ht).real
    half_diff = (a - c) / 2.0
    scale = math.hypot(half_diff, abs(b))
    center = np.array([half_diff, b.real, b.imag]) / scale
    angle = math.atan2(math.sin(alpha), -(a + c) / 2.0)
    return Disc(BoundaryPoint(project_dim(center, g.dim)), 2.0 * math.sin(angle / 2.0))


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
    on the great circle through the two centers (the equator, for arcs)."""
    m1 = embed3(c_plus.center.coords)
    m2 = embed3(c_minus.center.coords)
    a1, a2 = c_plus.angular_radius, c_minus.angular_radius
    f = m2 - np.dot(m2, m1) * m1
    fn = np.linalg.norm(f)
    if fn < 1e-12:   # antipodal centres: any great circle serves; this one keeps arcs real
        seed = np.array([1.0, 0.0, 0.0]) if abs(m1[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        f = seed - np.dot(seed, m1) * m1
        fn = np.linalg.norm(f)
    f = f / fn
    t2 = c_plus.angle_to(c_minus.center)
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
    pole = BoundaryPoint(project_dim(POLE, dim))
    margin = min(d.angle_to(pole) - d.angular_radius for d in (c_plus, c_minus))
    if margin < POLE_MARGIN:
        rot = rotation_moving_to_pole(_gap_point_on_circle(c_plus, c_minus), dim)
        rot_t = Transform(rot, dim)
        moved = pair_discs(_rotate_disc(rot_t, c_plus), _rotate_disc(rot_t, c_minus))
        return rot_t.inverse() @ moved @ rot_t
    p, r = _disc_to_plane_circle(c_plus)
    q, s = _disc_to_plane_circle(c_minus)
    if not 0.0 < r * s < math.inf:   # radii that underflow leave no transform
        raise ValueError(f"paired discs have plane radii {r:.3g} and {s:.3g}, whose product "
                         "is not a positive finite number")
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
    _, plane_radius = _disc_to_plane_circle(moved.complement())
    beta = strength * plane_radius
    trans = np.array([[1.0, beta], [0.0, 1.0]], dtype=complex)
    return rot_t.inverse() @ Transform(trans, dim) @ rot_t
