"""Geometric primitives of the Poincare ball model.

Points live in real (N+1)-space with N in {1, 2}: the open unit ball D
carries the hyperbolic metric, its boundary sphere S the conformal action.
Everything here is a pure function of coordinates; the Mobius machinery
lives in :mod:`kleinian.mobius`.

Conventions used throughout the package:

* the Poisson kernel is ``k(z, zeta) = (1 - |z|^2) / |zeta - z|^2``;
* horoballs are super-level sets ``H_zeta(c) = {k(., zeta) > c}``, bounded
  by a Euclidean sphere of radius ``1/(1+c)`` tangent at ``zeta``; the
  horoball scans of :mod:`kleinian.limits` test membership this way;
* discs on the boundary sphere (arcs when N=1, round caps when N=2) are
  chordal balls ``{xi in S : |xi - center| < radius}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOUNDARY_NORM_TOL = 1e-12
INTERIOR_MAX_NORM = 1.0 - 1e-14


def _as_coords(values, name: str) -> np.ndarray:
    coords = np.asarray(values, dtype=float)
    if coords.ndim != 1 or coords.shape[0] not in (2, 3):
        raise ValueError(f"{name} needs 2 or 3 real coordinates, got shape {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise ValueError(f"{name} has non-finite coordinates: {coords}")
    return coords


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary sphere S, renormalized to unit length."""

    coords: np.ndarray

    def __init__(self, coords):
        coords = _as_coords(coords, "BoundaryPoint")
        norm = float(np.linalg.norm(coords))
        if norm == 0.0:
            raise ValueError("BoundaryPoint cannot be the zero vector")
        coords = coords / norm
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        """Boundary dimension N (ambient space has N+1 coordinates)."""
        return self.coords.shape[0] - 1

    @classmethod
    def from_angle(cls, theta: float) -> "BoundaryPoint":
        """Point of the circle S^1 at angle ``theta`` (N=1 only)."""
        return cls((math.cos(theta), math.sin(theta)))

    def angle(self) -> float:
        if self.dim != 1:
            raise ValueError("angle() is only defined on S^1")
        return math.atan2(self.coords[1], self.coords[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundaryPoint) and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash(self.coords.tobytes())


@dataclass(frozen=True)
class InteriorPoint:
    """A point of the open ball D; construction rejects norm >= 1 - 1e-14.

    ``conorm`` is 1 - |z|^2.  Recomputing it from coordinates close to the
    sphere is catastrophically cancelled, so constructors that know a
    better value (radial points, transform images) pass it in; everything
    downstream (kernel, metric, derivatives) reads it from here.
    """

    coords: np.ndarray
    conorm: float

    def __init__(self, coords, conorm: float | None = None):
        coords = _as_coords(coords, "InteriorPoint")
        nsq = float(np.dot(coords, coords))
        if conorm is None:
            if nsq >= INTERIOR_MAX_NORM ** 2:
                raise ValueError(
                    f"InteriorPoint norm {math.sqrt(nsq)!r} too close to the sphere "
                    f"(must be < {INTERIOR_MAX_NORM})")
            conorm = 1.0 - nsq
        else:
            # a caller with an exact co-norm (transform image, radial point)
            # may sit closer to the sphere than raw coordinates can certify
            conorm = float(conorm)
            if not conorm > 0.0:
                raise ValueError(f"co-norm must be positive, got {conorm}")
            if nsq > 1.0 + 1e-12:
                raise ValueError(f"coordinates leave the closed ball: |z|^2 = {nsq}")
        coords = coords.copy()
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "conorm", conorm)

    @property
    def dim(self) -> int:
        return self.coords.shape[0] - 1

    @classmethod
    def origin(cls, dim: int) -> "InteriorPoint":
        return cls(np.zeros(dim + 1))

    @classmethod
    def radial(cls, zeta: BoundaryPoint, t: float) -> "InteriorPoint":
        """The point ``t * zeta`` on the radius toward ``zeta``, 0 <= t < 1."""
        if not 0.0 <= t < 1.0:
            raise ValueError(f"radial parameter must lie in [0, 1), got {t}")
        return cls(t * zeta.coords, conorm=(1.0 - t) * (1.0 + t))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __eq__(self, other) -> bool:
        return isinstance(other, InteriorPoint) and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash(self.coords.tobytes())


@dataclass(frozen=True)
class Disc:
    """A round disc on the boundary sphere: arc on S^1, cap on S^2.

    ``radius`` is chordal: the disc is ``{xi in S : |xi - center| < radius}``
    in the Euclidean metric of the ambient space.  The matching angular
    radius is ``2*asin(radius/2)``.
    """

    center: BoundaryPoint
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius < 2.0):
            raise ValueError(f"disc chordal radius must lie in (0, 2), got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.dim

    @property
    def angular_radius(self) -> float:
        return 2.0 * math.asin(self.radius / 2.0)

    @classmethod
    def from_angles(cls, center_angle: float, angular_radius: float) -> "Disc":
        """Arc on S^1 with the given center angle and angular half-width."""
        return cls(BoundaryPoint.from_angle(center_angle),
                   2.0 * math.sin(angular_radius / 2.0))

    def chordal_distance(self, point: BoundaryPoint) -> float:
        return float(np.linalg.norm(point.coords - self.center.coords))

    def contains(self, point: BoundaryPoint, closed: bool = True) -> bool:
        d = self.chordal_distance(point)
        return d <= self.radius if closed else d < self.radius

    def angular_gap(self, other: "Disc") -> float:
        """Angular separation between the closures (negative when they meet)."""
        dot = float(np.clip(np.dot(self.center.coords, other.center.coords), -1.0, 1.0))
        return math.acos(dot) - self.angular_radius - other.angular_radius

    def is_disjoint_from(self, other: "Disc") -> bool:
        return self.angular_gap(other) > 0.0

    def contains_disc(self, other: "Disc") -> bool:
        """Whether ``other`` sits inside the open interior of this disc."""
        dot = float(np.clip(np.dot(self.center.coords, other.center.coords), -1.0, 1.0))
        reach = math.acos(dot) + other.angular_radius
        return reach < self.angular_radius

    def enlarged(self, factor: float) -> "Disc":
        """Concentric disc with chordal radius scaled by ``factor``."""
        if factor < 1.0:
            raise ValueError(f"enlargement factor must be >= 1, got {factor}")
        return Disc(self.center, min(self.radius * factor, 2.0 - 1e-12))


def poisson_kernel(z: InteriorPoint, zeta: BoundaryPoint) -> float:
    """k(z, zeta) = (1 - |z|^2) / |zeta - z|^2, strictly positive and finite."""
    diff = zeta.coords - z.coords
    return float(z.conorm / np.dot(diff, diff))


def hyperbolic_distance(z: InteriorPoint, w: InteriorPoint) -> float:
    """Hyperbolic metric of the ball, via 2*asinh of the cross-ratio surd.

    Equivalent to arcosh(1 + 2|z-w|^2 / ((1-|z|^2)(1-|w|^2))) but stable
    for nearby points.
    """
    diff = z.coords - w.coords
    delta = np.dot(diff, diff) / (z.conorm * w.conorm)
    return float(2.0 * math.asinh(math.sqrt(delta)))


# --- raw-array helpers shared by the vectorized engine ---------------------

def embed3(coords: np.ndarray) -> np.ndarray:
    """Embed (..., 2) coordinates into (..., 3) with a zero third component."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1] == 3:
        return coords
    out = np.zeros(coords.shape[:-1] + (3,), dtype=float)
    out[..., :2] = coords
    return out


def project_dim(coords: np.ndarray, dim: int) -> np.ndarray:
    """Drop the padding component when the session dimension is 1."""
    return coords[..., : dim + 1]
