"""Desk-scale limit-set diagnostics.

Radial, uniformly-radial and big-horospherical membership are tail
properties invisible at any finite depth, so everything here is labelled
evidence: orbit-distance profiles along rays, horoball entry witnesses,
and slope fits.  The one exact decision is the Jorgensen test for
Schottky data, where the disc structure makes the fundamental domain
computable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .group import QuotientSpec, SchottkyGroup, Walk, Word, walk, word_at
from .model import BoundaryPoint, InteriorPoint, embed3, hyperbolic_distance_raw
from .mobius import origin_images_raw

GROWTH_SLOPE = 0.5
BOUNDED_SLOPE = 0.2
DEFAULT_T_GRID = tuple(float(t) for t in range(1, 13))
DEFAULT_C_GRID = tuple(2.0 ** k for k in range(-3, 7))


@dataclass(frozen=True)
class RadialProfile:
    """Orbit-distance samples Delta(xi_T) along the ray toward a target.

    Each Delta value is an upper bound for the true orbit distance
    (nonincreasing in enumeration depth).  ``slope`` is the linear fit on
    the later half of the profile; growth evidence means the ray escapes
    every finite orbit neighbourhood, bounded evidence the opposite.
    """

    target: BoundaryPoint
    samples: tuple[tuple[float, float], ...]
    depth: int
    slope: float
    bounded_evidence: bool
    growth_evidence: bool
    depth_completed: int
    budget_exhausted: bool

    def to_csv(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("T,delta\n")
            for t, d in self.samples:
                handle.write(f"{t!r},{d!r}\n")

    def summary(self) -> dict:
        return {
            "target": self.target.coords.tolist(),
            "depth": self.depth,
            "depth_completed": self.depth_completed,
            "budget_exhausted": self.budget_exhausted,
            "slope": self.slope,
            "bounded_evidence": self.bounded_evidence,
            "growth_evidence": self.growth_evidence,
            "samples": [[t, d] for t, d in self.samples],
        }


def _orbit_points(group: SchottkyGroup, max_length: int,
                  budget: int | None) -> tuple[np.ndarray, np.ndarray, Walk]:
    pts: list[np.ndarray] = []
    conorms: list[np.ndarray] = []

    def collect(batch, words) -> None:
        img, conorm = origin_images_raw(batch.mats)
        pts.append(img)
        conorms.append(conorm)

    done = walk(group, max_length, budget, consumers=[collect])
    return np.concatenate(pts), np.concatenate(conorms), done


def orbit_distance(group: SchottkyGroup, z: InteriorPoint, max_length: int,
                   budget: int | None = None) -> float:
    """min over enumerated words of d(z, w(0)): an upper bound on the true
    distance of z to the orbit of the origin, nonincreasing in depth.  A
    budget cut only shrinks the set of words, so the bound stays valid."""
    pts, conorms, _ = _orbit_points(group, max_length, budget)
    return float(np.min(hyperbolic_distance_raw(pts, embed3(z.coords),
                                                conorms, z.conorm)))


def radial_profile(group: SchottkyGroup, zeta: BoundaryPoint,
                   t_grid: Sequence[float] = DEFAULT_T_GRID,
                   max_length: int = 8,
                   budget: int | None = None) -> RadialProfile:
    """Delta(xi_T) for xi_T on the ray toward ``zeta`` at hyperbolic distance T."""
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("T grid must increase")
    pts, conorms, done = _orbit_points(group, max_length, budget)
    zc = embed3(zeta.coords)
    samples = []
    for t in t_grid:
        radius = math.tanh(t / 2.0)
        xi = radius * zc
        xi_conorm = (1.0 - radius) * (1.0 + radius)
        samples.append((float(t), float(np.min(
            hyperbolic_distance_raw(pts, xi, conorms, xi_conorm)))))
    tail = samples[len(samples) // 2:]
    slope = float(np.polyfit([t for t, _ in tail], [d for _, d in tail], 1)[0])
    return RadialProfile(zeta, tuple(samples), max_length, slope,
                         bounded_evidence=slope < BOUNDED_SLOPE,
                         growth_evidence=slope > GROWTH_SLOPE,
                         depth_completed=done.depth_completed,
                         budget_exhausted=done.budget_exhausted)


def jorgensen_test(group: SchottkyGroup, zeta: BoundaryPoint,
                   declared: bool = False) -> bool:
    """Exact Jorgensen-point test for Schottky data.

    True iff the point lies in the closed exterior of every generator disc
    and is either a declared limit point or an accumulation point of the
    disc family (the per-generator distances decay geometrically along the
    construction order).  When true, the radial ray toward the point meets
    no half-space over a generator disc, so it runs inside the fundamental
    domain forever.
    """
    if not group.fundamental_domain_contains(zeta):
        return False
    if declared:
        return True
    dists = []
    for gen in group.generators:
        gaps = []
        for disc in (gen.source, gen.target):
            dot = float(np.clip(np.dot(disc.center.coords, zeta.coords), -1.0, 1.0))
            gaps.append(math.acos(dot) - disc.angular_radius)
        dists.append(max(min(gaps), 1e-300))
    if len(dists) < 3:
        return False
    logs = np.log(dists)
    slope = float(np.polyfit(np.arange(len(logs)), logs, 1)[0])
    return slope < -0.2 and dists[-1] == min(dists)


@dataclass
class HoroballWitnesses:
    """Words whose orbit point enters the horoball of level c at the target."""

    level: float
    depth_completed: int
    budget_exhausted: bool
    witnesses: list[tuple[Word, float]] = field(default_factory=list)

    def count(self) -> int:
        return len(self.witnesses)


def horoball_entry(group: SchottkyGroup, zeta: BoundaryPoint, c: float,
                   max_length: int, budget: int | None = None,
                   kernel: QuotientSpec | None = None,
                   max_witnesses: int = 10_000) -> HoroballWitnesses:
    """All enumerated words with k(w(0), zeta) > c, by descending kernel value.

    Membership of the big horospherical limit set is a tail property; a
    growing witness count with depth is evidence, never a decision.  The
    ``kernel`` restriction scans a normal subgroup's orbit instead.
    """
    return horoball_scan(group, zeta, (c,), max_length, budget, kernel, max_witnesses)[0]


def horoball_scan(group: SchottkyGroup, zeta: BoundaryPoint, levels: Sequence[float],
                  max_length: int, budget: int | None = None,
                  kernel: QuotientSpec | None = None,
                  max_witnesses: int = 10_000) -> list[HoroballWitnesses]:
    """:func:`horoball_entry` at every level c of ``levels``, from one walk.

    The walk keeps the words above the lowest level sorted by descending
    kernel value; the witnesses of each level are a prefix of that list.
    """
    consume, result = horoball_scanner(group, zeta, levels, max_length, max_witnesses)
    return result(walk(group, max_length, budget, kernel=kernel, consumers=[consume]))


def horoball_scanner(group: SchottkyGroup, zeta: BoundaryPoint, levels: Sequence[float],
                     max_length: int, max_witnesses: int = 10_000):
    """The walk consumer behind :func:`horoball_scan`, for a walk that may go
    deeper than ``max_length`` (its longer words are skipped).

    Returns ``(consume, result)``: ``result(done)`` takes the walk to
    ``max_length``, e.g. ``Walk.upto(max_length)`` of the deeper walk.
    """
    if any(c <= 0.0 for c in levels):
        raise ValueError("horoball level must be positive")
    zc = embed3(zeta.coords)
    floor = min(levels)
    found: list[tuple[float, int, int]] = []

    def consume(batch, words) -> None:
        if batch.length > max_length:
            return
        img, conorm = origin_images_raw(words.mats)
        diff = zc[None, :] - img
        kvals = conorm / np.einsum("ij,ij->i", diff, diff)
        hits = np.flatnonzero(kvals > floor)
        rows = hits if words.rows is None else words.rows[hits]
        found.extend(zip(kvals[hits].tolist(), [batch.length] * hits.shape[0],
                         (batch.offset + rows).tolist()))

    def result(done: Walk) -> list[HoroballWitnesses]:
        found.sort(key=lambda rec: (-rec[0], rec[1], rec[2]))
        witnesses = [(word_at(group, length, index), kval)
                     for kval, length, index in found[:max_witnesses]]
        return [HoroballWitnesses(c, done.depth_completed, done.budget_exhausted,
                                  witnesses[: bisect.bisect_left(found, -c,
                                                                 key=lambda rec: -rec[0])])
                for c in levels]

    return consume, result
