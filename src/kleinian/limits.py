"""Desk-scale limit-set diagnostics.

Radial, uniformly-radial and big-horospherical membership are tail
properties invisible at any finite depth, so everything here is labelled
evidence: the horoball entry witnesses of the enumerated words.  The
one exact decision is the Jorgensen test for Schottky data, where the
disc structure makes the fundamental domain computable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .group import QuotientSpec, SchottkyGroup, Walk, Word, walk, word_at
from .model import BoundaryPoint, embed3
from .mobius import origin_images_raw

DEFAULT_C_GRID = tuple(2.0 ** k for k in range(-3, 7))


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
