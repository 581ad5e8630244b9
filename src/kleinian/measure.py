"""Truncated atomic conformal measures and their diagnostics.

An orbit measure places mass j(w, z)^s at every orbit point w(z) of an
interior point; an ending measure places mass j(w, zeta)^s at the
boundary orbit of a target point, summed over a coset transversal of its
stabilizer.  Both are normalized truncations of the measures whose weak
limits the theory studies; every synthesized measure therefore carries
the :class:`~kleinian.series.SeriesResult` of its normalizer, verdict
included, and consumers are expected to surface that verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TargetNotInDomainClosure
from .group import (BLOCK_WORDS, DeclaredStabilizer, ExactSum, LevelSums, QuotientSpec,
                    SchottkyGroup, Walk, WordBatch, walk)
from .mobius import (_sq, apply_boundary_raw, apply_halfspace_raw, apply_interior_raw,
                     ball_to_halfspace, boundary_derivative_raw, halfspace_to_ball,
                     interior_images_raw, inverse_origin_images_raw)
from .model import BoundaryPoint, InteriorPoint, embed3
from .series import (SeriesResult, TailCertificate, boundary_power, finish_series, fixes,
                     unit_derivative)

# Atoms are coalesced only when indistinguishable at float resolution.  A
# coarser merge (1e-12 was tried) misattributes mass across cells where the
# derivative field varies violently, and breaks the conformality-residual
# budget for strongly contracting generator families.
MERGE_TOL = 1e-15
DEFAULT_CELLS = 64
TOP_K_ATOMS = 32
PARTITION_OFFSET = 0.5 * (math.sqrt(5.0) - 1.0)  # keeps atoms off cell edges
NEAREST_PAIRS = 1 << 18   # point pairs compared at a time by _nearest_distances
QUEUE_WORDS = 1 << 15     # words an atom stream queues at most before it merges them


# --- the measure value type ---------------------------------------------------

@dataclass
class AtomicMeasure:
    """Finitely many atoms in the closed ball with unit total mass.

    ``points`` are ambient coordinates (norm 1 for boundary-supported
    measures, < 1 for orbit measures), ``word_lengths`` the word length
    that produced each atom.  ``source`` is ``"ending"`` for a measure on
    the boundary and ``"orbit"`` for one on an orbit in the ball.
    ``series`` is the normalizing partial sum.
    """

    points: np.ndarray
    weights: np.ndarray
    word_lengths: np.ndarray
    dim: int
    source: str
    exponent: float
    depth: int
    series: SeriesResult | None = None
    meta: dict = field(default_factory=dict)
    # the exact sums of the words of length ``depth`` by first letter (-1 for
    # the identity), unnormalized, as the walk's LevelSums closed them
    first_letter_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def atom_count(self) -> int:
        return int(self.points.shape[0])

    def total_mass(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    def max_atom_weight(self) -> float:
        return float(np.max(self.weights))

    def shell_mass(self) -> float:
        """Mass of the words of length ``depth``: the exact total of their
        first-letter sums, rounded once, over the normalizer (a complete
        level's sum, what a budget cut reached of it, or 0)."""
        return ExactSum.total(self.first_letter_sums.values()).value() / self.series.partial_sum

    def top_atoms(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k heaviest atoms, heaviest first, ties in atom order.

        Only the atoms at least as heavy as the k-th are sorted, by the keys
        of the full sort, so the order is the same."""
        keys = -self.weights
        rows = np.arange(self.atom_count)
        if 0 < k < self.atom_count:
            kth = np.partition(keys, k - 1)[k - 1]
            if not np.isnan(kth):   # with NaN weights the full sort decides
                rows = np.flatnonzero(keys <= kth)
        order = rows[np.lexsort((rows, keys[rows]))][:k]
        return self.points[order], self.weights[order]

    def weight_at(self, point: BoundaryPoint | InteriorPoint) -> float:
        d = np.linalg.norm(self.points - point.coords[None, :], axis=1)
        return float(math.fsum(self.weights[d <= 1e-9].tolist()))

    def to_csv(self, path) -> None:
        """Columns x[,y][,z], weight, word_length; rows by descending weight.

        The bytes of ``csv.writer``: each field is the ``repr`` of its
        number, which needs no quoting, and each line ends in ``\\r\\n``;
        rows go out ``BLOCK_WORDS`` at a time."""
        order = np.lexsort((np.arange(self.atom_count), -self.weights))
        headers = ["x", "y", "z"][: self.dim + 1] + ["weight", "word_length"]
        with open(path, "w", newline="") as handle:
            handle.write(",".join(headers) + "\r\n")
            for lo in range(0, self.atom_count, BLOCK_WORDS):
                rows = order[lo:lo + BLOCK_WORDS]
                columns = [*self.points[rows].T, self.weights[rows], self.word_lengths[rows]]
                lines = map(",".join, zip(*(map(repr, column.tolist()) for column in columns)))
                handle.write("\r\n".join(lines) + "\r\n")


def _snapped(points: np.ndarray) -> np.ndarray:
    """The coordinates snapped to the merge grid: integers, held as floats."""
    grid = np.divide(points, MERGE_TOL, order="C")
    return np.round(grid, out=grid)


def _void_keys(keys: np.ndarray) -> np.ndarray:
    """Rows of ``keys`` as single (void) values that sort like the rows do,
    lexicographically: offset to unsigned and stored big-endian."""
    ordered = (keys.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8")
    return ordered.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


def _merge_atoms(points: np.ndarray, weights: np.ndarray,
                 lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce atoms closer than the merge tolerance (grid snap), keeping
    the earliest representative and summing weights.

    The one-shot form of :class:`_AtomStream`, which merges queued batches
    to the same bits."""
    keys = _void_keys(_snapped(points).astype(np.int64))
    _, first_idx, inverse = np.unique(keys, return_index=True, return_inverse=True)
    merged_w = np.zeros(first_idx.shape[0])
    np.add.at(merged_w, inverse, weights)
    merged_l = np.full(first_idx.shape[0], np.iinfo(np.int32).max, dtype=np.int64)
    np.minimum.at(merged_l, inverse, lengths.astype(np.int64))
    order = np.argsort(first_idx, kind="stable")
    return points[first_idx[order]], merged_w[order], merged_l[order]


def _inserted(table: np.ndarray, pos: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.insert(table, pos, values)`` for ascending ``pos``, as the head of a
    power-of-two block, so that a growing table reuses the block it last freed."""
    at = pos + np.arange(values.shape[0])
    keep = np.ones(table.shape[0] + at.shape[0], dtype=bool)
    keep[at] = False
    out = np.empty(1 << (keep.shape[0] - 1).bit_length(), dtype=table.dtype)[:keep.shape[0]]
    out[at], out[keep] = values, table
    return out


class _AtomStream:
    """Atoms merged as a walk forms them, equal bit for bit to one
    :func:`_merge_atoms` of every atom so far.

    :meth:`add` keys a batch at once and queues it; :meth:`_flush` merges
    the queue as one batch once its words reach the table's atoms (at most
    ``QUEUE_WORDS``), when a level ends and before :meth:`at`, so each merge
    copies the table for at least as many words as it holds (below the
    cap).  A merge looks up the first key of each run of equal keys in the
    sorted table of known atoms; only the keys missed are sorted, and the
    new atoms are numbered in order of first appearance.  Weights are added
    into the running totals in enumeration order, so every atom gets the
    same representative and the same summation order as in the one-shot
    merge, however the words are split into batches and merges.
    A key is an atom's row of grid integers as one value that compares as
    the row does: for width 2 a complex128 whose parts are the snapped
    floats themselves (exact integers: |k| <= 10^15 < 2^53 on the closed
    disc), for width 3 a void row of big-endian integers.  Coordinates that
    are not finite, or off the int64 grid, raise :class:`FloatingPointError`
    when their batch is added, rather than merge.

    ``close(length)`` marks the end of a level, so ``at(depth)`` can give
    the merge of the words of length <= depth.  Totals that a level's end or
    :meth:`at` holds are read-only, and copied only once a later merge
    changes them, so the top level's never are.
    """

    def __init__(self, width: int):
        self._width = width
        top = np.full((1, width), np.iinfo(np.int64).max)   # a last key, above every row
        self._keys = _void_keys(top) if width == 3 else top.astype(float).view(np.complex128)[0]
        self._ids = np.full(1, -1)                    # atom id of each sorted key
        self._points = [np.empty((0, width))]         # representatives by id
        self._lengths = [np.empty(0, dtype=np.int64)]
        self._totals = np.zeros(0)
        self._closed: dict[int, np.ndarray] = {}      # level -> totals at its end
        self._queue: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []   # keys, points, weights
        self._queued, self._length = 0, 0             # words queued, and their level

    def _key(self, points: np.ndarray) -> np.ndarray:
        grid = _snapped(points)
        if grid.shape[0] and not -2.0 ** 63 < grid.min() <= grid.max() < 2.0 ** 63:
            raise FloatingPointError("atom coordinates are not finite or too large "
                                     "for the merge grid")
        if self._width == 2:
            return grid.view(np.complex128).ravel()
        return _void_keys(grid.astype(np.int64))

    def add(self, points: np.ndarray, weights: np.ndarray, length: int) -> None:
        """Queue the atoms of the next batch, of words of length ``length``;
        the batches of one level come between two :meth:`close` calls."""
        keys = self._key(points)
        if not keys.shape[0]:
            return
        self._queue.append((keys, points, weights))
        self._queued, self._length = self._queued + keys.shape[0], length
        if self._queued >= min(self._totals.shape[0], QUEUE_WORDS):
            self._flush()

    def _flush(self) -> None:
        """Merge the queued batches as one."""
        if not self._queue:
            return
        keys, points, weights = (parts[0] if len(parts) == 1 else np.concatenate(parts)
                                 for parts in zip(*self._queue))
        self._queue, self._queued = [], 0
        # sibling words mostly share an atom: look up the first key of each run
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        runs = keys[starts]
        pos = np.searchsorted(self._keys, runs)   # never past the last key, which never matches
        miss = np.flatnonzero(self._keys[pos] != runs)
        ids = self._ids[pos]
        if miss.shape[0]:
            # a stable sort keeps equal keys in word order, so the head of
            # each run is the new atom's first word
            order = miss[np.argsort(runs[miss], kind="stable")]
            ranked = runs[order]
            heads = np.concatenate([[True], ranked[1:] != ranked[:-1]])
            first = order[heads]
            appears = np.zeros(runs.shape[0], dtype=bool)
            appears[first] = True   # new atoms are numbered as they first appear
            new_ids = np.cumsum(appears)[first] + (self._totals.shape[0] - 1)
            ids[order] = new_ids[np.cumsum(heads) - 1]
            self._keys = _inserted(self._keys, pos[first], ranked[heads])
            self._ids = _inserted(self._ids, pos[first], new_ids)
            self._points.append(points[starts[appears]])
            self._lengths.append(np.full(first.shape[0], self._length, dtype=np.int64))
            self._totals = np.concatenate([self._totals, np.zeros(first.shape[0])])
        elif not self._totals.flags.writeable:   # totals handed out never change
            self._totals = self._totals.copy()
        np.add.at(self._totals, np.repeat(ids, np.diff(starts, append=keys.shape[0])), weights)

    def close(self, length: int) -> None:
        self._flush()
        self._closed[length] = self._totals
        self._totals.flags.writeable = False

    def at(self, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged (points, weights, lengths) of the words of length <= depth,
        read-only; points and lengths are prefixes of one shared table.

        When level ``depth`` has not ended (a budget cut, or a walk that
        stopped before it), every atom so far is in the prefix.
        """
        self._flush()
        totals = self._closed.get(depth, self._totals)
        totals.flags.writeable = False
        for parts in (self._points, self._lengths):
            if len(parts) > 1 or parts[0].flags.writeable:
                parts[:] = [np.concatenate(parts)]
                parts[0].flags.writeable = False
        n = totals.shape[0]
        return self._points[0][:n], totals, self._lengths[0][:n]


# --- synthesis ------------------------------------------------------------------

def orbit_measure(group: SchottkyGroup, z: InteriorPoint, s: float, max_length: int,
                  budget: int | None = None) -> AtomicMeasure:
    """Normalized point masses j(w, z)^s at the orbit points w(z), w of length <= L."""
    measures = EndingMeasures(group, (), s, orbit_points=[z])
    return measures.at(measures.walk(max_length, budget))[0]


def ending_measure(group: SchottkyGroup, zeta: BoundaryPoint, s: float,
                   max_length: int, kernel: QuotientSpec | None = None,
                   budget: int | None = None,
                   tail: TailCertificate | None = None) -> AtomicMeasure:
    """Normalized point masses j(w, zeta)^s at the boundary orbit of the target.

    ``kernel`` restricts the sum to the kernel of a quotient: a normal
    subgroup (the measure for that subgroup), or, from
    :meth:`~kleinian.group.DeclaredStabilizer.quotient_for`, the canonical
    coset transversal of the stabilizer of ``zeta``.  The normalizing series
    verdict is attached, never hidden: a truncation of a divergent series
    stays flagged.
    """
    measures = EndingMeasures(group, [zeta], s, kernel=kernel, tail=tail)
    return measures.at(measures.walk(max_length, budget))[0]


class EndingMeasures:
    """The ending measures of :func:`ending_measure` at several targets, and
    the orbit measures of :func:`orbit_measure` at ``orbit_points``, at
    every depth of one walk.

    A walk consumer: :meth:`walk` walks once, with further consumers riding
    after it, and :meth:`at` gives the measures of a walk, one per target
    and then one per orbit point.  ``blocks`` holds each measure's
    :class:`~kleinian.group.LevelSums`, which later consumers may read.
    Each measure merges the atoms of the words of length <= depth (a prefix
    of the enumeration order) and is normalized by that depth's own level
    blocks, so ``at(done.upto(depth))`` is bit for bit the measure that a
    walk to ``depth`` builds, budget cut included.  Orbit measures sum the
    whole group without a tail, so they share no walk with a kernel or a tail.
    """

    def __init__(self, group: SchottkyGroup, targets, s: float,
                 kernel: QuotientSpec | None = None,
                 tail: TailCertificate | None = None, orbit_points=()):
        if orbit_points and (kernel is not None or tail is not None):
            raise ValueError("orbit measures sum the whole group without a tail")
        self._targets, self.points = len(targets), [*targets, *orbit_points]
        if any(point.dim != group.dim for point in self.points):
            raise ValueError(f"the points of the group's ball need {group.dim + 1} coordinates")
        self._notes = [_check_target(group, zeta, kernel) for zeta in targets]
        self.group, self.s, self.tail, self.spec = group, s, tail, kernel
        self.blocks = [LevelSums() for _ in self.points]
        self._embedded = [embed3(point.coords) for point in self.points]
        self._atoms = [_AtomStream(group.dim + 1) for _ in self.points]

    def __call__(self, batch: WordBatch, words: WordBatch) -> None:
        """Every measure's values j(w, .)^s and atom positions of the batch's
        words, into its level blocks and its atom stream."""
        width, s, length, mats = self.group.dim + 1, self.s, batch.length, words.mats
        for i, (pc, blocks, atoms) in enumerate(zip(self._embedded, self.blocks, self._atoms)):
            if i < self._targets:
                value = boundary_power(mats, pc, s)
                place = apply_boundary_raw(mats, pc)
            else:
                z, t, value = interior_images_raw(mats, pc)
                value **= s   # in place, as boundary_power
                place = halfspace_to_ball(z, t)
            blocks.add(words, value)
            atoms.add(place[:, :width], value, length)
            if batch.final:
                atoms.close(length)

    def walk(self, max_length: int, budget: int | None = None, consumers=()) -> Walk:
        """One walk to ``max_length`` feeding these measures, then ``consumers``."""
        return walk(self.group, max_length, budget, kernel=self.spec,
                    consumers=[self, *consumers])

    def at(self, done: Walk) -> tuple[AtomicMeasure, ...]:
        """The measures of the walk ``done``; pass ``done.upto(depth)`` for a
        shallower depth.  Closes ``blocks`` at ``done``."""
        out = []
        budget = done.cut.words_generated if done.cut else None   # reproduces the cut
        for i, point in enumerate(self.points):
            boundary = i < self._targets
            series = finish_series(done, self.blocks[i], self.s, self.tail, self.group,
                                   self.spec, point if boundary else None)
            points, weights, lengths = self._atoms[i].at(done.depth)
            meta = {"target" if boundary else "base_point": point.coords.tolist(),
                    "enumeration": {"group": self.group, "point": embed3(point.coords),
                                    "kind": "boundary" if boundary else "interior",
                                    "kernel": self.spec, "budget": budget}}
            if boundary and self._notes[i]:
                meta["domain_check"] = self._notes[i]
            mu = AtomicMeasure(points, weights / series.partial_sum, lengths, self.group.dim,
                               "ending" if boundary else "orbit", self.s, done.depth,
                               series=series, meta=meta)
            mu.first_letter_sums = self.blocks[i].first_letter_sums
            out.append(mu)
        return tuple(out)


def _check_target(group: SchottkyGroup, zeta: BoundaryPoint,
                  kernel: QuotientSpec | None) -> str | None:
    """Reject a target inside an open generator disc, or return the note of a
    skipped check: a normal subgroup's fundamental domain is the larger."""
    if kernel is not None and not kernel.stabilizer:
        return "skipped (subgroup measure; the subgroup's domain is larger)"
    exempt = set(kernel.stabilizer) if kernel is not None else set()
    for name in group.discs_containing(zeta):
        if name[:-1] not in exempt:   # a declared stabilizer's own disc may cover its fixed point
            raise TargetNotInDomainClosure(
                f"target {zeta.coords} lies inside open generator disc {name}")


# --- conformality --------------------------------------------------------------

def _sphere_grid(cells: int) -> tuple[int, int]:
    """The longitudes and latitudes of the S^2 grid of ``cells`` cells:
    round(sqrt(cells)) of the first, ``cells`` // that of the second.  A
    count that is not a multiple of the longitudes would leave cells empty,
    so it raises ValueError."""
    lon_cells = int(round(math.sqrt(cells)))
    if cells % lon_cells:
        raise ValueError(f"{cells} cells on S^2 must be a multiple of "
                         f"round(sqrt({cells})) = {lon_cells}")
    return lon_cells, cells // lon_cells


def _cell_index(points: np.ndarray, dim: int, cells: int) -> np.ndarray:
    """Deterministic partition of the boundary into arcs (S^1) or a
    longitude/latitude grid (S^2, :func:`_sphere_grid`), rotated by an
    irrational offset so that atom images do not straddle cell edges.
    A point is binned by its direction: ``arctan2`` reads the angles off
    its coordinates, the S^2 latitude as pi/2 - arctan2(x, hypot(y, z)),
    which puts the origin at latitude pi/2."""
    if dim == 1:
        ang = np.arctan2(points[:, 1], points[:, 0])
        frac = (ang / (2.0 * math.pi) + PARTITION_OFFSET) % 1.0
        return np.minimum((frac * cells).astype(np.int64), cells - 1)
    lon_cells, lat_cells = _sphere_grid(cells)
    lon = np.arctan2(points[:, 2], points[:, 1])
    lat = 0.5 * math.pi - np.arctan2(points[:, 0], np.hypot(points[:, 1], points[:, 2]))
    lon_frac = (lon / (2.0 * math.pi) + PARTITION_OFFSET) % 1.0
    i = np.minimum((lon_frac * lon_cells).astype(np.int64), lon_cells - 1)
    j = np.minimum((lat / math.pi * lat_cells).astype(np.int64), lat_cells - 1)
    return i * lat_cells + j


def _cell_masses(points: np.ndarray, weights: np.ndarray, dim: int,
                 cells: int) -> np.ndarray:
    out = np.zeros(cells)
    np.add.at(out, _cell_index(points, dim, cells), weights)
    return out


def conformality_residual(mu: AtomicMeasure, g, s: float,
                          cells: int = DEFAULT_CELLS) -> float:
    """A bound on the worst cell defect of the rule mu(g A) = int_A j(g,.)^s dmu.

    On a measure of the whole group's words, for a letter g = l, the sides
    pair word by word (w = g v) but for the words of length L = ``mu.depth``:
    the masses A of those not starting with l (mu(g A) side), and j(g, v(p))^s
    times the masses B of those not starting with l^-1.  So every cell of any
    partition is off by at most max(A, B) <= max(A, B^sup) (:func:`_shell_sides`),
    which this returns with no walk.  Other measures and transforms, and what
    :func:`_shell_sides` leaves out, take the direct atom formula on ``cells``.
    """
    if mu.dim == 2:
        _sphere_grid(cells)   # refused even when no cell is binned
    sides = _shell_sides(mu, g, s)
    residual = _conformality_residual_direct(mu, g, s, cells) if sides is None else max(sides)
    if math.isnan(residual):
        raise FloatingPointError("the conformality residual is NaN")
    return residual


def _conformality_residual_direct(mu: AtomicMeasure, g, s: float, cells: int) -> float:
    """The transformation rule checked on the atoms as they stand."""
    emb = embed3(mu.points)
    ginv = g.inverse()
    if mu.source == "ending":
        pre = apply_boundary_raw(ginv.matrix[None, :, :], emb)
        jvals = boundary_derivative_raw(g.matrix, emb)
    else:
        pre = apply_interior_raw(ginv.matrix[None, :, :], emb)
        jvals = _stretch(g, *ball_to_halfspace(emb))
    lhs = _cell_masses(pre, mu.weights, mu.dim, cells)        # mass of g(A_i)
    rhs_weights = (jvals ** s) * mu.weights
    rhs = _cell_masses(emb, rhs_weights, mu.dim, cells)
    return float(np.max(np.abs(lhs - rhs)))


def _shell_sides(mu: AtomicMeasure, g, s: float) -> tuple[float, float] | None:
    """(A, B^sup) of :func:`conformality_residual` from the first-letter sums
    m_f and normalizer S of ``mu``, or None where they are not formed.

    A = sum of m_f, f != l, exact and rounded once, over S.  The words of first
    letter f move a base point p of the closed fundamental domain into the
    closed ball R_f orthogonal to the sphere over f's target disc, centre
    c_f / cos(a_f), radius tan(a_f) (the identity keeps p).  With u = g^-1(0),
    u* = u / |u|^2, j(g, x) = (1 - |u|^2) / (|u|^2 |x - u*|^2) in the ball, so
    B^sup = sum over f != l^-1 of m_f (sup of j(g, .) on R_f)^s, over S.  None
    for a kernel measure, a transform that is no letter, s < 0, a target disc
    of a hemisphere or more, an orbit point in an open half-ball, or u* in an R_f.
    """
    enum = mu.meta.get("enumeration")
    letter = None if enum is None or enum["kernel"] is not None else _letter_of(enum["group"], g)
    if letter is None or s < 0:
        return None
    point, targets = enum["point"], enum["group"].letter_targets
    balls = {f: (embed3(disc.center.coords) / math.cos(disc.angular_radius),
                 math.tan(disc.angular_radius)) for f, disc in enumerate(targets)}
    if max(disc.angular_radius for disc in targets) >= 0.5 * math.pi or (
            enum["kind"] == "interior"
            and any(np.linalg.norm(point - c) < r for c, r in balls.values())):
        return None
    balls[-1] = (point, 0.0)
    [u], [conorm] = inverse_origin_images_raw(g.matrix[None])
    u2, sums = float(np.dot(u, u)), mu.first_letter_sums
    gaps = {f: float(np.linalg.norm(u / u2 - balls[f][0])) - balls[f][1]
            for f in sums if f != letter ^ 1}
    if not all(gap > 0.0 for gap in gaps.values()):
        return None
    a = ExactSum.total(part for f, part in sums.items() if f != letter).value()
    b = math.fsum(sums[f].value() * (float(conorm) / (u2 * gap * gap)) ** s
                  for f, gap in gaps.items())
    return a / mu.series.partial_sum, b / mu.series.partial_sum


def _letter_of(group: SchottkyGroup, g) -> int | None:
    """The letter index of a generator transform, or None.

    Matrices are compared projectively at a relative tolerance, so a letter
    re-normalized on its way in (``group.letter_transform(e)``) is matched.
    """
    for e, letter in enumerate(group.letter_matrices):
        if _projectively_close(letter, g.matrix):
            return e
    return None


def _projectively_close(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` and ``b`` are proportional up to a relative 1e-9: every
    2x2 minor of their entry vectors, side by side, is that small against
    the product of their largest entries."""
    u, v = a.reshape(4), b.reshape(4)
    minors = np.outer(u, v) - np.outer(v, u)
    return float(np.max(np.abs(minors))) <= 1e-9 * float(np.max(np.abs(u)) * np.max(np.abs(v)))


def _stretch(g, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """j(g, x) = (1 - |g x|^2) / (1 - |x|^2) at the ball points x with
    half-space coordinates (z, t).

    Both co-norms come from the half-space identity 1 - |eta|^2 = 4 t / d,
    d = |z|^2 + (t + 1)^2, and g divides t by |c z + d|^2 + |c|^2 t^2, so
    the ratio is formed without 1 - |x|^2 and without dividing by t, either
    of which rounds to nothing near the sphere.
    """
    z2, t2 = apply_halfspace_raw(g.matrix, z, t)
    c, d = g.matrix[1, 0], g.matrix[1, 1]
    stretch = _sq(np.abs(c * z + d)) + _sq(np.abs(c)) * _sq(t)
    return (_sq(np.abs(z)) + _sq(t + 1.0)) / (stretch * (_sq(np.abs(z2)) + _sq(t2 + 1.0)))


# --- atomicity ------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerCheck:
    kind: str                 # all_derivatives_one | derivative_not_one | none_declared
    witness: str | None = None
    value: float | None = None


@dataclass
class AtomicityVerdict:
    """Outcome of the two-sided atom test at a boundary point.

    ``conclusion`` is ``atom_at_target``, ``no_atom_at_target`` or
    ``inconclusive``; ``series`` is the boundary series the test read, and
    ``transcript`` names the facts behind the conclusion.
    """

    stabilizer_check: StabilizerCheck
    series: SeriesResult
    conclusion: str
    transcript: dict = field(default_factory=dict)


def moving_generator(group: SchottkyGroup, zeta: BoundaryPoint,
                     labels) -> str | None:
    """The first of the generator ``labels`` that moves ``zeta``, if any."""
    for label in labels:
        if not fixes(group.generator(label).transform, zeta):
            return label
    return None


def classify_atomicity(group: SchottkyGroup, zeta: BoundaryPoint,
                       stab: DeclaredStabilizer | None,
                       series: SeriesResult) -> AtomicityVerdict:
    """Decide atom-or-not at ``zeta`` from the declared stabilizer and
    ``series``, the boundary series at ``zeta`` over the stabilizer's coset
    transversal.  Walks nothing; only exact facts conclude.

    ``atom_at_target``: every stabilizer derivative at ``zeta`` is 1 and the
    series is ``converged_within``.  ``no_atom_at_target``: a derivative is
    not 1, or the series' growth witness names a ``unit_fixer``.  Otherwise
    (no stabilizer declared, or growth evidence that is the fitted ratio
    alone, which the transcript names) ``inconclusive``.  A stabilizer
    generator moving ``zeta``, or a nontrivial ``stab`` with a series not
    over its transversal (no ``incomplete_cosets``), raises ValueError."""
    transcript: dict = {}
    if stab is None:
        transcript["stabilizer"] = ("no stabilizer declared; the unit-derivative "
                                    "condition cannot be assessed")
        return AtomicityVerdict(StabilizerCheck("none_declared"), series,
                                "inconclusive", transcript)
    if (mover := moving_generator(group, zeta, stab.labels)) is not None:
        raise ValueError(f"declared stabilizer generator {mover} does not fix the target")
    if not stab.labels:
        transcript["stabilizer"] = "trivial declaration; condition holds vacuously"
    elif not series.incomplete_cosets:
        raise ValueError("the series is not summed over the stabilizer's coset transversal")
    check = StabilizerCheck("all_derivatives_one")
    for label in stab.labels:
        transform = group.generator(label).transform
        value = transform.derivative_boundary(zeta)
        transcript.setdefault("stabilizer_derivatives", {})[label] = value
        if not unit_derivative(transform, zeta):
            check = StabilizerCheck("derivative_not_one", label, value)
            break
    verdict = series.verdict
    if check.kind == "derivative_not_one":
        conclusion = "no_atom_at_target"
    elif verdict.kind == "converged_within":
        conclusion = "atom_at_target"
    elif verdict.kind == "growth_witness" and "unit_fixer" in verdict.evidence:
        conclusion = "no_atom_at_target"
    else:
        if verdict.kind == "growth_witness":   # the fitted ratio alone
            transcript["ratio_only_growth"] = series.transcript["ratio_fit"]
        conclusion = "inconclusive"
    return AtomicityVerdict(check, series, conclusion, transcript)


# --- weak-convergence and singularity diagnostics --------------------------------

def weak_distance(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Bounded-Lipschitz-style distance: greedy transport between the top-K
    atoms plus total variation of the leftovers on the fixed partition.

    Symmetric; zero exactly when the matched heavy atoms coincide and the
    remaining mass agrees on every partition cell.
    """
    if mu.dim != nu.dim:
        raise ValueError("measures live on different boundary dimensions")
    pa, wa = mu.top_atoms(TOP_K_ATOMS)
    pb, wb = nu.top_atoms(TOP_K_ATOMS)
    wa = wa.copy()
    wb = wb.copy()
    ea, eb = embed3(pa), embed3(pb)
    dist = np.linalg.norm(ea[:, None, :] - eb[None, :, :], axis=2)
    transport = 0.0
    moved_a = np.zeros_like(wa)
    moved_b = np.zeros_like(wb)
    active = np.ones_like(dist, dtype=bool)
    while np.any(active) and wa.sum() > 1e-15 and wb.sum() > 1e-15:
        masked = np.where(active, dist, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        if not math.isfinite(masked[i, j]):
            break
        m = min(wa[i], wb[j])
        if m > 0.0:
            transport += m * dist[i, j]
            wa[i] -= m
            wb[j] -= m
            moved_a[i] += m
            moved_b[j] += m
        active[i, j] = False
        if wa[i] <= 1e-15:
            active[i, :] = False
        if wb[j] <= 1e-15:
            active[:, j] = False
    cells_a = _cell_masses(mu.points, mu.weights, mu.dim, DEFAULT_CELLS)
    cells_b = _cell_masses(nu.points, nu.weights, nu.dim, DEFAULT_CELLS)
    cells_a -= _cell_masses(pa, moved_a, mu.dim, DEFAULT_CELLS)
    cells_b -= _cell_masses(pb, moved_b, nu.dim, DEFAULT_CELLS)
    return float(transport + 0.5 * np.sum(np.abs(cells_a - cells_b)))


def singularity_diagnostic(mu: AtomicMeasure, nu: AtomicMeasure,
                           eps: float) -> tuple[float, float]:
    """(mass of mu within eps of supp nu, mass of nu within eps of supp mu)."""
    if not eps > 0.0:   # NaN included
        raise ValueError("eps must be positive")
    ea, eb = embed3(mu.points), embed3(nu.points)
    da, db = _nearest_distances(ea, eb), _nearest_distances(eb, ea)
    overlap_a = float(math.fsum(mu.weights[da <= eps].tolist()))
    overlap_b = float(math.fsum(nu.weights[db <= eps].tolist()))
    return overlap_a, overlap_b


def support_gap(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Smallest distance between the two atom sets (inf when either is empty)."""
    return float(np.min(_nearest_distances(embed3(mu.points), embed3(nu.points)),
                        initial=np.inf))


def _nearest_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each row of ``a`` to the nearest row of ``b`` (points
    of the closed ball, (n, 3); inf when ``b`` is empty), as a KD-tree query
    computes it: squares summed as (d0^2 + d1^2) + d2^2, the root last.

    The nearer of a row's two neighbours in the order of a Z-order curve
    through 1024^3 cells, then of first coordinates, bounds its squared
    distance.  Only the rows of ``b`` whose coordinate k is within the
    bound's root are compared, k the axis along which ``b`` spreads most
    (its widest range), which is exact: a rounded sum of squares is never
    below its rounded term fl(dk^2).
    """
    n, m = a.shape[0], b.shape[0]
    if not m:
        return np.full(n, np.inf)
    cell = np.clip((np.concatenate([a, b]) + 1.0) * 511.5, 0, 1023).astype(np.int64)
    for shift, mask in ((16, 0x30000FF), (8, 0x300F00F), (4, 0x30C30C3), (2, 0x9249249)):
        cell = (cell | cell << shift) & mask   # each axis' 10 bits, spread 3 apart
    keys = (cell[:, 0] << 2 | cell[:, 1] << 1 | cell[:, 2]) + 1j * np.append(a[:, 0], b[:, 0])
    order = np.argsort(keys[n:])
    at = np.clip(np.searchsorted(keys[n:][order], keys[:n]) - 1, 0, max(m - 2, 0))
    bound = _window_minima(a, b[order], at, np.minimum(at + 2, m))
    # fl(dk^2) <= bound implies |dk| <= sqrt(bound) / (1 - 2^-53)^1.5, below the
    # rounded reach, or |dk| < 2^-510 where the square falls below 2^-1022
    reach = np.sqrt(bound) * (1.0 + 2.0 ** -50) + 2.0 ** -510
    k = int(np.argmax(np.ptp(b, axis=0)))
    b = b[np.argsort(b[:, k])]
    lo = np.searchsorted(b[:, k], a[:, k] - reach, side="left")
    hi = np.searchsorted(b[:, k], a[:, k] + reach, side="right")
    return np.sqrt(_window_minima(a, b, lo, hi))


def _window_minima(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The least squared distance from each ``a[i]`` to ``b[lo[i]:hi[i]]``
    (inf for an empty window), over at most ``NEAREST_PAIRS`` pairs at a time."""
    out = np.full(a.shape[0], np.inf)
    rows = np.flatnonzero(hi > lo)
    ends = np.cumsum(hi[rows] - lo[rows])
    for start in range(0, int(ends[-1]) if rows.shape[0] else 0, NEAREST_PAIRS):
        stop = min(start + NEAREST_PAIRS, int(ends[-1]))
        part = slice(np.searchsorted(ends, start, side="right"), np.searchsorted(ends, stop) + 1)
        r, end = rows[part], ends[part]
        counts = np.minimum(end, stop) - np.maximum(end - (hi[r] - lo[r]), start)
        row, col = np.repeat(r, counts), np.repeat(hi[r] - end, counts) + np.arange(start, stop)
        sq = (a[row, 0] - b[col, 0]) ** 2 + (a[row, 1] - b[col, 1]) ** 2
        sq += (a[row, 2] - b[col, 2]) ** 2
        out[r] = np.minimum(out[r], np.minimum.reduceat(sq, np.cumsum(counts) - counts))
    return out
