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

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TargetNotInDomainClosure
from .group import (SLAB_WORDS, DeclaredStabilizer, LevelSums, QuotientSpec,
                    SchottkyGroup, walk)
from .mobius import (apply_boundary_raw, apply_halfspace_raw, apply_interior_raw,
                     ball_to_halfspace, boundary_derivative_raw, halfspace_to_ball,
                     interior_derivative_raw)
from .model import BoundaryPoint, InteriorPoint, embed3
from .series import SeriesResult, TailCertificate, boundary_values, finish_series

# Atoms are coalesced only when indistinguishable at float resolution.  A
# coarser merge (1e-12 was tried) misattributes mass across cells where the
# derivative field varies violently, and breaks the conformality-residual
# budget for strongly contracting generator families.
MERGE_TOL = 1e-15
MASS_TOL = 1e-12
DEFAULT_CELLS = 64
TOP_K_ATOMS = 32
PARTITION_OFFSET = 0.5 * (math.sqrt(5.0) - 1.0)  # keeps atoms off cell edges


# --- the measure value type ---------------------------------------------------

@dataclass
class AtomicMeasure:
    """Finitely many atoms in the closed ball with unit total mass.

    ``points`` are ambient coordinates (norm 1 for boundary-supported
    measures, < 1 for orbit measures), ``word_lengths`` the word length
    that produced each atom.  ``series`` is the normalizing partial sum.
    """

    points: np.ndarray
    weights: np.ndarray
    word_lengths: np.ndarray
    dim: int
    source: str
    exponent: float
    depth: int
    boundary_supported: bool
    series: SeriesResult | None = None
    meta: dict = field(default_factory=dict)
    # the depth shell the conformality residual pairs, kept by its first call
    _shell: "_Shell | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def atom_count(self) -> int:
        return int(self.points.shape[0])

    def total_mass(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    def max_atom_weight(self) -> float:
        return float(np.max(self.weights))

    def shell_mass(self, length: int | None = None) -> float:
        """Mass contributed by words of the given length (default: the depth).

        Reads the normalizing series' level sums when available, which stays
        correct even when atoms of different lengths coalesce.
        """
        length = self.depth if length is None else length
        if self.series is not None and length < len(self.series.level_sums):
            return self.series.level_sums[length] / self.series.partial_sum
        return float(math.fsum(self.weights[self.word_lengths == length].tolist()))

    def top_atoms(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        order = np.lexsort((np.arange(self.atom_count), -self.weights))[:k]
        return self.points[order], self.weights[order]

    def directions(self) -> np.ndarray:
        """Radial projections of the atoms onto the boundary sphere."""
        norms = np.linalg.norm(self.points, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        return self.points / safe[:, None]

    def weight_at(self, point: BoundaryPoint | InteriorPoint,
                  tol: float = 1e-9) -> float:
        d = np.linalg.norm(self.points - point.coords[None, :], axis=1)
        return float(math.fsum(self.weights[d <= tol].tolist()))

    def to_csv(self, path) -> None:
        """Columns x[,y][,z], weight, word_length; rows by descending weight."""
        order = np.lexsort((np.arange(self.atom_count), -self.weights))
        headers = ["x", "y", "z"][: self.dim + 1] + ["weight", "word_length"]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(headers)
            for i in order:
                row = [repr(float(c)) for c in self.points[i]]
                row += [repr(float(self.weights[i])), int(self.word_lengths[i])]
                writer.writerow(row)


def _snapped_keys(points: np.ndarray) -> np.ndarray:
    """One row of integers per atom: its coordinates snapped to the merge grid."""
    return np.round(points / MERGE_TOL).astype(np.int64)


def _void_keys(keys: np.ndarray) -> np.ndarray:
    """Rows of ``keys`` as single (void) values that sort like the rows do,
    lexicographically: offset to unsigned and stored big-endian."""
    ordered = (keys.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8")
    return ordered.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


def _merge_atoms(points: np.ndarray, weights: np.ndarray,
                 lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce atoms closer than the merge tolerance (grid snap), keeping
    the earliest representative and summing weights.

    The one-shot form of :class:`_AtomStream`, which merges batch by batch
    to the same bits."""
    _, first_idx, inverse = np.unique(_void_keys(_snapped_keys(points)),
                                      return_index=True, return_inverse=True)
    merged_w = np.zeros(first_idx.shape[0])
    np.add.at(merged_w, inverse, weights)
    merged_l = np.full(first_idx.shape[0], np.iinfo(np.int32).max, dtype=np.int64)
    np.minimum.at(merged_l, inverse, lengths.astype(np.int64))
    order = np.argsort(first_idx, kind="stable")
    return points[first_idx[order]], merged_w[order], merged_l[order]


class _AtomStream:
    """Atoms merged as a walk yields them, equal bit for bit to one
    :func:`_merge_atoms` of every atom so far.

    Each batch's distinct keys are mapped to atom ids (new keys numbered in
    order of first appearance) and its weights are added into the running
    totals in enumeration order, so every atom gets the same representative
    and the same summation order as in the one-shot merge.  ``close(length)``
    keeps the totals at the end of a level, so ``at(depth)`` can give the
    merge of the words of length <= depth.
    """

    def __init__(self, width: int):
        self._keys = np.empty(0, dtype=np.dtype((np.void, 8 * width)))   # sorted
        self._ids = np.empty(0, dtype=np.int64)       # atom id of each sorted key
        self._points = [np.empty((0, width))]         # representatives by id
        self._lengths = [np.empty(0, dtype=np.int64)]
        self._totals = np.zeros(0)
        self._closed: dict[int, np.ndarray] = {}      # level -> totals at its end

    def add(self, points: np.ndarray, weights: np.ndarray, length: int) -> None:
        if not points.shape[0]:
            return
        # the batch's distinct keys: a stable sort keeps equal keys in word
        # order, so the head of each run is its first word
        snapped = _snapped_keys(points)
        order = np.lexsort(snapped.T[::-1])
        ranked = snapped[order]
        heads = np.concatenate([[True], np.any(ranked[1:] != ranked[:-1], axis=1)])
        first = order[heads]
        inverse = np.empty(order.shape[0], dtype=np.int64)
        inverse[order] = np.cumsum(heads) - 1
        keys = _void_keys(ranked[heads])   # sorted, as the rows were
        # ... mapped to atom ids through the sorted table of every key so far
        pos = np.searchsorted(self._keys, keys)
        known = pos < self._keys.shape[0]
        known[known] = self._keys[pos[known]] == keys[known]
        ids = np.empty(keys.shape[0], dtype=np.int64)
        ids[known] = self._ids[pos[known]]
        new = np.flatnonzero(~known)
        if new.shape[0]:
            by_appearance = new[np.argsort(first[new], kind="stable")]
            ids[by_appearance] = self._totals.shape[0] + np.arange(new.shape[0])
            self._keys = np.insert(self._keys, pos[new], keys[new])
            self._ids = np.insert(self._ids, pos[new], ids[new])
            self._points.append(points[first[by_appearance]])
            self._lengths.append(np.full(new.shape[0], length, dtype=np.int64))
            self._totals = np.concatenate([self._totals, np.zeros(new.shape[0])])
        np.add.at(self._totals, ids[inverse], weights)

    def close(self, length: int) -> None:
        self._closed[length] = self._totals.copy()

    def at(self, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged (points, weights, lengths) of the words of length <= depth.

        Without a closed level ``depth`` the walk stopped at or before it,
        so every atom so far is in the prefix.
        """
        totals = self._closed.get(depth, self._totals)
        n = totals.shape[0]
        return np.concatenate(self._points)[:n], totals, np.concatenate(self._lengths)[:n]


# --- synthesis ------------------------------------------------------------------

def orbit_measure(group: SchottkyGroup, z: InteriorPoint, s: float, max_length: int,
                  budget: int | None = None) -> AtomicMeasure:
    """Normalized point masses j(w, z)^s at the orbit points w(z), w of length <= L."""
    return ending_measures(group, (), s, max_length, budget=budget,
                           orbit_points=[z])(max_length)[0]


def ending_measure(group: SchottkyGroup, zeta: BoundaryPoint, s: float,
                   max_length: int,
                   stab: DeclaredStabilizer | None = None,
                   kernel: QuotientSpec | None = None,
                   budget: int | None = None,
                   tail: TailCertificate | None = None,
                   check_domain: bool = True) -> AtomicMeasure:
    """Normalized point masses j(w, zeta)^s at the boundary orbit of the target.

    ``stab`` declares the stabilizer of ``zeta``; the sum then runs over
    the canonical coset transversal (the complement kernel).  ``kernel``
    instead restricts the whole construction to a normal subgroup given as
    a quotient kernel (the measure for that subgroup); the two are
    mutually exclusive.  The normalizing series verdict is attached, never
    hidden: a truncation of a divergent series stays flagged.
    """
    return ending_measures(group, [zeta], s, max_length, stab=stab, kernel=kernel,
                           budget=budget, tail=tail,
                           check_domain=check_domain)(max_length)[0]


def ending_measures(group: SchottkyGroup, targets, s: float, max_length: int,
                    stab: DeclaredStabilizer | None = None,
                    kernel: QuotientSpec | None = None,
                    budget: int | None = None,
                    tail: TailCertificate | None = None,
                    check_domain: bool = True, *, orbit_points=(),
                    sums=(), consumers=(), on_level=()):
    """The ending measures of :func:`ending_measure` at several targets and
    depths, from one walk to ``max_length``.

    Returns ``at(depth)``, the tuple of measures for any depth up to
    ``max_length``: one per target, then the orbit measure of each interior
    point in ``orbit_points``.  Each merges the atoms of the words of length
    <= depth (a prefix of the enumeration order) and is normalized by that
    depth's own level blocks, so it is bit for bit the measure
    ``ending_measure`` (or ``orbit_measure``) builds at that depth, budget
    cut included.  Orbit measures sum the whole group without a tail, so
    they share no walk with a stabilizer, a kernel or a tail.

    Extra ``sums``, ``consumers`` and ``on_level`` hooks ride on the walk;
    a consumer's ``kept`` holds the measures' values first, then those of
    ``sums``.  ``at.walk`` is the :class:`~kleinian.group.Walk` and
    ``at.blocks`` the measures' :class:`~kleinian.group.LevelSums`, closed
    at the depth of the last ``at`` call.
    """
    if stab is not None and kernel is not None:
        raise ValueError("pass a stabilizer or a kernel restriction, not both")
    reduced = stab is not None and bool(stab.labels)   # over a coset transversal
    if orbit_points and (kernel is not None or tail is not None or reduced):
        raise ValueError("orbit measures sum the whole group without a tail")
    if check_domain:
        for zeta in targets:
            _check_target(group, zeta, stab, kernel)
    spec = stab.quotient_for(group) if reduced else kernel
    # per measure: its point, the values j(w, .)^s and where its atoms sit
    streams = []
    for zeta in targets:
        bc = embed3(zeta.coords)
        streams.append((zeta, boundary_values(zeta, s),
                        lambda mats, bc=bc: apply_boundary_raw(mats, bc)))
    for z in orbit_points:
        zc = embed3(z.coords)
        streams.append((z, lambda batch, zc=zc: interior_derivative_raw(batch.mats, zc) ** s,
                        lambda mats, zc=zc: apply_interior_raw(mats, zc)))
    blocks = [LevelSums(values) for _, values, _ in streams]
    atoms = [_AtomStream(group.dim + 1) for _ in streams]

    def collect(batch, words, kept) -> None:
        for i, (_, _, place) in enumerate(streams):
            atoms[i].add(place(words.mats)[:, : group.dim + 1], kept[i], batch.length)

    def close(length: int) -> None:
        if length < max_length:   # the top level's totals are the final ones
            for merged in atoms:
                merged.close(length)

    done = walk(group, max_length, budget, kernel=spec, sums=[*blocks, *sums],
                consumers=[collect, *consumers], on_level=[close, *on_level])

    def at(depth: int) -> tuple[AtomicMeasure, ...]:
        upto = done.upto(depth)
        out = []
        for i, (point, _, _) in enumerate(streams):
            boundary = i < len(targets)
            blocks[i].finish(depth, upto.depth_completed)
            series = finish_series(upto, blocks[i], s, tail, incomplete_cosets=reduced)
            points, weights, lengths = atoms[i].at(depth)
            meta = {"target" if boundary else "base_point": point.coords.tolist(),
                    "enumeration": {"group": group, "point": embed3(point.coords),
                                    "kind": "boundary" if boundary else "interior",
                                    "kernel": spec, "budget": budget}}
            if kernel is not None:
                meta["domain_check"] = ("skipped (subgroup measure; the subgroup's "
                                        "domain is larger)")
            out.append(AtomicMeasure(points, weights / series.partial_sum, lengths,
                                     group.dim, "ending" if boundary else "orbit", s,
                                     depth, boundary_supported=boundary, series=series,
                                     meta=meta))
        return tuple(out)

    at.walk = done
    at.blocks = blocks
    return at


def _check_target(group: SchottkyGroup, zeta: BoundaryPoint,
                  stab: DeclaredStabilizer | None,
                  kernel: QuotientSpec | None) -> None:
    if kernel is not None:
        return  # the subgroup's fundamental domain is larger than the group's
    exempt: set[str] = set(stab.labels) if stab is not None else set()
    for name, disc in group.discs():
        if name[:-1] in exempt:
            continue  # a declared stabilizer's own disc may cover its fixed point
        if disc.chordal_distance(zeta) < disc.radius - 1e-12:
            raise TargetNotInDomainClosure(
                f"target {zeta.coords} lies inside open generator disc {name}")


# --- conformality --------------------------------------------------------------

def _cell_index(directions: np.ndarray, dim: int, cells: int) -> np.ndarray:
    """Deterministic partition of the boundary into arcs (S^1) or a
    longitude/latitude grid (S^2), rotated by an irrational offset so that
    atom images do not straddle cell edges."""
    if dim == 1:
        ang = np.arctan2(directions[:, 1], directions[:, 0])
        frac = (ang / (2.0 * math.pi) + PARTITION_OFFSET) % 1.0
        return np.minimum((frac * cells).astype(np.int64), cells - 1)
    lon_cells = int(round(math.sqrt(cells)))
    lat_cells = cells // lon_cells
    lon = np.arctan2(directions[:, 2], directions[:, 1])
    lat = np.arccos(np.clip(directions[:, 0], -1.0, 1.0))
    lon_frac = (lon / (2.0 * math.pi) + PARTITION_OFFSET) % 1.0
    i = np.minimum((lon_frac * lon_cells).astype(np.int64), lon_cells - 1)
    j = np.minimum((lat / math.pi * lat_cells).astype(np.int64), lat_cells - 1)
    return i * lat_cells + j


def _cell_masses(points: np.ndarray, weights: np.ndarray, dim: int,
                 cells: int) -> np.ndarray:
    emb = embed3(points)
    norms = np.linalg.norm(emb, axis=1)
    dirs = emb / np.where(norms > 0, norms, 1.0)[:, None]
    idx = _cell_index(dirs, dim, cells)
    out = np.zeros(cells)
    np.add.at(out, idx, weights)
    return out


def conformality_residual(mu: AtomicMeasure, g, s: float,
                          cells: int = DEFAULT_CELLS) -> float:
    """Worst cell defect of the transformation rule mu(g A) = int_A j(g,.)^s dmu.

    Exact conformal measures give zero; depth-L truncations leak only the
    words whose g-translate crosses the depth boundary, so the residual is
    controlled by the mass of the depth shell.

    For a measure synthesized from a word enumeration of the whole group,
    and a generator or inverse ``g``, the two sides are paired word by word
    through the chain rule, under which all interior terms cancel
    identically and only the depth-shell stragglers remain; this keeps the
    computation meaningful even when distinct deep atoms are closer than
    float resolution.  The first such call walks the measure's words once
    (its depth and budget cut) and keeps the depth shell on the measure;
    every later call, with any ``g`` or ``s``, is arithmetic on that record.
    Other measures (restricted to a subgroup, or without enumeration data)
    and other transforms fall back to the direct atom formula.
    """
    enum = mu.meta.get("enumeration")
    letters = (_letters_of(enum["group"], g)
               if enum is not None and enum.get("kernel") is None else (-2, -2))
    residual = (_conformality_residual_paired(mu, g, s, cells, enum, letters)
                if letters[0] >= 0 else _conformality_residual_direct(mu, g, s, cells))
    if math.isnan(residual):
        raise FloatingPointError("the conformality residual is NaN")
    return residual


def _conformality_residual_direct(mu: AtomicMeasure, g, s: float, cells: int) -> float:
    """The transformation rule checked on the atoms as they stand."""
    emb = embed3(mu.points)
    ginv = g.inverse()
    if mu.boundary_supported:
        pre = apply_boundary_raw(ginv.matrix[None, :, :], emb)
        jvals = boundary_derivative_raw(g.matrix, emb)
    else:
        pre = apply_interior_raw(ginv.matrix[None, :, :], emb)
        jvals = _interior_derivative_at_points(g, emb)
    lhs = _cell_masses(pre, mu.weights, mu.dim, cells)        # mass of g(A_i)
    rhs_weights = (jvals ** s) * mu.weights
    rhs = _cell_masses(emb, rhs_weights, mu.dim, cells)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class _Shell:
    """The words of length ``mu.depth`` of a measure's walk, in enumeration
    order: first letters (-1 for the identity), raw derivatives j(v, p) at
    the base point p, and v(p) in ball coordinates; for an interior p also
    the exact half-space coordinates (z, t) of v(p).
    """

    first: np.ndarray
    jraw: np.ndarray
    points: np.ndarray
    z: np.ndarray | None = None
    t: np.ndarray | None = None
    # (cell count, slab start) -> the cell of each v(p), which no g changes
    cells: dict = field(default_factory=dict)


def _record_shell(mu: AtomicMeasure, enum: dict) -> _Shell:
    """One walk of ``mu``'s words (its depth and budget), keeping the shell."""
    group: SchottkyGroup = enum["group"]
    point3 = embed3(np.asarray(enum["point"]))
    boundary = enum["kind"] == "boundary"
    depth = mu.depth
    # the words below a level-1 word are contiguous: (2k-1)^(L-1) at level L
    below = (group.letter_count - 1) ** (depth - 1) if depth > 0 else 1
    parts: list[tuple] = []

    def shell(batch, words, kept) -> None:
        if batch.length != depth:
            return
        index = batch.offset + np.arange(batch.last.shape[0])
        first = (index // below if depth > 0 else np.full(1, -1)).astype(np.int16)
        if boundary:
            parts.append((first, boundary_derivative_raw(batch.mats, point3),
                          apply_boundary_raw(batch.mats, point3)))
        else:
            z, t = apply_halfspace_raw(batch.mats, *ball_to_halfspace(point3))
            parts.append((first, interior_derivative_raw(batch.mats, point3),
                          halfspace_to_ball(z, t), z, t))

    walk(group, depth, enum.get("budget"), consumers=[shell])
    if not parts:   # the walk was cut before its top level
        return _Shell(np.empty(0, dtype=np.int16), np.empty(0), np.empty((0, 3)))
    return _Shell(*(np.concatenate(column) for column in zip(*parts)))


def _conorm(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """1 - |x|^2 of the ball point x at half-space coordinates (z, t), exactly."""
    return 4.0 * t / (np.abs(z) ** 2 + (t + 1.0) ** 2)


def _conformality_residual_paired(mu: AtomicMeasure, g, s: float, cells: int,
                                  enum: dict, letters: tuple[int, int]) -> float:
    """Residual via the exact word pairing w = g v, on the depth shell.

    Every word v with |g v| <= L contributes j(g v, p)^s at the cell of
    v(p) to both sides, cancelling exactly.  What remains per cell is

      + weight(w)        for |w| = L not starting with the g letter,
                         binned at g^{-1} w (p)     [mu(g A) keeps them]
      - j(g v, p)^s/S    for |v| = L not starting with the g^{-1} letter,
                         binned at v(p)             [the integral keeps them]

    both of which are depth-shell terms.  With the chain rule
    j(g v, p) = j(g, v(p)) j(v, p) both come from the shell record: the
    positions v(p), moved by g^{-1} and differentiated by g, and the raw
    j(v, p).  Slabs of ``SLAB_WORDS`` words are binned in walk order.
    """
    if mu._shell is None:
        mu._shell = _record_shell(mu, enum)
    shell = mu._shell
    g_letter, ginv_letter = letters
    ginv = g.inverse()
    scale = mu.series.partial_sum
    net = np.zeros(cells)

    def bin_of(points: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(points, axis=1)
        dirs = points / np.where(norms > 0, norms, 1.0)[:, None]
        return _cell_index(dirs, mu.dim, cells)

    for lo in range(0, shell.first.shape[0], SLAB_WORDS):
        part = slice(lo, lo + SLAB_WORDS)
        if shell.z is None:
            pre = apply_boundary_raw(ginv.matrix, shell.points[part])
            jg = boundary_derivative_raw(g.matrix, shell.points[part])
        else:
            z, t = shell.z[part], shell.t[part]
            pre = halfspace_to_ball(*apply_halfspace_raw(ginv.matrix, z, t))
            jg = _conorm(*apply_halfspace_raw(g.matrix, z, t)) / _conorm(z, t)
        if (cells, lo) not in shell.cells:
            shell.cells[cells, lo] = bin_of(shell.points[part])
        jw = shell.jraw[part] ** s
        keep_lhs = shell.first[part] != g_letter
        keep_rhs = shell.first[part] != ginv_letter
        np.add.at(net, bin_of(pre)[keep_lhs], jw[keep_lhs] / scale)
        np.subtract.at(net, shell.cells[cells, lo][keep_rhs],
                       (jg ** s * jw)[keep_rhs] / scale)
    return float(np.max(np.abs(net)))


def _letters_of(group: SchottkyGroup, g) -> tuple[int, int]:
    """Letter indices of a generator transform and its inverse (-2 if absent).

    Matrices are compared projectively at a relative tolerance, so a letter
    re-normalized on its way in (``group.letter_transform(e)``) is matched.
    """
    for idx, gen in enumerate(group.generators):
        if _projectively_close(gen.transform.matrix, g.matrix):
            return 2 * idx, 2 * idx + 1
        if _projectively_close(gen.transform.inverse().matrix, g.matrix):
            return 2 * idx + 1, 2 * idx
    return -2, -2


def _projectively_close(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` and ``b`` are proportional up to a relative 1e-9: every
    2x2 minor of their entry vectors, side by side, is that small against
    the product of their largest entries."""
    u, v = a.reshape(4), b.reshape(4)
    minors = np.outer(u, v) - np.outer(v, u)
    return float(np.max(np.abs(minors))) <= 1e-9 * float(np.max(np.abs(u)) * np.max(np.abs(v)))


def _interior_derivative_at_points(g, points3: np.ndarray) -> np.ndarray:
    """j(g, x) = (1 - |g x|^2) / (1 - |x|^2) at ball points x.

    Both co-norms come from the half-space identity 1 - |eta|^2 = 4 t / d,
    d = |z|^2 + (t + 1)^2, and g divides t by |c z + d|^2 + |c|^2 t^2, so
    the ratio is formed without 1 - |x|^2 and without dividing by t, either
    of which rounds to nothing near the sphere.
    """
    z, t = ball_to_halfspace(points3)
    z2, t2 = apply_halfspace_raw(g.matrix, z, t)
    c, d = g.matrix[1, 0], g.matrix[1, 1]
    stretch = np.abs(c * z + d) ** 2 + np.abs(c) ** 2 * t ** 2
    return (np.abs(z) ** 2 + (t + 1.0) ** 2) / (stretch * (np.abs(z2) ** 2 + (t2 + 1.0) ** 2))


# --- atomicity ------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerCheck:
    kind: str                 # all_derivatives_one | derivative_not_one | none_declared
    witness: str | None = None
    value: float | None = None


@dataclass
class AtomicityVerdict:
    """Outcome of the two-sided atom test at a boundary point.

    ``atom_at_target`` only ever holds with a unit-derivative stabilizer
    and a certified convergent reduced series; a growth witness with unit
    derivatives, or any non-unit stabilizer derivative, excludes the atom.
    """

    stabilizer_check: StabilizerCheck
    series: SeriesResult
    conclusion: str           # atom_at_target | no_atom_at_target | inconclusive
    transcript: dict = field(default_factory=dict)


def classify_atomicity(group: SchottkyGroup, zeta: BoundaryPoint, s: float,
                       stab: DeclaredStabilizer | None, max_length: int,
                       budget: int | None = None,
                       tail: TailCertificate | None = None,
                       precomputed_series: SeriesResult | None = None) -> AtomicityVerdict:
    """Decide atom-or-not at ``zeta`` from stabilizer derivatives and the
    reduced boundary series, per the two-condition criterion.

    ``precomputed_series`` skips the series enumeration when the caller
    already evaluated the reduced series for the same target and exponent.
    """
    from .series import reduced_horospherical_partial

    transcript: dict = {}
    if stab is None:
        check = StabilizerCheck("none_declared")
        transcript["stabilizer"] = ("no stabilizer declared; the unit-derivative "
                                    "condition cannot be assessed")
        series = precomputed_series if precomputed_series is not None else \
            reduced_horospherical_partial(group, zeta, s, max_length,
                                          stab=None, budget=budget, tail=tail)
        return AtomicityVerdict(check, series, "inconclusive", transcript)
    if not stab.labels:
        check = StabilizerCheck("all_derivatives_one")
        transcript["stabilizer"] = "trivial declaration; condition holds vacuously"
    else:
        check = StabilizerCheck("all_derivatives_one")
        for label in stab.labels:
            gen = group.generator(label)
            moved = gen.transform.apply_boundary(zeta)
            if float(np.linalg.norm(moved.coords - zeta.coords)) > 1e-8:
                raise ValueError(
                    f"declared stabilizer generator {label} does not fix the target")
            value = gen.transform.derivative_boundary(zeta)
            transcript.setdefault("stabilizer_derivatives", {})[label] = value
            if abs(value - 1.0) > 1e-9:
                check = StabilizerCheck("derivative_not_one", label, value)
                break
    if precomputed_series is not None:
        if (precomputed_series.exponent != s
                or precomputed_series.depth != max_length):
            raise ValueError("precomputed series does not match the request")
        series = precomputed_series
    else:
        series = reduced_horospherical_partial(group, zeta, s, max_length,
                                               stab=stab, budget=budget, tail=tail)

    if check.kind == "derivative_not_one":
        conclusion = "no_atom_at_target"
    elif series.verdict.kind == "converged_within":
        conclusion = "atom_at_target"
    elif series.verdict.kind == "growth_witness":
        conclusion = "no_atom_at_target"
    else:
        conclusion = "inconclusive"
    return AtomicityVerdict(check, series, conclusion, transcript)


# --- weak-convergence and singularity diagnostics --------------------------------

def weak_distance(mu: AtomicMeasure, nu: AtomicMeasure,
                  cells: int = DEFAULT_CELLS, top_k: int = TOP_K_ATOMS) -> float:
    """Bounded-Lipschitz-style distance: greedy transport between the top-K
    atoms plus total variation of the leftovers on the fixed partition.

    Symmetric; zero exactly when the matched heavy atoms coincide and the
    remaining mass agrees on every partition cell.
    """
    if mu.dim != nu.dim:
        raise ValueError("measures live on different boundary dimensions")
    pa, wa = mu.top_atoms(top_k)
    pb, wb = nu.top_atoms(top_k)
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
    cells_a = _cell_masses(mu.points, mu.weights, mu.dim, cells)
    cells_b = _cell_masses(nu.points, nu.weights, nu.dim, cells)
    cells_a -= _cell_masses(pa, moved_a, mu.dim, cells)
    cells_b -= _cell_masses(pb, moved_b, nu.dim, cells)
    return float(transport + 0.5 * np.sum(np.abs(cells_a - cells_b)))


def singularity_diagnostic(mu: AtomicMeasure, nu: AtomicMeasure,
                           eps: float) -> tuple[float, float]:
    """(mass of mu within eps of supp nu, mass of nu within eps of supp mu)."""
    # imported here: at module level scipy.spatial adds about 0.5 s to every command
    from scipy.spatial import cKDTree

    if eps <= 0.0:
        raise ValueError("eps must be positive")
    ea, eb = embed3(mu.points), embed3(nu.points)
    tree_b = cKDTree(eb)
    tree_a = cKDTree(ea)
    da, _ = tree_b.query(ea, k=1)
    db, _ = tree_a.query(eb, k=1)
    overlap_a = float(math.fsum(mu.weights[da <= eps].tolist()))
    overlap_b = float(math.fsum(nu.weights[db <= eps].tolist()))
    return overlap_a, overlap_b


def support_gap(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Smallest distance between the two atom sets."""
    from scipy.spatial import cKDTree

    tree = cKDTree(embed3(nu.points))
    d, _ = tree.query(embed3(mu.points), k=1)
    return float(np.min(d))
