"""Schottky-type groups: paired-disc generators and reduced-word machinery.

The enumeration engine works on whole word-length levels at a time with
numpy arrays: a level is its last letters plus its matrices, stored
component-major as one (2, 2, n) array so that every entry read or written
is contiguous.  Children are produced in breadth-first, parent-major /
letter-minor order, which makes the stream deterministic and the level
array double as the prefix cache.  A slab's children are one broadcast
product of its parents' matrices with a per-walk table of the letters that
may follow each last letter, so no parent matrix is gathered per child.
The final level of a deep run is emitted in slabs whose matrices are not
formed up front: a consumer that reads ``WordBatch.mats`` forms its slab
whole, and one that walks ``WordBatch.blocks`` forms cache-sized blocks
with the same product, so the top level's matrices are never held at
once.  Level sums take one correctly rounded sum per batch
(:func:`exact_sum`, equal to ``math.fsum``), then one per level.

A kernel walk also tracks each word's image under a retraction onto a free
group (:class:`QuotientTracker`): one integer key that reads the reduced
image as digits, and its length, which is 0 exactly on the kernel.

Letters are integers: generator ``i`` contributes letters ``2*i`` (the
generator) and ``2*i + 1`` (its inverse); ``letter ^ 1`` is the inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, DiscsOverlap, TargetNotInDomainClosure
from .mobius import Transform, image_disc, matmul_raw, pair_discs, parabolic_fixing
from .model import BoundaryPoint, Disc, InteriorPoint, embed3, project_dim

SLAB_WORDS = 1 << 20          # fixed, so partial sums are bit-reproducible
BLOCK_WORDS = 1 << 15         # words per block of WordBatch.blocks: fits in cache
PARABOLIC_POWER_CHECK = 30


# --- generators and the group -----------------------------------------------

@dataclass(frozen=True)
class Generator:
    """One generator: a transform pairing ``source`` onto ``target``.

    Loxodromic generators map Ext(source) onto Int(target); a parabolic
    generator has source == target (one disc around its fixed point) and
    every nonzero power maps the disc exterior inside.
    """

    label: str
    transform: Transform
    source: Disc
    target: Disc
    kind: str = "loxodromic"
    separation: float | None = None


@dataclass(frozen=True)
class Word:
    """A reduced word over the generator letters."""

    letters: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "id"
        if self.labels:
            return " ".join(self.labels[l] for l in self.letters)
        return " ".join(str(l) for l in self.letters)


class SchottkyGroup:
    """Finitely many disc-pairing generators acting on the ball of dimension N."""

    def __init__(self, dim: int, generators: Sequence[Generator]):
        if dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dim}")
        self.dim = dim
        self.generators = tuple(generators)
        self.letter_count = 2 * len(self.generators)
        mats = []
        labels = []
        sources = []
        targets = []
        for gen in self.generators:
            inv = gen.transform.inverse()
            mats.extend([gen.transform.matrix, inv.matrix])
            labels.extend([gen.label, gen.label + "^-1"])
            sources.extend([gen.source, gen.target])
            targets.extend([gen.target, gen.source])
        # a dimension-1 group acts by real matrices, so its walks carry float64
        letters = np.stack(mats) if mats else np.zeros((0, 2, 2), dtype=complex)
        self.letter_matrices = np.ascontiguousarray(letters.real) if dim == 1 else letters
        self.letter_labels = tuple(labels)
        self.letter_sources = tuple(sources)
        self.letter_targets = tuple(targets)
        self._validate()

    # -- construction helpers --

    @classmethod
    def trivial(cls, dim: int) -> "SchottkyGroup":
        """The trivial group (no generators); its only word is the identity."""
        return cls(dim, [])

    @classmethod
    def from_disc_pairs(cls, dim: int, pairs: Sequence[tuple[Disc, Disc]],
                        labels: Sequence[str] | None = None,
                        separations: Sequence[float] | None = None) -> "SchottkyGroup":
        if labels is None:
            labels = [chr(ord("a") + i) for i in range(len(pairs))]
        gens = []
        for i, (plus, minus) in enumerate(pairs):
            sep = separations[i] if separations is not None else None
            try:
                transform = pair_discs(plus, minus)
            except DiscsOverlap as exc:
                raise DiscsOverlap(f"pair {labels[i]!r}: {exc}") from exc
            gens.append(Generator(labels[i], transform, plus, minus,
                                  "loxodromic", sep))
        return cls(dim, gens)

    @classmethod
    def free_product(cls, *groups: "SchottkyGroup") -> "SchottkyGroup":
        """Combine generator lists; all discs must stay pairwise disjoint."""
        dims = {g.dim for g in groups}
        if len(dims) != 1:
            raise ValueError("free product factors must share a dimension")
        gens: list[Generator] = []
        for g in groups:
            gens.extend(g.generators)
        return cls(dims.pop(), gens)

    def with_parabolic(self, label: str, disc: Disc,
                       strength: float = 4.0) -> "SchottkyGroup":
        """Extend by a parabolic generator fixing the center of ``disc``."""
        p = parabolic_fixing(disc, strength)
        gen = Generator(label, p, disc, disc, "parabolic")
        return SchottkyGroup(self.dim, self.generators + (gen,))

    # -- validation --

    def discs(self) -> list[tuple[str, Disc]]:
        """All distinct generator discs with their owning labels."""
        out = []
        for gen in self.generators:
            out.append((gen.label + "+", gen.source))
            if gen.kind != "parabolic":
                out.append((gen.label + "-", gen.target))
        return out

    def _validate(self) -> None:
        discs = self.discs()
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                if not discs[i][1].is_disjoint_from(discs[j][1]):
                    raise DiscsOverlap(
                        f"generator discs {discs[i][0]} and {discs[j][0]} overlap "
                        f"(angular gap {discs[i][1].angular_gap(discs[j][1]):.3e})")
        for e in range(self.letter_count):
            t = Transform(self.letter_matrices[e], self.dim)
            src, tgt = self.letter_sources[e], self.letter_targets[e]
            for _, disc in discs:
                if disc is src:
                    continue
                img = image_disc(t, disc)
                if not tgt.contains_disc(img):
                    raise DiscsOverlap(
                        f"ping-pong failure: {self.letter_labels[e]} does not map "
                        f"disc at {disc.center.coords} inside its target")
        for gen in self.generators:
            if gen.kind == "parabolic":
                self._check_parabolic_powers(gen)

    def _check_parabolic_powers(self, gen: Generator) -> None:
        # Ext(source) is itself a disc: the complementary cap.
        ext = Disc(BoundaryPoint(project_dim(-embed3(gen.source.center.coords), self.dim)),
                   math.sqrt(max(0.0, 4.0 - gen.source.radius ** 2)))
        for sign_mat in (gen.transform.matrix, gen.transform.inverse().matrix):
            power = np.eye(2, dtype=complex)
            for _ in range(PARABOLIC_POWER_CHECK):
                power = power @ sign_mat
                img = image_disc(Transform(power, self.dim), ext)
                if not gen.source.contains_disc(img):
                    raise DiscsOverlap(
                        f"parabolic generator {gen.label}: some power leaks out of its disc "
                        "(increase the strength or shrink the disc)")

    # -- queries --

    def letter_transform(self, letter: int) -> Transform:
        return Transform(self.letter_matrices[letter], self.dim)

    def generator(self, label: str) -> Generator:
        for gen in self.generators:
            if gen.label == label:
                return gen
        raise KeyError(f"no generator labelled {label!r}")

    def fundamental_domain_contains(self, zeta: BoundaryPoint) -> bool:
        """True iff ``zeta`` lies in the closed exterior of every generator disc."""
        for _, disc in self.discs():
            if disc.chordal_distance(zeta) < disc.radius - 1e-12:
                return False
        return True

    def word_transform(self, word: Word | Sequence[int]) -> Transform:
        letters = word.letters if isinstance(word, Word) else tuple(word)
        mat = np.eye(2, dtype=complex)
        for letter in letters:
            mat = mat @ self.letter_matrices[letter]
        return Transform(mat, self.dim, _trusted_unit_det=True)


# --- the level engine ---------------------------------------------------------

@dataclass
class WordBatch:
    """A contiguous run of words of one length, in enumeration order.

    ``parent`` holds indices into the previous level's (kept) words;
    ``offset`` is the index of the batch's first word within its level.
    A batch made by :meth:`select`, or by a pruned walk, holds some of a
    run's words and keeps their ``rows`` in it: word i of the batch is word
    ``offset + rows[i]`` of its level.

    A top-level slab of an unpruned walk comes with its matrices unformed
    (``children``): the first read of :attr:`mats` forms the whole slab,
    while :meth:`blocks` forms one cache-sized block at a time and keeps
    none of them.  Either way each matrix is the same product, bit for bit.
    """

    length: int
    offset: int
    last: np.ndarray       # (m,) int16 letters, -1 for the identity
    parent: np.ndarray     # (m,) int64 indices into the previous level
    formed: np.ndarray | None   # the matrices, once formed (see ``mats``)
    final: bool            # True when this batch completes its level
    rows: np.ndarray | None = None   # (m,) rows in the batch selected from
    image: np.ndarray | None = None  # (m,) image lengths on a tracked walk
    children: _Children | None = None   # how to form ``mats`` when not yet formed

    @property
    def mats(self) -> np.ndarray:
        """(m, 2, 2) float64 matrices in dimension 1, complex128 in 2."""
        if self.formed is None and self.children is not None:
            self.formed, self.children = self.children.whole(), None
        return self.formed

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The matrices in consecutive blocks of about ``BLOCK_WORDS`` words,
        as (row of the block's first word, its (n, 2, 2) matrices).  Unformed
        matrices are formed block by block and stay unformed."""
        if self.children is not None:
            yield from self.children.blocks(BLOCK_WORDS)
            return
        for lo in range(0, self.last.shape[0], BLOCK_WORDS):
            yield lo, self.mats[lo:lo + BLOCK_WORDS]

    def select(self, keep: np.ndarray) -> "WordBatch":
        """The words flagged by the boolean mask ``keep``, in order."""
        rows = np.flatnonzero(keep)
        return WordBatch(self.length, self.offset, self.last[rows], self.parent[rows],
                         self.mats[rows], self.final,
                         rows if self.rows is None else self.rows[rows])


def _products(parents: np.ndarray, keys: np.ndarray, table: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """The children of the parents, (2, 2, p, b): one broadcast product of
    their matrices ``parents`` (2, 2, p) with the successor matrices
    ``table[:, :, key]`` of their last letters ``keys``."""
    if out is None:
        out = np.empty(parents.shape + table.shape[3:], dtype=table.dtype)
    matmul_raw(_matrices(parents[:, :, :, None]),
               _matrices(np.take(table, keys, axis=2)), _matrices(out))
    return out


@dataclass
class _Children:
    """The unformed matrices of a top-level slab: children ``words`` of the
    parents whose matrices ``parents`` are a (2, 2, p) view of the prefix
    cache, with last letters ``keys``; ``table`` is the walk's (2, 2, 2k, b)
    successor table."""

    parents: np.ndarray
    keys: np.ndarray
    table: np.ndarray
    words: slice

    def whole(self) -> np.ndarray:
        mats = _products(self.parents, self.keys, self.table).reshape(2, 2, -1)
        mats = _matrices(mats[:, :, self.words])
        mats.flags.writeable = False
        return mats

    def blocks(self, size: int) -> Iterator[tuple[int, np.ndarray]]:
        """Blocks of whole parents, about ``size`` children each (see
        :meth:`WordBatch.blocks`)."""
        branching = self.table.shape[3]
        step = max(1, size // branching)
        start, stop = self.words.start, self.words.stop
        for first in range(0, self.keys.shape[0], step):
            last = min(first + step, self.keys.shape[0])
            mats = _products(self.parents[:, :, first:last], self.keys[first:last],
                             self.table).reshape(2, 2, -1)
            lo, hi = max(start, first * branching), min(stop, last * branching)
            yield lo - start, _matrices(mats[:, :, lo - first * branching:hi - first * branching])


def _successors(letter_mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The letters that may follow each last letter, and their matrices.

    Row ``a`` of the (2k, 2k - 1) letter table lists the letters other than
    ``a ^ 1`` in increasing order, the order of a parent's children; the
    matrices come component-major, as a (2, 2, 2k, 2k - 1) array.
    """
    k2 = letter_mats.shape[0]
    r = np.arange(k2 - 1, dtype=np.int16)
    skip = (np.arange(k2, dtype=np.int16) ^ 1)[:, None]
    letters = r + (r >= skip).astype(np.int16)
    return letters, np.ascontiguousarray(letter_mats[letters].transpose(2, 3, 0, 1))


def _matrices(components: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) view of a component-major (2, 2, ...) array."""
    return np.moveaxis(components, (0, 1), (-2, -1))


def iter_word_batches(group: SchottkyGroup, max_length: int,
                      budget: int | None = None, slab: int = SLAB_WORDS,
                      tracker: QuotientTracker | None = None) -> Iterator[WordBatch]:
    """Yield every reduced word of length <= max_length as WordBatch runs.

    Level ``l`` has exactly 2k (2k-1)^(l-1) words, yielded in slabs of at
    most ``slab`` words.  Levels below the top are kept whole (their
    matrices are the prefix cache for the next level); the top level's
    words live only in their slab.  An unpruned walk yields its top-level
    slabs with their matrices unformed, as the parents' matrices (a view of
    the prefix cache), their last letters and the slab's word range: see
    :class:`WordBatch` for how ``mats`` and ``blocks`` form them.
    Raises :class:`BudgetExceeded` after yielding whatever fits within the
    node budget; the partial batch before a cut is not ``final``.

    With a ``tracker`` each batch carries its words' image lengths as
    ``image``.  A pruning tracker keys each slab's candidates, the children
    of the words kept one level down, and forms only those that can still
    return to the kernel.  Slabs, ``offset``, ``final`` and the budget count
    every word: batch i holds the kept words of the whole walk's slab i.
    """
    letter_mats = group.letter_matrices
    k2 = group.letter_count
    prune = tracker is not None and tracker.prune

    if budget is not None and budget < 1:
        raise BudgetExceeded("node budget exhausted before the identity word",
                             words_generated=0, depth_completed=-1)
    identity = np.eye(2, dtype=letter_mats.dtype)
    root = WordBatch(0, 0, np.array([-1], dtype=np.int16),
                     np.array([0], dtype=np.int64), identity[None], final=True)
    if tracker is not None:
        root.image = tracker.extend(root)[1]
    generated = 1
    yield root
    if max_length == 0 or k2 == 0:
        return

    # A level is (2, 2, n): entry (i, k) of its n matrices is contiguous.
    # The identity's children are every letter; any other word's children
    # are the successors of its last letter, found by ``keys``; ``index``
    # holds the level indices of a pruned level's words.
    prev = identity[:, :, None]
    keys = np.zeros(1, dtype=np.int16)
    index = np.zeros(1, dtype=np.int64)
    table = np.arange(k2, dtype=np.int16)[None], letter_mats.transpose(1, 2, 0)[:, :, None]
    for length in range(1, max_length + 1):
        letter_table, mat_table = table
        branching = letter_table.shape[1]
        size, total = keys.shape[0] * branching, level_count(group, length)
        is_top = length == max_length
        if not is_top:   # the prefix cache of the next level
            level = np.empty((2, 2, size), dtype=letter_mats.dtype)
            level_last = np.empty(size, dtype=np.int16)
            level_index = np.empty(size if prune else 0, dtype=np.int64)
        pos = kept = 0
        while pos < total:
            hi = min(pos + slab, total)
            cut = budget is not None and generated + (hi - pos) > budget
            if cut:
                hi = pos + (budget - generated)
            if hi > pos:
                # the children of the parents touched, cut to [pos, hi)
                if prune:
                    first, last = np.searchsorted(index, (pos // branching,
                                                          (hi - 1) // branching + 1))
                    rows = (index[first:last, None] * branching
                            + np.arange(branching)).ravel() - pos
                    words = slice(*np.searchsorted(rows, (0, hi - pos)))
                else:
                    first, last = pos // branching, (hi - 1) // branching + 1
                    rows, words = None, slice(pos - first * branching, hi - first * branching)
                parent_keys = keys[first:last]
                letters = letter_table[parent_keys].ravel()[words]
                parents = np.repeat(np.arange(first, last, dtype=np.int64), branching)[words]
                final = not cut and hi == total
                mats = children = None
                if prune:   # key the candidates, then form the survivors only
                    candidates = WordBatch(length, pos, letters, parents, None, final)
                    image = tracker.extend(candidates)[1]
                    alive = np.flatnonzero(tracker.reaches(length, image))
                    letters, parents, rows, image = (a[alive] for a in (letters, parents,
                                                                        rows[words], image))
                    mats = _matrices(np.empty((2, 2, alive.shape[0]), dtype=letter_mats.dtype)
                                     if is_top else level[:, :, kept:kept + alive.shape[0]])
                    matmul_raw(_matrices(prev[:, :, parents]), letter_mats[letters], mats)
                    if not is_top:
                        level_index[kept:kept + alive.shape[0]] = rows + pos
                elif is_top:   # formed when read (see WordBatch)
                    children = _Children(prev[:, :, first:last], parent_keys, mat_table, words)
                else:
                    block = _products(prev[:, :, first:last], parent_keys, mat_table,
                                      level.reshape(2, 2, -1, branching)[:, :, first:last])
                    mats = _matrices(block.reshape(2, 2, -1)[:, :, words])
                if not is_top:
                    level_last[kept:kept + letters.shape[0]] = letters
                kept += letters.shape[0]
                if mats is not None:
                    mats.flags.writeable = False   # below the top, a view of the prefix cache
                if is_top and hi == total:   # the last slab: the cache lives on in it alone
                    prev = keys = index = None
                generated += hi - pos
                batch = WordBatch(length, pos, letters, parents, mats, final, rows,
                                  children=children)
                if tracker is not None:
                    batch.image = image if prune else tracker.extend(batch)[1]
                yield batch
            if cut:
                raise BudgetExceeded(
                    f"node budget {budget} exhausted inside level {length}",
                    words_generated=generated, depth_completed=length - 1)
            pos = hi
        if is_top:
            return
        prev, keys, index = level[:, :, :kept], level_last[:kept], level_index[:kept]
        if length == 1:
            table = _successors(letter_mats)


def word_at(group: SchottkyGroup, length: int, index: int) -> Word:
    """The word at ``index`` in the enumeration order of level ``length``.

    Level 1 lists the letters in order.  Above it, word i extends word
    i div (2k - 1) of the level below by that word's (i mod (2k - 1))-th
    successor: the letters other than the inverse of its last letter, in
    increasing order (see :func:`_successors`).
    """
    index, ranks = int(index), []
    for _ in range(length - 1):
        index, rank = divmod(index, group.letter_count - 1)
        ranks.append(rank)
    letters = [index] if length else []
    for rank in reversed(ranks):
        letters.append(rank + (rank >= letters[-1] ^ 1))
    return Word(tuple(letters), group.letter_labels)


# --- the walker -----------------------------------------------------------------

EXACT_SUM_MIN = 64   # shorter batches are summed by math.fsum directly


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())``, bit for bit, without the Python list.

    Both are correctly rounded, so they are the same double.  Each value is
    m 2^(e - 53) with m an integer below 2^53 in magnitude; m is split into
    26- and 27-bit halves, which ``np.bincount`` sums by exponent exactly,
    since fewer than 2^26 of them stay below 2^53.  The buckets are
    combined as Python ints and rounded once.  Short, non-finite, huge or
    non-float64 batches, and sums that are zero or not normal, go to
    ``math.fsum``.
    """
    n = values.shape[0]
    if values.dtype != np.float64 or not EXACT_SUM_MIN <= n < 1 << 26:
        return math.fsum(values.tolist())
    mant, exp = np.frexp(values)
    if not np.isfinite(mant).all():
        return math.fsum(values.tolist())
    lowest, highest = int(exp.min()), int(exp.max())
    if highest + n.bit_length() > 1022:   # fsum could overflow on the way
        return math.fsum(values.tolist())
    high = np.trunc(mant * 2.0 ** 26)
    low = (mant * 2.0 ** 26 - high) * 2.0 ** 27
    bucket = exp - lowest
    total = 0
    for shift, (h, l) in enumerate(zip(np.bincount(bucket, weights=high).tolist(),
                                       np.bincount(bucket, weights=low).tolist())):
        if h or l:
            total += (int(h) << (shift + 27)) + (int(l) << shift)
    scale = lowest - 53
    result = float(total << scale) if scale >= 0 else total / (1 << -scale)
    if abs(result) < 2.0 ** -1022:   # zero or subnormal
        return math.fsum(values.tolist())
    return result


class LevelSums:
    """Level blocks of one value stream: an exact sum per batch, then per level.

    A walk consumer.  ``values(words)`` gives one value per word of a
    batch; on a kernel walk it is handed only the kernel words unless
    ``whole_group`` is set, which also keeps the walk unpruned (:func:`walk`).
    :meth:`finish` closes the blocks at a walk:
    ``level_sums`` and ``level_counts`` then cover its complete levels and
    ``tail_sum`` is what was summed beyond them before a budget cut.
    """

    def __init__(self, values: Callable[[WordBatch], np.ndarray] | None = None,
                 whole_group: bool = False):
        self.values = values
        self.whole_group = whole_group
        self._parts: list[list[float]] = []
        self._counts: list[int] = []

    def __call__(self, batch: WordBatch, words: WordBatch) -> None:
        self.add(batch.length, self.values(batch if self.whole_group else words))

    def add(self, length: int, values: np.ndarray) -> None:
        while len(self._parts) <= length:
            self._parts.append([])
            self._counts.append(0)
        self._parts[length].append(exact_sum(values))
        self._counts[length] += values.shape[0]

    def finish(self, done: Walk) -> None:
        """Close the blocks at the walk ``done``.

        Batches longer than ``done.depth`` are left out, so the blocks of one
        deep walk can be closed again at each shorter depth (see :meth:`Walk.upto`).
        """
        depth = done.depth
        sums = [math.fsum(parts) for parts in self._parts[: depth + 1]]
        sums += [0.0] * (depth + 1 - len(sums))   # levels without words sum to zero
        self.tail_sum = math.fsum(sums[done.depth_completed + 1:])
        self.level_sums = sums[: done.depth_completed + 1]
        self.level_counts = (self._counts + [0] * (depth + 1))[: done.depth_completed + 1]


@dataclass
class Walk:
    """How far one walk got: every word of levels <= ``depth_completed``."""

    depth: int
    depth_completed: int
    cut: BudgetExceeded | None = None

    @property
    def budget_exhausted(self) -> bool:
        return self.cut is not None

    def upto(self, depth: int) -> "Walk":
        """The walk to ``depth`` <= ``self.depth`` that this walk contains.

        Slab boundaries do not depend on which level is the top, so that
        walk yields this walk's batches of length <= ``depth``; it is cut
        exactly when this walk's cut fell inside one of those levels.
        """
        if depth > self.depth:
            raise ValueError(f"a walk to {self.depth} does not contain one to {depth}")
        cut = self.cut if self.depth_completed < depth else None
        return Walk(depth, min(depth, self.depth_completed), cut)


def walk(group: SchottkyGroup, max_length: int, budget: int | None = None, *,
         kernel: QuotientSpec | None = None,
         consumers: Sequence[Callable[[WordBatch, WordBatch], None]] = ()) -> Walk:
    """Walk the reduced words of length <= max_length once, batch by batch.

    This is the one place that catches a budget cut and decides how far a
    walk got: a level counts only when all of its words were enumerated,
    which is the cut's ``depth_completed``.  With ``kernel`` the quotient is
    tracked and ``words`` is the batch's selection of kernel words (the
    batch itself otherwise), so kernel walks evaluate kernel words only.
    Each batch goes to every consumer in turn as ``consume(batch, words)``;
    a level ends at the batch with ``batch.final`` set.  Consumers keep
    their own answers, which they read off the returned :class:`Walk`.

    A kernel walk is pruned (see :class:`QuotientTracker`): ``batch`` holds
    only the words that can still reach the kernel, while the calls,
    ``words``, ``offset + words.rows``, ``final`` and the cut are the whole
    walk's.  A consumer that reads the whole batch keeps the walk whole by a
    true ``whole_group`` attribute: ``LevelSums(whole_group=True)`` and
    :func:`~kleinian.series.parabolic_domination`'s consumer.
    """
    whole = any(getattr(consume, "whole_group", False) for consume in consumers)
    tracker = None if kernel is None else QuotientTracker(group, kernel, max_length, not whole)
    cut = None
    try:
        for batch in iter_word_batches(group, max_length, budget, tracker=tracker):
            words = batch if tracker is None else batch.select(batch.image == 0)
            for consume in consumers:
                consume(batch, words)
    except BudgetExceeded as exc:
        cut = exc.with_traceback(None)   # its frames would pin the level arrays
    return Walk(max_length, max_length if cut is None else cut.depth_completed, cut)


def enumerate_words(group: SchottkyGroup, max_length: int,
                    budget: int | None = None) -> Iterator[tuple[Word, Transform]]:
    """Stream (word, transform) pairs in breadth-first lexicographic order.

    Yields 2k (2k-1)^(l-1) words at each length l >= 1 plus the identity;
    raises :class:`BudgetExceeded` once the configured node budget is hit,
    after yielding the words that fit.
    """
    for batch in iter_word_batches(group, max_length, budget):
        for i in range(batch.last.shape[0]):
            yield (word_at(group, batch.length, batch.offset + i),
                   Transform(batch.mats[i], group.dim, _trusted_unit_det=True))


def level_count(group: SchottkyGroup, length: int) -> int:
    k2 = group.letter_count
    if length == 0:
        return 1
    return k2 * (k2 - 1) ** (length - 1)


# --- quotients, kernels and cosets --------------------------------------------

@dataclass(frozen=True)
class QuotientSpec:
    """Homomorphism onto a free target, by generator images.

    ``images`` maps each generator label to a word in target symbols, e.g.
    ``{"a": (), "b": ("b",)}`` kills ``a`` and keeps ``b``.  Because the
    domain is free the assignment always extends to a homomorphism.  Only
    ``target_kind="free"`` is tracked; any other kind is rejected, since
    tracking it as free would give the wrong kernel.
    """

    target_kind: str
    images: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.target_kind != "free":
            raise ValueError(f"unsupported quotient target kind {self.target_kind!r}; "
                             "only 'free' quotients are tracked")


class QuotientTracker:
    """The reduced image of every word along the walk, as one integer key.

    Target symbols are numbered as the generator images first name them.
    With r symbols the key reads a reduced image as base-B digits, B = 2r + 1,
    last letter lowest: target letter code c (2 i for symbol i, 2 i + 1 for
    its inverse) is digit c + 1.  A letter with an empty image keeps the key;
    otherwise the key pops (``key // B``) when its top digit ``key % B`` is
    the inverse of the letter's digit, and pushes (``key * B + d``) in every
    other case.  The image length is kept beside the key, so kernel
    membership (length 0) is exact.  Only parent levels are stored, one int64
    key and one int16 length per word.  A key holds at most ``cap`` letters
    (39 for B = 3), so a walk deeper than ``cap`` with B > 1, and generator
    images of more than one letter, raise :class:`NotImplementedError`.

    Pruning is exact: a letter changes the image length by at most one, so
    a word whose image is longer than the letters it has left never returns
    to the kernel.  A ``prune`` tracker keeps only the other words
    (:meth:`reaches`) as parents, and :func:`iter_word_batches` forms no
    more; :func:`walk` prunes unless a consumer reads the whole batch.
    """

    def __init__(self, group: SchottkyGroup, spec: QuotientSpec, max_length: int,
                 prune: bool = False):
        symbols: dict[str, int] = {}
        digit = self.digit = np.zeros(group.letter_count, dtype=np.int16)
        for idx, gen in enumerate(group.generators):
            image = spec.images.get(gen.label, (gen.label,))
            if len(image) > 1:
                raise NotImplementedError(
                    "only trivial or single-letter generator images are supported")
            if image:
                base, inv = (image[0][:-3], 1) if image[0].endswith("^-1") else (image[0], 0)
                code = 2 * symbols.setdefault(base, len(symbols)) + inv
                digit[2 * idx], digit[2 * idx + 1] = code + 1, (code ^ 1) + 1
        self.base = 2 * len(symbols) + 1
        self.cap = max(n for n in range(64) if self.base ** n < 1 << 63)
        if self.base > 1 and max_length > self.cap:
            raise NotImplementedError(f"images over {self.cap} letters do not fit an int64 key")
        # per letter: the key's factor and addend on a push (1 and 0 keep it),
        # the top digit that pops instead (-1: never), and the length change
        self.scale = np.where(digit > 0, self.base, 1).astype(np.int16)
        self.pop_digit = np.where(digit > 0, digit[np.arange(digit.shape[0]) ^ 1], -1)
        self.step = (digit > 0).astype(np.int16)
        self.group, self.depth, self.prune = group, max_length, prune
        self.keys: list[np.ndarray] = []      # per parent level, filled up to ``filled``
        self.lengths: list[np.ndarray] = []

    def reaches(self, length: int, lengths: np.ndarray) -> np.ndarray:
        """Which words of ``length`` can still return to the kernel by ``depth``."""
        return lengths <= self.depth - length

    def extend(self, batch: WordBatch) -> tuple[np.ndarray, np.ndarray]:
        """Image keys and image lengths of a batch's words (0 on the kernel)."""
        if batch.length == 0:
            keys, lengths = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int16)
        else:
            last, level = batch.last, batch.length - 1
            keys = self.keys[level][batch.parent]   # a copy: the parents' keys
            top = keys % self.base
            pops = top == self.pop_digit[last]
            popped = np.floor_divide(keys, self.base, out=top)   # in place: few temporaries
            keys *= self.scale[last]
            keys += self.digit[last]
            np.copyto(keys, popped, where=pops)
            lengths = self.lengths[level][batch.parent] + self.step[last]
            lengths[pops] -= 2
        if batch.length < self.depth:   # only a parent level is ever indexed
            if batch.length == len(self.keys):   # its first batch
                self.filled = 0
                for store, dtype in ((self.keys, np.int64), (self.lengths, np.int16)):
                    store.append(np.empty(level_count(self.group, batch.length), dtype))
            kept = self.reaches(batch.length, lengths) if self.prune else slice(None)
            for store, values in ((self.keys, keys[kept]), (self.lengths, lengths[kept])):
                store[batch.length][self.filled:self.filled + values.shape[0]] = values
            self.filled += values.shape[0]
        return keys, lengths


class StabilizerTracker:
    """Schreier coset keys for a stabilizer generated by a subset of letters.

    In a free group the words with no trailing stabilizer letter form a
    transversal; the key of a word is the index of its maximal prefix with
    that property, maintained incrementally (no suffix walking).

    Nothing in the package walks with it: it stays while ``bench/spans.py``
    still wraps its ``extend``.
    """

    def __init__(self, group: SchottkyGroup, letters: frozenset[int]):
        self.letters = np.zeros(group.letter_count, dtype=bool)
        for l in letters:
            self.letters[l] = True
        self.anchors: list[np.ndarray] = []   # per level: (level, index) pairs

    def extend(self, batch: WordBatch) -> np.ndarray:
        """(m, 2) array of coset keys: the (level, index) of the stripped prefix."""
        if batch.length == 0:
            anchors = np.zeros((1, 2), dtype=np.int64)
            self._store(batch, anchors)
            return anchors
        pa = self.anchors[batch.length - 1][batch.parent]
        in_stab = self.letters[batch.last]
        own = np.stack([np.full(batch.last.shape[0], batch.length, dtype=np.int64),
                        batch.offset + np.arange(batch.last.shape[0], dtype=np.int64)],
                       axis=1)
        anchors = np.where(in_stab[:, None], pa, own)
        self._store(batch, anchors)
        return anchors

    def _store(self, batch: WordBatch, anchors: np.ndarray) -> None:
        while len(self.anchors) <= batch.length:
            self.anchors.append(np.empty((0, 2), dtype=np.int64))
        self.anchors[batch.length] = np.concatenate([self.anchors[batch.length], anchors])


def kernel_enumerate(group: SchottkyGroup, spec: QuotientSpec, max_length: int,
                     budget: int | None = None) -> Iterator[tuple[Word, Transform]]:
    """Stream the reduced words of length <= max_length killed by the quotient."""
    tracker = QuotientTracker(group, spec, max_length)
    for batch in iter_word_batches(group, max_length, budget, tracker=tracker):
        for i in np.flatnonzero(batch.image == 0):
            yield (word_at(group, batch.length, batch.offset + i),
                   Transform(batch.mats[i], group.dim, _trusted_unit_det=True))


@dataclass(frozen=True)
class DeclaredStabilizer:
    """Stabilizer declared as a generator subset, with its retraction quotient.

    The retraction sends every non-stabilizer generator to the identity, so
    the kernel is a canonical complement and each coset of the stabilizer
    contains exactly one kernel word.
    """

    labels: tuple[str, ...]

    @classmethod
    def trivial(cls) -> "DeclaredStabilizer":
        return cls(())

    def quotient_for(self, group: SchottkyGroup) -> QuotientSpec:
        return QuotientSpec("free", {gen.label: (gen.label,) if gen.label in self.labels
                                     else () for gen in group.generators})


# --- ending sequences ---------------------------------------------------------

@dataclass(frozen=True)
class EndingSequenceSpec:
    """Radial approach data: target on the boundary, parameters t_n -> 1."""

    target: BoundaryPoint
    t_values: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(self.t_values)
        if not ts or any(not 0.0 < t < 1.0 for t in ts):
            raise ValueError("t values must lie in (0, 1)")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("t values must increase")

    @classmethod
    def dyadic(cls, target: BoundaryPoint, count: int) -> "EndingSequenceSpec":
        return cls(target, tuple(1.0 - 2.0 ** (-n) for n in range(1, count + 1)))


def ending_sequence(group: SchottkyGroup, spec: EndingSequenceSpec) -> list[InteriorPoint]:
    """Points t_n * zeta marching out to the boundary target inside the domain cone.

    The target must lie in the closure of the fundamental domain; radial
    segments toward such a target never enter a generator disc's half-space,
    so every point is accepted exactly.
    """
    if not group.fundamental_domain_contains(spec.target):
        raise TargetNotInDomainClosure(
            f"target {spec.target.coords} lies inside an open generator disc")
    return [InteriorPoint.radial(spec.target, t) for t in spec.t_values]
