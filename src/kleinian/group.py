"""Schottky-type groups: paired-disc generators and reduced-word machinery.

The enumeration engine works on whole word-length levels at a time with
numpy arrays: a level is its last letters plus its matrices, stored
component-major as one (2, 2, n) array so that every entry read or written
is contiguous.  Children are produced in breadth-first, parent-major /
letter-minor order, which makes the stream deterministic and the level
array double as the prefix cache.  Every child, of a whole or a pruned
walk, is one gather product: its parent's matrix times its last letter's.
A batch is the children of a run of whole parents, at most ``BLOCK_WORDS``
words, so the top level's matrices are never held at once; a top run
re-forms its parents' matrices from their own parents' by a gather
product.  Each level sum is exact until it is rounded once
(:class:`ExactSum`, equal to ``math.fsum``), so the sums do not depend on
the batch size.

A kernel walk also tracks each word's image under a retraction onto a free
group (:class:`QuotientTracker`): one integer key that reads the reduced
image as digits, and its length, which is 0 exactly on the kernel.

Letters are integers: generator ``i`` contributes letters ``2*i`` (the
generator) and ``2*i + 1`` (its inverse); ``letter ^ 1`` is the inverse.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, DiscsOverlap, TargetNotInDomainClosure
from .mobius import Transform, image_disc, matmul_raw, pair_discs, parabolic_fixing
from .model import BoundaryPoint, Disc, InteriorPoint

BLOCK_WORDS = 1 << 15         # words per batch: fits in cache
GATHER_WORDS = 1 << 12        # children formed per gather product: its operands stay small


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
        """Disjoint discs, each letter mapping the other discs into its target.

        Every power of a parabolic p maps Ext D into its disc D once p and p^-1
        do: in the chart where p is z -> z + beta, Ext D is then a bounded disc
        B (a translate of an unbounded one meets it) that B + beta misses, so
        |n beta| >= |beta| >= diam B for n != 0.  Beardon, The Geometry of
        Discrete Groups (1983).
        """
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
                if disc is not src and not tgt.contains_disc(image_disc(t, disc)):
                    raise DiscsOverlap(
                        f"ping-pong failure: {self.letter_labels[e]} does not map "
                        f"disc at {disc.center.coords} inside its target")
            gen = self.generators[e // 2]
            if gen.kind == "parabolic" and not gen.source.contains_disc(
                    image_disc(t, gen.source.complement())):
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

    def discs_containing(self, zeta: BoundaryPoint) -> list[str]:
        """The names (as in :meth:`discs`) of the open generator discs that
        contain ``zeta``, with a slack of 1e-12 for points on a rim."""
        return [name for name, disc in self.discs()
                if disc.chordal_distance(zeta) < disc.radius - 1e-12]

    def fundamental_domain_contains(self, zeta: BoundaryPoint) -> bool:
        """True iff ``zeta`` lies in the closed exterior of every generator disc."""
        return not self.discs_containing(zeta)

    def word_transform(self, word: Word | Sequence[int]) -> Transform:
        """The word's transform: the walk's product of its letters, up to sign."""
        letters = word.letters if isinstance(word, Word) else tuple(word)
        mat = np.eye(2, dtype=self.letter_matrices.dtype)
        for letter in letters:
            mat = matmul_raw(mat, self.letter_matrices[letter])
        return Transform(mat, self.dim, _trusted_unit_det=True)


# --- the level engine ---------------------------------------------------------

@dataclass
class WordBatch:
    """A contiguous run of words of one length, in enumeration order.

    ``parent`` holds indices into the previous level's (kept) words;
    ``offset`` is the index of the batch's first word within its level.
    A batch made by :meth:`select`, or by a pruned walk, holds some of a
    run's words and keeps their ``rows`` in it: word i of the batch is word
    ``offset + rows[i]`` of its level.  A pruned walk's batches have
    ``offset`` 0, their ``rows`` being level indices.
    """

    length: int
    offset: int
    last: np.ndarray       # (m,) int16 letters, -1 for the identity
    parent: np.ndarray     # (m,) int64 indices into the previous level
    mats: np.ndarray       # (m, 2, 2) float64 matrices in dimension 1, complex128 in 2
    final: bool            # True when this batch completes its level
    rows: np.ndarray | None = None   # (m,) rows in the batch selected from
    image: np.ndarray | None = None  # (m,) image lengths on a tracked walk
    first_span: int = 0   # a first letter's level indices, (2k-1)^(length-1); 0 at length 0

    def select(self, keep: np.ndarray) -> "WordBatch":
        """The words flagged by the boolean mask ``keep``, in order."""
        rows = np.flatnonzero(keep)
        return WordBatch(self.length, self.offset, self.last[rows], self.parent[rows],
                         self.mats[rows], self.final,
                         rows if self.rows is None else self.rows[rows],
                         first_span=self.first_span)


def _successors(k2: int) -> np.ndarray:
    """The letters that may follow each last letter, as a (2k, 2k - 1) table.

    Row ``a`` lists the letters other than ``a ^ 1`` in increasing order, the
    order of a parent's children.
    """
    r = np.arange(k2 - 1, dtype=np.int16)
    skip = (np.arange(k2, dtype=np.int16) ^ 1)[:, None]
    return r + (r >= skip).astype(np.int16)


def _matrices(components: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) view of a component-major (2, 2, ...) array."""
    return components.transpose(*range(2, components.ndim), 0, 1)


def iter_word_batches(group: SchottkyGroup, max_length: int,
                      budget: int | None = None, size: int = BLOCK_WORDS,
                      tracker: QuotientTracker | None = None) -> Iterator[WordBatch]:
    """Yield every reduced word of length <= max_length as WordBatch runs.

    Level ``l`` has exactly 2k (2k-1)^(l-1) words.  A batch is the children
    of a run of max(1, size // b) parents, b the branching (2k at level 1,
    2k - 1 above): at most ``size`` words when size >= b, with their
    matrices formed in an array of their own, ``GATHER_WORDS`` at a time,
    from the gathered matrices of their parents and letters.  Levels up to
    max_length - 2 are kept (the prefix cache); level max_length - 1 keeps
    only its last letters, and on a pruned walk its words' parents and
    level indices, so each top run re-forms its parents' matrices from
    theirs by one unchunked gather product, into a buffer of the walk's
    own.  A complete level ends in one ``final`` batch.  Raises
    :class:`BudgetExceeded` after yielding whatever fits within the node
    budget, the run that the cut falls in truncated and not ``final``.

    With a ``tracker`` each batch carries its words' image lengths as
    ``image``.  A pruning tracker keys the candidates of each run of kept
    parents and forms only those that can still return to the kernel, with
    their level indices as ``rows`` and ``offset`` 0 (a run may form none).
    The budget counts every word, formed or not.
    """
    if size < 1:
        raise ValueError(f"batch size must be at least 1, got {size}")
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

    # The parent level: its matrices ``prev`` as (2, 2, n), so that entry
    # (i, k) of its n matrices is contiguous, or None at the top, whose
    # parents are re-formed from their own, ``grand``; its last letters
    # ``keys``, which find each word's successor letters in ``letter_table``
    # (the identity's children are every letter); on a pruned walk its level
    # indices ``index``.
    prev, keys, index = identity[:, :, None], np.zeros(1, np.int16), np.zeros(1, np.int64)
    letter_table = np.arange(k2, dtype=np.int16)[None]
    for length in range(1, max_length + 1):
        branching = letter_table.shape[1]
        total = level_count(group, length)
        first_span = total // k2
        run = max(1, size // branching)   # parents per batch
        stop = total if budget is None else min(total, budget - generated)
        reach = -(-stop // branching)   # the parents of the words before ``stop``
        if prune:
            reach = int(np.searchsorted(index, reach))
        if prev is None:   # the top: one buffer for the parents of each run
            parent_mats = np.empty((2, 2, run), dtype=letter_mats.dtype)
        cache = length < max_length - 1   # this level's matrices are the prefix cache
        parts = []   # per run, what the next level reads of this one
        # one run at least when the level completes, so that it has a final batch
        for first in range(0, reach or int(stop == total), run):
            last = min(first + run, reach)
            if prune:
                rows = (index[first:last, None] * branching + np.arange(branching)).ravel()
                rows = rows[:np.searchsorted(rows, stop)]
                n = rows.shape[0]
            else:
                rows, n = None, min(last * branching, stop) - first * branching
            parent_keys = keys[first:last]
            letters = np.take(letter_table, parent_keys, axis=0).ravel()[:n]
            parents = np.repeat(np.arange(first, last, dtype=np.int64), branching)[:n]
            final = last == reach and stop == total
            if prev is not None:
                source = prev[:, :, first:last]
            else:   # the top re-forms its parents' matrices from their own parents'
                up_rows = up[first:last] if prune else np.arange(first, last) // up_branching
                source = parent_mats[:, :, :last - first]
                matmul_raw(_matrices(np.take(grand, up_rows, axis=2)),
                           np.take(letter_mats, parent_keys, axis=0), _matrices(source))
            if prune:   # key the candidates, then form the survivors only
                image = tracker.extend(WordBatch(length, 0, letters, parents, None, final))[1]
                alive = np.flatnonzero(tracker.reaches(length, image))
                letters, parents, rows, image = (a[alive] for a in (letters, parents, rows, image))
            block = np.empty((2, 2, letters.shape[0]), dtype=letter_mats.dtype)
            for lo in range(0, letters.shape[0], GATHER_WORDS):
                hi = lo + GATHER_WORDS
                matmul_raw(_matrices(np.take(source, parents[lo:hi] - first, axis=2)),
                           np.take(letter_mats, letters[lo:hi], axis=0),
                           _matrices(block[:, :, lo:hi]))
            if length < max_length:
                parts.append((letters, rows, None if cache or not prune else parents,
                              block if cache else None))
            mats = _matrices(block)
            mats.flags.writeable = False   # read-only: below the top the cache is joined from these
            batch = WordBatch(length, 0 if prune else first * branching, letters, parents,
                              mats, final, rows, first_span=first_span)
            if tracker is not None:
                batch.image = image if prune else tracker.extend(batch)[1]
            yield batch
        if stop < total:
            raise BudgetExceeded(
                f"node budget {budget} exhausted inside level {length}",
                words_generated=generated + stop, depth_completed=length - 1)
        generated += total
        if length == max_length:
            return
        letters, rows, parents, block = (None if joined[0] is None else np.concatenate(joined, -1)
                                         for joined in zip(*parts))
        if not cache:
            grand, up, up_branching = prev, parents, branching
        prev, keys, index = block, letters, rows
        if length == 1:
            letter_table = _successors(k2)


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

class ExactSum:
    """The exact sum of float64 values fed in parts, rounded once: ``math.fsum``
    of all of them, bit for bit, without keeping them.

    Each value is m 2^(e - 53) with m an integer below 2^53 in magnitude; its
    26- and 27-bit halves are summed by exponent with ``np.bincount``, exactly,
    ``BLOCK_WORDS`` values at a time (fewer than 2^26 halves stay below 2^53),
    into one Python-int total kept at the lowest exponent so far.  :meth:`value`
    rounds it once, correctly, as Python's int-to-float conversion and int
    division do, and raises ``OverflowError`` beyond the float range; unlike
    ``math.fsum`` it never overflows on the way.  Non-finite values give what
    ``math.fsum`` gives: nan, +-inf, or ``ValueError`` for +inf with -inf.
    """

    def __init__(self):
        self._total, self._lowest = 0, 2048   # beyond every float64 exponent
        self._specials: set[float] = set()   # the non-finite values seen

    def add(self, values: np.ndarray) -> None:
        """Add a one-dimensional array of values."""
        for lo in range(0, values.shape[0], BLOCK_WORDS):
            mant, exp = np.frexp(values[lo:lo + BLOCK_WORDS])
            odd = ~np.isfinite(mant)
            if odd.any():   # noted, then summed as zeros
                self._specials.update(np.unique(mant[odd]).tolist())
                mant[odd] = 0.0
            base = int(exp.min())
            if base < self._lowest:
                self._total, self._lowest = self._total << (self._lowest - base), base
            mant *= 2.0 ** 26
            high = np.trunc(mant)
            mant -= high
            mant *= 2.0 ** 27
            exp -= base
            for shift, (h, l) in enumerate(zip(np.bincount(exp, weights=high).tolist(),
                                               np.bincount(exp, weights=mant).tolist()),
                                           base - self._lowest):
                if h or l:
                    self._total += (int(h) << (shift + 27)) + (int(l) << shift)

    @classmethod
    def total(cls, parts) -> "ExactSum":
        """The exact sum of the sums ``parts``, as one."""
        out = cls()
        for part in parts:
            low = min(out._lowest, part._lowest)
            out._total = (out._total << out._lowest - low) + (part._total << part._lowest - low)
            out._lowest = low
            out._specials |= part._specials
        return out

    def value(self) -> float:
        """The sum so far, rounded once."""
        if self._specials:
            return math.fsum(self._specials)
        scale = self._lowest - 53
        return float(self._total << scale) if scale >= 0 else self._total / (1 << -scale)


class LevelSums:
    """Level sums of one value stream: one :class:`ExactSum` per level and
    first letter.

    A walk consumer.  ``values(words)`` gives one value per word of a
    batch; on a kernel walk it is handed only the kernel words unless
    ``whole_group`` is set, which also keeps the walk unpruned (:func:`walk`).
    Each level sum is the exact total of its first-letter sums, rounded
    once: ``math.fsum`` of its level's values, however the level was split
    into batches.  After :meth:`finish` at a walk, ``level_sums`` and
    ``level_counts`` cover its complete levels, ``tail_sum`` is what was
    summed beyond them before a budget cut, and ``first_letter_sums`` maps
    each first letter of level ``done.depth`` (-1 for the identity) to the
    exact sum of its words' values.
    """

    def __init__(self, values: Callable[[WordBatch], np.ndarray] | None = None,
                 whole_group: bool = False):
        self.values = values
        self.whole_group = whole_group
        self._sums: defaultdict[tuple[int, int], ExactSum] = defaultdict(ExactSum)
        self._counts: Counter[int] = Counter()

    def __call__(self, batch: WordBatch, words: WordBatch) -> None:
        words = batch if self.whole_group else words
        self.add(words, self.values(words))

    def add(self, words: WordBatch, values: np.ndarray) -> None:
        """The values of a batch's ``words``, one per word.  They are in level
        order, so those of one first letter are one slice, cut where the level
        index reaches a multiple of ``first_span`` (in ``rows``, if any)."""
        n, span, offset, rows = values.shape[0], words.first_span, words.offset, words.rows
        self._counts[words.length] += n
        first = last = -1
        if span and n:
            first, last = ((offset + int(end)) // span
                           for end in ((0, n - 1) if rows is None else rows[[0, -1]]))
        cuts = [f * span - offset for f in range(first + 1, last + 1)]
        if rows is not None:
            cuts = np.searchsorted(rows, cuts).tolist()
        for f, lo, hi in zip(range(first, last + 1), [0, *cuts], [*cuts, n]):
            if hi > lo:   # a selection may hold no word of a first letter
                self._sums[words.length, f].add(values[lo:hi])

    def finish(self, done: Walk) -> None:
        """Round the level sums of the walk ``done``.

        Levels deeper than ``done.depth`` are left out, so the sums of one
        deep walk can be finished again at each shorter depth (see :meth:`Walk.upto`).
        """
        sums = [ExactSum.total(part for (level, _), part in self._sums.items()
                               if level == length).value() for length in range(done.depth + 1)]
        self.tail_sum = math.fsum(sums[done.depth_completed + 1:])
        self.level_sums = sums[: done.depth_completed + 1]
        self.level_counts = [self._counts[length] for length in range(done.depth_completed + 1)]
        self.first_letter_sums = {first: part for (level, first), part in self._sums.items()
                                  if level == done.depth}


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

        That walk yields this walk's words of length <= ``depth`` in the
        same order, though a pruned walk may split them into other batches
        (it keeps fewer parents for a shallower top); it is cut exactly when
        this walk's cut fell inside one of those levels.
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
    only the words that can still reach the kernel, and the calls are its
    own, one per run of kept parents, not the whole walk's.  ``words``, its
    level indices ``offset + words.rows``, ``final`` and the cut are the
    whole walk's.  A consumer that reads the whole batch keeps the walk
    whole by a true ``whole_group`` attribute: ``LevelSums(whole_group=True)``
    and :func:`~kleinian.series.parabolic_domination`'s consumer.
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
    domain is free the assignment always extends to a homomorphism.
    ``stabilizer`` names the kept letters when the kernel is a declared
    stabilizer's coset transversal (:meth:`DeclaredStabilizer.quotient_for`).
    """

    images: dict[str, tuple[str, ...]] = field(default_factory=dict)
    stabilizer: tuple[str, ...] = ()


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
    key and one int16 length per word (per kept word when pruning), joined
    from their batches when the next level first reads them.  A key holds at
    most ``cap`` letters (39 for B = 3), so a walk deeper than ``cap`` with
    B > 1, and generator images of more than one letter, raise
    :class:`NotImplementedError`.

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
        self.depth, self.prune = max_length, prune
        self.keys: list[np.ndarray | list[np.ndarray]] = []   # per parent level
        self.lengths: list[np.ndarray | list[np.ndarray]] = []

    def reaches(self, length: int, lengths: np.ndarray) -> np.ndarray:
        """Which words of ``length`` can still return to the kernel by ``depth``."""
        return lengths <= self.depth - length

    def extend(self, batch: WordBatch) -> tuple[np.ndarray, np.ndarray]:
        """Image keys and image lengths of a batch's words (0 on the kernel)."""
        if batch.length == 0:
            keys, lengths = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int16)
        else:
            last, level = batch.last, batch.length - 1
            if isinstance(self.keys[level], list):   # the level's first child: join its parts
                self.keys[level], self.lengths[level] = (np.concatenate(store[level])
                                                         for store in (self.keys, self.lengths))
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
            kept = (self.reaches(batch.length, lengths) if self.prune
                    else np.ones_like(lengths, bool))
            for store, values in ((self.keys, keys), (self.lengths, lengths)):
                if batch.length == len(store):   # its first batch
                    store.append([])
                store[batch.length].append(values[kept])
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

    def quotient_for(self, group: SchottkyGroup) -> QuotientSpec | None:
        """The retraction onto the stabilizer; None when trivial (its transversal is G)."""
        if not self.labels:
            return None
        return QuotientSpec({gen.label: (gen.label,) if gen.label in self.labels
                             else () for gen in group.generators}, self.labels)


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
