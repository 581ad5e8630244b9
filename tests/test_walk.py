"""The single word walker: one truncation rule for every walk-backed API."""

import ast
import copy
import functools
import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kleinian.group
import kleinian.limits
import kleinian.measure
import kleinian.series
from kleinian.errors import BudgetExceeded, InconclusiveBracket
from kleinian.examples import (Example1Config, build_example1, example1_group, example2_group,
                               example2_target, example3_group)
from kleinian.group import (BLOCK_WORDS, GATHER_WORDS, DeclaredStabilizer, ExactSum, LevelSums,
                            QuotientSpec, QuotientTracker, SchottkyGroup, enumerate_words,
                            iter_word_batches, kernel_enumerate, level_count, walk, word_at)
from kleinian.limits import horoball_entry, horoball_scanner
from kleinian.measure import (DEFAULT_CELLS, EndingMeasures, conformality_residual,
                              ending_measure, orbit_measure)
from kleinian.mobius import boundary_derivative_raw, matmul_raw
from kleinian.model import BoundaryPoint, InteriorPoint, embed3
from kleinian.series import (ProbeRecord, boundary_values, bounded_parabolic_domination,
                             estimate_delta, horospherical_partial, parabolic_domination,
                             poincare_partial, reduced_horospherical_partial)

from conftest import cap_groups, schottky_groups

SRC = Path(__file__).resolve().parent.parent / "src" / "kleinian"
DOMAIN_POINT = BoundaryPoint.from_angle(math.radians(108.0))
TARGETS = (DOMAIN_POINT, BoundaryPoint.from_angle(math.radians(252.0)))
QUOTIENT = QuotientSpec({"a": (), "b": ("b",)})
# the spec that DeclaredStabilizer(("a",)).quotient_for builds for a and b
STABILIZER_A = QuotientSpec({"a": ("a",), "b": ()}, ("a",))


# --- one rule across the APIs ----------------------------------------------------

def _walk_reports(group, depth, budget):
    """(depth_completed, budget_exhausted) of every walk-backed API."""
    zeta, z = DOMAIN_POINT, InteriorPoint([0.1, 0.2])
    stab = DeclaredStabilizer(("a",))

    def series(r):
        return r.depth_completed, r.budget_exhausted

    dom = bounded_parabolic_domination(group, zeta, 1.0, depth, stab, budget=budget)
    hits = horoball_entry(group, zeta, 1.0, depth, budget=budget)
    kernel_hits = horoball_entry(group, zeta, 1.0, depth, budget=budget, kernel=QUOTIENT)
    consume, scanned = horoball_scanner(group, zeta, (0.5, 1.0, 2.0), depth)
    grid_hits = scanned(walk(group, depth, budget, kernel=QUOTIENT, consumers=[consume]))
    plain = EndingMeasures(group, TARGETS, 1.0)
    measures = plain.at(plain.walk(depth, budget))
    restricted = EndingMeasures(group, TARGETS, 1.0, kernel=QUOTIENT)
    kernel_measures = restricted.at(restricted.walk(depth, budget))
    try:
        list(kernel_enumerate(group, stab.quotient_for(group), depth, budget))
        reps = (depth, False)
    except BudgetExceeded as cut:
        reps = (cut.depth_completed, True)
    return {
        "poincare_partial": series(poincare_partial(group, z, 1.0, depth, budget=budget)),
        "horospherical_partial": series(
            horospherical_partial(group, zeta, 1.0, depth, budget=budget)),
        "reduced (declared)": series(reduced_horospherical_partial(
            group, zeta, 1.0, depth, stab=stab, budget=budget)),
        "domination": (dom["depth_completed"], dom["budget_exhausted"]),
        "orbit_measure": series(orbit_measure(group, z, 1.0, depth, budget=budget).series),
        "ending_measure": series(
            ending_measure(group, zeta, 1.0, depth, budget=budget).series),
        "kernel ending_measure": series(ending_measure(
            group, zeta, 1.0, depth, kernel=QUOTIENT, budget=budget).series),
        "horoball_entry": (hits.depth_completed, hits.budget_exhausted),
        "kernel horoball_entry": (kernel_hits.depth_completed, kernel_hits.budget_exhausted),
        **{f"horoball_scan at c={h.level}": (h.depth_completed, h.budget_exhausted)
           for h in grid_hits},
        **{f"ending_measures at target {i}": series(mu.series)
           for i, mu in enumerate(measures)},
        **{f"kernel ending_measures at target {i}": series(mu.series)
           for i, mu in enumerate(kernel_measures)},
        "kernel_enumerate (declared)": reps,
    }


@pytest.mark.parametrize("budget", [17, 20])
def test_every_api_reports_the_same_cut(std_group, budget):
    # levels 0-2 hold 1 + 4 + 12 = 17 words: budget 17 ends exactly on the
    # level boundary, budget 20 cuts three words into the top level
    reports = _walk_reports(std_group, 3, budget)
    assert reports == {name: (2, True) for name in reports}


def test_every_api_reports_a_complete_walk(std_group):
    reports = _walk_reports(std_group, 3, None)
    assert reports == {name: (3, False) for name in reports}


# --- one walk answers many questions --------------------------------------------

def _assert_same_measure(mu, reference):
    assert np.array_equal(mu.points, reference.points)
    assert np.array_equal(mu.weights, reference.weights)
    assert np.array_equal(mu.word_lengths, reference.word_lengths)
    assert (mu.depth, mu.meta["target"]) == (reference.depth, reference.meta["target"])
    assert mu.series == reference.series


@pytest.mark.parametrize("budget", [None, 17, 20])
@pytest.mark.parametrize("restriction", [
    {}, {"kernel": STABILIZER_A}, {"kernel": QUOTIENT},
    {"kernel": QuotientSpec({"a": ("x",), "b": ("x",)})}],
    ids=["group", "stabilizer", "kernel", "kernel without level 1"])
def test_ending_measures_equal_one_walk_per_depth(std_group, budget, restriction):
    # budget 17 ends on the level-2 boundary and budget 20 inside level 3, so
    # the depth-2 measures of the cut depth-3 walk are complete; a and b map
    # to one letter, so that kernel has no word of length 1 and no atom
    # arrives between the ends of levels 0 and 1
    measures = EndingMeasures(std_group, TARGETS, 0.8, **restriction)
    done = measures.walk(3, budget)
    for depth in range(4):
        for zeta, mu in zip(TARGETS, measures.at(done.upto(depth))):
            _assert_same_measure(mu, ending_measure(std_group, zeta, 0.8, depth,
                                                    budget=budget, **restriction))


def _horoball_reference(group, zeta, c, depth, budget, kernel):
    """(letters, k(w(0), zeta)) of every word above level c, word by word."""
    words = (enumerate_words(group, depth, budget) if kernel is None
             else kernel_enumerate(group, kernel, depth, budget))
    found = []
    try:
        for word, t in words:
            x = t.origin_image
            diff = x.coords - zeta.coords
            kval = x.conorm / (diff @ diff)
            if kval > c:
                found.append((word.letters, kval))
    except BudgetExceeded:
        pass
    return found


@pytest.mark.parametrize("budget", [None, 20, 200])
@pytest.mark.parametrize("kernel", [None, QUOTIENT], ids=["group", "kernel"])
def test_horoball_scan_equals_per_level_scans(std_group, budget, kernel, monkeypatch):
    # the attracting fixed point of a: the orbit enters every horoball there;
    # a cap of 40 cuts the witness lists of the low levels but not their counts
    monkeypatch.setattr(kleinian.limits, "MAX_WITNESSES", 40)
    zeta = std_group.generator("a").transform.classify().fixed_points[0]
    levels = (0.05, 0.3, 1.0, 3.0)
    consume, scanned = horoball_scanner(std_group, zeta, levels, 5)
    scans = scanned(walk(std_group, 5, budget, kernel=kernel, consumers=[consume]))
    for c, scan in zip(levels, scans):
        single = horoball_entry(std_group, zeta, c, 5, budget=budget, kernel=kernel)
        assert scan == single and scan.level == c and scan.count() > 0
        reference = _horoball_reference(std_group, zeta, c, 5, budget, kernel)
        kvals = [kval for _, kval in scan.witnesses]
        assert kvals == sorted(kvals, reverse=True)
        assert scan.count() == len(reference)
        assert len(scan.witnesses) == min(len(reference), 40)
        best = sorted(reference, key=lambda rec: -rec[1])[: len(scan.witnesses)]
        assert {w.letters for w, _ in scan.witnesses} == {letters for letters, _ in best}
        assert kvals == pytest.approx([kval for _, kval in best], rel=1e-9)


# --- the walker itself -----------------------------------------------------------

def test_level_sums_of_a_finite_group_cover_every_level():
    blocks = LevelSums(lambda batch: np.ones(batch.last.shape[0]))
    done = walk(SchottkyGroup.trivial(1), 3, consumers=[blocks])
    blocks.finish(done)
    assert (done.depth_completed, done.budget_exhausted) == (3, False)
    assert blocks.level_sums == [1.0, 0.0, 0.0, 0.0]
    assert blocks.level_counts == [1, 0, 0, 0]


def test_walk_before_the_identity(std_group):
    blocks = LevelSums(lambda batch: np.ones(batch.last.shape[0]))
    done = walk(std_group, 3, 0, consumers=[blocks])
    blocks.finish(done)
    assert (done.depth_completed, done.budget_exhausted) == (-1, True)
    assert blocks.level_sums == [] and blocks.tail_sum == 0.0


@settings(max_examples=15, deadline=None)
@given(group=schottky_groups(), depth=st.integers(1, 5))
def test_level_counts_follow_the_free_group(group, depth):
    expected = [level_count(group, l) for l in range(depth + 1)]
    k2 = group.letter_count
    assert expected[1:] == [k2 * (k2 - 1) ** (l - 1) for l in range(1, depth + 1)]
    series = poincare_partial(group, InteriorPoint.origin(1), 0.7, depth)
    mu = orbit_measure(group, InteriorPoint.origin(1), 0.7, depth)
    assert series.transcript["level_counts"] == expected
    assert mu.series.transcript["level_counts"] == expected


@settings(max_examples=15, deadline=None)
@given(group=schottky_groups(), depth=st.integers(1, 5), data=st.data())
def test_budget_cut_is_a_prefix(group, depth, data):
    total = sum(level_count(group, l) for l in range(depth + 1))
    budget = data.draw(st.integers(1, total - 1))
    zeta = BoundaryPoint.from_angle(math.pi)
    full = horospherical_partial(group, zeta, 0.7, depth)
    cut = horospherical_partial(group, zeta, 0.7, depth, budget=budget)
    complete = max(l for l in range(depth + 1)
                   if sum(level_count(group, k) for k in range(l + 1)) <= budget)
    assert cut.budget_exhausted and cut.depth_completed == complete
    assert cut.level_sums == full.level_sums[: complete + 1]
    assert cut.transcript["level_counts"] == full.transcript["level_counts"][: complete + 1]
    assert cut.partial_sum <= full.partial_sum


def _keeping(values):
    """``values``, keeping its latest output as ``.last`` for the recorders."""
    def kept(batch):
        kept.last = values(batch)
        return kept.last
    return kept


def _recorder(calls, blocks, keep):
    """A consumer that records each call's length, kernel level indices,
    matrices and ``blocks``' values; a whole walk's batch (``words is
    batch``) is masked by ``keep[0]``."""
    def consume(batch, words):
        if words is batch:
            rows = np.flatnonzero(keep[0])
            mats = batch.mats[rows]
        else:
            rows, mats = words.rows, words.mats
        calls.append((batch.length, (batch.offset + rows).tolist(), mats.tobytes(),
                      blocks.values.last.tobytes()))
    return consume


def _by_level(calls, depth):
    """The recorded calls joined level by level: per level up to ``depth``,
    its kernel level indices, matrices and values, however it was split."""
    return [([row for l, rows, _, _ in calls if l == length for row in rows],
             b"".join(mats for l, _, mats, _ in calls if l == length),
             b"".join(values for l, _, _, values in calls if l == length))
            for length in range(depth + 1)]


@settings(max_examples=15, deadline=None)
@given(group=schottky_groups(), depth=st.integers(1, 5), data=st.data())
def test_kernel_walk_is_the_masked_whole_walk(group, depth, data):
    """A kernel walk's level sums, and the words and values its consumers
    see, are a whole walk's per-word values and words masked by kernel
    membership (taken from ``kernel_enumerate``), bit for bit."""
    labels = [gen.label for gen in group.generators]
    killed = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    spec = QuotientSpec({l: () if l in killed else (l,) for l in labels})
    total = sum(level_count(group, length) for length in range(depth + 1))
    budget = data.draw(st.one_of(st.none(), st.integers(1, total)))
    bc = embed3(BoundaryPoint.from_angle(math.pi).coords)

    def values(batch):
        return boundary_derivative_raw(batch.mats, bc) ** 0.7

    members = set()
    try:
        for word, _ in kernel_enumerate(group, spec, depth, budget):
            members.add(word.letters)
    except BudgetExceeded:
        pass
    keep: list[np.ndarray] = []   # the current batch's kernel mask

    def masked(batch):
        keep[:] = [np.array([word_at(group, batch.length, batch.offset + i).letters in members
                             for i in range(batch.last.shape[0])], dtype=bool)]
        return values(batch)[keep[0]]

    pruned, whole = LevelSums(_keeping(values)), LevelSums(_keeping(masked))
    by_kernel, by_mask = [], []
    done = walk(group, depth, budget, kernel=spec,
                consumers=[pruned, _recorder(by_kernel, pruned, keep)])
    reference = walk(group, depth, budget, consumers=[whole, _recorder(by_mask, whole, keep)])
    pruned.finish(done)
    whole.finish(reference)
    assert (done.depth_completed, done.budget_exhausted) == (
        reference.depth_completed, reference.budget_exhausted)
    assert np.array(pruned.level_sums).tobytes() == np.array(whole.level_sums).tobytes()
    assert (pruned.level_counts, pruned.tail_sum) == (whole.level_counts, whole.tail_sum)
    assert _by_level(by_kernel, depth) == _by_level(by_mask, depth)


def _batch_budget(data, group, depth, size):
    """None, or a budget below 1, on a level boundary, on a batch boundary
    inside a level, or inside a batch of ``size`` words."""
    counts = [level_count(group, length) for length in range(depth + 1)]
    before = np.cumsum([0] + counts).tolist()   # words of the levels below each level
    kind = data.draw(st.sampled_from(["none", "below 1", "level", "batch", "inside"]))
    if kind == "none":
        return None
    if kind == "below 1":
        return data.draw(st.integers(-1, 0))
    length = data.draw(st.integers(0, depth))
    if kind == "level":
        return before[length + 1]
    start = before[length] + size * data.draw(st.integers(0, (counts[length] - 1) // size))
    if kind == "batch":
        return start
    return start + data.draw(st.integers(1, max(1, min(size, before[length + 1] - start) - 1)))


@settings(max_examples=40, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 6),
       size=st.sampled_from([7, 64]), data=st.data())
def test_pruned_kernel_walk_crosses_slabs(group, depth, size, data):
    """With batches of 7 or 64 words, a pruned kernel walk gives the level
    sums, level counts, tail sum and, level by level, the kernel words
    (level indices, matrices and values) of the whole walk masked by kernel
    membership, bit for bit, for budgets on level and batch boundaries,
    inside a batch and below 1, in dimensions 1 (float64 matrices) and 2
    (complex128).  Its calls are its own: one per run of kept parents."""
    labels = [gen.label for gen in group.generators]
    killed = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    spec = QuotientSpec({l: () if l in killed else (l,) for l in labels})
    budget = _batch_budget(data, group, depth, size)
    bc = embed3(BoundaryPoint.from_angle(math.pi).coords)

    def values(batch):
        return boundary_derivative_raw(batch.mats, bc) ** 0.7

    with mock.patch.object(kleinian.group, "iter_word_batches",
                           functools.partial(iter_word_batches, size=size)):
        members = set()
        try:
            for word, _ in kernel_enumerate(group, spec, depth, budget):
                members.add(word.letters)
        except BudgetExceeded:
            pass
        keep: list[np.ndarray] = []

        def masked(batch):
            keep[:] = [np.array([word_at(group, batch.length, batch.offset + i).letters
                                 in members for i in range(batch.last.shape[0])], dtype=bool)]
            return values(batch)[keep[0]]

        pruned, whole = LevelSums(_keeping(values)), LevelSums(_keeping(masked))
        by_kernel, by_mask = [], []
        done = walk(group, depth, budget, kernel=spec,
                    consumers=[pruned, _recorder(by_kernel, pruned, keep)])
        reference = walk(group, depth, budget,
                         consumers=[whole, _recorder(by_mask, whole, keep)])
    pruned.finish(done)
    whole.finish(reference)
    assert (done.depth_completed, done.budget_exhausted) == (
        reference.depth_completed, reference.budget_exhausted)
    if done.cut is not None:
        assert done.cut.words_generated == reference.cut.words_generated == max(budget, 0)
    assert np.array(pruned.level_sums).tobytes() == np.array(whole.level_sums).tobytes()
    assert (pruned.level_counts, pruned.tail_sum) == (whole.level_counts, whole.tail_sum)
    assert _by_level(by_kernel, depth) == _by_level(by_mask, depth)


@settings(max_examples=30, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 6),
       size=st.sampled_from([7, 64]), data=st.data())
def test_every_complete_level_ends_in_one_final_batch(group, depth, size, data):
    """Whole and pruned walks, cut or not, end each level up to
    ``depth_completed`` in exactly one ``final`` batch, its last call; the
    level of a cut has none."""
    labels = [gen.label for gen in group.generators]
    killed = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    spec = QuotientSpec({l: () if l in killed else (l,) for l in labels})
    budget = _batch_budget(data, group, depth, size)
    for kernel in (None, spec):
        calls = []
        with mock.patch.object(kleinian.group, "iter_word_batches",
                               functools.partial(iter_word_batches, size=size)):
            done = walk(group, depth, budget, kernel=kernel,
                        consumers=[lambda batch, words: calls.append((batch.length,
                                                                      batch.final))])
        assert [length for length, _ in calls] == sorted(length for length, _ in calls)
        for length in range(done.depth_completed + 1):
            finals = [final for l, final in calls if l == length]
            assert finals[-1] and sum(finals) == 1
        assert not any(final for length, final in calls if length > done.depth_completed)


def test_a_pruned_level_without_parents_still_ends():
    """With every generator kept by the retraction, only the identity is in
    the kernel: a depth-4 walk prunes all of level 3, and level 4, with no
    parents, still ends in one empty ``final`` batch."""
    group = example3_group()[0]
    calls = []
    walk(group, 4, kernel=DeclaredStabilizer(("a", "b", "p")).quotient_for(group),
         consumers=[lambda batch, words: calls.append((batch.length, batch.last.shape[0],
                                                       batch.final))])
    assert calls == [(0, 1, True), (1, 6, True), (2, 30, True), (3, 0, True), (4, 0, True)]


def test_pruning_is_pinned_on_the_constructions():
    """Example 2's depth-8 kernel walk forms 515,681 of its 7,686,401 words
    in 62 consumer calls, and Example 3's declared-stabilizer walk 167,305
    of 585,937 in 19; a whole-group consumer keeps every word, with the same
    kernel words."""
    ex2, quotient = example2_group()
    ex3 = example3_group()[0]
    for group, spec, kept, every, kernel, runs in (
            (ex2, quotient, 515_681, 7_686_401, 309_825, 62),
            (ex3, DeclaredStabilizer(("p",)).quotient_for(ex3), 167_305, 585_937, 117_249, 19)):
        for whole, formed in ((False, kept), (True, every)):
            seen = [0, 0, 0]

            def count(batch, words):
                seen[0] += batch.last.shape[0]
                seen[1] += words.last.shape[0]
                seen[2] += 1

            reads_all = LevelSums(lambda batch: np.ones(batch.last.shape[0]), whole_group=True)
            done = walk(group, 8, kernel=spec, consumers=[count, reads_all][: 1 + whole])
            assert (done.depth_completed, done.budget_exhausted) == (8, False)
            assert seen[:2] == [formed, kernel]
            if not whole:
                assert seen[2] == runs


@settings(max_examples=15, deadline=None)
@given(group=schottky_groups(), depth=st.integers(1, 5))
def test_real_walk_gives_the_complex_bits(group, depth):
    """Dimension-1 walks carry float64 matrices; the same letters as
    complex128 give the same level sums and atoms, bit for bit."""
    twin = copy.copy(group)
    twin.letter_matrices = group.letter_matrices.astype(complex)
    zeta, z = BoundaryPoint.from_angle(math.pi), InteriorPoint([0.1, -0.2])

    def bits(sums):
        return np.array(sums).tobytes()

    def results(walked):
        return (horospherical_partial(walked, zeta, 0.7, depth),
                poincare_partial(walked, z, 0.7, depth),
                ending_measure(walked, zeta, 0.7, depth),
                orbit_measure(walked, z, 0.7, depth))

    assert group.letter_matrices.dtype == np.float64
    real, wide = results(group), results(twin)
    for a, b in zip(real[:2], wide[:2]):
        assert bits(a.level_sums) == bits(b.level_sums) and a.partial_sum == b.partial_sum
    for a, b in zip(real[2:], wide[2:]):
        for field in ("points", "weights", "word_lengths"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert bits(a.series.level_sums) == bits(b.series.level_sums)


@settings(max_examples=15, deadline=None)
@given(group=schottky_groups(), depth=st.integers(0, 5))
def test_word_at_follows_the_parent_chain(group, depth):
    """``word_at`` equals the word read back along the (last, parent)
    records of the level engine's batches, at every level from the
    identity up."""
    last, parent = [], []   # per level: every word's last letter and parent
    for batch in iter_word_batches(group, depth):
        if batch.length == len(last):
            last.append([])
            parent.append([])
        last[-1].extend(batch.last.tolist())
        parent[-1].extend(batch.parent.tolist())
    for length in range(depth + 1):
        for index in range(len(last[length])):
            letters, lvl, idx = [], length, index
            while lvl > 0:
                letters.append(last[lvl][idx])
                idx, lvl = parent[lvl][idx], lvl - 1
            word = word_at(group, length, index)
            assert word.letters == tuple(reversed(letters))
            assert word.labels == group.letter_labels


# --- the level engine's bits ---------------------------------------------------------

def _reference_levels(group, depth):
    """Each level's (parents, letters, matrices), built one level at a time
    by gathering the parents' matrices and multiplying by the letters'."""
    letter_mats = group.letter_matrices
    mats, last = np.eye(2, dtype=letter_mats.dtype)[None], [-1]
    levels = []
    for _ in range(depth):
        children = [(p, l) for p, a in enumerate(last) for l in range(group.letter_count)
                    if a < 0 or l != a ^ 1]
        parents = np.array([p for p, _ in children], dtype=np.int64)
        letters = np.array([l for _, l in children], dtype=np.int16)
        mats = matmul_raw(mats[parents], letter_mats[letters])
        last = letters.tolist()
        levels.append((parents, letters, mats))
    return levels


@pytest.mark.parametrize("size, name", [(size, name) for size in (7, 1000)
                                        for name in ("std_group", "std_group_2d", "example3")]
                         + [(BLOCK_WORDS, "example1"), (BLOCK_WORDS, "example2-kernel")])
def test_batches_are_the_level_by_level_products(size, name, request):
    """Every batch's matrices, parents, letters, offset and ``final`` flag
    equal the gather-and-multiply reference, bit for bit, for batch sizes
    that are no multiple of 2k - 1 and for budgets that cut inside one
    parent's children.  In ``BLOCK_WORDS`` batches Example 1's depth-6 walk
    forms runs of 19,208 and 32,767 children, and Example 2's depth-6
    kernel walk, pruned, keeps 5,636 in its level-5 run and 6,891 in its
    first level-6 run: each run spans several ``GATHER_WORDS`` chunks, and
    a kept word's letter and matrix are the reference's at its level index."""
    spec = None
    if name == "example1":
        group = example1_group(Example1Config())[0]
    elif name == "example2-kernel":
        group, spec = example2_group()
    else:
        group = example3_group()[0] if name == "example3" else request.getfixturevalue(name)
    depth = 4 if size < BLOCK_WORDS else 6
    levels = _reference_levels(group, depth)
    sizes = [1] + [letters.shape[0] for _, letters, _ in levels]
    before = np.cumsum([0] + sizes)          # words of the levels below each level
    branching = group.letter_count - 1
    budgets = [None, int(before[-1]), int(before[2]) + branching + 1,
               int(before[depth]) + branching + 2]
    for budget in budgets:
        tracker = None if spec is None else QuotientTracker(group, spec, depth, prune=True)
        seen, widest = [0] * (depth + 1), [0] * (depth + 1)
        try:
            for batch in iter_word_batches(group, depth, budget, size=size, tracker=tracker):
                m = batch.last.shape[0]
                widest[batch.length] = max(widest[batch.length], m)
                if batch.rows is None:
                    assert 0 < m <= size and batch.offset == seen[batch.length]
                    assert batch.final == (batch.offset + m == sizes[batch.length])
                    rows = slice(batch.offset, batch.offset + m)
                else:   # a pruned run's kept words, at their level indices
                    assert m <= size and batch.offset == 0
                    rows = batch.rows
                seen[batch.length] += m
                if batch.length == 0:
                    assert batch.mats.tobytes() == np.eye(2, dtype=group.letter_matrices.dtype
                                                          ).tobytes()
                    continue
                parents, letters, mats = levels[batch.length - 1]
                if batch.rows is None:
                    assert np.array_equal(batch.parent, parents[rows])
                assert np.array_equal(batch.last, letters[rows])
                assert batch.mats.tobytes() == mats[rows].tobytes()
        except BudgetExceeded as cut:
            assert budget is not None and cut.words_generated == budget
        if tracker is None:
            assert sum(seen) == (before[-1] if budget is None else min(budget, before[-1]))
        if budget is None and size == BLOCK_WORDS:
            assert min(widest[5:]) > GATHER_WORDS


def _engine_walk(group, depth, budget, size, spec):
    """A walk's batches joined level by level: per level its matrices'
    bytes, last letters, parents, level indices and image lengths, and
    whether it ended in a ``final`` batch; with the cut's word count and
    completed depth.  ``spec`` walks pruned, by that retraction."""
    tracker = None if spec is None else QuotientTracker(group, spec, depth, prune=True)
    levels = defaultdict(lambda: ([], [], [], [], [], []))
    cut = None
    try:
        for batch in iter_word_batches(group, depth, budget, size, tracker):
            mats, last, parent, index, image, final = levels[batch.length]
            assert not any(final), "a batch after the level's final one"
            m = batch.last.shape[0]
            mats.append(batch.mats.tobytes())
            last.append(batch.last)
            parent.append(batch.parent)
            index.append(batch.offset + (np.arange(m) if batch.rows is None else batch.rows))
            image.append(np.empty(0) if batch.image is None else batch.image)
            final.append(batch.final)
    except BudgetExceeded as exc:
        cut = (exc.words_generated, exc.depth_completed)
    joined = {length: (b"".join(mats), *(np.concatenate(a).tolist() for a in arrays),
                       any(final))
              for length, (mats, *arrays, final) in levels.items()}
    return joined, cut


def _inside(data, group, length):
    """A budget that cuts inside level ``length``, or None if it has one word."""
    count = level_count(group, length)
    if count < 2:
        return None
    return sum(level_count(group, l) for l in range(length)) + data.draw(st.integers(1, count - 1))


@settings(max_examples=40, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 5),
       pruned=st.booleans(), data=st.data())
def test_batches_do_not_depend_on_the_batch_size(group, depth, pruned, data):
    """Whole walks and walks pruned by a random retraction, cut inside
    level L - 1, inside the top level L or not at all, give the same words
    in batches of 1, 2, 2k - 1 and ``BLOCK_WORDS`` words: per level, the same
    matrix bytes, last letters, parents, level indices, image lengths and
    ``final`` flag, and the same cut.  Each word's matrix is the
    ``matmul_raw`` fold of ``word_at``'s letters, bit for bit."""
    labels = [gen.label for gen in group.generators]
    spec = None
    if pruned:
        killed = data.draw(st.sets(st.sampled_from(labels), min_size=1))
        spec = QuotientSpec({l: () if l in killed else (l,) for l in labels})
    budget = data.draw(st.sampled_from([None, "L-1", "L"]))
    if budget is not None:
        budget = _inside(data, group, depth - 1 if budget == "L-1" else depth)
    walks = [_engine_walk(group, depth, budget, size, spec)
             for size in (1, 2, group.letter_count - 1, BLOCK_WORDS)]
    assert all(w == walks[0] for w in walks[1:])
    levels, cut = walks[0]
    if cut is not None:
        assert cut[0] == budget
    letter_mats = group.letter_matrices
    for length, (mats, _, _, index, _, _) in levels.items():
        words = np.frombuffer(mats, dtype=letter_mats.dtype).reshape(-1, 2, 2)
        for row, i in zip(words, index):
            fold = np.eye(2, dtype=letter_mats.dtype)
            for letter in word_at(group, length, i).letters:
                fold = matmul_raw(fold, letter_mats[letter])
            assert fold.tobytes() == row.tobytes()


def test_a_walk_holds_no_matrices_of_the_level_below_the_top():
    """Example 1's whole depth-7 walk and Example 2's pruned depth-8 kernel
    walk each trace less than 32 bytes (one float64 matrix) per word of
    their level L - 1: that level keeps last letters, and parents on a
    pruned walk, and its matrices are re-formed run by run at the top."""
    ex1, _ = example1_group(Example1Config())
    ex2, quotient = example2_group()
    for group, depth, kernel in ((ex1, 7, None), (ex2, 8, quotient)):
        assert group.letter_matrices.dtype == np.float64
        bound = 32 * level_count(group, depth - 1)
        assert _traced_peak(lambda: walk(group, depth, kernel=kernel)) < bound


# --- any batch size, the same bits -------------------------------------------------

def _walk_outputs(group, depth, budget):
    """The bits of every walk consumer: a boundary series; ending measures at
    one and two targets and beside an orbit measure, with their first-letter
    sums; the conformality residuals (every letter, one cell and the default
    cells) of an ending and an orbit measure; kernel measures and a horoball scan on
    one pruned kernel walk; a domination record on a whole kernel walk; and
    the probe records of a pruned exponent estimate."""
    if group.dim == 1:
        targets = (BoundaryPoint.from_angle(math.pi), BoundaryPoint.from_angle(3.5))
        base = InteriorPoint([0.1, 0.2])
    else:
        targets = (BoundaryPoint([-1.0, 0.0, 0.0]), BoundaryPoint([-1.0, 0.3, 0.2]))
        base = InteriorPoint([0.1, 0.2, -0.1])
    labels = [gen.label for gen in group.generators]
    spec = QuotientSpec({labels[0]: ()})

    def measure_bits(measures, done):
        return [bits for mu in measures.at(done)
                for bits in (mu.points.tobytes(), mu.weights.tobytes(),
                             mu.word_lengths.tobytes(), repr(mu.series.level_sums),
                             repr({f: part.value() for f, part in mu.first_letter_sums.items()}))]

    series = horospherical_partial(group, targets[0], 0.7, depth, budget)
    out = [repr((series.level_sums, series.partial_sum, series.transcript["level_counts"]))]
    for count, orbits in ((1, ()), (2, ()), (1, (base,))):
        measures = EndingMeasures(group, targets[:count], 0.7, orbit_points=orbits)
        out += measure_bits(measures, measures.walk(depth, budget))
    for mu in (ending_measure(group, targets[0], 0.7, depth, budget=budget),
               orbit_measure(group, base, 0.7, depth, budget)):
        out += [conformality_residual(mu, group.letter_transform(e), 0.7, cells).hex()
                for cells in (1, DEFAULT_CELLS) for e in range(group.letter_count)]
    scan, scanned = horoball_scanner(group, targets[0], (0.5, 1.0, 2.0), depth)
    kernel_measures = EndingMeasures(group, targets, 0.7, kernel=spec)
    done = kernel_measures.walk(depth, budget, [scan])
    out += measure_bits(kernel_measures, done)
    out += [repr((hits.entered, [(w.letters, k) for w, k in hits.witnesses]))
            for hits in scanned(done)]
    out.append(repr(bounded_parabolic_domination(group, targets[0], 0.7, depth,
                                                 DeclaredStabilizer((labels[0],)), budget)))
    probes = []

    def record(*fields):
        probes.append(repr(fields))
        return ProbeRecord(*fields)

    with mock.patch.object(kleinian.series, "ProbeRecord", record):
        try:
            estimate_delta(group, (0.05, 4.0), tuple(range(1, depth + 1)), budget, spec)
        except InconclusiveBracket:
            probes.append("inconclusive")
    return out + probes


@settings(max_examples=25, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 5),
       size=st.sampled_from([7, 64, BLOCK_WORDS]), data=st.data())
def test_batch_size_keeps_every_bit(group, depth, size, data):
    """Walks in batches of 7, 64 and ``BLOCK_WORDS`` words give the same
    level and first-letter sums, measures, residuals, horoball scans,
    domination records and probe records, bit for bit, in dimensions 1 and
    2, on whole, pruned and whole kernel walks, for budgets that cut on and
    inside batches of ``size`` words."""
    budget = _batch_budget(data, group, depth, size)
    assume(budget is None or budget >= 1)
    outputs = []
    for batch_words in (7, 64, BLOCK_WORDS):
        with mock.patch.object(kleinian.group, "iter_word_batches",
                               functools.partial(iter_word_batches, size=batch_words)):
            outputs.append(_walk_outputs(group, depth, budget))
    assert outputs[0] == outputs[1] == outputs[2]


def _traced_peak(call) -> int:
    """The peak of the memory traced while ``call()`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_sum_holds_little_beside_its_values():
    values = np.random.default_rng(19).random(1 << 20)   # 8 MiB
    total = ExactSum()
    assert _traced_peak(lambda: total.add(values)) < 4 << 20


def test_the_example3_walk_holds_no_top_slab():
    """``build_example3``'s depth-8 walk (measure, whole-group sum and
    domination, 585,937 words) never forms its top level's matrices at once:
    it traces about 9 MiB, where 2^20-word blocks of them trace about 57."""
    group, target = example3_group()
    measures = EndingMeasures(group, [target], 0.8,
                              kernel=DeclaredStabilizer(("p",)).quotient_for(group))
    whole = LevelSums(boundary_values(target, 0.8), whole_group=True)
    dominate, _ = parabolic_domination(target, 0.8)
    assert _traced_peak(lambda: measures.walk(8, None, [whole, dominate])) < 32 << 20


def test_residuals_walk_nothing_and_hold_little():
    """The residuals of every letter on Example 1's depth-7 ending and orbit
    measures (941,192 top-level words) walk nothing, and trace well under
    1 MiB: they read the measures' first-letter sums."""
    group, target = example1_group(Example1Config(depth=7))
    measures = EndingMeasures(group, [target], 0.5, orbit_points=[InteriorPoint([0.1, -0.2])])
    done = measures.walk(7)
    letters = [group.letter_transform(e) for e in range(group.letter_count)]
    refused = AssertionError("a residual walked")
    with mock.patch.object(kleinian.group, "iter_word_batches", side_effect=refused):
        for mu in measures.at(done):
            peak = _traced_peak(lambda: [conformality_residual(mu, g, 0.5) for g in letters])
            assert peak < 1 << 20


def test_a_deep_series_keeps_no_level_values():
    """Example 1's depth-8 boundary series (7,686,401 words, 6,588,344 in
    its top level) traces about 9 MiB: its level sums keep no values.  A
    ``LevelSums`` that kept 2^20 of a level's values would trace about 17."""
    group, target = example1_group(Example1Config())
    assert _traced_peak(lambda: horospherical_partial(group, target, 0.5, 8)) < 40 << 20


# --- exact level sums ------------------------------------------------------------------

def _level_values(values):
    """A walk consumer that keeps each level's ``values(words)``, and the
    ``math.fsum`` of each of its first levels."""
    levels = defaultdict(list)

    def collect(batch, words):
        levels[batch.length].append(values(words))

    def fsums(count):
        return [math.fsum(np.concatenate(levels[l] or [np.empty(0)]).tolist())
                for l in range(count)]
    return collect, fsums


EXAMPLE2_EXPONENT = 0.3723437500000001   # the exponent of configs/example2.json


def test_example2_kernel_level_sums_are_fsum_of_their_levels():
    """The kernel measure at the fixed point of ``d``, depth 8, whose level 8
    comes in 38 batches: each level sum is ``math.fsum`` of that level's
    values, bit for bit."""
    group, quotient = example2_group()
    target = example2_target(group, "d")
    measures = EndingMeasures(group, [target], EXAMPLE2_EXPONENT, kernel=quotient)
    collect, fsums = _level_values(boundary_values(target, EXAMPLE2_EXPONENT))
    [mu] = measures.at(measures.walk(8, None, [collect]))
    assert list(mu.series.level_sums) == fsums(9)


@settings(max_examples=20, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 5),
       kernel=st.booleans())
def test_level_sums_are_fsum_of_their_levels(group, depth, kernel):
    """Walked in batches of 7, 64 and ``BLOCK_WORDS`` words, whole and as a
    kernel walk, every level sum is ``math.fsum`` of its level's values."""
    target = (BoundaryPoint.from_angle(math.pi) if group.dim == 1
              else BoundaryPoint([-1.0, 0.0, 0.0]))
    spec = QuotientSpec({group.generators[0].label: ()}) if kernel else None
    for size in (7, 64, BLOCK_WORDS):
        blocks = LevelSums(boundary_values(target, 0.7))
        collect, fsums = _level_values(boundary_values(target, 0.7))
        with mock.patch.object(kleinian.group, "iter_word_batches",
                               functools.partial(iter_word_batches, size=size)):
            blocks.finish(walk(group, depth, kernel=spec, consumers=[blocks, collect]))
        assert blocks.level_sums == fsums(depth + 1)


@settings(max_examples=20, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(0, 5),
       kernel=st.booleans(), data=st.data())
def test_first_letter_sums_are_fsum_of_their_words(group, depth, kernel, data):
    """On whole, pruned kernel and budget-cut walks, in batches of 7 words,
    each first-letter sum of each level is ``math.fsum`` of its words'
    values, their first letters tracked from their parents'."""
    target = (BoundaryPoint.from_angle(math.pi) if group.dim == 1
              else BoundaryPoint([-1.0, 0.0, 0.0]))
    spec = QuotientSpec({group.generators[0].label: ()}) if kernel else None
    total = sum(level_count(group, length) for length in range(depth + 1))
    budget = data.draw(st.one_of(st.none(), st.integers(1, total)))
    values = boundary_values(target, 0.7)
    blocks = LevelSums(values)
    firsts: list[np.ndarray] = []   # per level, the first letters of its batches' words
    summed = defaultdict(list)      # (level, first letter) -> values

    def track(batch, words):
        if batch.length == 0:
            first = np.array([-1])
        else:
            parents = firsts[batch.length - 1][batch.parent]
            first = np.where(parents < 0, batch.last, parents)
        if batch.length == len(firsts):
            firsts.append(np.empty(0, dtype=np.int64))
        firsts[batch.length] = np.concatenate([firsts[batch.length], first])
        for f, value in zip((first if spec is None else first[batch.image == 0]).tolist(),
                            values(words).tolist()):
            summed[batch.length, f].append(value)

    with mock.patch.object(kleinian.group, "iter_word_batches",
                           functools.partial(iter_word_batches, size=7)):
        done = walk(group, depth, budget, kernel=spec, consumers=[blocks, track])
    for length in range(depth + 1):
        blocks.finish(done.upto(length))
        assert {f: part.value() for f, part in blocks.first_letter_sums.items()} == {
            f: math.fsum(level) for (at, f), level in summed.items() if at == length}


def _split_sum(values, cuts):
    """The values fed in the parts that the indices ``cuts`` mark, in turn to
    two ``ExactSum`` objects, and ``ExactSum.total`` of those, rounded."""
    sums = (ExactSum(), ExactSum())
    for i, part in enumerate(np.split(values, cuts)):
        sums[i % 2].add(part)
    return ExactSum.total(sums).value()


def _sum_outcome(add, values):
    """The bits of a sum, or the name of what it raised."""
    try:
        return add(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def _rounded(values):
    """The exact sum of finite values, correctly rounded: ``OverflowError``
    exactly when it lies beyond the float range."""
    return float(sum(map(Fraction, values)))


def _oracle(values):
    """``math.fsum``'s outcome on non-finite values, else the rounded exact sum."""
    if all(map(math.isfinite, values)):
        return _sum_outcome(_rounded, values)
    return _sum_outcome(math.fsum, values)


def _splits(data, n):
    return sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))


FINITE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-300, 300)),   # ~600 binades
    st.floats(-1e-307, 1e-307),                                            # subnormals too
)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(FINITE, max_size=400), data=st.data())
@example(values=[], data=None)
@example(values=[0.1], data=None)
@example(values=[0.0] * 100, data=None)
@example(values=[-0.0] * 100, data=None)
@example(values=[1.0, -1.0] * 50, data=None)
@example(values=[5e-324] * 100, data=None)
@example(values=[2.0 ** -1000] * 70 + [-(2.0 ** -1000)] * 69, data=None)
@example(values=[2.0 ** 60, 3.0 * 2.0 ** 70, -(2.0 ** 55)], data=None)
def test_exact_sum_is_fsum_bit_for_bit(values, data):
    """Fed in random parts, ``ExactSum`` is the correctly rounded sum, which
    for these values is ``math.fsum``'s."""
    cuts = _splits(data, len(values)) if data is not None else [len(values) // 3]
    array = np.array(values, dtype=np.float64)
    assert _sum_outcome(lambda a: _split_sum(a, cuts), array) == _oracle(values)
    assert _oracle(values) == _sum_outcome(math.fsum, values)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(FINITE, max_size=200),
       special=st.one_of(
           st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
           st.lists(st.sampled_from([1e308, -1e308, 2.0 ** 1023]), min_size=1, max_size=3)),
       data=st.data())
def test_exact_sum_follows_fsum_on_non_finite_values_and_overflows(values, special, data):
    """nan, +-inf and +inf with -inf give what ``math.fsum`` gives; sums of
    huge finite values are the rounded exact sum, ``OverflowError`` beyond
    the float range."""
    for value in special:
        values.insert(data.draw(st.integers(0, len(values))), value)
    array = np.array(values, dtype=np.float64)
    assert _sum_outcome(lambda a: _split_sum(a, _splits(data, len(values))), array) == (
        _oracle(values))


def test_exact_sum_does_not_overflow_on_the_way():
    """``math.fsum`` raises on an intermediate overflow that ``ExactSum``,
    summing exactly, never meets; a level sum of values j(w, .)^s >= 0 has
    no such case."""
    values = [1.0] * 67 + [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(values)
    assert _split_sum(np.array(values), [30]) == 1e308


SUM_BLOCK = 7   # BLOCK_WORDS for the blocked sums below


@st.composite
def _blocked_sums(draw):
    """Arrays of several blocks of ``SUM_BLOCK`` values, each block spread
    over its own few binades, the first block highest, so that the lowest
    exponent first appears in a later block.  Some cancel to zero or to a
    subnormal; some end with inf and nan, or with huge values, in the last
    block only."""
    blocks = draw(st.integers(10, 27))
    base = draw(st.integers(-1070, 700))
    lows = draw(st.lists(st.integers(base, base + 200), min_size=blocks, max_size=blocks))
    lows[0] = max(lows) + 1
    spread = draw(st.integers(0, 60))
    values = [math.ldexp(draw(st.floats(-1.0, 1.0)), low + draw(st.integers(0, spread)))
              for low in lows for _ in range(SUM_BLOCK)]
    ending = draw(st.sampled_from(["plain", "zero", "subnormal", "non-finite", "huge"]))
    if ending in ("zero", "subnormal"):   # the values, then their negatives
        values += [-v for v in values]
        if ending == "subnormal":
            values.append(draw(st.sampled_from([5e-324, -5e-324, 2.0 ** -1030, 1e-310])))
    if ending in ("non-finite", "huge"):   # the values are whole blocks: overwrite some of the last
        specials = ([math.inf, -math.inf, math.nan] if ending == "non-finite"
                    else [1e308, -1e308])
        for row in draw(st.sets(st.integers(1, SUM_BLOCK), min_size=1, max_size=3)):
            values[-row] = draw(st.sampled_from(specials))
    return values


@settings(max_examples=100, deadline=None)
@given(values=_blocked_sums())
@example(values=[1.0] * 67 + [1e308, 1e308, -1e308])   # fsum overflows on the way
@example(values=[2.0 ** -1000] * 35 + [2.0 ** -1060] + [-(2.0 ** -1000)] * 35)
@example(values=[1.0] * 7 + [math.inf] * 7)   # a last block of non-finite values alone
def test_exact_sum_across_blocks_is_fsum_bit_for_bit(values):
    """In blocks of 7 values, with exponent ranges that move from block to
    block, ``ExactSum`` is still the correctly rounded sum, and still
    follows ``math.fsum`` on non-finite values met only in the last block."""
    array = np.array(values, dtype=np.float64)
    with mock.patch.object(kleinian.group, "BLOCK_WORDS", SUM_BLOCK):
        blocked = _sum_outcome(lambda a: _split_sum(a, []), array)
    assert blocked == _oracle(values)


# --- the single-walker rule --------------------------------------------------------

WALKERS = {"walk", "enumerate_words", "kernel_enumerate"}
CUT_HANDLERS = {("group.py", "walk"), ("cli.py", "main")}
CATCHES_A_CUT = {"BudgetExceeded", "KleinianError", "Exception", "BaseException"}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _offences(path: Path) -> list[str]:
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call)
                and "iter_word_batches" in _names(node.func) and func not in WALKERS):
            found.append(f"{path.name}:{node.lineno} {func} calls iter_word_batches")
        if isinstance(node, ast.ExceptHandler) and (path.name, func) not in CUT_HANDLERS:
            caught = _names(node.type) if node.type is not None else {"BaseException"}
            if caught & CATCHES_A_CUT:
                found.append(f"{path.name}:{node.lineno} {func} catches a budget cut")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_the_walker_walks_and_catches_cuts():
    offences = [o for path in sorted(SRC.glob("*.py")) for o in _offences(path)]
    assert offences == []
