"""The single word walker: one truncation rule for every walk-backed API."""

import ast
import copy
import functools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kleinian.group
import kleinian.limits
from kleinian.errors import BudgetExceeded
from kleinian.examples import example2_group, example3_group
from kleinian.group import (EXACT_SUM_MIN, DeclaredStabilizer, LevelSums, QuotientSpec,
                            SchottkyGroup, enumerate_words, exact_sum, iter_word_batches,
                            kernel_enumerate, level_count, walk, word_at)
from kleinian.limits import horoball_entry, horoball_scanner
from kleinian.measure import EndingMeasures, _record_shell, ending_measure, orbit_measure
from kleinian.mobius import boundary_derivative_raw, matmul_raw
from kleinian.model import BoundaryPoint, InteriorPoint, embed3
from kleinian.series import (bounded_parabolic_domination, horospherical_partial,
                             poincare_partial, reduced_horospherical_partial)

from conftest import cap_groups, schottky_groups

SRC = Path(__file__).resolve().parent.parent / "src" / "kleinian"
DOMAIN_POINT = BoundaryPoint.from_angle(math.radians(108.0))
TARGETS = (DOMAIN_POINT, BoundaryPoint.from_angle(math.radians(252.0)))
QUOTIENT = QuotientSpec("free", {"a": (), "b": ("b",)})


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
    {}, {"stab": DeclaredStabilizer(("a",))}, {"kernel": QUOTIENT},
    {"kernel": QuotientSpec("free", {"a": ("x",), "b": ("x",)})}],
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


@settings(max_examples=15, deadline=None)
@given(group=schottky_groups(), depth=st.integers(1, 5), data=st.data())
def test_kernel_walk_is_the_masked_whole_walk(group, depth, data):
    """A kernel walk's level sums, and the words and values its consumers
    see, are a whole walk's per-word values and words masked by kernel
    membership (taken from ``kernel_enumerate``), bit for bit."""
    labels = [gen.label for gen in group.generators]
    killed = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    spec = QuotientSpec("free", {l: () if l in killed else (l,) for l in labels})
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

    def seen_by(record, blocks):
        def consume(batch, words):
            if words is batch:   # the whole walk: mask it
                rows = np.flatnonzero(keep[0])
                mats = batch.mats[rows]
            else:
                rows, mats = words.rows, words.mats
            record.append((batch.length, batch.offset + rows, mats.tobytes(),
                           blocks.values.last.tobytes()))
        return consume

    pruned, whole = LevelSums(_keeping(values)), LevelSums(_keeping(masked))
    by_kernel, by_mask = [], []
    done = walk(group, depth, budget, kernel=spec,
                consumers=[pruned, seen_by(by_kernel, pruned)])
    reference = walk(group, depth, budget, consumers=[whole, seen_by(by_mask, whole)])
    pruned.finish(done)
    whole.finish(reference)
    assert (done.depth_completed, done.budget_exhausted) == (
        reference.depth_completed, reference.budget_exhausted)
    assert np.array(pruned.level_sums).tobytes() == np.array(whole.level_sums).tobytes()
    assert (pruned.level_counts, pruned.tail_sum) == (whole.level_counts, whole.tail_sum)
    assert len(by_kernel) == len(by_mask)
    for (l1, i1, m1, v1), (l2, i2, m2, v2) in zip(by_kernel, by_mask):
        assert (l1, m1, v1) == (l2, m2, v2) and np.array_equal(i1, i2)


def _slab_budget(data, group, depth, slab):
    """None, or a budget below 1, on a level boundary, on a slab boundary
    inside a level, or inside a slab."""
    counts = [level_count(group, length) for length in range(depth + 1)]
    before = np.cumsum([0] + counts).tolist()   # words of the levels below each level
    kind = data.draw(st.sampled_from(["none", "below 1", "level", "slab", "inside"]))
    if kind == "none":
        return None
    if kind == "below 1":
        return data.draw(st.integers(-1, 0))
    length = data.draw(st.integers(0, depth))
    if kind == "level":
        return before[length + 1]
    start = before[length] + slab * data.draw(st.integers(0, (counts[length] - 1) // slab))
    if kind == "slab":
        return start
    return start + data.draw(st.integers(1, max(1, min(slab, before[length + 1] - start) - 1)))


@settings(max_examples=40, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 6),
       slab=st.sampled_from([7, 64]), data=st.data())
def test_pruned_kernel_walk_crosses_slabs(group, depth, slab, data):
    """With slabs of 7 or 64 words, a pruned kernel walk gives the level
    sums, level counts, tail sum and consumer calls (rows, matrices and
    values) of the whole walk masked by kernel membership, bit for bit, for
    budgets on level and slab boundaries, inside a slab and below 1, in
    dimensions 1 (float64 matrices) and 2 (complex128)."""
    labels = [gen.label for gen in group.generators]
    killed = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    spec = QuotientSpec("free", {l: () if l in killed else (l,) for l in labels})
    budget = _slab_budget(data, group, depth, slab)
    bc = embed3(BoundaryPoint.from_angle(math.pi).coords)

    def values(batch):
        return boundary_derivative_raw(batch.mats, bc) ** 0.7

    def recorder(calls, blocks, keep=None):
        def consume(batch, words):
            if keep is None:
                rows, mats = batch.offset + words.rows, words.mats
            else:   # the whole walk, masked
                rows = batch.offset + np.flatnonzero(keep[0])
                mats = batch.mats[keep[0]]
            calls.append((batch.length, batch.final, rows.tolist(), mats.tobytes(),
                          blocks.values.last.tobytes()))
        return consume

    with mock.patch.object(kleinian.group, "iter_word_batches",
                           functools.partial(iter_word_batches, slab=slab)):
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
                    consumers=[pruned, recorder(by_kernel, pruned)])
        reference = walk(group, depth, budget, consumers=[whole, recorder(by_mask, whole, keep)])
    pruned.finish(done)
    whole.finish(reference)
    assert (done.depth_completed, done.budget_exhausted) == (
        reference.depth_completed, reference.budget_exhausted)
    if done.cut is not None:
        assert done.cut.words_generated == reference.cut.words_generated == max(budget, 0)
    assert np.array(pruned.level_sums).tobytes() == np.array(whole.level_sums).tobytes()
    assert (pruned.level_counts, pruned.tail_sum) == (whole.level_counts, whole.tail_sum)
    assert by_kernel == by_mask


def test_pruning_is_pinned_on_the_constructions():
    """Example 2's depth-8 kernel walk forms 515,681 of its 7,686,401 words
    and Example 3's declared-stabilizer walk 167,305 of 585,937; a
    whole-group consumer keeps every word, with the same kernel words."""
    ex2, quotient = example2_group()
    ex3 = example3_group()[0]
    for group, spec, kept, every, kernel in (
            (ex2, quotient, 515_681, 7_686_401, 309_825),
            (ex3, DeclaredStabilizer(("p",)).quotient_for(ex3), 167_305, 585_937, 117_249)):
        for whole, formed in ((False, kept), (True, every)):
            seen = [0, 0]

            def count(batch, words):
                seen[0] += batch.last.shape[0]
                seen[1] += words.last.shape[0]

            reads_all = LevelSums(lambda batch: np.ones(batch.last.shape[0]), whole_group=True)
            done = walk(group, 8, kernel=spec, consumers=[count, reads_all][: 1 + whole])
            assert (done.depth_completed, done.budget_exhausted) == (8, False)
            assert seen == [formed, kernel]


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


@pytest.mark.parametrize("name", ["std_group", "std_group_2d", "example3"])
@pytest.mark.parametrize("slab", [7, 1000])
def test_batches_are_the_level_by_level_products(name, slab, request):
    """Every batch's matrices, parents, letters, offset and ``final`` flag
    equal the gather-and-multiply reference, bit for bit, for slabs that
    are no multiple of 2k - 1 and for budgets that cut inside one parent's
    children."""
    group = (example3_group()[0] if name == "example3"
             else request.getfixturevalue(name))
    depth = 4
    levels = _reference_levels(group, depth)
    sizes = [1] + [letters.shape[0] for _, letters, _ in levels]
    before = np.cumsum([0] + sizes)          # words of the levels below each level
    branching = group.letter_count - 1
    budgets = [None, int(before[-1]), int(before[2]) + branching + 1,
               int(before[depth]) + branching + 2]
    for budget in budgets:
        seen = [0] * (depth + 1)
        try:
            for batch in iter_word_batches(group, depth, budget, slab=slab):
                m = batch.last.shape[0]
                assert 0 < m <= slab and batch.offset == seen[batch.length]
                assert batch.final == (batch.offset + m == sizes[batch.length])
                seen[batch.length] += m
                if batch.length == 0:
                    assert batch.mats.tobytes() == np.eye(2, dtype=group.letter_matrices.dtype
                                                          ).tobytes()
                    continue
                parents, letters, mats = levels[batch.length - 1]
                rows = slice(batch.offset, batch.offset + m)
                assert np.array_equal(batch.parent, parents[rows])
                assert np.array_equal(batch.last, letters[rows])
                assert batch.mats.tobytes() == mats[rows].tobytes()
        except BudgetExceeded as cut:
            assert budget is not None and cut.words_generated == budget
        assert sum(seen) == (before[-1] if budget is None else min(budget, before[-1]))


# --- the blocked top level ------------------------------------------------------------

def _whole_slab_blocks(batch):
    """Each batch as one block of its whole matrices: the unblocked path."""
    yield 0, batch.mats


def _blocked_outputs(group, depth, budget):
    """The bits of a boundary series, of ending measures at one and at two
    targets and beside an orbit measure, and of the conformality shells of
    an ending and an orbit measure."""
    if group.dim == 1:
        targets = (BoundaryPoint.from_angle(math.pi), BoundaryPoint.from_angle(3.5))
        base = InteriorPoint([0.1, 0.2])
    else:
        targets = (BoundaryPoint([-1.0, 0.0, 0.0]), BoundaryPoint([-1.0, 0.3, 0.2]))
        base = InteriorPoint([0.1, 0.2, -0.1])
    out = []
    series = horospherical_partial(group, targets[0], 0.7, depth, budget)
    out.append(np.array(series.level_sums + (series.partial_sum,)).tobytes())
    for count, orbits in ((1, ()), (2, ()), (1, (base,))):
        measures = EndingMeasures(group, targets[:count], 0.7, check_domain=False,
                                  orbit_points=orbits)
        for mu in measures.at(measures.walk(depth, budget)):
            out += [mu.points.tobytes(), mu.weights.tobytes(), mu.word_lengths.tobytes(),
                    np.array(mu.series.level_sums).tobytes()]
    for mu in (ending_measure(group, targets[0], 0.7, depth, budget=budget,
                              check_domain=False),
               orbit_measure(group, base, 0.7, depth, budget)):
        shell = _record_shell(mu, mu.meta["enumeration"])
        out += [getattr(shell, name).tobytes() for name in ("first", "jraw", "points", "z", "t")
                if getattr(shell, name) is not None]
    return out


@settings(max_examples=30, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 5),
       slab=st.sampled_from([23, 200]), block=st.sampled_from([7, 64]), data=st.data())
def test_blocked_top_level_keeps_every_bit(group, depth, slab, block, data):
    """With blocks of 7 or 64 words, boundary series level sums, ending
    measures at one and two targets (points, weights, word lengths) and the
    conformality shells equal the whole-slab path bit for bit, in
    dimensions 1 and 2, for budgets that cut on and inside slabs and blocks."""
    budget = _slab_budget(data, group, depth, slab)
    assume(budget is None or budget >= 1)
    with mock.patch.object(kleinian.group, "iter_word_batches",
                           functools.partial(iter_word_batches, slab=slab)):
        with mock.patch.object(kleinian.group, "BLOCK_WORDS", block):
            blocked = _blocked_outputs(group, depth, budget)
        with mock.patch.object(kleinian.group.WordBatch, "blocks", _whole_slab_blocks):
            whole = _blocked_outputs(group, depth, budget)
    assert blocked == whole


def test_boundary_walks_never_form_a_whole_top_slab(std_group):
    """The boundary series and the ending measure evaluate the top level block
    by block and never form a top-level slab's matrices; the interior series
    reads every slab's matrices whole."""
    formed = []
    whole = kleinian.group._Children.whole

    def counted(children):
        formed.append(children.words.stop - children.words.start)
        return whole(children)

    depth, slab = 5, 100
    with mock.patch.object(kleinian.group._Children, "whole", counted), \
            mock.patch.object(kleinian.group, "iter_word_batches",
                              functools.partial(iter_word_batches, slab=slab)):
        horospherical_partial(std_group, DOMAIN_POINT, 0.7, depth)
        ending_measure(std_group, DOMAIN_POINT, 0.7, depth)
        assert formed == []
        poincare_partial(std_group, InteriorPoint([0.1, 0.2]), 0.7, depth)
    assert sum(formed) == level_count(std_group, depth) and len(formed) > 1


# --- exact batch sums ------------------------------------------------------------------

def _sum_outcome(add, values):
    """The bits of a sum, or the name of what it raised."""
    try:
        return add(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


FINITE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-300, 300)),   # ~600 binades
    st.floats(-1e-307, 1e-307),                                            # subnormals too
)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(FINITE, min_size=EXACT_SUM_MIN, max_size=400))
@example(values=[])
@example(values=[0.1])
@example(values=[0.0] * 100)
@example(values=[-0.0] * 100)
@example(values=[1.0, -1.0] * 50)
@example(values=[5e-324] * 100)
@example(values=[2.0 ** -1000] * 70 + [-(2.0 ** -1000)] * 69)
def test_exact_sum_is_fsum_bit_for_bit(values):
    array = np.array(values, dtype=np.float64)
    assert _sum_outcome(exact_sum, array) == _sum_outcome(
        lambda a: math.fsum(a.tolist()), array)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(FINITE, min_size=EXACT_SUM_MIN, max_size=200),
       special=st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308]),
                        min_size=1, max_size=3),
       data=st.data())
def test_exact_sum_falls_back_on_non_finite_and_huge_values(values, special, data):
    for value in special:
        values.insert(data.draw(st.integers(0, len(values))), value)
    array = np.array(values, dtype=np.float64)
    assert _sum_outcome(exact_sum, array) == _sum_outcome(
        lambda a: math.fsum(a.tolist()), array)


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
