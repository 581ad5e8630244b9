"""The single word walker: one truncation rule for every walk-backed API."""

import ast
import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleinian.errors import BudgetExceeded
from kleinian.examples import Example3Config, example3_group
from kleinian.group import (EXACT_SUM_MIN, DeclaredStabilizer, LevelSums, QuotientSpec,
                            SchottkyGroup, WordTable, coset_representatives, enumerate_words,
                            exact_sum, iter_word_batches, kernel_enumerate, level_count, walk)
from kleinian.limits import horoball_entry, horoball_scan, radial_profile
from kleinian.measure import ending_measure, ending_measures, orbit_measure
from kleinian.mobius import boundary_derivative_raw, matmul_raw
from kleinian.model import BoundaryPoint, InteriorPoint, embed3
from kleinian.series import (bounded_parabolic_domination, horospherical_partial,
                             poincare_partial, reduced_horospherical_partial)

from conftest import schottky_groups

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
    profile = radial_profile(group, zeta, t_grid=(1.0, 2.0, 3.0), max_length=depth,
                             budget=budget)
    hits = horoball_entry(group, zeta, 1.0, depth, budget=budget)
    kernel_hits = horoball_entry(group, zeta, 1.0, depth, budget=budget, kernel=QUOTIENT)
    grid_hits = horoball_scan(group, zeta, (0.5, 1.0, 2.0), depth, budget=budget,
                              kernel=QUOTIENT)
    measures = ending_measures(group, TARGETS, 1.0, depth, budget=budget)(depth)
    kernel_measures = ending_measures(group, TARGETS, 1.0, depth, kernel=QUOTIENT,
                                      budget=budget)(depth)
    try:
        list(coset_representatives(group, stab, depth, budget))
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
        "radial_profile": (profile.depth_completed, profile.budget_exhausted),
        "horoball_entry": (hits.depth_completed, hits.budget_exhausted),
        "kernel horoball_entry": (kernel_hits.depth_completed, kernel_hits.budget_exhausted),
        **{f"horoball_scan at c={h.level}": (h.depth_completed, h.budget_exhausted)
           for h in grid_hits},
        **{f"ending_measures at target {i}": series(mu.series)
           for i, mu in enumerate(measures)},
        **{f"kernel ending_measures at target {i}": series(mu.series)
           for i, mu in enumerate(kernel_measures)},
        "coset_representatives": reps,
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


def test_radial_profile_labels_a_cut(std_group):
    profile = radial_profile(std_group, DOMAIN_POINT, t_grid=(1.0, 2.0, 3.0),
                             max_length=8, budget=10)
    assert profile.depth == 8
    assert profile.depth_completed == 1 and profile.budget_exhausted
    summary = profile.summary()
    assert (summary["depth_completed"], summary["budget_exhausted"]) == (1, True)


# --- one walk answers many questions --------------------------------------------

def _assert_same_measure(mu, reference):
    assert np.array_equal(mu.points, reference.points)
    assert np.array_equal(mu.weights, reference.weights)
    assert np.array_equal(mu.word_lengths, reference.word_lengths)
    assert (mu.depth, mu.meta["target"]) == (reference.depth, reference.meta["target"])
    assert mu.series == reference.series


@pytest.mark.parametrize("budget", [None, 17, 20])
@pytest.mark.parametrize("restriction", [{}, {"stab": DeclaredStabilizer(("a",))},
                                         {"kernel": QUOTIENT}],
                         ids=["group", "stabilizer", "kernel"])
def test_ending_measures_equal_one_walk_per_depth(std_group, budget, restriction):
    # budget 17 ends on the level-2 boundary and budget 20 inside level 3, so
    # the depth-2 measures of the cut depth-3 walk are complete
    measures_at = ending_measures(std_group, TARGETS, 0.8, 3, budget=budget, **restriction)
    for depth in range(4):
        for zeta, mu in zip(TARGETS, measures_at(depth)):
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
def test_horoball_scan_equals_per_level_scans(std_group, budget, kernel):
    # the attracting fixed point of a: the orbit enters every horoball there
    zeta = std_group.generator("a").transform.classify().fixed_points[0]
    levels = (0.05, 0.3, 1.0, 3.0)
    scans = horoball_scan(std_group, zeta, levels, 5, budget=budget, kernel=kernel,
                          max_witnesses=40)
    for c, scan in zip(levels, scans):
        single = horoball_entry(std_group, zeta, c, 5, budget=budget, kernel=kernel,
                                max_witnesses=40)
        assert scan == single and scan.level == c and scan.count() > 0
        reference = _horoball_reference(std_group, zeta, c, 5, budget, kernel)
        kvals = [kval for _, kval in scan.witnesses]
        assert kvals == sorted(kvals, reverse=True)
        assert scan.count() == min(len(reference), 40)
        best = sorted(reference, key=lambda rec: -rec[1])[: scan.count()]
        assert {w.letters for w, _ in scan.witnesses} == {letters for letters, _ in best}
        assert kvals == pytest.approx([kval for _, kval in best], rel=1e-9)


# --- the walker itself -----------------------------------------------------------

def test_level_sums_of_a_finite_group_cover_every_level():
    blocks = LevelSums(lambda batch: np.ones(batch.last.shape[0]))
    done = walk(SchottkyGroup.trivial(1), 3, sums=[blocks])
    assert (done.depth_completed, done.budget_exhausted) == (3, False)
    assert blocks.level_sums == [1.0, 0.0, 0.0, 0.0]
    assert blocks.level_counts == [1, 0, 0, 0]


def test_walk_before_the_identity(std_group):
    blocks = LevelSums(lambda batch: np.ones(batch.last.shape[0]))
    done = walk(std_group, 3, 0, sums=[blocks])
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
    table = WordTable(group)
    keep: list[np.ndarray] = []   # the current batch's kernel mask

    def masked(batch):
        table.record(batch)
        keep[:] = [np.array([table.word(batch.length, batch.offset + i).letters in members
                             for i in range(batch.last.shape[0])], dtype=bool)]
        return values(batch)[keep[0]]

    def seen_by(record):
        def consume(batch, words, kept):
            if words is batch:   # the whole walk: mask it
                rows = np.flatnonzero(keep[0])
                mats = batch.mats[rows]
            else:
                rows, mats = words.rows, words.mats
            record.append((batch.length, batch.offset + rows, mats.tobytes(),
                           kept[0].tobytes()))
        return consume

    pruned, whole = LevelSums(values), LevelSums(masked)
    by_kernel, by_mask = [], []
    done = walk(group, depth, budget, kernel=spec, sums=[pruned],
                consumers=[seen_by(by_kernel)])
    reference = walk(group, depth, budget, sums=[whole], consumers=[seen_by(by_mask)])
    assert (done.depth_completed, done.budget_exhausted) == (
        reference.depth_completed, reference.budget_exhausted)
    assert np.array(pruned.level_sums).tobytes() == np.array(whole.level_sums).tobytes()
    assert (pruned.level_counts, pruned.tail_sum) == (whole.level_counts, whole.tail_sum)
    assert len(by_kernel) == len(by_mask)
    for (l1, i1, m1, v1), (l2, i2, m2, v2) in zip(by_kernel, by_mask):
        assert (l1, m1, v1) == (l2, m2, v2) and np.array_equal(i1, i2)


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
    group = (example3_group(Example3Config())[0] if name == "example3"
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
