import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import kleinian.group
import kleinian.measure
from kleinian.errors import TargetNotInDomainClosure
from kleinian.examples import Example1Config, example1_group
from kleinian.group import (BLOCK_WORDS, DeclaredStabilizer, EndingSequenceSpec, QuotientSpec,
                            SchottkyGroup, ending_sequence, enumerate_words, level_count,
                            walk)
from kleinian.measure import (DEFAULT_CELLS, MERGE_TOL, PARTITION_OFFSET, AtomicMeasure,
                              EndingMeasures, _AtomStream, _cell_index, _cell_masses,
                              _conformality_residual_direct, _inserted, _letter_of,
                              _merge_atoms, _shell_sides, _sphere_grid, _void_keys,
                              classify_atomicity, conformality_residual, ending_measure,
                              orbit_measure, singularity_diagnostic, support_gap, weak_distance)
from kleinian.mobius import (apply_boundary_raw, apply_interior_raw,
                             boundary_derivative_raw, interior_derivative_raw, matmul_raw,
                             Transform)
from kleinian.model import BoundaryPoint, InteriorPoint, embed3
from kleinian.series import (TailCertificate, branch_contraction, horospherical_partial,
                             reduced_horospherical_partial)

from conftest import (arc, cap_groups, random_boundary_points, random_interior_points,
                      schottky_groups)

DOMAIN_POINT = BoundaryPoint.from_angle(math.radians(108.0))


@pytest.fixture(scope="module")
def group():
    return SchottkyGroup.from_disc_pairs(
        1, [(arc(72, 10), arc(216, 10)), (arc(144, 10), arc(288, 10))],
        labels=["a", "b"])


def one_atom_measure(angle: float):
    return ending_measure(SchottkyGroup.trivial(1), BoundaryPoint.from_angle(angle), 1.0, 2)


class TestOrbitMeasure:
    def test_depth_zero_single_atom(self, group):
        z = InteriorPoint([0.3, -0.1])
        mu = orbit_measure(group, z, 1.0, 0)
        assert mu.atom_count == 1
        assert np.allclose(mu.points[0], z.coords)
        assert mu.weights[0] == 1.0

    def test_unit_mass_at_every_depth(self, group):
        z = InteriorPoint([0.3, -0.1])
        for depth in range(5):
            mu = orbit_measure(group, z, 0.8, depth)
            assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_weights_match_per_word_recomputation(self, group):
        z = InteriorPoint([0.25, 0.15])
        s = 1.1
        mu = orbit_measure(group, z, s, 6)
        oracle_weights = {}
        total = 0.0
        for w, t in enumerate_words(group, 6):
            val = t.derivative_interior(z) ** s
            total += val
            oracle_weights[t.apply_interior(z).coords.tobytes()] = val
        # check the identity atom and a couple of named orbit atoms
        assert mu.weight_at(z) == pytest.approx(1.0 / mu.series.partial_sum,
                                                rel=1e-10)
        g = group.generators[0].transform
        assert mu.weight_at(g.apply_interior(z)) == pytest.approx(
            g.derivative_interior(z) ** s / mu.series.partial_sum, rel=1e-9)

    def test_matches_extended_precision_oracle(self, group):
        z = InteriorPoint([0.25, 0.15])
        mu = orbit_measure(group, z, 1.0, 6)
        from kleinian.series import poincare_partial

        oracle = poincare_partial(group, z, 1.0, 6, precision="extended")
        assert mu.series.partial_sum == pytest.approx(oracle.partial_sum, rel=1e-12)

    def test_extended_precision_takes_no_budget(self, group):
        from kleinian.series import horospherical_partial, poincare_partial

        with pytest.raises(ValueError, match="budget"):
            poincare_partial(group, InteriorPoint([0.25, 0.15]), 1.0, 3, budget=10,
                             precision="extended")
        with pytest.raises(ValueError, match="budget"):
            horospherical_partial(group, DOMAIN_POINT, 1.0, 3, budget=10,
                                  precision="extended")


class TestEndingMeasure:
    def test_trivial_group_single_atom(self):
        mu = one_atom_measure(0.9)
        assert mu.atom_count == 1
        assert mu.weights[0] == 1.0
        assert mu.series.verdict.kind == "converged_within"

    def test_unit_mass(self, group):
        mu = ending_measure(group, DOMAIN_POINT, 1.0, 6)
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_target_atom_weight_is_reciprocal_partial(self, group):
        mu = ending_measure(group, DOMAIN_POINT, 1.0, 6)
        assert mu.weight_at(DOMAIN_POINT) == pytest.approx(
            1.0 / mu.series.partial_sum, rel=1e-12)

    def test_conformal_pushforward_on_atoms(self, group):
        # weight at g(zeta) = j(g, zeta)^s * weight at zeta
        s = 1.0
        mu = ending_measure(group, DOMAIN_POINT, s, 6)
        base = mu.weight_at(DOMAIN_POINT)
        for gen in group.generators:
            for t in (gen.transform, gen.transform.inverse()):
                expected = t.derivative_boundary(DOMAIN_POINT) ** s * base
                assert mu.weight_at(t.apply_boundary(DOMAIN_POINT)) == \
                    pytest.approx(expected, rel=1e-10)

    def test_atoms_inside_first_letter_discs(self, group):
        # truncation shadow of boundary support: every non-identity atom
        # lies in a generator disc
        mu = ending_measure(group, DOMAIN_POINT, 1.0, 5)
        discs = [d for _, d in group.discs()]
        for point, length in zip(mu.points, mu.word_lengths):
            if length == 0:
                continue
            assert any(d.contains(BoundaryPoint(point)) for d in discs)

    def test_target_inside_disc_rejected(self, group):
        inside = BoundaryPoint.from_angle(math.radians(72.0))
        with pytest.raises(TargetNotInDomainClosure):
            ending_measure(group, inside, 1.0, 3)

    def test_stabilizer_disc_exempt_from_domain_check(self, group):
        extended = SchottkyGroup.free_product(group).with_parabolic(
            "p", arc(180, 12), 4.5)
        zeta = extended.generator("p").transform.classify().fixed_points[0]
        mu = ending_measure(extended, zeta, 0.7, 4,
                            kernel=DeclaredStabilizer(("p",)).quotient_for(extended))
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert mu.series.incomplete_cosets and "domain_check" not in mu.meta

    @pytest.mark.parametrize("restriction", [
        {"kernel": QuotientSpec({"a": (), "b": ("b",)})},
        {"tail": TailCertificate(rate=0.5)}], ids=["kernel", "tail"])
    def test_orbit_measures_sum_the_whole_group_without_a_tail(self, group, restriction):
        with pytest.raises(ValueError, match="orbit measures"):
            EndingMeasures(group, [DOMAIN_POINT], 1.0,
                           orbit_points=[InteriorPoint([0.1, 0.2])], **restriction)

    def test_points_need_the_group_dimension(self, group):
        with pytest.raises(ValueError, match="need 2 coordinates"):
            EndingMeasures(group, [BoundaryPoint([0.0, 0.6, 0.8])], 1.0)
        with pytest.raises(ValueError, match="need 2 coordinates"):
            EndingMeasures(group, (), 1.0, orbit_points=[InteriorPoint([0.0, 0.3, 0.4])])

    def test_kernel_restriction_sums_kernel_words_only(self, group):
        quotient = QuotientSpec({"a": (), "b": ("b",)})
        zeta = group.generator("b").transform.classify().fixed_points[0]
        mu = ending_measure(group, zeta, 0.6, 4, kernel=quotient)
        assert mu.meta["domain_check"].startswith("skipped")   # a normal subgroup
        assert not mu.series.incomplete_cosets
        from kleinian.group import kernel_enumerate

        expected = math.fsum(
            t.derivative_boundary(zeta) ** 0.6
            for _, t in kernel_enumerate(group, quotient, 4))
        assert mu.series.partial_sum == pytest.approx(expected, rel=1e-12)


class TestConformalityResidual:
    def test_identity_transform_zero(self, group):
        from kleinian.mobius import Transform

        mu = ending_measure(group, DOMAIN_POINT, 1.0, 5)
        assert conformality_residual(mu, Transform.identity(1), 1.0) < 1e-14

    def test_residual_decreases_with_depth(self, group):
        g = group.generators[0].transform
        res = []
        for depth in (5, 7):
            mu = ending_measure(group, DOMAIN_POINT, 1.0, depth)
            res.append(conformality_residual(mu, g, 1.0))
        assert res[1] < res[0]

    def test_residual_bounded_by_shell_mass(self, group):
        for depth in (5, 6, 7):
            mu = ending_measure(group, DOMAIN_POINT, 1.0, depth)
            for gen in group.generators:
                residual = conformality_residual(mu, gen.transform, 1.0)
                assert residual <= 2.0 * mu.shell_mass() + 1e-15

    def test_orbit_measure_residual(self, group):
        z = InteriorPoint([0.2, 0.3])
        mu = orbit_measure(group, z, 1.0, 6)
        g = group.generators[1].transform
        assert conformality_residual(mu, g, 1.0) <= 2.0 * mu.shell_mass() + 1e-15

    @pytest.mark.parametrize("dim, cells, fills", [
        (2, 8, False), (2, 10, False), (2, 16, True), (2, 64, True), (1, 8, True), (1, 10, True)])
    def test_cell_counts_fill_their_grid(self, std_group_2d, dim, cells, fills):
        """S^2 has round(sqrt(c)) longitudes of c // that latitudes, so 8 and
        10 cells (3 x 2 and 3 x 3) are refused; S^1 takes any count."""
        points = random_boundary_points(np.random.default_rng(8), dim, 20000)
        weights = np.full(20000, 1.0 / 20000)
        if fills:
            assert np.count_nonzero(_cell_masses(points, weights, dim, cells)) == cells
            return
        with pytest.raises(ValueError, match="multiple of round"):
            _cell_masses(points, weights, dim, cells)
        for budget in (None, 10):   # 10 words end the walk before its top level
            mu = ending_measure(std_group_2d, BoundaryPoint([-1.0, 0.0, 0.0]), 1.0, 3,
                                budget=budget)
            with pytest.raises(ValueError, match="multiple of round"):
                conformality_residual(mu, std_group_2d.generators[0].transform, 1.0, cells)


@st.composite
def nonzero_points(draw, dim: int) -> np.ndarray:
    """Points of norm >= 1e-3 whose nonzero coordinates are >= 1e-6 in size,
    so that every scaled copy in the test below holds them as normal floats."""
    magnitude = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    coords = st.tuples(magnitude, st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])
    p = np.array(draw(st.lists(coords, min_size=dim + 1, max_size=dim + 1)))
    assume(np.linalg.norm(p) >= 1e-3)
    return p


@pytest.mark.parametrize("dim, cells", [(1, 64), (1, 7), (2, 64), (2, 12)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cell_index_bins_by_direction(dim, cells, data):
    """A nonzero point lies in the cell of its direction, at any length the
    floats hold; the origin stays in the cell of angle 0 and latitude pi/2."""
    p = data.draw(nonzero_points(dim))
    direction = _cell_index((p / np.linalg.norm(p))[None, :], dim, cells)
    for scale in (1e-300, 1e-8, 1.0, 1e8):
        assert np.array_equal(_cell_index(scale * p[None, :], dim, cells), direction)
    if dim == 1:
        origin = int(PARTITION_OFFSET * cells)
    else:
        lon_cells, lat_cells = _sphere_grid(cells)
        origin = int(PARTITION_OFFSET * lon_cells) * lat_cells + lat_cells // 2
    assert _cell_index(np.zeros((1, dim + 1)), dim, cells).tolist() == [origin]


@pytest.fixture(scope="module")
def example1():
    return example1_group(Example1Config())[0]


@pytest.mark.parametrize("depth", [3, 5, 7])
def test_letter_transforms_take_the_paired_path(example1, depth):
    """``group.letter_transform(e)`` re-normalizes the stored letter; it is
    still recognized as letter e, and its residual is the generator's."""
    mu = orbit_measure(example1, InteriorPoint([0.1, -0.2]), 0.5, depth)
    for e in range(example1.letter_count):
        gen = example1.generators[e // 2].transform
        own = gen if e % 2 == 0 else gen.inverse()
        g = example1.letter_transform(e)
        assert _letter_of(example1, g) == e
        residual = conformality_residual(mu, g, 0.5)
        assert residual == pytest.approx(conformality_residual(mu, own, 0.5), rel=1e-9)
        assert residual <= 2.0 * mu.shell_mass()


def test_direct_residual_on_deep_orbit_atoms(example1):
    """A transform that is no letter takes the direct formula, whose
    co-norms near the sphere stay finite."""
    mu = orbit_measure(example1, InteriorPoint([0.1, -0.2]), 0.5, 7)
    g = example1.word_transform((0, 2))
    assert _letter_of(example1, g) is None
    with np.errstate(all="raise"):
        assert math.isfinite(conformality_residual(mu, g, 0.5))


def test_nan_residual_raises():
    mu = one_atom_measure(1.0)
    mu.weights = np.array([math.nan])
    with pytest.raises(FloatingPointError, match="NaN"):
        conformality_residual(mu, Transform.identity(1), 1.0)


def _paired_reference(mu, g, s: float, cells=(DEFAULT_CELLS,)):
    """The paired conformality residual formed word by word: an uncut walk
    to the measure's top level, ``depth_completed``, that multiplies g and
    g^-1 onto every word v of that shell and evaluates j(g v, p) and g^-1 v (p).
    Returns the binned residual at each count of ``cells``, and the totals
    of the mu(g A) side and of the integral side, ``math.fsum`` of their
    terms."""
    enum = mu.meta["enumeration"]
    group = enum["group"]
    point3 = embed3(np.asarray(enum["point"]))
    boundary = enum["kind"] == "boundary"
    g_letter = _letter_of(group, g)
    assert g_letter is not None
    ginv_letter = g_letter ^ 1
    g_mat, ginv_mat = (t.matrix.real if group.dim == 1 else t.matrix
                       for t in (g, g.inverse()))
    scale = mu.series.partial_sum
    nets = {count: np.zeros(count) for count in cells}
    sides: tuple[list, list] = ([], [])
    first_by_level: list[np.ndarray] = []

    def first_letters(batch) -> np.ndarray:
        while len(first_by_level) <= batch.length:
            first_by_level.append(np.empty(0, dtype=np.int16))
        if batch.length == 0:
            arr = np.array([-1], dtype=np.int16)
        else:
            parents = first_by_level[batch.length - 1][batch.parent]
            arr = np.where(parents < 0, batch.last, parents).astype(np.int16)
        first_by_level[batch.length] = np.concatenate([first_by_level[batch.length], arr])
        return arr

    def bin_of(points: np.ndarray, count: int) -> np.ndarray:
        norms = np.linalg.norm(points, axis=1)
        return _cell_index(points / np.where(norms > 0, norms, 1.0)[:, None], mu.dim, count)

    top = mu.series.depth_completed

    def shell(batch, words) -> None:
        first = first_letters(batch)
        if batch.length != top:
            return
        pre_mats = matmul_raw(ginv_mat, batch.mats)
        comp_mats = matmul_raw(g_mat, batch.mats)
        if boundary:
            jw = boundary_derivative_raw(batch.mats, point3) ** s
            pos_v = apply_boundary_raw(batch.mats, point3)
            pos_pre = apply_boundary_raw(pre_mats, point3)
            jgv = boundary_derivative_raw(comp_mats, point3) ** s
        else:
            jw = interior_derivative_raw(batch.mats, point3) ** s
            pos_v = apply_interior_raw(batch.mats, point3)
            pos_pre = apply_interior_raw(pre_mats, point3)
            jgv = interior_derivative_raw(comp_mats, point3) ** s
        keep_lhs, keep_rhs = first != g_letter, first != ginv_letter
        sides[0].extend((jw[keep_lhs] / scale).tolist())
        sides[1].extend((jgv[keep_rhs] / scale).tolist())
        for count, net in nets.items():
            np.add.at(net, bin_of(pos_pre, count)[keep_lhs], jw[keep_lhs] / scale)
            np.subtract.at(net, bin_of(pos_v, count)[keep_rhs], jgv[keep_rhs] / scale)

    walk(group, top, consumers=[shell])
    return ({count: float(np.max(np.abs(net))) for count, net in nets.items()},
            math.fsum(sides[0]), math.fsum(sides[1]))


SHELL_POINTS = {1: (BoundaryPoint.from_angle(math.pi), InteriorPoint([0.1, -0.2])),
                2: (BoundaryPoint([-0.8, 0.36, 0.48]), InteriorPoint([0.1, -0.2, 0.05]))}


@settings(max_examples=25, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(0, 5),
       kind=st.sampled_from(["ending", "orbit"]), s=st.floats(0.3, 1.5), data=st.data())
def test_first_letter_residual_bounds_the_word_pairing(group, depth, kind, s, data):
    """For every letter, with and without a budget cut, on both boundary
    dimensions: the per-word pairing binned on 1, 16 and 64 cells is at most
    the residual max(A, B^sup); A is the pairing's mu(g A) side, and B^sup
    bounds its integral side."""
    total = sum(level_count(group, length) for length in range(depth + 1))
    budget = data.draw(st.one_of(st.none(), st.integers(1, total)))
    zeta, z = SHELL_POINTS[group.dim]
    mu = (ending_measure(group, zeta, s, depth, budget=budget)
          if kind == "ending" else orbit_measure(group, z, s, depth, budget=budget))
    for e in range(group.letter_count):
        g = group.letter_transform(e)
        binned, a_ref, b_ref = _paired_reference(mu, g, s, (1, 16, DEFAULT_CELLS))
        a, b_sup = _shell_sides(mu, g, s)
        residual = conformality_residual(mu, g, s)
        assert residual == max(a, b_sup)
        assert all(value <= residual * (1.0 + 1e-12) for value in binned.values())
        assert abs(a - a_ref) <= 1e-12 * a_ref
        assert b_ref <= b_sup * (1.0 + 1e-12)
        event("A decides" if a >= b_sup else "B^sup decides")


def test_outside_its_conditions_the_residual_is_the_direct_formula(group):
    """An orbit point inside the open half-ball over a generator disc is not
    moved into the balls R_f by the words of first letter f, a disc of more
    than a hemisphere has no such ball, and a parabolic letter's own ball
    holds u*: there the bound is not formed, and the residual is the direct
    atom formula's."""
    z = InteriorPoint(0.95 * group.generators[0].source.center.coords)
    wide = SchottkyGroup.from_disc_pairs(1, [(arc(0, 100), arc(180, 40))])
    parabolic = SchottkyGroup.free_product(group).with_parabolic("p", arc(0, 12), 4.5)
    p = parabolic.letter_labels.index("p")
    for mu, letters in ((orbit_measure(group, z, 1.0, 4), range(group.letter_count)),
                        (ending_measure(wide, BoundaryPoint.from_angle(2.3), 1.0, 4), (0, 1)),
                        (ending_measure(parabolic, DOMAIN_POINT, 1.0, 4), (p, p ^ 1))):
        for e in letters:
            g = mu.meta["enumeration"]["group"].letter_transform(e)
            assert _shell_sides(mu, g, 1.0) is None
            assert conformality_residual(mu, g, 1.0) == _conformality_residual_direct(
                mu, g, 1.0, DEFAULT_CELLS)


def test_residuals_of_one_measure_walk_once(group, monkeypatch):
    """The measure's own walk is the only one: its residuals, for every
    letter, read its first-letter sums."""
    walks = []
    enumerate_levels = kleinian.group.iter_word_batches

    def counted(*args, **kwargs):
        walks.append(args[1])
        return enumerate_levels(*args, **kwargs)

    monkeypatch.setattr(kleinian.group, "iter_word_batches", counted)
    mu = ending_measure(group, DOMAIN_POINT, 0.8, 5)
    residuals = [conformality_residual(mu, t, 0.8) for gen in group.generators
                 for t in (gen.transform, gen.transform.inverse())]
    assert walks == [5]
    monkeypatch.undo()
    for residual, t in zip(residuals, [t for gen in group.generators
                                       for t in (gen.transform, gen.transform.inverse())]):
        assert _paired_reference(mu, t, 0.8)[0][DEFAULT_CELLS] <= residual * (1.0 + 1e-12)


@pytest.mark.parametrize("kind", ["ending", "orbit"])
def test_a_shell_cut_far_below_its_depth_is_sized_by_the_budget(group, kind):
    """A depth-30 measure cut by a budget of 10^5 words stops before level
    10 (levels <= 9 hold 39,365 words, level 10 another 78,732): its shell
    is level 9, of 4 * 3^8 words, and its first-letter sums, shell mass and
    residuals are those of the uncut depth-9 measure, each residual at least
    the binned defect on 1 and 64 cells."""
    def build(depth, budget=None):
        if kind == "ending":
            return ending_measure(group, DOMAIN_POINT, 0.8, depth, budget=budget)
        return orbit_measure(group, InteriorPoint([0.1, -0.2]), 0.8, depth, budget)

    mu, whole = build(30, 10 ** 5), build(9)
    assert (mu.series.depth_completed, mu.series.budget_exhausted) == (9, True)
    assert mu.word_lengths.max() == 9
    assert {f: p.value() for f, p in mu.first_letter_sums.items()} == {
        f: p.value() for f, p in whole.first_letter_sums.items()}
    assert sorted(mu.first_letter_sums) == list(range(group.letter_count))
    assert 0.0 < mu.shell_mass() == whole.shell_mass()
    for e in range(group.letter_count):
        g = group.letter_transform(e)
        residual = conformality_residual(mu, g, 0.8)
        assert residual == conformality_residual(whole, g, 0.8) > 0.0
        _bounds_binned_defects(mu, g, 0.8, residual, (1, DEFAULT_CELLS))


@settings(max_examples=40, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 4),
       kind=st.sampled_from(["ending", "orbit"]), data=st.data())
def test_the_residual_of_a_cut_measure_bounds_its_binned_defect(group, depth, kind, data):
    """For every budget from 1 to the walk's words, on both boundary
    dimensions, ending and orbit measures: for every letter the residual is
    at least the measure's own binned defect on 1, 16 and 64 cells.  A cut
    measure holds whole levels, so its unpaired words are its top level."""
    total = sum(level_count(group, length) for length in range(depth + 1))
    budget = data.draw(st.integers(1, total))
    zeta, z = SHELL_POINTS[group.dim]
    mu = (ending_measure(group, zeta, 1.0, depth, budget=budget)
          if kind == "ending" else orbit_measure(group, z, 1.0, depth, budget=budget))
    for e in range(group.letter_count):
        g = group.letter_transform(e)
        _bounds_binned_defects(mu, g, 1.0, conformality_residual(mu, g, 1.0),
                               (1, 16, DEFAULT_CELLS))


def _bounds_binned_defects(mu, g, s, residual, cells):
    """``residual`` is at least the direct binned defect on each count of
    ``cells``, up to 1e-12: the rounding of cell sums of masses that total
    about 1 on each side."""
    for count in cells:
        assert _conformality_residual_direct(mu, g, s, count) <= residual + 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_the_empty_measure_has_no_shell_and_no_defect(dim, group, std_group_2d):
    """A walk cut before the identity gives measures with no atoms and a
    normalizer of 0: both sides of the rule are 0, so the shell mass and
    every residual are 0, the residual from the direct formula."""
    walked = group if dim == 1 else std_group_2d
    zeta, z = SHELL_POINTS[dim]
    for mu in (ending_measure(walked, zeta, 0.8, 3, budget=0),
               orbit_measure(walked, z, 0.8, 3, budget=0)):
        assert mu.atom_count == 0 and mu.series.partial_sum == 0.0
        assert mu.shell_mass() == 0.0
        for e in range(walked.letter_count):
            g = walked.letter_transform(e)
            assert _shell_sides(mu, g, 0.8) is None
            assert conformality_residual(mu, g, 0.8) == 0.0
            assert conformality_residual(mu, g, 0.8, 4) == 0.0


def test_later_dimension1_residuals_stay_in_float64(group):
    """A dimension-1 residual forms no complex chart, and a later call gives
    the values of the calls before."""
    mu = ending_measure(group, DOMAIN_POINT, 0.8, 5)
    letters = [group.letter_transform(e) for e in range(group.letter_count)]
    want = [conformality_residual(mu, g, s) for g in letters for s in (0.8, 1.3)]
    refused = AssertionError("a complex chart was formed")
    with mock.patch("kleinian.mobius.sphere_to_proj", side_effect=refused), \
            mock.patch("kleinian.mobius.proj_to_sphere", side_effect=refused):
        assert [conformality_residual(mu, g, s) for g in letters for s in (0.8, 1.3)] == want
        for gen in group.generators:
            for cells in (16, 1000):
                assert conformality_residual(mu, gen.transform, 0.8, cells) >= 0.0


class TestClassifyAtomicity:
    @pytest.fixture(scope="class")
    def parabolic(self, group):
        """The group with a parabolic p added, and the fixed point of p."""
        extended = SchottkyGroup.free_product(group).with_parabolic(
            "p", arc(180, 12), 4.5)
        return extended, extended.generator("p").transform.classify().fixed_points[0]

    def test_loxodromic_fixed_point_no_atom(self, group):
        tc = group.generators[0].transform.classify()
        stab = DeclaredStabilizer(("a",))
        series = reduced_horospherical_partial(group, tc.fixed_points[0], 1.0, 5,
                                               stab=stab)
        verdict = classify_atomicity(group, tc.fixed_points[0], stab, series)
        assert verdict.stabilizer_check.kind == "derivative_not_one"
        assert verdict.conclusion == "no_atom_at_target"
        assert verdict.stabilizer_check.witness == "a"

    def test_certified_atom_with_contraction_certificate(self, group):
        cert = branch_contraction(group, 2.5).boundary_certificate(1.5)
        series = reduced_horospherical_partial(group, DOMAIN_POINT, 1.5, 6,
                                               stab=DeclaredStabilizer.trivial(), tail=cert)
        verdict = classify_atomicity(group, DOMAIN_POINT, DeclaredStabilizer.trivial(),
                                     series)
        assert verdict.conclusion == "atom_at_target"

    def test_no_certificate_is_inconclusive(self, group):
        series = reduced_horospherical_partial(group, DOMAIN_POINT, 1.5, 6,
                                               stab=DeclaredStabilizer.trivial())
        verdict = classify_atomicity(group, DOMAIN_POINT, DeclaredStabilizer.trivial(),
                                     series)
        assert verdict.conclusion == "inconclusive"

    def test_undeclared_stabilizer_is_inconclusive(self, group):
        series = reduced_horospherical_partial(group, DOMAIN_POINT, 1.5, 5)
        verdict = classify_atomicity(group, DOMAIN_POINT, None, series)
        assert verdict.stabilizer_check.kind == "none_declared"
        assert verdict.conclusion == "inconclusive"

    def test_parabolic_point_unreduced_diverges_reduced_consulted(self, parabolic):
        extended, zeta = parabolic
        unreduced = horospherical_partial(extended, zeta, 0.7, 6)
        assert unreduced.verdict.kind == "growth_witness"
        stab = DeclaredStabilizer(("p",))
        series = reduced_horospherical_partial(extended, zeta, 0.7, 6, stab=stab)
        verdict = classify_atomicity(extended, zeta, stab, series)
        assert verdict.stabilizer_check.kind == "all_derivatives_one"
        # reduced series carries no certificate here: stays honest
        assert verdict.conclusion == "inconclusive"

    def test_misdeclared_stabilizer_rejected(self, group):
        with pytest.raises(ValueError):
            stab = DeclaredStabilizer(("a",))
            series = reduced_horospherical_partial(group, DOMAIN_POINT, 1.0, 4, stab=stab)
            classify_atomicity(group, DOMAIN_POINT, stab, series)


    def test_ratio_only_growth_is_inconclusive(self, group):
        # the two-generator series at s = 0.2 and 0.24 grows by its fitted
        # level ratio alone: no exact rule says it diverges
        for s in (0.2, 0.24):
            series = reduced_horospherical_partial(group, DOMAIN_POINT, s, 8,
                                                   stab=DeclaredStabilizer.trivial())
            assert series.verdict.kind == "growth_witness"
            assert "unit_fixer" not in series.verdict.evidence
            verdict = classify_atomicity(group, DOMAIN_POINT, DeclaredStabilizer.trivial(),
                                         series)
            assert verdict.conclusion == "inconclusive"
            assert verdict.transcript["ratio_only_growth"] == series.transcript["ratio_fit"]
            assert series.transcript["ratio_fit"] > 1.05

    def test_unit_fixer_growth_excludes_the_atom(self, parabolic):
        extended, zeta = parabolic
        # over the whole group p is summed, and p fixes zeta with unit derivative
        series = reduced_horospherical_partial(extended, zeta, 0.7, 5,
                                               stab=DeclaredStabilizer.trivial())
        assert series.verdict.evidence["unit_fixer"] == "p"
        verdict = classify_atomicity(extended, zeta, DeclaredStabilizer.trivial(), series)
        assert verdict.conclusion == "no_atom_at_target"

    def test_series_not_over_the_transversal_rejected(self, parabolic):
        extended, zeta = parabolic
        unreduced = horospherical_partial(extended, zeta, 0.7, 4)
        with pytest.raises(ValueError, match="transversal"):
            classify_atomicity(extended, zeta, DeclaredStabilizer(("p",)), unreduced)

    def test_walks_nothing(self, group, parabolic, monkeypatch):
        extended, zeta = parabolic
        stab = DeclaredStabilizer(("p",))
        cases = [(group, DOMAIN_POINT, None,
                  reduced_horospherical_partial(group, DOMAIN_POINT, 1.5, 4)),
                 (group, DOMAIN_POINT, DeclaredStabilizer.trivial(),
                  reduced_horospherical_partial(group, DOMAIN_POINT, 1.5, 4)),
                 (extended, zeta, stab,
                  reduced_horospherical_partial(extended, zeta, 0.7, 4, stab=stab))]
        walks = []
        enumerate_levels = kleinian.group.iter_word_batches

        def counted(*args, **kwargs):
            walks.append(args[1])
            return enumerate_levels(*args, **kwargs)

        monkeypatch.setattr(kleinian.group, "iter_word_batches", counted)
        for case in cases:
            classify_atomicity(*case)
        assert walks == []


class TestWeakDistance:
    def test_self_distance_zero(self, group):
        mu = ending_measure(group, DOMAIN_POINT, 1.0, 5)
        assert weak_distance(mu, mu) == 0.0

    def test_dimensions_must_match(self):
        sphere = ending_measure(SchottkyGroup.trivial(2), BoundaryPoint([-1.0, 0.0, 0.0]), 1.0, 2)
        with pytest.raises(ValueError, match="different boundary dimensions"):
            weak_distance(one_atom_measure(1.0), sphere)

    def test_two_point_masses_distance_shrinks_with_angle(self):
        base = one_atom_measure(1.0)
        distances = [weak_distance(base, one_atom_measure(1.0 + theta))
                     for theta in (0.5, 0.1, 0.01, 0.001)]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 2e-3

    def test_symmetry(self, group):
        mu = ending_measure(group, DOMAIN_POINT, 1.0, 5)
        nu = orbit_measure(group, InteriorPoint.radial(DOMAIN_POINT, 0.9), 1.0, 5)
        assert weak_distance(mu, nu) == pytest.approx(weak_distance(nu, mu),
                                                      abs=1e-14)

    def test_orbit_measures_approach_ending_measure(self, group):
        nu = ending_measure(group, DOMAIN_POINT, 1.0, 5)
        seq = ending_sequence(group, EndingSequenceSpec.dyadic(DOMAIN_POINT, 8))
        distances = [weak_distance(orbit_measure(group, z, 1.0, 5), nu)
                     for z in seq]
        assert all(b < a for a, b in zip(distances, distances[1:]))


def nearest_blocked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exhaustive nearest distances, in row blocks of at most
    ``NEAREST_PAIRS`` pairs: (d0^2 + d1^2) + d2^2 over every pair, the
    root taken last.  The reference for ``_nearest_distances``."""
    nearest = np.full(a.shape[0], np.inf)
    if not b.shape[0]:
        return nearest
    step = max(1, kleinian.measure.NEAREST_PAIRS // b.shape[0])
    for lo in range(0, a.shape[0], step):
        diff = a[lo:lo + step, None, :] - b[None, :, :]
        diff *= diff
        sq = diff[..., 0] + diff[..., 1]
        sq += diff[..., 2]
        nearest[lo:lo + step] = sq.min(axis=1)
    return np.sqrt(nearest)


@st.composite
def nearest_cases(draw) -> np.ndarray:
    """(n, 3) points, n <= 40, of the closed ball or one ulp outside it:
    circle and S^2 points, a small cap, interior points, points with
    coordinates on a coarse grid (equal first coordinates, equal distances),
    their mirror images (x, -y, z), repeats, and points one ulp from another
    in their first coordinate."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cap = np.concatenate([np.ones((4, 1)), 1e-3 * rng.normal(size=(4, 2))], axis=1)
    grid = rng.choice([0.0, -0.0, 0.25, -0.25, 0.5, 1.0 / 3.0, 1e-170], size=(4, 3))
    pool = np.concatenate([embed3(random_boundary_points(rng, 1, 4)),
                           random_boundary_points(rng, 2, 4),
                           cap / np.linalg.norm(cap, axis=1, keepdims=True),
                           random_interior_points(rng, 2, 4), grid])
    pool = np.concatenate([pool, pool * [1.0, -1.0, 1.0]])
    points = pool[rng.integers(0, pool.shape[0], size=draw(st.integers(0, 40)))]
    nudged = rng.random(points.shape[0]) < 0.2
    points[nudged, 0] = np.nextafter(points[nudged, 0], 2.0)
    return points


class TestSingularityDiagnostic:
    def test_identical_measures_full_overlap(self, group):
        mu = ending_measure(group, DOMAIN_POINT, 1.0, 4)
        overlap = singularity_diagnostic(mu, mu, 1e-9)
        assert overlap[0] == pytest.approx(1.0, abs=1e-12)
        assert overlap[1] == pytest.approx(1.0, abs=1e-12)

    def test_separated_supports_no_overlap(self):
        m1, m2 = one_atom_measure(0.5), one_atom_measure(2.5)
        gap = support_gap(m1, m2)
        assert gap > 1.0
        assert singularity_diagnostic(m1, m2, gap / 4.0) == (0.0, 0.0)

    @pytest.mark.parametrize("pairs", [7, 1 << 18])
    def test_nearest_distances_are_the_kd_trees(self, pairs, rng):
        """The blocked exact search gives the KD-tree's nearest distances bit
        for bit, on the sphere and inside the ball."""
        from scipy.spatial import cKDTree

        a = np.concatenate([random_boundary_points(rng, 2, 150),
                            random_interior_points(rng, 2, 50)])
        b = np.concatenate([random_boundary_points(rng, 2, 90), a[:3]])
        with mock.patch.object(kleinian.measure, "NEAREST_PAIRS", pairs):
            for x, y in ((a, b), (b, a)):
                assert (kleinian.measure._nearest_distances(x, y).tobytes()
                        == cKDTree(y).query(x, k=1)[0].tobytes())

    def test_a_cap_windows_across_its_axis(self, rng):
        """On the S^2 cap x > 0.9 the window runs along the axis of widest
        spread, not along x, where it would be an annulus: the distances
        are the KD-tree's bit for bit, and the search compares fewer than a
        quarter of the pairs that a window along x would."""
        from scipy.spatial import cKDTree

        sphere = random_boundary_points(rng, 2, 40000)
        a, b = sphere[sphere[:, 0] > 0.9][:1000], sphere[sphere[:, 0] < -0.9][:1000] * -1.0
        windows, bounds = [], []
        search = kleinian.measure._window_minima

        def recorded(x, y, lo, hi):
            windows.append(int(np.sum(hi - lo)))
            bounds.append(search(x, y, lo, hi))
            return bounds[-1]

        with mock.patch.object(kleinian.measure, "_window_minima", recorded):
            for x, y in ((a, b), (b, a)):
                got = kleinian.measure._nearest_distances(x, y)
                assert got.tobytes() == cKDTree(y).query(x, k=1)[0].tobytes()
                # the pairs that the same bound admits along the first axis
                reach = np.sqrt(bounds[-2]) * (1.0 + 2.0 ** -50) + 2.0 ** -510
                first = np.sort(y[:, 0])
                along_x = (np.searchsorted(first, x[:, 0] + reach, side="right")
                           - np.searchsorted(first, x[:, 0] - reach, side="left"))
                assert 4 * windows[-1] < int(along_x.sum())

    @pytest.mark.parametrize("pairs", [7, 64])
    @settings(max_examples=150, deadline=None)
    @given(case=st.data())
    def test_nearest_distances_equal_the_block_search(self, pairs, case):
        """The sorted-window search gives the exhaustive block search's
        distances bit for bit, on duplicates, equal first coordinates,
        mirror pairs (x, +-y), single points, S^2 caps and interior points,
        with windows split across blocks."""
        a, b = case.draw(nearest_cases()), case.draw(nearest_cases())
        with mock.patch.object(kleinian.measure, "NEAREST_PAIRS", pairs):
            for x, y in ((a, b), (b, a), (a, a)):
                got = kleinian.measure._nearest_distances(x, y)
                assert got.tobytes() == nearest_blocked(x, y).tobytes()

    def test_nothing_is_near_an_empty_measure(self):
        m1 = one_atom_measure(0.5)
        empty = AtomicMeasure(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=np.int64),
                              1, "ending", 1.0, 0)
        assert kleinian.measure._nearest_distances(embed3(m1.points), np.empty((0, 3))
                                                   ).tolist() == [math.inf]
        assert singularity_diagnostic(m1, empty, 0.1) == (0.0, 0.0)
        assert singularity_diagnostic(empty, m1, 0.1) == (0.0, 0.0)
        assert support_gap(m1, empty) == support_gap(empty, m1) == math.inf

    def test_eps_validation(self):
        m1 = one_atom_measure(0.5)
        for eps in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                singularity_diagnostic(m1, m1, eps)


class TestCsvExport:
    def test_csv_rows_sorted_by_weight(self, group, tmp_path):
        mu = ending_measure(group, DOMAIN_POINT, 1.0, 4)
        path = tmp_path / "atoms.csv"
        mu.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,weight,word_length"
        weights = [float(line.split(",")[2]) for line in lines[1:]]
        assert weights == sorted(weights, reverse=True)
        assert len(weights) == mu.atom_count

    @pytest.mark.parametrize("dim", [1, 2])
    def test_csv_bytes_are_the_csv_modules(self, dim, tmp_path):
        """``to_csv`` writes the bytes ``csv.writer`` writes, for widths 2 and
        3, with -0.0, subnormal weights and ties, and for an empty measure."""
        import csv

        points = np.array([[-0.0, 1.0, 0.5], [0.1, -0.0, 1e-300], [1 / 3, 2 / 3, -0.0],
                           [0.25, -0.5, 0.75], [1e300, 5e-324, -1.0]])[:, : dim + 1]
        weights = np.array([5e-324, 0.5, 2.5e-310, 0.5, -0.0])
        lengths = np.array([0, 3, 12, 1, 7])
        for n in (0, 5):
            mu = AtomicMeasure(points[:n], weights[:n], lengths[:n], dim, "ending", 1.0, 12)
            path = tmp_path / f"atoms{n}.csv"
            mu.to_csv(path)
            order = np.lexsort((np.arange(n), -weights[:n]))
            columns = [*points[order].T, weights[order], lengths[order]]
            expected = io.StringIO(newline="")
            writer = csv.writer(expected)
            writer.writerow(["x", "y", "z"][: dim + 1] + ["weight", "word_length"])
            writer.writerows(zip(*(column.tolist() for column in columns)))
            assert path.read_bytes() == expected.getvalue().encode()


    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("count", [0, 1, BLOCK_WORDS - 1, BLOCK_WORDS + 1])
    def test_blocked_rows_are_the_one_shot_join(self, dim, count, rng, tmp_path):
        """Rows written ``BLOCK_WORDS`` at a time give the bytes of every row
        joined at once, with tied weights across the block boundary."""
        points = random_boundary_points(rng, dim, count)
        weights = rng.choice([0.5, 0.25, 1e-300, -0.0], size=count) * rng.integers(1, 3, count)
        lengths = rng.integers(0, 9, size=count)
        mu = AtomicMeasure(points, weights, lengths, dim, "ending", 1.0, 8)
        path = tmp_path / "atoms.csv"
        mu.to_csv(path)
        order = np.lexsort((np.arange(count), -weights))
        columns = [*points[order].T, weights[order], lengths[order]]
        lines = [",".join(["x", "y", "z"][: dim + 1] + ["weight", "word_length"])]
        lines += map(",".join, zip(*(map(repr, column.tolist()) for column in columns)))
        assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


class TestTopAtoms:
    @pytest.mark.parametrize("k", [-3, 0, 1, 5, 37, 38, 197, 199, 200, 250])
    def test_top_atoms_are_the_full_sorts_head(self, k, rng):
        """The partial selection gives the head of the full sort by
        (descending weight, atom order), with many ties at the cut, signed
        zeros, and NaN weights below and at the cut."""
        weights = rng.choice([0.3, 0.2, 0.1, 0.0, -0.0], size=200)
        weights[[17, 60, 133]] = np.nan
        points = rng.normal(size=(200, 2))
        mu = AtomicMeasure(points, weights, np.ones(200, dtype=np.int64), 1, "ending",
                           1.0, 1)
        order = np.lexsort((np.arange(200), -weights))[:k]
        top_points, top_weights = mu.top_atoms(k)
        assert top_points.tobytes() == points[order].tobytes()
        assert top_weights.tobytes() == weights[order].tobytes()


class TestAtomStream:
    """The batch-by-batch merge against one merge of the whole stream."""

    @pytest.mark.parametrize("width", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sizes=st.lists(st.integers(0, 60), min_size=1,
                                                              max_size=4),
           data=st.data())
    def test_every_prefix_equals_one_merge(self, width, seed, sizes, data):
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(10, width))
        sizes = [1] + sizes
        # repeated atoms, some moved by less than the merge grid (same key,
        # different representative) and some by more (a new atom)
        idx = rng.integers(0, pool.shape[0], size=sum(sizes))
        nudge = rng.choice([0.0, 0.1 * MERGE_TOL, 10.0 * MERGE_TOL], size=(idx.shape[0], 1))
        drawn = pool[idx] + nudge
        levels, start = [], 0
        for size in sizes:
            cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=3)))
            levels.append([drawn[start + lo: start + hi]
                           for lo, hi in zip([0] + cuts, cuts + [size])])
            start += size
        # a last level of three batches: every key known (stored column-major),
        # every key new, and known keys before the first new one
        known = drawn[rng.integers(0, drawn.shape[0], size=(3, 4))]
        fresh = rng.normal(size=(2, 4, width)) + 8.0
        levels.append([np.asfortranarray(known[0]), fresh[0],
                       np.concatenate([known[1], fresh[1], known[2], fresh[1][:1]])])
        points = np.concatenate([batch for level in levels for batch in level])
        weights = rng.uniform(0.0, 1.0, size=points.shape[0]) ** 8
        lengths = np.repeat(np.arange(len(levels), dtype=np.int32),
                            [sum(batch.shape[0] for batch in level) for level in levels])
        top_closed = data.draw(st.booleans())   # an open top level is a budget cut
        stream = _AtomStream(width)
        start = 0
        for length, level in enumerate(levels):
            for i, batch in enumerate(level):
                if length == len(levels) - 1:   # ``at`` merges what is queued
                    atoms = stream.at(length)[1].shape[0]
                stream.add(batch, weights[start: start + batch.shape[0]], length)
                start += batch.shape[0]
                if length == len(levels) - 1:
                    assert stream.at(length)[1].shape[0] - atoms == (0, 4, 4)[i]
            if length < len(levels) - 1 or top_closed:
                stream.close(length)
        for depth in range(len(levels)):
            n = int(np.searchsorted(lengths, depth, side="right"))
            expected = _merge_atoms(points[:n], weights[:n], lengths[:n])
            for got, want in zip(stream.at(depth), expected):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [2, 3])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
           cap=st.sampled_from([1, 5, 1 << 18]))
    def test_tiny_batches_merge_wherever_they_flush(self, width, seed, data, cap):
        """Levels of many batches of 0-3 words over few atoms queue several
        batches at a time, so merges fall mid-level, at a level's end and at
        ``at`` of the open top level (a budget cut); every prefix is still
        one merge of its words, whatever the queue's cap."""
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(6, width))
        sizes = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=25),
                                   min_size=1, max_size=4))
        peeks = set(data.draw(st.lists(st.integers(0, 24), max_size=3)))   # at() mid-level
        idx = rng.integers(0, pool.shape[0], size=sum(map(sum, sizes)))
        nudge = rng.choice([0.0, 0.1 * MERGE_TOL, 10.0 * MERGE_TOL], size=(idx.shape[0], 1))
        points = pool[idx] + nudge
        weights = rng.uniform(0.0, 1.0, size=points.shape[0]) ** 8
        lengths = np.repeat(np.arange(len(sizes)), list(map(sum, sizes)))
        top, stream, start, sites = len(sizes) - 1, _AtomStream(width), 0, set()
        flush = _AtomStream._flush

        def recorded(self):
            if self._queue:
                sites.add((site, len(self._queue) > 1))
            flush(self)

        with (mock.patch.object(kleinian.measure, "QUEUE_WORDS", cap),
              mock.patch.object(_AtomStream, "_flush", recorded)):
            for length, level in enumerate(sizes):
                for i, size in enumerate(level):
                    site = "add"
                    stream.add(points[start:start + size], weights[start:start + size], length)
                    start += size
                    if length == top and i in peeks:
                        site = "at"
                        got = stream.at(top)
                        expected = _merge_atoms(points[:start], weights[:start], lengths[:start])
                        for array, want in zip(got, expected):
                            assert array.tobytes() == want.tobytes()
                site = "close"
                if length < top:
                    stream.close(length)
            site = "at"
            for depth in range(len(sizes)):
                n = int(np.searchsorted(lengths, depth, side="right"))
                for got, want in zip(stream.at(depth), _merge_atoms(points[:n], weights[:n],
                                                                    lengths[:n])):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for where, several in sites:
            event(f"merged at {where}" + (" several batches" if several else ""))

    def test_each_flush_site_merges_queued_batches(self):
        """Six atoms, then batches of two known words: the queue holds two
        batches at level 1's end, three when level 2's words reach the six
        atoms, and two more when ``at`` reads the open level 2."""
        rng = np.random.default_rng(11)
        pool = rng.normal(size=(6, 2))
        levels = [[pool]] + [[pool[rng.integers(0, 6, size=2)] for _ in range(n)] for n in (2, 5)]
        stream, sites, added = _AtomStream(2), [], []
        flush = _AtomStream._flush

        def recorded(self):
            if self._queue:
                sites.append((site, len(self._queue)))
            flush(self)

        with mock.patch.object(_AtomStream, "_flush", recorded):
            for length, level in enumerate(levels):
                for points in level:
                    site = "add"
                    added.append((points, rng.uniform(size=points.shape[0]), length))
                    stream.add(*added[-1])
                site = "close"
                if length < 2:
                    stream.close(length)
            site = "at"
            got = stream.at(2)
        assert sites == [("add", 1), ("close", 2), ("add", 3), ("at", 2)]
        points, weights, lengths = zip(*added)
        expected = _merge_atoms(np.concatenate(points), np.concatenate(weights),
                                np.repeat(lengths, [p.shape[0] for p in points]))
        for array, want in zip(got, expected):
            assert array.tobytes() == want.tobytes()

    def test_table_inserts_grow_logarithmically(self):
        """One level of 64 batches of new keys: each merge copies the tables
        for at least as many words as they hold, so they are copied 7 times
        (after batches 1, 2, 4, ..., 64), not 64."""
        rng = np.random.default_rng(5)
        points = rng.normal(size=(64 * 8, 3))
        weights = rng.uniform(size=points.shape[0])
        stream = _AtomStream(3)
        with mock.patch.object(kleinian.measure, "_inserted",
                               wraps=kleinian.measure._inserted) as inserted:
            for lo in range(0, points.shape[0], 8):
                stream.add(points[lo:lo + 8], weights[lo:lo + 8], 0)
            stream.close(0)
        assert inserted.call_count == 2 * 7   # the key and the id table
        expected = _merge_atoms(points, weights, np.zeros(points.shape[0], dtype=np.int64))
        for array, want in zip(stream.at(0), expected):
            assert array.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e4])
    def test_unmergeable_points_raise(self, width, bad):
        # 1e4 / MERGE_TOL is beyond the int64 range of the grid
        good = np.full((3, width), 0.25)
        points = good.copy()
        points[1, -1] = bad
        stream = _AtomStream(width)
        with pytest.raises(FloatingPointError):
            stream.add(points, np.ones(3), 0)
        stream.add(good, np.ones(3), 0)
        with pytest.raises(FloatingPointError):
            stream.add(np.concatenate([good, points]), np.ones(6), 1)

    @pytest.mark.parametrize("dtype", ["complex128", "int64", "float64", "void24"])
    @pytest.mark.parametrize("size", [1, 7, 8, 9, 1000])
    def test_inserted_is_np_insert(self, dtype, size, rng):
        """The atom tables grow by ``np.insert`` bit for bit, ties in the
        positions and inserts at both ends included, in blocks whose length
        is the next power of two."""
        table = rng.integers(-9, 9, size=(size, 3)).astype(np.int64)
        table = (_void_keys(table) if dtype == "void24"
                 else table[:, 0].astype(dtype))
        for count in (1, 2, 9):   # besides one insert at each end
            pos = np.sort(np.concatenate([[0, size], rng.integers(0, size + 1, count)]))
            values = table[rng.integers(0, size, pos.shape[0])]
            got = _inserted(table, pos, values)
            assert got.tobytes() == np.insert(table, pos, values).tobytes()
            assert got.base.shape[0] == 1 << (got.shape[0] - 1).bit_length()

    def test_empty_stream(self):
        points, weights, lengths = _AtomStream(3).at(4)
        assert points.shape == (0, 3) and weights.shape == (0,) and lengths.shape == (0,)

    def test_at_shares_one_read_only_table(self):
        """``at`` gives prefixes of one joined table, each equal bit for bit
        to one merge of its words; what it gives is read-only and stays
        unchanged by later merges, an open level's totals too."""
        rng = np.random.default_rng(7)
        stream, given, saved, added = _AtomStream(2), [], [], []
        for length in range(4):   # the top level stays open, as after a budget cut
            points = rng.normal(size=(5, 2))
            points[:2] = points[2]   # a run of equal keys
            if given:
                points[3] = given[-1][0][-1]   # an atom already known
            added.append((points, rng.uniform(size=5), np.full(5, length)))
            stream.add(points, added[-1][1], length)
            if length < 3:
                stream.close(length)
            whole = [array.copy() for array in stream.at(length)]
            for depth in range(length + 1):
                got = stream.at(depth)
                n = got[1].shape[0]
                assert got[0].tobytes() == whole[0][:n].tobytes()
                assert got[2].tobytes() == whole[2][:n].tobytes()
                assert np.shares_memory(got[0], stream.at(length)[0])
                expected = _merge_atoms(*map(np.concatenate, zip(*added[:depth + 1])))
                for array, want in zip(got, expected):
                    assert array.tobytes() == want.tobytes()
                for array in got:
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[:1] = 0
                given.append(got)
                saved.append([array.copy() for array in got])
        stream.add(given[-1][0][:2], np.ones(2), 3)   # more words of the open level
        assert stream.at(3)[1].tolist() == (saved[-1][1] + np.eye(2, 9).sum(axis=0)).tolist()
        stream.close(3)
        stream.add(rng.normal(size=(3, 2)), np.ones(3), 4)
        assert stream.at(4)[1].shape == (12,)
        for got, kept in zip(given, saved):
            for array, copy in zip(got, kept):
                assert array.tobytes() == copy.tobytes()
