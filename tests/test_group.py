import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian.errors import BudgetExceeded, DiscsOverlap, TargetNotInDomainClosure
from kleinian.group import (DeclaredStabilizer, EndingSequenceSpec, Generator, QuotientSpec,
                            QuotientTracker, SchottkyGroup, Walk, ending_sequence,
                            enumerate_words, iter_word_batches,
                            kernel_enumerate, level_count, walk, word_at)
from kleinian.mobius import (Transform, apply_boundary_raw, boundary_derivative_raw,
                             image_disc, parabolic_fixing)
from kleinian.model import BoundaryPoint, Disc, embed3
from kleinian.series import reduced_horospherical_partial

from conftest import arc, cap_groups, schottky_groups


class TestConstruction:
    def test_overlapping_pairs_rejected(self):
        with pytest.raises(DiscsOverlap):
            SchottkyGroup.from_disc_pairs(1, [(arc(0, 30), arc(50, 30))])

    def test_cross_pair_overlap_names_discs(self):
        with pytest.raises(DiscsOverlap, match="overlap"):
            SchottkyGroup.from_disc_pairs(
                1, [(arc(72, 10), arc(216, 10)), (arc(75, 10), arc(288, 10))])

    def test_a_generator_missing_its_target_fails_ping_pong(self):
        """Give b's transform a target disc of its own choosing: every disc is
        disjoint, but b maps the other discs into its true target, not this one."""
        a_plus, a_minus, b_plus, b_minus = arc(72, 10), arc(216, 10), arc(144, 10), arc(288, 10)
        a = SchottkyGroup.from_disc_pairs(1, [(a_plus, a_minus)]).generators[0]
        b = SchottkyGroup.from_disc_pairs(1, [(b_plus, b_minus)]).generators[0]
        stray = Generator("b", b.transform, b_plus, arc(0, 10))
        SchottkyGroup(1, [a, b])
        with pytest.raises(DiscsOverlap, match="ping-pong failure: b "):
            SchottkyGroup(1, [a, stray])

    def test_a_parabolic_power_leaking_out_of_its_disc_is_rejected(self):
        """A parabolic built for one disc but declared on a smaller one maps
        the smaller disc's exterior only into the larger."""
        disc, smaller = arc(180, 20), arc(180, 5)
        p = parabolic_fixing(disc, 2.5)
        SchottkyGroup(1, [Generator("p", p, disc, disc, "parabolic")])
        with pytest.raises(DiscsOverlap, match="parabolic generator p: some power leaks"):
            SchottkyGroup(1, [Generator("p", p, smaller, smaller, "parabolic")])

    def test_free_product_requires_same_dim(self, std_group, std_group_2d):
        with pytest.raises(ValueError):
            SchottkyGroup.free_product(std_group, std_group_2d)

    def test_dimension_3_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            SchottkyGroup(3, [])

    def test_unknown_generator_label(self, std_group):
        with pytest.raises(KeyError, match="'z'"):
            std_group.generator("z")

    def test_trivial_group(self):
        t = SchottkyGroup.trivial(1)
        assert list(enumerate_words(t, 4)) != []
        words = list(enumerate_words(t, 4))
        assert len(words) == 1 and len(words[0][0]) == 0


class TestEnumeration:
    def test_walks_carry_real_matrices_in_dimension_one_only(self, std_group, std_group_2d):
        for group, dtype in ((std_group, np.float64), (std_group_2d, np.complex128)):
            assert group.letter_matrices.dtype == dtype
            assert all(batch.mats.dtype == dtype for batch in iter_word_batches(group, 3))
            # transforms stay complex whatever the walk carries
            assert group.letter_transform(0).matrix.dtype == np.complex128
            word, transform = list(enumerate_words(group, 2))[-1]
            assert transform.matrix.dtype == np.complex128
        assert SchottkyGroup.trivial(1).letter_matrices.shape == (0, 2, 2)

    def test_length_zero_is_identity(self, std_group):
        words = list(enumerate_words(std_group, 0))
        assert len(words) == 1
        word, transform = words[0]
        assert len(word) == 0 and transform.is_identity()

    def test_word_count_formula(self, std_group):
        words = list(enumerate_words(std_group, 3))
        assert len(words) == 1 + 4 + 12 + 36
        by_len = {}
        for w, _ in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        for length, count in by_len.items():
            assert count == level_count(std_group, length)

    def test_all_words_reduced_and_unique(self, std_group):
        seen = set()
        for w, _ in enumerate_words(std_group, 4):
            for x, y in zip(w.letters, w.letters[1:]):
                assert y != x ^ 1
            assert w.letters not in seen
            seen.add(w.letters)

    def test_breadth_first_lexicographic_order(self, std_group):
        words = [w.letters for w, _ in enumerate_words(std_group, 2)]
        assert words[:5] == [(), (0,), (1,), (2,), (3,)]
        assert words[5:8] == [(0, 0), (0, 2), (0, 3)]

    def test_prefix_cache_coherence(self, std_group):
        for w, t in enumerate_words(std_group, 4):
            if len(w) < 2:
                continue
            prefix = std_group.word_transform(w.letters[:-1])
            last = std_group.letter_transform(w.letters[-1])
            assert prefix.compose(last).is_close(t)

    def test_transforms_pairwise_distinct_to_depth_five(self, std_group):
        mats = []
        for batch in iter_word_batches(std_group, 5):
            mats.append(batch.mats)
        mats = np.concatenate(mats)
        flat = np.concatenate([mats.reshape(-1, 4).real, mats.reshape(-1, 4).imag],
                              axis=1)
        from scipy.spatial import cKDTree

        tree = cKDTree(flat)
        dists, _ = tree.query(flat, k=2)
        assert float(np.min(dists[:, 1])) > 1e-6

    def test_budget_exceeded_reports_partial_depth(self, std_group):
        words = []
        with pytest.raises(BudgetExceeded) as info:
            for w, _ in enumerate_words(std_group, 4, budget=20):
                words.append(w)
        assert len(words) == 20
        assert info.value.depth_completed == 2  # 1 + 4 + 12 complete, 3 of level 3
        assert info.value.words_generated == 20

    def test_a_walk_contains_only_shallower_walks(self, std_group):
        done = walk(std_group, 3)
        assert done.upto(2) == Walk(2, 2)
        with pytest.raises(ValueError, match="does not contain"):
            done.upto(4)

    def test_final_marks_complete_levels_only(self, std_group):
        batches = []
        with pytest.raises(BudgetExceeded):
            for batch in iter_word_batches(std_group, 3, budget=20):
                batches.append((batch.length, batch.last.shape[0], batch.final))
        # levels 0-2 complete (1 + 4 + 12 words), then 3 of the 36 top-level words
        assert batches == [(0, 1, True), (1, 4, True), (2, 12, True), (3, 3, False)]

    def test_ping_pong_nesting_exhaustive(self, std_group):
        # every reduced word maps the closed exterior of its last letter's
        # source disc into the open interior of its first letter's target,
        # and prefix image discs shrink strictly
        for w, t in enumerate_words(std_group, 5):
            if len(w) == 0:
                continue
            first, last = w.letters[0], w.letters[-1]
            target = std_group.letter_targets[first]
            source = std_group.letter_sources[last]
            image = image_disc(t, source.complement())
            if len(w) == 1:
                # a single letter maps the closed exterior onto the closed
                # target disc exactly
                assert np.allclose(image.center.coords, target.center.coords,
                                   atol=1e-9)
                assert image.radius == pytest.approx(target.radius, abs=1e-9)
            else:
                assert target.contains_disc(image)

    def test_nested_prefix_diameters_decrease(self, std_group):
        for w, t in enumerate_words(std_group, 4):
            if len(w) < 2:
                continue
            radius = image_disc(t, std_group.letter_sources[w.letters[-1]].complement()).radius
            prefix_radius = image_disc(
                std_group.word_transform(w.letters[:-1]),
                std_group.letter_sources[w.letters[-2]].complement()).radius
            assert radius < prefix_radius

    def test_ping_pong_words_leave_fundamental_domain(self, std_group):
        zeta = BoundaryPoint.from_angle(math.radians(108.0))
        assert std_group.fundamental_domain_contains(zeta)
        for w, t in enumerate_words(std_group, 4):
            if len(w) == 0:
                continue
            image = t.apply_boundary(zeta)
            assert not _in_open_domain(std_group, image)


def _in_open_domain(group, zeta):
    for _, disc in group.discs():
        if disc.chordal_distance(zeta) <= disc.radius + 1e-12:
            return False
    return group.fundamental_domain_contains(zeta)


class TestFundamentalDomain:
    def test_gap_point_contained(self, std_group):
        assert std_group.fundamental_domain_contains(
            BoundaryPoint.from_angle(math.radians(108.0)))

    def test_disc_center_not_contained(self, std_group):
        assert not std_group.fundamental_domain_contains(
            BoundaryPoint.from_angle(math.radians(72.0)))

    def test_boundary_point_counts_as_contained(self, std_group):
        src = std_group.generators[0].source
        edge_angle = math.radians(72.0) + src.angular_radius
        assert std_group.fundamental_domain_contains(
            BoundaryPoint.from_angle(edge_angle))


class TestQuotients:
    def test_kill_everything_gives_whole_group(self, std_group):
        spec = QuotientSpec({"a": (), "b": ()})
        kernel = [w.letters for w, _ in kernel_enumerate(std_group, spec, 3)]
        everything = [w.letters for w, _ in enumerate_words(std_group, 3)]
        assert kernel == everything

    def test_kill_one_generator(self, std_group):
        spec = QuotientSpec({"a": (), "b": ("b",)})
        kernel = {w.letters for w, _ in kernel_enumerate(std_group, spec, 2)}
        # reduced words over {a, a^-1} only: the identity, both letters, and
        # the two squares (a a^-1 is not reduced)
        assert kernel == {(), (0,), (1,), (0, 0), (1, 1)}

    def test_commutator_in_abelianization_kernel(self, std_group):
        # abelian target: a maps to e1, b to e2; the commutator dies
        spec = QuotientSpec({"a": ("a",), "b": ("b",)})
        # simulate the abelian check through the free tracker by hand:
        # under a -> id, the image of b a b^-1 a^-1 is b b^-1 = id
        killed = QuotientSpec({"a": (), "b": ("b",)})
        kernel = {w.letters for w, _ in kernel_enumerate(std_group, killed, 4)}
        assert (2, 0, 3, 1) in kernel       # b a b^-1 a^-1
        full = {w.letters for w, _ in kernel_enumerate(std_group, spec, 3)}
        assert full == {()}

    def test_kernel_closed_under_inversion(self, std_group):
        spec = QuotientSpec({"a": (), "b": ("b",)})
        kernel = {w.letters for w, _ in kernel_enumerate(std_group, spec, 4)}
        for letters in kernel:
            inverse = tuple(l ^ 1 for l in reversed(letters))
            assert inverse in kernel

    def test_batch_size_below_one_is_refused(self, std_group):
        # ``next`` reaches the check before the identity batch: a size that
        # never advanced would hang here rather than fail
        for size in (0, -3):
            with pytest.raises(ValueError, match="batch size"):
                next(iter_word_batches(std_group, 3, size=size))

    def test_tracker_keeps_parent_levels_only(self, std_group):
        spec = QuotientSpec({"a": (), "b": ("b",)})
        tracker = QuotientTracker(std_group, spec, 3)
        kernel = []
        for batch in iter_word_batches(std_group, 3, size=5):
            kernel.append(int(np.count_nonzero(tracker.extend(batch)[1] == 0)))
        # the top level is never a parent, so its image keys are not kept
        assert [k.shape[0] for k in tracker.keys] == [1, 4, 12]
        assert [k.dtype for k in tracker.keys] == [np.int64] * 3
        assert [n.dtype for n in tracker.lengths] == [np.int16] * 3
        assert sum(kernel) == sum(1 for _ in kernel_enumerate(std_group, spec, 3))

    def test_unlisted_generator_keeps_its_own_label(self, std_group):
        partial = QuotientSpec({"a": ()})
        full = QuotientSpec({"a": (), "b": ("b",)})
        assert ([w.letters for w, _ in kernel_enumerate(std_group, partial, 3)]
                == [w.letters for w, _ in kernel_enumerate(std_group, full, 3)])

    def test_two_letter_images_are_not_supported(self, std_group):
        with pytest.raises(NotImplementedError, match="single-letter"):
            walk(std_group, 2, kernel=QuotientSpec({"a": ("a", "b")}))

    def test_int64_key_caps_the_image_length(self):
        group = SchottkyGroup.from_disc_pairs(1, [(arc(72, 10), arc(216, 10))])
        spec = QuotientSpec({"a": ("a",)})   # a^n has an image of n letters
        assert walk(group, 39, kernel=spec).depth_completed == 39
        with pytest.raises(NotImplementedError, match="39 letters"):
            walk(group, 40, kernel=spec)
        killed = QuotientSpec({"a": ()})   # every key is 0: no cap
        assert walk(group, 70, kernel=killed).depth_completed == 70

    def test_kernel_closed_under_short_conjugation(self, std_group):
        spec = QuotientSpec({"a": (), "b": ("b",)})
        kernel = {w.letters for w, _ in kernel_enumerate(std_group, spec, 6)}
        short = [k for k in kernel if len(k) <= 2]
        for letters in short:
            for conj in range(4):
                word = _reduce((conj,) + letters + (conj ^ 1,))
                if len(word) <= 6:
                    assert word in kernel


def _hand_image(group, images, letters):
    """The image of a word, free-reduced by hand, as (symbol, +-1) letters."""
    out = []
    for letter in letters:
        label = group.generators[letter // 2].label
        for sym in images.get(label, (label,)):
            base, sign = (sym[:-3], -1) if sym.endswith("^-1") else (sym, 1)
            sign = -sign if letter & 1 else sign
            if out and out[-1] == (base, -sign):
                out.pop()
            else:
                out.append((base, sign))
    return tuple(out)


@settings(max_examples=30, deadline=None)
@given(group=schottky_groups(), depth=st.integers(0, 5),
       size=st.sampled_from([7, 1 << 20]), data=st.data())
def test_tracker_matches_hand_reduced_images(group, depth, size, data):
    """Kill, keep, merge onto one symbol or invert: each word's image length,
    kernel membership and key agree with the image reduced by hand."""
    images = {}
    for gen in group.generators:
        choice = data.draw(st.sampled_from(["unlisted", (), (gen.label,), ("x",), ("x^-1",)]))
        if choice != "unlisted":
            images[gen.label] = choice
    tracker = QuotientTracker(group, QuotientSpec(images), depth)
    key_of = {}
    for batch in iter_word_batches(group, depth, size=size):
        keys, lengths = tracker.extend(batch)
        for i in range(batch.last.shape[0]):
            word = word_at(group, batch.length, batch.offset + i)
            image = _hand_image(group, images, word.letters)
            assert lengths[i] == len(image), (word, images)
            # one key per image: equal images share it, different ones do not
            assert key_of.setdefault(image, int(keys[i])) == keys[i]
    assert len(set(key_of.values())) == len(key_of)


@settings(max_examples=40, deadline=None)
@given(group=st.one_of(schottky_groups(), cap_groups()), depth=st.integers(1, 5),
       theta=st.floats(-math.pi, math.pi), lat=st.floats(-1.5, 1.5))
def test_a_word_has_one_value(group, depth, theta, lat):
    """For every word w, word_transform(w) is the walk's matrix up to sign,
    its boundary derivative is the walk's kernel's bytes on that row, and its
    image the walk's by value (the canonical sign may negate the walk's
    matrix, which flips the sign of a zero coordinate)."""
    zeta = BoundaryPoint([math.cos(theta), math.sin(theta)] if group.dim == 1 else
                         [math.cos(lat) * math.cos(theta), math.cos(lat) * math.sin(theta),
                          math.sin(lat)])
    point = embed3(zeta.coords)
    for batch in iter_word_batches(group, depth):
        derivatives = boundary_derivative_raw(batch.mats, point)
        images = apply_boundary_raw(batch.mats, point)
        for i, row in enumerate(batch.mats):
            t = group.word_transform(word_at(group, batch.length, batch.offset + i))
            assert np.array_equal(t.matrix, row) or np.array_equal(t.matrix, -row)
            assert t.derivative_boundary(zeta).hex() == float(derivatives[i]).hex()
            walk_image = BoundaryPoint(images[i, :group.dim + 1])
            assert np.array_equal(t.apply_boundary(zeta).coords, walk_image.coords)


def _thirty_powers_stay_in_disc(gen: Generator, dim: int) -> bool:
    """The check that p and p^-1 replaced: the first 30 powers of each."""
    ext = gen.source.complement()
    for sign_mat in (gen.transform.matrix, gen.transform.inverse().matrix):
        power = np.eye(2, dtype=complex)
        for _ in range(30):
            power = power @ sign_mat
            if not gen.source.contains_disc(image_disc(Transform(power, dim), ext)):
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(strength=st.floats(2.0, 2.6, exclude_min=True),
       radius=st.sampled_from([0.1, 0.3, 0.6, 1.0]), shrink=st.floats(0.5, 1.0),
       dim=st.sampled_from([1, 2]))
def test_p_and_its_inverse_decide_every_parabolic_power(strength, radius, shrink, dim):
    """A parabolic built for one disc, declared on a concentric one of the
    same or a smaller radius: the group is accepted exactly when the first
    30 powers of p and of p^-1 map the declared disc's exterior inside it."""
    center = BoundaryPoint([-1.0, 0.0] if dim == 1 else [-0.6, 0.0, 0.8])
    p = parabolic_fixing(Disc(center, radius), strength)
    declared = Disc(center, radius * shrink)
    gen = Generator("p", p, declared, declared, "parabolic")
    try:
        SchottkyGroup(dim, [gen])
    except DiscsOverlap as exc:
        assert "parabolic generator p: some power leaks" in str(exc)
        accepted = False
    else:
        accepted = True
    assert accepted == _thirty_powers_stay_in_disc(gen, dim)


def _reduce(letters):
    out = []
    for letter in letters:
        if out and out[-1] == letter ^ 1:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class TestCosets:
    """The kernel of a declared stabilizer's retraction is its coset transversal."""

    def test_whole_group_stabilizer_gives_identity(self, std_group):
        stab = DeclaredStabilizer(("a", "b"))
        reps = list(kernel_enumerate(std_group, stab.quotient_for(std_group), 3))
        assert len(reps) == 1 and len(reps[0][0]) == 0

    def test_trivial_stabilizer_gives_all_words(self, std_group):
        # the trivial declaration has no retraction: its transversal is the
        # group, the kernel of the spec that kills every letter
        assert DeclaredStabilizer.trivial().quotient_for(std_group) is None
        kills_all = QuotientSpec({"a": (), "b": ()})
        reps = [w.letters for w, _ in kernel_enumerate(std_group, kills_all, 3)]
        allw = [w.letters for w, _ in enumerate_words(std_group, 3)]
        assert reps == allw

    def test_declared_stabilizer_spec_names_its_letters(self, std_group):
        assert DeclaredStabilizer(("b",)).quotient_for(std_group) == QuotientSpec(
            {"a": (), "b": ("b",)}, stabilizer=("b",))

    def test_declared_stabilizer_matches_kernel(self, std_group):
        # each coset w<b> holds exactly one kernel word, w b^-n with n the
        # exponent of w's image b^n
        stab = DeclaredStabilizer(("b",))
        kernel = {w.letters for w, _ in kernel_enumerate(
            std_group, stab.quotient_for(std_group), 8)}
        for w, _ in enumerate_words(std_group, 4):
            n = w.letters.count(2) - w.letters.count(3)
            rep = _reduce(w.letters + ((3,) * n if n > 0 else (2,) * -n))
            assert rep in kernel

    def test_only_declared_stabilizers_are_transversals(self, std_group):
        quotient = QuotientSpec({"a": (), "b": ("b",)})
        zeta = BoundaryPoint.from_angle(math.radians(108.0))
        with pytest.raises(TypeError):
            reduced_horospherical_partial(std_group, zeta, 0.8, 3, stab=quotient)


class TestEndingSequence:
    def test_radial_points_accepted(self, std_group):
        zeta = BoundaryPoint.from_angle(math.radians(108.0))
        points = ending_sequence(std_group, EndingSequenceSpec.dyadic(zeta, 6))
        assert len(points) == 6
        for n, z in enumerate(points, start=1):
            assert z.norm() == pytest.approx(1.0 - 2.0 ** (-n))
            assert np.allclose(z.coords / z.norm(), zeta.coords)

    def test_disc_center_target_rejected(self, std_group):
        zeta = BoundaryPoint.from_angle(math.radians(72.0))
        with pytest.raises(TargetNotInDomainClosure):
            ending_sequence(std_group, EndingSequenceSpec.dyadic(zeta, 4))

    def test_t_values_validated(self, std_group):
        zeta = BoundaryPoint.from_angle(math.radians(108.0))
        with pytest.raises(ValueError):
            EndingSequenceSpec(zeta, (0.5, 0.4))
        with pytest.raises(ValueError):
            EndingSequenceSpec(zeta, (0.0, 0.5))

    def test_radial_points_lie_on_ray(self, std_group):
        # hyperbolic distance from each point to the ray is zero for the
        # radial default
        zeta = BoundaryPoint.from_angle(math.radians(108.0))
        for z in ending_sequence(std_group, EndingSequenceSpec.dyadic(zeta, 5)):
            cross = z.coords[0] * zeta.coords[1] - z.coords[1] * zeta.coords[0]
            assert abs(cross) < 1e-14


class TestParabolicGenerators:
    def test_free_product_with_parabolic(self, std_group):
        disc = arc(180, 12)
        group = SchottkyGroup.free_product(std_group).with_parabolic("p", disc, 4.0)
        assert group.letter_count == 6
        assert group.generators[2].kind == "parabolic"
        words = list(enumerate_words(group, 2))
        assert len(words) == 1 + 6 + 30
        letters = {w.letters for w, _ in words}
        assert (4, 4) in letters and (5, 5) in letters  # p^2 is reduced
        assert (4, 5) not in letters                    # p p^-1 cancels

    def test_weak_parabolic_rejected(self, std_group):
        with pytest.raises(ValueError):
            SchottkyGroup.free_product(std_group).with_parabolic(
                "p", arc(180, 12), 2.0)
