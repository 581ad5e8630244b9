import itertools
import math

import numpy as np
import pytest

from kleinian.errors import (EnlargedDiscsOverlap, InconclusiveBracket,
                             InvalidSeparation)
from kleinian.group import (DeclaredStabilizer, LevelSums, QuotientSpec, SchottkyGroup,
                            enumerate_words, walk)
from kleinian.mobius import (boundary_derivative_raw, interior_derivative_raw,
                             inverse_origin_images_raw)
from kleinian.model import BoundaryPoint, Disc, InteriorPoint
from kleinian.series import (SeparationSchedule, TailCertificate,
                             bounded_parabolic_domination, branch_contraction,
                             estimate_delta, example1_certificate, horospherical_partial,
                             fixes, parabolic_domination, poincare_partial,
                             reduced_horospherical_partial, trivial_subgroup,
                             unit_derivative, unit_fixer, _probe_label)

from conftest import arc, rim_points


@pytest.fixture(scope="module")
def group():
    return SchottkyGroup.from_disc_pairs(
        1, [(arc(72, 10), arc(216, 10)), (arc(144, 10), arc(288, 10))],
        labels=["a", "b"])


@pytest.fixture(scope="module")
def parabolic_group(group):
    return SchottkyGroup.free_product(group).with_parabolic("p", arc(180, 12), 4.5)


DOMAIN_POINT = BoundaryPoint.from_angle(math.radians(108.0))


class TestPoincarePartial:
    def test_depth_zero_is_one(self, group):
        for s in (0.3, 1.0, 2.0):
            r = poincare_partial(group, InteriorPoint.origin(1), s, 0)
            assert r.partial_sum == 1.0

    def test_monotone_in_depth(self, group):
        z = InteriorPoint([0.2, 0.1])
        values = [poincare_partial(group, z, 1.0, L).partial_sum for L in range(7)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_decreasing_in_exponent(self, group):
        z = InteriorPoint.origin(1)
        values = [poincare_partial(group, z, s, 5).partial_sum
                  for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_extended_precision_oracle(self, group):
        z = InteriorPoint([0.15, -0.3])
        double = poincare_partial(group, z, 1.0, 8)
        oracle = poincare_partial(group, z, 1.0, 8, precision="extended")
        assert double.partial_sum == pytest.approx(oracle.partial_sum, rel=1e-9)
        for a, b in zip(double.level_sums, oracle.level_sums):
            assert a == pytest.approx(b, rel=1e-9)

    def test_extended_precision_is_capped(self):
        from kleinian.examples import Example1Config, example1_group

        example1, _ = example1_group(Example1Config())
        with pytest.raises(ValueError, match="oracle-scale"):
            poincare_partial(example1, InteriorPoint.origin(1), 0.5, 8, precision="extended")

    def test_budget_flagged_not_hidden(self, group):
        r = poincare_partial(group, InteriorPoint.origin(1), 1.0, 6, budget=30)
        assert r.budget_exhausted
        assert r.depth_completed < 6
        full = poincare_partial(group, InteriorPoint.origin(1), 1.0, 6)
        assert r.partial_sum <= full.partial_sum

    def test_deterministic_across_runs(self, group):
        a = poincare_partial(group, InteriorPoint([0.1, 0.4]), 0.7, 6)
        b = poincare_partial(group, InteriorPoint([0.1, 0.4]), 0.7, 6)
        assert a.partial_sum == b.partial_sum
        assert a.level_sums == b.level_sums


class TestHorosphericalPartial:
    def test_depth_zero_is_one(self, group):
        r = horospherical_partial(group, DOMAIN_POINT, 1.3, 0)
        assert r.partial_sum == 1.0

    def test_per_term_comparison_with_interior_series(self, group, rng):
        # j(w, zeta) >= ((1-|z|)^2/4) j(w, z) for every enumerated word
        z = InteriorPoint([0.35, 0.2])
        factor = (1.0 - z.norm()) ** 2 / 4.0
        for w, t in enumerate_words(group, 5):
            jb = t.derivative_boundary(DOMAIN_POINT)
            ji = t.derivative_interior(z)
            assert jb >= factor * ji * (1.0 - 1e-10)

    def test_ordinary_point_upper_bound_with_measured_constant(self, group):
        # j(w, zeta) <= ((1+|z|)^2 / c) j(w, z) with c measured from the
        # enumeration as min |zeta - w^{-1}(0)|^2
        z = InteriorPoint([0.35, 0.2])
        words = list(enumerate_words(group, 5))
        c = min(float(np.dot(DOMAIN_POINT.coords - t.origin_preimage.coords,
                             DOMAIN_POINT.coords - t.origin_preimage.coords))
                for _, t in words)
        assert c > 0.0
        upper = (1.0 + z.norm()) ** 2 / c
        for _, t in words:
            assert t.derivative_boundary(DOMAIN_POINT) <= \
                upper * t.derivative_interior(z) * (1.0 + 1e-10)

    def test_radial_approach_converges_at_fixed_depth(self, group):
        # |P_L(z_n, s) - H_L(zeta, s)| -> 0 along the radial sequence, with
        # the measured domination constant j(w, z_n) <= c2^{-1} j(w, zeta)
        target = horospherical_partial(group, DOMAIN_POINT, 1.0, 5).partial_sum
        gaps = []
        c2 = math.inf
        words = list(enumerate_words(group, 5))
        for n in (2, 4, 6, 8, 10):
            z = InteriorPoint.radial(DOMAIN_POINT, 1.0 - 2.0 ** (-n))
            gaps.append(abs(poincare_partial(group, z, 1.0, 5).partial_sum - target))
            for _, t in words:
                c2 = min(c2, t.derivative_boundary(DOMAIN_POINT)
                         / t.derivative_interior(z))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
        # measured domination constant: j(w, z_n) <= c2^{-1} j(w, zeta)
        assert c2 > 0.0

    def test_growth_witness_at_parabolic_point(self, parabolic_group):
        zeta = parabolic_group.generator("p").transform.classify().fixed_points[0]
        r = horospherical_partial(parabolic_group, zeta, 0.7, 6)
        assert r.verdict.kind == "growth_witness"
        assert r.verdict.evidence["unit_fixer"] == "p"

    def test_certificate_issues_converged_verdict(self, group):
        bounds = branch_contraction(group, 2.5)
        cert = bounds.boundary_certificate(1.5)
        assert cert.rate < 1.0
        r = horospherical_partial(group, DOMAIN_POINT, 1.5, 6, tail=cert)
        assert r.verdict.kind == "converged_within"
        assert r.tail_bound is not None
        deeper = horospherical_partial(group, DOMAIN_POINT, 1.5, 8)
        assert deeper.partial_sum <= r.partial_sum + r.tail_bound

    def test_invalid_certificate_rejected(self, group):
        bogus = TailCertificate(rate=0.5, coeff=1e-6, source="bogus")
        r = horospherical_partial(group, DOMAIN_POINT, 1.0, 6, tail=bogus)
        assert r.verdict.kind != "converged_within"
        assert "certificate_rejected" in r.transcript

    def test_certificate_without_decay_rejected(self, group):
        flat = TailCertificate(rate=1.0, coeff=1e6, source="flat")
        assert flat.tail_from(7) == math.inf
        r = horospherical_partial(group, DOMAIN_POINT, 1.0, 6, tail=flat)
        assert r.verdict.kind != "converged_within"
        assert r.transcript["certificate_rejected"] == "certified rate 1.0 >= 1"


class TestReducedSeries:
    def test_trivial_stabilizer_equals_plain(self, group):
        plain = horospherical_partial(group, DOMAIN_POINT, 1.0, 5)
        reduced = reduced_horospherical_partial(group, DOMAIN_POINT, 1.0, 5,
                                                stab=DeclaredStabilizer.trivial())
        assert reduced.partial_sum == pytest.approx(plain.partial_sum, rel=1e-14)

    def test_parabolic_transversal_equals_kernel_sum(self, parabolic_group):
        from kleinian.group import kernel_enumerate

        zeta = parabolic_group.generator("p").transform.classify().fixed_points[0]
        stab = DeclaredStabilizer(("p",))
        reduced = reduced_horospherical_partial(parabolic_group, zeta, 0.7, 6,
                                                stab=stab)
        kernel_sum = math.fsum(
            t.derivative_boundary(zeta) ** 0.7
            for _, t in kernel_enumerate(parabolic_group,
                                         stab.quotient_for(parabolic_group), 6))
        assert reduced.partial_sum == pytest.approx(kernel_sum, abs=1e-10)
        assert reduced.incomplete_cosets

    def test_bounded_parabolic_domination(self, parabolic_group):
        zeta = parabolic_group.generator("p").transform.classify().fixed_points[0]
        dom = bounded_parabolic_domination(parabolic_group, zeta, 0.7, 7,
                                           DeclaredStabilizer(("p",)))
        assert dom["dominated_at_every_depth"]
        assert dom["b"] >= 0.0
        for red, poi in zip(dom["reduced_partials"], dom["poincare_partials"]):
            assert red <= dom["factor"] * poi * (1.0 + 1e-12)

    @pytest.mark.parametrize("budget", [None, 100])
    def test_trivial_declaration_dominates_over_the_whole_group(self, parabolic_group,
                                                                budget):
        # no retraction: the untracked walk of the whole group gives the
        # record of a tracked walk over the kernel of the spec killing every letter
        zeta = parabolic_group.generator("p").transform.classify().fixed_points[0]
        consume, result = parabolic_domination(zeta, 0.7)
        kills_all = QuotientSpec({gen.label: () for gen in parabolic_group.generators})
        tracked = result(walk(parabolic_group, 5, budget, kernel=kills_all,
                              consumers=[consume]))
        assert bounded_parabolic_domination(parabolic_group, zeta, 0.7, 5,
                                            DeclaredStabilizer.trivial(), budget) == tracked
        assert tracked["budget_exhausted"] == (budget is not None)


KILLS_P = QuotientSpec({"a": ("a",), "b": ("b",), "p": ()})
KEEPS_P = QuotientSpec({"a": (), "b": ("b",), "p": ("p",)})


class TestUnitFixer:
    """The exact divergence rule: a generator of the summed subgroup fixing
    the target with j(g, zeta) = 1 makes every j(g^n, zeta) = 1."""

    @pytest.fixture(scope="class")
    def zeta(self, parabolic_group):
        return parabolic_group.generator("p").transform.classify().fixed_points[0]

    @pytest.mark.parametrize("evaluate", [
        lambda g, z: horospherical_partial(g, z, 0.7, 5),
        lambda g, z: reduced_horospherical_partial(g, z, 0.7, 5),
        lambda g, z: reduced_horospherical_partial(g, z, 0.7, 5,
                                                   stab=DeclaredStabilizer.trivial()),
        lambda g, z: horospherical_partial(g, z, 0.7, 5, kernel=KILLS_P),
    ], ids=["whole group", "no stabilizer", "trivial stabilizer", "kernel holding p"])
    def test_fires_when_p_is_summed(self, parabolic_group, zeta, evaluate):
        r = evaluate(parabolic_group, zeta)
        assert r.verdict.kind == "growth_witness"
        assert r.verdict.evidence["unit_fixer"] == "p"

    @pytest.mark.parametrize("evaluate", [
        lambda g, z: reduced_horospherical_partial(g, z, 0.7, 5,
                                                   stab=DeclaredStabilizer(("p",))),
        lambda g, z: horospherical_partial(g, z, 0.7, 5, kernel=KEEPS_P),
    ], ids=["declared stabilizer", "kernel keeping p"])
    def test_silent_when_p_is_not_summed(self, parabolic_group, zeta, evaluate):
        r = evaluate(parabolic_group, zeta)
        assert "unit_fixer" not in (r.verdict.evidence or {})

    def test_silent_at_a_loxodromic_fixed_point(self, parabolic_group):
        # a fixes its attracting point, but with derivative far from 1
        a = parabolic_group.generator("a").transform
        xi = a.classify().fixed_points[0]
        assert np.linalg.norm(a.apply_boundary(xi).coords - xi.coords) < 1e-8
        assert abs(a.derivative_boundary(xi) - 1.0) > 1e-3
        assert unit_fixer(parabolic_group, xi) is None
        r = horospherical_partial(parabolic_group, xi, 0.7, 5)
        assert "unit_fixer" not in (r.verdict.evidence or {})

    def test_extended_precision_has_no_kernel(self, parabolic_group, zeta):
        with pytest.raises(ValueError, match="kernel"):
            horospherical_partial(parabolic_group, zeta, 0.7, 3, precision="extended",
                                  kernel=KILLS_P)

    def test_measure_and_series_read_one_rule(self, parabolic_group, zeta):
        from kleinian.measure import ending_measure

        # zeta lies in p's open disc, so only a subgroup's measure may sit there
        mu = ending_measure(parabolic_group, zeta, 0.7, 5, kernel=KILLS_P)
        r = horospherical_partial(parabolic_group, zeta, 0.7, 5, kernel=KILLS_P)
        assert mu.series.verdict.kind == r.verdict.kind == "growth_witness"
        assert mu.series.verdict.evidence["unit_fixer"] == "p"


class TestTrivialSubgroup:
    """Tail 0 is certified only for the identity alone, never from level
    blocks that happen to be zero."""

    KERNEL_XX = QuotientSpec({"a": ("x",), "b": ("x",)})
    KERNEL_XY = QuotientSpec({"a": ("x",), "b": ("y^-1",)})

    @pytest.mark.parametrize("evaluate", [
        lambda g: poincare_partial(g, InteriorPoint.origin(1), 1.0, 0),
        lambda g: horospherical_partial(g, DOMAIN_POINT, 1.0, 0),
        lambda g: horospherical_partial(g, DOMAIN_POINT, 1.0, 1,
                                        kernel=TestTrivialSubgroup.KERNEL_XX),
    ], ids=["poincare depth 0", "boundary depth 0", "kernel a,b -> x at depth 1"])
    def test_infinite_subgroup_with_zero_blocks_is_not_certified(self, group, evaluate):
        r = evaluate(group)
        assert all(b == 0.0 for b in r.level_sums[1:])
        assert r.verdict.kind == "inconclusive"
        assert r.tail_bound is None and r.upper_bound() == math.inf

    @pytest.mark.parametrize("evaluate", [
        lambda g: horospherical_partial(SchottkyGroup.trivial(1), DOMAIN_POINT, 1.0, 3),
        lambda g: poincare_partial(SchottkyGroup.trivial(1), InteriorPoint.origin(1),
                                   1.0, 3),
        lambda g: horospherical_partial(g, DOMAIN_POINT, 1.0, 3,
                                        kernel=TestTrivialSubgroup.KERNEL_XY),
        lambda g: reduced_horospherical_partial(g, DOMAIN_POINT, 1.0, 3,
                                                stab=DeclaredStabilizer(("a", "b"))),
    ], ids=["trivial group", "trivial group interior", "kernel a -> x, b -> y^-1",
            "stabilizer naming every generator"])
    def test_identity_alone_converges_with_tail_zero(self, group, evaluate):
        r = evaluate(group)
        assert r.verdict.kind == "converged_within"
        assert r.tail_bound == 0.0 and r.partial_sum == 1.0

    def test_rule(self, group):
        assert trivial_subgroup(SchottkyGroup.trivial(1), None)
        assert not trivial_subgroup(group, None)
        assert trivial_subgroup(group, self.KERNEL_XY)
        assert not trivial_subgroup(group, self.KERNEL_XX)
        assert not trivial_subgroup(group, QuotientSpec({"a": ("x",), "b": ("x^-1",)}))
        assert not trivial_subgroup(group, QuotientSpec({"a": (), "b": ("b",)}))
        assert trivial_subgroup(group, DeclaredStabilizer(("a", "b")).quotient_for(group))

    def test_delta_probes_read_the_same_rule(self, group):
        # kernel words of a, b -> x start at length 2: a depth-1 probe sees
        # zero blocks, which is no evidence of convergence
        with pytest.raises(InconclusiveBracket):
            estimate_delta(group, (0.1, 0.9), depths=(1,), kernel=self.KERNEL_XX)
        est = estimate_delta(SchottkyGroup.trivial(1), (0.1, 0.9), depths=(2,))
        assert (est.low, est.high) == (0.0, 0.1)
        assert est.probes[0].label == "convergent"


class TestSeparationSchedules:
    def test_geometric_closed_form(self):
        sch = SeparationSchedule(16.0, 2.0)
        # sum over n of (4/(16 2^n))^(2s) at s=1/2: geometric with ratio 1/2
        assert sch.admissibility_sum(0.5) == pytest.approx(0.25, rel=1e-14)
        cert = example1_certificate(sch, 0.5)
        assert cert.tail_from(1) == pytest.approx(1.0, rel=1e-12)
        assert cert.tail_from(9) == pytest.approx(0.5 ** 9 / 0.5, rel=1e-12)

    def test_constant_schedule_inadmissible(self):
        # a nearly constant schedule, phi(n) = 4 * 1.01^n, sums to far over 1/2
        assert example1_certificate(SeparationSchedule(4.0, 1.01), 1.0) is None

    def test_separation_below_two_rejected(self):
        with pytest.raises(InvalidSeparation):
            example1_certificate(SeparationSchedule(0.5, 2.0), 1.0)
        with pytest.raises(ValueError):
            SeparationSchedule(16.0, 1.0)
        for scale in (0.0, -16.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="scale"):
                SeparationSchedule(scale, 2.0)

    @pytest.mark.parametrize("s", [0.0, -0.5, math.nan])
    def test_no_certificate_where_the_terms_do_not_decay(self, s):
        # the closed form holds for s > 0 only: q = base^(-2s) >= 1 here
        sch = SeparationSchedule(16.0, 2.0)
        assert sch.admissibility_sum(s) == math.inf
        assert example1_certificate(sch, s) is None

    def test_certificate_matches_tail_bound(self):
        sch = SeparationSchedule(16.0, 2.0)
        cert = example1_certificate(sch, 0.5)
        assert (cert.rate, cert.coeff, cert.source) == (
            2.0 * sch.admissibility_sum(0.5), 1.0, "separation_schedule")
        assert cert.tail_from(9) == pytest.approx(
            sum(cert.rate ** k for k in range(9, 200)), rel=1e-14)


class TestBranchContraction:
    def test_trivial_group_has_no_letters(self):
        bounds = branch_contraction(SchottkyGroup.trivial(1), 2.0)
        assert bounds.letter_bounds == ()
        assert bounds.rate(1.0) == 0.0

    def test_bounds_certify_the_supremum(self, group, rng):
        bounds = branch_contraction(group, 2.0)
        for e in range(group.letter_count):
            enlarged = group.letter_sources[e].enlarged(2.0)
            t = group.letter_transform(e)
            for theta in rng.uniform(-math.pi, math.pi, size=400):
                zeta = BoundaryPoint.from_angle(float(theta))
                if enlarged.contains(zeta):
                    continue
                assert t.derivative_boundary(zeta) <= bounds.letter_bounds[e] * (1 + 1e-12)

    def test_monotone_in_enlargement(self, group):
        rates = [branch_contraction(group, f).rate(1.0) for f in (1.5, 2.0, 3.0)]
        assert rates[0] > rates[1] > rates[2]

    def test_overlapping_enlargement_rejected(self, group):
        with pytest.raises(EnlargedDiscsOverlap):
            branch_contraction(group, 8.0)

    def test_one_factor_per_generator(self, group):
        with pytest.raises(ValueError, match="one enlargement factor per generator"):
            branch_contraction(group, [2.0])

    def test_sphere_bounds_padded(self, std_group_2d, rng):
        bounds = branch_contraction(std_group_2d, 2.0)
        for e in range(std_group_2d.letter_count):
            enlarged = std_group_2d.letter_sources[e].enlarged(2.0)
            t = std_group_2d.letter_transform(e)
            pts = rng.normal(size=(500, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            for p in pts:
                zeta = BoundaryPoint(p)
                if enlarged.contains(zeta):
                    continue
                assert t.derivative_boundary(zeta) <= bounds.letter_bounds[e]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bounds_are_tight(self, dim, std_group, std_group_2d):
        """Each bound is the sup of j(letter, .) off the enlarged disc, up to
        its rounding: at most 1 + 1e-9 times the largest value over a dense
        sample of the rim, and the direction of g^{-1}(0) when that lies off
        the disc.  The second group pairs the arcs over the plane intervals
        [-10.5, -9.5] and [-2, 4] (for caps, the discs with the same centres
        and radii): its wide target throws the direction of g^{-1}(0) off
        the small source disc."""
        def plane_interval(lo, hi):
            a, b = (2.0 * math.atan2(1.0, x) for x in (lo, hi))
            mid = (a + b) / 2.0
            return Disc(BoundaryPoint([math.cos(mid), math.sin(mid), 0.0][: dim + 1]),
                        2.0 * math.sin(abs(a - b) / 4.0))

        wide = SchottkyGroup.from_disc_pairs(
            dim, [(plane_interval(-10.5, -9.5), plane_interval(-2.0, 4.0))])
        off_disc = 0
        for group, factor in (((std_group, std_group_2d)[dim - 1], 2.0), (wide, 1.05)):
            bounds = branch_contraction(group, factor)
            pres, _ = inverse_origin_images_raw(group.letter_matrices)
            for e in range(group.letter_count):
                enlarged = group.letter_sources[e].enlarged(factor)
                samples = rim_points(enlarged, 1 << 16)
                direction = pres[e] / np.linalg.norm(pres[e])
                if not enlarged.contains(BoundaryPoint(direction[: dim + 1]), closed=False):
                    off_disc += 1
                    samples = np.vstack([samples, direction])
                sup = float(np.max(boundary_derivative_raw(group.letter_matrices[e], samples)))
                assert sup <= bounds.letter_bounds[e] <= sup * (1.0 + 1e-9)
        assert off_disc > 0

    def test_parabolic_blocks_chain_certificates(self, parabolic_group):
        bounds = branch_contraction(parabolic_group, 1.5)
        assert not bounds.chain_valid
        with pytest.raises(ValueError):
            bounds.boundary_certificate(1.0)


class TestEstimateDelta:
    def test_trivial_group_collapses(self):
        est = estimate_delta(SchottkyGroup.trivial(1), (0.2, 0.8), depths=(4,))
        assert est.low == 0.0 and est.high == 0.2

    def test_brackets_with_certificated_example(self, group):
        est = estimate_delta(group, (0.05, 0.9), depths=(6, 8), budget=10 ** 5)
        assert 0.05 <= est.low < est.high <= 0.9
        assert est.width < 0.85
        # evidence transcripts attached
        assert est.probes and all(p.label in ("convergent", "divergent",
                                              "inconclusive") for p in est.probes)

    def test_interval_shrinks_with_deeper_schedule(self, group):
        widths = []
        for depths in ((4,), (4, 6), (4, 6, 8)):
            est = estimate_delta(group, (0.05, 0.9), depths=depths,
                                 budget=10 ** 5, max_probes=12)
            widths.append(est.width)
        assert widths[2] <= widths[0]

    def test_convergent_low_end_collapses(self, group):
        # already convergent at s_lo: the interval collapses to [0, s_lo]
        est = estimate_delta(group, (1.5, 2.0), depths=(5,))
        assert (est.low, est.high) == (0.0, 1.5)

    def test_bad_bracket_raises(self, group):
        with pytest.raises(InconclusiveBracket):
            estimate_delta(group, (0.01, 0.05), depths=(5,))  # both divergent
        with pytest.raises(ValueError):
            estimate_delta(group, (0.8, 0.2))

    def test_kernel_restriction_estimates_smaller_exponent(self, group):
        quotient = QuotientSpec({"a": (), "b": ("b",)})
        full = estimate_delta(group, (0.05, 0.9), depths=(6, 8), budget=10 ** 5)
        restricted = estimate_delta(group, (0.01, 0.9), depths=(6, 8, 10),
                                    budget=10 ** 5, kernel=quotient)
        assert restricted.high <= full.high + 1e-9


def _probe_walk(group, s, depth, budget, restrict):
    """One probe as its own walk: j(w, 0)^s over the whole batch, then the
    kernel rows, summed by level."""
    blocks = LevelSums()

    def evaluate(batch, words):
        values = interior_derivative_raw(batch.mats, np.zeros(3)) ** s
        blocks.add(batch.length, values if words is batch else values[words.rows])

    evaluate.whole_group = True   # it reads the whole batch, so the walk is not pruned
    done = walk(group, depth, budget, kernel=restrict, consumers=[evaluate])
    blocks.finish(done)
    return done.depth_completed, tuple(blocks.level_sums)


@pytest.mark.parametrize("bracket, depths, restrict, probes_cut", [
    ((0.05, 0.9), (6, 8), None, False),
    ((0.05, 0.9), (4, 6, 10), None, True),   # 10^5 words end inside level 10
    ((0.01, 0.9), (6, 8, 10), QuotientSpec({"a": (), "b": ("b",)}), False),
])
def test_probes_equal_one_walk_per_probe(group, bracket, depths, restrict, probes_cut):
    est = estimate_delta(group, bracket, depths=depths, budget=10 ** 5,
                         kernel=restrict)
    cut = False
    for s, records in itertools.groupby(est.probes, key=lambda r: r.s):
        records = list(records)
        assert len(records) <= len(depths)
        assert all(r.label == "inconclusive" for r in records[:-1])
        for record, depth in zip(records, depths):
            completed, level_sums = _probe_walk(group, s, depth, 10 ** 5, restrict)
            assert (record.depth, record.level_sums) == (completed, level_sums)
            assert (record.label, record.ratio) == _probe_label(
                level_sums, trivial_subgroup(group, restrict))
            cut |= completed < depth
    assert cut == probes_cut


class TestSummationContract:
    def test_fsum_blocks_are_exact(self, group):
        # the per-level blocks agree with a sorted pairwise summation
        r = poincare_partial(group, InteriorPoint.origin(1), 1.0, 6)
        values = []
        for w, t in enumerate_words(group, 6):
            values.append(t.derivative_interior(InteriorPoint.origin(1)))
        assert math.fsum(values) == pytest.approx(r.partial_sum, rel=1e-15)


class TestFixedPointTests:
    """The one fixed-point test and the one unit-derivative test."""

    def test_parabolic_fixes_its_point_with_unit_derivative(self):
        from kleinian.examples import example3_group

        group, target = example3_group()
        p = group.generator("p").transform
        assert (fixes(p, target), unit_derivative(p, target)) == (True, True)

    def test_loxodromic_fixes_its_point_without_unit_derivative(self, parabolic_group):
        a = parabolic_group.generator("a").transform
        for xi in a.classify().fixed_points:
            assert (fixes(a, xi), unit_derivative(a, xi)) == (True, False)

    def test_a_moved_point_is_not_fixed(self, parabolic_group, group):
        zeta = parabolic_group.generator("p").transform.classify().fixed_points[0]
        for gen in group.generators:
            assert not fixes(gen.transform, zeta)
        assert not fixes(group.generator("a").transform, DOMAIN_POINT)
