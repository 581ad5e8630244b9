import math

import numpy as np
import pytest

from kleinian.group import QuotientSpec, SchottkyGroup
from kleinian.limits import DEFAULT_C_GRID, horoball_entry, horoball_scanner, jorgensen_test
from kleinian.model import BoundaryPoint

from conftest import arc

DOMAIN_POINT = BoundaryPoint.from_angle(math.radians(108.0))


@pytest.fixture(scope="module")
def group():
    return SchottkyGroup.from_disc_pairs(
        1, [(arc(72, 10), arc(216, 10)), (arc(144, 10), arc(288, 10))],
        labels=["a", "b"])


class TestJorgensenTest:
    def test_accumulating_family_accepts_accumulation_point(self):
        from kleinian.examples import Example1Config, build_example1

        result = build_example1(Example1Config(depth=4))
        assert jorgensen_test(result.group, result.target)

    def test_disc_center_rejected(self, group):
        assert not jorgensen_test(group, group.generators[0].source.center)

    def test_attracting_fixed_point_rejected(self, group):
        zeta = group.generators[0].transform.classify().fixed_points[0]
        assert not jorgensen_test(group, zeta)

    def test_domain_point_without_accumulation_rejected(self, group):
        # a finitely generated group has no accumulation evidence at a domain point
        assert not jorgensen_test(group, DOMAIN_POINT)

    def test_radial_ray_misses_half_spaces_when_true(self):
        # geometric consequence: t*zeta stays in the closed exterior of
        # every disc's orthogonal half-space
        from kleinian.examples import Example1Config, build_example1

        result = build_example1(Example1Config(depth=4))
        assert jorgensen_test(result.group, result.target)
        zc = result.target.coords
        for _, disc in result.group.discs():
            alpha = disc.angular_radius
            center = disc.center.coords / math.cos(alpha)
            radius = math.tan(alpha)
            for t in np.linspace(0.0, 1.0, 200):
                assert np.linalg.norm(t * zc - center) >= radius - 1e-12


class TestHoroballEntry:
    def test_trivial_group_no_witnesses(self):
        trivial = SchottkyGroup.trivial(1)
        out = horoball_entry(trivial, BoundaryPoint.from_angle(1.0), 1.0, 4)
        assert out.count() == 0

    def test_level_validation(self, group):
        with pytest.raises(ValueError):
            horoball_entry(group, DOMAIN_POINT, 0.0, 3)

    @pytest.mark.parametrize("levels", [(math.nan,), (0.0,), (-1.0,), (1.0, math.nan), ()],
                             ids=["nan", "zero", "negative", "nan in grid", "empty"])
    def test_scanner_rejects_levels_that_are_not_positive(self, group, levels):
        with pytest.raises(ValueError, match="positive levels"):
            horoball_scanner(group, DOMAIN_POINT, levels, 3)

    def test_attracting_point_collects_powers(self, group):
        zeta = group.generators[0].transform.classify().fixed_points[0]
        out = horoball_entry(group, zeta, 2.0, 6)
        assert out.count() > 0
        words = {w.letters for w, _ in out.witnesses}
        assert any(set(w) == {0} for w in words)  # some power of the generator
        for _, value in out.witnesses:
            assert value > 2.0

    def test_witness_count_grows_with_depth_at_radial_point(self, group):
        zeta = group.generators[0].transform.classify().fixed_points[0]
        counts = [horoball_entry(group, zeta, 2.0, depth).count()
                  for depth in (3, 5, 7)]
        assert counts[0] < counts[1] < counts[2]

    def test_ordinary_point_stabilizes_at_zero_for_large_levels(self, group):
        # consistency with the certified-atom picture: no deep entries at a
        # point whose series is certified convergent
        counts = {}
        for c in (4.0, 16.0, 64.0):
            counts[c] = [horoball_entry(group, DOMAIN_POINT, c, depth).count()
                         for depth in (4, 6)]
        for c, values in counts.items():
            assert values[0] == values[1] == 0

    def test_kernel_restriction(self, group):
        quotient = QuotientSpec("free", {"a": (), "b": ("b",)})
        zeta = group.generators[0].transform.classify().fixed_points[0]
        full = horoball_entry(group, zeta, 2.0, 6)
        restricted = horoball_entry(group, zeta, 2.0, 6, kernel=quotient)
        assert restricted.count() <= full.count()
        kernel_words = {w.letters for w, _ in restricted.witnesses}
        for letters in kernel_words:
            # the image under (a -> id, b -> b) must free-reduce to nothing
            stack = []
            for l in letters:
                if l in (2, 3):
                    if stack and stack[-1] == (l ^ 1):
                        stack.pop()
                    else:
                        stack.append(l)
            assert stack == []

    def test_default_c_grid_spans_powers_of_two(self):
        assert DEFAULT_C_GRID[0] == 0.125
        assert DEFAULT_C_GRID[-1] == 64.0


class TestCertifiedAtomConsistency:
    def test_atom_point_has_no_deep_horoball_witnesses(self):
        # at the certified atom of the separated family, witness counts at
        # moderate levels stay zero and stable in depth
        from kleinian.examples import Example1Config, build_example1

        result = build_example1(Example1Config(depth=5))
        assert result.atomicity.conclusion == "atom_at_target"
        for c in (1.0, 4.0):
            counts = [horoball_entry(result.group, result.target, c, depth).count()
                      for depth in (3, 5)]
            assert counts[0] == counts[1] == 0
