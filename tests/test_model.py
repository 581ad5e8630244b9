import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian.model import (BoundaryPoint, Disc, InteriorPoint, hyperbolic_distance,
                            poisson_kernel)

from conftest import random_boundary_points, random_interior_points


class TestPoints:
    def test_boundary_renormalizes(self):
        p = BoundaryPoint([3.0, 4.0])
        assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-15)

    def test_boundary_rejects_zero(self):
        with pytest.raises(ValueError):
            BoundaryPoint([0.0, 0.0])

    def test_interior_rejects_near_sphere(self):
        with pytest.raises(ValueError):
            InteriorPoint([1.0 - 1e-15, 0.0])
        InteriorPoint([1.0 - 1e-13, 0.0])  # just inside the cutoff

    def test_boundary_rejects_four_coordinates(self):
        with pytest.raises(ValueError, match="2 or 3"):
            BoundaryPoint([1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("coords, conorm, named", [([0.5, 0.0], 0.0, "positive"),
                                                       ([2.0, 0.0], 0.5, "closed ball")])
    def test_interior_rejects_a_bad_exact_conorm(self, coords, conorm, named):
        with pytest.raises(ValueError, match=named):
            InteriorPoint(coords, conorm=conorm)

    def test_radial_constructor(self):
        z = InteriorPoint.radial(BoundaryPoint.from_angle(0.7), 0.5)
        assert z.norm() == pytest.approx(0.5)
        with pytest.raises(ValueError):
            InteriorPoint.radial(BoundaryPoint.from_angle(0.7), 1.0)

    def test_points_are_immutable_values(self):
        p = BoundaryPoint([1.0, 0.0])
        with pytest.raises(ValueError):
            p.coords[0] = 2.0
        assert p == BoundaryPoint([1.0, 0.0])

    def test_equal_points_hash_alike(self):
        """Points are keys by value: equal coordinates, one key; a boundary
        and an interior point never equal each other."""
        b = BoundaryPoint([2.0, 0.0])
        assert {b: 1, BoundaryPoint([1.0, 0.0]): 2} == {BoundaryPoint([1.0, 0.0]): 2}
        z = InteriorPoint([0.1, 0.2])
        assert {z: 1, InteriorPoint([0.1, 0.2]): 2} == {InteriorPoint([0.1, 0.2]): 2}
        near = InteriorPoint([1.0, 0.0], conorm=1e-3)
        assert near != b and b != near
        assert z != InteriorPoint([0.1, 0.2, 0.0])
        for point in (BoundaryPoint, InteriorPoint):   # signed zeros compare equal
            assert len({point([0.5, 0.0]), point([0.5, -0.0])}) == 1


class TestPoissonKernel:
    def test_origin_gives_one(self, rng):
        for zeta in random_boundary_points(rng, 1, 20):
            assert poisson_kernel(InteriorPoint.origin(1),
                                  BoundaryPoint(zeta)) == pytest.approx(1.0)
        for zeta in random_boundary_points(rng, 2, 20):
            assert poisson_kernel(InteriorPoint.origin(2),
                                  BoundaryPoint(zeta)) == pytest.approx(1.0)

    def test_halfway_point(self):
        # |zeta - zeta/2| = 1/2: k = (1 - 1/4)/(1/4) = 3
        zeta = BoundaryPoint.from_angle(1.1)
        z = InteriorPoint(0.5 * zeta.coords)
        assert poisson_kernel(z, zeta) == pytest.approx(3.0, rel=1e-14)

    def test_antipodal_halfway_point(self):
        # |zeta + zeta/2| = 3/2: k = (3/4)/(9/4) = 1/3
        zeta = BoundaryPoint.from_angle(-0.4)
        z = InteriorPoint(-0.5 * zeta.coords)
        assert poisson_kernel(z, zeta) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_positive_and_finite(self, rng):
        for dim in (1, 2):
            zs = random_interior_points(rng, dim, 200, rmax=0.999)
            zetas = random_boundary_points(rng, dim, 200)
            for z, zeta in zip(zs, zetas):
                k = poisson_kernel(InteriorPoint(z), BoundaryPoint(zeta))
                assert 0.0 < k < math.inf


class TestHyperbolicDistance:
    def test_zero_iff_equal(self, rng):
        z = InteriorPoint([0.3, -0.2])
        assert hyperbolic_distance(z, z) == 0.0
        w = InteriorPoint([0.3, -0.2 + 1e-9])
        assert hyperbolic_distance(z, w) > 0.0

    def test_antipodal_symmetry_about_origin(self, rng):
        for w in random_interior_points(rng, 1, 50):
            d1 = hyperbolic_distance(InteriorPoint.origin(1), InteriorPoint(w))
            d2 = hyperbolic_distance(InteriorPoint.origin(1), InteriorPoint(-w))
            assert d1 == pytest.approx(d2, abs=1e-14)

    def test_closed_form_from_origin(self):
        # d(0, r e1) = arcosh(1 + 2 r^2 / (1 - r^2))
        r = 0.5
        z = InteriorPoint([r, 0.0])
        expected = math.acosh(1.0 + 2.0 * r * r / (1.0 - r * r))
        assert hyperbolic_distance(InteriorPoint.origin(1), z) == pytest.approx(
            expected, rel=1e-14)

    def test_symmetry_and_triangle_inequality(self, rng):
        for dim in (1, 2):
            pts = random_interior_points(rng, dim, 3 * 400).reshape(400, 3, dim + 1)
            for a, b, c in pts:
                pa, pb, pc = InteriorPoint(a), InteriorPoint(b), InteriorPoint(c)
                dab = hyperbolic_distance(pa, pb)
                assert dab == pytest.approx(hyperbolic_distance(pb, pa), abs=1e-12)
                assert dab <= (hyperbolic_distance(pa, pc)
                               + hyperbolic_distance(pc, pb) + 1e-10)

    @given(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_scales_like_log_near_boundary(self, x, y):
        v = np.array([x, y])
        if np.linalg.norm(v) >= 0.96:
            return
        z = InteriorPoint(v)
        assert hyperbolic_distance(InteriorPoint.origin(1), z) >= np.linalg.norm(v)


class TestSignedHorodistance:
    """The signed horospherical distance d_zeta(z1, z2) = log(k(z2)/k(z1))."""

    def test_identity_case(self, rng):
        # the horosphere through the origin has level 1 at every boundary point
        for dim in (1, 2):
            for zeta in random_boundary_points(rng, dim, 50):
                assert poisson_kernel(InteriorPoint.origin(dim), BoundaryPoint(zeta)) == \
                    pytest.approx(1.0, rel=1e-15)

    def test_from_origin_matches_log_kernel(self, rng):
        # Busemann function: d(0, w) - d(z, w) -> log k(z, zeta) as w -> zeta
        for dim in (1, 2):
            zs = random_interior_points(rng, dim, 50)
            zetas = random_boundary_points(rng, dim, 50)
            for z, zeta in zip(zs, zetas):
                zp, bp = InteriorPoint(z), BoundaryPoint(zeta)
                w = InteriorPoint.radial(bp, 1.0 - 1e-9)
                busemann = (hyperbolic_distance(InteriorPoint.origin(dim), w)
                            - hyperbolic_distance(zp, w))
                assert busemann == pytest.approx(math.log(poisson_kernel(zp, bp)), abs=1e-6)

    def test_sign_means_horoball_containment(self, rng):
        zeta = BoundaryPoint.from_angle(0.0)
        z1 = InteriorPoint([0.5, 0.0])
        z2 = InteriorPoint([0.8, 0.0])   # deeper inside the horoball at zeta
        assert math.log(poisson_kernel(z2, zeta) / poisson_kernel(z1, zeta)) > 0.0
        assert math.log(poisson_kernel(z1, zeta) / poisson_kernel(z2, zeta)) < 0.0

    def test_dominated_by_hyperbolic_distance(self, rng):
        # |log k(z2, zeta)/k(z1, zeta)| <= d(z1, z2) over 10^4 random triples
        for dim in (1, 2):
            n = 5000
            z1s = random_interior_points(rng, dim, n, rmax=0.95)
            z2s = random_interior_points(rng, dim, n, rmax=0.95)
            zetas = random_boundary_points(rng, dim, n)
            for z1, z2, zeta in zip(z1s, z2s, zetas):
                p1, p2, b = InteriorPoint(z1), InteriorPoint(z2), BoundaryPoint(zeta)
                assert abs(math.log(poisson_kernel(p2, b) / poisson_kernel(p1, b))) <= \
                    hyperbolic_distance(p1, p2) + 1e-10


class TestHoroball:
    """Horoballs H_zeta(c) = {z : k(z, zeta) > c}."""

    def test_level_one_excludes_origin(self):
        assert not poisson_kernel(InteriorPoint.origin(1), BoundaryPoint.from_angle(1.0)) > 1.0

    def test_level_half_contains_origin(self):
        assert poisson_kernel(InteriorPoint.origin(1), BoundaryPoint.from_angle(1.0)) > 0.5

    def test_radial_entry(self):
        # k(t zeta, zeta) = (1+t)/(1-t) -> infinity: eventually inside any level
        zeta = BoundaryPoint.from_angle(0.3)
        for c in (0.5, 2.0, 16.0, 256.0):
            entered = False
            for t in (0.9, 0.99, 0.999, 0.9999, 0.99999):
                if poisson_kernel(InteriorPoint.radial(zeta, t), zeta) > c:
                    entered = True
            assert entered

    def test_euclidean_radius_formula(self, rng):
        # t zeta with t = (c-1)/(c+1) sits on the horosphere of level c, which
        # is the sphere of radius 1/(1+c) tangent to the boundary at zeta
        for dim in (1, 2):
            zeta = BoundaryPoint(random_boundary_points(rng, dim, 1)[0])
            for c in (0.25, 1.5, 3.0, 10.0, 99.0):
                t = (c - 1.0) / (c + 1.0)
                if t >= 0.0:
                    k = poisson_kernel(InteriorPoint.radial(zeta, t), zeta)
                    assert k == pytest.approx(c, rel=1e-10)
                radius = 1.0 / (1.0 + c)
                for u in random_boundary_points(rng, dim, 20):
                    if np.dot(u, zeta.coords) > 0.99:
                        continue        # too near the tangent point on the sphere
                    z = InteriorPoint(zeta.coords * (1.0 - radius) + radius * u)
                    assert poisson_kernel(z, zeta) == pytest.approx(c, rel=1e-9)


class TestDisc:
    def test_containment_and_gap(self):
        d = Disc.from_angles(1.0, 0.2)
        assert d.contains(BoundaryPoint.from_angle(1.1))
        assert not d.contains(BoundaryPoint.from_angle(1.3))
        other = Disc.from_angles(1.6, 0.2)
        assert d.is_disjoint_from(other)
        assert d.angular_gap(other) == pytest.approx(0.2, abs=1e-12)

    def test_enlarged(self):
        d = Disc.from_angles(0.5, 0.1)
        assert d.enlarged(3.0).radius == pytest.approx(3.0 * d.radius)
        with pytest.raises(ValueError):
            d.enlarged(0.5)

    def test_contains_disc(self):
        big = Disc.from_angles(1.0, 0.5)
        small = Disc.from_angles(1.1, 0.1)
        assert big.contains_disc(small)
        assert not small.contains_disc(big)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_complement_is_the_exterior(self, rng, dim):
        for center, radius in zip(random_boundary_points(rng, dim, 20),
                                  rng.uniform(0.05, 1.95, size=20)):
            disc = Disc(BoundaryPoint(center), radius)
            comp = disc.complement()
            for point in map(BoundaryPoint, random_boundary_points(rng, dim, 200)):
                if abs(disc.chordal_distance(point) - radius) < 1e-9:
                    continue   # on the rim, where both closures meet
                assert comp.contains(point, closed=False) != disc.contains(point, closed=False)
            twice = comp.complement()
            assert twice.center.coords == pytest.approx(disc.center.coords, abs=1e-15)
            assert twice.radius == pytest.approx(radius, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_angle_to_the_centre_and_the_antipode(self, rng, dim):
        for coords in [*random_boundary_points(rng, dim, 500), *np.eye(dim + 1)]:
            disc = Disc(BoundaryPoint(coords), 0.5)
            assert disc.angle_to(disc.center) == 0.0
            assert disc.angle_to(BoundaryPoint(-disc.center.coords)) == math.pi

    @pytest.mark.parametrize("dim", [1, 2])
    def test_angle_to_resolves_small_angles(self, rng, dim):
        """Angles from 1e-6 down to 1e-9 rad come out to 1e-6 relative, where
        the arccosine of the dot product reads 0."""
        for coords in random_boundary_points(rng, dim, 50):
            disc = Disc(BoundaryPoint(coords), 0.5)
            m = disc.center.coords
            normal = rng.normal(size=dim + 1)
            normal -= np.dot(normal, m) * m
            normal /= np.linalg.norm(normal)
            for angle in (1e-6, 1e-7, 1e-8, 1e-9):
                point = BoundaryPoint(math.cos(angle) * m + math.sin(angle) * normal)
                assert disc.angle_to(point) == pytest.approx(angle, rel=1e-6)
