import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian.errors import DiscsOverlap, NumericallyAmbiguous
from kleinian.mobius import (Transform, apply_boundary_raw, boundary_derivative_raw,
                             classify, conorm_raw, image_disc, inverse_origin_images_raw,
                             matmul_raw, origin_images_raw, pair_discs, parabolic_fixing,
                             poisson_raw, rotation_moving_to_pole)
from kleinian.model import BoundaryPoint, Disc, InteriorPoint, hyperbolic_distance

from conftest import arc, cap, random_boundary_points, random_interior_points, \
    random_reduced_words, rim_points, schottky_groups


def word_transform(group, letters):
    return group.word_transform(letters)


def fd_boundary_derivative(g, theta: float, h: float = 1.5e-5) -> float:
    """Independent boundary-derivative oracle: Richardson-extrapolated
    central difference of chord length over angle."""
    def chord(hh: float) -> float:
        plus = g.apply_boundary(BoundaryPoint.from_angle(theta + hh)).coords
        minus = g.apply_boundary(BoundaryPoint.from_angle(theta - hh)).coords
        return float(np.linalg.norm(plus - minus) / (2.0 * hh))

    return (4.0 * chord(h / 2.0) - chord(h)) / 3.0


class TestGroupLaw:
    def test_identity_composition(self, std_group):
        ident = Transform.identity(1)
        g = std_group.generators[0].transform
        assert ident.compose(g).is_close(g)
        assert g.compose(ident).is_close(g)

    def test_inverse_gives_identity(self, std_group):
        for gen in std_group.generators:
            prod = gen.transform.compose(gen.transform.inverse())
            assert prod.is_identity()

    def test_repr_names_the_dimension_and_matrix(self):
        assert repr(Transform.identity(2)) == (
            "Transform(dim=2, matrix=[[1.+0.j 0.+0.j]\n [0.+0.j 1.+0.j]])")

    def test_dimension_mismatch(self, std_group, std_group_2d):
        with pytest.raises(ValueError):
            std_group.generators[0].transform.compose(
                std_group_2d.generators[0].transform)

    @pytest.mark.parametrize("matrix, dim, named", [
        (np.eye(3), 1, "2x2"),
        (np.array([[1.0, 2.0], [2.0, 4.0]]), 1, "singular"),
        (np.eye(2), 3, "dimension"),
        (np.array([[1.0, 1j], [0.0, 1.0]]), 1, "real matrix"),
    ], ids=["3x3", "singular", "dim3", "complex-dim1"])
    def test_bad_matrices_are_rejected(self, matrix, dim, named):
        with pytest.raises(ValueError, match=named):
            Transform(matrix, dim)

    def test_point_of_another_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            Transform.identity(1).apply_boundary(BoundaryPoint([0.0, 0.0, 1.0]))

    def test_composition_acts_by_double_application(self, std_group, std_group_2d, rng):
        for group in (std_group, std_group_2d):
            words = random_reduced_words(rng, group, 40, 4)
            pts = random_interior_points(rng, group.dim, 25)
            for w1, w2 in zip(words[::2], words[1::2]):
                g, h = word_transform(group, w1), word_transform(group, w2)
                gh = g.compose(h)
                for z in pts:
                    zp = InteriorPoint(z)
                    direct = gh.apply_interior(zp).coords
                    stepwise = g.apply_interior(h.apply_interior(zp)).coords
                    assert np.allclose(direct, stepwise, atol=1e-9)


class TestAction:
    def test_identity_fixes_points(self, std_group):
        ident = Transform.identity(1)
        z = InteriorPoint([0.3, 0.1])
        zeta = BoundaryPoint.from_angle(0.8)
        assert np.allclose(ident.apply_interior(z).coords, z.coords)
        assert np.allclose(ident.apply_boundary(zeta).coords, zeta.coords)

    def test_preserves_ball_and_sphere(self, std_group_2d, rng):
        g = word_transform(std_group_2d, (0, 2, 0))
        for z in random_interior_points(rng, 2, 50, rmax=0.99):
            assert g.apply_interior(InteriorPoint(z)).norm() < 1.0
        for zeta in random_boundary_points(rng, 2, 50):
            img = g.apply_boundary(BoundaryPoint(zeta))
            assert np.linalg.norm(img.coords) == pytest.approx(1.0, abs=1e-12)

    def test_isometry(self, std_group, std_group_2d, rng):
        # moderate words and radii: the distance of two deeply contracted
        # images is below float resolution of their coordinates
        for group in (std_group, std_group_2d):
            for letters in random_reduced_words(rng, group, 20, 3):
                g = word_transform(group, letters)
                pts = random_interior_points(rng, group.dim, 20, rmax=0.7)
                for z, w in zip(pts[::2], pts[1::2]):
                    zp, wp = InteriorPoint(z), InteriorPoint(w)
                    d0 = hyperbolic_distance(zp, wp)
                    d1 = hyperbolic_distance(g.apply_interior(zp),
                                             g.apply_interior(wp))
                    assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-9)

    def test_generator_maps_exterior_to_interior(self, std_group, rng):
        gen = std_group.generators[0]
        for theta in rng.uniform(-math.pi, math.pi, size=400):
            zeta = BoundaryPoint.from_angle(float(theta))
            if gen.source.contains(zeta):
                continue
            assert gen.target.contains(gen.transform.apply_boundary(zeta))

    def test_cached_origin_images(self, std_group, rng):
        for letters in random_reduced_words(rng, std_group, 20, 5):
            g = word_transform(std_group, letters)
            direct = g.apply_interior(InteriorPoint.origin(1)).coords
            assert np.allclose(g.origin_image.coords, direct, atol=1e-10)
            direct_inv = g.inverse().apply_interior(InteriorPoint.origin(1)).coords
            assert np.allclose(g.origin_preimage.coords, direct_inv, atol=1e-10)


    def test_origin_images_on_demand(self, std_group, rng):
        # nothing is computed at construction; every call reads the raw kernels
        for letters in random_reduced_words(rng, std_group, 5, 6):
            g = word_transform(std_group, letters)
            assert set(vars(g)) == {"matrix", "dim"}
            pre, conorm = inverse_origin_images_raw(g.matrix)
            assert g.origin_preimage.conorm == float(conorm)
            img, conorm = origin_images_raw(g.matrix)
            assert g.origin_image.conorm == float(conorm)
            assert np.array_equal(g.origin_image.coords, img[:2])


class TestDerivatives:
    def test_identity_derivatives_are_one(self, std_group, rng):
        ident = Transform.identity(1)
        for zeta in random_boundary_points(rng, 1, 10):
            assert ident.derivative_boundary(BoundaryPoint(zeta)) == pytest.approx(1.0)
        for z in random_interior_points(rng, 1, 10):
            assert ident.derivative_interior(InteriorPoint(z)) == pytest.approx(1.0)

    def test_boundary_chain_rule(self, std_group, std_group_2d, rng):
        for group in (std_group, std_group_2d):
            words = random_reduced_words(rng, group, 60, 6)
            zetas = random_boundary_points(rng, group.dim, 30)
            for w1, w2 in zip(words[::2], words[1::2]):
                g, h = word_transform(group, w1), word_transform(group, w2)
                gh = g.compose(h)
                for zeta in zetas:
                    bp = BoundaryPoint(zeta)
                    lhs = gh.derivative_boundary(bp)
                    rhs = g.derivative_boundary(h.apply_boundary(bp)) * \
                        h.derivative_boundary(bp)
                    assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_interior_chain_rule_inverse(self, std_group, rng):
        for letters in random_reduced_words(rng, std_group, 30, 3):
            g = word_transform(std_group, letters)
            for z in random_interior_points(rng, 1, 10, rmax=0.7):
                zp = InteriorPoint(z)
                gz = g.apply_interior(zp)
                assert g.inverse().derivative_interior(gz) * \
                    g.derivative_interior(zp) == pytest.approx(1.0, rel=1e-10)

    def test_boundary_derivative_is_kernel_at_preimage(self, std_group_2d, rng):
        from kleinian.model import poisson_kernel

        for letters in random_reduced_words(rng, std_group_2d, 30, 5):
            g = word_transform(std_group_2d, letters)
            for zeta in random_boundary_points(rng, 2, 10):
                bp = BoundaryPoint(zeta)
                assert g.derivative_boundary(bp) == pytest.approx(
                    poisson_kernel(g.origin_preimage, bp), rel=1e-10)

    def test_finite_difference_oracle(self, std_group, rng):
        # Richardson-extrapolated central difference of the circle action,
        # sampled where the stretch factor is resolvable by the step
        checked = 0
        for letters in random_reduced_words(rng, std_group, 60, 5):
            g = word_transform(std_group, letters)
            for theta in rng.uniform(-math.pi, math.pi, size=8):
                j = g.derivative_boundary(BoundaryPoint.from_angle(theta))
                if not 1e-3 < j < 1e3:
                    continue
                assert fd_boundary_derivative(g, theta) == pytest.approx(j, rel=1e-6)
                checked += 1
        assert checked > 50

    def test_boundary_limit_of_interior_derivative(self, std_group, rng):
        # Richardson extrapolation of j(g, t zeta) as t -> 1
        for letters in random_reduced_words(rng, std_group, 10, 4):
            g = word_transform(std_group, letters)
            zeta = BoundaryPoint.from_angle(float(rng.uniform(-math.pi, math.pi)))
            values = []
            for k in range(3, 9):
                t = 1.0 - 10.0 ** (-k)
                values.append(g.derivative_interior(
                    InteriorPoint(t * zeta.coords)))
            extrapolated = (10.0 * values[-1] - values[-2]) / 9.0
            assert extrapolated == pytest.approx(
                g.derivative_boundary(zeta), rel=1e-7)

    def test_positivity(self, std_group, rng):
        for letters in random_reduced_words(rng, std_group, 50, 6):
            g = word_transform(std_group, letters)
            zeta = BoundaryPoint.from_angle(float(rng.uniform(-math.pi, math.pi)))
            assert g.derivative_boundary(zeta) > 0.0


class TestClassification:
    def test_identity(self):
        assert classify(Transform.identity(1)).kind == "identity"
        assert classify(Transform(-np.eye(2), 2)).kind == "identity"

    def test_pairing_generator_is_loxodromic(self, std_group):
        gen = std_group.generators[0]
        tc = classify(gen.transform)
        assert tc.kind == "loxodromic"
        attracting, repelling = tc.fixed_points
        assert gen.target.contains(attracting)
        assert gen.source.contains(repelling)

    def test_loxodromic_fixed_points_by_iteration(self, std_group):
        # iterating g from a random seed converges to the attracting point
        gen = std_group.generators[1]
        tc = classify(gen.transform)
        z = BoundaryPoint.from_angle(0.123)
        for _ in range(60):
            z = gen.transform.apply_boundary(z)
        assert np.allclose(z.coords, tc.fixed_points[0].coords, atol=1e-9)
        z = BoundaryPoint.from_angle(0.123)
        inv = gen.transform.inverse()
        for _ in range(60):
            z = inv.apply_boundary(z)
        assert np.allclose(z.coords, tc.fixed_points[1].coords, atol=1e-9)

    def test_parabolic_translation(self):
        # unit translation of the half plane, conjugated to the disc
        p = Transform(np.array([[1.0, 1.0], [0.0, 1.0]]), 1)
        tc = classify(p)
        assert tc.kind == "parabolic"
        zeta = tc.fixed_points[0]
        assert np.allclose(p.apply_boundary(zeta).coords, zeta.coords, atol=1e-12)
        assert p.derivative_boundary(zeta) == pytest.approx(1.0, abs=1e-9)

    def test_elliptic_rotation(self):
        t = 0.7
        rot = Transform(np.array([[math.cos(t / 2), -math.sin(t / 2)],
                                  [math.sin(t / 2), math.cos(t / 2)]]), 1)
        assert classify(rot).kind == "elliptic"

    def test_numerically_ambiguous_band(self):
        # trace^2 - 4 of order 4 a^2 ~ 1e-10: refuse to guess
        a = 5e-6
        m = np.array([[1.0 + a, 0.0], [0.0, 1.0 / (1.0 + a)]])
        with pytest.raises(NumericallyAmbiguous):
            classify(Transform(m, 1))


class TestPairDiscs:
    def test_exterior_to_interior_on_samples(self, rng):
        c_plus = arc(100, 12)
        c_minus = arc(250, 8)
        g = pair_discs(c_plus, c_minus)
        for theta in rng.uniform(-math.pi, math.pi, size=1000):
            zeta = BoundaryPoint.from_angle(float(theta))
            image = g.apply_boundary(zeta)
            if c_plus.contains(zeta, closed=False):
                assert not c_minus.contains(image)
            else:
                d = c_minus.chordal_distance(image)
                assert d <= c_minus.radius + 1e-9

    def test_inverse_swaps_roles(self, rng):
        c_plus = arc(80, 10)
        c_minus = arc(200, 14)
        g_inv = pair_discs(c_plus, c_minus).inverse()
        for theta in rng.uniform(-math.pi, math.pi, size=300):
            zeta = BoundaryPoint.from_angle(float(theta))
            if not c_minus.contains(zeta):
                assert c_plus.contains(g_inv.apply_boundary(zeta))

    def test_antipodal_arcs(self):
        g = pair_discs(arc(90, 15), arc(270, 15))
        assert classify(g).kind == "loxodromic"
        # the far midpoint of the exterior maps into the target arc
        mid = BoundaryPoint.from_angle(0.0)
        assert arc(270, 15).contains(g.apply_boundary(mid))

    def test_overlap_rejected(self):
        with pytest.raises(DiscsOverlap):
            pair_discs(arc(10, 20), arc(40, 20))

    def test_dimensions_must_match(self):
        with pytest.raises(ValueError, match="share a dimension"):
            pair_discs(arc(10, 5), cap([0.0, 0.0, 1.0], 0.2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_radii_that_underflow_are_refused(self):
        """Arcs of chordal radius 1e-25 have cos(angular radius) = 1, so plane
        radius 0: no transform pairs them."""
        tiny = [Disc(BoundaryPoint.from_angle(theta), 1e-25) for theta in (2.0, 4.0)]
        with pytest.raises(ValueError, match="plane radii 0 and 0,"):
            pair_discs(*tiny)

    def test_images_shrink_discs(self, rng):
        g = pair_discs(arc(100, 12), arc(250, 12))
        for center, radius in ((0.0, 8.0), (170.0, 10.0), (310.0, 6.0)):
            sample = arc(center, radius)
            if not sample.is_disjoint_from(arc(100, 12)):
                continue
            image = image_disc(g, sample)
            assert image.radius < sample.radius

    def test_caps_on_sphere(self, rng):
        c_plus = cap([0.0, 1.0, 0.0], 0.4)
        c_minus = cap([-1.0, 0.0, 0.0], 0.3)
        g = pair_discs(c_plus, c_minus)
        pts = rng.normal(size=(500, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for p in pts:
            zeta = BoundaryPoint(p)
            inside_source = c_plus.contains(zeta, closed=False)
            image = g.apply_boundary(zeta)
            assert c_minus.contains(image) == (not inside_source)

    def test_pole_covering_cap_is_handled(self):
        # a cap containing the projection pole forces the rotation fallback
        c_plus = cap([1.0, 0.0, 0.0], 0.5)
        c_minus = cap([-1.0, 0.0, 0.0], 0.5)
        g = pair_discs(c_plus, c_minus)
        mid = BoundaryPoint([0.0, 1.0, 0.0])
        assert c_minus.contains(g.apply_boundary(mid))

    @pytest.mark.parametrize("plus, minus", [(2, 180), (358, 40), (179, 1)])
    def test_arcs_near_the_pole(self, plus, minus):
        """An arc within POLE_MARGIN of the pole sends the pairing through the
        rotation to a gap point on the equator.  The rotation stays real (a
        dimension-1 Transform refuses any other), and the result pairs the
        arcs."""
        c_plus, c_minus = arc(plus, 10), arc(minus, 10)
        g = pair_discs(c_plus, c_minus)
        assert classify(g).kind == "loxodromic"
        for theta in np.linspace(0.0, 2.0 * math.pi, 721):
            zeta = BoundaryPoint.from_angle(theta)
            if abs(c_plus.chordal_distance(zeta) - c_plus.radius) < 1e-9:
                continue   # on the rim, where both closures meet
            inside_source = c_plus.contains(zeta, closed=False)
            assert c_minus.contains(g.apply_boundary(zeta)) == (not inside_source)

    def test_equal_radii_not_required(self):
        g = pair_discs(arc(60, 4), arc(240, 18))
        assert classify(g).kind == "loxodromic"


class TestImageDisc:
    def test_dimensions_must_match(self, std_group):
        with pytest.raises(ValueError, match="dimensions differ"):
            image_disc(std_group.generators[0].transform, cap([0.0, 0.0, 1.0], 0.2))

    def test_matches_boundary_samples(self, std_group_2d, rng):
        g = word_transform(std_group_2d, (0, 2))
        sample = cap([0.0, 0.0, -1.0], 0.35)
        img = image_disc(g, sample)
        images = apply_boundary_raw(g.matrix[None, :, :], rim_points(sample, 64))
        dists = np.linalg.norm(images - img.center.coords[None, :], axis=1)
        assert np.max(np.abs(dists - img.radius)) < 1e-10

    @pytest.mark.parametrize("fixture, max_len", [("std_group", 6), ("std_group_2d", 7)])
    def test_matches_the_exact_word(self, fixture, max_len, request, rng):
        """The image of the disc that each word's last letter sends into the
        word's first target, and of that letter's own target, agrees with an
        mpmath circle through the images of rim points under the exact
        product of the letter matrices; the float word's images of the rim
        lie on the image circle."""
        group = request.getfixturevalue(fixture)
        words = [w for w in itertools.product(range(group.letter_count), repeat=2)
                 if w[1] != w[0] ^ 1]
        words += random_reduced_words(rng, group, 60, max_len - 1)
        words += [tuple(w) + (w[-1],) * (max_len - len(w))
                  for w in random_reduced_words(rng, group, 60, max_len)]
        assert max(map(len, words)) == max_len
        for word in words:
            g = word_transform(group, word)
            letters = [group.letter_matrices[letter] for letter in word]
            last = word[-1]
            for disc in (group.letter_sources[last].complement(), group.letter_targets[last]):
                img = image_disc(g, disc)
                center, radius = _mp_image_circle(letters, disc)
                assert abs(img.radius - radius) <= 1e-12 * radius
                err = mpmath.norm(mpmath.matrix(_padded(img.center.coords)) - center)
                assert err <= 1e-12 * radius + 1e-14
                images = apply_boundary_raw(g.matrix[None, :, :], rim_points(disc, 16))
                dists = np.linalg.norm(images - _padded(img.center.coords), axis=1)
                assert np.max(np.abs(dists - img.radius)) <= 1e-12 * img.radius + 1e-14

    def test_arc_image_exact(self, std_group, rng):
        g = word_transform(std_group, (0,))
        sample = arc(144, 10)
        img = image_disc(g, sample)
        for t in np.linspace(-1.0, 1.0, 41):
            theta = 144 * math.pi / 180 + t * sample.angular_radius
            image = g.apply_boundary(BoundaryPoint.from_angle(theta))
            assert img.chordal_distance(image) <= img.radius + 1e-10


def _padded(coords) -> np.ndarray:
    return np.append(coords, np.zeros(3 - len(coords)))


def _mp_apply(mat, x):
    """Boundary action of an mpmath matrix on an mpmath unit vector."""
    p, q = mpmath.mpc(x[1], x[2]), 1 - x[0]
    p, q = mat[0, 0] * p + mat[0, 1] * q, mat[1, 0] * p + mat[1, 1] * q
    n = abs(p) ** 2 + abs(q) ** 2
    w = 2 * p * mpmath.conj(q) / n
    return mpmath.matrix([(abs(p) ** 2 - abs(q) ** 2) / n, w.real, w.imag])


def _mp_image_circle(letters, disc):
    """Centre and chordal radius of the image of ``disc`` under the product
    of ``letters``, at 40 digits: the circle through the images of rim
    points, the centre's image picking the side."""
    with mpmath.workdps(40):
        mat = mpmath.eye(2)
        for letter in letters:
            mat = mat * mpmath.matrix(letter.tolist())
        m = mpmath.matrix(_padded(disc.center.coords))
        m /= mpmath.norm(m)
        alpha = 2 * mpmath.asin(mpmath.mpf(disc.radius) / 2)
        seed = [0, 0, 1] if disc.dim == 1 else ([1, 0, 0] if abs(m[0]) < 0.9 else [0, 1, 0])
        e = mpmath.matrix(seed) - mpmath.fdot(seed, m) * m
        e /= mpmath.norm(e)
        f = mpmath.matrix([m[1] * e[2] - m[2] * e[1], m[2] * e[0] - m[0] * e[2],
                           m[0] * e[1] - m[1] * e[0]])
        rim = [_mp_apply(mat, mpmath.cos(alpha) * m + mpmath.sin(alpha)
                         * (mpmath.cos(t) * f + mpmath.sin(t) * e))
               for t in ((0, mpmath.pi) if disc.dim == 1 else
                         (0, 2 * mpmath.pi / 3, 4 * mpmath.pi / 3))]
        # an arc's rim is its two ends; its circle lies in the plane normal to e3
        u, v = rim[0] - rim[1], rim[0] - rim[2] if disc.dim == 2 else e
        n = mpmath.matrix([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                           u[0] * v[1] - u[1] * v[0]])
        n /= mpmath.norm(n)
        h = mpmath.fdot(n, rim[0])
        if mpmath.fdot(n, _mp_apply(mat, m)) < h:
            n, h = -n, -h
        return n, mpmath.sqrt(2 - 2 * h)


class TestParabolicConstruction:
    def test_fixes_disc_center_with_unit_derivative(self):
        disc = arc(180, 12)
        p = parabolic_fixing(disc, 4.0)
        tc = classify(p)
        assert tc.kind == "parabolic"
        assert np.allclose(tc.fixed_points[0].coords, disc.center.coords, atol=1e-9)
        assert p.derivative_boundary(disc.center) == pytest.approx(1.0, abs=1e-9)

    def test_powers_map_exterior_inside(self):
        disc = arc(180, 12)
        p = parabolic_fixing(disc, 4.0)
        outside = [BoundaryPoint.from_angle(t) for t in np.linspace(-2.0, 2.0, 50)]
        mat = np.eye(2, dtype=complex)
        for _ in range(12):
            mat = mat @ p.matrix
            g = Transform(mat, 1, _trusted_unit_det=True)
            for zeta in outside:
                assert disc.contains(g.apply_boundary(zeta))

    def test_strength_must_exceed_two(self):
        with pytest.raises(ValueError):
            parabolic_fixing(arc(180, 12), 1.5)


class TestRotations:
    def test_moves_point_to_pole(self, rng):
        for p in random_boundary_points(rng, 2, 30):
            rot = Transform(rotation_moving_to_pole(p, 2), 2)
            moved = rot.apply_boundary(BoundaryPoint(p))
            assert np.allclose(moved.coords, [1.0, 0.0, 0.0], atol=1e-10)

    def test_equatorial_rotation_is_real(self, rng):
        for theta in rng.uniform(-math.pi, math.pi, size=10):
            p = BoundaryPoint.from_angle(float(theta))
            rot = rotation_moving_to_pole(p.coords, 1)
            assert np.max(np.abs(rot.imag)) < 1e-14


def _random_mats(rng, count, dtype, scale=1.0):
    mats = rng.normal(size=(count, 2, 2)) * scale
    if dtype is complex:
        mats = mats + 1j * rng.normal(size=(count, 2, 2)) * scale
    return mats


def _origin_images_by_division(mats, inverse):
    """The origin-image kernels as written with ``/ denom``."""
    from kleinian.mobius import halfspace_to_ball

    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    if inverse:
        denom = np.abs(a) ** 2 + np.abs(c) ** 2
        z = (-b * np.conj(a) - d * np.conj(c)) / denom
    else:
        denom = np.abs(c) ** 2 + np.abs(d) ** 2
        z = (b * np.conj(d) + a * np.conj(c)) / denom
    t = 1.0 / denom
    dd = np.abs(z) ** 2 + (t + 1.0) ** 2
    return halfspace_to_ball(z, t), 4.0 * t / dd


class TestRawKernels:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
    def test_matmul_raw_is_einsum_bit_for_bit(self, rng, dtype, scale):
        x = _random_mats(rng, 5000, dtype, scale)
        y = _random_mats(rng, 5000, dtype)
        out = matmul_raw(x, y)
        assert out.dtype == np.result_type(x, y)
        assert out.tobytes() == np.einsum("nij,njk->nik", x, y).tobytes()
        # one matrix against a batch, as the conformality shell multiplies
        assert matmul_raw(x[0], y).tobytes() == np.einsum("ij,njk->nik", x[0], y).tobytes()

    def test_real_products_are_the_complex_ones(self, rng):
        x, y = _random_mats(rng, 5000, float), _random_mats(rng, 5000, float)
        wide = np.einsum("nij,njk->nik", x.astype(complex), y.astype(complex))
        assert matmul_raw(x, y).tobytes() == np.ascontiguousarray(wide.real).tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
    def test_origin_images_multiply_by_the_reciprocal(self, rng, scale):
        mats = _random_mats(rng, 20000, complex, scale)
        for kernel, inverse in ((origin_images_raw, False), (inverse_origin_images_raw, True)):
            img, conorm = kernel(mats)
            ref_img, ref_conorm = _origin_images_by_division(mats, inverse)
            assert img.tobytes() == ref_img.tobytes()
            assert conorm.tobytes() == ref_conorm.tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
    def test_real_matrices_give_the_complex_bits(self, rng, scale):
        mats = _random_mats(rng, 20000, float, scale)
        for kernel in (origin_images_raw, inverse_origin_images_raw):
            img, conorm = kernel(mats)
            ref_img, ref_conorm = kernel(mats.astype(complex))
            assert np.array_equal(img, ref_img)   # the zero third coordinate may differ in sign
            assert np.ascontiguousarray(img[:, :2]).tobytes() == \
                np.ascontiguousarray(ref_img[:, :2]).tobytes()
            assert conorm.tobytes() == ref_conorm.tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
    def test_conorm_is_the_written_out_identity(self, rng, dtype, scale):
        z = rng.normal(size=20000) * scale
        if dtype is complex:
            z = z + 1j * rng.normal(size=20000) * scale
        t = rng.uniform(0.0, 2.0, size=20000) * scale
        dd = np.abs(z) ** 2 + (t + 1.0) ** 2
        assert conorm_raw(z, t).tobytes() == (4.0 * t / dd).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
    def test_poisson_is_the_written_out_kernel(self, rng, dtype, scale):
        points, conorm = origin_images_raw(_random_mats(rng, 20000, dtype, scale))
        zetas = rng.normal(size=(20000, 3))
        zetas /= np.linalg.norm(zetas, axis=1)[:, None]
        # many points at one boundary point, as a horoball scan reads them
        diff = zetas[0][None, :] - points
        assert poisson_raw(points, conorm, zetas[0]).tobytes() == \
            (conorm / np.einsum("ij,ij->i", diff, diff)).tobytes()
        # row by row, as the boundary derivative broadcasts them
        diff = zetas - points
        assert poisson_raw(points, conorm, zetas).tobytes() == \
            (conorm / np.einsum("...i,...i->...", diff, diff)).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
    def test_boundary_derivative_is_the_row_formula(self, rng, dtype, scale):
        # stored component-major, as the level engine yields its batches
        mats = np.ascontiguousarray(_random_mats(rng, 5000, dtype, scale).transpose(1, 2, 0))
        mats = mats.transpose(2, 0, 1)
        points = rng.normal(size=(5000, 3))
        points /= np.linalg.norm(points, axis=1)[:, None]
        # many words at one point: the walks' value streams
        pre, conorm = inverse_origin_images_raw(mats)
        diff = points[0][None, :] - pre
        assert boundary_derivative_raw(mats, points[0]).tobytes() == \
            (conorm / np.einsum("ij,ij->i", diff, diff)).tobytes()
        # one word at many points: the conformality residual
        pre, conorm = inverse_origin_images_raw(mats[0])
        diff = points - pre[None, :]
        assert boundary_derivative_raw(mats[0], points).tobytes() == \
            (conorm / np.einsum("ij,ij->i", diff, diff)).tobytes()
        if dtype is complex:
            return
        # the float64 branch gives the bits of the same matrices stored
        # complex, off and on the equator (where the third difference is 0)
        wide = mats.astype(complex)
        equator = np.stack([points[:, 0], points[:, 1], np.zeros(5000)], axis=1)
        equator /= np.linalg.norm(equator, axis=1)[:, None]
        for zeta in (points, equator):
            for got, want in ((boundary_derivative_raw(mats, zeta[0]),
                               boundary_derivative_raw(wide, zeta[0])),
                              (boundary_derivative_raw(mats[0], zeta),
                               boundary_derivative_raw(wide[0], zeta))):
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
    def test_real_boundary_action_gives_the_complex_bits(self, rng, scale):
        mats = np.ascontiguousarray(_random_mats(rng, 5000, float, scale).transpose(1, 2, 0))
        mats = mats.transpose(2, 0, 1)
        wide = mats.astype(complex)
        # chart [w : 1 - u1] away from the pole, chart [1 + u1 : conj w] near
        # it (1 - u1 <= |w|), and the pole itself
        angles = np.concatenate([rng.uniform(0.5, 2.0 * math.pi - 0.5, 2500),
                                 rng.uniform(-1e-3, 1e-3, 2499), [0.0]])
        points = np.stack([np.cos(angles), np.sin(angles), np.zeros(5000)], axis=1)
        use_a = (1.0 - points[:, 0]) > np.abs(points[:, 1])
        assert use_a.any() and not use_a.all()

        def same_bits(got, want):
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert np.ascontiguousarray(got[..., :2]).tobytes() == \
                np.ascontiguousarray(want[..., :2]).tobytes()
            assert np.array_equal(got, want)   # the zero third coordinate may differ in sign

        for zeta in (points[0], points[2500], points[-1]):
            same_bits(apply_boundary_raw(mats, zeta), apply_boundary_raw(wide, zeta))
        same_bits(apply_boundary_raw(mats[0], points), apply_boundary_raw(wide[0], points))


@st.composite
def words_and_equator_points(draw):
    """Real matrices of reduced words of a drawn group, and (n, 2) points of
    the circle: near the pole (1, 0), where the chart [1 + u1 : u2] is used,
    anywhere, and the four points with a signed zero coordinate."""
    group = draw(schottky_groups())
    k2 = group.letter_count
    words = []
    for _ in range(draw(st.integers(1, 4))):
        letters = [draw(st.integers(0, k2 - 1))]
        for _ in range(draw(st.integers(0, 6))):   # any letter but the last one's inverse
            letters.append(((letters[-1] ^ 1) + draw(st.integers(1, k2 - 1))) % k2)
        words.append(group.word_transform(letters).matrix.real)
    angles = draw(st.lists(st.floats(-1e-3, 1e-3) | st.floats(-math.pi, math.pi),
                           min_size=1, max_size=8))
    points = [(math.cos(a), math.sin(a)) for a in angles]
    points += [(1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0)]
    return np.stack(words), np.array(points)


@settings(max_examples=60, deadline=None)
@given(data=words_and_equator_points(), zeros=st.lists(st.sampled_from([0.0, -0.0]),
                                                      min_size=12, max_size=12))
def test_real_kernels_read_stored_points_to_the_complex_bits(data, zeros):
    """The float64 kernels give the same bytes on (n, 2) points, on (n, 3)
    points with a zero third coordinate of either sign, and, up to the sign
    of that zero, on the same matrices stored complex."""
    mats, points = data
    wide = np.column_stack([points, zeros[:points.shape[0]]])
    pairs = [(mats, point, wide_point) for point, wide_point in zip(points, wide)]
    pairs += [(mat, points, wide) for mat in mats]   # one word at many points
    for mat, point, wide_point in pairs:
        stored_complex = mat.astype(complex)   # a lone matrix or a stack, as it came
        image = apply_boundary_raw(mat, point)
        assert image.shape[-1] == 2 and image.dtype == np.float64
        for other in (apply_boundary_raw(mat, wide_point),
                      apply_boundary_raw(stored_complex, wide_point)):
            assert np.ascontiguousarray(other[..., :2]).tobytes() == image.tobytes()
            assert not np.any(other[..., 2])
        j = boundary_derivative_raw(mat, point)
        for other in (boundary_derivative_raw(mat, wide_point),
                      boundary_derivative_raw(stored_complex, wide_point)):
            assert other.dtype == np.float64 and other.tobytes() == j.tobytes()
