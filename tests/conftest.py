import math

import numpy as np
import pytest
from hypothesis import strategies as st

from kleinian import BoundaryPoint, Disc, SchottkyGroup

DEG = math.pi / 180.0


def arc(center_deg: float, radius_deg: float) -> Disc:
    return Disc.from_angles(center_deg * DEG, radius_deg * DEG)


def cap(center, radius: float) -> Disc:
    return Disc(BoundaryPoint(center), radius)


@pytest.fixture(scope="session")
def std_group() -> SchottkyGroup:
    """Well-separated 2-generator group on S^1, clear of the chart pole."""
    return SchottkyGroup.from_disc_pairs(
        1,
        [(arc(72, 10), arc(216, 10)), (arc(144, 10), arc(288, 10))],
        labels=["a", "b"])


@pytest.fixture(scope="session")
def std_group_2d() -> SchottkyGroup:
    """Well-separated 2-generator group on S^2 (caps away from the pole)."""
    return SchottkyGroup.from_disc_pairs(
        2,
        [(cap([0.0, 1.0, 0.0], 0.35), cap([0.0, -1.0, 0.0], 0.35)),
         (cap([0.0, 0.0, 1.0], 0.35), cap([0.0, 0.0, -1.0], 0.35))],
        labels=["a", "b"])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


def random_boundary_points(rng, dim: int, count: int) -> np.ndarray:
    pts = rng.normal(size=(count, dim + 1))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def random_interior_points(rng, dim: int, count: int, rmax: float = 0.9) -> np.ndarray:
    pts = rng.normal(size=(count, dim + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(0.0, rmax, size=(count, 1))


def rim_points(disc: Disc, count: int) -> np.ndarray:
    """(n, 3) points of the disc's rim: the two ends of an arc, or ``count``
    equally spaced points of a cap's circle."""
    m = np.zeros(3)
    m[: disc.dim + 1] = disc.center.coords
    alpha = disc.angular_radius
    if disc.dim == 1:
        theta = math.atan2(m[1], m[0])
        return np.array([[math.cos(theta + t), math.sin(theta + t), 0.0]
                         for t in (-alpha, alpha)])
    e = np.cross(m, [1.0, 0.0, 0.0] if abs(m[0]) < 0.9 else [0.0, 1.0, 0.0])
    e /= np.linalg.norm(e)
    f = np.cross(m, e)
    ts = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)[:, None]
    return math.cos(alpha) * m + math.sin(alpha) * (np.cos(ts) * e + np.sin(ts) * f)


def random_reduced_words(rng, group: SchottkyGroup, count: int, max_len: int):
    """Random reduced words (as letter tuples) of length 1..max_len."""
    words = []
    k2 = group.letter_count
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        letters = [int(rng.integers(0, k2))]
        while len(letters) < length:
            nxt = int(rng.integers(0, k2))
            if nxt != letters[-1] ^ 1:
                letters.append(nxt)
        words.append(tuple(letters))
    return words


@st.composite
def schottky_groups(draw):
    """Well-separated arc pairs on S^1, clear of the chart pole at angle 0."""
    pairs = draw(st.integers(1, 2))
    first = draw(st.floats(30.0, 50.0))
    last = draw(st.floats(310.0, 330.0))
    radius = draw(st.floats(2.0, 10.0))
    centers = np.radians(np.linspace(first, last, 2 * pairs))
    discs = [Disc.from_angles(float(c), math.radians(radius)) for c in centers]
    order = draw(st.permutations(range(2 * pairs)))
    return SchottkyGroup.from_disc_pairs(
        1, [(discs[order[2 * i]], discs[order[2 * i + 1]]) for i in range(pairs)])


@st.composite
def cap_groups(draw):
    """Two pairs of caps on S^2 centred on the +-y and +-z axes, clear of the
    chart pole (1, 0, 0)."""
    radius = draw(st.floats(0.2, 0.4))
    axes = np.eye(3)[1:]
    pairs = [(cap(a, radius), cap(-a, radius)) for a in axes]
    if draw(st.booleans()):
        pairs = [(minus, plus) for plus, minus in pairs]
    return SchottkyGroup.from_disc_pairs(2, pairs, labels=["a", "b"])
