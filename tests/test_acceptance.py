"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from kleinian.group import (EndingSequenceSpec, ending_sequence, enumerate_words,
                            iter_word_batches, level_count)
from kleinian.measure import (conformality_residual, ending_measure, orbit_measure,
                              weak_distance)
from kleinian.mobius import image_disc
from kleinian.model import BoundaryPoint, InteriorPoint, embed3, poisson_kernel
from kleinian.series import horospherical_partial

from conftest import random_boundary_points, random_interior_points, \
    random_reduced_words

REPO = Path(__file__).resolve().parent.parent
DOMAIN_POINT = BoundaryPoint.from_angle(math.radians(108.0))


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def groups(std_group, std_group_2d):
    return {1: std_group, 2: std_group_2d}


@pytest.fixture(scope="module")
def ex1_result():
    from kleinian.examples import Example1Config, build_example1

    return build_example1(Example1Config(depth=8))


def _word_splits(rng, group, count, max_len):
    """Random reduced words of length <= max_len, split into prefix/suffix.

    The composite g h is itself reduced of length <= max_len, keeping every
    evaluation inside the float-resolvable range.
    """
    out = []
    for letters in random_reduced_words(rng, group, count, max_len):
        cut = int(rng.integers(0, len(letters) + 1))
        out.append((group.word_transform(letters[:cut]),
                    group.word_transform(letters[cut:])))
    return out


def _boundary_j(transform, pts3):
    from kleinian.mobius import inverse_origin_images_raw

    pre, conorm = inverse_origin_images_raw(transform.matrix)
    diff = pts3 - pre[None, :]
    return conorm / np.einsum("ij,ij->i", diff, diff)


def _interior_j(transform, pts3):
    from kleinian.measure import _stretch
    from kleinian.mobius import ball_to_halfspace

    return _stretch(transform, *ball_to_halfspace(pts3))


def test_criterion_01_chain_rule_both_forms(groups, rng):
    """10^3 word pairs x 10^2 points, both derivative forms, rel < 1e-9, <10 s."""
    tic = time.perf_counter()
    worst = 0.0
    from kleinian.mobius import apply_boundary_raw, apply_interior_raw

    for dim, group in groups.items():
        pairs = _word_splits(rng, group, 500, 6)
        bpts = embed3(random_boundary_points(rng, dim, 100))
        ipts = embed3(random_interior_points(rng, dim, 100, rmax=0.8))
        for g, h in pairs:
            gh = g.compose(h)
            h_b = apply_boundary_raw(h.matrix[None, :, :], bpts)
            lhs = _boundary_j(gh, bpts)
            rhs = _boundary_j(g, h_b) * _boundary_j(h, bpts)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
            h_i = apply_interior_raw(h.matrix[None, :, :], ipts)
            lhs_i = _interior_j(gh, ipts)
            rhs_i = _interior_j(g, h_i) * _interior_j(h, ipts)
            worst = max(worst, float(np.max(np.abs(lhs_i - rhs_i) / rhs_i)))
    elapsed = time.perf_counter() - tic
    report("criterion 1 (chain rule, both forms)",
           worst < 1e-9 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_boundary_derivative_is_kernel(groups, rng):
    """j(g, zeta) = k(g^{-1}(0), zeta) on the same sample, rel < 1e-10."""
    worst = 0.0
    for dim, group in groups.items():
        words = random_reduced_words(rng, group, 1000, 6)
        zetas = random_boundary_points(rng, dim, 100)
        for letters in words[:200]:
            g = group.word_transform(letters)
            pre = g.origin_preimage
            for zeta in zetas[:20]:
                bp = BoundaryPoint(zeta)
                lhs = g.derivative_boundary(bp)
                rhs = poisson_kernel(pre, bp)
                worst = max(worst, abs(lhs - rhs) / rhs)
    report("criterion 2 (derivative equals kernel at preimage)",
           worst < 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_03_finite_difference_oracle(groups, rng):
    """Richardson central difference matches the boundary derivative,
    rel < 1e-6, on 10^3 samples."""
    group = groups[1]
    samples = 0
    worst = 0.0
    discs = [d for _, d in group.discs()]

    def fd(transform, theta, j):
        # step scaled by the local geometry: the derivative varies at scale
        # eps = |zeta - g^{-1}(0)| = sqrt(conorm/j)
        eps = math.sqrt(transform.origin_preimage.conorm / j)
        h = min(max(0.02 * eps, 1e-6), 3e-4)

        def chord(hh):
            plus = transform.apply_boundary(
                BoundaryPoint.from_angle(theta + hh)).coords
            minus = transform.apply_boundary(
                BoundaryPoint.from_angle(theta - hh)).coords
            return float(np.linalg.norm(plus - minus) / (2.0 * hh))

        return (4.0 * chord(h / 2.0) - chord(h)) / 3.0

    while samples < 1000:
        for letters in random_reduced_words(rng, group, 200, 6):
            g = group.word_transform(letters)
            for theta in rng.uniform(-math.pi, math.pi, size=8):
                bp = BoundaryPoint.from_angle(float(theta))
                # keep a margin from the disc edges, where float noise in the
                # image coordinates dominates any difference quotient
                if any(d.chordal_distance(bp) <= d.radius * 1.2 for d in discs):
                    continue
                j = g.derivative_boundary(bp)
                if not 1e-3 < j < 1e3:
                    continue
                worst = max(worst, abs(fd(g, float(theta), j) - j) / j)
                samples += 1
        if samples == 0:
            break
    report("criterion 3 (finite-difference derivative oracle)",
           samples >= 1000 and worst < 1e-6,
           f"{samples} samples, worst rel err {worst:.2e}")


def test_criterion_04_comparison_inequalities(groups, rng):
    """Per-term lower bound with factor (1-|z|)^2/4 at L=6 (tol 1e-10), and
    the ordinary-point upper bound with the measured constant."""
    group = groups[1]
    words = list(enumerate_words(group, 6))
    ok = True
    detail = []
    for _ in range(3):
        z = InteriorPoint(random_interior_points(rng, 1, 1, rmax=0.8)[0])
        zeta = BoundaryPoint.from_angle(float(rng.uniform(1.7, 2.1)))  # domain arc
        lower = (1.0 - z.norm()) ** 2 / 4.0
        c = min(float(np.dot(zeta.coords - t.origin_preimage.coords,
                             zeta.coords - t.origin_preimage.coords))
                for _, t in words)
        upper = (1.0 + z.norm()) ** 2 / c
        for _, t in words:
            jb = t.derivative_boundary(zeta)
            ji = t.derivative_interior(z)
            if jb < lower * ji * (1.0 - 1e-10):
                ok = False
                detail.append("lower bound violated")
            if jb > upper * ji * (1.0 + 1e-10):
                ok = False
                detail.append("upper bound violated")
        detail.append(f"c={c:.3f}")
    report("criterion 4 (boundary/interior comparison inequalities)",
           ok, "; ".join(detail[:3]))


def test_criterion_05_separated_family_certified_atom():
    """M=4, phi(n)=16*2^n, s=1/2, L=8: closed-form admissibility, branch
    bounds below the schedule bounds, certified finite tail, atom verdict,
    and a budgeted L=10 rerun inside the L=8 certificate.  Under 60 s."""
    from kleinian.examples import Example1Config, build_example1

    tic = time.perf_counter()
    cfg = Example1Config(exponent=0.5, schedule_scale=16.0, schedule_base=2.0,
                         pairs=4, depth=8)
    result = build_example1(cfg)
    rep = result.report
    checks = {
        "admissibility < 1/2": rep["admissibility_sum"] < 0.5,
        "branch bounds within (4/phi)^2": all(
            row["within_schedule_bound"] for row in rep["branch_bounds"]),
        "certified tail finite": (rep["series"]["verdict"] == "converged_within"
                                  and rep["series"]["tail_bound"] is not None
                                  and math.isfinite(rep["series_upper_bound"])),
        "atom at target": rep["atomicity"] == "atom_at_target",
    }
    deeper = horospherical_partial(result.group, result.target, cfg.exponent, 10,
                                   budget=10 ** 7)
    checks["L=10 run extends the partial sum"] = (
        deeper.partial_sum >= result.series.partial_sum - 1e-15)
    checks["L=10 run stays inside the certificate"] = (
        deeper.partial_sum <= result.series.upper_bound())
    elapsed = time.perf_counter() - tic
    checks["runtime < 60 s"] = elapsed < 60.0
    failed = [k for k, v in checks.items() if not v]
    report("criterion 5 (separated family end-to-end)", not failed,
           f"{elapsed:.1f}s" + (f"; failed: {failed}" if failed else ""))


def test_criterion_06_conformality_residual(ex1_result):
    """Residual decreases from L=6 to L=8 under every generator and stays
    below twice the depth-shell mass at both depths."""
    s = 0.5
    shallow = ending_measure(ex1_result.group, ex1_result.target, s, 6)
    deep = ex1_result.measure
    ok = True
    details = []
    for gen in ex1_result.group.generators:
        r6 = conformality_residual(shallow, gen.transform, s)
        r8 = conformality_residual(deep, gen.transform, s)
        if not r8 < r6:
            ok = False
            details.append(f"{gen.label}: residual not decreasing")
        if not (r6 <= 2.0 * shallow.shell_mass() + 1e-15
                and r8 <= 2.0 * deep.shell_mass() + 1e-15):
            ok = False
            details.append(f"{gen.label}: shell bound violated")
    report("criterion 6 (conformality residual vs depth-shell mass)", ok,
           "; ".join(details) if details else
           f"shell masses {shallow.shell_mass():.2e} / {deep.shell_mass():.2e}")


def test_ending_measure_normalizer_is_the_series(ex1_result):
    """The depth-8 ending measure's level blocks are the boundary series'
    own, bit for bit, although its top level spans many batches."""
    assert ex1_result.measure.series.level_sums == ex1_result.series.level_sums
    assert ex1_result.measure.series.partial_sum == ex1_result.series.partial_sum


def test_criterion_07_weak_convergence_trend(ex1_result):
    """weak_distance(mu_n, mu_zeta) strictly decreasing for n = 1..8 along
    the radial ending sequence."""
    s, depth = 0.5, 6
    reference = ending_measure(ex1_result.group, ex1_result.target, s, depth)
    seq = ending_sequence(ex1_result.group,
                          EndingSequenceSpec.dyadic(ex1_result.target, 8))
    distances = [weak_distance(orbit_measure(ex1_result.group, z, s, depth),
                               reference) for z in seq]
    strictly = all(b < a for a, b in zip(distances, distances[1:]))
    report("criterion 7 (weak-convergence trend)", strictly,
           "distances " + ", ".join(f"{d:.4f}" for d in distances))


def test_criterion_08_parabolic_construction():
    """Unit stabilizer derivatives at powers <= 20 (1e-9), coset-sum equal to
    kernel-sum at L=6 (1e-10), domination at every depth <= 8 with the
    measured constant, growth witness on the unreduced series.  Under 60 s."""
    from kleinian.examples import Example3Config, build_example3

    tic = time.perf_counter()
    result = build_example3(Example3Config(depth=8, identity_depth=6))
    rep = result.report
    checks = {
        "unit derivatives at powers": rep["max_power_defect"] < 1e-9,
        "coset sum equals kernel sum": rep["coset_vs_kernel_sum"]["defect"] < 1e-10,
        "domination at every depth": rep["domination"]["dominated_at_every_depth"],
        "unreduced growth witness": rep["unreduced_growth_witness"],
    }
    elapsed = time.perf_counter() - tic
    checks["runtime < 60 s"] = elapsed < 60.0
    failed = [k for k, v in checks.items() if not v]
    report("criterion 8 (parabolic stabilizer end-to-end)", not failed,
           f"b={rep['domination']['b']:.3f}, {elapsed:.1f}s"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_09_kernel_measures():
    """Max atom weight decays from L=6 to L=8, singularity overlap < 0.05 at
    eps = gap/4, and the kernel exponent bracket sits strictly below the
    group bracket at budget 10^6.  Under 5 min."""
    from kleinian.examples import Example2Config, build_example2

    tic = time.perf_counter()
    result = build_example2(Example2Config(depth=8, decay_depths=(6, 7, 8)))
    rep = result.report
    decay_ok = all(
        rows[0]["max_atom_weight"] > rows[-1]["max_atom_weight"]
        and flag
        for rows, flag in zip(rep["max_atom_decay"],
                              rep["max_atom_strictly_decreasing"]))
    checks = {
        "max atom weight decays L=6 -> L=8": decay_ok,
        "singularity overlap < 0.05": max(rep["singularity_overlap"]) < 0.05,
        "kernel exponent below group exponent": rep["exponent_gap_resolved"],
    }
    elapsed = time.perf_counter() - tic
    checks["runtime < 5 min"] = elapsed < 300.0
    failed = [k for k, v in checks.items() if not v]
    report("criterion 9 (kernel measures and exponent gap)", not failed,
           f"delta(K) [{rep['delta_kernel']['low']:.3f}, {rep['delta_kernel']['high']:.3f}] "
           f"< delta(G) [{rep['delta_group']['low']:.3f}, {rep['delta_group']['high']:.3f}], "
           f"{elapsed:.0f}s" + (f"; failed: {failed}" if failed else ""))


def test_criterion_10_cli_determinism(tmp_path):
    """All CLI outputs byte-identical across thread counts {1, 4} and across
    two consecutive runs, on S^1 (two_generator) and on S^2 (cap_two_generator)."""
    from kleinian.cli import main

    digests = []
    for label, threads in (("t1", "1"), ("t4", "4"), ("t1b", "1")):
        run = {}
        for stem in ("two_generator", "cap_two_generator"):
            config = str(REPO / "configs" / f"{stem}.json")
            for command, files in (("series", ["series.json"]),
                                   ("measure", ["measure.json", "atoms.csv"]),
                                   ("render", ["render.json", "render.ppm",
                                               "histogram.csv"])):
                out = tmp_path / label / stem / command
                assert main([command, "--config", config, "--out", str(out),
                             "--threads", threads]) == 0
                for name in files:
                    run[f"{stem}/{command}/{name}"] = hashlib.sha256(
                        (out / name).read_bytes()).hexdigest()
        digests.append(run)
    ok = digests[0] == digests[1] == digests[2]
    report("criterion 10 (byte-identical CLI outputs)", ok,
           f"{len(digests[0])} artifacts compared")


def test_criterion_11_freeness_and_nesting(std_group):
    """Exhaustive distinctness of evaluated transforms to L=5 (matrix
    distance > 1e-6) and the nesting invariant, exhaustively to L=5."""
    mats = []
    for batch in iter_word_batches(std_group, 5):
        mats.append(batch.mats)
    mats = np.concatenate(mats)
    expected = sum(level_count(std_group, l) for l in range(6))
    flat = np.concatenate([mats.reshape(-1, 4).real, mats.reshape(-1, 4).imag],
                          axis=1)
    from scipy.spatial import cKDTree

    tree = cKDTree(flat)
    dists, _ = tree.query(flat, k=2)
    min_dist = float(np.min(dists[:, 1]))
    nesting_ok = True
    for w, t in enumerate_words(std_group, 5):
        if len(w) == 0:
            continue
        source = std_group.letter_sources[w.letters[-1]]
        target = std_group.letter_targets[w.letters[0]]
        image = image_disc(t, source.complement())
        if len(w) == 1:
            inside = (np.allclose(image.center.coords, target.center.coords,
                                  atol=1e-9)
                      and abs(image.radius - target.radius) < 1e-9)
        else:
            inside = target.contains_disc(image)
        if not inside:
            nesting_ok = False
            break
    ok = mats.shape[0] == expected and min_dist > 1e-6 and nesting_ok
    report("criterion 11 (freeness and ping-pong nesting to L=5)", ok,
           f"{mats.shape[0]} words, min matrix distance {min_dist:.3e}")
