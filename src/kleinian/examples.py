"""Reproducible desk-scale builders for the three showcase constructions.

1. A separated family of arc pairs accumulating at a boundary point: the
   boundary series at the accumulation point gets a closed-form geometric
   tail certificate and the ending measure is certifiably atomic there.
2. The kernel of the retraction of a rank-4 free product onto one rank-2
   factor: exponent estimates separate the kernel from the full group,
   its ending measures at the factor's fixed points spread their mass
   (non-atomicity evidence) and have disjoint supports.
3. A free product with a parabolic generator: the parabolic stabilizer
   has unit derivative at its fixed point, the coset transversal is the
   complement kernel, and the reduced series is dominated through the
   measured horospherical gap.

Each builder returns its handles plus a JSON-serializable report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlacementInfeasible, StabilizerNotParabolic
from .group import (DeclaredStabilizer, EndingSequenceSpec, LevelSums, QuotientSpec,
                    SchottkyGroup, ending_sequence, kernel_enumerate)
from .limits import DEFAULT_C_GRID, horoball_scanner, jorgensen_test
from .measure import (AtomicMeasure, AtomicityVerdict, EndingMeasures,
                      classify_atomicity, singularity_diagnostic, support_gap,
                      weak_distance)
from .mobius import Transform
from .model import BoundaryPoint, Disc
from .series import (BranchBounds, DeltaEstimate, SeparationSchedule, SeriesResult,
                     boundary_values, branch_contraction, estimate_delta,
                     example1_certificate, finish_series, parabolic_domination)

POLE_SAFETY = 0.2        # keep all constructions away from the chart pole
SLOT_FILL = 0.45         # enlarged discs fill this fraction of their half-slot


def _series_summary(series: SeriesResult) -> dict:
    """The series summary with the verdict kind as a bare string."""
    return dict(series.summary(), verdict=series.verdict.kind)


# --- construction 1: separated arc families ------------------------------------

@dataclass(frozen=True)
class Example1Config:
    """Separated family of arc pairs accumulating at one boundary angle.

    phi(n) = schedule_scale * schedule_base^n is the separation schedule;
    the family is admissible when sum_n (4/phi(n))^(2s) < 1/2, which the
    constructor enforces.  ``pairs`` arc pairs are instantiated inside
    dyadic slots on both sides of the accumulation angle (pi), with radii
    the largest the separation permits.
    """

    exponent: float = 0.5
    schedule_scale: float = 16.0
    schedule_base: float = 2.0
    pairs: int = 4
    span: float = math.pi / 2.0
    depth: int = 8
    budget: int | None = None
    sequence_count: int = 8
    weak_depth: int = 6

    def __post_init__(self):
        if self.pairs < 1:
            raise PlacementInfeasible("need at least one generator pair")
        if not (0.0 < self.span and 0.975 * self.span < math.pi - POLE_SAFETY):
            raise PlacementInfeasible(
                f"span {self.span} pushes arcs onto the projection pole")
        adm = self.schedule().admissibility_sum(self.exponent)
        if not adm < 0.5:
            raise ValueError(
                f"inadmissible schedule: sum_n (4/phi(n))^(2s) = {adm} >= 1/2")

    def schedule(self) -> SeparationSchedule:
        return SeparationSchedule(self.schedule_scale, self.schedule_base)


@dataclass
class Example1Result:
    group: SchottkyGroup
    target: BoundaryPoint
    series: SeriesResult
    measure: AtomicMeasure
    branch: BranchBounds
    atomicity: AtomicityVerdict
    report: dict


def place_example1_discs(cfg: Example1Config) -> tuple[list[tuple[Disc, Disc]], list[float]]:
    """Deterministic arc placement: pair n sits in the dyadic slot
    [2^-n, 2^-n+1) * span on both sides of the accumulation angle."""
    schedule = cfg.schedule()
    pairs = []
    seps = []
    for n in range(1, cfg.pairs + 1):
        phi = schedule.phi(n)
        enlarged_angular = SLOT_FILL * 2.0 ** (-n) * cfg.span
        radius = 2.0 * math.sin(enlarged_angular / 2.0) / phi
        if radius <= 0.0 or radius >= 2.0:
            raise PlacementInfeasible(f"pair {n}: no admissible radius")
        offset = 1.5 * 2.0 ** (-n) * cfg.span
        plus = Disc(BoundaryPoint.from_angle(math.pi - offset), radius)
        minus = Disc(BoundaryPoint.from_angle(math.pi + offset), radius)
        pairs.append((plus, minus))
        seps.append(phi)
    return pairs, seps


def example1_group(cfg: Example1Config) -> tuple[SchottkyGroup, BoundaryPoint]:
    """The separated family and its accumulation point (the target)."""
    pairs, seps = place_example1_discs(cfg)
    labels = [f"g{n}" for n in range(1, cfg.pairs + 1)]
    group = SchottkyGroup.from_disc_pairs(1, pairs, labels=labels, separations=seps)
    return group, BoundaryPoint.from_angle(math.pi)


def build_example1(cfg: Example1Config) -> Example1Result:
    schedule = cfg.schedule()
    group, target = example1_group(cfg)
    seps = [gen.separation for gen in group.generators]
    for gen in group.generators:
        for disc in (gen.source, gen.target):
            if disc.enlarged(gen.separation).contains(target):
                raise PlacementInfeasible("target fell inside an enlarged disc")

    s = cfg.exponent
    adm = schedule.admissibility_sum(s)
    certificate = example1_certificate(schedule, s)
    branch = branch_contraction(group, seps)
    paper_bounds = [(4.0 / schedule.phi(1 + e // 2)) ** 2
                    for e in range(group.letter_count)]
    stab = DeclaredStabilizer.trivial()
    # the boundary series is the measure's normalizer: one walk gives both
    measures = EndingMeasures(group, [target], s, stab=stab, tail=certificate)
    [measure] = measures.at(measures.walk(cfg.depth, cfg.budget))
    series = measure.series
    # trivial stabilizer: the reduced series coincides with the plain one
    atomicity = classify_atomicity(group, target, stab, series)

    report = {
        "construction": "separated-arc-family",
        "pairs": cfg.pairs,
        "exponent": s,
        "admissibility_sum": adm,
        "admissible": adm < 0.5,
        "tail_rate": 2.0 * adm,
        "tail_from_depth": certificate.tail_from(cfg.depth + 1),
        "branch_bounds": [
            {"letter": group.letter_labels[e],
             "bound": branch.letter_bounds[e],
             "schedule_bound": paper_bounds[e],
             "within_schedule_bound": branch.letter_bounds[e] <= paper_bounds[e]}
            for e in range(group.letter_count)],
        "branch_rate": branch.rate(s),
        "series": _series_summary(series),
        "series_upper_bound": series.upper_bound(),
        "target_is_jorgensen": jorgensen_test(group, target),
        "target_atom_weight": measure.weight_at(target),
        "atom_weight_lower_bound": 1.0 / series.upper_bound(),
        "atomicity": atomicity.conclusion,
        "stabilizer_check": atomicity.stabilizer_check.kind,
    }
    return Example1Result(group, target, series, measure, branch, atomicity, report)


def example1_weak_trend(cfg: Example1Config, result: Example1Result) -> list[float]:
    """weak_distance(orbit measure at z_n, ending measure) along the radial
    approach; the trend toward zero is the weak-convergence diagnostic."""
    seq = ending_sequence(result.group,
                          EndingSequenceSpec.dyadic(result.target, cfg.sequence_count))
    # one walk for the ending measure and every orbit measure
    measures = EndingMeasures(result.group, [result.target], cfg.exponent,
                              stab=DeclaredStabilizer.trivial(), orbit_points=seq)
    reference, *orbits = measures.at(measures.walk(cfg.weak_depth))
    return [weak_distance(mu, reference) for mu in orbits]


# --- construction 2: retraction kernels of free products -------------------------

@dataclass(frozen=True)
class Example2Config:
    """Free product of a small-arc pair group with a large-arc pair group.

    Fixed geometry: arcs k = 0..7 centred at 30 + 300k/7 degrees; ``a``
    pairs arcs 0 and 4, ``b`` 2 and 6 (radius 4 degrees), ``c`` 1 and 5,
    ``d`` 3 and 7 (radius 16 degrees).  The quotient retracts onto <c, d>;
    measures are built for the kernel at the attracting fixed points of c, d.
    """

    exponent: float | None = None          # default: upper kernel-exponent estimate
    depth: int = 8
    decay_depths: tuple[int, ...] = (6, 7, 8)
    probe_depths: tuple[int, ...] = (5, 6)


@dataclass
class Example2Result:
    group: SchottkyGroup
    quotient: QuotientSpec
    targets: tuple[BoundaryPoint, BoundaryPoint]
    measures: tuple[AtomicMeasure, AtomicMeasure]
    delta_group: DeltaEstimate
    delta_kernel: DeltaEstimate
    report: dict


def _top_atom_gap(mu: AtomicMeasure, nu: AtomicMeasure, k: int = 32) -> float:
    """Separation of the mass cores: min distance between the top-k atoms."""
    pa, _ = mu.top_atoms(k)
    pb, _ = nu.top_atoms(k)
    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return float(np.min(d))


def example2_group() -> tuple[SchottkyGroup, QuotientSpec]:
    """The free product and its retraction onto the large-arc factor."""
    centers = np.linspace(math.radians(30.0), math.radians(330.0), 8)
    small = [Disc.from_angles(centers[i], math.radians(4.0)) for i in (0, 4, 2, 6)]
    large = [Disc.from_angles(centers[i], math.radians(16.0)) for i in (1, 5, 3, 7)]
    factor_small = SchottkyGroup.from_disc_pairs(
        1, [(small[0], small[1]), (small[2], small[3])], labels=["a", "b"])
    factor_large = SchottkyGroup.from_disc_pairs(
        1, [(large[0], large[1]), (large[2], large[3])], labels=["c", "d"])
    group = SchottkyGroup.free_product(factor_small, factor_large)
    return group, QuotientSpec("free", {"a": (), "b": (), "c": ("c",), "d": ("d",)})


def example2_target(group: SchottkyGroup, label: str) -> BoundaryPoint:
    """Attracting fixed point of one of the large-arc factor's generators."""
    return group.generator(label).transform.classify().fixed_points[0]


def build_example2(cfg: Example2Config) -> Example2Result:
    group, quotient = example2_group()

    # exponent probes on [0.02, 0.9], each walk capped at 10^6 words
    probes = {"budget": 10 ** 6, "max_probes": 10}
    delta_group = estimate_delta(group, (0.02, 0.9), depths=cfg.probe_depths, **probes)
    delta_kernel = estimate_delta(group, (0.02, 0.9),
                                  depths=cfg.probe_depths + (cfg.probe_depths[-1] + 1,),
                                  restrict=quotient, **probes)
    s = cfg.exponent if cfg.exponent is not None else delta_kernel.high

    targets = [example2_target(group, label) for label in ("c", "d")]

    # one walk gives both targets' measures at every depth asked for below,
    # and the horoball scan of its words up to length 7
    depths_needed = sorted(set(cfg.decay_depths) | {cfg.depth})
    scan_depth = min(cfg.depth, 7)
    scan, scanned = horoball_scanner(group, targets[0], DEFAULT_C_GRID, scan_depth)
    kernel_measures = EndingMeasures(group, targets, s, kernel=quotient)
    done = kernel_measures.walk(depths_needed[-1], consumers=[scan])
    by_depth = {depth: kernel_measures.at(done.upto(depth)) for depth in depths_needed}
    measures = by_depth[cfg.depth]

    decay_tables = []
    for i in range(2):
        decay_tables.append([
            {"depth": depth, "max_atom_weight": by_depth[depth][i].max_atom_weight(),
             "atoms": by_depth[depth][i].atom_count}
            for depth in cfg.decay_depths])

    # At full depth the two orbits collide below float resolution, so the
    # minimal-gap diagnostic runs at the deepest depth where the atom sets
    # are still disjoint.  A depth's atoms are the full-depth atoms of word
    # length <= that depth, so one exact join finds the first collision.
    keys = [mu.points.view(np.complex128).ravel() for mu in measures]
    _, ia, ib = np.intersect1d(*keys, return_indices=True)
    first = np.maximum(measures[0].word_lengths[ia], measures[1].word_lengths[ib])
    collision = int(first.min(initial=cfg.depth + 1))   # past the depth when none
    singularity_depth = min(cfg.depth, max(collision - 1, 2))
    sing_measures = (by_depth[singularity_depth] if singularity_depth in by_depth
                     else kernel_measures.at(done.upto(singularity_depth)))
    gap = support_gap(*sing_measures)
    eps = gap / 4.0
    overlap = singularity_diagnostic(sing_measures[0], sing_measures[1], eps)
    heavy_gap = _top_atom_gap(measures[0], measures[1])

    horoballs = scanned(done.upto(scan_depth))

    report = {
        "construction": "retraction-kernel",
        "exponent_used": s,
        "delta_group": {"low": delta_group.low, "high": delta_group.high},
        "delta_kernel": {"low": delta_kernel.low, "high": delta_kernel.high},
        "exponent_gap_resolved": delta_kernel.high < delta_group.low,
        "max_atom_decay": decay_tables,
        "max_atom_strictly_decreasing": [
            all(r2["max_atom_weight"] < r1["max_atom_weight"]
                for r1, r2 in zip(rows, rows[1:]))
            for rows in decay_tables],
        "support_gap": gap,
        "singularity_depth": singularity_depth,
        "singularity_eps": eps,
        "singularity_overlap": list(overlap),
        "heavy_support_gap_top32": heavy_gap,
        "horoball_scan_at_first_target": [
            {"level": h.level, "witnesses": h.count()} for h in horoballs],
        "measure_verdicts": [m.series.verdict.kind for m in measures],
    }
    return Example2Result(group, quotient, tuple(targets), measures,
                          delta_group, delta_kernel, report)


# --- construction 3: parabolic stabilizers ----------------------------------------

@dataclass(frozen=True)
class Example3Config:
    """Free product of a rank-2 arc group with one parabolic generator.

    Fixed geometry: ``a`` pairs arcs at 60 and 300 degrees, ``b`` at 120 and
    240 (radius 6 degrees); the parabolic ``p``, of strength 4.5, fixes the
    centre pi of its 12-degree arc.  The reduced boundary series there runs
    over the retraction kernel and is dominated by e^{s b} P(0, s) with the
    measured gap b.
    """

    exponent: float = 0.8
    depth: int = 8
    identity_depth: int = 6
    budget: int | None = None


@dataclass
class Example3Result:
    group: SchottkyGroup
    target: BoundaryPoint
    stabilizer: DeclaredStabilizer
    reduced: SeriesResult
    unreduced: SeriesResult
    measure: AtomicMeasure
    domination: dict
    report: dict


def example3_group() -> tuple[SchottkyGroup, BoundaryPoint]:
    """The free product with the parabolic ``p`` and its fixed point (the target)."""
    deg = math.pi / 180.0
    radius = math.radians(6.0)
    arcs = SchottkyGroup.from_disc_pairs(
        1,
        [(Disc.from_angles(60.0 * deg, radius), Disc.from_angles(300.0 * deg, radius)),
         (Disc.from_angles(120.0 * deg, radius), Disc.from_angles(240.0 * deg, radius))],
        labels=["a", "b"])
    pdisc = Disc.from_angles(math.pi, math.radians(12.0))
    group = arcs.with_parabolic("p", pdisc, 4.5)
    cls = group.generator("p").transform.classify()
    if cls.kind != "parabolic":
        raise StabilizerNotParabolic(
            f"declared parabolic generator classifies as {cls.kind}")
    return group, cls.fixed_points[0]


def build_example3(cfg: Example3Config) -> Example3Result:
    group, target = example3_group()
    pgen = group.generator("p")
    stab = DeclaredStabilizer(("p",))
    s = cfg.exponent

    power_table = []
    mat = np.eye(2, dtype=complex)
    for k in range(1, 21):   # the derivatives of p, ..., p^20 at the target
        mat = mat @ pgen.transform.matrix
        power_table.append(Transform(mat, group.dim, _trusted_unit_det=True)
                           .derivative_boundary(target))
    max_power_defect = max(abs(v - 1.0) for v in power_table)

    # One walk over the transversal (the retraction kernel) gives the
    # measure, whose normalizer is the reduced series, the unreduced series
    # (a whole-group sum) and both domination sums.
    measures = EndingMeasures(group, [target], s, stab=stab)
    whole = LevelSums(boundary_values(target, s), whole_group=True)
    dominate, dominated = parabolic_domination(target, s)
    done = measures.walk(cfg.depth, cfg.budget, [whole, dominate])
    [measure] = measures.at(done)
    reduced = measure.series
    # p fixes the target with unit derivative, so the whole-group sum diverges
    unreduced = finish_series(done, whole, s, None, group, None, target)
    domination = dominated(done)

    # the walk's coset sum at a small depth against an independent per-word
    # recomputation of the kernel sum
    identity_depth = min(cfg.identity_depth, done.depth_completed)
    coset_sum = measures.at(done.upto(identity_depth))[0].series.partial_sum
    kernel_sum = math.fsum(
        t.derivative_boundary(target) ** s
        for _, t in kernel_enumerate(group, stab.quotient_for(group), identity_depth))
    identity_defect = abs(coset_sum - kernel_sum)

    atomicity = classify_atomicity(group, target, stab, reduced)
    delta_group = estimate_delta(group, (0.05, 1.2), depths=(5, 6), budget=10 ** 6)

    report = {
        "construction": "parabolic-stabilizer",
        "exponent": s,
        "stabilizer_derivatives_at_powers": power_table,
        "max_power_defect": max_power_defect,
        "coset_vs_kernel_sum": {
            "depth": identity_depth,
            "coset_sum": coset_sum,
            "kernel_sum": kernel_sum,
            "defect": identity_defect,
        },
        "reduced_series": _series_summary(reduced),
        "unreduced_series": _series_summary(unreduced),
        "unreduced_growth_witness": unreduced.verdict.kind == "growth_witness",
        "domination": {k: v for k, v in domination.items()
                       if k in ("b", "factor", "dominated_at_every_depth")},
        "measure_verdict": measure.series.verdict.kind,
        "atomicity": atomicity.conclusion,
        "stabilizer_check": atomicity.stabilizer_check.kind,
        "exponent_of_convergence_evidence": {
            "low": delta_group.low, "high": delta_group.high},
        "assumptions_recorded_not_verified": [
            "convergence type at the exponent of convergence",
            "exponent exceeds half the boundary dimension",
        ],
    }
    return Example3Result(group, target, stab, reduced, unreduced, measure,
                          domination, report)
