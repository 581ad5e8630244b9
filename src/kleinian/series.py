"""Poincare-type series as certified partial sums.

Every evaluator walks the breadth-first word stream once, forms the block
sum of each word length by correctly rounded summation (one
:func:`~kleinian.group.exact_sum` per batch, then ``math.fsum`` per
level, in enumeration order), and returns a :class:`SeriesResult`
carrying the per-level blocks, a three-valued convergence verdict and an
optional certified tail.

A ``converged_within`` verdict is only ever issued against a
:class:`TailCertificate` (a proven geometric bound on the level blocks),
or for the identity alone (:func:`trivial_subgroup`); truncations alone
never claim convergence.  Divergence is reported as ``growth_witness``.
One rule is exact: a generator of the summed subgroup that fixes the
target zeta with j(g, zeta) = 1 gives j(g^n, zeta) = 1 for every n, so the
series diverges at every exponent (:func:`unit_fixer`).  Otherwise the
evidence is a fitted level ratio above ``RATIO_DIVERGENT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EnlargedDiscsOverlap, InconclusiveBracket, InvalidSeparation
from .group import (DeclaredStabilizer, LevelSums, QuotientSpec, SchottkyGroup, Walk,
                    WordBatch, level_count, walk)
from .mobius import (boundary_derivative_raw, disc_boundary_points,
                     interior_derivative_raw, inverse_origin_images_raw)
from .model import BoundaryPoint, InteriorPoint, embed3

RATIO_CONVERGENT = 0.95
RATIO_DIVERGENT = 1.05
ORACLE_BITS = 160   # mantissa bits of the extended-precision oracle
RATIO_WINDOW = 3
CIRCLE_SAMPLES = 4096
FIXED_POINT_TOL = 1e-8        # |g(zeta) - zeta| up to which g fixes zeta
UNIT_DERIVATIVE_TOL = 1e-9    # |j(g, zeta) - 1| up to which j(g, zeta) = 1


# --- results -----------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Three-valued convergence verdict.

    kind is one of ``converged_within`` (carries the certified tail bound),
    ``growth_witness`` (carries the per-level sums, and under ``unit_fixer``
    the generator that fixes the target with unit derivative) or
    ``inconclusive``.
    """

    kind: str
    tail_bound: float | None = None
    evidence: dict | None = None


@dataclass
class SeriesResult:
    exponent: float
    depth: int
    depth_completed: int
    partial_sum: float
    level_sums: tuple[float, ...]
    verdict: Verdict
    tail_bound: float | None = None
    budget_exhausted: bool = False
    incomplete_cosets: bool = False
    transcript: dict = field(default_factory=dict)

    def upper_bound(self) -> float:
        """partial_sum + certified tail, or +inf without a certificate."""
        if self.tail_bound is None:
            return math.inf
        return self.partial_sum + self.tail_bound

    def summary(self) -> dict:
        """JSON-ready fields; the verdict as ``{"kind"[, "tail_bound"]}``."""
        verdict: dict = {"kind": self.verdict.kind}
        if self.verdict.tail_bound is not None:
            verdict["tail_bound"] = self.verdict.tail_bound
        return {
            "exponent": self.exponent,
            "depth": self.depth,
            "depth_completed": self.depth_completed,
            "partial_sum": self.partial_sum,
            "level_sums": list(self.level_sums),
            "tail_bound": self.tail_bound,
            "verdict": verdict,
            "budget_exhausted": self.budget_exhausted,
            "incomplete_cosets": self.incomplete_cosets,
        }


@dataclass(frozen=True)
class TailCertificate:
    """Certified geometric bound: block sum at length l is <= coeff * rate^l.

    ``tail_from(k)`` bounds the whole series beyond (and including) length
    k; it is finite exactly when rate < 1.
    """

    rate: float
    coeff: float = 1.0
    source: str = ""

    def tail_from(self, k_start: int) -> float:
        if self.rate >= 1.0:
            return math.inf
        return self.coeff * self.rate ** k_start / (1.0 - self.rate)

    def admits_blocks(self, level_sums: Sequence[float], rtol: float = 1e-9) -> bool:
        """Audit the measured blocks against the certified envelope."""
        for length, block in enumerate(level_sums):
            if length == 0:
                continue
            if block > self.coeff * self.rate ** length * (1.0 + rtol) + 1e-300:
                return False
        return True


# --- the shared accumulation core ---------------------------------------------

def _series(group: SchottkyGroup, values: Callable[[WordBatch], np.ndarray],
            exponent: float, max_length: int, budget: int | None,
            tail: TailCertificate | None, kernel: QuotientSpec | None = None,
            target: BoundaryPoint | None = None,
            incomplete_cosets: bool = False) -> SeriesResult:
    """One walk summing ``values`` by level."""
    blocks = LevelSums(values)
    done = walk(group, max_length, budget, kernel=kernel, consumers=[blocks])
    return finish_series(done, blocks, exponent, tail, group, kernel, target,
                         incomplete_cosets=incomplete_cosets)


def boundary_values(zeta: BoundaryPoint, s: float) -> Callable[[WordBatch], np.ndarray]:
    """The value stream j(w, zeta)^s of a batch's words w, evaluated block
    by block (:meth:`~kleinian.group.WordBatch.blocks`)."""
    bc = embed3(zeta.coords)

    def values(batch: WordBatch) -> np.ndarray:
        out = np.empty(batch.last.shape[0])
        for lo, mats in batch.blocks():
            out[lo:lo + mats.shape[0]] = boundary_power(mats, bc, s)
        return out
    return values


def boundary_power(mats: np.ndarray, bc: np.ndarray, s: float) -> np.ndarray:
    """j(w, zeta)^s of matrices (n, 2, 2) at the embedded boundary point ``bc``."""
    j = boundary_derivative_raw(mats, bc)
    j **= s   # in place: ``j ** s`` bit for bit, without a second array
    return j


def unit_fixer(group: SchottkyGroup, zeta: BoundaryPoint,
               spec: QuotientSpec | None = None) -> str | None:
    """The first generator of the summed subgroup that fixes ``zeta`` with
    unit derivative, if any: the series over that subgroup then diverges.

    The summed subgroup is the whole group when ``spec`` is None, else the
    kernel of ``spec``, which holds the generators that ``spec`` maps to
    ``()``.  A declared stabilizer's letters map to themselves, so they are
    never in its transversal's kernel.
    """
    for gen in group.generators:
        if spec is not None and spec.images.get(gen.label, (gen.label,)):
            continue
        moved = gen.transform.apply_boundary(zeta).coords - zeta.coords
        if (float(np.linalg.norm(moved)) <= FIXED_POINT_TOL and abs(
                gen.transform.derivative_boundary(zeta) - 1.0) <= UNIT_DERIVATIVE_TOL):
            return gen.label
    return None


def trivial_subgroup(group: SchottkyGroup, spec: QuotientSpec | None) -> bool:
    """True when the summed subgroup is the identity alone: a group without
    generators, or the kernel of a ``spec`` mapping the generators one-to-one
    onto distinct target letters (a free basis into a free basis kills no word)."""
    if spec is None:
        return not group.generators
    images = [spec.images.get(gen.label, (gen.label,)) for gen in group.generators]
    return (all(len(image) == 1 for image in images)
            and len({image[0].removesuffix("^-1") for image in images}) == len(images))


def _fit_ratio(level_sums: Sequence[float]) -> float | None:
    """Geometric ratio fitted to the last RATIO_WINDOW nonzero blocks."""
    blocks = [b for b in level_sums[1:] if b > 0.0]
    if len(blocks) < RATIO_WINDOW:
        return None
    window = blocks[-RATIO_WINDOW:]
    ratios = [b / a for a, b in zip(window, window[1:])]
    return float(np.exp(np.mean(np.log(ratios))))


def _verdict(done: Walk, level_sums: Sequence[float], tail: TailCertificate | None,
             group: SchottkyGroup, spec: QuotientSpec | None,
             target: BoundaryPoint | None, transcript: dict) -> Verdict:
    if trivial_subgroup(group, spec) and not done.budget_exhausted:
        return Verdict("converged_within", 0.0)   # the partial sum is the series
    if tail is not None:
        if not tail.admits_blocks(level_sums):
            transcript["certificate_rejected"] = (
                "measured level sums violate the certified envelope")
        elif tail.rate < 1.0:
            transcript["certificate"] = {"rate": tail.rate, "coeff": tail.coeff,
                                         "source": tail.source}
            return Verdict("converged_within", tail.tail_from(done.depth_completed + 1))
        else:
            transcript["certificate_rejected"] = f"certified rate {tail.rate} >= 1"
    evidence = {"level_sums": list(level_sums)}
    fixer = unit_fixer(group, target, spec) if target is not None else None
    if fixer is not None:
        return Verdict("growth_witness", None, {**evidence, "unit_fixer": fixer})
    ratio = transcript["ratio_fit"]
    if ratio is not None and ratio > RATIO_DIVERGENT:
        return Verdict("growth_witness", None, evidence)
    return Verdict("inconclusive")


def finish_series(done: Walk, blocks: LevelSums, exponent: float,
                  tail: TailCertificate | None, group: SchottkyGroup,
                  spec: QuotientSpec | None, target: BoundaryPoint | None, *,
                  incomplete_cosets: bool = False) -> SeriesResult:
    """The series result of a walk's level blocks: partial sum, verdict, tail.

    ``blocks`` sum the subgroup of ``group`` kept by ``spec`` (all of it when
    None) at the boundary ``target`` (None for interior sums); its exact
    facts, :func:`trivial_subgroup` and :func:`unit_fixer`, are derived here
    and nowhere else.  Closes ``blocks`` at ``done`` first."""
    blocks.finish(done)
    transcript = {"level_counts": list(blocks.level_counts),
                  "ratio_fit": _fit_ratio(blocks.level_sums)}
    verdict = _verdict(done, blocks.level_sums, tail, group, spec, target, transcript)
    partial = math.fsum(blocks.level_sums + [blocks.tail_sum])
    return SeriesResult(
        exponent=exponent, depth=done.depth, depth_completed=done.depth_completed,
        partial_sum=partial, level_sums=tuple(blocks.level_sums), verdict=verdict,
        tail_bound=verdict.tail_bound, budget_exhausted=done.budget_exhausted,
        incomplete_cosets=incomplete_cosets, transcript=transcript)


# --- public evaluators ----------------------------------------------------------

def poincare_partial(group: SchottkyGroup, z: InteriorPoint, s: float, max_length: int,
                     budget: int | None = None, tail: TailCertificate | None = None,
                     precision: str = "double") -> SeriesResult:
    """Partial sum of P(z, s) = sum over words of j(w, z)^s, by word length."""
    if precision == "extended":
        return _sum_series_mp(group, "interior", z.coords, s, max_length, budget, tail)
    zc = embed3(z.coords)

    def values(batch: WordBatch) -> np.ndarray:
        return interior_derivative_raw(batch.mats, zc) ** s

    return _series(group, values, s, max_length, budget, tail)


def horospherical_partial(group: SchottkyGroup, zeta: BoundaryPoint, s: float,
                          max_length: int, budget: int | None = None,
                          tail: TailCertificate | None = None,
                          precision: str = "double",
                          kernel: QuotientSpec | None = None) -> SeriesResult:
    """Partial sum of the boundary series sum_w j(w, zeta)^s, by word length.

    ``kernel`` restricts the sum to a normal subgroup given as a quotient
    kernel; the extended-precision path sums the whole group, without budget.
    """
    if precision == "extended":
        if kernel is not None:
            raise ValueError("the extended-precision path has no kernel restriction")
        return _sum_series_mp(group, "boundary", zeta.coords, s, max_length, budget, tail,
                              zeta)
    return _series(group, boundary_values(zeta, s), s, max_length, budget, tail,
                   kernel=kernel, target=zeta)


def reduced_horospherical_partial(group: SchottkyGroup, zeta: BoundaryPoint, s: float,
                                  max_length: int, stab: DeclaredStabilizer | None = None,
                                  budget: int | None = None,
                                  tail: TailCertificate | None = None) -> SeriesResult:
    """Boundary series summed over one representative per coset of the stabilizer.

    With a :class:`DeclaredStabilizer` the representatives are the words of
    the canonical complement (the kernel of the retraction killing the
    stabilizer letters), which is the exact coset transversal and makes the
    truncation identical to a kernel enumeration at the same depth.  With a
    trivial stabilizer this is the plain boundary series.  The
    ``incomplete_cosets`` flag records that a depth-truncated transversal
    of a nontrivial stabilizer cannot be certified complete.  Any other
    ``stab`` raises :class:`TypeError`.
    """
    if stab is not None and not isinstance(stab, DeclaredStabilizer):
        raise TypeError(f"unsupported stabilizer declaration: {stab!r}")
    kernel = stab.quotient_for(group) if stab is not None and stab.labels else None
    return _series(group, boundary_values(zeta, s), s, max_length, budget, tail,
                   kernel=kernel, target=zeta, incomplete_cosets=kernel is not None)


# --- certified tails -------------------------------------------------------------

@dataclass(frozen=True)
class SeparationSchedule:
    """Geometric separation schedule phi(n) = scale * base^n (base > 1, increasing)."""

    scale: float
    base: float

    def __post_init__(self):
        if self.base <= 1.0:
            raise ValueError("geometric schedule needs base > 1")

    def phi(self, n: int) -> float:
        return self.scale * self.base ** n

    def min_phi(self) -> float:
        return self.phi(1)

    def admissibility_sum(self, s: float) -> float:
        """sum over all n >= 1 of (4 / phi(n))^(2s), in closed form."""
        term = (4.0 / self.scale) ** (2.0 * s)
        q = self.base ** (-2.0 * s)
        return term * q / (1.0 - q)


def example1_certificate(schedule: SeparationSchedule, s: float) -> TailCertificate | None:
    """Geometric envelope of the separated-family boundary series.

    The per-level rate is q = 2 * sum_n (4/phi(n))^(2s); the family is
    admissible exactly when the admissibility sum is below 1/2.  Returns
    None when the admissibility condition fails.
    """
    if schedule.min_phi() < 2.0:
        raise InvalidSeparation(
            f"separation schedule dips below 2 (min {schedule.min_phi()})")
    adm = schedule.admissibility_sum(s)
    if not adm < 0.5:
        return None
    return TailCertificate(rate=2.0 * adm, coeff=1.0, source="separation_schedule")


@dataclass(frozen=True)
class BranchBounds:
    """Certified per-letter bounds sup{j(letter, zeta) : zeta off the enlarged disc}."""

    letter_bounds: tuple[float, ...]
    letter_labels: tuple[str, ...]
    enlargement_factors: tuple[float, ...]
    notes: tuple[str, ...] = ()
    chain_valid: bool = True

    def rate(self, s: float) -> float:
        """q_s = sum of letter bounds to the power s: the certified level rate."""
        return float(math.fsum(b ** s for b in self.letter_bounds))

    def _require_chain(self) -> None:
        if not self.chain_valid:
            raise ValueError(
                "per-letter bounds cannot be chained into a level envelope here "
                "(parabolic generator present, or a letter bound is uncertified); "
                f"notes: {self.notes}")

    def boundary_certificate(self, s: float) -> TailCertificate:
        """Envelope for the boundary series at any point off every enlarged disc."""
        self._require_chain()
        return TailCertificate(rate=self.rate(s), coeff=1.0,
                               source="branch_contraction")

    def interior_certificate(self, s: float, group: SchottkyGroup) -> TailCertificate:
        """Envelope for P(0, s): blocks <= 2k (2 rho_max)^s q^(l-1)."""
        self._require_chain()
        rho_max = max(d.radius for _, d in group.discs())
        q = self.rate(s)
        coeff = group.letter_count * (2.0 * rho_max) ** s / q if q > 0 else math.inf
        return TailCertificate(rate=q, coeff=coeff, source="branch_contraction")


def branch_contraction(group: SchottkyGroup,
                       enlargement_factors: Sequence[float] | float) -> BranchBounds:
    """Certified sup of each letter's boundary derivative off its enlarged source disc.

    The derivative j(g, .) = k(g^{-1}(0), .) is a Poisson kernel, radially
    decreasing about the direction of g^{-1}(0); over the complement of an
    enlarged disc containing that direction its sup sits on the enlarged
    boundary circle.  For arcs the two endpoints give the exact sup; for
    caps the circle is sampled densely and padded with a derivative bound.
    """
    gens = group.generators
    if isinstance(enlargement_factors, (int, float)):
        factors = [float(enlargement_factors)] * len(gens)
    else:
        factors = [float(f) for f in enlargement_factors]
        if len(factors) != len(gens):
            raise ValueError("need one enlargement factor per generator")
    enlarged = []
    for gen, f in zip(gens, factors):
        enlarged.append(gen.source.enlarged(f))
        enlarged.append(gen.target.enlarged(f))
    for i in range(len(enlarged)):
        for j in range(i + 1, len(enlarged)):
            if enlarged[i] is enlarged[j] or (i // 2 == j // 2 and gens[i // 2].kind == "parabolic"):
                continue
            if not enlarged[i].is_disjoint_from(enlarged[j]):
                raise EnlargedDiscsOverlap(
                    f"enlarged discs {i} and {j} intersect; shrink the factors")
    bounds = []
    notes = []
    pres, conorms = inverse_origin_images_raw(group.letter_matrices)
    for e in range(group.letter_count):
        disc = group.letter_sources[e].enlarged(factors[e // 2])
        u = pres[e]
        conorm = conorms[e]
        direction = u / np.linalg.norm(u)
        if not disc.contains(BoundaryPoint(direction[: group.dim + 1]), closed=False):
            bounds.append(math.inf)
            notes.append(f"{group.letter_labels[e]}: pole direction escaped the "
                         "enlarged disc; no certified bound")
            continue
        samples = disc_boundary_points(disc, 2 if group.dim == 1 else CIRCLE_SAMPLES)
        diffs = samples - u[None, :]
        dists_sq = np.einsum("ij,ij->i", diffs, diffs)
        kmax = float(np.max(conorm / dists_sq))
        if group.dim == 1:
            bounds.append(kmax * (1.0 + 1e-12))
        else:
            circle_radius = math.sin(disc.angular_radius)
            gap = circle_radius * (2.0 * math.pi / CIRCLE_SAMPLES)
            dmin = math.sqrt(float(np.min(dists_sq))) - gap / 2.0
            if dmin <= 0:
                bounds.append(math.inf)
                notes.append(f"{group.letter_labels[e]}: sampling gap swallows "
                             "the distance margin")
                continue
            grad_bound = 2.0 * conorm / dmin ** 3
            bounds.append(kmax + grad_bound * gap / 2.0)
    chain_valid = (all(math.isfinite(b) for b in bounds)
                   and all(gen.kind != "parabolic" for gen in gens))
    return BranchBounds(tuple(bounds), group.letter_labels, tuple(factors),
                        tuple(notes), chain_valid)


# --- bounded-parabolic domination -------------------------------------------------

def bounded_parabolic_domination(group: SchottkyGroup, zeta: BoundaryPoint, s: float,
                                 max_length: int, stab: DeclaredStabilizer,
                                 budget: int | None = None) -> dict:
    """Measure the constant b dominating the reduced series by e^{s b} P(0, s).

    For each transversal word the excess b_w = d(0, w(0)) + log j(w, zeta)
    is the gap between hyperbolic and horospherical distance of w^{-1}(0)
    to the origin; b is the max over the enumerated transversal.  Returns
    the per-depth partial sums of both series over the complete levels, the
    measured b, whether reduced(<=d) <= e^{s b} poincare0(<=d) held at every
    depth, and how far the walk got.
    """
    consume, result = parabolic_domination(zeta, s)
    return result(walk(group, max_length, budget, kernel=stab.quotient_for(group),
                       consumers=[consume]))


def parabolic_domination(zeta: BoundaryPoint, s: float):
    """The walk consumer behind :func:`bounded_parabolic_domination`, for a
    walk over the stabilizer's retraction kernel that may carry more.

    Returns ``(consume, result)``: ``consume`` sums the reduced series over
    the kernel words and P(0, s) over every word, and measures b;
    ``result(done)`` is the domination record of the walk ``done``.
    """
    bc = embed3(zeta.coords)
    reduced, poincare = LevelSums(), LevelSums()
    b_measured = 0.0

    def consume(batch: WordBatch, words: WordBatch) -> None:
        nonlocal b_measured
        jb = boundary_derivative_raw(words.mats, bc)
        reduced.add(batch.length, jb ** s)
        ji = interior_derivative_raw(batch.mats, np.zeros(3))
        poincare.add(batch.length, ji ** s)
        if words.rows.shape[0]:
            conorm = ji[words.rows]  # at the origin 1 - |w(0)|^2 = j(w, 0)
            dist = np.arccosh(np.maximum(2.0 / conorm - 1.0, 1.0))
            b_measured = max(b_measured, float(np.max(dist + np.log(jb))))

    consume.whole_group = True   # P(0, s) reads every word: the walk is not pruned

    def result(done: Walk) -> dict:
        reduced.finish(done)
        poincare.finish(done)
        factor = math.exp(s * b_measured)
        red_cum = np.cumsum(reduced.level_sums)
        poi_cum = np.cumsum(poincare.level_sums)
        ok = bool(np.all(red_cum <= factor * poi_cum * (1.0 + 1e-12)))
        return {
            "b": b_measured,
            "factor": factor,
            "reduced_partials": red_cum.tolist(),
            "poincare_partials": poi_cum.tolist(),
            "dominated_at_every_depth": ok,
            "depth_completed": done.depth_completed,
            "budget_exhausted": done.budget_exhausted,
        }

    return consume, result


# --- exponent of convergence --------------------------------------------------------

@dataclass
class ProbeRecord:
    s: float
    depth: int
    level_sums: tuple[float, ...]
    ratio: float | None
    label: str


@dataclass
class DeltaEstimate:
    low: float
    high: float
    probes: list[ProbeRecord]
    depth_completed: int
    budget_exhausted: bool
    notes: list[str] = field(default_factory=list)

    @property
    def width(self) -> float:
        return self.high - self.low


def _probe_label(level_sums: Sequence[float], trivial: bool) -> tuple[str, float | None]:
    if trivial:   # the identity alone (:func:`trivial_subgroup`)
        return "convergent", 0.0
    ratio = _fit_ratio(level_sums)
    if ratio is None:
        return "inconclusive", ratio
    if ratio < RATIO_CONVERGENT:
        return "convergent", ratio
    if ratio > RATIO_DIVERGENT:
        return "divergent", ratio
    return "inconclusive", ratio


def estimate_delta(group: SchottkyGroup, bracket: tuple[float, float],
                   depths: Sequence[int] = (6, 8), budget: int | None = None,
                   restrict: QuotientSpec | None = None, max_probes: int = 8,
                   tol: float = 1e-2) -> DeltaEstimate:
    """Bracket the exponent of convergence by bisection on ratio evidence.

    Each probe evaluates the series at the origin (restricted to a kernel
    when ``restrict`` is given) at increasing depths from ``depths`` until
    the fitted level-block ratio leaves the inconclusive band.  The result
    is evidence, never a certificate: the returned interval carries the
    probe transcripts.

    The derivatives j(w, 0) do not depend on s, so one walk to the deepest
    depth caches them per batch and every probe is a power sum over the
    cached batches: at depth d it sees exactly the batches, and the budget
    cut, of a walk to d (see :meth:`~kleinian.group.Walk.upto`).
    """
    s_lo, s_hi = bracket
    if not s_lo < s_hi:
        raise ValueError("bracket must satisfy s_lo < s_hi")
    probes: list[ProbeRecord] = []
    notes: list[str] = []
    origin = np.zeros(3)
    raw: list[tuple[int, np.ndarray]] = []   # (length, j(w, 0)) per batch

    def cache(batch: WordBatch, words: WordBatch) -> None:
        raw.append((batch.length, interior_derivative_raw(words.mats, origin)))

    done = walk(group, max(depths, default=0), budget, kernel=restrict,
                consumers=[cache])
    walked = (done.depth_completed, done.budget_exhausted)
    trivial = trivial_subgroup(group, restrict)

    def run_probe(s: float) -> str:
        label = "inconclusive"
        blocks = LevelSums()
        fed = 0
        for depth in depths:
            while fed < len(raw) and raw[fed][0] <= depth:
                blocks.add(raw[fed][0], raw[fed][1] ** s)
                fed += 1
            probe = done.upto(depth)
            blocks.finish(probe)
            label, ratio = _probe_label(blocks.level_sums, trivial)
            probes.append(ProbeRecord(s, probe.depth_completed,
                                      tuple(blocks.level_sums), ratio, label))
            if label != "inconclusive":
                return label
        return label

    lo_label = run_probe(s_lo)
    if lo_label == "convergent":
        notes.append(f"series already convergent at s_lo={s_lo}; "
                     "exponent estimate collapses to [0, s_lo]")
        return DeltaEstimate(0.0, s_lo, probes, *walked, notes)
    if lo_label != "divergent":
        raise InconclusiveBracket(f"no divergence evidence at s_lo={s_lo}")
    hi_label = run_probe(s_hi)
    if hi_label != "convergent":
        raise InconclusiveBracket(f"no convergence evidence at s_hi={s_hi}")
    lo, hi = s_lo, s_hi
    for _ in range(max_probes):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        label = run_probe(mid)
        if label == "divergent":
            lo = mid
            continue
        if label == "convergent":
            hi = mid
            continue
        # mid sits inside the evidence band; the quarter points can still
        # tighten the bracket from both sides
        moved = False
        quarter_lo = 0.5 * (lo + mid)
        if run_probe(quarter_lo) == "divergent":
            lo = quarter_lo
            moved = True
        quarter_hi = 0.5 * (mid + hi)
        if run_probe(quarter_hi) == "convergent":
            hi = quarter_hi
            moved = True
        if not moved:
            notes.append(f"probes around s={mid} all inconclusive; stopping")
            break
    return DeltaEstimate(lo, hi, probes, *walked, notes)


# --- extended-precision oracle path --------------------------------------------------

def _sum_series_mp(group: SchottkyGroup, kind: str, coords: np.ndarray, s: float,
                   max_length: int, budget: int | None, tail: TailCertificate | None,
                   target: BoundaryPoint | None = None) -> SeriesResult:
    """Slow reimplementation of the series sums with mpmath matrices.

    Exists as an independent cross-check of the double-precision pipeline;
    enumerates words recursively, so it is capped at small depths and
    refuses a budget.  Its verdict follows the same rules as the double path.
    """
    from mpmath import mp, mpf, mpc

    if budget is not None:
        raise ValueError("the extended-precision path walks every word; it takes no budget")
    if sum(level_count(group, l) for l in range(max_length + 1)) > 200_000:
        raise ValueError("extended-precision path is for oracle-scale runs only")
    old_prec = mp.prec
    mp.prec = ORACLE_BITS
    try:
        letters = [[[mpc(x) for x in row] for row in mat]
                   for mat in group.letter_matrices]

        def mat_mul(a, b):
            return [[a[0][0] * b[0][0] + a[0][1] * b[1][0],
                     a[0][0] * b[0][1] + a[0][1] * b[1][1]],
                    [a[1][0] * b[0][0] + a[1][1] * b[1][0],
                     a[1][0] * b[0][1] + a[1][1] * b[1][1]]]

        point = [mpf(float(x)) for x in embed3(coords)]

        def term(mat) -> mpf:
            a, b = mat[0]
            c, d = mat[1]
            if kind == "boundary":
                denom = abs(a) ** 2 + abs(c) ** 2
                z0 = (-b * a.conjugate() - d * c.conjugate()) / denom
                t0 = 1 / denom
                dball = abs(z0) ** 2 + (t0 + 1) ** 2
                u = [(abs(z0) ** 2 + t0 ** 2 - 1) / dball, 2 * z0.real / dball,
                     2 * z0.imag / dball]
                conorm = 4 * t0 / dball
                diff2 = sum((p - q) ** 2 for p, q in zip(point, u))
                return (conorm / diff2) ** mpf(s)
            nsq = sum(x ** 2 for x in point)
            tau = (1 - nsq) / (2 * (1 - point[0]))
            t = tau / (1 - tau)
            z = (t + 1) / (1 - point[0]) * mpc(point[1], point[2])
            czd = c * z + d
            denom = abs(czd) ** 2 + abs(c) ** 2 * t ** 2
            z2 = ((a * z + b) * czd.conjugate() + a * c.conjugate() * t ** 2) / denom
            t2 = t / denom
            dball = abs(z2) ** 2 + (t2 + 1) ** 2
            return ((4 * t2 / dball) / (1 - nsq)) ** mpf(s)

        level_sums = [mpf(0)] * (max_length + 1)
        identity = [[mpc(1), mpc(0)], [mpc(0), mpc(1)]]
        level_sums[0] = term(identity)
        frontier = [(identity, -1)]
        for length in range(1, max_length + 1):
            nxt = []
            acc = mpf(0)
            for mat, last in frontier:
                for e in range(len(letters)):
                    if last >= 0 and e == (last ^ 1):
                        continue
                    child = mat_mul(mat, letters[e])
                    acc += term(child)
                    nxt.append((child, e))
            level_sums[length] = acc
            frontier = nxt
        sums = tuple(float(v) for v in level_sums)
        partial = float(sum(level_sums))
    finally:
        mp.prec = old_prec
    transcript = {"precision_bits": ORACLE_BITS, "backend": "mpmath",
                  "ratio_fit": _fit_ratio(sums)}
    verdict = _verdict(Walk(max_length, max_length), sums, tail, group, None, target,
                       transcript)
    return SeriesResult(exponent=s, depth=max_length, depth_completed=max_length,
                        partial_sum=partial, level_sums=sums, verdict=verdict,
                        tail_bound=verdict.tail_bound, transcript=transcript)
