import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import kleinian.group
from kleinian.errors import InvalidSeparation, PlacementInfeasible
from kleinian.examples import (Example1Config, Example2Config, Example3Config,
                               build_example1, build_example2, build_example3,
                               example1_weak_trend, place_example1_discs)
from kleinian.group import kernel_enumerate
from kleinian.model import BoundaryPoint


@pytest.fixture(scope="module")
def ex1():
    return build_example1(Example1Config(depth=6))


GOLDEN = Path(__file__).resolve().parent / "golden"
EX2_SMALL = {"depth": 6, "decay_depths": (4, 5, 6), "probe_depths": (5, 6)}


@pytest.fixture(scope="module")
def ex2():
    return build_example2(Example2Config(**EX2_SMALL))


@pytest.fixture(scope="module")
def ex3():
    return build_example3(Example3Config(depth=6, identity_depth=5))


class TestSeparatedFamily:
    def test_single_pair_rate(self):
        cfg = Example1Config(pairs=1, depth=3)
        result = build_example1(cfg)
        # with one instantiated pair the certified level rate is still the
        # closed-form value over the whole schedule
        assert result.report["tail_rate"] == pytest.approx(
            2.0 * cfg.schedule().admissibility_sum(cfg.exponent))

    def test_admissibility_closed_form(self, ex1):
        assert ex1.report["admissibility_sum"] == pytest.approx(0.25, rel=1e-14)
        assert ex1.report["admissible"]
        assert ex1.report["tail_rate"] == pytest.approx(0.5, rel=1e-14)

    def test_placement_respects_separation(self):
        cfg = Example1Config(pairs=4)
        pairs, seps = place_example1_discs(cfg)
        discs = [d for pair in pairs for d in pair]
        enlarged = [d.enlarged(phi) for pair, phi in zip(pairs, seps)
                    for d in pair]
        for i in range(len(enlarged)):
            for j in range(i + 1, len(enlarged)):
                assert enlarged[i].is_disjoint_from(enlarged[j])
        for d, e in zip(discs, enlarged):
            assert e.radius == pytest.approx(d.radius * seps[discs.index(d) // 2])

    def test_generator_images_inside_targets(self, ex1):
        for gen in ex1.group.generators:
            for theta in np.linspace(-math.pi, math.pi, 200):
                zeta = BoundaryPoint.from_angle(float(theta))
                if gen.source.contains(zeta):
                    continue
                assert gen.target.contains(gen.transform.apply_boundary(zeta))

    def test_branch_bounds_below_schedule_bounds(self, ex1):
        for row in ex1.report["branch_bounds"]:
            assert row["within_schedule_bound"]
            assert row["bound"] <= row["schedule_bound"]

    def test_series_certified_convergent(self, ex1):
        assert ex1.report["series"]["verdict"] == "converged_within"
        assert ex1.report["series"]["tail_bound"] is not None
        assert ex1.report["series_upper_bound"] < math.inf

    def test_atom_at_target_with_certificate(self, ex1):
        assert ex1.report["atomicity"] == "atom_at_target"
        assert ex1.report["stabilizer_check"] == "all_derivatives_one"
        assert ex1.report["target_is_jorgensen"]

    def test_target_atom_weight_dominates(self, ex1):
        # the weight at the target is at least 1/(partial + tail)
        assert ex1.report["target_atom_weight"] >= \
            ex1.report["atom_weight_lower_bound"] - 1e-12
        # and the enumerated orbit carries all the mass of the truncation
        assert ex1.measure.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_weak_trend_strictly_decreasing(self, ex1):
        cfg = Example1Config(depth=6, weak_depth=5, sequence_count=6)
        trend = example1_weak_trend(cfg, ex1)
        assert all(b < a for a, b in zip(trend, trend[1:]))

    def test_inadmissible_schedule_rejected(self):
        with pytest.raises(ValueError):
            Example1Config(schedule_scale=4.0, schedule_base=1.01, exponent=0.5,
                           depth=4)

    def test_bad_separation_rejected(self):
        from kleinian.series import SeparationSchedule, example1_certificate

        with pytest.raises(InvalidSeparation):
            example1_certificate(SeparationSchedule(0.5, 2.0), 0.5)

    def test_infeasible_placement_rejected(self):
        with pytest.raises(PlacementInfeasible):
            Example1Config(pairs=0)
        with pytest.raises(PlacementInfeasible):
            Example1Config(span=3.2)


class TestRetractionKernel:
    def test_quotient_assignment(self, ex2):
        images = ex2.quotient.images
        assert images["a"] == () and images["b"] == ()
        assert images["c"] == ("c",) and images["d"] == ("d",)

    def test_kernel_contains_small_factor_and_conjugates(self, ex2):
        words = {w.letters for w, _ in kernel_enumerate(ex2.group, ex2.quotient, 4)}
        # letters: a=0/1, b=2/3, c=4/5, d=6/7
        assert (0,) in words and (2,) in words
        assert (4, 0, 5) in words          # c a c^-1
        assert (6, 2, 7) in words          # d b d^-1
        assert (4,) not in words

    def test_exponent_gap(self, ex2):
        assert ex2.report["exponent_gap_resolved"]
        assert ex2.report["delta_kernel"]["high"] < ex2.report["delta_group"]["low"]

    def test_max_atom_weight_decays(self, ex2):
        for rows, flag in zip(ex2.report["max_atom_decay"],
                              ex2.report["max_atom_strictly_decreasing"]):
            assert flag
            weights = [row["max_atom_weight"] for row in rows]
            assert all(b < a for a, b in zip(weights, weights[1:]))

    def test_measures_flag_their_series(self, ex2):
        for m in ex2.measures:
            assert m.series.verdict.kind in ("growth_witness", "inconclusive")
            assert m.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_small_configs_match_committed_hashes(self, ex2, monkeypatch):
        golden = json.loads((GOLDEN / "example2_small.sha256.json").read_text())
        assert _example2_digests(ex2) == golden["exponent=None"]
        walks = []
        enumerate_levels = kleinian.group.iter_word_batches

        def counted(*args, **kwargs):
            walks.append(args[1])
            return enumerate_levels(*args, **kwargs)

        monkeypatch.setattr(kleinian.group, "iter_word_batches", counted)
        result = build_example2(Example2Config(exponent=0.4, **EX2_SMALL))
        assert _example2_digests(result) == golden["exponent=0.4"]
        # group probes, kernel probes, measures with the horoball scan riding along
        assert sorted(walks) == [6, 6, 7]

    def test_delta_estimates_say_how_far_their_walk_got(self, ex2):
        # the kernel probes' depth-7 walk is cut inside level 7 by its 10^6
        # budget; the group probes' depth-6 walk is whole
        assert (ex2.delta_kernel.depth_completed, ex2.delta_kernel.budget_exhausted) == (6, True)
        assert (ex2.delta_group.depth_completed, ex2.delta_group.budget_exhausted) == (6, False)

    def test_supports_disjoint_at_diagnostic_depth(self, ex2):
        assert ex2.report["support_gap"] > 0.0
        assert tuple(ex2.report["singularity_overlap"]) == (0.0, 0.0)
        assert ex2.report["heavy_support_gap_top32"] > 1e-4

    def test_targets_are_factor_fixed_points(self, ex2):
        for label, zeta in zip(("c", "d"), ex2.targets):
            g = ex2.group.generator(label).transform
            assert np.allclose(g.apply_boundary(zeta).coords, zeta.coords,
                               atol=1e-10)

    def test_horoball_probe_reported(self, ex2):
        scan = ex2.report["horoball_scan_at_first_target"]
        assert len(scan) == 10
        assert all(isinstance(row["witnesses"], int) for row in scan)


class TestParabolicStabilizer:
    def test_power_derivatives_are_unit(self, ex3):
        assert ex3.report["max_power_defect"] < 1e-9
        assert len(ex3.report["stabilizer_derivatives_at_powers"]) == 20

    def test_coset_sum_equals_kernel_sum(self, ex3):
        assert ex3.report["coset_vs_kernel_sum"]["defect"] < 1e-10

    def test_unreduced_series_diverges_visibly(self, ex3):
        assert ex3.report["unreduced_growth_witness"]
        assert ex3.unreduced.verdict.kind == "growth_witness"

    def test_reduced_series_stays_honest(self, ex3):
        assert ex3.reduced.verdict.kind == "inconclusive"
        assert ex3.reduced.incomplete_cosets
        assert ex3.report["measure_verdict"] == "inconclusive"

    def test_domination_at_every_depth(self, ex3):
        dom = ex3.domination
        assert dom["dominated_at_every_depth"]
        assert dom["b"] >= 0.0
        red = dom["reduced_partials"]
        poi = dom["poincare_partials"]
        assert len(red) == len(poi)
        for r, p in zip(red, poi):
            assert r <= dom["factor"] * p * (1.0 + 1e-12)

    def test_stabilizer_check_passes(self, ex3):
        assert ex3.report["stabilizer_check"] == "all_derivatives_one"
        assert ex3.report["atomicity"] == "inconclusive"

    def test_assumptions_recorded(self, ex3):
        assert ex3.report["assumptions_recorded_not_verified"]
        evidence = ex3.report["exponent_of_convergence_evidence"]
        # the chosen exponent sits above the measured divergence bracket
        assert ex3.report["exponent"] > evidence["low"]

    def test_identity_check_stops_at_the_walk_depth(self):
        # the coset sum comes off the measure's walk, so it reaches no
        # deeper than that walk
        check = build_example3(Example3Config(depth=3, identity_depth=5)).report[
            "coset_vs_kernel_sum"]
        assert check["depth"] == 3
        assert check["defect"] < 1e-10

    def test_built_generator_classifies_parabolic(self):
        # the builder validates the classification and raises otherwise
        cfg = Example3Config(depth=3, identity_depth=2)
        result = build_example3(cfg)
        assert result.group.generator("p").transform.classify().kind == "parabolic"


class TestExponentEvidenceWithCertificate:
    def test_separated_family_certified_above_estimate(self, ex1):
        # the contraction certificate proves P(0, s) finite at the working
        # exponent, so the convergence-evidence bracket must sit below it
        from kleinian.series import branch_contraction, estimate_delta, \
            poincare_partial
        from kleinian.model import InteriorPoint

        seps = [gen.separation for gen in ex1.group.generators]
        bounds = branch_contraction(ex1.group, seps)
        cert = bounds.interior_certificate(0.5, ex1.group)
        assert cert.rate < 1.0
        series = poincare_partial(ex1.group, InteriorPoint.origin(1), 0.5, 6,
                                  tail=cert)
        assert series.verdict.kind == "converged_within"
        est = estimate_delta(ex1.group, (0.01, 0.5), depths=(5, 6),
                             budget=10 ** 5)
        assert est.high <= 0.5


def _example2_digests(result) -> dict:
    """SHA-256 of the report, the measures (points, weights, word lengths and
    level sums) and the probe records of an Example 2 build."""
    def digest(data):
        if not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True).encode()
        return hashlib.sha256(data).hexdigest()

    measures = b"".join(mu.points.tobytes() + mu.weights.tobytes()
                        + mu.word_lengths.tobytes()
                        + json.dumps(list(mu.series.level_sums)).encode()
                        for mu in result.measures)
    probes = [[[p.s, p.depth, list(p.level_sums), p.ratio, p.label] for p in est.probes]
              for est in (result.delta_group, result.delta_kernel)]
    return {"report": digest(result.report), "measures": digest(measures),
            "probes": digest(probes)}


# --- the diagnostics builders against committed digests ----------------------------

DIAGNOSTICS_SMALL = {
    "example1": (Example1Config(depth=5, weak_depth=4, sequence_count=4),
                 Example3Config(depth=6, identity_depth=5)),
    "budget": (Example1Config(depth=5, budget=5000, weak_depth=3, sequence_count=3),
               Example3Config(depth=6, identity_depth=4, budget=3000)),
}


def _diagnostics_digests(cfg1, cfg3, walks: dict | None = None) -> dict:
    """SHA-256 of what ``build_example1``, ``example1_weak_trend`` and
    ``build_example3`` return: reports, measures (points, weights, word
    lengths, series), series with their transcripts, the weak trend and the
    domination record.  ``walks`` collects the walk depths of each builder
    when ``iter_word_batches`` is counted."""
    def digest(data):
        if not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True, default=repr).encode()
        return hashlib.sha256(data).hexdigest()

    def measure(mu):
        return digest(mu.points.tobytes() + mu.weights.tobytes()
                      + mu.word_lengths.tobytes()
                      + json.dumps(dataclasses.asdict(mu.series), sort_keys=True,
                                   default=repr).encode())

    def series(result):
        return digest(dataclasses.asdict(result))

    def run(name, build, *args):
        if walks is not None:
            walks["current"] = walks.setdefault(name, [])
        return build(*args)

    ex1 = run("build_example1", build_example1, cfg1)
    trend = run("example1_weak_trend", example1_weak_trend, cfg1, ex1)
    ex3 = run("build_example3", build_example3, cfg3)
    return {
        "example1_report": digest(ex1.report),
        "example1_measure": measure(ex1.measure),
        "example1_series": series(ex1.series),
        "example1_weak_trend": digest(trend),
        "example3_report": digest(ex3.report),
        "example3_measure": measure(ex3.measure),
        "example3_reduced": series(ex3.reduced),
        "example3_unreduced": series(ex3.unreduced),
        "example3_domination": digest(ex3.domination),
    }


@pytest.mark.parametrize("name", sorted(DIAGNOSTICS_SMALL))
def test_diagnostics_builders_match_committed_hashes(name, monkeypatch):
    golden = json.loads((GOLDEN / "diagnostics_small.sha256.json").read_text())
    walks: dict = {}
    enumerate_levels = kleinian.group.iter_word_batches

    def counted(*args, **kwargs):
        walks["current"].append(args[1])
        return enumerate_levels(*args, **kwargs)

    monkeypatch.setattr(kleinian.group, "iter_word_batches", counted)
    cfg1, cfg3 = DIAGNOSTICS_SMALL[name]
    assert _diagnostics_digests(cfg1, cfg3, walks) == golden[name]
    del walks["current"]
    # Example 1: the series rides on the measure's walk; the weak trend is
    # one walk for every measure; Example 3: the reduced, unreduced and
    # domination sums and the identity check's coset sum ride on the
    # measure's kernel walk, beside the identity check's independent
    # kernel enumeration and the exponent probes
    assert walks == {"build_example1": [cfg1.depth],
                     "example1_weak_trend": [cfg1.weak_depth],
                     "build_example3": [cfg3.depth, cfg3.identity_depth, 6]}
