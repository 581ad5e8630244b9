import dataclasses
import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian.cli import main
from kleinian.examples import Example1Config, Example2Config, Example3Config

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def write_config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


EXAMPLE_CONFIGS = {"example1": Example1Config, "example2": Example2Config,
                   "example3": Example3Config}
# the group.params keys the CLI reads (example3's exponent is checked only)
PARAMS_READ = {"example1": {"exponent", "schedule_scale", "schedule_base", "pairs", "span"},
               "example2": set(), "example3": {"exponent"}}


TRIVIAL = {
    "schema_version": 1,
    "group": {"kind": "trivial", "dim": 1},
    "exponent": 1.0,
    "depth": 4,
    "target": {"angle": 2.0},
    "series": "horospherical",
}

TWO_GEN = {
    "schema_version": 1,
    "group": {
        "kind": "schottky",
        "dim": 1,
        "pairs": [
            {"label": "a", "plus": {"angle": math.radians(72), "radius": 0.1743},
             "minus": {"angle": math.radians(216), "radius": 0.1743}},
            {"label": "b", "plus": {"angle": math.radians(144), "radius": 0.1743},
             "minus": {"angle": math.radians(288), "radius": 0.1743}},
        ],
    },
    "exponent": 1.0,
    "depth": 5,
    "target": {"angle": math.radians(108)},
    "series": "horospherical",
}


def _two_gen_with(edit) -> dict:
    doc = json.loads(json.dumps(TWO_GEN))
    edit(doc)
    return doc


CAP_TWO_GEN = dict(TWO_GEN, target={"coords": [-1.0, 0.0, 0.0]}, depth=4, group={
    "kind": "schottky", "dim": 2, "pairs": [
        {"label": label, "plus": {"coords": plus, "radius": 0.35},
         "minus": {"coords": minus, "radius": 0.35}}
        for label, (plus, minus) in zip("ab", [([0.0, 1.0, 0.0], [0.0, -1.0, 0.0]),
                                               ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])])]})

# arcs a and b with a parabolic p fixing pi, the target, declared its stabilizer
PARABOLIC = {
    "schema_version": 1,
    "group": {
        "kind": "schottky",
        "dim": 1,
        "pairs": [
            {"label": "a", "plus": {"angle": math.radians(60), "radius": 0.2},
             "minus": {"angle": math.radians(300), "radius": 0.2}},
            {"label": "b", "plus": {"angle": math.radians(120), "radius": 0.2},
             "minus": {"angle": math.radians(240), "radius": 0.2}},
        ],
        "parabolics": [{"label": "p", "angle": math.pi, "radius": 0.4, "strength": 4.5}],
    },
    "exponent": 0.8,
    "depth": 5,
    "target": {"angle": math.pi},
    "stabilizer": ["p"],
}


def _without(report, keys):
    """A report's JSON with the fields named in ``keys`` dropped at every level."""
    if isinstance(report, dict):
        return {k: _without(v, keys) for k, v in report.items() if k not in keys}
    return report


class TestSeriesCommand:
    def test_trivial_group_reports_unit_sum(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "series.json").read_text())
        assert report["result"]["partial_sum"] == 1.0
        assert all(v == 0.0 for v in report["result"]["level_sums"][1:])
        assert report["library_version"]

    def test_example1_config_certified(self, tmp_path):
        assert main(["series", "--config", str(CONFIGS / "example1.json"),
                     "--out", str(tmp_path / "o"), "--depth", "6"]) == 0
        report = json.loads((tmp_path / "o" / "series.json").read_text())
        assert report["result"]["verdict"]["kind"] == "converged_within"
        assert report["result"]["tail_bound"] is not None

    def test_example1_certificate_at_the_run_exponent(self, tmp_path):
        from kleinian.examples import Example1Config
        from kleinian.series import example1_certificate

        config = str(CONFIGS / "example1.json")
        # at s = 0.3 the admissibility sum is 0.844 >= 1/2: no certificate
        assert main(["series", "--config", config, "--out", str(tmp_path / "a"),
                     "--exponent", "0.3", "--depth", "6"]) == 0
        result = json.loads((tmp_path / "a" / "series.json").read_text())["result"]
        assert result["verdict"]["kind"] != "converged_within"
        assert result["tail_bound"] is None
        assert main(["classify", "--config", config, "--out", str(tmp_path / "b"),
                     "--exponent", "0.3", "--depth", "6"]) == 0
        result = json.loads((tmp_path / "b" / "classify.json").read_text())["result"]
        assert result["conclusion"] != "atom_at_target"
        # at s = 0.45 the tail is the certificate's at 0.45, not at 0.5
        assert main(["series", "--config", config, "--out", str(tmp_path / "c"),
                     "--exponent", "0.45", "--depth", "6"]) == 0
        result = json.loads((tmp_path / "c" / "series.json").read_text())["result"]
        cert = example1_certificate(Example1Config().schedule(), 0.45)
        assert cert.rate == pytest.approx(0.6632, abs=1e-4)
        assert result["verdict"]["kind"] == "converged_within"
        assert result["tail_bound"] == cert.tail_from(6 + 1)

    @pytest.mark.parametrize("edit, attached", [
        ({"series": "poincare"}, True),   # P(0, s) is not the boundary series it bounds
        ({"target": {"angle": 2.013}}, False),   # 0.05 rad from g1's disc, in its enlargement
        ({"target": {"angle": 1.983}}, False),   # in it too: level 1 sums to 0.578 > 1/2
    ])
    def test_example1_certificate_only_where_it_is_proven(self, tmp_path, edit, attached):
        """Example 1's certificate bounds the boundary series at a target off
        every enlarged disc, and no other series."""
        import argparse

        from kleinian.cli import load_config

        doc = {**json.loads((CONFIGS / "example1.json").read_text()), **edit}
        path = write_config(tmp_path, doc)
        ns = argparse.Namespace(exponent=None, depth=None, threads=None, precision=None)
        assert (load_config(path, ns).certificate is not None) == attached
        assert main(["series", "--config", path, "--out", str(tmp_path / "o"),
                     "--depth", "6"]) == 0
        result = json.loads((tmp_path / "o" / "series.json").read_text())["result"]
        assert result["verdict"]["kind"] != "converged_within"
        assert result["tail_bound"] is None

    def test_depth_zero_certifies_only_the_trivial_group(self, tmp_path):
        out = tmp_path / "o"
        cfg = str(CONFIGS / "two_generator.json")
        assert main(["series", "--config", cfg, "--out", str(out), "--depth", "0"]) == 0
        result = json.loads((out / "series.json").read_text())["result"]
        assert result["verdict"]["kind"] == "inconclusive" and result["tail_bound"] is None
        cfg = str(CONFIGS / "trivial.json")
        assert main(["series", "--config", cfg, "--out", str(out), "--depth", "0"]) == 0
        result = json.loads((out / "series.json").read_text())["result"]
        assert result["verdict"] == {"kind": "converged_within", "tail_bound": 0.0}

    def test_overlap_names_pair_and_exits_2(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "group": {"kind": "schottky", "dim": 1, "pairs": [
                {"label": "bad", "plus": {"angle": 0.5, "radius": 0.4},
                 "minus": {"angle": 0.9, "radius": 0.4}}]},
            "exponent": 1.0, "depth": 3, "target": {"angle": 3.0},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bad" in err and "overlap" in err

    def test_a_span_with_no_admissible_radius_exits_2(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "example1.json").read_text())
        doc["group"]["params"]["span"] = 5e-324
        cfg = write_config(tmp_path, doc)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "pair 1: no admissible radius" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["series", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["series", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config file not found" in capsys.readouterr().err

    def test_out_naming_a_regular_file_exits_4(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert main(["series", "--config", write_config(tmp_path, TRIVIAL),
                     "--out", str(out)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_numbers_rejected_before_compute(self, tmp_path):
        doc = dict(TRIVIAL, exponent=-1.0)
        cfg = write_config(tmp_path, doc)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("doc, named", [
        (dict(TRIVIAL, budjet=5), "'budjet'"),
        (dict(TRIVIAL, render={"bins": 8, "widht": 64}), "'widht'"),
        (dict(TRIVIAL, group={"kind": "example1", "params": {"pears": 4}}), "'pears'"),
        (dict(TRIVIAL, group={"kind": "example2", "params": {"depht": 4}}), "'depht'"),
        (dict(TRIVIAL, group={"kind": "example3", "params": {"strenght": 4.5}}),
         "'strenght'"),
        (dict(TRIVIAL, group={"kind": "example1", "params": {"exponent": 0.1}}),
         "inadmissible schedule"),
        (dict(TRIVIAL, exponent="abc"), "exponent"),
        (dict(TRIVIAL, depth="x"), "depth"),
        (dict(TRIVIAL, target={"angle": "x"}), "target.angle"),
        (dict(TRIVIAL, target={"angle": math.nan}), "target.angle"),
        (dict(TRIVIAL, target={"angle": math.inf}), "target.angle"),
        (_two_gen_with(lambda doc: doc["group"]["pairs"][0]["plus"].update(angle=math.nan)),
         "group.pairs[0].plus.angle"),
        (dict(TRIVIAL, stabilizer=5), "stabilizer"),
        (_two_gen_with(lambda doc: doc["group"]["pairs"][0]["plus"].update(radius=3)),
         "group.pairs[0].plus.radius"),
        (dict(TRIVIAL, render={"bins": 0}), "render.bins"),
        (dict(TRIVIAL, render={"width": -5}), "render.width"),
        (dict(TRIVIAL, budget=True), "budget"),
        (dict(TRIVIAL, partition_cells=64), "'partition_cells'"),
        (dict(TRIVIAL, group={"kind": "trivial", "dimm": 2}), "'dimm'"),
        (dict(TRIVIAL, group={"kind": "example1", "pairs": []}), "'pairs'"),
        (_two_gen_with(lambda doc: doc["group"].update(params={})), "'params'"),
        (_two_gen_with(lambda doc: doc["group"]["pairs"][1].update(lable="b")), "'lable'"),
        (_two_gen_with(lambda doc: doc["group"]["pairs"][0]["minus"].update(radus=0.1)),
         "'radus'"),
        (_two_gen_with(lambda doc: doc["group"].update(parabolics=[
            {"angle": 0.5, "radius": 0.1, "strenght": 4.0}])), "'strenght'"),
        (dict(TRIVIAL, group={"kind": "example1", "params": {"weak_depth": -3}}),
         "'weak_depth'"),
        (dict(TRIVIAL, group={"kind": "example2", "params": {"depth": 2}}), "'depth'"),
        (dict(TRIVIAL, group={"kind": "example3", "params": {"power_checks": -4}}),
         "'power_checks'"),
        (dict(TRIVIAL, group={"kind": "example3", "params": {"exponent": "x"}}),
         "group.params.exponent"),
    ], ids=["top-level key", "render key", "example1 param", "example2 param",
            "example3 param", "inadmissible exponent", "exponent string",
            "depth string", "target angle string", "target angle NaN",
            "target angle Infinity", "pair angle NaN", "stabilizer number",
            "pair radius 3", "render bins 0", "render width -5", "budget boolean",
            "partition_cells", "trivial group key", "example group key",
            "schottky group key", "pair key", "disc key", "parabolic key",
            "example1 run setting", "example2 run setting", "example3 run setting",
            "example3 exponent string"])
    def test_config_faults_exit_2_and_name_the_fault(self, tmp_path, capsys, doc, named):
        cfg = write_config(tmp_path, doc)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("params", [
        {"pairs": 2.5}, {"pairs": 40}, {"schedule_scale": 0}, {"pairs": True},
        {"exponent": 0}, {"exponent": -1},
    ], ids=["pairs 2.5", "pairs 40", "schedule_scale 0", "pairs true", "exponent 0",
            "exponent -1"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_example1_params_that_break_the_placement_exit_2(self, tmp_path, capsys, params):
        doc = dict(TRIVIAL, group={"kind": "example1", "params": params})
        cfg = write_config(tmp_path, doc)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: group.params: ")

    @pytest.mark.parametrize("command", ["series", "measure", "classify"])
    def test_example1_at_exponent_zero_runs_without_a_certificate(self, tmp_path, command):
        import argparse

        from kleinian.cli import load_config

        config = str(CONFIGS / "example1.json")
        ns = argparse.Namespace(exponent=0.0, depth=None, threads=None, precision=None)
        assert load_config(config, ns).certificate is None
        assert main([command, "--config", config, "--out", str(tmp_path / "o"),
                     "--exponent", "0", "--depth", "3"]) == 0

    @pytest.mark.parametrize("kind, field", [
        (kind, f.name) for kind, accepted in PARAMS_READ.items()
        for f in dataclasses.fields(EXAMPLE_CONFIGS[kind]) if f.name not in accepted])
    def test_unread_example_params_exit_2(self, tmp_path, capsys, kind, field):
        """A builder setting the CLI does not read is rejected, never echoed
        and ignored, including any field a builder config gains later."""
        default = getattr(EXAMPLE_CONFIGS[kind](), field)
        doc = dict(TRIVIAL, group={"kind": kind, "params": {field: default}})
        cfg = write_config(tmp_path, doc)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(field) in err

    def test_budget_exhaustion_exits_3_with_partial_report(self, tmp_path):
        doc = dict(TWO_GEN, budget=30)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["series", "--config", cfg, "--out", str(out)]) == 3
        report = json.loads((out / "series.json").read_text())
        assert report["result"]["budget_exhausted"]
        assert report["result"]["depth_completed"] < 5

    def test_a_cut_run_writes_the_uncut_run_at_its_depth(self, tmp_path):
        """The shipped two-generator config with a budget of 300 words stops
        before level 5 (levels <= 4 hold 161 words, level 5 another 324):
        its series, measure and render outputs are those of the uncut run
        with ``--depth 4`` byte for byte, and its reports differ from that
        run's only in ``depth`` and ``budget_exhausted``."""
        doc = json.loads((CONFIGS / "two_generator.json").read_text())
        cut_config = write_config(tmp_path, dict(doc, budget=300))
        for command, files in (("series", ()), ("measure", ("atoms.csv",)),
                               ("render", ("histogram.csv", "render.ppm"))):
            cut, whole = tmp_path / f"{command}-cut", tmp_path / f"{command}-whole"
            assert main([command, "--config", cut_config, "--out", str(cut)]) == 3
            assert main([command, "--config", str(CONFIGS / "two_generator.json"),
                         "--out", str(whole), "--depth", "4"]) == 0
            for name in files:
                assert (cut / name).read_bytes() == (whole / name).read_bytes(), name
            results = [json.loads((out / f"{command}.json").read_text())["result"]
                       for out in (cut, whole)]
            series = [r if command == "series" else r["series"] for r in results]
            assert [(s["depth"], s["depth_completed"], s["budget_exhausted"])
                    for s in series] == [(6, 4, True), (4, 4, False)]
            assert _without(results[0], {"depth", "budget_exhausted"}) == _without(
                results[1], {"depth", "budget_exhausted"})

    def test_extended_precision_flag(self, tmp_path):
        cfg = write_config(tmp_path, dict(TWO_GEN, depth=4, series="poincare",
                                          point={"coords": [0.1, 0.2]}))
        out = tmp_path / "o"
        assert main(["series", "--config", cfg, "--out", str(out),
                     "--precision", "extended"]) == 0
        report = json.loads((out / "series.json").read_text())
        assert report["config"]["precision"] == "extended"


@pytest.mark.parametrize("config, depth, tail_bound", [("example1.json", 3, 0.125),
                                                      ("trivial.json", None, 0.0)])
def test_extended_precision_verdict_is_the_double_verdict(tmp_path, config, depth,
                                                          tail_bound):
    # one verdict rule: the certificate (example1) and the trivial group
    # certify the extended-precision sums as they certify the double ones
    results = {}
    for precision in ("double", "extended"):
        argv = ["series", "--config", str(CONFIGS / config), "--precision", precision,
                "--out", str(tmp_path / precision)]
        assert main(argv + (["--depth", str(depth)] if depth is not None else [])) == 0
        results[precision] = json.loads((tmp_path / precision / "series.json").read_text())
    for result in (r["result"] for r in results.values()):
        assert result["verdict"] == {"kind": "converged_within", "tail_bound": tail_bound}
        assert result["tail_bound"] == tail_bound
    assert results["extended"]["result"]["partial_sum"] == pytest.approx(
        results["double"]["result"]["partial_sum"], rel=1e-12)


def test_extended_precision_refuses_a_budget(tmp_path, capsys):
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc.update(budget=50, precision="extended")
    for command in ("series", "measure", "classify", "render"):
        argv = [command, "--config", write_config(tmp_path, doc), "--depth", "3",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "budget" in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["series", "measure", "classify", "render"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_extended_precision_is_refused_where_it_would_be_ignored(tmp_path, capsys,
                                                                command, via):
    # example3 sums its reduced series and example2 its kernel series; measures
    # and verdicts sum in double
    for config in ("example3.json", "example2.json"):
        doc = json.loads((CONFIGS / config).read_text())
        doc.update(depth=4, precision="extended" if via == "config" else "double")
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv + (["--precision", "extended"] if via == "flag" else [])) == 2, config
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "precision" in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [
    dict(json.loads((CONFIGS / "example3.json").read_text()), depth=5),
    dict(PARABOLIC, series="reduced"),
    dict(json.loads((CONFIGS / "example2.json").read_text()), depth=4),
], ids=["example3", "schottky-stabilizer", "example2-kernel"])
def test_series_measure_and_classify_sum_one_subgroup(tmp_path, doc):
    """The reduced series (the kernel series on example2), the ending measure
    and the verdict report one series: the stabilizer's coset transversal, or
    the kernel, summed by the library directly."""
    import argparse

    from kleinian.cli import load_config
    from kleinian.series import horospherical_partial, reduced_horospherical_partial

    path = write_config(tmp_path, doc)
    cfg = load_config(path, argparse.Namespace(exponent=None, depth=None, threads=None,
                                               precision=None))
    if cfg.kernel is not None:
        expected = horospherical_partial(cfg.group, cfg.target, cfg.exponent, cfg.depth,
                                         tail=cfg.certificate, kernel=cfg.kernel)
    else:
        assert cfg.stabilizer.labels
        expected = reduced_horospherical_partial(cfg.group, cfg.target, cfg.exponent,
                                                 cfg.depth, stab=cfg.stabilizer,
                                                 tail=cfg.certificate)
    expected = json.loads(json.dumps(expected.summary()))
    for command in ("series", "measure", "classify"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        result = json.loads((out / f"{command}.json").read_text())["result"]
        assert (result if command == "series" else result["series"]) == expected, command


class TestMeasureCommand:
    def test_trivial_group_single_row(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL)
        out = tmp_path / "o"
        assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "atoms.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[2] == "1.0"

    def test_example3_reports_stabilizer_check(self, tmp_path):
        assert main(["measure", "--config", str(CONFIGS / "example3.json"),
                     "--out", str(tmp_path / "o"), "--depth", "5"]) == 0
        report = json.loads((tmp_path / "o" / "measure.json").read_text())
        assert report["result"]["stabilizer_check"] == "all_derivatives_one"

    def test_atomicity_comes_with_ending_measures_only(self, tmp_path):
        """An orbit measure's series says nothing about atoms at the target."""
        doc = json.loads((CONFIGS / "example1.json").read_text())
        doc["depth"] = 4
        for name, extra in (("ending", {}), ("orbit", {"point": {"coords": [0.1, 0.2]}})):
            cfg = write_config(tmp_path, dict(doc, **extra))
            result = {}
            for command in ("measure", "classify"):
                out = tmp_path / name / command
                assert main([command, "--config", cfg, "--out", str(out)]) == 0
                result[command] = json.loads((out / f"{command}.json").read_text())["result"]
            measure, classify = result["measure"], result["classify"]
            assert classify["conclusion"] == "atom_at_target"
            if name == "ending":
                assert measure["atomicity"] == "atom_at_target"
            else:
                assert measure["source"] == "orbit" and "atomicity" not in measure

    def test_weights_descending(self, tmp_path):
        cfg = write_config(tmp_path, TWO_GEN)
        out = tmp_path / "o"
        assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "atoms.csv").read_text().strip().splitlines()[1:]
        weights = [float(r.split(",")[2]) for r in rows]
        assert weights == sorted(weights, reverse=True)


class TestClassifyCommand:
    def test_loxodromic_fixed_point_no_atom(self, tmp_path):
        import argparse

        from kleinian.cli import load_config

        ns = argparse.Namespace(exponent=None, depth=None, threads=None,
                                precision=None)
        base = load_config(write_config(tmp_path, TWO_GEN), ns)
        zeta = base.group.generator("a").transform.classify().fixed_points[0]
        doc = dict(TWO_GEN, target={"coords": list(zeta.coords)},
                   stabilizer=["a"], series="reduced")
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "classify.json").read_text())
        assert report["result"]["conclusion"] == "no_atom_at_target"

    def test_example1_target_atom(self, tmp_path):
        assert main(["classify", "--config", str(CONFIGS / "example1.json"),
                     "--out", str(tmp_path / "o"), "--depth", "6"]) == 0
        report = json.loads((tmp_path / "o" / "classify.json").read_text())
        assert report["result"]["conclusion"] == "atom_at_target"

    @pytest.mark.parametrize("exponent", [0.2, 0.24])
    def test_ratio_evidence_never_excludes_the_atom(self, tmp_path, exponent):
        doc = json.loads((CONFIGS / "two_generator.json").read_text())
        cfg = write_config(tmp_path, dict(doc, stabilizer=[], depth=8))
        out = tmp_path / "o"
        assert main(["classify", "--config", cfg, "--out", str(out),
                     "--exponent", str(exponent)]) == 0
        result = json.loads((out / "classify.json").read_text())["result"]
        assert result["series"]["verdict"]["kind"] == "growth_witness"
        assert result["conclusion"] == "inconclusive"
        assert result["transcript"]["ratio_only_growth"] > 1.05

    @pytest.mark.parametrize("command", ["classify", "measure"])
    def test_stabilizer_moving_the_target_exits_2(self, tmp_path, capsys, command):
        doc = json.loads((CONFIGS / "two_generator.json").read_text())
        cfg = write_config(tmp_path, dict(doc, stabilizer=["a"]))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'a'" in err and "fix" in err
        assert not (tmp_path / "o").exists()

    def test_insufficient_budget_inconclusive(self, tmp_path):
        doc = dict(TWO_GEN, budget=3, stabilizer=[])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        code = main(["classify", "--config", cfg, "--out", str(out)])
        assert code == 3
        report = json.loads((out / "classify.json").read_text())
        assert report["result"]["conclusion"] == "inconclusive"


class TestParabolicGenerator:
    """A schottky config with a parabolic generator, declared the target's
    stabilizer: measure and classify sum its coset transversal."""

    def test_every_command_runs(self, tmp_path):
        cfg = write_config(tmp_path, PARABOLIC)
        for command in ("series", "measure", "classify"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        classify = json.loads((tmp_path / "classify" / "classify.json").read_text())["result"]
        assert classify["stabilizer_check"]["kind"] == "all_derivatives_one"
        assert classify["series"]["incomplete_cosets"]
        measure = json.loads((tmp_path / "measure" / "measure.json").read_text())["result"]
        assert measure["stabilizer_check"] == "all_derivatives_one"
        assert measure["series"]["incomplete_cosets"]

    def test_weak_parabolic_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PARABOLIC))
        doc["group"]["parabolics"][0]["strength"] = 2.0
        cfg = write_config(tmp_path, doc)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "group.parabolics[0]" in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc, named", [
    ("series", dict(TWO_GEN, target=None), "boundary series need a 'target'"),
    ("measure", dict(TWO_GEN, target=None), "measure runs need a 'target'"),
    ("classify", dict(TWO_GEN, target=None), "classify runs need a 'target'"),
], ids=["series", "measure", "classify"])
def test_runs_without_a_target_exit_2(tmp_path, capsys, command, doc, named):
    doc = {key: value for key, value in doc.items() if value is not None}
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "o").exists()


def _three_coordinate_centre(doc: dict) -> None:
    doc["group"]["pairs"][0]["plus"] = {"coords": [0.309, 0.951, 0.0], "radius": 0.1743}


@pytest.mark.parametrize("command", ["series", "measure", "classify", "render"])
@pytest.mark.parametrize("doc, named", [
    (dict(TWO_GEN, target={"coords": [0.0, 0.6, 0.8]}), "target.coords"),
    (_two_gen_with(_three_coordinate_centre), "group.pairs[0].plus.coords"),
    (_two_gen_with(lambda doc: doc["group"].update(parabolics=[
        {"coords": [-1.0, 0.0, 0.0], "radius": 0.2}])), "group.parabolics[0].coords"),
    (dict(TWO_GEN, point={"coords": [0.0, 0.3, 0.4]}), "point.coords"),
    (dict(CAP_TWO_GEN, target={"coords": [-1.0, 0.0]}), "target.coords"),
], ids=["dim-1 target", "dim-1 disc centre", "dim-1 parabolic disc", "dim-1 point",
        "dim-2 target"])
def test_coordinates_must_match_the_group_dimension(tmp_path, capsys, command, doc, named):
    """Every point of a config has group.dim + 1 coordinates: a mismatch is
    a config error naming the key, never a dropped coordinate or a crash."""
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{named} needs" in err
    assert not (tmp_path / "o").exists()


class TestRenderCommand:
    def test_single_atom_single_bin(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL)
        out = tmp_path / "o"
        assert main(["render", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "render.json").read_text())
        assert report["result"]["nonzero_bins"] == 1
        data = (out / "render.ppm").read_bytes()
        assert data.startswith(b"P6\n")

    def test_uniform_synthetic_measure_flat_bins(self, tmp_path):
        # many equal atoms spread evenly: every bin within 2/bins of 1/bins
        bins = 16
        # uniform measure: fake it through a trivial group is impossible, so
        # check the histogram helper directly instead
        from kleinian.measure import _cell_masses
        import numpy as np

        n = 4096
        theta = (np.arange(n) + 0.5) / n * 2 * math.pi
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        masses = _cell_masses(pts, np.full(n, 1.0 / n), 1, bins)
        assert np.all(np.abs(masses - 1.0 / bins) < 2.0 / bins)

    def test_cap_group_renders_its_cells_on_a_grid(self, tmp_path):
        # a dimension-2 group: longitude across, latitude down, one
        # rectangle of width / 4 by height / 4 pixels per cell
        doc = dict(CAP_TWO_GEN, render={"bins": 16, "width": 40, "height": 24})
        out = tmp_path / "o"
        assert main(["render", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        data = (out / "render.ppm").read_bytes()
        header = b"P6\n40 24\n255\n"
        assert data.startswith(header) and len(data) == len(header) + 3 * 40 * 24
        rows = (out / "histogram.csv").read_text().strip().splitlines()[1:]
        masses = [float(row.split(",")[1]) for row in rows]
        red = list(data[len(header)::3])
        y, x = divmod(red.index(min(red)), 40)
        assert masses[(x * 4 // 40) * 4 + y * 4 // 24] == max(masses) > 0.0

    @pytest.mark.parametrize("doc, bins, code", [
        (CAP_TWO_GEN, 8, 2), (CAP_TWO_GEN, 10, 2), (CAP_TWO_GEN, 16, 0), (CAP_TWO_GEN, 64, 0),
        (TWO_GEN, 8, 0)],
        ids=["S^2, 8", "S^2, 10", "S^2, 16", "S^2, 64", "S^1, 8"])
    def test_bins_the_grid_cannot_fill_exit_2(self, tmp_path, capsys, doc, bins, code):
        # the S^2 grid has round(sqrt(bins)) longitudes of bins // that
        # latitudes: for 8 bins, 3 x 2 cells, and two bins that stay empty
        cfg = write_config(tmp_path, dict(doc, render={"bins": bins}))
        out = tmp_path / "o"
        assert main(["render", "--config", cfg, "--out", str(out)]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "render.bins" in err
            assert not out.exists()
        else:
            rows = (out / "histogram.csv").read_text().strip().splitlines()[1:]
            assert len(rows) == bins

    def test_histogram_csv_masses_sum_to_one(self, tmp_path):
        cfg = write_config(tmp_path, TWO_GEN)
        out = tmp_path / "o"
        assert main(["render", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "histogram.csv").read_text().strip().splitlines()[1:]
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestDeterminism:
    def test_byte_identical_across_threads_and_reruns(self, tmp_path):
        cfg = write_config(tmp_path, TWO_GEN)
        digests = []
        for run, threads in (("r1", "1"), ("r2", "4"), ("r3", "1")):
            out = tmp_path / run
            assert main(["measure", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
            digest = (
                hashlib.sha256((out / "atoms.csv").read_bytes()).hexdigest(),
                hashlib.sha256((out / "measure.json").read_bytes()).hexdigest(),
            )
            digests.append(digest)
        assert digests[0] == digests[1] == digests[2]

    def test_render_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TWO_GEN)
        hashes = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["render", "--config", cfg, "--out", str(out)]) == 0
            hashes.append(hashlib.sha256((out / "render.ppm").read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_timestamps_quarantined_in_sidecar(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL)
        out = tmp_path / "o"
        assert main(["series", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "series.json").read_text()
        assert "timestamp" not in report
        sidecar = json.loads((out / "series.meta.json").read_text())
        assert "timestamp" in sidecar and "threads" in sidecar


class TestCommittedConfigs:
    @pytest.mark.parametrize("name", ["cap_two_generator.json", "example1.json",
                                      "example2.json", "example3.json", "trivial.json",
                                      "two_generator.json"])
    def test_configs_parse(self, name, tmp_path):
        import argparse

        from kleinian.cli import load_config

        ns = argparse.Namespace(exponent=None, depth=None, threads=None,
                                precision=None)
        cfg = load_config(str(CONFIGS / name), ns)
        assert cfg.group is not None


class TestKernelConfig:
    """configs/example2.json declares the retraction kernel: every command sums it."""

    def _kernel_level_sums(self, depth):
        import argparse

        from kleinian.cli import load_config
        from kleinian.group import kernel_enumerate

        ns = argparse.Namespace(exponent=None, depth=None, threads=None, precision=None)
        cfg = load_config(str(CONFIGS / "example2.json"), ns)
        terms = [[] for _ in range(depth + 1)]
        for word, t in kernel_enumerate(cfg.group, cfg.kernel, depth):
            terms[len(word)].append(t.derivative_boundary(cfg.target) ** cfg.exponent)
        return [math.fsum(level) for level in terms]

    def test_series_and_classify_sum_the_kernel(self, tmp_path):
        expected = self._kernel_level_sums(4)
        for command in ("series", "classify", "measure"):
            out = tmp_path / command
            assert main([command, "--config", str(CONFIGS / "example2.json"),
                         "--out", str(out), "--depth", "4"]) == 0
            result = json.loads((out / f"{command}.json").read_text())["result"]
            series = result if command == "series" else result["series"]
            assert series["level_sums"] == pytest.approx(expected, rel=1e-12)
            assert series["partial_sum"] == pytest.approx(math.fsum(expected), rel=1e-12)

    @pytest.mark.parametrize("command", ["series", "measure", "classify", "render"])
    def test_stabilizer_is_rejected(self, tmp_path, capsys, command):
        # the kernel is summed, never a stabilizer's coset transversal
        doc = json.loads((CONFIGS / "example2.json").read_text())
        doc.update(stabilizer=["c"], depth=2)
        code = main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "stabilizer" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [{"series": "poincare"}, {"series": "reduced"},
                                          {"precision": "extended"}])
    def test_unrestricted_series_are_rejected(self, tmp_path, override):
        doc = json.loads((CONFIGS / "example2.json").read_text())
        doc.update(override, depth=2)
        code = main(["series", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestGoldenRender:
    def test_example1_render_matches_committed_hashes(self, tmp_path):
        golden = json.loads(
            (REPO / "tests" / "golden" / "example1_render.sha256.json").read_text())
        out = tmp_path / "golden"
        assert main(["render", "--config", str(CONFIGS / "example1.json"),
                     "--out", str(out), "--depth", "6"]) == 0
        for name, expected in golden.items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == expected, f"{name} drifted from the committed run"

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "trivial",
                                      "two_generator"])
    def test_depth5_outputs_match_committed_hashes(self, tmp_path, name):
        """Every output but the sidecars, of every command, at --depth 5."""
        golden = json.loads(
            (REPO / "tests" / "golden" / "cli_depth5.sha256.json").read_text())
        expected = {key: digest for key, digest in golden.items()
                    if key.startswith(name + "/")}
        actual = {}
        for command in ("series", "measure", "classify", "render"):
            out = tmp_path / command
            assert main([command, "--config", str(CONFIGS / f"{name}.json"),
                         "--out", str(out), "--depth", "5"]) == 0
            for path in out.iterdir():
                if not path.name.endswith(".meta.json"):
                    actual[f"{name}/{command}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
        assert actual == expected


def test_cli_import_leaves_scipy_spatial_out():
    """No command start-up pays for ``scipy.spatial``, and nothing on the run
    path imports SciPy at all: not even ``build_example2``, whose support
    diagnostics search nearest atoms with numpy."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for code, loaded in (
            ("import sys, kleinian.cli; print('scipy.spatial' in sys.modules)", "False"),
            ("import sys; from kleinian.examples import Example2Config, build_example2; "
             "build_example2(Example2Config()); print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy'))", "[]")):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == loaded


def test_benchmark_tracer_installs():
    """``bench/spans.py`` wraps library names by attribute; each must still exist."""
    import os
    import subprocess
    import sys

    code = "import spans; spans.install(spans.Tracer())"
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "bench")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    """``kleinian.__all__`` lists only names the package binds."""
    import kleinian

    assert [name for name in kleinian.__all__ if not hasattr(kleinian, name)] == []


class TestBudgetExitCode:
    @settings(max_examples=30, deadline=None)
    @given(budget=st.integers(1, 250),
           command=st.sampled_from(["series", "measure", "classify", "render"]))
    def test_exit_code_3_comes_exactly_with_a_cut_report(self, budget, command):
        doc = dict(TWO_GEN, depth=4, budget=budget)   # 161 words to depth 4
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            code = main([command, "--config", write_config(Path(tmp), doc),
                         "--out", str(out)])
            result = json.loads((out / f"{command}.json").read_text())["result"]
        series = result if command == "series" else result["series"]
        cut = series["budget_exhausted"] and series["depth_completed"] < series["depth"]
        assert code in (0, 3)
        assert (code == 3) == cut
        assert (code == 3) == (budget < 161)
        if code == 0:
            assert series["depth_completed"] == series["depth"] == 4
