import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def write_config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["series", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_invalid_numbers_rejected_before_compute(self, tmp_path):
        doc = dict(TRIVIAL, exponent=-1.0)
        cfg = write_config(tmp_path, doc)
        assert main(["series", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_budget_exhaustion_exits_3_with_partial_report(self, tmp_path):
        doc = dict(TWO_GEN, budget=30)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["series", "--config", cfg, "--out", str(out)]) == 3
        report = json.loads((out / "series.json").read_text())
        assert report["result"]["budget_exhausted"]
        assert report["result"]["depth_completed"] < 5

    def test_extended_precision_flag(self, tmp_path):
        cfg = write_config(tmp_path, dict(TWO_GEN, depth=4, series="poincare",
                                          point={"coords": [0.1, 0.2]}))
        out = tmp_path / "o"
        assert main(["series", "--config", cfg, "--out", str(out),
                     "--precision", "extended"]) == 0
        report = json.loads((out / "series.json").read_text())
        assert report["config"]["precision"] == "extended"


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

    def test_insufficient_budget_inconclusive(self, tmp_path):
        doc = dict(TWO_GEN, budget=3, stabilizer=[])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        code = main(["classify", "--config", cfg, "--out", str(out)])
        assert code == 3
        report = json.loads((out / "classify.json").read_text())
        assert report["result"]["conclusion"] == "inconclusive"


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
        pairs = TWO_GEN["pairs"] if "pairs" in TWO_GEN else None
        doc = dict(TRIVIAL, render={"bins": bins, "width": 64})
        # uniform measure: fake it through a trivial group is impossible, so
        # check the histogram helper directly instead
        from kleinian.measure import _cell_masses
        import numpy as np

        n = 4096
        theta = (np.arange(n) + 0.5) / n * 2 * math.pi
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        masses = _cell_masses(pts, np.full(n, 1.0 / n), 1, bins)
        assert np.all(np.abs(masses - 1.0 / bins) < 2.0 / bins)

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
    @pytest.mark.parametrize("name", ["example1.json", "example2.json",
                                      "example3.json", "trivial.json",
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
    """Only the Example 2 diagnostics use the KD-tree; no command start-up pays for it."""
    import os
    import subprocess
    import sys

    code = "import sys, kleinian.cli; print('scipy.spatial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")), check=True)
    assert proc.stdout.strip() == "False"


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
