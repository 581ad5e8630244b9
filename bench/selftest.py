"""Tests of the benchmark itself (about two minutes):

    python3 -m pytest bench/selftest.py -q

They run the smoke mode, which goes through every workload, check and
span, at reduced depths.  The file is not named ``test_*`` so the
repository's own test suite does not collect it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT, env: dict | None = None):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# --- the span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    recs = [[1, 0, "a", 0.0, 10.0, None],
            [2, 1, "b", 1.0, 5.0, None],
            [3, 2, "c", 2.0, 3.0, None],
            [4, 1, "b", 6.0, 7.0, None]]
    own = spans.self_times(recs)
    assert own == {1: 5.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert math.fsum(own.values()) == 10.0


def test_redundancy_counts_distinct_words_per_process():
    def walk(sid, walk_no, level, words):
        return [sid, 0, "group.enumerate", 0.0, 1.0,
                {"words": words, "level": level, "group": 0, "walk": walk_no}]

    # one process walks levels 0..2 twice; the second walk stops early
    proc = [walk(1, 1, 0, 1), walk(2, 1, 1, 4), walk(3, 1, 2, 12),
            walk(4, 2, 0, 1), walk(5, 2, 1, 4)]
    metrics = spans.layer_metrics(proc, [proc])
    assert metrics["group.enumerate.walks"] == 2
    assert metrics["group.enumerate.words"] == 22
    assert metrics["group.enumerate.redundancy"] == 22 / 17


def test_tracer_nests_generator_steps_under_their_consumer():
    tracer = spans.Tracer()

    def numbers():
        yield from range(3)

    wrapped = spans.timed_generator(tracer, "gen", numbers, lambda item: {"words": 1})
    consume = spans.timed(tracer, "consumer", lambda: sum(wrapped()))
    assert consume() == 3
    names = [rec[2] for rec in tracer.spans]
    assert names == ["consumer", "gen", "gen", "gen", "gen"]
    assert all(rec[1] == 1 for rec in tracer.spans[1:])


# --- seeded inputs -----------------------------------------------------------------

def test_inputs_repeat_for_a_seed_and_stay_in_range(tmp_path):
    first = workloads.make_inputs(5, ROOT, tmp_path / "a", smoke=False)
    again = workloads.make_inputs(5, ROOT, tmp_path / "b", smoke=False)
    other = workloads.make_inputs(6, ROOT, tmp_path / "c", smoke=False)
    assert first.values == again.values != other.values
    assert workloads.EX1_EXPONENT[0] <= first.values["example1_exponent"] <= workloads.EX1_EXPONENT[1]
    sys.path.insert(0, str(ROOT / "src"))
    from kleinian.cli import load_config
    from kleinian.model import BoundaryPoint

    cfg = load_config(first.configs["two_generator"],
                      argparse.Namespace(exponent=None, depth=None, threads=None,
                                         precision=None))
    theta = first.values["two_generator_target_angle"]
    assert cfg.group.fundamental_domain_contains(BoundaryPoint.from_angle(theta))


# --- the whole harness, in smoke mode -------------------------------------------------

@pytest.fixture(scope="module")
def untraced():
    env = dict(os.environ, PYTHONPROFILEIMPORTTIME="1")
    proc = run_bench("--workload", "all", "--smoke", "--seconds", "0", "--seed", "3",
                     env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_smoke_reports_every_end_to_end_metric(untraced):
    result = last_json(untraced.stdout)
    assert result["smoke"] is True
    assert result["correct"] is True
    # one CLI pass of 6 operations, two passes of 1 and of 3 library operations;
    # the known defect (example2 series over the whole group) is counted
    assert (result["attempted"], result["failed"]) == (6 + 2 * 1 + 2 * 3, 1)
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0


def test_untraced_runs_never_import_the_tracer(untraced):
    logs = list((ROOT / ".bench").glob("*-seed3-trace0-smoke/**/*.log"))
    assert logs
    for log in logs:
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in log.read_text().splitlines() if line.startswith("import time")]
        assert "spans" not in imported, log


def test_traced_counts_repeat_exactly():
    results = []
    for _ in range(2):
        proc = run_bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(last_json(proc.stdout))
    for result in results:
        assert result["correct"] is True
        for workload in SPEC["workloads"]:
            for metric in SPEC["per_layer"]:
                entry = result["metrics"][f"{workload['name']}/{metric['name']}"]
                assert entry["unit"] == metric["unit"], metric
    # report sizes may differ by a timestamp's digits; every other count may not
    counts = [k for k, v in results[0]["metrics"].items()
              if v["unit"] in ("count", "ratio", "bytes") and not k.endswith("cli.write.bytes")]
    assert counts
    for key in counts:
        assert results[0]["metrics"][key] == results[1]["metrics"][key], key
    ex2 = results[0]["metrics"]
    assert ex2["ex2-kernel/series.probes"]["value"] > 0
    assert ex2["ex2-kernel/limits.horoball.calls"]["value"] == 10
    assert ex2["cli-configs/group.enumerate.redundancy"]["value"] == 1.0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cli-configs", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
