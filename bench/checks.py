"""Correctness checks for every benchmark operation, run outside the timed window.

Each check returns a list of problems (empty when the output is correct).
References come from the library's independent paths: the mpmath oracle
(``precision="extended"``) for whole-group series, and per-word
``kernel_enumerate`` sums for kernel or transversal series.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

ORACLE_DEPTH = 4          # level sums at depth <= 4 are checked against a reference
ORACLE_REL = 1e-9         # the tolerance tests/test_series.py uses for the oracle
ORACLE_ABS = 1e-12        # pytest.approx's default absolute floor
MASS_TOL = 1e-12
NORMALIZER_REL = 1e-12

# A known defect is still a failure: it is counted in `failed`, printed, and
# does not make the run incorrect only because it is listed here.  Remove the
# entry when the defect is fixed (the run reports when a listed op passes).
KNOWN_DEFECTS = {
    ("cli-configs", "series example2"):
        "series sums the whole group although configs/example2.json declares "
        "the retraction kernel (ROADMAP open item 5)",
}

# Verdicts the constructions claim for the seeded exponent ranges.
CLI_VERDICTS = {
    "example1": "converged_within",   # closed-form separation-schedule tail
    "example3": "inconclusive",       # convergent, but no certificate for a parabolic
    "two_generator": "inconclusive",  # s = 1 > delta, no certificate in the config
}
CLI_CLAIMS = {
    ("measure", "example1"): {"atomicity": "atom_at_target",
                              "stabilizer_check": "all_derivatives_one"},
    ("measure", "example3"): {"atomicity": "inconclusive",
                              "stabilizer_check": "all_derivatives_one"},
}
UNCERTIFIED = ("growth_witness", "inconclusive")


def _close(value: float, expected: float, rel: float, floor: float = 0.0) -> bool:
    return abs(value - expected) <= max(rel * abs(expected), floor)


def _levels(found, expected, what: str) -> list[str]:
    problems = []
    for length, ref in enumerate(expected):
        if length >= len(found):
            problems.append(f"{what}: level {length} missing")
        elif not _close(found[length], ref, ORACLE_REL, ORACLE_ABS):
            problems.append(f"{what}: level {length} sum {found[length]!r} "
                            f"!= reference {ref!r}")
            break
    return problems


def level_count(letters: int, length: int) -> int:
    return 1 if length == 0 else letters * (letters - 1) ** (length - 1)


class References:
    """Reference level sums, computed once per run from the generated configs."""

    def __init__(self, configs: dict):
        self.configs = configs
        self._cache: dict = {}

    def config(self, name: str):
        from kleinian.cli import load_config

        key = ("config", name)
        if key not in self._cache:
            overrides = argparse.Namespace(exponent=None, depth=None, threads=None,
                                           precision=None)
            self._cache[key] = load_config(self.configs[name], overrides)
        return self._cache[key]

    def oracle(self, name: str, depth: int, s: float | None = None) -> list[float]:
        """Whole-group boundary level sums at the config's target, extended precision."""
        from kleinian.series import horospherical_partial

        key = ("oracle", name, depth, s)
        if key not in self._cache:
            cfg = self.config(name)
            s = cfg.exponent if s is None else s
            self._cache[key] = list(horospherical_partial(
                cfg.group, cfg.target, s, depth, precision="extended").level_sums)
        return self._cache[key]

    def kernel(self, name: str, depth: int, s: float | None = None,
               target_label: str | None = None) -> list[float]:
        """Level sums over the config's kernel (or stabilizer transversal), word by word."""
        from kleinian.group import kernel_enumerate

        key = ("kernel", name, depth, s, target_label)
        if key not in self._cache:
            cfg = self.config(name)
            s = cfg.exponent if s is None else s
            spec = cfg.kernel if cfg.kernel is not None else cfg.stabilizer.quotient_for(cfg.group)
            target = cfg.target
            if target_label is not None:
                target = cfg.group.generator(target_label).transform.classify().fixed_points[0]
            terms: list[list[float]] = [[] for _ in range(depth + 1)]
            for word, t in kernel_enumerate(cfg.group, spec, depth):
                terms[len(word)].append(t.derivative_boundary(target) ** s)
            self._cache[key] = [math.fsum(level) for level in terms]
        return self._cache[key]

    def declared(self, name: str, depth: int) -> list[float]:
        """Reference for what the config declares: kernel/transversal sums or the whole group."""
        cfg = self.config(name)
        if cfg.kernel is not None or (cfg.stabilizer is not None and cfg.stabilizer.labels):
            return self.kernel(name, depth)
        return self.oracle(name, depth)


# --- CLI operations --------------------------------------------------------------

def _series_shape(series: dict, depth: int, what: str) -> list[str]:
    problems = []
    if series["depth_completed"] != depth or series["budget_exhausted"]:
        problems.append(f"{what}: depth_completed {series['depth_completed']} "
                        f"of {depth}, budget_exhausted {series['budget_exhausted']}")
    if len(series["level_sums"]) != depth + 1:
        problems.append(f"{what}: {len(series['level_sums'])} level sums for depth {depth}")
    return problems


def _csv_column_sum(path: Path, column: str) -> float:
    with open(path, newline="") as handle:
        return math.fsum(float(row[column]) for row in csv.DictReader(handle))


def _ppm_problems(path: Path) -> list[str]:
    data = path.read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        return ["render.ppm: not a P6 image"]
    width, height = (int(v) for v in parts[1].split())
    if len(parts[3]) != width * height * 3:
        return [f"render.ppm: {len(parts[3])} pixel bytes for {width}x{height}"]
    return []


def check_cli(op, code: int, out_dir: Path, refs: References,
              normalizers: dict) -> list[str]:
    """Check one CLI command's report and files.  ``normalizers`` carries the
    series partial sums of earlier operations of the same pass."""
    if code != 0:
        return [f"exit code {code}"]
    report = json.loads((out_dir / f"{op.command}.json").read_text())
    result = report["result"]
    series = result if op.command == "series" else result["series"]
    depth = report["config"]["depth"]
    problems = _series_shape(series, depth, op.command)
    problems += _levels(series["level_sums"],
                        refs.declared(op.template, min(depth, ORACLE_DEPTH)),
                        "level sums")
    expected = CLI_VERDICTS.get(op.template)
    verdict = series["verdict"]["kind"]
    if expected is not None and verdict != expected:
        problems.append(f"verdict {verdict}, construction claims {expected}")
    if expected is None and verdict not in UNCERTIFIED:
        problems.append(f"verdict {verdict} without a certificate")
    for key, value in CLI_CLAIMS.get((op.command, op.template), {}).items():
        if result.get(key) != value:
            problems.append(f"{key} {result.get(key)}, construction claims {value}")
    if op.command == "measure":
        mass = _csv_column_sum(out_dir / "atoms.csv", "weight")
        if not _close(mass, 1.0, 0.0, MASS_TOL):
            problems.append(f"atoms.csv total mass {mass!r}")
    if op.command == "render":
        mass = _csv_column_sum(out_dir / "histogram.csv", "mass")
        if not _close(mass, 1.0, 0.0, MASS_TOL):
            problems.append(f"histogram.csv total mass {mass!r}")
        problems += _ppm_problems(out_dir / "render.ppm")
    if op.command == "series":
        normalizers[op.template] = series["partial_sum"]
    elif op.template in normalizers and not _close(
            series["partial_sum"], normalizers[op.template], NORMALIZER_REL):
        problems.append(f"measure normalizer {series['partial_sum']!r} != series "
                        f"partial sum {normalizers[op.template]!r}")
    return problems


# --- library operations ----------------------------------------------------------------

def _measure_problems(mu: dict, what: str) -> list[str]:
    problems = _series_shape(mu["series"], mu["series"]["depth"], what)
    if not _close(mu["total_mass"], 1.0, 0.0, MASS_TOL):
        problems.append(f"{what}: total mass {mu['total_mass']!r}")
    return problems


def _counts_problems(series: dict, letters: int, what: str) -> list[str]:
    counts = series["level_counts"]
    expected = [level_count(letters, l) for l in range(len(counts))]
    if counts != expected or len(counts) != series["depth"] + 1:
        return [f"{what}: level counts {counts} != 2k(2k-1)^(l-1) {expected}"]
    return []


def check_ex2_kernel(out: dict, params: dict, refs: References) -> list[str]:
    rep = out["report"]
    problems = []
    if not rep["exponent_gap_resolved"]:
        problems.append("kernel exponent bracket not below the group bracket")
    if not all(rep["max_atom_strictly_decreasing"]):
        problems.append("max atom weight does not decay with depth")
    if not max(rep["singularity_overlap"]) < 0.05:
        problems.append(f"singularity overlap {rep['singularity_overlap']}")
    for mu, label in zip(out["measures"], ("c", "d")):
        what = f"kernel measure at {label}"
        problems += _measure_problems(mu, what)
        if mu["series"]["verdict"] not in UNCERTIFIED:
            problems.append(f"{what}: verdict {mu['series']['verdict']} without a certificate")
        depth = min(mu["series"]["depth"], ORACLE_DEPTH)
        problems += _levels(mu["series"]["level_sums"],
                            refs.kernel("example2", depth, params["exponent"], label),
                            f"{what} level sums")
    return problems


def check_example3(out: dict, params: dict, refs: References) -> list[str]:
    rep = out["report"]
    problems = []
    if rep["max_power_defect"] > 1e-9:
        problems.append(f"parabolic power derivative defect {rep['max_power_defect']}")
    identity = rep["coset_vs_kernel_sum"]
    if not _close(identity["coset_sum"], identity["kernel_sum"], 1e-12):
        problems.append(f"coset sum != kernel sum: {identity}")
    claims = {"unreduced_growth_witness": True, "stabilizer_check": "all_derivatives_one",
              "atomicity": "inconclusive", "measure_verdict": "inconclusive"}
    for key, value in claims.items():
        if rep[key] != value:
            problems.append(f"{key} {rep[key]}, construction claims {value}")
    if not rep["domination"]["dominated_at_every_depth"]:
        problems.append("reduced series not dominated at every depth")
    unreduced, reduced = out["unreduced"], out["reduced"]
    problems += _counts_problems(unreduced, 6, "unreduced series")
    depth = min(unreduced["depth"], ORACLE_DEPTH)
    problems += _levels(unreduced["level_sums"], refs.oracle("example3", depth, params["s3"]),
                        "unreduced level sums")
    problems += _levels(reduced["level_sums"], refs.kernel("example3", depth, params["s3"]),
                        "reduced level sums")
    problems += _measure_problems(out["measure"], "ending measure")
    if not _close(out["measure"]["series"]["partial_sum"], reduced["partial_sum"],
                  NORMALIZER_REL):
        problems.append("measure normalizer != reduced series partial sum")
    return problems


def check_example1_measure(out: dict, params: dict, refs: References) -> list[str]:
    series, mu = out["series"], out["measure"]
    problems = _series_shape(series, series["depth"], "series")
    problems += _counts_problems(series, 8, "series")
    if series["verdict"] != "converged_within":
        problems.append(f"series verdict {series['verdict']}, construction claims "
                        "converged_within")
    if out["atomicity"] != "atom_at_target":
        problems.append(f"atomicity {out['atomicity']}, construction claims atom_at_target")
    depth = min(series["depth"], ORACLE_DEPTH)
    problems += _levels(series["level_sums"], refs.oracle("example1", depth, params["s1"]),
                        "level sums")
    problems += _measure_problems(mu, "ending measure")
    if not _close(mu["series"]["partial_sum"], series["partial_sum"], NORMALIZER_REL):
        problems.append("measure normalizer != series partial sum")
    # acceptance criterion 6: residual below twice the depth-shell mass
    bound = 2.0 * mu["shell_mass"] + 1e-15
    for i, residual in enumerate(out["residuals"]):
        if not residual <= bound:
            problems.append(f"conformality residual {residual!r} of g{i + 1} above {bound!r}")
    return problems


def check_weak_trend(out: dict, params: dict, refs: References) -> list[str]:
    trend = out["trend"]
    if not trend or any(b >= a for a, b in zip(trend, trend[1:])):
        return [f"weak distances do not decrease along the approach: {trend}"]
    return []


LIBRARY_CHECKS = {
    "build_example2": check_ex2_kernel,
    "build_example3": check_example3,
    "example1_measure": check_example1_measure,
    "example1_weak_trend": check_weak_trend,
}
