"""Print the SHA-256 of every output the package produces at its shipped sizes.

Covers every CLI output file but the ``.meta.json`` sidecars, for each
config under ``configs/`` and each command at the config's own depth, and
the results of the three builders at their default configurations:
reports, measures (points, weights, word lengths and normalizing series),
series, the weak trend, the exponent probes and the domination record,
and Example 1's conformality residuals at depth 7.
Two checkouts give the same output exactly when they produce the same bits:

    PYTHONPATH=src python tests/output_hashes.py > hashes.txt

pytest does not collect this file; ``test_output_hashes.py`` compares its
lines with ``golden/output_hashes.txt``.  It takes about 12 s on two vCPUs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMANDS = ("series", "measure", "classify", "render")


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, default=repr).encode()
    return hashlib.sha256(data).hexdigest()


def measure_digest(mu) -> str:
    return digest(mu.points.tobytes() + mu.weights.tobytes() + mu.word_lengths.tobytes()
                  + json.dumps(dataclasses.asdict(mu.series), sort_keys=True,
                               default=repr).encode())


def cli_hashes() -> dict[str, str]:
    from kleinian.cli import main

    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((REPO / "configs").glob("*.json")):
            for command in COMMANDS:
                run_dir = Path(tmp) / config.stem / command
                code = main([command, "--config", str(config), "--out", str(run_dir)])
                out[f"cli/{config.stem}/{command}/exit"] = str(code)
                for path in sorted(run_dir.iterdir()):
                    if not path.name.endswith(".meta.json"):
                        out[f"cli/{config.stem}/{command}/{path.name}"] = digest(
                            path.read_bytes())
    return out


def builder_hashes() -> dict[str, str]:
    from kleinian.examples import (Example1Config, Example2Config, Example3Config,
                                   build_example1, build_example2, build_example3,
                                   example1_weak_trend)
    from kleinian.measure import conformality_residual

    cfg1 = Example1Config()
    ex1 = build_example1(cfg1)
    cfg7 = Example1Config(depth=7)
    ex7 = build_example1(cfg7)
    group7 = ex7.measure.meta["enumeration"]["group"]
    residuals = [conformality_residual(ex7.measure, group7.letter_transform(e),
                                       cfg7.exponent, cells).hex()
                 for cells in (16, 64) for e in range(group7.letter_count)]
    ex2 = build_example2(Example2Config())
    ex3 = build_example3(Example3Config())
    probes = [[[p.s, p.depth, list(p.level_sums), p.ratio, p.label] for p in est.probes]
              for est in (ex2.delta_group, ex2.delta_kernel)]
    return {
        "example1/report": digest(ex1.report),
        "example1/measure": measure_digest(ex1.measure),
        "example1/series": digest(dataclasses.asdict(ex1.series)),
        "example1/weak_trend": digest(example1_weak_trend(cfg1, ex1)),
        "example1/residuals": digest(residuals),
        "example2/report": digest(ex2.report),
        **{f"example2/measure{i}": measure_digest(mu) for i, mu in enumerate(ex2.measures)},
        "example2/probes": digest(probes),
        "example3/report": digest(ex3.report),
        "example3/measure": measure_digest(ex3.measure),
        "example3/reduced": digest(dataclasses.asdict(ex3.reduced)),
        "example3/unreduced": digest(dataclasses.asdict(ex3.unreduced)),
        "example3/domination": digest(ex3.domination),
    }


def main() -> int:
    for key, value in {**cli_hashes(), **builder_hashes()}.items():
        print(f"{key} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
