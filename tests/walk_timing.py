"""Time word walks of this checkout, optionally against another checkout.

Times two walks that no consumer reads, the whole walk of Example 1's
group and the pruned kernel walk of Example 2's group (its retraction onto
the large-arc factor), and that kernel walk feeding the ending measures at
the fixed points of c and d at s = ``EXPONENT``, as ``build_example2``
builds them, so the atom merge shows beside the bare walk; all to depth
``DEPTH`` = 8.  Every process is a fresh interpreter that imports the
library from one checkout's ``src`` with one BLAS thread, runs each walk
``RUNS`` = 7 times and reports the fastest.  With ``--against PATH`` (the
root of another checkout) the processes alternate between the two
checkouts, and which of a pair runs first alternates too:

    python tests/walk_timing.py
    python tests/walk_timing.py --against ../parent --processes 8

For each walk and side it prints the median and inclusive quartiles (as
numpy's default percentiles) of the per-process times, and with
``--against`` the pairs this checkout won.  pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WALKS = ("example1-whole", "example2-kernel", "example2-measures")
DEPTH = 8          # walk depth
RUNS = 7           # in-process runs per walk, the fastest kept
EXPONENT = 0.42    # s of the Example 2 measures, in the benchmark's range


def child() -> None:
    """Print the fastest of ``RUNS`` timings of each walk, as JSON."""
    import time

    from kleinian.examples import Example1Config, example1_group, example2_group, example2_target
    from kleinian.group import walk
    from kleinian.measure import EndingMeasures

    whole, _ = example1_group(Example1Config())
    pruned, quotient = example2_group()
    targets = [example2_target(pruned, label) for label in ("c", "d")]
    calls = {"example1-whole": lambda: walk(whole, DEPTH),
             "example2-kernel": lambda: walk(pruned, DEPTH, kernel=quotient),
             "example2-measures": lambda: EndingMeasures(pruned, targets, EXPONENT,
                                                         kernel=quotient).walk(DEPTH)}
    best = {}
    for name in WALKS:
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            calls[name]()
            times.append(time.perf_counter() - start)
        best[name] = min(times)
    print(json.dumps(best))


def timed(checkout: Path) -> dict[str, float]:
    """The fastest time of each walk in one fresh process of ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--child"]
    return json.loads(subprocess.run(argv, env=env, check=True, capture_output=True,
                                     text=True).stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="root of another checkout to alternate with")
    parser.add_argument("--processes", type=int, default=8, help="processes per checkout")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    if args.processes < 2:
        parser.error("need at least 2 processes")
    sides = {"this": REPO}
    if args.against is not None:
        sides["against"] = args.against.resolve()
    times: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
    for i in range(args.processes):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            times[side].append(timed(sides[side]))
    print(f"{'walk':<18} {'side':<8} {'median_s':>9} {'q1_s':>7} {'q3_s':>7}")
    for name in WALKS:
        for side in sides:
            q1, median, q3 = statistics.quantiles([t[name] for t in times[side]], n=4,
                                               method="inclusive")
            print(f"{name:<18} {side:<8} {median:9.4f} {q1:7.4f} {q3:7.4f}")
        if args.against is not None:
            wins = sum(a[name] < b[name] for a, b in zip(times["this"], times["against"]))
            print(f"{name:<18} this faster in {wins} of {args.processes} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
