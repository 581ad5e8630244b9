"""Print the peak RSS and minor page faults of every CLI command on every shipped config.

Runs each of the four commands (``series``, ``measure``, ``classify``,
``render``) on each config under ``configs/``, every one in a fresh
interpreter, and prints one line per command with its wall time, peak
resident set size and minor page faults, read from ``os.wait4``:

    PYTHONPATH=src python tests/memory_profile.py
    PYTHONPATH=src python tests/memory_profile.py --runs 3 --depth 9 example1
    PYTHONPATH=src python tests/memory_profile.py --traced --commands measure example2

With ``--runs`` above 1 each command runs that many times and the median
of each column is printed.  With ``--traced`` each command runs once more
under ``tracemalloc``, and its traced peak (imports included) is printed
beside the peak RSS: unlike ``ru_maxrss`` it does not move with the heap's
layout.  The children import the library from this
checkout's ``src`` with one BLAS thread and write their outputs into a
temporary directory.  A child's ``ru_maxrss`` on Linux starts at its
spawner's high-water mark, so this process imports only the standard
library and stays smaller than any child.  pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMANDS = ("series", "measure", "classify", "render")
# runs the CLI under tracemalloc and writes its traced peak, in bytes, to argv[1]
TRACED = """
import runpy, sys, tracemalloc
peak_path, sys.argv = sys.argv[1], ["kleinian.cli", *sys.argv[2:]]
tracemalloc.start()
try:
    runpy.run_module("kleinian.cli", run_name="__main__", alter_sys=True)
finally:
    with open(peak_path, "w") as handle:
        handle.write(str(tracemalloc.get_traced_memory()[1]))
"""


def run_command(command: str, config: Path, out: Path, extra: list[str],
                peak_path: Path | None = None) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MiB, minor page faults) of one fresh CLI run;
    with ``peak_path`` the run is traced and writes its tracemalloc peak there."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    entry = ["-m", "kleinian.cli"] if peak_path is None else ["-c", TRACED, str(peak_path)]
    argv = [sys.executable, *entry, command, "--config", str(config),
            "--out", str(out), *extra]
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    if child.returncode != 0:
        raise SystemExit(f"{command} {config.name} exited {child.returncode}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", help="config names (default: every shipped one)")
    parser.add_argument("--runs", type=int, default=1, help="runs per command (median shown)")
    parser.add_argument("--depth", type=int, default=None, help="passed to every command")
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help="comma-separated commands (default: all four)")
    parser.add_argument("--traced", action="store_true",
                        help="also print each command's tracemalloc peak, from one more run")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    configs = ([REPO / "configs" / f"{name}.json" for name in args.configs]
               or sorted((REPO / "configs").glob("*.json")))
    extra = [] if args.depth is None else ["--depth", str(args.depth)]
    print(f"{'config':<18} {'command':<9} {'wall_s':>7} {'peak_rss_mib':>12} {'minor_faults':>12}"
          + (f" {'traced_mib':>10}" if args.traced else ""))
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            for command in args.commands.split(","):
                out = Path(tmp) / config.stem / command
                runs = [run_command(command, config, out, extra) for _ in range(args.runs)]
                wall, rss, faults = (statistics.median(column) for column in zip(*runs))
                traced = ""
                if args.traced:
                    peak_path = Path(tmp) / "traced_peak"
                    run_command(command, config, out, extra, peak_path)
                    traced = f" {int(peak_path.read_text()) / 2 ** 20:10.2f}"
                print(f"{config.stem:<18} {command:<9} {wall:7.2f} {rss:12.1f} {faults:12.0f}"
                      + traced, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
