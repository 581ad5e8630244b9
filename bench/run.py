"""Benchmark of the kleinian library and CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli-configs --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --smoke          # seconds, for the self-tests

Run it from anywhere inside a checkout; it builds nothing (the library is
imported from ``src/``) and writes only under ``.bench/`` at the checkout
root.  Workloads are closed loops: one client, one operation at a time,
each operation in a fresh interpreter, never more processes than cores.

* ``cli-configs``: ``kleinian`` commands on the shipped configs, seeded.
* ``ex2-kernel``: ``build_example2`` (retraction-kernel study).
* ``diagnostics``: ``build_example3``, an Example 1 depth-7 ending measure
  with its conformality residuals, and ``example1_weak_trend``.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, ``ok_ops``); ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of the traced one, with the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` /
``attempted`` is ``failed_ops``.  With ``--smoke`` depths are reduced,
the object carries ``"smoke": true`` and its numbers support no claim.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-configs", "ex2-kernel", "diagnostics")
LIBRARY_OPS = {"ex2-kernel": ("build_example2",),
               "diagnostics": ("build_example3", "example1_measure", "example1_weak_trend")}
# A run measures at least this many passes, and at least --seconds of them.
# Two passes where one pass of a single fresh process is ~10-20 s; the CLI
# pass already spans six processes, and its set-up costs 13 s.
PASSES = {"cli-configs": 1, "ex2-kernel": 2, "diagnostics": 2}
SETUP_REPS = 3          # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 3.0
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
REQUIRED = ("src/kleinian/__init__.py", "src/kleinian/cli.py", "configs/example1.json",
            "configs/example2.json", "configs/example3.json", "configs/two_generator.json")

for _var in THREAD_VARS:            # before numpy is imported, here and in children
    os.environ[_var] = "1"


@dataclass
class Child:
    name: str
    wall: float
    rss_mb: float
    code: int
    start: float
    end: float
    out_dir: Path | None = None
    spans: list = field(default_factory=list)


@dataclass
class Pass:
    wall: float
    children: list
    problems: dict           # op name -> list of problems


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(name: str, argv: list[str], log: Path, out_dir: Path | None = None) -> Child:
    """Run one child to completion; its own rusage comes from wait4."""
    env = child_env()
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as out:
        start = time.perf_counter()
        env["BENCH_SPAWN_T"] = repr(start)
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return Child(name, end - start, usage.ru_maxrss / 1024.0, code, start, end, out_dir)


def load_spans(path: Path) -> list:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return []


class Bench:
    def __init__(self, workload: str, seed: int, smoke: bool, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.inputs = workloads.make_inputs(seed, ROOT, run_dir, smoke)
        self.refs = checks.References(self.inputs.configs)
        self.params_path = run_dir / "inputs" / f"{workload}.params.json"
        if workload in LIBRARY_OPS:
            self.params_path.write_text(json.dumps(self.inputs.lib_params[workload]))
        self.passes = 0
        self.attempted = 0
        self.failures: list[tuple[str, list[str], str | None]] = []
        self.op_lines: list[str] = []

    # -- one pass of the workload --

    def run_pass(self, traced: bool) -> Pass:
        self.passes += 1
        pass_dir = self.run_dir / f"pass{self.passes}{'-traced' if traced else ''}"
        if self.workload == "cli-configs":
            result = self._cli_pass(pass_dir, traced)
        else:
            result = self._lib_pass(pass_dir, traced)
        for name, problems in result.problems.items():
            self._record(name, problems)
        return result

    def _cli_pass(self, pass_dir: Path, traced: bool) -> Pass:
        children = []
        start = time.perf_counter()
        for i, op in enumerate(self.inputs.cli_ops):
            out_dir = pass_dir / f"op{i}-{op.command}-{op.template}"
            if traced:
                spans_path = out_dir.parent / f"{out_dir.name}.spans.json"
                argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path),
                        "--", *op.argv(out_dir)]
            else:
                argv = [sys.executable, "-m", "kleinian.cli", *op.argv(out_dir)]
            children.append(spawn(op.name, argv, out_dir.parent / f"{out_dir.name}.log",
                                  out_dir))
        wall = time.perf_counter() - start
        if traced:
            for child in children:
                child.spans = load_spans(
                    child.out_dir.parent / f"{child.out_dir.name}.spans.json")
        problems = {}
        normalizers: dict = {}
        for op, child in zip(self.inputs.cli_ops, children):
            problems[op.name] = checks.check_cli(op, child.code, child.out_dir,
                                                 self.refs, normalizers)
        return Pass(wall, children, problems)

    def _lib_pass(self, pass_dir: Path, traced: bool) -> Pass:
        pass_dir.mkdir(parents=True, exist_ok=True)
        out_path = pass_dir / "outputs.json"
        spans_path = pass_dir / "spans.json"
        argv = [sys.executable, str(HERE / "child.py"), "lib", self.workload,
                str(self.params_path), str(out_path)] + ([str(spans_path)] if traced else [])
        start = time.perf_counter()
        child = spawn(self.workload, argv, pass_dir / "child.log")
        wall = time.perf_counter() - start
        if traced:
            child.spans = load_spans(spans_path)
        names = LIBRARY_OPS[self.workload]
        if child.code != 0:
            return Pass(wall, [child], {n: [f"exit code {child.code}"] for n in names})
        outputs = {out["op"]: out for out in json.loads(out_path.read_text())}
        params = self.inputs.lib_params[self.workload]
        problems = {}
        for name in names:
            if name not in outputs:
                problems[name] = ["no output"]
            else:
                problems[name] = checks.LIBRARY_CHECKS[name](outputs[name], params,
                                                             self.refs)
        return Pass(wall, [child], problems)

    def _record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        known = checks.KNOWN_DEFECTS.get((self.workload, name))
        if problems:
            self.failures.append((name, problems, known))
            tag = f"FAILED (known defect: {known})" if known else "FAILED"
            self.op_lines.append(f"  pass {self.passes} {name}: {tag}: {'; '.join(problems)}")
        else:
            note = " (listed as a known defect but passed: remove it)" if known else ""
            self.op_lines.append(f"  pass {self.passes} {name}: ok{note}")

    # -- set-up time --

    def setup_once(self) -> float:
        setup_dir = self.run_dir / "setup"
        if self.workload == "cli-configs":
            total = 0.0
            for i, op in enumerate(self.inputs.cli_ops):
                out_dir = setup_dir / f"op{i}-{op.command}-{op.template}"
                child = spawn(op.name, [sys.executable, "-m", "kleinian.cli",
                                        *op.argv(out_dir, depth=0)],
                              setup_dir / f"op{i}.log")
                self._require_ok(child)
                total += child.wall
            return total
        child = spawn("setup", [sys.executable, str(HERE / "child.py"), "setup",
                                self.workload, str(self.params_path)],
                      setup_dir / "setup.log")
        self._require_ok(child)
        return child.wall

    def warm_up(self) -> None:
        """Compile the library's bytecode once, so no timed run pays for it."""
        child = spawn("warm-up", [sys.executable, "-c",
                                  "import kleinian.cli, kleinian.examples, kleinian.limits"],
                      self.run_dir / "warm-up.log")
        self._require_ok(child)

    @staticmethod
    def _require_ok(child: Child) -> None:
        if child.code != 0:
            raise SystemExit(f"{child.name}: child exited with {child.code}; "
                             "the benchmark cannot set up")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(known for _, _, known in self.failures)


# --- metrics ----------------------------------------------------------------------------

def end_to_end(bench: Bench, seconds: float) -> dict:
    bench.warm_up()
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        setups.append(bench.setup_once())
    walls, rss = [], []
    while len(walls) < PASSES[bench.workload] or sum(walls) < seconds:
        result = bench.run_pass(traced=False)
        walls.append(result.wall)
        rss.append(max(c.rss_mb for c in result.children))
    ok = (bench.attempted - bench.failed) / bench.attempted
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "ok_ops": (ok, "ratio"),
    }


def merge_spans(children: list[Child]) -> tuple[list, list]:
    """One span list for the pass: each child under a ``bench.op`` span.

    Child span ids run from 1 to the child's span count, so shifting them by
    the op span's id keeps every id unique.
    """
    merged, processes = [], []
    next_id = 1
    for child in children:
        op_id = next_id
        merged.append([op_id, 0, "bench.op", child.start, child.end, {"op": child.name}])
        offset = op_id
        proc = [[sid + offset, parent + offset if parent else op_id, name, start, end, attrs]
                for sid, parent, name, start, end, attrs in child.spans]
        last = max((rec[4] for rec in proc), default=child.start)
        proc.append([offset + len(proc) + 1, op_id, "proc.exit", last, child.end, None])
        merged.extend(proc)
        processes.append(proc)
        next_id = offset + len(proc) + 1
    return merged, processes


def per_layer(bench: Bench) -> dict:
    import spans as bench_spans

    bench.warm_up()
    untraced = bench.run_pass(traced=False)
    traced = bench.run_pass(traced=True)
    merged, processes = merge_spans(traced.children)
    layers = bench_spans.layer_metrics(merged, processes)
    own = bench_spans.self_times(merged)
    self_sum = sum(own[rec[0]] for rec in merged if rec[2] != "bench.op")
    write_bytes = sum(p.stat().st_size for c in traced.children if c.out_dir is not None
                      for p in c.out_dir.iterdir())
    layers.update({
        "cli.write.bytes": write_bytes,
        "trace.wall_s": traced.wall,
        "trace.untraced_wall_s": untraced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
        "trace.self_sum_s": self_sum,
        "trace.unaccounted_s": traced.wall - self_sum,
    })
    with open(bench.run_dir / "spans.jsonl", "w") as handle:
        for rec in merged:
            handle.write(json.dumps(rec) + "\n")
    within = abs(self_sum - untraced.wall) <= abs(traced.wall - untraced.wall)
    bench.op_lines.append(
        f"  self times sum to {self_sum:.3f} s; untraced wall {untraced.wall:.3f} s; "
        f"tracing overhead {traced.wall - untraced.wall:+.3f} s; "
        f"accounted within the overhead: {'yes' if within else 'no'}")
    return {name: (value, unit_of(name)) for name, value in layers.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_word"):
        return "ns"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("redundancy") or name.endswith("yield"):
        return "ratio"
    return "count"


# --- environment record ------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = root / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, args) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "child_env": {var: child_env()[var] for var in THREAD_VARS},
    }


# --- entry point -----------------------------------------------------------------------

def run_workload(workload: str, args) -> tuple[Bench, dict]:
    run_dir = ROOT / ".bench" / (f"{workload}-seed{args.seed}-trace{args.trace}"
                                 + ("-smoke" if args.smoke else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(workload, args.seed, args.smoke, run_dir)
    env = environment(args.seed, args)
    env["inputs"] = bench.inputs.values
    (run_dir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    metrics = per_layer(bench) if args.trace else end_to_end(bench, args.seconds)
    label = " [smoke: not for claims]" if args.smoke else ""
    print(f"workload {workload}  seed {args.seed}  passes {bench.passes}{label}")
    for line in bench.op_lines:
        print(line)
    print(f"  {'failed_ops':<32} {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    return bench, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure whole passes until at least this much time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced depths; exercises every check, supports no claim")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a kleinian checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics_out = {}
    for workload in names:
        bench, metrics = run_workload(workload, args)
        attempted += bench.attempted
        failed += bench.failed
        correct = correct and bench.correct
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name, (value, unit) in metrics.items():
            metrics_out[prefix + name] = {"value": value, "unit": unit}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics_out}
    if args.smoke:
        result["smoke"] = True
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
