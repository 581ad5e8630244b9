"""Child process of the benchmark: one fresh interpreter per operation.

    python3 bench/child.py cli   SPANS -- ARGS...     traced `kleinian ARGS...`
    python3 bench/child.py lib   WORKLOAD PARAMS OUT [SPANS]
    python3 bench/child.py setup WORKLOAD PARAMS

``cli`` is used only for traced runs; untraced CLI operations run
``python3 -m kleinian.cli`` itself.  ``lib`` runs a library workload and
writes the outputs the benchmark checks to OUT (JSON); with SPANS it is
traced.  ``setup`` only imports the library and builds the groups of a
library workload, for ``setup_s``.  The trace module is imported only when
a SPANS path is given.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _tracer(spans_path):
    """Start tracing, with the interpreter start-up as the first span."""
    if spans_path is None:
        return None
    loading = time.perf_counter()
    import spans as bench_spans

    tracer = bench_spans.Tracer()
    tracer.record("proc.startup", float(os.environ["BENCH_SPAWN_T"]), STARTED)
    tracer.record("trace.install", loading, time.perf_counter())
    return tracer


def _timed_import(tracer, span: str, module: str):
    if tracer is None:
        return __import__(module, fromlist=["_"])
    rec = tracer.begin(span)
    mod = __import__(module, fromlist=["_"])
    tracer.end(rec)
    return mod


def _install(tracer) -> None:
    import spans as bench_spans

    rec = tracer.begin("trace.install")
    bench_spans.install(tracer)
    tracer.end(rec)


def run_cli(spans_path: str, argv: list[str]) -> int:
    tracer = _tracer(spans_path)
    cli = _timed_import(tracer, "cli.import", "kleinian.cli")
    _install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


# --- library workloads -------------------------------------------------------------

def _series(result) -> dict:
    return {
        "partial_sum": result.partial_sum,
        "level_sums": list(result.level_sums),
        "level_counts": result.transcript.get("level_counts"),
        "verdict": result.verdict.kind,
        "depth": result.depth,
        "depth_completed": result.depth_completed,
        "budget_exhausted": result.budget_exhausted,
    }


def _measure(mu) -> dict:
    return {
        "total_mass": mu.total_mass(),
        "atoms": mu.atom_count,
        "shell_mass": mu.shell_mass(),
        "series": _series(mu.series),
    }


def ex2_kernel(examples, params: dict) -> list[dict]:
    overrides = {k: tuple(v) if isinstance(v, list) else v
                 for k, v in params["config"].items()}
    cfg = examples.Example2Config(exponent=params["exponent"], **overrides)
    result = examples.build_example2(cfg)
    return [{
        "op": "build_example2",
        "report": result.report,
        "targets": [t.coords.tolist() for t in result.targets],
        "measures": [_measure(mu) for mu in result.measures],
        "probes": [len(result.delta_group.probes), len(result.delta_kernel.probes)],
    }]


def diagnostics(examples, params: dict) -> list[dict]:
    from kleinian.measure import conformality_residual

    ex3 = examples.build_example3(
        examples.Example3Config(exponent=params["s3"], **params["ex3"]))
    report = dict(ex3.report)
    report.pop("reduced_series")
    report.pop("unreduced_series")
    cfg1 = examples.Example1Config(exponent=params["s1"], **params["ex1"])
    ex1 = examples.build_example1(cfg1)
    residuals = [conformality_residual(ex1.measure, gen.transform, cfg1.exponent)
                 for gen in ex1.group.generators]
    trend = examples.example1_weak_trend(cfg1, ex1)
    return [
        {"op": "build_example3", "report": report, "reduced": _series(ex3.reduced),
         "unreduced": _series(ex3.unreduced), "measure": _measure(ex3.measure)},
        {"op": "example1_measure", "series": _series(ex1.series),
         "measure": _measure(ex1.measure), "atomicity": ex1.atomicity.conclusion,
         "residuals": residuals},
        {"op": "example1_weak_trend", "trend": trend},
    ]


LIBRARY = {"ex2-kernel": ex2_kernel, "diagnostics": diagnostics}


def run_lib(workload: str, params_path: str, out_path: str, spans_path) -> int:
    with open(params_path) as handle:
        params = json.load(handle)
    tracer = _tracer(spans_path)
    examples = _timed_import(tracer, "examples.import", "kleinian.examples")
    if tracer is not None:
        _install(tracer)
    try:
        outputs = LIBRARY[workload](examples, params)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
    with open(out_path, "w") as handle:
        json.dump(outputs, handle)
    return 0


def run_setup(workload: str, params_path: str) -> int:
    """Import plus group construction (ping-pong validation included)."""
    with open(params_path) as handle:
        params = json.load(handle)
    import argparse

    from kleinian.cli import load_config

    overrides = argparse.Namespace(exponent=None, depth=None, threads=None,
                                   precision=None)
    for path in params["configs"]:
        load_config(path, overrides)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        spans, sep, *cli_args = rest
        if sep != "--":
            raise SystemExit("usage: child.py cli SPANS -- ARGS...")
        return run_cli(spans, cli_args)
    if mode == "lib":
        return run_lib(rest[0], rest[1], rest[2], rest[3] if len(rest) > 3 else None)
    if mode == "setup":
        return run_setup(rest[0], rest[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
