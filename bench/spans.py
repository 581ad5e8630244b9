"""Span tracer that times calls into ``kleinian`` from outside the library.

Nothing under ``src/`` knows about it.  :func:`install` replaces names in
the namespaces of the ``kleinian`` modules that call them (and, for the
few classes involved, the methods on the class) with timing wrappers, so
every call a consumer makes goes through exactly one wrapper.  Generator
functions (the word walk) are wrapped so that each ``next()`` is one span:
the time a consumer spends between batches is not charged to the walk.

Spans are kept in memory as ``[id, parent, name, start, end, attrs]`` and
written out once, when the traced process ends; the parent adds the
interpreter's exit, from the last span to the moment it reaps the child,
as ``proc.exit``.  Times come from
``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and is
therefore comparable between the benchmark and its child processes.

Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time

# Span names grouped into the layers the per-layer metrics report.
SERIES_EVALUATORS = ("poincare_partial", "horospherical_partial",
                     "reduced_horospherical_partial", "bounded_parabolic_domination")
MOBIUS_KERNELS = ("boundary_derivative_raw", "interior_derivative_raw",
                  "apply_boundary_raw", "apply_interior_raw",
                  "origin_images_raw", "inverse_origin_images_raw")
LABEL_KEYS = ("level", "group", "walk", "op")   # attrs that name, not count
KLEINIAN_MODULES = ("kleinian", "kleinian.model", "kleinian.mobius", "kleinian.group",
                    "kleinian.series", "kleinian.measure", "kleinian.limits",
                    "kleinian.examples", "kleinian.cli")


class Tracer:
    """In-memory span recorder with a call stack for parent ids."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._walk_keys: dict[bytes, int] = {}
        self.walks = 0

    def begin(self, name: str, start: float | None = None) -> list:
        parent = self._stack[-1] if self._stack else 0
        rec = [len(self.spans) + 1, parent, name,
               time.perf_counter() if start is None else start, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (e.g. interpreter start-up), under the current parent."""
        rec = self.begin(name, start)
        self._stack.pop()
        rec[4] = end

    def walk_key(self, group) -> dict:
        """Names one walk and its group (by letter matrices), for distinct-word counts."""
        import numpy as np

        digest = hashlib.sha1(np.ascontiguousarray(group.letter_matrices).tobytes()).digest()
        self.walks += 1
        return {"group": self._walk_keys.setdefault(digest, len(self._walk_keys)),
                "walk": self.walks}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


# --- wrappers -------------------------------------------------------------------

def timed(tracer: Tracer, name: str, fn, attrs=None):
    """Each call of ``fn`` is one span; ``attrs(args, result)`` adds counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if attrs is not None:
            rec[5] = attrs(args, out)
        return out
    return wrapper


def timed_generator(tracer: Tracer, name: str, fn, attrs, walk=None):
    """Each ``next()`` on the generator ``fn`` returns is one span.

    ``attrs(item)`` counts the item; ``walk(args)`` names the walk and its
    group, so distinct words can be told from words walked again.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        walk_id = walk(args) if walk is not None else None
        while True:
            rec = tracer.begin(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.end(rec)
                return
            except BaseException:
                tracer.end(rec)
                raise
            tracer.end(rec)
            counts = attrs(item)
            if walk_id is not None:
                counts.update(walk_id)
            rec[5] = counts
            yield item
    return wrapper


def _batch_attrs(batch) -> dict:
    return {"words": int(batch.last.shape[0]), "level": int(batch.length)}


def _one_word(_item) -> dict:
    return {"word_objects": 1}


def _mobius_attrs(args, out) -> dict:
    import numpy as np

    mats = np.asarray(args[0])
    outs = out if isinstance(out, tuple) else (out,)
    moved = sum(np.asarray(a).nbytes for a in args) + sum(np.asarray(o).nbytes for o in outs)
    return {"words": int(mats.shape[0]) if mats.ndim == 3 else 1, "bytes": int(moved)}


def _tracker_attrs(args, out) -> dict:
    batch = args[1]
    attrs = {"words": int(batch.last.shape[0])}
    if isinstance(out, tuple):                     # QuotientTracker: (stacks, lengths)
        attrs["kernel"] = int((out[1] == 0).sum())
    return attrs


def _merge_attrs(args, out) -> dict:
    return {"atoms_in": int(args[0].shape[0]), "atoms_out": int(out[0].shape[0])}


def _probe_attrs(_args, out) -> dict:
    return {"probes": len(out.probes)}


def _horoball_attrs(_args, out) -> dict:
    return {"word_objects": out.count()}


# --- installation ---------------------------------------------------------------

def _replace_everywhere(modules, original, wrapper, skip=()) -> int:
    """Point every module-level name bound to ``original`` at ``wrapper``."""
    replaced = 0
    for mod in modules:
        if mod.__name__ in skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each ``kleinian`` layer (see module doc)."""
    mods = [importlib.import_module(name) for name in KLEINIAN_MODULES]
    by_name = {m.__name__: m for m in mods}
    group, series = by_name["kleinian.group"], by_name["kleinian.series"]
    measure, limits = by_name["kleinian.measure"], by_name["kleinian.limits"]
    examples, cli = by_name["kleinian.examples"], by_name["kleinian.cli"]

    def wrap_fn(mod, attr, span, attrs=None, skip=()):
        original = getattr(mod, attr)
        wrapper = timed(tracer, span, original, attrs)
        if not _replace_everywhere(mods, original, wrapper, skip):
            raise RuntimeError(f"{mod.__name__}.{attr} is bound nowhere")

    def wrap_method(cls, attr, span, attrs=None):
        setattr(cls, attr, timed(tracer, span, getattr(cls, attr), attrs))

    _replace_everywhere(mods, group.iter_word_batches, timed_generator(
        tracer, "group.enumerate", group.iter_word_batches, _batch_attrs,
        lambda args: tracer.walk_key(args[0])))
    for attr in ("enumerate_words", "kernel_enumerate"):
        original = getattr(group, attr)
        _replace_everywhere(mods, original, timed_generator(
            tracer, "group.word_objects", original, _one_word))
    wrap_method(group.QuotientTracker, "extend", "group.tracker", _tracker_attrs)
    wrap_method(group.StabilizerTracker, "extend", "group.tracker", _tracker_attrs)
    wrap_method(group.SchottkyGroup, "__init__", "group.construct")

    # Kernels are wrapped where they are consumed, not inside mobius, so a
    # kernel calling another kernel counts once.
    mobius = by_name["kleinian.mobius"]
    for attr in MOBIUS_KERNELS:
        wrap_fn(mobius, attr, "mobius.eval", _mobius_attrs, skip=("kleinian.mobius",))

    for attr in SERIES_EVALUATORS:
        wrap_fn(series, attr, "series.accumulate")
    wrap_fn(series, "estimate_delta", "series.estimate_delta", _probe_attrs)

    for attr in ("ending_measure", "orbit_measure", "classify_atomicity"):
        wrap_fn(measure, attr, "measure.synth")
    for attr in ("weak_distance", "singularity_diagnostic", "support_gap"):
        wrap_fn(measure, attr, "measure.diag")
    wrap_fn(measure, "conformality_residual", "measure.conformality")
    # Private helpers: merging and cell binning have no public entry point.
    wrap_fn(measure, "_merge_atoms", "measure.merge", _merge_attrs)
    wrap_fn(measure, "_cell_masses", "measure.bin")
    wrap_fn(measure, "_cell_index", "measure.bin")

    wrap_fn(limits, "horoball_entry", "limits.horoball", _horoball_attrs)
    for attr in ("build_example1", "build_example2", "build_example3",
                 "example1_weak_trend"):
        wrap_fn(examples, attr, "examples.build")

    wrap_fn(cli, "main", "cli.main")
    wrap_fn(cli, "_write_report", "cli.write")
    wrap_fn(cli, "_render_ppm", "cli.write")
    wrap_method(measure.AtomicMeasure, "to_csv", "cli.write")


# --- aggregation ----------------------------------------------------------------

def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {rec[0]: rec[4] - rec[3] for rec in spans}
    for rec in spans:
        if rec[1] in own:
            own[rec[1]] -= rec[4] - rec[3]
    return own


def _ancestor_names(spans_by_id: dict[int, list], rec: list):
    parent = rec[1]
    while parent in spans_by_id:
        up = spans_by_id[parent]
        yield up[2]
        parent = up[1]


def layer_metrics(spans: list[list], processes: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics from merged spans.

    ``processes`` holds each child process's spans separately: distinct
    words are counted per process, because a walk repeated in another
    process is not redundant work of that process.
    """
    own = self_times(spans)
    by_id = {rec[0]: rec for rec in spans}
    self_s: dict[str, float] = {}
    count: dict[str, float] = {}

    def add(key, value):
        count[key] = count.get(key, 0) + value

    for rec in spans:
        name, attrs = rec[2], rec[5] or {}
        self_s[name] = self_s.get(name, 0.0) + own[rec[0]]
        add(name + ".calls", 1)
        for key, value in attrs.items():
            if key not in LABEL_KEYS:
                add(f"{name}.{key}", value)
        if name == "group.enumerate" and attrs:
            above = set(_ancestor_names(by_id, rec))
            for layer, key in (("series.estimate_delta", "probe_words"),
                               ("measure.conformality", "conformality_words"),
                               ("limits.horoball", "horoball_words")):
                if layer in above:
                    add(key, attrs["words"])

    walks = distinct = 0
    for proc in processes:
        per_walk: dict[tuple[int, int, int], int] = {}
        for rec in proc:
            attrs = rec[5]
            if rec[2] == "group.enumerate" and attrs:
                key = (attrs["group"], attrs["level"], attrs["walk"])
                per_walk[key] = per_walk.get(key, 0) + attrs["words"]
        best: dict[tuple[int, int], int] = {}
        for (group_key, level, _), words in per_walk.items():
            best[(group_key, level)] = max(best.get((group_key, level), 0), words)
        walks += len({walk for _, _, walk in per_walk})
        distinct += sum(best.values())

    def s(name):
        return self_s.get(name, 0.0)

    def c(key):
        return count.get(key, 0)

    def per_word(name, words):
        return s(name) / words * 1e9 if words else 0.0

    words = c("group.enumerate.words")
    tracked = c("group.tracker.words")
    mob_words = c("mobius.eval.words")
    return {
        "group.enumerate.walks": walks,
        "group.enumerate.words": words,
        "group.enumerate.redundancy": words / distinct if distinct else 0.0,
        "group.enumerate.self_s": s("group.enumerate"),
        "group.enumerate.ns_per_word": per_word("group.enumerate", words),
        "group.tracker.self_s": s("group.tracker"),
        "group.tracker.ns_per_word": per_word("group.tracker", tracked),
        "group.kernel_yield": c("group.tracker.kernel") / tracked if tracked else 0.0,
        "group.word_objects": (c("group.word_objects.word_objects")
                               + c("limits.horoball.word_objects")),
        "group.word_objects.self_s": s("group.word_objects"),
        "group.construct.self_s": s("group.construct"),
        "mobius.eval.calls": c("mobius.eval.calls"),
        "mobius.eval.self_s": s("mobius.eval"),
        "mobius.eval.ns_per_word": per_word("mobius.eval", mob_words),
        "mobius.eval.bytes_computed": c("mobius.eval.bytes"),
        "series.accumulate.self_s": s("series.accumulate") + s("series.estimate_delta"),
        "series.probes": c("series.estimate_delta.probes"),
        "series.probe_words": c("probe_words"),
        "measure.synth.self_s": s("measure.synth"),
        "measure.atoms_in": c("measure.merge.atoms_in"),
        "measure.atoms_out": c("measure.merge.atoms_out"),
        "measure.merge.self_s": s("measure.merge"),
        "measure.conformality.words": c("conformality_words"),
        "measure.conformality.self_s": s("measure.conformality"),
        "measure.bin.self_s": s("measure.bin"),
        "measure.diag.self_s": s("measure.diag"),
        "limits.horoball.calls": c("limits.horoball.calls"),
        "limits.horoball.words": c("horoball_words"),
        "limits.horoball.self_s": s("limits.horoball"),
        "examples.build.self_s": s("examples.build"),
        "examples.import_s": s("examples.import"),
        "cli.import_s": s("cli.import"),
        "cli.main.self_s": s("cli.main"),
        "cli.write.self_s": s("cli.write"),
        "proc.startup_s": s("proc.startup"),
        "proc.exit_s": s("proc.exit"),
        "trace.install_s": s("trace.install"),
        "trace.spans": len(spans),
    }
