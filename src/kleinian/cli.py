"""Command-line interface: series, measure, classify and render runs.

Configuration is a versioned JSON document; reports are deterministic
(byte-identical across reruns and thread counts): anything run-specific
such as timestamps or the thread count goes to a ``.meta.json`` sidecar,
never into the report.  Exit codes: 0 ok, 2 configuration error, 3 node
budget exhausted (partial report still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, KleinianError
from .group import DeclaredStabilizer, QuotientSpec, SchottkyGroup
from .measure import (AtomicMeasure, _cell_index, _cell_masses, _sphere_grid,
                      classify_atomicity, ending_measure, moving_generator, orbit_measure)
from .model import BoundaryPoint, Disc, InteriorPoint
from .series import (SeparationSchedule, SeriesResult, TailCertificate,
                     example1_tail, horospherical_partial, poincare_partial)

SCHEMA_VERSION = 1
CONFIG_KEYS = {"schema_version", "group", "exponent", "depth", "budget", "threads",
               "precision", "target", "point", "stabilizer", "series", "render"}
RENDER_KEYS = {"bins", "width", "height"}
GROUP_KEYS = {"trivial": {"kind", "dim"},
              "schottky": {"kind", "dim", "pairs", "parabolics"},
              **{f"example{i}": {"kind", "params"} for i in (1, 2, 3)}}
# group.params: what the CLI reads (example3's exponent is checked, not read)
PARAM_KEYS = {"example1": {"exponent", "schedule_scale", "schedule_base", "pairs", "span"},
              "example2": set(), "example3": {"exponent"}}


@dataclass
class RunConfig:
    """Validated run configuration (resolved group plus numeric knobs)."""

    raw: dict
    group: SchottkyGroup
    target: BoundaryPoint | None
    point: InteriorPoint | None
    stabilizer: DeclaredStabilizer | None
    kernel: QuotientSpec | None
    subgroup: QuotientSpec | None   # what measures, classify and reduced series sum
    certificate: TailCertificate | None   # for boundary series at ``target`` only
    exponent: float
    depth: int
    budget: int | None
    series_kind: str
    threads: int
    precision: str
    render_bins: int
    render_size: tuple[int, int]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _require_known(doc: dict, known: set[str], what: str) -> None:
    unknown = sorted(set(doc) - known)
    _require(not unknown, f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def _number(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str, low: int) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= low,
             f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _built(what: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a bad key or value reported as a config error."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _point_from(doc, dim: int, what: str, extra: tuple[str, ...] = ()) -> BoundaryPoint:
    """``{'angle': ...}`` or ``{'coords': [...]}``, which may also hold ``extra`` keys."""
    _require(isinstance(doc, dict) and ("angle" in doc) != ("coords" in doc),
             f"{what} must be {{'angle': ...}} or {{'coords': [...]}}")
    _require_known(doc, {"angle", "coords", *extra}, what)
    if "angle" in doc:
        _require(dim == 1, f"{what}: angles only make sense on S^1")
        angle = _number(doc["angle"], f"{what}.angle")
        return _built(f"{what}.angle", BoundaryPoint.from_angle, angle)
    point = _built(f"{what}.coords", BoundaryPoint, doc["coords"])
    _require(point.dim == dim, f"{what}.coords needs {dim + 1} coordinates (group.dim {dim})")
    return point


def _disc_from(doc, dim: int, what: str, extra: tuple[str, ...] = ()) -> Disc:
    center = _point_from(doc, dim, what, ("radius", *extra))
    return _built(f"{what}.radius", Disc, center, _number(doc.get("radius"), f"{what}.radius"))


def _entries(doc: dict, key: str) -> list[dict]:
    entries = doc.get(key, [])
    _require(isinstance(entries, list) and all(isinstance(e, dict) for e in entries),
             f"group.{key} must be a list of objects")
    return entries


def _build_schottky(doc: dict, dim: int) -> SchottkyGroup:
    pairs = []
    labels = []
    for i, pair in enumerate(_entries(doc, "pairs")):
        _require_known(pair, {"label", "plus", "minus"}, f"group.pairs[{i}]")
        labels.append(pair.get("label", chr(ord("a") + i)))
        pairs.append(tuple(_disc_from(pair.get(side), dim, f"group.pairs[{i}].{side}")
                           for side in ("plus", "minus")))
    _require(bool(pairs), "group.pairs must list at least one disc pair")
    group = SchottkyGroup.from_disc_pairs(dim, pairs, labels=labels)
    for i, pdoc in enumerate(_entries(doc, "parabolics")):
        what = f"group.parabolics[{i}]"
        disc = _disc_from(pdoc, dim, what, ("label", "strength"))
        group = _built(what, group.with_parabolic, pdoc.get("label", "p"), disc,
                       _number(pdoc.get("strength", 4.0), f"{what}.strength"))
    return group


def _resolve_group(doc) -> tuple[SchottkyGroup, BoundaryPoint | None, DeclaredStabilizer | None,
                                 QuotientSpec | None, SeparationSchedule | None]:
    _require(isinstance(doc, dict), "group must be an object")
    kind = doc.get("kind")
    _require(isinstance(kind, str) and kind in GROUP_KEYS, f"unknown group.kind {kind!r} "
             "(expected trivial, schottky, example1, example2 or example3)")
    _require_known(doc, GROUP_KEYS[kind], f"group ({kind})")
    dim = doc.get("dim", 1)
    _require(dim in (1, 2) and not isinstance(dim, bool),
             f"group.dim must be 1 or 2, got {dim!r}")
    if kind == "trivial":
        return SchottkyGroup.trivial(dim), None, None, None, None
    if kind == "schottky":
        return _build_schottky(doc, dim), None, None, None, None
    params = doc.get("params", {})
    _require(isinstance(params, dict), "group.params must be an object")
    _require_known(params, PARAM_KEYS[kind], f"group.params ({kind})")
    if kind == "example1":
        from .examples import Example1Config, example1_group

        cfg = _built("group.params", Example1Config, **params)
        group, target = _built("group.params", example1_group, cfg)
        return group, target, DeclaredStabilizer.trivial(), None, cfg.schedule()
    if kind == "example2":
        from .examples import example2_group, example2_target

        group, quotient = example2_group()
        return group, example2_target(group, "c"), None, quotient, None
    from .examples import example3_group

    if "exponent" in params:
        _number(params["exponent"], "group.params.exponent")
    group, target = example3_group()
    return group, target, DeclaredStabilizer(("p",)), None, None


def load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be an object")
    _require_known(raw, CONFIG_KEYS, "config")
    version = raw.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION,
             f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    _require("group" in raw, "config needs a 'group' section")
    group, default_target, stab, kernel, schedule = _resolve_group(raw["group"])

    def knob(name: str, default):
        override = getattr(overrides, name)
        return override if override is not None else raw.get(name, default)

    exponent = _number(knob("exponent", 1.0), "exponent")
    _require(0.0 <= exponent < math.inf, f"exponent must be finite and >= 0, got {exponent}")
    depth = _integer(knob("depth", 6), "depth", 0)
    budget = raw.get("budget")
    budget = None if budget is None else _integer(budget, "budget", 1)
    threads = _integer(knob("threads", 1), "threads", 1)
    precision = knob("precision", "double")
    _require(precision in ("double", "extended"),
             f"precision must be 'double' or 'extended', got {precision!r}")
    _require(budget is None or precision == "double",
             "budget applies to double precision only: the extended-precision "
             "path walks every word")

    target = (_point_from(raw["target"], group.dim, "target") if "target" in raw
              else default_target)
    # Example 1's certificate at the run exponent, for boundary series at a target it covers
    cert = (example1_tail(schedule, exponent, group, target)
            if schedule is not None and target is not None else None)
    point = None
    if "point" in raw:
        pdoc = raw["point"]
        _require(isinstance(pdoc, dict) and set(pdoc) == {"coords"},
                 "point must be {'coords': [...]}")
        point = _built("point.coords", InteriorPoint, pdoc["coords"])
        _require(point.dim == group.dim,
                 f"point.coords needs {group.dim + 1} coordinates (group.dim {group.dim})")
    if "stabilizer" in raw:
        _require(kernel is None, "stabilizer cannot be declared for this group: every "
                 "command sums over its kernel, not over a coset transversal")
        labels = raw["stabilizer"]
        known = {gen.label for gen in group.generators}
        _require(isinstance(labels, list)
                 and all(isinstance(label, str) and label in known for label in labels),
                 f"stabilizer must list generator labels of {sorted(known)}, got {labels!r}")
        stab = DeclaredStabilizer(tuple(labels))
    if stab is not None and target is not None:
        mover = moving_generator(group, target, stab.labels)
        _require(mover is None, f"stabilizer generator {mover!r} does not fix the target")
    series_kind = raw.get("series", "horospherical" if target is not None
                          else "poincare")
    _require(series_kind in ("poincare", "horospherical", "reduced"),
             f"series must be poincare/horospherical/reduced, got {series_kind!r}")
    _require(kernel is None or series_kind == "horospherical",
             f"series {series_kind!r} cannot be restricted to the group's kernel "
             "(use 'horospherical')")
    # the kernel, else the declared stabilizer's coset transversal, else None (the group)
    subgroup = kernel if stab is None else stab.quotient_for(group)
    render = raw.get("render", {})
    _require(isinstance(render, dict), "render must be an object")
    _require_known(render, RENDER_KEYS, "render")
    bins, width, height = (_integer(render.get(key, default), f"render.{key}", 1)
                           for key, default in (("bins", 64), ("width", 256), ("height", 128)))
    if group.dim == 2:
        _built("render.bins", _sphere_grid, bins)
    return RunConfig(
        raw=raw, group=group, target=target, point=point, stabilizer=stab,
        kernel=kernel, subgroup=subgroup, certificate=cert, exponent=exponent, depth=depth,
        budget=budget, series_kind=series_kind, threads=threads,
        precision=precision, render_bins=bins, render_size=(width, height))


# --- report plumbing -----------------------------------------------------------

def _resolved_config(cfg: RunConfig) -> dict:
    return {**{k: v for k, v in cfg.raw.items() if k != "threads"},
            "schema_version": SCHEMA_VERSION, "exponent": cfg.exponent,
            "depth": cfg.depth, "precision": cfg.precision}


def _write_report(out_dir: Path, name: str, payload: dict, cfg: RunConfig) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "library_version": __version__,
        "config": _resolved_config(cfg),
        "result": payload,
    }
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    sidecar = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "threads": cfg.threads,
    }
    (out_dir / f"{name}.meta.json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return path


def _double_only(cfg: RunConfig, what: str) -> None:
    _require(cfg.precision == "double", "precision 'extended' is available for poincare "
             f"and horospherical series only, not for {what}")


def _run_series(cfg: RunConfig, classify: bool = False) -> SeriesResult:
    """The series a series run reports, or the boundary series a classify run reads.

    A horospherical series sums the group's kernel, if it has one, else the
    whole group; a reduced series and a classify run sum ``cfg.subgroup``.
    """
    if cfg.series_kind == "poincare" and not classify:
        point = cfg.point if cfg.point is not None else InteriorPoint.origin(cfg.group.dim)
        return poincare_partial(cfg.group, point, cfg.exponent, cfg.depth,
                                budget=cfg.budget, precision=cfg.precision)
    _require(cfg.target is not None,
             f"{'classify runs' if classify else 'boundary series'} need a 'target'")
    plain = not classify and cfg.series_kind == "horospherical"
    if not plain:
        _double_only(cfg, "classify runs" if classify else "the reduced series")
    _require(cfg.kernel is None or cfg.precision == "double", "extended precision sums "
             "the whole group; this group's series is restricted to a kernel")
    return horospherical_partial(cfg.group, cfg.target, cfg.exponent, cfg.depth,
                                 budget=cfg.budget, tail=cfg.certificate,
                                 precision=cfg.precision,
                                 kernel=cfg.kernel if plain else cfg.subgroup)


def _build_measure(cfg: RunConfig) -> AtomicMeasure:
    _double_only(cfg, "measures")
    if cfg.point is not None:
        return orbit_measure(cfg.group, cfg.point, cfg.exponent, cfg.depth,
                             budget=cfg.budget)
    if cfg.target is None:
        raise ConfigError("measure runs need a 'target' (ending) or 'point' (orbit)")
    return ending_measure(cfg.group, cfg.target, cfg.exponent, cfg.depth, kernel=cfg.subgroup,
                          budget=cfg.budget, tail=cfg.certificate)


# --- commands -------------------------------------------------------------------

def cmd_series(cfg: RunConfig, out_dir: Path) -> int:
    result = _run_series(cfg)
    _write_report(out_dir, "series", result.summary(), cfg)
    return 3 if result.budget_exhausted else 0


def cmd_measure(cfg: RunConfig, out_dir: Path) -> int:
    measure = _build_measure(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    measure.to_csv(out_dir / "atoms.csv")
    payload = {
        "atoms": measure.atom_count,
        "total_mass": measure.total_mass(),
        "max_atom_weight": measure.max_atom_weight(),
        "depth_shell_mass": measure.shell_mass(),
        "source": measure.source,
        "series": measure.series.summary(),
    }
    if cfg.stabilizer is not None and measure.source == "ending":
        # its series is the one the verdict reads; an orbit measure's is not
        verdict = classify_atomicity(cfg.group, cfg.target, cfg.stabilizer,
                                     measure.series)
        payload["stabilizer_check"] = verdict.stabilizer_check.kind
        payload["atomicity"] = verdict.conclusion
    _write_report(out_dir, "measure", payload, cfg)
    return 3 if measure.series.budget_exhausted else 0


def cmd_classify(cfg: RunConfig, out_dir: Path) -> int:
    series = _run_series(cfg, classify=True)
    verdict = classify_atomicity(cfg.group, cfg.target, cfg.stabilizer, series)
    payload = {
        "conclusion": verdict.conclusion,
        "stabilizer_check": {
            "kind": verdict.stabilizer_check.kind,
            "witness": verdict.stabilizer_check.witness,
            "value": verdict.stabilizer_check.value,
        },
        "series": verdict.series.summary(),
        "transcript": verdict.transcript,
    }
    _write_report(out_dir, "classify", payload, cfg)
    return 3 if verdict.series.budget_exhausted else 0


def _render_ppm(masses: np.ndarray, dim: int, size: tuple[int, int]) -> bytes:
    width, height = size
    peak = float(np.max(masses)) or 1.0
    shade = (masses / peak * 255.0).astype(np.uint8)
    bins = masses.shape[0]
    if dim == 1:   # a ring of cells on a width x width square
        yy, xx = np.mgrid[0:width, 0:width] - (width - 1) / 2.0
        rr = np.sqrt(xx * xx + yy * yy) / (width / 2.0)
        ring = (rr >= 0.72) & (rr <= 0.98)
        idx = _cell_index(np.stack([xx.ravel(), yy.ravel()], axis=1), 1, bins
                          ).reshape(xx.shape)
        level = np.where(ring, shade[idx], 0)
    else:
        lon_cells, lat_cells = _sphere_grid(bins)
        yy, xx = np.mgrid[0:height, 0:width]
        i = (xx * lon_cells // width).astype(np.int64)
        j = (yy * lat_cells // height).astype(np.int64)
        level = shade[i * lat_cells + j]
    img = np.full(level.shape + (3,), 255, dtype=np.uint8)
    img[..., 0] = img[..., 1] = 255 - level
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    return header + img.tobytes()


def cmd_render(cfg: RunConfig, out_dir: Path) -> int:
    measure = _build_measure(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    masses = _cell_masses(measure.points, measure.weights, measure.dim, cfg.render_bins)
    with open(out_dir / "histogram.csv", "w") as handle:
        handle.write("bin,mass\n")
        for i, m in enumerate(masses):
            handle.write(f"{i},{float(m)!r}\n")
    (out_dir / "render.ppm").write_bytes(
        _render_ppm(masses, measure.dim, cfg.render_size))
    payload = {
        "bins": cfg.render_bins,
        "nonzero_bins": int(np.count_nonzero(masses)),
        "peak_mass": float(np.max(masses)),
        "series": measure.series.summary(),
    }
    _write_report(out_dir, "render", payload, cfg)
    return 3 if measure.series.budget_exhausted else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleinian",
        description="Schottky-type groups in the ball model: certified series, "
                    "atomic measures, limit-set diagnostics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("series", "evaluate a Poincare-type series"),
                            ("measure", "synthesize an atomic measure (CSV + report)"),
                            ("classify", "atom-or-not decision at a boundary target"),
                            ("render", "boundary histogram (PPM + CSV)")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--depth", type=int, default=None)
        cmd.add_argument("--exponent", type=float, default=None)
        cmd.add_argument("--threads", type=int, default=None,
                         help="recorded in the .meta.json sidecar only; "
                              "computation is single-threaded")
        cmd.add_argument("--precision", choices=("double", "extended"), default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"series": cmd_series, "measure": cmd_measure,
                "classify": cmd_classify, "render": cmd_render}
    try:
        cfg = load_config(args.config, args)
        return handlers[args.command](cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KleinianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
