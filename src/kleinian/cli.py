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
from .errors import BudgetExceeded, ConfigError, KleinianError
from .group import DeclaredStabilizer, QuotientSpec, SchottkyGroup
from .measure import (AtomicMeasure, classify_atomicity, ending_measure,
                      orbit_measure)
from .model import BoundaryPoint, Disc, InteriorPoint
from .series import (SeriesResult, TailCertificate, horospherical_partial,
                     poincare_partial, reduced_horospherical_partial)

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Validated run configuration (resolved group plus numeric knobs)."""

    raw: dict
    group: SchottkyGroup
    target: BoundaryPoint | None
    point: InteriorPoint | None
    stabilizer: DeclaredStabilizer | None
    kernel: QuotientSpec | None
    certificate: TailCertificate | None
    exponent: float
    depth: int
    budget: int | None
    series_kind: str
    threads: int
    precision: str
    partition_cells: int
    render_bins: int
    render_size: tuple[int, int]


def _fail(message: str) -> ConfigError:
    return ConfigError(message)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _fail(message)


def _point_from(doc, dim: int, what: str) -> BoundaryPoint:
    if isinstance(doc, dict) and "angle" in doc:
        _require(dim == 1, f"{what}: angles only make sense on S^1")
        return BoundaryPoint.from_angle(float(doc["angle"]))
    if isinstance(doc, dict) and "coords" in doc:
        return BoundaryPoint(doc["coords"])
    raise _fail(f"{what} must be {{'angle': ...}} or {{'coords': [...]}}")


def _build_schottky(doc: dict) -> SchottkyGroup:
    dim = doc.get("dim", 1)
    _require(dim in (1, 2), f"group.dim must be 1 or 2, got {dim}")
    pairs = []
    labels = []
    for i, pair in enumerate(doc.get("pairs", [])):
        _require(isinstance(pair, dict), f"group.pairs[{i}] must be an object")
        labels.append(pair.get("label", chr(ord("a") + i)))
        discs = []
        for side in ("plus", "minus"):
            side_doc = pair.get(side)
            _require(isinstance(side_doc, dict), f"group.pairs[{i}].{side} missing")
            center = _point_from(side_doc, dim, f"group.pairs[{i}].{side}")
            _require("radius" in side_doc,
                     f"group.pairs[{i}].{side}.radius (chordal) missing")
            discs.append(Disc(center, float(side_doc["radius"])))
        pairs.append((discs[0], discs[1]))
    _require(bool(pairs), "group.pairs must list at least one disc pair")
    group = SchottkyGroup.from_disc_pairs(dim, pairs, labels=labels)
    for pdoc in doc.get("parabolics", []):
        center = _point_from(pdoc, dim, "group.parabolics[]")
        group = group.with_parabolic(pdoc.get("label", "p"),
                                     Disc(center, float(pdoc["radius"])),
                                     float(pdoc.get("strength", 4.0)))
    return group


def _resolve_group(doc: dict) -> tuple[SchottkyGroup, BoundaryPoint | None,
                                       DeclaredStabilizer | None,
                                       QuotientSpec | None,
                                       TailCertificate | None]:
    kind = doc.get("kind")
    if kind == "trivial":
        return SchottkyGroup.trivial(doc.get("dim", 1)), None, None, None, None
    if kind == "schottky":
        return _build_schottky(doc), None, None, None, None
    params = doc.get("params", {})
    if kind == "example1":
        from .examples import Example1Config, example1_group
        from .series import example1_certificate

        cfg = Example1Config(**params)
        group, target = example1_group(cfg)
        cert = example1_certificate(cfg.schedule(), cfg.exponent)
        return group, target, DeclaredStabilizer.trivial(), None, cert
    if kind == "example2":
        from .examples import Example2Config, example2_group, example2_target

        group, quotient = example2_group(Example2Config(**params))
        return group, example2_target(group, "c"), None, quotient, None
    if kind == "example3":
        from .examples import Example3Config, example3_group

        group, target = example3_group(Example3Config(**params))
        return group, target, DeclaredStabilizer(("p",)), None, None
    raise _fail(f"unknown group.kind {kind!r} (expected trivial, schottky, "
                "example1, example2 or example3)")


def load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError as exc:
        raise _fail(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise _fail(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be an object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION,
             f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    _require("group" in raw, "config needs a 'group' section")
    group, default_target, stab, kernel, cert = _resolve_group(raw["group"])

    exponent = float(overrides.exponent if overrides.exponent is not None
                     else raw.get("exponent", 1.0))
    depth = int(overrides.depth if overrides.depth is not None
                else raw.get("depth", 6))
    budget = raw.get("budget")
    if budget is not None:
        budget = int(budget)
    threads = int(overrides.threads if overrides.threads is not None
                  else raw.get("threads", 1))
    precision = (overrides.precision if overrides.precision is not None
                 else raw.get("precision", "double"))
    _require(exponent >= 0.0, f"exponent must be >= 0, got {exponent}")
    _require(depth >= 0, f"depth must be >= 0, got {depth}")
    _require(budget is None or budget > 0, f"budget must be positive, got {budget}")
    _require(threads >= 1, f"threads must be >= 1, got {threads}")
    _require(precision in ("double", "extended"),
             f"precision must be 'double' or 'extended', got {precision!r}")
    cells = int(raw.get("partition_cells", 64))
    _require(cells >= 4, f"partition_cells must be >= 4, got {cells}")

    target = default_target
    if "target" in raw:
        target = _point_from(raw["target"], group.dim, "target")
    point = None
    if "point" in raw:
        pdoc = raw["point"]
        _require(isinstance(pdoc, dict) and "coords" in pdoc,
                 "point must be {'coords': [...]}")
        point = InteriorPoint(pdoc["coords"])
    if "stabilizer" in raw:
        stab = DeclaredStabilizer(tuple(raw["stabilizer"]))
    series_kind = raw.get("series", "horospherical" if target is not None
                          else "poincare")
    _require(series_kind in ("poincare", "horospherical", "reduced"),
             f"series must be poincare/horospherical/reduced, got {series_kind!r}")
    _require(kernel is None or series_kind == "horospherical",
             f"series {series_kind!r} cannot be restricted to the group's kernel "
             "(use 'horospherical')")
    render = raw.get("render", {})
    return RunConfig(
        raw=raw, group=group, target=target, point=point, stabilizer=stab,
        kernel=kernel, certificate=cert, exponent=exponent, depth=depth,
        budget=budget, series_kind=series_kind, threads=threads,
        precision=precision, partition_cells=cells,
        render_bins=int(render.get("bins", 64)),
        render_size=(int(render.get("width", 256)), int(render.get("height", 128))))


# --- report plumbing -----------------------------------------------------------

def _resolved_config(cfg: RunConfig) -> dict:
    doc = {k: v for k, v in cfg.raw.items() if k != "threads"}
    doc["schema_version"] = SCHEMA_VERSION
    doc["exponent"] = cfg.exponent
    doc["depth"] = cfg.depth
    doc["precision"] = cfg.precision
    return doc


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


def _run_series(cfg: RunConfig) -> SeriesResult:
    if cfg.series_kind == "poincare":
        point = cfg.point if cfg.point is not None else InteriorPoint.origin(cfg.group.dim)
        return poincare_partial(cfg.group, point, cfg.exponent, cfg.depth,
                                budget=cfg.budget, tail=cfg.certificate,
                                precision=cfg.precision)
    if cfg.target is None:
        raise _fail("boundary series need a 'target'")
    if cfg.series_kind == "horospherical":
        if cfg.kernel is not None and cfg.precision == "extended":
            raise _fail("extended precision sums the whole group; this group's "
                        "series is restricted to a kernel")
        return horospherical_partial(cfg.group, cfg.target, cfg.exponent, cfg.depth,
                                     budget=cfg.budget, tail=cfg.certificate,
                                     precision=cfg.precision, kernel=cfg.kernel)
    return reduced_horospherical_partial(cfg.group, cfg.target, cfg.exponent,
                                         cfg.depth, stab=cfg.stabilizer,
                                         budget=cfg.budget, tail=cfg.certificate)


def _build_measure(cfg: RunConfig) -> AtomicMeasure:
    if cfg.point is not None:
        return orbit_measure(cfg.group, cfg.point, cfg.exponent, cfg.depth,
                             budget=cfg.budget)
    if cfg.target is None:
        raise _fail("measure runs need a 'target' (ending) or 'point' (orbit)")
    return ending_measure(cfg.group, cfg.target, cfg.exponent, cfg.depth,
                          stab=cfg.stabilizer, kernel=cfg.kernel,
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
    if cfg.stabilizer is not None:
        verdict = classify_atomicity(cfg.group, cfg.target, cfg.exponent,
                                     cfg.stabilizer, cfg.depth, budget=cfg.budget,
                                     tail=cfg.certificate,
                                     precomputed_series=measure.series)
        payload["stabilizer_check"] = verdict.stabilizer_check.kind
        payload["atomicity"] = verdict.conclusion
    _write_report(out_dir, "measure", payload, cfg)
    return 3 if measure.series.budget_exhausted else 0


def cmd_classify(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.target is None:
        raise _fail("classify runs need a 'target'")
    # a kernel-restricted group is classified on its kernel series
    verdict = classify_atomicity(cfg.group, cfg.target, cfg.exponent,
                                 cfg.stabilizer, cfg.depth, budget=cfg.budget,
                                 tail=cfg.certificate,
                                 precomputed_series=(_run_series(cfg) if cfg.kernel
                                                     is not None else None))
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


def _histogram(measure: AtomicMeasure, bins: int) -> np.ndarray:
    from .measure import _cell_masses

    return _cell_masses(measure.points, measure.weights, measure.dim, bins)


def _render_ppm(masses: np.ndarray, dim: int, size: tuple[int, int]) -> bytes:
    width, height = size
    peak = float(np.max(masses)) or 1.0
    shade = (masses / peak * 255.0).astype(np.uint8)
    img = np.zeros((height if dim == 2 else width, width, 3), dtype=np.uint8)
    img[:] = 255
    if dim == 1:
        bins = masses.shape[0]
        cx = cy = (width - 1) / 2.0
        yy, xx = np.mgrid[0:width, 0:width]
        dx, dy = xx - cx, yy - cy
        rr = np.sqrt(dx * dx + dy * dy) / (width / 2.0)
        ring = (rr >= 0.72) & (rr <= 0.98)
        ang = np.arctan2(dy, dx)
        frac = (ang / (2.0 * math.pi) + 0.5 * (math.sqrt(5.0) - 1.0)) % 1.0
        idx = np.minimum((frac * bins).astype(np.int64), bins - 1)
        level = np.where(ring, shade[idx], 0)
        img[..., 0] = np.where(ring, 255 - level, 255)
        img[..., 1] = np.where(ring, 255 - level, 255)
        img[..., 2] = 255
    else:
        bins = masses.shape[0]
        lon_cells = int(round(math.sqrt(bins)))
        lat_cells = bins // lon_cells
        yy, xx = np.mgrid[0:height, 0:width]
        i = (xx * lon_cells // width).astype(np.int64)
        j = (yy * lat_cells // height).astype(np.int64)
        idx = np.minimum(i * lat_cells + j, bins - 1)
        level = shade[idx]
        img[..., 0] = 255 - level
        img[..., 1] = 255 - level
        img[..., 2] = 255
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    return header + img.tobytes()


def cmd_render(cfg: RunConfig, out_dir: Path) -> int:
    measure = _build_measure(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    masses = _histogram(measure, cfg.render_bins)
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
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except KleinianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
