"""Command-line entry point.

Subcommands: place (bundle -> placed-object GeoJSON), synth (fixture bundles
with truth), eval (score predictions against references), dump-trees
(per-image tree export), config (print the effective configuration).

Exit codes: 0 success, 1 failed --min-completeness gate, 2 input error,
3 empty output, 64 usage error. ROP_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .atbt import tree_to_json
from .config import RunConfig, load_config
from .evalx import evaluate, to_table
from .evalx import to_json as report_to_json
from .ingest import Bundle, load_inputs
from .placer import IntersectionResult, from_geojson, run_intersection, to_geojson
from .synth import (
    layout_from_json,
    render_bundle,
    save_layouts,
    standard_fixtures,
    write_bundle,
    write_truth,
)

EX_OK = 0
EX_GATE = 1
EX_INPUT = 2
EX_EMPTY = 3
EX_USAGE = 64

log = logging.getLogger("rop.cli")


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _add_bundle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--images", required=True, help="images.json manifest")
    p.add_argument("--masks", required=True, help="directory of <image_id>.pgm label maps")
    p.add_argument("--detections", required=True, help="detections JSONL")
    p.add_argument("--footprints", required=True, help="building footprints GeoJSON")
    p.add_argument("--buffers", required=True, help="intersection buffers JSON")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration value (repeatable)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="rop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_place = sub.add_parser("place", help="run the placement pipeline on a bundle")
    _add_bundle_flags(p_place)
    _add_config_flags(p_place)
    p_place.add_argument("--out", required=True, help="output GeoJSON path")
    p_place.add_argument("--jobs", type=int, default=1, help="worker processes across intersections")
    p_place.set_defaults(func=cmd_place)

    p_synth = sub.add_parser("synth", help="generate synthetic fixture bundles with truth")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--layout", default=None, help="layout JSON (single object or list)")
    p_synth.add_argument("--fixtures", type=int, default=None, metavar="N", help="generate N standard fixtures")
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score predictions against references")
    p_eval.add_argument("--pred", required=True, help="predicted GeoJSON")
    p_eval.add_argument("--ref", required=True, help="reference GeoJSON")
    p_eval.add_argument("--radius", type=float, default=5.0, help="match radius in meters")
    p_eval.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_eval.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_eval.add_argument(
        "--min-completeness",
        type=float,
        default=None,
        help="exit 1 when overall completeness falls below this",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_trees = sub.add_parser("dump-trees", help="export per-image trees as JSON")
    _add_bundle_flags(p_trees)
    _add_config_flags(p_trees)
    p_trees.add_argument("--out", required=True, help="output JSON path")
    p_trees.set_defaults(func=cmd_dump_trees)

    p_cfg = sub.add_parser("config", help="print the effective configuration")
    _add_config_flags(p_cfg)
    p_cfg.add_argument("--show", action="store_true", help="print name = value lines")
    p_cfg.set_defaults(func=cmd_config)

    return parser


# ---------------------------------------------------------------------------
# place


def _bundle_paths(args) -> dict[str, str]:
    return {
        "images_path": args.images,
        "masks_dir": args.masks,
        "detections_path": args.detections,
        "footprints_path": args.footprints,
        "buffers_path": args.buffers,
    }


def _place_chunk(bundle: Bundle, indices: list[int], cfg: RunConfig) -> list[IntersectionResult]:
    """One result per buffer index, in order."""
    return [run_intersection(bundle, bundle.buffers[i], cfg) for i in indices]


def _place_worker(payload):
    """Top-level so ProcessPoolExecutor can pickle it. Trees stay behind:
    only dump-trees reads them, and it runs in-process."""
    paths, indices, cfg = payload
    results = _place_chunk(load_inputs(**paths), indices, cfg)
    for res in results:
        res.trees = {}
    return results


def _run_buffers(args, cfg: RunConfig, jobs: int):
    """Per-buffer results in buffer order, identical for any job count."""
    paths = _bundle_paths(args)
    bundle = load_inputs(**paths)  # validate up front, also the jobs=1 path
    n = len(bundle.buffers)
    if jobs <= 1 or n <= 1:
        return bundle, _place_chunk(bundle, list(range(n)), cfg)
    chunks = [list(range(k, n, jobs)) for k in range(min(jobs, n))]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        chunk_results = list(pool.map(_place_worker, [(paths, chunk, cfg) for chunk in chunks]))
    results: list = [None] * n
    for chunk, chunk_result in zip(chunks, chunk_results):
        for i, res in zip(chunk, chunk_result):
            results[i] = res
    return bundle, results


def cmd_place(args) -> int:
    cfg = load_config(args.config, args.set)
    bundle, results = _run_buffers(args, cfg, args.jobs)
    placed = [obj for res in results for obj in res.placed]
    doc = to_geojson(placed)
    doc["diagnostics"] = [d for res in results for d in res.diagnostics]
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log.info("placed %d objects across %d intersections", len(placed), len(bundle.buffers))
    if not placed:
        log.warning("no objects placed")
        return EX_EMPTY
    return EX_OK


def cmd_dump_trees(args) -> int:
    cfg = load_config(args.config, args.set)
    _, results = _run_buffers(args, cfg, jobs=1)
    doc = {
        res.intersection_id: {
            track: [tree_to_json(t) for t in trees] for track, trees in res.trees.items()
        }
        for res in results
    }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EX_OK


# ---------------------------------------------------------------------------
# synth


def _merge_bundles(bundles: list[Bundle]) -> Bundle:
    merged = Bundle(
        images=[], label_maps={}, detections={}, footprints=[], buffers=[]
    )
    for b in bundles:
        merged.images.extend(b.images)
        merged.label_maps.update(b.label_maps)
        merged.detections.update(b.detections)
        merged.footprints.extend(b.footprints)
        merged.buffers.extend(b.buffers)
    return merged


def cmd_synth(args) -> int:
    if (args.layout is None) == (args.fixtures is None):
        raise ValueError("exactly one of --layout or --fixtures is required")
    if args.layout is not None:
        doc = json.loads(Path(args.layout).read_text())
        try:
            layouts = [layout_from_json(d) for d in (doc if isinstance(doc, list) else [doc])]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{args.layout}: invalid layout document ({exc})") from exc
    else:
        if args.fixtures < 0:
            raise ValueError("--fixtures must be >= 0")
        layouts = standard_fixtures(n=args.fixtures, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundles = []
    truth = []
    for lay in layouts:
        bundle, refs = render_bundle(lay)
        bundles.append(bundle)
        truth.extend(refs)
    write_bundle(_merge_bundles(bundles), str(out_dir))
    write_truth(truth, str(out_dir / "truth.geojson"))
    save_layouts(layouts, str(out_dir / "layouts.json"))
    log.info("wrote %d layouts to %s", len(layouts), out_dir)
    return EX_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    preds = from_geojson(json.loads(Path(args.pred).read_text()))
    refs = from_geojson(json.loads(Path(args.ref).read_text()))
    report = evaluate(preds, refs, radius_m=args.radius)
    if args.json:
        text = json.dumps(report_to_json(report), indent=2, sort_keys=True)
    else:
        text = to_table(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.min_completeness is not None:
        c = report.group("overall").completeness
        if c is not None and c < args.min_completeness:
            log.error("completeness %.4f below gate %.4f", c, args.min_completeness)
            return EX_GATE
    return EX_OK


# ---------------------------------------------------------------------------
# config


def cmd_config(args) -> int:
    cfg = load_config(args.config, args.set)
    print(cfg.show())
    return EX_OK


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level_name = os.environ.get("ROP_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level_name, logging.WARNING),
        format="%(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_INPUT


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
