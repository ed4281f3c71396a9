#!/usr/bin/env python3
"""Generate synthetic intersections, run the placement pipeline, and score it.

Renders n standard fixture intersections, places objects from the rendered
bundles, and prints the completeness/error table against the generator's
ground truth. With --out, also writes predictions, truth, and the report.

    python3 scripts/run_synth_eval.py --n 20 --seed 1 --out runs/demo
"""
from __future__ import annotations

import argparse
import json
import logging
import time
from pathlib import Path

from rop.config import load_config
from rop.evalx import evaluate, to_json, to_table
from rop.placer import run_intersection, to_geojson
from rop.synth import render_bundle, standard_fixtures, write_truth

log = logging.getLogger("run_synth_eval")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20, help="number of intersections")
    ap.add_argument("--seed", type=int, default=1, help="generator seed")
    ap.add_argument("--radius", type=float, default=5.0, help="match radius in meters")
    ap.add_argument("--config", default=None, help="configuration file of key = value lines")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="config override, repeatable")
    ap.add_argument("--out", default=None, help="directory for predictions/truth/report")
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    cfg = load_config(args.config, args.set)
    layouts = standard_fixtures(args.n, seed=args.seed)

    preds = []
    refs = []
    t0 = time.perf_counter()
    for lay in layouts:
        bundle, truth = render_bundle(lay)
        result = run_intersection(bundle, bundle.buffers[0], cfg)
        preds.extend(result.placed)
        refs.extend(truth)
        log.info("%s: %d images -> %d placed (%d truth)",
                 lay.intersection_id, len(bundle.images), len(result.placed), len(truth))
    elapsed = time.perf_counter() - t0

    report = evaluate(preds, refs, radius_m=args.radius)
    print(to_table(report))
    print(f"{len(layouts)} intersections in {elapsed:.1f}s "
          f"({1000.0 * elapsed / max(1, len(layouts)):.0f} ms each)")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "predictions.geojson").write_text(
            json.dumps(to_geojson(preds), indent=2, sort_keys=True) + "\n")
        write_truth(refs, str(out / "truth.geojson"))
        (out / "report.json").write_text(
            json.dumps(to_json(report), indent=2, sort_keys=True) + "\n")
        log.info("wrote predictions, truth, and report under %s", out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
