#!/usr/bin/env python3
"""Render one synthetic intersection and write viewable previews.

Writes the raw label map (PGM) and a colorized PPM per camera pose, plus a
one-line summary of what each frame contains. Good for eyeballing layouts
before running the pipeline on them.

    python3 scripts/render_preview.py --fixtures 4 --index 2 --out preview/
    python3 scripts/render_preview.py --layout layouts.json --index 0 --out preview/
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from rop.labelmap import CATEGORY_IDS, CATEGORY_NAMES
from rop.labelmap import write_pgm
from rop.synth import load_layouts, render_image, standard_fixtures

# One colour per CATEGORY_IDS name.
PALETTE = {
    "other": (0, 0, 0),
    "sky": (70, 130, 180),
    "road": (90, 90, 90),
    "sidewalk": (244, 164, 96),
    "building": (178, 34, 34),
    "traffic_light": (255, 215, 0),
    "traffic_sign": (50, 205, 50),
    "pedestrian": (220, 20, 60),
    "vehicle": (0, 0, 142),
}


def _write_ppm(path: Path, label_map: np.ndarray) -> None:
    lut = np.zeros((256, 3), dtype=np.uint8)
    for name, cid in CATEGORY_IDS.items():
        lut[cid] = PALETTE[name]
    rgb = lut[label_map]
    h, w = label_map.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--fixtures", type=int, default=4,
                     help="generate this many standard fixtures")
    src.add_argument("--layout", default=None, help="layout JSON file")
    ap.add_argument("--seed", type=int, default=1, help="fixture seed")
    ap.add_argument("--index", type=int, default=0, help="which layout to render")
    ap.add_argument("--out", default="preview", help="output directory")
    args = ap.parse_args()

    if args.layout:
        layouts = load_layouts(args.layout)
    else:
        layouts = standard_fixtures(args.fixtures, seed=args.seed)
    if not 0 <= args.index < len(layouts):
        ap.error(f"--index {args.index} out of range (have {len(layouts)} layouts)")
    layout = layouts[args.index]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"{layout.intersection_id} ({layout.kind}): "
          f"{len(layout.footprints)} footprints, {len(layout.truth_objects)} objects, "
          f"{len(layout.pedestrians)} pedestrians, {len(layout.cameras)} poses")
    for pose in layout.cameras:
        runs, dets = render_image(layout, pose)
        label_map = runs.rows(0, runs.height)
        write_pgm(str(out / f"{pose.image_id}.pgm"), label_map)
        _write_ppm(out / f"{pose.image_id}.ppm", label_map)
        counts = np.bincount(label_map.ravel(), minlength=256)
        seen = ", ".join(
            f"{CATEGORY_NAMES[cid]}={counts[cid]}" for cid in sorted(CATEGORY_NAMES) if counts[cid]
        )
        print(f"  {pose.image_id}: {len(dets)} detections; {seen}")
    print(f"wrote previews under {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
