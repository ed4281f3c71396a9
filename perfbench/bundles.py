"""Workload bundles for the placement benchmark, built through `rop.synth`.

Every workload uses the layouts of the fixed yardstick family
`standard_fixtures(N, seed=1)`. The benchmark seed does not pick the layouts:
across layout seeds 1-10 the fixtures20 precision spreads by 12% and the
matched error by 52% (quartile distance over median), wider than any bound a
regression gate can hold. The seed instead permutes the order of the records
in the bundle files (images, each image's detections, footprints).
The placed features do not depend on that order, so the quality metrics
repeat exactly for every seed. Buffers keep their order: `--jobs N` deals
them to workers by position, so a permuted order would change the load
balance between workers, by up to 7% of the per-buffer work, from seed to seed.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from rop.geo import FRAME_SPAN_DEG, M_PER_DEG_LAT, GeoPoint
from rop.ingest import Bundle
from rop.synth import CameraModel, Layout, render_bundle, standard_fixtures, write_bundle, write_truth

LAYOUT_SEED = 1

# downtown: 400 intersections on a 16 x 25 grid, 200 m apart, so the whole
# bundle stays inside one tangent frame's validity span. A wider bundle makes
# `rop place` exit 2 today, because every footprint is projected into every
# intersection's frame. It runs by hand with `--workload downtown` but is not
# listed in BENCHMARK.json: about half of its placement is Python-level scans,
# and on a shared 2-vCPU host its place_s spread across ten seeds reached 38%
# (quartile distance over median), beyond the largest allowed bound of 0.25.
DOWNTOWN_N = 400
DOWNTOWN_COLS = 16
DOWNTOWN_SPACING_M = 200.0
# Only every 8th intersection keeps its cameras. Every 4th would give 1.8k
# images and a 16 s placement, too long for a run that also renders the
# bundle three times.
DOWNTOWN_DRIVEN_EVERY = 8
HALF_RES = CameraModel(width_px=512, height_px=384)


def fixtures20() -> list[Layout]:
    return standard_fixtures(20, seed=LAYOUT_SEED)


def downtown() -> list[Layout]:
    """Re-centre the layouts on a grid; every 8th keeps its cameras, at half resolution."""
    layouts = standard_fixtures(DOWNTOWN_N, seed=LAYOUT_SEED)
    lat0, lon0 = layouts[0].center.lat, layouts[0].center.lon
    dlat = DOWNTOWN_SPACING_M / M_PER_DEG_LAT
    dlon = DOWNTOWN_SPACING_M / (M_PER_DEG_LAT * math.cos(math.radians(lat0)))
    out = []
    for i, lay in enumerate(layouts):
        row, col = divmod(i, DOWNTOWN_COLS)
        out.append(
            dataclasses.replace(
                lay,
                center=GeoPoint(lat0 + row * dlat, lon0 + col * dlon),
                cameras=lay.cameras if i % DOWNTOWN_DRIVEN_EVERY == 0 else [],
                camera=HALF_RES,
            )
        )
    return out


@dataclass(frozen=True)
class Workload:
    layouts: Callable[[], list[Layout]]
    jobs: int


WORKLOADS = {
    "fixtures20": Workload(fixtures20, jobs=1),
    "downtown": Workload(downtown, jobs=1),
    "fixtures20-jobs2": Workload(fixtures20, jobs=2),
}


@dataclass(frozen=True)
class BundleFiles:
    """One written bundle: its file paths, counts and set-up timings."""

    directory: Path
    n_images: int
    n_buffers: int
    n_footprints: int
    setup_s: float
    render_s: float
    write_s: float

    def place_flags(self) -> list[str]:
        d = self.directory
        return [
            "--images", str(d / "images.json"),
            "--masks", str(d / "masks"),
            "--detections", str(d / "detections.jsonl"),
            "--footprints", str(d / "footprints.geojson"),
            "--buffers", str(d / "buffers.json"),
        ]

    @property
    def truth(self) -> Path:
        return self.directory / "truth.geojson"


def _shuffle(bundle: Bundle, seed: int) -> None:
    rng = random.Random(seed)
    rng.shuffle(bundle.images)
    rng.shuffle(bundle.footprints)
    for image_id in sorted(bundle.detections):
        rng.shuffle(bundle.detections[image_id])


def _check_span(bundle: Bundle) -> None:
    points = [b.center for b in bundle.buffers]
    points += [im.position for im in bundle.images]
    points += [v for fp in bundle.footprints for v in fp.ring]
    for axis in ("lat", "lon"):
        values = [getattr(p, axis) for p in points]
        span = max(values) - min(values)
        if span >= FRAME_SPAN_DEG:
            raise RuntimeError(
                f"bundle spans {span:.4f} deg of {axis}, not below FRAME_SPAN_DEG={FRAME_SPAN_DEG}"
            )


def write_workload(workload: Workload, seed: int, directory: Path) -> BundleFiles:
    """Render the workload's layouts, permute the records by seed, write them.

    The truth file holds the objects of intersections that have cameras; the
    others cannot be placed from imagery.
    """
    t0 = time.perf_counter()
    merged = Bundle(images=[], label_maps={}, detections={}, footprints=[], buffers=[])
    truth = []
    render_s = 0.0
    for lay in workload.layouts():
        t = time.perf_counter()
        bundle, refs = render_bundle(lay)
        render_s += time.perf_counter() - t
        merged.images.extend(bundle.images)
        merged.label_maps.update(bundle.label_maps)
        merged.detections.update(bundle.detections)
        merged.footprints.extend(bundle.footprints)
        merged.buffers.extend(bundle.buffers)
        if lay.cameras:
            truth.extend(refs)
    _shuffle(merged, seed)
    t = time.perf_counter()
    write_bundle(merged, str(directory))
    write_s = time.perf_counter() - t
    write_truth(truth, str(directory / "truth.geojson"))
    setup_s = time.perf_counter() - t0
    _check_span(merged)
    return BundleFiles(
        directory=directory,
        n_images=len(merged.images),
        n_buffers=len(merged.buffers),
        n_footprints=len(merged.footprints),
        setup_s=setup_s,
        render_s=render_s,
        write_s=write_s,
    )
