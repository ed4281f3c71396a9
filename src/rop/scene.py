"""Per-image scene objects from label maps and detections.

Regions are 4-connected components of a semantic label map. Sign regions are
reconciled against detector output so each emitted sign carries the detector's
subtype while borrowing pixel-accurate geometry where the match is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .ingest import CATEGORY_IDS, CATEGORY_NAMES, Detection
from .labelmap import LabelRuns


@dataclass
class Region:
    category: str
    centroid: tuple[float, float]  # (row, col)
    area_px: int
    bbox: tuple[int, int, int, int]  # (x, y, w, h)
    first_px: int  # row-major index of the first pixel, for stable ordering


@dataclass
class SceneObject:
    id: str
    category: str
    centroid: tuple[float, float]  # (row, col)
    area_px: float
    bbox: tuple[float, float, float, float] | None  # (x, y, w, h)
    subtype: str | None = None
    score: float | None = None
    source: str = "region"  # region | detection | inferred
    light_kind: str | None = None  # high | low
    inferred: bool = False


def extract_regions(
    runs: LabelRuns, categories: list[str], min_region_px: int
) -> list[Region]:
    """Connected components (4-connectivity) of the given categories, smaller
    than min_region_px dropped, ordered by (category id, first pixel index).

    Components are built from row runs rather than pixels (run-based
    labeling, He, Chao & Suzuki 2008): a label map holds far fewer runs of
    the requested categories than pixels. Every moment stays an exact
    integer until the one division by area.
    """
    w = runs.width
    # A label map holds one byte per pixel, so a 256-entry table picks the runs.
    wanted = np.zeros(256, dtype=bool)
    wanted[[CATEGORY_IDS[n] for n in categories]] = True
    keep = np.flatnonzero(wanted[runs.values])
    if keep.size == 0:
        return []
    start = runs.starts[keep]
    end = np.append(runs.starts, w * runs.height)[keep + 1]
    value = runs.values[keep]
    # Kept runs are disjoint and sorted, so the runs one row up that share a
    # column with run i are the contiguous index range [lo[i], hi[i]).
    lo = np.searchsorted(end, start - w, side="right")
    hi = np.searchsorted(start, end - w, side="left")
    count = hi - lo
    src = np.repeat(np.arange(keep.size), count)
    dst = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)
    same = value[src] == value[dst]
    src, dst = src[same], dst[same]
    # Union by hooking the larger root under the smaller, then full path
    # compression; each pass retires at least one root per open edge. Every
    # root ends as its component's lowest run index, i.e. its first run.
    parent = np.arange(keep.size)
    while True:
        a, b = parent[src], parent[dst]
        open_edge = a != b
        if not open_edge.any():
            break
        np.minimum.at(parent, np.maximum(a, b)[open_edge], np.minimum(a, b)[open_edge])
        while ((grand := parent[parent]) != parent).any():
            parent = grand
    order = np.argsort(parent, kind="stable")
    group = np.flatnonzero(np.diff(parent[order], prepend=-1))
    root = parent[order][group]
    row = start // w
    col0 = start - row * w
    length = end - start
    area = np.add.reduceat(length[order], group)
    row_sum = np.add.reduceat((row * length)[order], group)
    # Columns col0 .. col0 + length - 1 sum to length * (2 * col0 + length - 1) / 2.
    col_sum = np.add.reduceat((length * (2 * col0 + length - 1) // 2)[order], group)
    top = row[root]
    bottom = np.maximum.reduceat(row[order], group)
    left = np.minimum.reduceat(col0[order], group)
    right = np.maximum.reduceat((col0 + length)[order], group)
    # Roots ascend by first pixel; a stable sort by category id keeps that.
    k = np.argsort(value[root], kind="stable")
    k = k[area[k] >= min_region_px]
    columns = (value[root], area, row_sum, col_sum, left, top, right, bottom, start[root])
    return [
        Region(
            category=CATEGORY_NAMES[v],
            centroid=(rs / a, cs / a),
            area_px=a,
            bbox=(x0, y0, x1 - x0, y1 - y0 + 1),
            first_px=first,
        )
        for v, a, rs, cs, x0, y0, x1, y1, first in zip(*(c[k].tolist() for c in columns))
    ]


def box_iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _from_region(obj_id: str, region: Region) -> SceneObject:
    return SceneObject(
        id=obj_id,
        category=region.category,
        centroid=region.centroid,
        area_px=float(region.area_px),
        bbox=tuple(float(v) for v in region.bbox),
        source="region",
    )


def reconcile(
    regions: list[Region],
    detections: list[Detection],
    iou_min: float,
) -> list[SceneObject]:
    """Fuse sign regions with sign detections; pass lights and sidewalks through.

    Each sign detection yields one object. When exactly one detection overlaps
    exactly one region at IoU >= iou_min, the object takes the region's
    centroid, area, and bbox; otherwise geometry derives from the detection
    bbox alone. Sign regions no detection claims are dropped (the detector is
    the authority on sign existence), and detections of other categories are
    ignored here.
    """
    out: list[SceneObject] = []
    lights = [r for r in regions if r.category == "traffic_light"]
    walks = [r for r in regions if r.category == "sidewalk"]
    signs = [r for r in regions if r.category == "traffic_sign"]
    out.extend(_from_region(f"light{i}", r) for i, r in enumerate(lights))
    out.extend(_from_region(f"walk{i}", r) for i, r in enumerate(walks))

    sign_boxes = [tuple(float(v) for v in r.bbox) for r in signs]
    sign_dets = [d for d in detections if d.category == "traffic_sign"]
    matches: list[list[int]] = []
    claimed = [0] * len(signs)
    for det in sign_dets:
        hits = [j for j, box in enumerate(sign_boxes) if box_iou(det.bbox, box) >= iou_min]
        matches.append(hits)
        for j in hits:
            claimed[j] += 1
    for i, det in enumerate(sign_dets):
        hits = matches[i]
        if len(hits) == 1 and claimed[hits[0]] == 1:
            r = signs[hits[0]]
            obj = SceneObject(
                id=f"sign{i}",
                category="traffic_sign",
                centroid=r.centroid,
                area_px=float(r.area_px),
                bbox=sign_boxes[hits[0]],
                subtype=det.subtype,
                score=det.score,
                source="region",
            )
        else:
            x, y, w, h = det.bbox
            obj = SceneObject(
                id=f"sign{i}",
                category="traffic_sign",
                centroid=(y + h / 2.0, x + w / 2.0),
                area_px=float(w * h),
                bbox=det.bbox,
                subtype=det.subtype,
                score=det.score,
                source="detection",
            )
        out.append(obj)
    return out


def scene_objects(
    runs: LabelRuns,
    detections: list[Detection],
    cfg: RunConfig = RunConfig(),
) -> tuple[list[SceneObject], int]:
    """One image's reconciled objects and its tallest pedestrian height in
    pixels (0 if none), from a single extraction over the label map's runs."""
    regions = extract_regions(
        runs,
        ["sidewalk", "pedestrian", "traffic_light", "traffic_sign"],
        cfg.min_region_px,
    )
    tallest = max((r.bbox[3] for r in regions if r.category == "pedestrian"), default=0)
    return reconcile(regions, detections, cfg.iou_min), tallest
