"""Per-image scene objects from label maps and detections.

Scene objects start as 4-connected components of a semantic label map. Sign
components are reconciled against detector output so each emitted sign
carries the detector's subtype while borrowing pixel-accurate geometry where
the match is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .ingest import CATEGORY_IDS, CATEGORY_NAMES, Detection
from .labelmap import LabelRuns, concat_runs


@dataclass(slots=True)
class SceneObject:
    id: str
    category: str
    centroid: tuple[float, float]  # (row, col)
    area_px: float
    bbox: tuple[float, float, float, float] | None  # (x, y, w, h)
    subtype: str | None = None
    light_kind: str | None = None  # high | low
    inferred: bool = False


def extract_regions(
    maps: list[LabelRuns], categories: list[str], min_region_px: int
) -> list[list[SceneObject]]:
    """Per label map, its connected components (4-connectivity) of the given
    categories as unnamed scene objects, smaller than min_region_px dropped,
    ordered by (category id, first pixel index), in each map's own pixel
    coordinates.

    Components are built from row runs rather than pixels (run-based
    labeling, He, Chao & Suzuki 2008): a label map holds far fewer runs of
    the requested categories than pixels. All maps are labelled in one pass,
    their kept runs laid on one canvas as wide as the widest map, one map
    below the other with a blank row between, so no run touches a run of
    another map. Every moment stays an exact integer until the one division
    by area.
    """
    out: list[list[SceneObject]] = [[] for _ in maps]
    if not maps:
        return out
    # A label map holds one byte per pixel, so a 256-entry table picks the runs.
    wanted = np.zeros(256, dtype=bool)
    wanted[[CATEGORY_IDS[n] for n in categories]] = True
    bounds, values, base = concat_runs(maps)
    keep = np.flatnonzero(wanted[values])
    if keep.size == 0:
        return out
    value = values[keep]
    k = np.searchsorted(base, bounds[keep], side="right") - 1
    local = bounds[keep] - base[k]
    length = bounds[keep + 1] - bounds[keep]
    width = np.array([m.width for m in maps])
    height = np.array([m.height for m in maps])
    w = width[k]
    row = local // w
    col0 = local - row * w
    canvas_w = int(width.max())
    # Each map starts one blank canvas row below the last row of the one before.
    top_row = np.cumsum(height + 1) - (height + 1)
    start = (top_row[k] + row) * canvas_w + col0
    end = start + length
    # Kept runs are disjoint and sorted, so the runs one row up that share a
    # column with run i are the contiguous index range [lo[i], hi[i]).
    lo = np.searchsorted(end, start - canvas_w, side="right")
    hi = np.searchsorted(start, end - canvas_w, side="left")
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
    area = np.add.reduceat(length[order], group)
    row_sum = np.add.reduceat((row * length)[order], group)
    # Columns col0 .. col0 + length - 1 sum to length * (2 * col0 + length - 1) / 2.
    col_sum = np.add.reduceat((length * (2 * col0 + length - 1) // 2)[order], group)
    top = row[root]
    bottom = np.maximum.reduceat(row[order], group)
    left = np.minimum.reduceat(col0[order], group)
    right = np.maximum.reduceat((col0 + length)[order], group)
    # Roots ascend by map, then by first pixel; a stable sort by (map,
    # category id) keeps that.
    s = np.argsort(k[root] * 256 + value[root], kind="stable")
    s = s[area[s] >= min_region_px]
    geometry = (area, left, top, right - left, bottom - top + 1)
    columns = (k[root], value[root], row_sum / area, col_sum / area, *(g.astype(float) for g in geometry))
    for m, v, cy, cx, a, x, y, w, h in zip(*(c[s].tolist() for c in columns)):
        out[m].append(SceneObject("", CATEGORY_NAMES[v], (cy, cx), a, (x, y, w, h)))
    return out


def box_iou(a, b) -> np.ndarray:
    """IoU of (x, y, w, h) boxes, 0 where the union is empty. a and b
    broadcast over their leading axes: box_iou(dets[:, None], regions[None])
    is the detections x regions matrix."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.maximum(a[..., :2], b[..., :2])
    hi = np.minimum(a[..., :2] + a[..., 2:], b[..., :2] + b[..., 2:])
    side = np.maximum(0.0, hi - lo)
    inter = side[..., 0] * side[..., 1]
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _named(obj_id: str, obj: SceneObject, subtype: str | None = None) -> SceneObject:
    # Built field by field: dataclasses.replace takes about four times as long.
    return SceneObject(obj_id, obj.category, obj.centroid, obj.area_px, obj.bbox, subtype)


def reconcile(
    regions: list[SceneObject],
    detections: list[Detection],
    iou_min: float,
) -> list[SceneObject]:
    """Name one image's components (extract_regions) and fuse its sign
    components with its sign detections.

    Lights and sidewalks pass through as light{i} and walk{i}. Each sign
    detection yields one object, sign{i}. When exactly one detection overlaps
    exactly one sign component at IoU >= iou_min, the object takes the
    component's centroid, area, and bbox; otherwise geometry derives from the
    detection bbox alone. Sign components no detection claims are dropped
    (the detector is the authority on sign existence), and detections of
    other categories are ignored here.
    """
    lights = [r for r in regions if r.category == "traffic_light"]
    walks = [r for r in regions if r.category == "sidewalk"]
    signs = [r for r in regions if r.category == "traffic_sign"]
    out = [_named(f"light{i}", r) for i, r in enumerate(lights)]
    out += [_named(f"walk{i}", r) for i, r in enumerate(walks)]

    sign_dets = [d for d in detections if d.category == "traffic_sign"]
    hit = box_iou(
        np.array([d.bbox for d in sign_dets], dtype=float).reshape(-1, 1, 4),
        np.array([r.bbox for r in signs], dtype=float).reshape(1, -1, 4),
    ) >= iou_min
    claimed = hit.sum(axis=0)
    for i, det in enumerate(sign_dets):
        hits = np.flatnonzero(hit[i])
        if len(hits) == 1 and claimed[hits[0]] == 1:
            geometry = signs[hits[0]]
        else:
            x, y, w, h = det.bbox
            geometry = SceneObject("", "traffic_sign", (y + h / 2.0, x + w / 2.0), float(w * h), det.bbox)
        out.append(_named(f"sign{i}", geometry, det.subtype))
    return out


def scene_objects(
    maps: list[LabelRuns],
    detections: list[list[Detection]],
    cfg: RunConfig = RunConfig(),
) -> list[tuple[list[SceneObject], float]]:
    """Per label map, its image's reconciled objects and tallest pedestrian
    height in pixels (0 if none), from a single extraction over all the maps'
    runs. detections[i] holds the detections of maps[i]'s image."""
    regions = extract_regions(
        maps,
        ["sidewalk", "pedestrian", "traffic_light", "traffic_sign"],
        cfg.min_region_px,
    )
    return [
        (
            reconcile(found, dets, cfg.iou_min),
            max((r.bbox[3] for r in found if r.category == "pedestrian"), default=0.0),
        )
        for found, dets in zip(regions, detections)
    ]
