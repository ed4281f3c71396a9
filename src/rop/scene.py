"""Per-image scene objects from a track's label maps and detections, the
one pass over the track's pixels after labelmap reads them.

Scene objects start as 4-connected components of a semantic label map, named
as they are labelled. Sign components are reconciled against detector output
so each emitted sign carries the detector's subtype while borrowing
pixel-accurate geometry where the match is unambiguous. Lights are classified
high (suspended over the road, ~7 m) or low (pole-mounted, ~4 m) from their
surround and a downward ray (the urban grammar's Rules 1-2). The labelling and
the surround vote read one concatenation of the track's runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .ingest import Detection
from .labelmap import CATEGORY_IDS, CATEGORY_NAMES, LabelRuns


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


# The id prefix of a category's objects; any other category is its own.
_ID_PREFIX = {"sidewalk": "walk", "traffic_light": "light", "traffic_sign": "sign"}


def concat_runs(maps: list[LabelRuns]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of all maps as one sequence, over a flat pixel index that lays
    the maps end to end: pixel p of maps[i] has index base[i] + p. Returns
    (bounds, values, base): run j holds values[j] over [bounds[j],
    bounds[j + 1])."""
    size = np.array([m.width * m.height for m in maps])
    base = np.cumsum(size) - size
    bounds = np.concatenate([*(m.starts + b for m, b in zip(maps, base.tolist())), [size.sum()]])
    return bounds, np.concatenate([m.values for m in maps]), base


def extract_regions(
    maps: list[LabelRuns],
    categories: list[str],
    min_region_px: int,
    joined: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> list[list[SceneObject]]:
    """Per label map, its connected components (4-connectivity) of the given
    categories as scene objects, smaller than min_region_px dropped, ordered
    by (category id, first pixel index), in each map's own pixel coordinates.
    Each is named by its category's prefix and its index among its map's
    components of that category: light0, light1, walk0, ... joined is
    concat_runs(maps), when the caller has it.

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
    bounds, values, base = joined or concat_runs(maps)
    keep = np.flatnonzero(wanted.take(values))  # take: far faster than indexing by uint8
    if keep.size == 0:
        return out
    value = values[keep]
    first = bounds[keep]
    k = np.searchsorted(base, first, side="right") - 1
    local = first - base[k]
    length = bounds[keep + 1] - first
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
    prefix = {CATEGORY_IDS[n]: _ID_PREFIX.get(n, n) for n in categories}
    last, i = None, 0
    for m, v, cy, cx, a, x, y, w, h in zip(*(c[s].tolist() for c in columns)):
        i = i + 1 if (m, v) == last else 0
        last = (m, v)
        out[m].append(SceneObject(f"{prefix[v]}{i}", CATEGORY_NAMES[v], (cy, cx), a, (x, y, w, h)))
    return out


def box_iou(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """IoU of two (x, y, w, h) boxes, 0 where the union is empty."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def reconcile(
    regions: list[SceneObject],
    detections: list[Detection],
    iou_min: float,
) -> list[SceneObject]:
    """Fuse one image's sign components (extract_regions) with its sign
    detections.

    Lights and sidewalks pass through as they are. Each sign detection i, in
    (bbox, subtype, score) order, not line order, yields one object, sign{i}.
    When exactly one detection overlaps exactly one sign component at IoU >=
    iou_min, that component becomes the object, keeping its centroid, area,
    and bbox; otherwise geometry derives from the detection bbox alone. Sign
    components no detection claims are dropped (the detector is the authority
    on sign existence), and detections of other categories are ignored here.
    """
    out = [r for r in regions if r.category == "traffic_light"]
    out += [r for r in regions if r.category == "sidewalk"]
    signs = [r for r in regions if r.category == "traffic_sign"]
    sign_dets = [d for d in detections if d.category == "traffic_sign"]
    sign_dets.sort(key=lambda d: (d.bbox, d.subtype or "", d.score))
    boxes = [r.bbox for r in signs]
    hits = [[j for j, box in enumerate(boxes) if box_iou(d.bbox, box) >= iou_min] for d in sign_dets]
    claimed = [j for row in hits for j in row]  # each component once per detection that overlaps it
    for i, (det, row) in enumerate(zip(sign_dets, hits)):
        if len(row) == 1 and claimed.count(row[0]) == 1:
            obj = signs[row[0]]
            obj.id, obj.subtype = f"sign{i}", det.subtype
        else:
            x, y, w, h = det.bbox
            obj = SceneObject(
                f"sign{i}", "traffic_sign", (y + h / 2.0, x + w / 2.0), float(w * h), det.bbox, det.subtype
            )
        out.append(obj)
    return out


# ---------------------------------------------------------------------------
# Rules 1-2: light height classification.


# Each label byte's weight in the surround vote: +1 for sky, -1 for building.
_SKY_MINUS_BUILDING = np.zeros(256, dtype=np.int64)
_SKY_MINUS_BUILDING[[CATEGORY_IDS["sky"], CATEGORY_IDS["building"]]] = (1, -1)


def surround_margins(
    maps: list[LabelRuns],
    boxes: list[list[tuple[float, float, float, float]]],
    ring_px: int,
    joined: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Sky pixels minus building pixels in the ring around each (x, y, w, h)
    box of boxes[i] on maps[i], flat in that order: the box widened by
    ring_px on every side and clipped to its map, less the box itself.
    joined is concat_runs(maps), when the caller has it.

    Every box of every map is counted in one pass, and nothing is decoded
    to pixels. C(x), the sky-minus-building count before flat pixel x, is a
    prefix sum over the runs plus the part of x's own run before x; a row's
    stretch [a, b) of a rectangle then counts C(b) - C(a).
    """
    owner = np.repeat(np.arange(len(maps)), [len(b) for b in boxes])
    n = owner.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    bounds, values, base = joined or concat_runs(maps)
    starts = bounds[:-1]
    weight = _SKY_MINUS_BUILDING.take(values)
    counted = weight * (bounds[1:] - bounds[:-1])
    before = np.zeros_like(counted)
    np.cumsum(counted[:-1], out=before[1:])
    box = np.array([b for per_map in boxes for b in per_map], dtype=float)
    lo = np.floor(box[:, :2]).astype(np.int64)
    hi = np.ceil(box[:, :2] + box[:, 2:]).astype(np.int64)
    # Rectangle j < n is box j widened by the ring, rectangle n + j is box j,
    # each from corner r0 to r1 in (x, y) columns, clipped to its map.
    rect_owner = np.tile(owner, 2)
    size = np.array([(m.width, m.height) for m in maps])[rect_owner]
    r0 = np.clip(np.concatenate([lo - ring_px, lo]), 0, size)
    r1 = np.clip(np.concatenate([hi + ring_px, hi]), 0, size)
    rows = np.where(r1[:, 0] > r0[:, 0], np.maximum(r1[:, 1] - r0[:, 1], 0), 0)
    rect = np.repeat(np.arange(2 * n), rows)
    y = r0[rect, 1] + np.arange(rect.size) - np.repeat(np.cumsum(rows) - rows, rows)
    line = base[rect_owner[rect]] + y * size[rect, 0]
    x = np.concatenate([line + r0[rect, 0], line + r1[rect, 0]])
    i = np.searchsorted(starts, x, side="right") - 1
    c = before[i] + (x - starts[i]) * weight[i]
    per_rect = np.bincount(rect, weights=c[rect.size :] - c[: rect.size], minlength=2 * n)
    return (per_rect[:n] - per_rect[n:]).astype(np.int64)


def _ray_kind(obj: SceneObject, runs: LabelRuns, tallest_ped: float | None, cfg: RunConfig) -> str:
    """high when the drop from the light centroid down its column to the
    first road or sidewalk pixel exceeds high_factor times the tallest
    pedestrian (fallback: a fixed fraction of the image height); low
    otherwise, and when the ray exits the image."""
    big_h, big_w = runs.height, runs.width
    row, col = obj.centroid
    c = min(max(int(round(col)), 0), big_w - 1)
    r0 = int(round(row))
    if r0 + 1 >= big_h:
        return "low"
    # The run holding each pixel of column c below the light.
    pixels = np.arange(r0 + 1, big_h) * big_w + c
    column = runs.values[np.searchsorted(runs.starts, pixels, side="right") - 1]
    ground = (column == CATEGORY_IDS["road"]) | (column == CATEGORY_IDS["sidewalk"])
    hits = np.flatnonzero(ground)
    h = tallest_ped or cfg.pedestrian_fallback_frac * big_h
    return "high" if hits.size and float(r0 + 1 + hits[0]) - row > cfg.high_factor * h else "low"


def classify_lights(
    lights: list[list[SceneObject]],
    maps: list[LabelRuns],
    tallest_peds: list[float | None],
    cfg: RunConfig = RunConfig(),
    joined: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """Set light_kind high/low on every light of a track: lights[i] are seen
    on maps[i], whose tallest pedestrian is tallest_peds[i] pixels (0 or None
    if none). joined is concat_runs(maps), when the caller has it. The one
    caller, scene_objects, passes lights only.

    A sky majority in the ring around the light reads high, a building
    majority low. Only on a tied or empty surround does the downward ray
    decide (see _ray_kind).
    """
    boxes = [[o.bbox for o in objs] for objs in lights]
    margins = iter(surround_margins(maps, boxes, cfg.ring_px, joined).tolist())
    for objs, runs, tallest in zip(lights, maps, tallest_peds):
        for obj in objs:
            margin = next(margins)
            if margin:
                obj.light_kind = "high" if margin > 0 else "low"
            else:
                obj.light_kind = _ray_kind(obj, runs, tallest, cfg)


# ---------------------------------------------------------------------------
# A track's scenes.


def scene_objects(
    maps: list[LabelRuns],
    detections: list[list[Detection]],
    cfg: RunConfig = RunConfig(),
) -> list[list[SceneObject]]:
    """Per label map of a track, its image's finished objects: lights
    classified high or low, sidewalks, and signs reconciled with
    detections[i], the detections of maps[i]'s image. The maps' runs are
    concatenated once, and both the labelling and the lights' surround vote
    read that concatenation; each image's tallest pedestrian scales its
    lights' downward ray and is not returned."""
    if not maps:
        return []
    joined = concat_runs(maps)
    regions = extract_regions(
        maps,
        ["sidewalk", "pedestrian", "traffic_light", "traffic_sign"],
        cfg.min_region_px,
        joined,
    )
    scenes = [reconcile(found, dets, cfg.iou_min) for found, dets in zip(regions, detections)]
    classify_lights(
        [[o for o in objs if o.category == "traffic_light"] for objs in scenes],
        maps,
        [max((r.bbox[3] for r in found if r.category == "pedestrian"), default=0.0) for found in regions],
        cfg,
        joined,
    )
    return scenes
