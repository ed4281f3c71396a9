"""Urban-grammar rules over one image's scene objects.

Four rules turn raw regions into structured evidence: lights are classified
high (suspended over the road, ~7 m) or low (pole-mounted, ~4 m) from their
surround and a downward ray (Rules 1-2); a low light seen on only one side
implies its twin across the road (Rule 4); and each side's objects form
vertical stacks, ordered left to right, with signs and low lights sharing a
pole in one stack and each sidewalk component a stack of its own (Rule 5).
There is no Rule 3; the others keep the numbers the docs cite.
"""

from __future__ import annotations

import logging

import numpy as np

from .config import RunConfig
from .ingest import CATEGORY_IDS
from .labelmap import LabelRuns, concat_runs
from .scene import SceneObject

log = logging.getLogger("rop.grammar")


def side_of(obj: SceneObject, width_px: int) -> str:
    return "left" if obj.centroid[1] < width_px / 2.0 else "right"


# ---------------------------------------------------------------------------
# Rules 1-2: light height classification.


def surround_margins(
    maps: list[LabelRuns],
    boxes: list[list[tuple[float, float, float, float]]],
    ring_px: int,
) -> np.ndarray:
    """Sky pixels minus building pixels in the ring around each (x, y, w, h)
    box of boxes[i] on maps[i], flat in that order: the box widened by
    ring_px on every side and clipped to its map, less the box itself.

    Every box of every map is counted in one pass, and nothing is decoded
    to pixels. C(x), the sky-minus-building count before flat pixel x, is a
    prefix sum over the runs plus the part of x's own run before x; a row's
    stretch [a, b) of a rectangle then counts C(b) - C(a).
    """
    owner = np.repeat(np.arange(len(maps)), [len(b) for b in boxes])
    n = owner.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    bounds, values, base = concat_runs(maps)
    starts = bounds[:-1]
    weight = (values == CATEGORY_IDS["sky"]).astype(np.int64) - (
        values == CATEGORY_IDS["building"]
    )
    counted = weight * np.diff(bounds)
    before = np.cumsum(counted) - counted
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
) -> None:
    """Set light_kind high/low on every light of a track: lights[i] are seen
    on maps[i], whose tallest pedestrian is tallest_peds[i] pixels (0 or None
    if none).

    A sky majority in the ring around the light reads high, a building
    majority low. Only on a tied or empty surround does the downward ray
    decide (see _ray_kind).
    """
    for objs in lights:
        for obj in objs:
            if obj.category != "traffic_light":
                raise ValueError(f"classify_lights on category '{obj.category}'")
    boxes = [[o.bbox for o in objs] for objs in lights]
    margins = iter(surround_margins(maps, boxes, cfg.ring_px).tolist())
    for objs, runs, tallest in zip(lights, maps, tallest_peds):
        for obj in objs:
            margin = next(margins)
            if margin:
                obj.light_kind = "high" if margin > 0 else "low"
            else:
                obj.light_kind = _ray_kind(obj, runs, tallest, cfg)


# ---------------------------------------------------------------------------
# Rule 4: paired low lights.


def infer_pair(
    left: list[SceneObject],
    right: list[SceneObject],
    width_px: int,
) -> SceneObject | None:
    """Low lights flank the road in pairs: when one side shows a low light and
    the other side shows sidewalk but no low light, mirror the light across the
    vertical midline and mark it inferred."""

    def lows(objs):
        return [o for o in objs if o.category == "traffic_light" and o.light_kind == "low"]

    def has_walk(objs):
        return any(o.category == "sidewalk" for o in objs)

    left_lows, right_lows = lows(left), lows(right)
    if left_lows and not right_lows and has_walk(right):
        source_pool = left_lows
    elif right_lows and not left_lows and has_walk(left):
        source_pool = right_lows
    else:
        return None
    src = min(source_pool, key=lambda o: (-o.area_px, o.centroid[1], o.id))
    row, col = src.centroid
    return SceneObject(
        id=f"inferred:{src.id}",
        category="traffic_light",
        centroid=(row, (width_px - 1) - col),
        area_px=src.area_px,
        bbox=None,
        light_kind="low",
        inferred=True,
    )


# ---------------------------------------------------------------------------
# Rule 5: stacks.


def _split_by_nearest_light(cluster: list[SceneObject]) -> list[list[SceneObject]]:
    lights = sorted(
        (o for o in cluster if o.category == "traffic_light"),
        key=lambda o: (o.centroid[1], o.id),
    )
    if len(lights) <= 1:
        return [cluster]
    slot = {id(o): k for k, o in enumerate(lights)}
    buckets: list[list[SceneObject]] = [[] for _ in lights]
    for o in cluster:
        j = slot.get(id(o))
        if j is None:
            j = min(range(len(lights)), key=lambda k: (abs(o.centroid[1] - lights[k].centroid[1]), k))
        buckets[j].append(o)
    return buckets


def _stack_sort_key(members: list[SceneObject]) -> tuple:
    return (
        min(o.centroid[1] for o in members),
        min(o.centroid[0] for o in members),
        min(o.id for o in members),
    )


def stack_objects(
    objs: list[SceneObject], width_px: int, cfg: RunConfig = RunConfig()
) -> dict[str, list[list[SceneObject]]]:
    """Each side's stacks, left to right, each stack top to bottom.

    Signs and low lights cluster per side on centroid column (single linkage,
    threshold stack_dx_frac * width); a cluster holding several lights splits
    by nearest light, and every part is a stack ordered by (row, col, id).
    Every other light is a stack of its own. Stacks order by leftmost member
    column; the side's sidewalks follow, one stack each, by (col, row, id).
    Input order never matters.
    """
    thresh = cfg.stack_dx_frac * width_px
    out: dict[str, list[list[SceneObject]]] = {}
    for side in ("left", "right"):
        mine = [o for o in objs if side_of(o, width_px) == side]
        lights = [o for o in mine if o.category == "traffic_light"]
        pool = sorted(
            [o for o in mine if o.category == "traffic_sign"]
            + [o for o in lights if o.light_kind == "low"],
            key=lambda o: (o.centroid[1], o.id),
        )
        clusters: list[list[SceneObject]] = []
        for o in pool:
            if clusters and o.centroid[1] - clusters[-1][-1].centroid[1] <= thresh:
                clusters[-1].append(o)
            else:
                clusters.append([o])
        stacks = [
            sorted(part, key=lambda o: (o.centroid[0], o.centroid[1], o.id))
            for cluster in clusters
            for part in _split_by_nearest_light(cluster)
        ]
        stacks += [[o] for o in lights if o.light_kind != "low"]
        stacks.sort(key=_stack_sort_key)
        walks = sorted(
            (o for o in mine if o.category == "sidewalk"),
            key=lambda o: (o.centroid[1], o.centroid[0], o.id),
        )
        out[side] = stacks + [[w] for w in walks]
    return out


# ---------------------------------------------------------------------------
# Full per-image pass.


def apply_grammar(
    scenes: list[tuple[list[SceneObject], int]],
    maps: list[LabelRuns],
    cfg: RunConfig = RunConfig(),
) -> list[dict[str, list[list[SceneObject]]]]:
    """Run Rules 1-2, 4 and 5 in order on each image of a track: per image,
    each side's stacks (see stack_objects).

    scenes[i] holds the objects of maps[i]'s image and its tallest
    pedestrian's height in pixels, 0 if none (see scene.scene_objects). The
    lights of every image are classified in one call.
    """
    lights = [[o for o in objs if o.category == "traffic_light"] for objs, _ in scenes]
    classify_lights(lights, maps, [tallest for _, tallest in scenes], cfg)
    out = []
    for (objs, _), runs in zip(scenes, maps):
        width_px = runs.width
        left = [o for o in objs if side_of(o, width_px) == "left"]
        right = [o for o in objs if side_of(o, width_px) == "right"]
        twin = infer_pair(left, right, width_px)
        if twin is not None:
            objs = objs + [twin]
        out.append(stack_objects(objs, width_px, cfg))
    return out
