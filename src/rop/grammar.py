"""Urban-grammar rules over one image's scene objects.

Five rules turn raw regions into structured evidence: lights are classified
high (suspended over the road, ~7 m) or low (pole-mounted, ~4 m) from their
surround and a downward ray; sidewalk fragments on one side merge; a low light
seen on only one side implies its twin across the road; signs and low lights
sharing a vertical stack form combination patterns.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .ingest import CATEGORY_IDS
from .labelmap import LabelRuns
from .scene import SceneObject

log = logging.getLogger("rop.grammar")


@dataclass
class PatternGroup:
    members: list[str]  # SceneObject ids, top to bottom
    kind: str  # sign_alone | sign_above_light | signs_above_and_below_light | sign_stack
    side: str  # left | right


def side_of(obj: SceneObject, width_px: int) -> str:
    return "left" if obj.centroid[1] < width_px / 2.0 else "right"


# ---------------------------------------------------------------------------
# Rules 1-2: light height classification.


def _surround_vote(
    runs: LabelRuns,
    bbox: tuple[float, float, float, float],
    ring_px: int,
) -> str | None:
    """Majority of {sky, building} in a ring around the bbox; None on a tie.
    Only the ring's band of rows is decoded."""
    big_h, big_w = runs.height, runs.width
    x, y, w, h = bbox
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = int(np.ceil(x + w)), int(np.ceil(y + h))
    ox0, oy0 = max(0, x0 - ring_px), max(0, y0 - ring_px)
    ox1, oy1 = min(big_w, x1 + ring_px), min(big_h, y1 + ring_px)
    band = runs.rows(oy0, max(oy0, oy1))
    outer = np.bincount(band[:, ox0:ox1].ravel(), minlength=256)
    ix0, iy0 = max(0, x0), max(0, y0)
    ix1, iy1 = min(big_w, x1), min(big_h, y1)
    if ix1 > ix0 and iy1 > iy0:
        outer -= np.bincount(band[iy0 - oy0 : iy1 - oy0, ix0:ix1].ravel(), minlength=256)
    sky = int(outer[CATEGORY_IDS["sky"]])
    building = int(outer[CATEGORY_IDS["building"]])
    if sky > building:
        return "sky"
    if building > sky:
        return "building"
    return None


def classify_light(
    obj: SceneObject,
    runs: LabelRuns,
    tallest_ped: int | None = None,
    cfg: RunConfig = RunConfig(),
) -> str:
    """Assign light_kind high/low from the surround ring, else a downward ray.

    A sky majority in the ring around the light reads high, a building
    majority low. Only on a tied or empty surround does the ray decide: from
    the light centroid down to the first road or sidewalk pixel it measures the
    drop d, the tallest pedestrian (fallback: a fixed fraction of the image
    height) gives the scale h, and d > high_factor*h reads high. A ray that
    exits the image reads low.
    """
    if obj.category != "traffic_light":
        raise ValueError(f"classify_light on category '{obj.category}'")
    big_h, big_w = runs.height, runs.width
    bbox = obj.bbox
    if bbox is None:
        r, c = obj.centroid
        bbox = (c, r, 1.0, 1.0)
    surround = _surround_vote(runs, bbox, cfg.ring_px)
    if surround is not None:
        kind = "high" if surround == "sky" else "low"
    else:
        row, col = obj.centroid
        c = min(max(int(round(col)), 0), big_w - 1)
        r0 = int(round(row))
        kind = "low"
        if r0 + 1 < big_h:
            # The run holding each pixel of column c below the light.
            pixels = np.arange(r0 + 1, big_h) * big_w + c
            column = runs.values[np.searchsorted(runs.starts, pixels, side="right") - 1]
            ground = (column == CATEGORY_IDS["road"]) | (column == CATEGORY_IDS["sidewalk"])
            hits = np.flatnonzero(ground)
            h = float(tallest_ped) if tallest_ped else cfg.pedestrian_fallback_frac * big_h
            if hits.size and float(r0 + 1 + hits[0]) - row > cfg.high_factor * h:
                kind = "high"
    obj.light_kind = kind
    return kind


# ---------------------------------------------------------------------------
# Rule 3: sidewalk merging.


def _merged_walk(members: list[SceneObject]) -> SceneObject:
    members = sorted(members, key=lambda o: (o.bbox[0], o.id))
    x0 = min(o.bbox[0] for o in members)
    y0 = min(o.bbox[1] for o in members)
    x1 = max(o.bbox[0] + o.bbox[2] for o in members)
    y1 = max(o.bbox[1] + o.bbox[3] for o in members)
    area = sum(o.area_px for o in members)
    row = sum(o.centroid[0] * o.area_px for o in members) / area
    col = sum(o.centroid[1] * o.area_px for o in members) / area
    return SceneObject(
        id=members[0].id,
        category="sidewalk",
        centroid=(row, col),
        area_px=area,
        bbox=(x0, y0, x1 - x0, y1 - y0),
        source="region",
    )


def merge_sidewalks(
    objs: list[SceneObject], width_px: int, cfg: RunConfig = RunConfig()
) -> list[SceneObject]:
    """Chain-merge same-side sidewalk blocks whose horizontal gap fits the
    threshold (transitively); everything else passes through. Output order is
    canonical, so the result does not depend on input order."""
    walks = [o for o in objs if o.category == "sidewalk"]
    rest = [o for o in objs if o.category != "sidewalk"]
    merged: list[SceneObject] = []
    for side in ("left", "right"):
        blocks = sorted(
            (o for o in walks if side_of(o, width_px) == side),
            key=lambda o: (o.bbox[0], o.id),
        )
        chain: list[SceneObject] = []
        reach = None
        for o in blocks:
            if chain and o.bbox[0] - reach > cfg.sidewalk_gap_px:
                merged.append(_merged_walk(chain))
                chain = []
                reach = None
            chain.append(o)
            right_edge = o.bbox[0] + o.bbox[2]
            reach = right_edge if reach is None else max(reach, right_edge)
        if chain:
            merged.append(_merged_walk(chain))
    out = rest + merged
    out.sort(key=lambda o: (o.category, o.centroid[1], o.centroid[0], o.id))
    return out


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
        source="inferred",
        light_kind="low",
        inferred=True,
    )


# ---------------------------------------------------------------------------
# Rule 5: sign/light combination patterns.


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


def group_patterns(
    objs: list[SceneObject], width_px: int, cfg: RunConfig = RunConfig()
) -> list[PatternGroup]:
    """Cluster signs and low lights per side on centroid column (single
    linkage, threshold stack_dx_frac * width). Clusters holding at least one
    sign become groups; lone lights stay ungrouped; high lights never join."""
    thresh = cfg.stack_dx_frac * width_px
    groups: list[PatternGroup] = []
    for side in ("left", "right"):
        pool = sorted(
            (
                o
                for o in objs
                if side_of(o, width_px) == side
                and (
                    o.category == "traffic_sign"
                    or (o.category == "traffic_light" and o.light_kind == "low")
                )
            ),
            key=lambda o: (o.centroid[1], o.id),
        )
        clusters: list[list[SceneObject]] = []
        for o in pool:
            if clusters and o.centroid[1] - clusters[-1][-1].centroid[1] <= thresh:
                clusters[-1].append(o)
            else:
                clusters.append([o])
        for cluster in clusters:
            for part in _split_by_nearest_light(cluster):
                signs = [o for o in part if o.category == "traffic_sign"]
                if not signs:
                    continue
                light = next((o for o in part if o.category == "traffic_light"), None)
                if light is None:
                    kind = "sign_alone" if len(signs) == 1 else "sign_stack"
                elif any(s.centroid[0] < light.centroid[0] for s in signs) and any(
                    s.centroid[0] > light.centroid[0] for s in signs
                ):
                    kind = "signs_above_and_below_light"
                else:
                    kind = "sign_above_light"
                ordered = sorted(part, key=lambda o: (o.centroid[0], o.centroid[1], o.id))
                groups.append(PatternGroup(members=[o.id for o in ordered], kind=kind, side=side))
    return groups


# ---------------------------------------------------------------------------
# Full per-image pass.


def apply_grammar(
    objs: list[SceneObject],
    runs: LabelRuns,
    tallest_ped: int,
    cfg: RunConfig = RunConfig(),
) -> tuple[list[SceneObject], list[PatternGroup]]:
    """Run Rules 1-5 in order on one image's objects.

    tallest_ped is the tallest pedestrian's height in pixels, 0 if none (see
    scene.scene_objects).
    """
    width_px = runs.width
    for obj in objs:
        if obj.category == "traffic_light" and not obj.inferred:
            classify_light(obj, runs, tallest_ped or None, cfg)
    objs = merge_sidewalks(objs, width_px, cfg)
    left = [o for o in objs if side_of(o, width_px) == "left"]
    right = [o for o in objs if side_of(o, width_px) == "right"]
    twin = infer_pair(left, right, width_px)
    if twin is not None:
        objs = objs + [twin]
    return objs, group_patterns(objs, width_px, cfg)
