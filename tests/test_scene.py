"""Region extraction and detection reconciliation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.ingest import DEFAULT_REGISTRY, Detection
from rop.scene import (
    Region,
    SceneObject,
    box_iou,
    extract_regions,
    reconcile,
    scene_objects,
)

LIGHT = DEFAULT_REGISTRY.id_of("traffic_light")
SIGN = DEFAULT_REGISTRY.id_of("traffic_sign")
WALK = DEFAULT_REGISTRY.id_of("sidewalk")
PED = DEFAULT_REGISTRY.id_of("pedestrian")
ROAD = DEFAULT_REGISTRY.id_of("road")


# ---------------------------------------------------------------------------
# Oracle: scanline flood fill with explicit 4-neighbourhood, no scipy.


def flood_regions_oracle(label_map, cid):
    lab = np.asarray(label_map)
    h, w = lab.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for r0 in range(h):
        for c0 in range(w):
            if lab[r0, c0] != cid or seen[r0, c0]:
                continue
            stack = [(r0, c0)]
            seen[r0, c0] = True
            px = []
            while stack:
                r, c = stack.pop()
                px.append((r, c))
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < h and 0 <= nc < w and not seen[nr, nc] and lab[nr, nc] == cid:
                        seen[nr, nc] = True
                        stack.append((nr, nc))
            rows = [p[0] for p in px]
            cols = [p[1] for p in px]
            comps.append(
                dict(
                    area=len(px),
                    centroid=(sum(rows) / len(px), sum(cols) / len(px)),
                    bbox=(min(cols), min(rows), max(cols) - min(cols) + 1, max(rows) - min(rows) + 1),
                    first_px=min(r * w + c for r, c in px),
                )
            )
    comps.sort(key=lambda d: d["first_px"])
    return comps


def as_dicts(regions):
    return [
        dict(area=r.area_px, centroid=r.centroid, bbox=r.bbox, first_px=r.first_px)
        for r in regions
    ]


# ---------------------------------------------------------------------------
# extract_regions.


def test_extract_single_block_geometry():
    lab = np.zeros((10, 10), dtype=np.uint8)
    lab[3:6, 2:5] = LIGHT
    (region,) = extract_regions(lab, categories=["traffic_light"], min_region_px=1)
    assert region.category == "traffic_light"
    assert region.area_px == 9
    assert region.centroid == (4.0, 3.0)
    assert region.bbox == (2, 3, 3, 3)
    assert region.first_px == 3 * 10 + 2


def test_extract_min_region_px_filter():
    lab = np.zeros((10, 10), dtype=np.uint8)
    lab[0, 0:3] = LIGHT  # area 3
    lab[5:8, 5:8] = LIGHT  # area 9
    got = extract_regions(lab, categories=["traffic_light"], min_region_px=4)
    assert [r.area_px for r in got] == [9]
    assert extract_regions(lab, categories=["traffic_light"], min_region_px=10) == []


def test_extract_four_connectivity_splits_diagonal():
    lab = np.zeros((4, 4), dtype=np.uint8)
    lab[0, 0] = LIGHT
    lab[1, 1] = LIGHT
    got = extract_regions(lab, categories=["traffic_light"], min_region_px=1)
    assert len(got) == 2
    assert [r.area_px for r in got] == [1, 1]


def test_extract_orders_by_category_then_first_pixel():
    lab = np.zeros((6, 12), dtype=np.uint8)
    lab[4, 8:10] = WALK  # category 2, first_px 56
    lab[0, 10:12] = SIGN  # category 7, first_px 10
    lab[2, 0:2] = LIGHT  # category 6, first_px 24
    lab[2, 6:8] = LIGHT  # category 6, first_px 30
    got = extract_regions(
        lab, categories=["sidewalk", "traffic_light", "traffic_sign"], min_region_px=1
    )
    assert [(r.category, r.first_px) for r in got] == [
        ("sidewalk", 56),
        ("traffic_light", 24),
        ("traffic_light", 30),
        ("traffic_sign", 10),
    ]


def test_extract_respects_category_selection():
    lab = np.zeros((6, 6), dtype=np.uint8)
    lab[0:3, 0:3] = LIGHT
    lab[3:6, 3:6] = SIGN
    got = extract_regions(lab, categories=["traffic_sign"], min_region_px=1)
    assert [r.category for r in got] == ["traffic_sign"]


def test_extract_rejects_non_2d():
    with pytest.raises(ValueError):
        extract_regions(np.zeros((2, 2, 2), dtype=np.uint8))


def random_map(seed, h=14, w=17):
    rng = np.random.default_rng(seed)
    # Sparse-ish values so components have interesting shapes.
    lab = rng.choice(
        np.array([0, 0, 0, ROAD, WALK, LIGHT, SIGN, PED], dtype=np.uint8), size=(h, w)
    )
    return lab


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extract_matches_flood_fill_oracle(seed):
    lab = random_map(seed)
    for name in ("road", "sidewalk", "traffic_light", "traffic_sign", "pedestrian"):
        got = extract_regions(lab, categories=[name], min_region_px=1)
        want = flood_regions_oracle(lab, DEFAULT_REGISTRY.id_of(name))
        assert as_dicts(got) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extract_conserves_pixels(seed):
    lab = random_map(seed)
    for name in ("road", "traffic_light", "pedestrian"):
        got = extract_regions(lab, categories=[name], min_region_px=1)
        assert sum(r.area_px for r in got) == int((lab == DEFAULT_REGISTRY.id_of(name)).sum())


SCENE = ["sidewalk", "pedestrian", "traffic_light", "traffic_sign"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.03, 0.15, 1.0]), st.integers(0, 12))
def test_extract_min_region_px_matches_oracle(seed, density, min_px):
    # Sparse maps leave some categories with fewer than min_px pixels in all.
    rng = np.random.default_rng(seed)
    lab = np.where(rng.random((14, 17)) < density, random_map(seed), 0).astype(np.uint8)
    singles = []
    for name in SCENE:
        got = extract_regions(lab, categories=[name], min_region_px=min_px)
        want = [
            c for c in flood_regions_oracle(lab, DEFAULT_REGISTRY.id_of(name)) if c["area"] >= min_px
        ]
        assert as_dicts(got) == want
        assert all(r.category == name for r in got)
        singles.extend(got)
    assert extract_regions(lab, categories=SCENE[::-1], min_region_px=min_px) == singles


@pytest.mark.parametrize("min_px", [0, 1, 25])
def test_extract_map_without_requested_categories(min_px):
    lab = np.full((8, 9), ROAD, dtype=np.uint8)
    lab[0:2, 0:2] = 0
    assert extract_regions(lab, categories=SCENE, min_region_px=min_px) == []


def test_extract_category_below_min_in_total():
    lab = np.zeros((10, 10), dtype=np.uint8)
    lab[0, 0:4] = LIGHT
    lab[5, 0:4] = LIGHT  # 8 light pixels in two components
    lab[2:5, 5:8] = SIGN  # 9 sign pixels in one component
    got = extract_regions(lab, categories=["traffic_light", "traffic_sign"], min_region_px=9)
    assert [(r.category, r.area_px) for r in got] == [("traffic_sign", 9)]


# ---------------------------------------------------------------------------
# box_iou.


def test_box_iou_values():
    assert box_iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0
    assert box_iou((0, 0, 4, 4), (10, 10, 2, 2)) == 0.0
    assert box_iou((0, 0, 4, 4), (2, 0, 4, 4)) == pytest.approx(8 / 24)
    assert box_iou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0
    # Touching edges share no area.
    assert box_iou((0, 0, 2, 2), (2, 0, 2, 2)) == 0.0


# ---------------------------------------------------------------------------
# reconcile.


def det(bbox, subtype="stop", score=0.9, category="traffic_sign"):
    return Detection(image_id="i0", category=category, subtype=subtype, bbox=bbox, score=score)


def region(category, bbox, area=None, first_px=0):
    x, y, w, h = bbox
    return Region(
        category=category,
        centroid=(y + h / 2 - 0.5, x + w / 2 - 0.5),
        area_px=area if area is not None else w * h,
        bbox=bbox,
        first_px=first_px,
    )


def test_reconcile_unique_match_uses_region_geometry():
    r = region("traffic_sign", (10, 20, 6, 6), area=30)
    got = reconcile([r], [det((11, 21, 6, 6))])
    (obj,) = got
    assert obj.id == "sign0"
    assert obj.source == "region"
    assert obj.subtype == "stop"
    assert obj.score == 0.9
    assert obj.area_px == 30.0
    assert obj.centroid == r.centroid
    assert obj.bbox == (10.0, 20.0, 6.0, 6.0)


def test_reconcile_unmatched_detection_uses_bbox():
    got = reconcile([], [det((10.0, 20.0, 6.0, 8.0))])
    (obj,) = got
    assert obj.source == "detection"
    assert obj.centroid == (24.0, 13.0)
    assert obj.area_px == 48.0
    assert obj.bbox == (10.0, 20.0, 6.0, 8.0)


def test_reconcile_two_detections_one_region_all_bbox_derived():
    r = region("traffic_sign", (10, 20, 10, 10))
    d1 = det((10, 20, 10, 10))
    d2 = det((11, 21, 10, 10), subtype="yield")
    got = reconcile([r], [d1, d2])
    assert [o.id for o in got] == ["sign0", "sign1"]
    assert all(o.source == "detection" for o in got)
    assert got[1].subtype == "yield"


def test_reconcile_detection_over_two_regions_is_bbox_derived():
    r1 = region("traffic_sign", (0, 0, 10, 4))
    r2 = region("traffic_sign", (0, 5, 10, 4))
    d = det((0, 0, 10, 9))  # IoU 4/9 with each region
    assert box_iou(d.bbox, (0.0, 0.0, 10.0, 4.0)) >= 0.3
    got = reconcile([r1, r2], [d])
    (obj,) = got
    assert obj.source == "detection"


def test_reconcile_drops_unclaimed_sign_regions():
    r = region("traffic_sign", (50, 50, 8, 8))
    assert reconcile([r], []) == []


def test_reconcile_below_iou_threshold_is_no_match():
    r = region("traffic_sign", (0, 0, 10, 10))
    d = det((8, 8, 10, 10))  # IoU = 4 / 196
    got = reconcile([r], [d], iou_min=0.3)
    assert got[0].source == "detection"


def test_reconcile_passes_lights_and_walks_through():
    rl = region("traffic_light", (2, 2, 3, 9))
    rw = region("sidewalk", (0, 40, 30, 8))
    got = reconcile([rl, rw], [])
    assert [(o.id, o.category) for o in got] == [
        ("light0", "traffic_light"),
        ("walk0", "sidewalk"),
    ]
    assert got[0].centroid == rl.centroid
    assert got[0].light_kind is None
    assert not got[0].inferred


def test_reconcile_ignores_non_sign_detections():
    got = reconcile([], [det((0, 0, 5, 5), category="vehicle")])
    assert got == []


# ---------------------------------------------------------------------------
# Pedestrian height and assembled scenes.


def test_tallest_pedestrian_px():
    lab = np.zeros((40, 40), dtype=np.uint8)
    lab[10:30, 3:6] = PED  # height 20
    lab[20:28, 20:24] = PED  # height 8
    assert scene_objects(lab, [], min_region_px=1)[1] == 20
    assert scene_objects(np.zeros((5, 5), dtype=np.uint8), [], min_region_px=1)[1] == 0
    lab[0:30, 30:32] = LIGHT
    objs, tallest = scene_objects(lab, [], min_region_px=1)
    assert tallest == 20
    assert [o.category for o in objs] == ["traffic_light"]


def test_build_scene_end_to_end():
    lab = np.zeros((60, 80), dtype=np.uint8)
    lab[10:20, 10:14] = LIGHT
    lab[30:36, 50:56] = SIGN
    lab[50:60, 0:40] = WALK
    got, _ = scene_objects(lab, [det((50.0, 30.0, 6.0, 6.0))], min_region_px=9)
    kinds = {(o.id, o.category, o.source) for o in got}
    assert kinds == {
        ("light0", "traffic_light", "region"),
        ("walk0", "sidewalk", "region"),
        ("sign0", "traffic_sign", "region"),
    }
    sign = next(o for o in got if o.category == "traffic_sign")
    assert sign.centroid == (32.5, 52.5)
