"""Connected-component extraction and detection reconciliation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.config import RunConfig
from rop.ingest import Detection
from rop.labelmap import CATEGORY_IDS, read_label_map, runs_of, write_rle
from rop.scene import (
    SceneObject,
    box_iou,
    extract_regions,
    reconcile,
    scene_objects,
)

LIGHT = CATEGORY_IDS["traffic_light"]
SIGN = CATEGORY_IDS["traffic_sign"]
WALK = CATEGORY_IDS["sidewalk"]
PED = CATEGORY_IDS["pedestrian"]
ROAD = CATEGORY_IDS["road"]
IOU_MIN = RunConfig().iou_min


# ---------------------------------------------------------------------------
# Oracle: pixel-by-pixel flood fill with an explicit 4-neighbourhood; it
# shares nothing with the run-based labeling under test.


def flood_regions_oracle(label_map, cid):
    """The components of category cid, in first-pixel order."""
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
            first_px = min(r * w + c for r, c in px)
            comps.append(
                (
                    first_px,
                    dict(
                        area=len(px),
                        centroid=(sum(rows) / len(px), sum(cols) / len(px)),
                        bbox=(min(cols), min(rows), max(cols) - min(cols) + 1, max(rows) - min(rows) + 1),
                    ),
                )
            )
    comps.sort(key=lambda c: c[0])
    return [c for _, c in comps]


def as_dicts(regions):
    return [dict(area=r.area_px, centroid=r.centroid, bbox=r.bbox) for r in regions]


# ---------------------------------------------------------------------------
# extract_regions.


def test_extract_single_block_geometry():
    lab = np.zeros((10, 10), dtype=np.uint8)
    lab[3:6, 2:5] = LIGHT
    (region,) = extract_regions([runs_of(lab)], categories=["traffic_light"], min_region_px=1)[0]
    assert region == SceneObject(
        id="light0", category="traffic_light", centroid=(4.0, 3.0), area_px=9.0, bbox=(2.0, 3.0, 3.0, 3.0)
    )
    assert all(type(v) is float for v in (region.area_px, *region.centroid, *region.bbox))


def test_extract_min_region_px_filter():
    lab = np.zeros((10, 10), dtype=np.uint8)
    lab[0, 0:3] = LIGHT  # area 3
    lab[5:8, 5:8] = LIGHT  # area 9
    got = extract_regions([runs_of(lab)], categories=["traffic_light"], min_region_px=4)[0]
    assert [r.area_px for r in got] == [9]
    assert extract_regions([runs_of(lab)], categories=["traffic_light"], min_region_px=10)[0] == []


def test_extract_four_connectivity_splits_diagonal():
    lab = np.zeros((4, 4), dtype=np.uint8)
    lab[0, 0] = LIGHT
    lab[1, 1] = LIGHT
    got = extract_regions([runs_of(lab)], categories=["traffic_light"], min_region_px=1)[0]
    assert len(got) == 2
    assert [r.area_px for r in got] == [1, 1]


def test_extract_orders_by_category_then_first_pixel():
    lab = np.zeros((6, 12), dtype=np.uint8)
    lab[4, 8:10] = WALK  # category 2, first pixel 56
    lab[0, 10:12] = SIGN  # category 7, first pixel 10
    lab[2, 6:8] = LIGHT  # category 6, first pixel 30
    lab[2, 0:2] = LIGHT  # category 6, first pixel 24
    names = ["traffic_sign", "sidewalk", "traffic_light"]
    got = extract_regions([runs_of(lab)], categories=names, min_region_px=1)[0]
    want = [
        (name, c)
        for name in sorted(names, key=CATEGORY_IDS.get)
        for c in flood_regions_oracle(lab, CATEGORY_IDS[name])
    ]
    assert list(zip([r.category for r in got], as_dicts(got))) == want
    assert [(name, c["bbox"]) for name, c in want] == [
        ("sidewalk", (8, 4, 2, 1)),
        ("traffic_light", (0, 2, 2, 1)),
        ("traffic_light", (6, 2, 2, 1)),
        ("traffic_sign", (10, 0, 2, 1)),
    ]
    # Each is named as it is labelled, by category and order in its map.
    assert [r.id for r in got] == ["walk0", "light0", "light1", "sign0"]


def test_extract_respects_category_selection():
    lab = np.zeros((6, 6), dtype=np.uint8)
    lab[0:3, 0:3] = LIGHT
    lab[3:6, 3:6] = SIGN
    got = extract_regions([runs_of(lab)], categories=["traffic_sign"], min_region_px=1)[0]
    assert [r.category for r in got] == ["traffic_sign"]


def test_extract_rejects_non_2d():
    with pytest.raises(ValueError):
        extract_regions([runs_of(np.zeros((2, 2, 2), dtype=np.uint8))], ["road"], 1)


def random_map(seed, h=14, w=17):
    rng = np.random.default_rng(seed)
    # Sparse-ish values so components have interesting shapes.
    lab = rng.choice(
        np.array([0, 0, 0, ROAD, WALK, LIGHT, SIGN, PED], dtype=np.uint8), size=(h, w)
    )
    return lab


SIDE = st.integers(1, 24)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), SIDE, SIDE)
def test_extract_matches_flood_fill_oracle(seed, h, w):
    lab = random_map(seed, h, w)
    for name in ("road", "sidewalk", "traffic_light", "traffic_sign", "pedestrian"):
        got = extract_regions([runs_of(lab)], categories=[name], min_region_px=1)[0]
        want = flood_regions_oracle(lab, CATEGORY_IDS[name])
        assert as_dicts(got) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), SIDE, SIDE)
def test_extract_from_rle_file_matches_pixels_and_oracle(tmp_path_factory, seed, h, w):
    lab = random_map(seed, h, w)
    path = str(tmp_path_factory.mktemp("rle") / "m.rle")
    write_rle(path, runs_of(lab))
    from_file = read_label_map(path)
    for name in ("road", "sidewalk", "traffic_light", "traffic_sign", "pedestrian"):
        got = extract_regions([from_file], categories=[name], min_region_px=1)[0]
        assert got == extract_regions([runs_of(lab)], categories=[name], min_region_px=1)[0]
        assert as_dicts(got) == flood_regions_oracle(lab, CATEGORY_IDS[name])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extract_conserves_pixels(seed):
    lab = random_map(seed)
    for name in ("road", "traffic_light", "pedestrian"):
        got = extract_regions([runs_of(lab)], categories=[name], min_region_px=1)[0]
        assert sum(r.area_px for r in got) == int((lab == CATEGORY_IDS[name]).sum())


SCENE = ["sidewalk", "pedestrian", "traffic_light", "traffic_sign"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), SIDE, SIDE, st.sampled_from([0.03, 0.15, 1.0]), st.integers(0, 12))
def test_extract_min_region_px_matches_oracle(seed, h, w, density, min_px):
    # Sparse maps leave some categories with fewer than min_px pixels in all.
    rng = np.random.default_rng(seed)
    lab = np.where(rng.random((h, w)) < density, random_map(seed, h, w), 0).astype(np.uint8)
    singles = []
    for name in SCENE:
        got = extract_regions([runs_of(lab)], categories=[name], min_region_px=min_px)[0]
        want = [
            c for c in flood_regions_oracle(lab, CATEGORY_IDS[name]) if c["area"] >= min_px
        ]
        assert as_dicts(got) == want
        assert all(r.category == name for r in got)
        singles.extend(got)
    assert extract_regions([runs_of(lab)], categories=SCENE[::-1], min_region_px=min_px)[0] == singles


def random_track(seed, shapes, joined):
    """Random label maps of the given (height, width) shapes. When joined,
    each map's last row and the next map's first row hold a light across the
    columns they share, so maps stacked without a gap would join there."""
    labs = [random_map(seed + i, h, w) for i, (h, w) in enumerate(shapes)]
    if joined:
        for above, below in zip(labs, labs[1:]):
            shared = min(above.shape[1], below.shape[1])
            above[-1, :shared] = LIGHT
            below[0, :shared] = LIGHT
    return labs


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(SIDE, SIDE), min_size=1, max_size=6),
    st.booleans(),
    st.integers(0, 6),
)
def test_extract_track_matches_oracle_and_one_map_calls(seed, shapes, joined, min_px):
    labs = random_track(seed, shapes, joined)
    maps = [runs_of(lab) for lab in labs]
    got = extract_regions(maps, SCENE, min_region_px=min_px)
    assert len(got) == len(maps)
    for lab, runs, regions in zip(labs, maps, got):
        want = [
            (name, c)
            for name in sorted(SCENE, key=CATEGORY_IDS.get)
            for c in flood_regions_oracle(lab, CATEGORY_IDS[name])
            if c["area"] >= min_px
        ]
        assert list(zip([r.category for r in regions], as_dicts(regions))) == want
        assert regions == extract_regions([runs], SCENE, min_region_px=min_px)[0]


def test_extract_track_keeps_maps_apart():
    # A light filling each map's last row, and the next map's first row, of
    # maps of different widths: one component per map edge, none across.
    labs = random_track(0, [(3, 5), (2, 9), (4, 4)], joined=True)
    got = extract_regions([runs_of(lab) for lab in labs], ["traffic_light"], min_region_px=1)
    for lab, regions in zip(labs, got):
        assert as_dicts(regions) == flood_regions_oracle(lab, LIGHT)
    assert extract_regions([], SCENE, min_region_px=1) == []


@pytest.mark.parametrize(
    "rows, n_components",
    [
        # A run ending at the last column is not joined to one starting at
        # column 0 of the next row, though their flat indices are adjacent.
        (["..##", "#...", "##.#"], 3),
        # The arms of a U join only on its last row.
        (["#..#.#", "#..#.#", "#..#.#", "######"], 1),
        # A serpentine: each run touches the next through one column only.
        (["#####", "....#", "#####", "#....", "#####", "....#"], 1),
        # Two interleaved combs that never touch; the second starts mid-map.
        (["#####", "#...#", "#.#.#", "..#..", "#####"], 2),
        (["#"], 1),
        (["#.#.#"], 3),
        (["#", ".", "#"], 2),
    ],
)
def test_extract_run_shapes_match_oracle(rows, n_components):
    lab = np.array([[LIGHT if ch == "#" else 0 for ch in row] for row in rows], dtype=np.uint8)
    got = extract_regions([runs_of(lab)], categories=["traffic_light"], min_region_px=1)[0]
    assert len(got) == n_components
    assert as_dicts(got) == flood_regions_oracle(lab, LIGHT)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (6, 5)])
def test_extract_map_of_one_category(shape):
    lab = np.full(shape, WALK, dtype=np.uint8)
    (region,) = extract_regions([runs_of(lab)], categories=SCENE, min_region_px=1)[0]
    h, w = shape
    assert region.category == "sidewalk"
    assert region.area_px == h * w
    assert region.centroid == ((h - 1) / 2, (w - 1) / 2)
    assert region.bbox == (0, 0, w, h)


@pytest.mark.parametrize("min_px", [0, 1, 25])
def test_extract_map_without_requested_categories(min_px):
    lab = np.full((8, 9), ROAD, dtype=np.uint8)
    lab[0:2, 0:2] = 0
    assert extract_regions([runs_of(lab)], categories=SCENE, min_region_px=min_px)[0] == []


def test_extract_category_below_min_in_total():
    lab = np.zeros((10, 10), dtype=np.uint8)
    lab[0, 0:4] = LIGHT
    lab[5, 0:4] = LIGHT  # 8 light pixels in two components
    lab[2:5, 5:8] = SIGN  # 9 sign pixels in one component
    got = extract_regions(
        [runs_of(lab)], categories=["traffic_light", "traffic_sign"], min_region_px=9
    )[0]
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


def region(category, bbox, area=None, name=""):
    """A component as extract_regions emits it, with float geometry."""
    x, y, w, h = bbox
    return SceneObject(
        id=name,
        category=category,
        centroid=(y + h / 2 - 0.5, x + w / 2 - 0.5),
        area_px=float(area if area is not None else w * h),
        bbox=tuple(float(v) for v in bbox),
    )


def assert_bbox_geometry(obj, bbox):
    """obj's geometry derives from the detection box alone."""
    x, y, w, h = bbox
    assert obj.bbox == bbox
    assert obj.centroid == (y + h / 2.0, x + w / 2.0)
    assert obj.area_px == float(w * h)


def test_reconcile_unique_match_uses_region_geometry():
    r = region("traffic_sign", (10, 20, 6, 6), area=30)
    got = reconcile([r], [det((11, 21, 6, 6))], IOU_MIN)
    (obj,) = got
    assert obj is r  # the component itself, named for its detection
    assert obj.id == "sign0"
    assert obj.subtype == "stop"
    assert obj.area_px == 30.0
    assert obj.centroid == r.centroid
    assert obj.bbox == (10.0, 20.0, 6.0, 6.0)


def test_reconcile_unmatched_detection_uses_bbox():
    got = reconcile([], [det((10.0, 20.0, 6.0, 8.0))], IOU_MIN)
    (obj,) = got
    assert obj.centroid == (24.0, 13.0)
    assert obj.area_px == 48.0
    assert obj.bbox == (10.0, 20.0, 6.0, 8.0)


def test_reconcile_two_detections_one_region_all_bbox_derived():
    r = region("traffic_sign", (10, 20, 10, 10))
    d1 = det((10, 20, 10, 10))
    d2 = det((11, 21, 10, 10), subtype="yield")
    got = reconcile([r], [d1, d2], IOU_MIN)
    assert [o.id for o in got] == ["sign0", "sign1"]
    for o, d in zip(got, (d1, d2)):
        assert_bbox_geometry(o, d.bbox)
    assert got[1].subtype == "yield"


def test_reconcile_detection_over_two_regions_is_bbox_derived():
    r1 = region("traffic_sign", (0, 0, 10, 4))
    r2 = region("traffic_sign", (0, 5, 10, 4))
    d = det((0, 0, 10, 9))  # IoU 4/9 with each region
    assert box_iou(d.bbox, (0.0, 0.0, 10.0, 4.0)) >= 0.3
    got = reconcile([r1, r2], [d], IOU_MIN)
    (obj,) = got
    assert_bbox_geometry(obj, d.bbox)


def test_reconcile_drops_unclaimed_sign_regions():
    r = region("traffic_sign", (50, 50, 8, 8))
    assert reconcile([r], [], IOU_MIN) == []


def test_reconcile_below_iou_threshold_is_no_match():
    r = region("traffic_sign", (0, 0, 10, 10))
    d = det((8, 8, 10, 10))  # IoU = 4 / 196
    got = reconcile([r], [d], iou_min=0.3)
    assert_bbox_geometry(got[0], d.bbox)


def test_reconcile_passes_lights_and_walks_through():
    rw = region("sidewalk", (0, 40, 30, 8), name="walk0")
    rl = region("traffic_light", (2, 2, 3, 9), name="light0")
    want = [dataclasses.replace(rl), dataclasses.replace(rw)]
    got = reconcile([rw, rl], [], IOU_MIN)
    assert [(o.id, o.category) for o in got] == [
        ("light0", "traffic_light"),
        ("walk0", "sidewalk"),
    ]
    # The components themselves, lights first, with their names unchanged.
    assert got == want
    assert got[0] is rl and got[1] is rw
    assert got[0].light_kind is None
    assert not got[0].inferred


def test_reconcile_ignores_non_sign_detections():
    got = reconcile([], [det((0, 0, 5, 5), category="vehicle")], IOU_MIN)
    assert got == []


# ---------------------------------------------------------------------------
# Assembled scenes: pedestrian height and the one pass over a track's runs.


def test_tallest_pedestrian_px():
    # Three maps of one track, each with a light whose surround is empty, so
    # the downward ray decides: the light sits 55 px above the road. The
    # first map's tallest pedestrian is 20 px tall, so 55 <= 3 * 20 reads
    # low; its 8 px pedestrian would read high. The second map has no
    # pedestrian and falls back to 0.22 * 80 px, so 55 > 52.8 reads high, as
    # the first map's pedestrian does not carry over. On the third a 40 px
    # sign is no pedestrian, so it reads high too.
    labs = []
    for k in range(3):
        lab = np.zeros((80, 60), dtype=np.uint8)
        lab[20:25, 40:44] = LIGHT  # centroid (22.0, 41.5)
        lab[77:, :] = ROAD
        labs.append(lab)
    labs[0][10:30, 3:6] = PED  # height 20
    labs[0][20:28, 20:24] = PED  # height 8
    labs[2][5:45, 50:52] = SIGN  # height 40, no detection
    scenes = scene_objects([runs_of(lab) for lab in labs], [[], [], []], RunConfig(min_region_px=1))
    assert [[(o.category, o.light_kind) for o in objs] for objs in scenes] == [
        [("traffic_light", "low")],
        [("traffic_light", "high")],
        [("traffic_light", "high")],
    ]


def test_build_scene_end_to_end():
    lab = np.zeros((60, 80), dtype=np.uint8)
    lab[10:20, 10:14] = LIGHT
    lab[30:36, 50:56] = SIGN
    lab[50:60, 0:40] = WALK
    dets = [det((50.0, 30.0, 6.0, 6.0))]
    (got,) = scene_objects([runs_of(lab)], [dets], RunConfig(min_region_px=9))
    kinds = {(o.id, o.category) for o in got}
    assert kinds == {
        ("light0", "traffic_light"),
        ("walk0", "sidewalk"),
        ("sign0", "traffic_sign"),
    }
    # The sign takes its region's centroid, not its detection box's (33, 53).
    sign = next(o for o in got if o.category == "traffic_sign")
    assert sign.centroid == (32.5, 52.5)
