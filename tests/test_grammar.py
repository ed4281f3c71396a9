"""Light classification, sidewalk merging, pair inference, pattern grouping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.config import RunConfig
from rop.grammar import (
    PatternGroup,
    apply_grammar,
    classify_light,
    group_patterns,
    infer_pair,
    merge_sidewalks,
    side_of,
)
from rop.ingest import DEFAULT_REGISTRY
from rop.scene import SceneObject

SKY = DEFAULT_REGISTRY.id_of("sky")
BUILDING = DEFAULT_REGISTRY.id_of("building")
ROAD = DEFAULT_REGISTRY.id_of("road")
WALK = DEFAULT_REGISTRY.id_of("sidewalk")
LIGHT = DEFAULT_REGISTRY.id_of("traffic_light")

CFG = RunConfig()


def obj(
    oid,
    category,
    centroid,
    area=100.0,
    bbox=None,
    light_kind=None,
    inferred=False,
    subtype=None,
):
    if bbox is None and not inferred:
        r, c = centroid
        bbox = (c - 5.0, r - 5.0, 10.0, 10.0)
    return SceneObject(
        id=oid,
        category=category,
        centroid=centroid,
        area_px=area,
        bbox=bbox,
        subtype=subtype,
        light_kind=light_kind,
        inferred=inferred,
    )


# ---------------------------------------------------------------------------
# classify_light. Rasters are built so the surround ring, the ray length, and
# the pedestrian scale are all known exactly.


def light_raster(
    H=800,
    W=600,
    surround=SKY,
    ground_row=305,
    ground=ROAD,
):
    """11x9 light block, centroid (105.0, 304.0), surround window well clear
    of the ground rows. ground_row=None leaves the ray with nothing to hit."""
    lab = np.zeros((H, W), dtype=np.uint8)
    lab[70:145, 270:340] = surround
    lab[100:111, 300:309] = LIGHT
    if ground_row is not None:
        lab[ground_row:, :] = ground
    light = obj("light0", "traffic_light", (105.0, 304.0), area=99.0, bbox=(300.0, 100.0, 9.0, 11.0))
    return lab, light


def test_classify_sky_and_long_drop_is_high():
    lab, light = light_raster(surround=SKY, ground_row=305)  # d = 200
    kind = classify_light(light, lab, tallest_ped=40, cfg=CFG)
    assert kind == "high"
    assert light.light_kind == "high"


def test_classify_building_and_short_drop_is_low():
    lab, light = light_raster(surround=BUILDING, ground_row=165)  # d = 60
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "low"


def test_classify_fallback_pedestrian_scale():
    # No pedestrian: h = 0.22 * 768 = 168.96; d = 600 > 3h, sky surround.
    lab = np.zeros((768, 600), dtype=np.uint8)
    lab[20:95, 270:340] = SKY
    lab[50:61, 300:309] = LIGHT
    lab[655:, :] = ROAD
    light = obj("light0", "traffic_light", (55.0, 304.0), bbox=(300.0, 50.0, 9.0, 11.0))
    assert classify_light(light, lab, tallest_ped=None, cfg=CFG) == "high"


def test_classify_surround_wins_disagreement():
    # Sky ring but a drop of only 60 px (suggesting low): surround wins.
    lab, light = light_raster(surround=SKY, ground_row=165)
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "high"
    # Building ring with a 200 px drop (suggesting high): surround wins.
    lab, light = light_raster(surround=BUILDING, ground_row=305)
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "low"


def test_classify_ambiguity_band_goes_to_surround():
    # d = 100 with h = 40 is under 3h, but the building ring decides.
    lab, light = light_raster(surround=BUILDING, ground_row=205)
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "low"


def test_classify_tied_surround_uses_ray_alone():
    lab, light = light_raster(surround=0, ground_row=305)  # d = 200 > 3h
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "high"
    lab, light = light_raster(surround=0, ground_row=184)  # d = 79 <= 3h
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "low"


def test_classify_ray_exit_uses_surround_alone():
    lab, light = light_raster(surround=SKY, ground_row=None)
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "high"


def test_classify_no_cues_defaults_low():
    lab, light = light_raster(surround=0, ground_row=None)
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "low"


def test_classify_sidewalk_stops_ray():
    lab, light = light_raster(surround=BUILDING, ground_row=165, ground=WALK)
    assert classify_light(light, lab, tallest_ped=40, cfg=CFG) == "low"


def test_classify_rejects_non_light():
    lab, _ = light_raster()
    with pytest.raises(ValueError):
        classify_light(obj("s", "traffic_sign", (10.0, 10.0)), lab)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_classify_total_and_deterministic(seed):
    rng = np.random.default_rng(seed)
    lab = rng.choice(
        np.array([0, ROAD, WALK, BUILDING, SKY], dtype=np.uint8), size=(60, 80)
    )
    r = float(rng.uniform(1, 58))
    c = float(rng.uniform(1, 78))
    make = lambda: obj("l", "traffic_light", (r, c), bbox=(c - 1, r - 1, 3.0, 3.0))
    a, b = make(), make()
    ka = classify_light(a, lab, tallest_ped=12, cfg=CFG)
    kb = classify_light(b, lab, tallest_ped=12, cfg=CFG)
    assert ka in ("high", "low")
    assert ka == kb


def test_grammar_config_invariants():
    with pytest.raises(ValueError):
        RunConfig(high_factor=0.0)
    with pytest.raises(ValueError):
        RunConfig(stack_dx_frac=0.0)
    with pytest.raises(ValueError):
        RunConfig(pedestrian_fallback_frac=1.5)


# ---------------------------------------------------------------------------
# merge_sidewalks. Oracle: pairwise union-find transitive closure.


def walk(oid, x, w, y=700.0, h=30.0, width_px=1000):
    cx, cy = x + w / 2.0, y + h / 2.0
    return SceneObject(
        id=oid,
        category="sidewalk",
        centroid=(cy, cx),
        area_px=w * h,
        bbox=(x, y, w, h),
    )


def merge_oracle(walks, width_px, gap_px):
    n = len(walks)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            a, b = walks[i], walks[j]
            if side_of(a, width_px) != side_of(b, width_px):
                continue
            gap = max(a.bbox[0], b.bbox[0]) - min(a.bbox[0] + a.bbox[2], b.bbox[0] + b.bbox[2])
            if gap <= gap_px:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(walks[i])
    out = set()
    for members in groups.values():
        x0 = min(o.bbox[0] for o in members)
        y0 = min(o.bbox[1] for o in members)
        x1 = max(o.bbox[0] + o.bbox[2] for o in members)
        y1 = max(o.bbox[1] + o.bbox[3] for o in members)
        area = sum(o.area_px for o in members)
        row = sum(o.centroid[0] * o.area_px for o in members) / area
        col = sum(o.centroid[1] * o.area_px for o in members) / area
        oid = min(members, key=lambda o: (o.bbox[0], o.id)).id
        out.add((oid, round(row, 6), round(col, 6), round(area, 6), tuple(round(v, 6) for v in (x0, y0, x1 - x0, y1 - y0))))
    return out


def as_walk_set(objs):
    return {
        (o.id, round(o.centroid[0], 6), round(o.centroid[1], 6), round(o.area_px, 6), tuple(round(v, 6) for v in o.bbox))
        for o in objs
        if o.category == "sidewalk"
    }


def test_merge_two_blocks_within_gap():
    a = walk("w0", 0.0, 100.0)
    b = walk("w1", 130.0, 90.0)  # gap 30 <= 40
    got = merge_sidewalks([a, b], 1000, CFG)
    (m,) = [o for o in got if o.category == "sidewalk"]
    assert m.id == "w0"
    assert m.area_px == a.area_px + b.area_px
    assert m.bbox == (0.0, 700.0, 220.0, 30.0)
    # Pixel-weighted centroid.
    want_col = (50.0 * 3000 + 175.0 * 2700) / 5700
    assert m.centroid[1] == pytest.approx(want_col)


def test_merge_respects_gap_threshold():
    a = walk("w0", 0.0, 100.0)
    b = walk("w1", 300.0, 90.0)  # gap 200
    got = merge_sidewalks([a, b], 1000, CFG)
    assert len([o for o in got if o.category == "sidewalk"]) == 2


def test_merge_three_chained_blocks():
    blocks = [walk("w0", 0.0, 80.0), walk("w1", 100.0, 80.0), walk("w2", 200.0, 80.0)]
    got = merge_sidewalks(blocks, 1000, CFG)
    walks_out = [o for o in got if o.category == "sidewalk"]
    assert len(walks_out) == 1
    assert walks_out[0].bbox == (0.0, 700.0, 280.0, 30.0)
    assert as_walk_set(got) == merge_oracle(blocks, 1000, CFG.sidewalk_gap_px)


def test_merge_overlapping_blocks():
    a = walk("w0", 0.0, 100.0)
    b = walk("w1", 50.0, 100.0)
    got = merge_sidewalks([a, b], 1000, CFG)
    (m,) = [o for o in got if o.category == "sidewalk"]
    assert m.bbox == (0.0, 700.0, 150.0, 30.0)


def test_merge_keeps_sides_apart():
    a = walk("w0", 430.0, 60.0)  # centroid col 460: left of 500
    b = walk("w1", 510.0, 60.0)  # centroid col 540: right
    got = merge_sidewalks([a, b], 1000, CFG)
    assert len([o for o in got if o.category == "sidewalk"]) == 2


def test_merge_passes_other_objects_through():
    light = obj("l0", "traffic_light", (100.0, 200.0))
    a = walk("w0", 0.0, 100.0)
    got = merge_sidewalks([light, a], 1000, CFG)
    assert any(o.id == "l0" and o.category == "traffic_light" for o in got)


def test_merge_idempotent():
    blocks = [walk("w0", 0.0, 80.0), walk("w1", 100.0, 80.0), walk("w2", 600.0, 50.0)]
    once = merge_sidewalks(blocks, 1000, CFG)
    twice = merge_sidewalks(once, 1000, CFG)
    assert as_walk_set(once) == as_walk_set(twice)
    assert [o.id for o in once] == [o.id for o in twice]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=900.0),
            st.floats(min_value=5.0, max_value=120.0),
        ),
        min_size=0,
        max_size=7,
    ),
    st.randoms(use_true_random=False),
)
def test_merge_matches_union_find_oracle_and_ignores_order(boxes, rnd):
    blocks = [walk(f"w{i}", x, min(w, 999.0 - x)) for i, (x, w) in enumerate(boxes)]
    got = merge_sidewalks(blocks, 1000, CFG)
    assert as_walk_set(got) == merge_oracle(blocks, 1000, CFG.sidewalk_gap_px)
    shuffled = list(blocks)
    rnd.shuffle(shuffled)
    again = merge_sidewalks(shuffled, 1000, CFG)
    assert [o.id for o in again] == [o.id for o in got]
    assert as_walk_set(again) == as_walk_set(got)


# ---------------------------------------------------------------------------
# infer_pair.

W_IMG = 1000


def test_infer_low_left_sidewalk_right():
    left = [obj("l0", "traffic_light", (300.0, 200.0), area=120.0, light_kind="low")]
    right = [walk("w0", 700.0, 100.0)]
    got = infer_pair(left, right, W_IMG)
    assert got is not None
    assert got.inferred
    assert got.id == "inferred:l0"
    assert got.light_kind == "low"
    assert got.centroid == (300.0, 999.0 - 200.0)
    assert got.area_px == 120.0
    assert got.bbox is None
    assert got.source == "inferred"


def test_infer_mirrors_right_to_left():
    left = [walk("w0", 100.0, 100.0)]
    right = [obj("l0", "traffic_light", (280.0, 850.0), light_kind="low")]
    got = infer_pair(left, right, W_IMG)
    assert got is not None
    assert got.centroid == (280.0, 999.0 - 850.0)
    assert side_of(got, W_IMG) == "left"


def test_infer_no_fire_when_both_sides_low():
    left = [obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")]
    right = [obj("l1", "traffic_light", (300.0, 800.0), light_kind="low"), walk("w0", 700.0, 100.0)]
    assert infer_pair(left, right, W_IMG) is None


def test_infer_no_fire_without_sidewalk_anchor():
    left = [obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")]
    assert infer_pair(left, [], W_IMG) is None
    assert infer_pair(left, [obj("s0", "traffic_sign", (200.0, 900.0))], W_IMG) is None


def test_infer_ignores_high_lights():
    left = [obj("l0", "traffic_light", (100.0, 300.0), light_kind="high")]
    right = [walk("w0", 700.0, 100.0)]
    assert infer_pair(left, right, W_IMG) is None


def test_infer_source_is_largest_low_light():
    left = [
        obj("l0", "traffic_light", (310.0, 180.0), area=50.0, light_kind="low"),
        obj("l1", "traffic_light", (300.0, 200.0), area=200.0, light_kind="low"),
    ]
    right = [walk("w0", 700.0, 100.0)]
    got = infer_pair(left, right, W_IMG)
    assert got.id == "inferred:l1"
    assert got.area_px == 200.0


# ---------------------------------------------------------------------------
# group_patterns. Width 1000 so the stack threshold is 40 px.


def test_group_sign_above_light():
    sign = obj("s0", "traffic_sign", (100.0, 200.0))
    light = obj("l0", "traffic_light", (300.0, 210.0), light_kind="low")
    (g,) = group_patterns([sign, light], W_IMG, CFG)
    assert g.kind == "sign_above_light"
    assert g.members == ["s0", "l0"]
    assert g.side == "left"


def test_group_sign_alone():
    sign = obj("s0", "traffic_sign", (100.0, 600.0))
    (g,) = group_patterns([sign], W_IMG, CFG)
    assert g.kind == "sign_alone"
    assert g.members == ["s0"]
    assert g.side == "right"


def test_group_signs_above_and_below_light():
    top = obj("s0", "traffic_sign", (100.0, 200.0))
    light = obj("l0", "traffic_light", (200.0, 205.0), light_kind="low")
    bottom = obj("s1", "traffic_sign", (300.0, 210.0))
    (g,) = group_patterns([top, light, bottom], W_IMG, CFG)
    assert g.kind == "signs_above_and_below_light"
    assert g.members == ["s0", "l0", "s1"]


def test_group_sign_stack_without_light():
    a = obj("s0", "traffic_sign", (100.0, 200.0))
    b = obj("s1", "traffic_sign", (160.0, 205.0))
    (g,) = group_patterns([a, b], W_IMG, CFG)
    assert g.kind == "sign_stack"
    assert g.members == ["s0", "s1"]


def test_group_high_lights_never_join():
    sign = obj("s0", "traffic_sign", (100.0, 200.0))
    high = obj("l0", "traffic_light", (300.0, 205.0), light_kind="high")
    (g,) = group_patterns([sign, high], W_IMG, CFG)
    assert g.kind == "sign_alone"
    assert g.members == ["s0"]


def test_group_lone_light_makes_no_group():
    light = obj("l0", "traffic_light", (300.0, 210.0), light_kind="low")
    assert group_patterns([light], W_IMG, CFG) == []


def test_group_splits_cluster_with_two_lights():
    la = obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")
    lb = obj("l1", "traffic_light", (300.0, 236.0), light_kind="low")
    sa = obj("s0", "traffic_sign", (100.0, 198.0))
    sb = obj("s1", "traffic_sign", (100.0, 240.0))
    groups = group_patterns([la, lb, sa, sb], W_IMG, CFG)
    assert len(groups) == 2
    members = {tuple(g.members) for g in groups}
    assert members == {("s0", "l0"), ("s1", "l1")}
    assert all(g.kind == "sign_above_light" for g in groups)


def test_group_does_not_cross_midline():
    sign = obj("s0", "traffic_sign", (100.0, 490.0))
    light = obj("l0", "traffic_light", (300.0, 510.0), light_kind="low")
    (g,) = group_patterns([sign, light], W_IMG, CFG)
    assert g.members == ["s0"]
    assert g.kind == "sign_alone"


def test_group_threshold_boundary():
    a = obj("s0", "traffic_sign", (100.0, 200.0))
    b = obj("s1", "traffic_sign", (160.0, 240.0))  # exactly 0.04 * 1000
    (g,) = group_patterns([a, b], W_IMG, CFG)
    assert g.kind == "sign_stack"
    c = obj("s2", "traffic_sign", (160.0, 240.5))
    groups = group_patterns([a, c], W_IMG, CFG)
    assert len(groups) == 2


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["traffic_sign", "low", "high"]),
            st.floats(min_value=0.0, max_value=999.0),
            st.floats(min_value=0.0, max_value=700.0),
        ),
        min_size=0,
        max_size=9,
    )
)
def test_group_every_sign_in_exactly_one_group(entries):
    objs = []
    for i, (kind, col, row) in enumerate(entries):
        if kind == "traffic_sign":
            objs.append(obj(f"s{i}", "traffic_sign", (row, col)))
        else:
            objs.append(obj(f"l{i}", "traffic_light", (row, col), light_kind=kind))
    groups = group_patterns(objs, W_IMG, CFG)
    grouped_signs = [m for g in groups for m in g.members if m.startswith("s")]
    assert sorted(grouped_signs) == sorted(o.id for o in objs if o.category == "traffic_sign")
    # At most one light per group.
    for g in groups:
        lights = [m for m in g.members if m.startswith("l")]
        assert len(lights) <= 1


# ---------------------------------------------------------------------------
# Full pass.


def test_apply_grammar_end_to_end():
    # Wide scene: low light and sidewalk left, sidewalk right -> Rule 4 fires.
    lab = np.zeros((400, 1000), dtype=np.uint8)
    lab[60:140, 80:240] = BUILDING  # ring around the light
    lab[90:111, 150:159] = LIGHT
    lab[230:, :] = ROAD
    lab[250:280, 0:300] = WALK
    lab[250:280, 700:1000] = WALK
    from rop.scene import scene_objects

    objs, tallest = scene_objects(lab, [], min_region_px=25)
    out, groups = apply_grammar(objs, lab, tallest, CFG)
    lights = [o for o in out if o.category == "traffic_light"]
    assert {o.light_kind for o in lights} == {"low"}
    real = [o for o in lights if not o.inferred]
    twins = [o for o in lights if o.inferred]
    assert len(real) == 1 and len(twins) == 1
    assert side_of(real[0], 1000) == "left"
    assert side_of(twins[0], 1000) == "right"
    assert groups == []
