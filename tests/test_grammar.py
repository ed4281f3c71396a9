"""The urban-grammar rules: light classification (Rules 1-2, which
rop.scene runs on a track's label maps), pair inference and stacking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.config import RunConfig
from rop.grammar import apply_grammar, infer_pair, side_of, stack_objects
from rop.labelmap import CATEGORY_IDS, runs_of
from rop.scene import SceneObject, classify_lights, scene_objects, surround_margins

SKY = CATEGORY_IDS["sky"]
BUILDING = CATEGORY_IDS["building"]
ROAD = CATEGORY_IDS["road"]
WALK = CATEGORY_IDS["sidewalk"]
LIGHT = CATEGORY_IDS["traffic_light"]

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


def classify_light(light, runs, tallest_ped=None, cfg=CFG):
    """The kind classify_lights gives one light alone on one map."""
    classify_lights([[light]], [runs], [tallest_ped], cfg)
    return light.light_kind


# ---------------------------------------------------------------------------
# classify_lights. Rasters are built so the surround ring, the ray length, and
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
    kind = classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG)
    assert kind == "high"
    assert light.light_kind == "high"


def test_classify_building_and_short_drop_is_low():
    lab, light = light_raster(surround=BUILDING, ground_row=165)  # d = 60
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "low"


def test_classify_fallback_pedestrian_scale():
    # No pedestrian: h = 0.22 * 768 = 168.96; d = 600 > 3h, sky surround.
    lab = np.zeros((768, 600), dtype=np.uint8)
    lab[20:95, 270:340] = SKY
    lab[50:61, 300:309] = LIGHT
    lab[655:, :] = ROAD
    light = obj("light0", "traffic_light", (55.0, 304.0), bbox=(300.0, 50.0, 9.0, 11.0))
    assert classify_light(light, runs_of(lab), tallest_ped=None, cfg=CFG) == "high"


def test_classify_surround_wins_disagreement():
    # Sky ring but a drop of only 60 px (suggesting low): surround wins.
    lab, light = light_raster(surround=SKY, ground_row=165)
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "high"
    # Building ring with a 200 px drop (suggesting high): surround wins.
    lab, light = light_raster(surround=BUILDING, ground_row=305)
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "low"


def test_classify_ambiguity_band_goes_to_surround():
    # d = 100 with h = 40 is under 3h, but the building ring decides.
    lab, light = light_raster(surround=BUILDING, ground_row=205)
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "low"


def test_classify_tied_surround_uses_ray_alone():
    lab, light = light_raster(surround=0, ground_row=305)  # d = 200 > 3h
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "high"
    lab, light = light_raster(surround=0, ground_row=184)  # d = 79 <= 3h
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "low"


def test_classify_ray_exit_uses_surround_alone():
    lab, light = light_raster(surround=SKY, ground_row=None)
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "high"


def test_classify_no_cues_defaults_low():
    lab, light = light_raster(surround=0, ground_row=None)
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "low"


def test_classify_sidewalk_stops_ray():
    lab, light = light_raster(surround=BUILDING, ground_row=165, ground=WALK)
    assert classify_light(light, runs_of(lab), tallest_ped=40, cfg=CFG) == "low"


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
    ka = classify_light(a, runs_of(lab), tallest_ped=12, cfg=CFG)
    kb = classify_light(b, runs_of(lab), tallest_ped=12, cfg=CFG)
    assert ka in ("high", "low")
    assert ka == kb


def classify_on_pixels(light, lab, tallest_ped, cfg):
    """The kind of one light computed on the full pixel raster: a bincount over the
    ring cut out of the array, and a ray read down the array's column."""
    big_h, big_w = lab.shape
    x, y, w, h = light.bbox
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = int(np.ceil(x + w)), int(np.ceil(y + h))
    ring = cfg.ring_px
    outer = np.bincount(
        lab[max(0, y0 - ring) : y1 + ring, max(0, x0 - ring) : x1 + ring].ravel(), minlength=256
    )
    inner = np.bincount(lab[max(0, y0) : y1, max(0, x0) : x1].ravel(), minlength=256)
    surround = (outer - inner)[[SKY, BUILDING]]
    if surround[0] != surround[1]:
        return "high" if surround[0] > surround[1] else "low"
    row, col = light.centroid
    c = min(max(int(round(col)), 0), big_w - 1)
    r0 = int(round(row))
    column = lab[r0 + 1 :, c]
    hits = np.flatnonzero((column == ROAD) | (column == WALK))
    scale = float(tallest_ped) if tallest_ped else cfg.pedestrian_fallback_frac * big_h
    return "high" if hits.size and r0 + 1 + hits[0] - row > cfg.high_factor * scale else "low"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(1, 80),
    st.sampled_from([None, 1, 3, 12]),
    st.sampled_from([1, 4, 15]),
    st.booleans(),
    st.sampled_from([0.05, 0.1, 0.6, 1.0]),
)
def test_classify_from_runs_matches_pixels(seed, h, w, tallest_ped, ring_px, surround, density):
    rng = np.random.default_rng(seed)
    # Without sky and building above the ground the surround ties, and the
    # ray decides. Sparse ground pixels start runs of their own, so the ray
    # must read the run that holds each pixel, not its left neighbour's.
    above = np.array([0, BUILDING, SKY] if surround else [0], dtype=np.uint8)
    lab = rng.choice(above, size=(h, w))
    g = int(rng.integers(0, h + 1))
    ground = rng.choice(np.array([ROAD, WALK], dtype=np.uint8), size=(h - g, w))
    lab[g:] = np.where(rng.random((h - g, w)) < density, ground, lab[g:])
    r, c = float(rng.uniform(0, h - 1)), float(rng.uniform(0, w - 1))
    bw, bh = float(rng.uniform(0.5, 9)), float(rng.uniform(0.5, 9))
    light = obj("l", "traffic_light", (r, c), bbox=(c - bw / 2, r - bh / 2, bw, bh))
    cfg = RunConfig(ring_px=ring_px)
    want = classify_on_pixels(light, lab, tallest_ped, cfg)
    assert classify_light(light, runs_of(lab), tallest_ped=tallest_ped, cfg=cfg) == want


def surround_margin_on_pixels(lab, bbox, ring_px):
    """Sky minus building pixels around one box, counted as the per-light
    vote counted them: a bincount over the ring's window of the raster, less
    one over the box itself."""
    big_h, big_w = lab.shape
    x, y, w, h = bbox
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = int(np.ceil(x + w)), int(np.ceil(y + h))
    ox0, oy0 = max(0, x0 - ring_px), max(0, y0 - ring_px)
    ox1, oy1 = min(big_w, x1 + ring_px), min(big_h, y1 + ring_px)
    outer = np.bincount(lab[oy0:oy1, ox0:ox1].ravel(), minlength=256)
    ix0, iy0 = max(0, x0), max(0, y0)
    ix1, iy1 = min(big_w, x1), min(big_h, y1)
    if ix1 > ix0 and iy1 > iy0:
        outer -= np.bincount(lab[iy0:iy1, ix0:ix1].ravel(), minlength=256)
    return int(outer[SKY]) - int(outer[BUILDING])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(1, 40), st.integers(1, 50)), min_size=1, max_size=6),
    st.sampled_from([1, 4, 15]),
)
def test_surround_margins_of_a_track_match_pixels(seed, shapes, ring_px):
    rng = np.random.default_rng(seed)
    palette = np.array([0, ROAD, WALK, BUILDING, SKY, LIGHT], dtype=np.uint8)
    labs = [rng.choice(palette, size=shape) for shape in shapes]
    boxes = [
        [
            (
                float(rng.uniform(0, w)),
                float(rng.uniform(0, h)),
                float(rng.uniform(0.5, 9)),
                float(rng.uniform(0.5, 9)),
            )
            for _ in range(int(rng.integers(0, 5)))
        ]
        for h, w in shapes
    ]
    got = surround_margins([runs_of(lab) for lab in labs], boxes, ring_px)
    want = [
        surround_margin_on_pixels(lab, b, ring_px) for lab, per_map in zip(labs, boxes) for b in per_map
    ]
    assert got.tolist() == want


def test_classify_lights_of_a_track_match_one_light_calls():
    # Three maps of different sizes, one light each: a building ring, a sky
    # ring, and an empty ring that leaves the ray to decide on the third
    # map's own ground row and pedestrian scale.
    first, a = light_raster(surround=BUILDING)
    second = np.full((50, 70), SKY, dtype=np.uint8)
    second[20:26, 30:34] = LIGHT
    third = np.zeros((60, 40), dtype=np.uint8)
    third[50:, :] = ROAD  # a drop of 45 px, under 3 * 20
    lights = [
        [a],
        [obj("b", "traffic_light", (22.5, 31.5), bbox=(30.0, 20.0, 4.0, 6.0))],
        [obj("c", "traffic_light", (5.0, 20.0), bbox=(18.0, 3.0, 4.0, 4.0))],
    ]
    maps = [runs_of(lab) for lab in (first, second, third)]
    tallest = [5, 0, 20]
    classify_lights(lights, maps, tallest, CFG)
    assert [objs[0].light_kind for objs in lights] == ["low", "high", "low"]
    for objs, runs, t in zip(lights, maps, tallest):
        assert classify_light(objs[0], runs, t, CFG) == objs[0].light_kind


def test_grammar_config_invariants():
    with pytest.raises(ValueError):
        RunConfig(high_factor=0.0)
    with pytest.raises(ValueError):
        RunConfig(stack_dx_frac=0.0)
    with pytest.raises(ValueError):
        RunConfig(pedestrian_fallback_frac=1.5)


# ---------------------------------------------------------------------------
# infer_pair.


def walk(oid, x, w, y=700.0, h=30.0, width_px=1000):
    cx, cy = x + w / 2.0, y + h / 2.0
    return SceneObject(
        id=oid,
        category="sidewalk",
        centroid=(cy, cx),
        area_px=w * h,
        bbox=(x, y, w, h),
    )


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
# stack_objects. Width 1000 so the stack threshold is 40 px.


def stack_ids(objs):
    """Each side's stacks as lists of object ids."""
    stacks = stack_objects(objs, W_IMG, CFG)
    return {side: [[o.id for o in stack] for stack in stacks[side]] for side in stacks}


def test_group_sign_above_light():
    sign = obj("s0", "traffic_sign", (100.0, 200.0))
    light = obj("l0", "traffic_light", (300.0, 210.0), light_kind="low")
    # One stack, the sign above the light.
    assert stack_ids([light, sign]) == {"left": [["s0", "l0"]], "right": []}


def test_group_sign_alone():
    sign = obj("s0", "traffic_sign", (100.0, 600.0))
    assert stack_ids([sign]) == {"left": [], "right": [["s0"]]}


def test_group_signs_above_and_below_light():
    top = obj("s0", "traffic_sign", (100.0, 200.0))
    light = obj("l0", "traffic_light", (200.0, 205.0), light_kind="low")
    bottom = obj("s1", "traffic_sign", (300.0, 210.0))
    # One stack, top to bottom: a sign, the light, a sign.
    assert stack_ids([bottom, light, top]) == {"left": [["s0", "l0", "s1"]], "right": []}


def test_group_sign_stack_without_light():
    a = obj("s0", "traffic_sign", (100.0, 200.0))
    b = obj("s1", "traffic_sign", (160.0, 205.0))
    assert stack_ids([b, a]) == {"left": [["s0", "s1"]], "right": []}


def test_group_high_lights_never_join():
    sign = obj("s0", "traffic_sign", (100.0, 200.0))
    high = obj("l0", "traffic_light", (300.0, 205.0), light_kind="high")
    assert stack_ids([sign, high]) == {"left": [["s0"], ["l0"]], "right": []}


def test_group_lone_light_makes_no_group():
    # A low light with no sign near it is a stack of one light.
    light = obj("l0", "traffic_light", (300.0, 210.0), light_kind="low")
    assert stack_ids([light]) == {"left": [["l0"]], "right": []}


def test_group_splits_cluster_with_two_lights():
    la = obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")
    lb = obj("l1", "traffic_light", (300.0, 236.0), light_kind="low")
    sa = obj("s0", "traffic_sign", (100.0, 198.0))
    sb = obj("s1", "traffic_sign", (100.0, 240.0))
    # Each sign stands above the light nearest it.
    assert stack_ids([la, lb, sa, sb]) == {"left": [["s0", "l0"], ["s1", "l1"]], "right": []}


def test_group_does_not_cross_midline():
    sign = obj("s0", "traffic_sign", (100.0, 490.0))
    light = obj("l0", "traffic_light", (300.0, 510.0), light_kind="low")
    assert stack_ids([sign, light]) == {"left": [["s0"]], "right": [["l0"]]}


def test_group_threshold_boundary():
    a = obj("s0", "traffic_sign", (100.0, 200.0))
    b = obj("s1", "traffic_sign", (160.0, 240.0))  # exactly 0.04 * 1000
    assert stack_ids([a, b])["left"] == [["s0", "s1"]]
    c = obj("s2", "traffic_sign", (160.0, 240.5))
    assert stack_ids([a, c])["left"] == [["s0"], ["s2"]]


def test_stacks_put_sidewalks_last_by_column():
    walk_far = obj("w0", "sidewalk", (600.0, 300.0))
    walk_near = obj("w1", "sidewalk", (650.0, 20.0))
    light = obj("l0", "traffic_light", (300.0, 400.0), light_kind="high")
    assert stack_ids([walk_far, light, walk_near]) == {
        "left": [["l0"], ["w1"], ["w0"]],
        "right": [],
    }


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["traffic_sign", "low", "high", "sidewalk"]),
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
        elif kind == "sidewalk":
            objs.append(obj(f"w{i}", "sidewalk", (row, col)))
        else:
            objs.append(obj(f"l{i}", "traffic_light", (row, col), light_kind=kind))
    stacks = stack_objects(objs, W_IMG, CFG)
    # Every object sits in exactly one stack, on its own side.
    placed = [(side, o.id) for side in stacks for stack in stacks[side] for o in stack]
    assert sorted(placed) == sorted((side_of(o, W_IMG), o.id) for o in objs)
    for side in ("left", "right"):
        for k, stack in enumerate(stacks[side]):
            lights = [o for o in stack if o.category == "traffic_light"]
            walks = [o for o in stack if o.category == "sidewalk"]
            # Top to bottom.
            assert stack == sorted(stack, key=lambda o: (o.centroid[0], o.centroid[1], o.id))
            # At most one light per stack, and a high light or a sidewalk stands alone.
            assert len(lights) <= 1
            if any(o.light_kind == "high" for o in lights) or walks:
                assert len(stack) == 1
            # Sidewalks come after every other stack.
            if walks:
                assert all(s[0].category == "sidewalk" for s in stacks[side][k:])


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
    runs = runs_of(lab)
    (objs,) = scene_objects([runs], [[]], CFG)
    stacks = apply_grammar(objs, runs.width, CFG)
    out = [o for side in ("left", "right") for stack in stacks[side] for o in stack]
    lights = [o for o in out if o.category == "traffic_light"]
    assert {o.light_kind for o in lights} == {"low"}
    real = [o for o in lights if not o.inferred]
    twins = [o for o in lights if o.inferred]
    assert len(real) == 1 and len(twins) == 1
    assert side_of(real[0], 1000) == "left"
    assert side_of(twins[0], 1000) == "right"
    # No sign: each light is a stack of its own, before its side's sidewalk.
    assert [[o.id for o in stack] for stack in stacks["left"]] == [[real[0].id], ["walk0"]]
    assert [[o.id for o in stack] for stack in stacks["right"]] == [[twins[0].id], ["walk1"]]


def test_apply_grammar_keeps_each_sidewalk_component():
    # Blocks on one side, however near, are never merged: each component of
    # the label map is one stack, left to right. A side that shows any
    # sidewalk still anchors Rule 4's twin.
    lab = np.zeros((400, 1000), dtype=np.uint8)
    lab[60:140, 80:240] = BUILDING
    lab[90:111, 150:159] = LIGHT
    lab[230:, :] = ROAD
    lab[250:280, 0:100] = WALK
    lab[250:280, 110:300] = WALK  # a 10 px gap
    lab[250:280, 700:760] = WALK
    lab[250:280, 800:1000] = WALK
    runs = runs_of(lab)
    (objs,) = scene_objects([runs], [[]], CFG)
    stacks = apply_grammar(objs, runs.width, CFG)
    for side, spans in (("left", [(0, 100), (110, 190)]), ("right", [(700, 60), (800, 200)])):
        walks = [stack for stack in stacks[side] if stack[0].category == "sidewalk"]
        assert [len(stack) for stack in walks] == [1, 1]
        assert [(s[0].bbox[0], s[0].bbox[2]) for s in walks] == spans
    assert [o.inferred for stack in stacks["right"] for o in stack if o.category == "traffic_light"] == [True]
