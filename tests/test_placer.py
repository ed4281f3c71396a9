"""Camera cases, corner selection, placement arithmetic, and deduplication."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.atbt import FusedKey, FusedObject
from rop.geo import (
    Footprint,
    GeoPoint,
    LocalPoint,
    dist,
    heading_vector,
    make_frame,
    project,
    unproject,
)
from rop import scene
from rop.config import RunConfig
from rop.ingest import ImageMeta, build_tracks, images_in_buffer
from rop.placer import (
    CornerPair,
    classify_camera,
    dedup_placed,
    from_geojson,
    place_objects,
    run_intersection,
    select_corners,
    to_geojson,
)
from rop.synth import render_bundle, standard_fixtures

CENTER = GeoPoint(52.52, 13.405)
FRAME = make_frame(CENTER)


def geo_at(x, y):
    return unproject(FRAME, LocalPoint(x, y))


def cam(x, y, heading=90.0, image_id="img"):
    p = geo_at(x, y)
    return ImageMeta(
        image_id=image_id,
        position=p,
        heading_deg=heading,
        sequence_id="s0",
        captured_at=None,
        width_px=1024,
        height_px=768,
    )


def rect_fp(fid, x0, y0, x1, y1):
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    ring = tuple(geo_at(x, y) for x, y in corners)
    return Footprint(id=fid, ring=ring)


# Four corner buildings of a crossroad: road half-width 7 m, sidewalk 2.5 m,
# so the corner-cut vertices sit at (+-9.5, +-9.5).
INNER = 9.5
BUILDINGS = [
    rect_fp("ne", INNER, INNER, INNER + 20, INNER + 20),
    rect_fp("nw", -INNER - 20, INNER, -INNER, INNER + 20),
    rect_fp("sw", -INNER - 20, -INNER - 20, -INNER, -INNER),
    rect_fp("se", INNER, -INNER - 20, INNER + 20, -INNER),
]


# ---------------------------------------------------------------------------
# classify_camera.


def test_camera_cases_along_an_approach():
    assert classify_camera(cam(-20.0, 0.0, 90.0), CENTER, FRAME) == "C1"
    assert classify_camera(cam(-5.0, 0.0, 90.0), CENTER, FRAME) == "C2"
    assert classify_camera(cam(20.0, 0.0, 90.0), CENTER, FRAME) == "C3"


def test_camera_inner_radius_boundary():
    # Exactly on the inner radius counts as inside.
    assert classify_camera(cam(-10.0, 0.0, 90.0), CENTER, FRAME, inner_radius_m=10.0) == "C2"
    assert classify_camera(cam(-10.001, 0.0, 90.0), CENTER, FRAME, inner_radius_m=10.0) == "C1"


def test_camera_heading_perpendicular_is_not_approaching():
    # Heading at right angles to the center direction: not moving toward it.
    assert classify_camera(cam(-20.0, 0.0, 0.0), CENTER, FRAME) == "C3"


def test_camera_requires_heading():
    img = cam(-20.0, 0.0)
    img.heading_deg = None
    with pytest.raises(ValueError):
        classify_camera(img, CENTER, FRAME)


# ---------------------------------------------------------------------------
# select_corners. Oracle: quadratic scan over every footprint vertex with the
# same tie rules, written against the raw rings.


def corners_oracle(img, footprints, frame, radius_m=26.0):
    camera = project(frame, img.position)
    hx, hy = heading_vector(img.heading_deg)
    best = {}
    for fp in footprints:
        pts = [project(frame, v) for v in fp.ring[:-1]]
        d_cam = min(math.hypot(p.x - camera.x, p.y - camera.y) for p in pts)
        if d_cam > radius_m:
            continue
        corner = min(pts, key=lambda p: (math.hypot(p.x, p.y),))
        # Lowest-index tie rule, replicated explicitly.
        best_d = None
        for p in pts:
            d0 = math.hypot(p.x, p.y)
            if best_d is None or d0 < best_d:
                best_d, corner = d0, p
        if hx * (corner.x - camera.x) + hy * (corner.y - camera.y) <= 0:
            continue
        # Shoelace centroid.
        tw = cx = cy = 0.0
        for i, p in enumerate(pts):
            q = pts[(i + 1) % len(pts)]
            w = p.x * q.y - q.x * p.y
            tw += w
            cx += (p.x + q.x) * w
            cy += (p.y + q.y) * w
        gx, gy = cx / (3 * tw), cy / (3 * tw)
        side = "left" if hx * (gy - camera.y) - hy * (gx - camera.x) > 0 else "right"
        if side not in best or (d_cam, fp.id) < (best[side][0], best[side][1]):
            best[side] = (d_cam, fp.id, corner)
    if "left" not in best or "right" not in best:
        return None
    return (best["left"][1], best["left"][2], best["right"][1], best["right"][2])


def test_corners_c1_picks_near_pair():
    pair = select_corners(cam(-20.0, -3.5, 90.0), BUILDINGS, FRAME)
    assert pair is not None
    assert pair.left_fp == "nw" and pair.right_fp == "sw"
    assert pair.A1.x == pytest.approx(-INNER, abs=1e-6)
    assert pair.A1.y == pytest.approx(INNER, abs=1e-6)
    assert pair.A2.x == pytest.approx(-INNER, abs=1e-6)
    assert pair.A2.y == pytest.approx(-INNER, abs=1e-6)


def test_corners_c2_returns_pair_ahead():
    # Inside the intersection the near pair sits behind the camera; the
    # far-side pair ahead is the valid one.
    pair = select_corners(cam(0.0, -3.5, 90.0), BUILDINGS, FRAME)
    assert pair is not None
    assert pair.left_fp == "ne" and pair.right_fp == "se"
    assert pair.A1.x == pytest.approx(INNER, abs=1e-6)
    assert pair.A2.x == pytest.approx(INNER, abs=1e-6)


def test_corners_c3_has_none():
    assert select_corners(cam(20.0, -3.5, 90.0), BUILDINGS, FRAME) is None


def test_corners_require_both_sides():
    # Only the two north buildings: the right (south) side has no candidate.
    pair = select_corners(cam(-20.0, -3.5, 90.0), [BUILDINGS[0], BUILDINGS[1]], FRAME)
    assert pair is None


def test_corners_permutation_invariant():
    img = cam(-20.0, -3.5, 90.0)
    base = select_corners(img, BUILDINGS, FRAME)
    for order in ([3, 2, 1, 0], [1, 3, 0, 2]):
        again = select_corners(img, [BUILDINGS[i] for i in order], FRAME)
        assert again == base


def test_corners_radius_gates_candidates():
    img = cam(-20.0, -3.5, 90.0)
    assert select_corners(img, BUILDINGS, FRAME, radius_m=5.0) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_corners_match_brute_force_oracle(seed):
    import random

    rng = random.Random(seed)
    fps = []
    for i in range(rng.randint(1, 6)):
        x0 = rng.uniform(-40.0, 25.0)
        y0 = rng.uniform(-40.0, 25.0)
        fps.append(rect_fp(f"b{i}", x0, y0, x0 + rng.uniform(4.0, 18.0), y0 + rng.uniform(4.0, 18.0)))
    img = cam(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0), rng.uniform(0.0, 360.0))
    got = select_corners(img, fps, FRAME)
    want = corners_oracle(img, fps, FRAME)
    if want is None:
        assert got is None
    else:
        lid, a1, rid, a2 = want
        assert (got.left_fp, got.right_fp) == (lid, rid)
        assert got.A1.x == pytest.approx(a1.x, abs=1e-9)
        assert got.A1.y == pytest.approx(a1.y, abs=1e-9)
        assert got.A2.x == pytest.approx(a2.x, abs=1e-9)
        assert got.A2.y == pytest.approx(a2.y, abs=1e-9)


# ---------------------------------------------------------------------------
# place_objects.


def fused(side, category, ordinal=0, depth=0, subtype=None, light_kind=None, support=3, inferred_only=False):
    return FusedObject(
        key=FusedKey(side, category, ordinal, depth, subtype),
        support=support,
        light_kind=light_kind,
        subtype=subtype,
        inferred_only=inferred_only,
        source_images=["i0"],
    )


def pair_at(a1, a2):
    return CornerPair(A1=LocalPoint(*a1), A2=LocalPoint(*a2), left_fp="l", right_fp="r")


def test_place_low_light_offset_vector():
    corners = pair_at((-10.0, 8.0), (10.0, 8.0))
    (placed,) = place_objects(
        [fused("right", "traffic_light", light_kind="low")],
        corners,
        FRAME,
        "x0",
        n_track_images=3,
    )
    local = project(FRAME, placed.position)
    norm = math.hypot(10.0, 8.0)
    want = (10.0 * (1 - 2.5 / norm), 8.0 * (1 - 2.5 / norm))
    assert local.x == pytest.approx(want[0], abs=1e-6)
    assert local.y == pytest.approx(want[1], abs=1e-6)
    # Exactly 2.5 m in from the corner.
    assert math.hypot(local.x - 10.0, local.y - 8.0) == pytest.approx(2.5, abs=1e-6)
    assert placed.height_m == 4.0
    assert placed.light_kind == "low"
    assert placed.confidence == 1.0


def test_place_high_light_midpoint():
    corners = pair_at((-10.0, 8.0), (10.0, 8.0))
    (placed,) = place_objects(
        [fused("left", "traffic_light", light_kind="high")],
        corners,
        FRAME,
        "x0",
        n_track_images=3,
    )
    local = project(FRAME, placed.position)
    assert local.x == pytest.approx(0.0, abs=1e-6)
    assert local.y == pytest.approx(8.0, abs=1e-6)
    assert placed.height_m == 7.0


def test_place_stack_shares_one_pole():
    corners = pair_at((-10.0, 8.0), (10.0, 8.0))
    stack = [
        fused("left", "traffic_sign", depth=0, subtype="stop"),
        fused("left", "traffic_sign", depth=1, subtype="yield"),
        fused("left", "traffic_light", depth=2, light_kind="low"),
    ]
    placed = place_objects(stack, corners, FRAME, "x0", n_track_images=3)
    assert len(placed) == 3
    positions = {(round(p.position.lat, 12), round(p.position.lon, 12)) for p in placed}
    assert len(positions) == 1
    assert {p.subtype for p in placed} == {"stop", "yield", None}
    sign = next(p for p in placed if p.subtype == "stop")
    assert sign.height_m is None and sign.light_kind is None


def test_place_skips_sidewalks_and_halves_inferred():
    corners = pair_at((-10.0, 8.0), (10.0, 8.0))
    placed = place_objects(
        [
            fused("left", "sidewalk"),
            fused("right", "traffic_light", light_kind="low", support=2, inferred_only=True),
        ],
        corners,
        FRAME,
        "x0",
        n_track_images=4,
    )
    assert len(placed) == 1
    assert placed[0].inferred_only
    assert placed[0].confidence == pytest.approx(0.25)  # (2/4) / 2


def test_place_confidence_caps_at_one():
    corners = pair_at((-10.0, 8.0), (10.0, 8.0))
    (placed,) = place_objects(
        [fused("left", "traffic_light", light_kind="low", support=9)],
        corners,
        FRAME,
        "x0",
        n_track_images=4,
    )
    assert placed.confidence == 1.0


def test_place_requires_corners():
    with pytest.raises(ValueError):
        place_objects([fused("left", "traffic_sign")], None, FRAME, "x0", n_track_images=1)


# ---------------------------------------------------------------------------
# dedup_placed. Oracle: hand-computed weighted mean.


def placed_at(x, y, category="traffic_light", subtype=None, confidence=0.5, support=1, sources=("i0",), light_kind="low"):
    from rop.placer import PlacedObject

    return PlacedObject(
        category=category,
        subtype=subtype,
        light_kind=light_kind,
        position=geo_at(x, y),
        height_m=4.0 if category == "traffic_light" else None,
        source_images=list(sources),
        support=support,
        inferred_only=False,
        intersection_id="x0",
        confidence=confidence,
    )


def test_dedup_merges_close_same_kind():
    a = placed_at(0.0, 0.0, confidence=0.75, support=3, sources=("i0",))
    b = placed_at(0.8, 0.0, confidence=0.25, support=1, sources=("i1",))
    (merged,) = dedup_placed([a, b], FRAME, radius_m=1.5)
    local = project(FRAME, merged.position)
    assert local.x == pytest.approx(0.75 * 0.0 + 0.25 * 0.8, abs=1e-6)
    assert merged.support == 4
    assert merged.confidence == 0.75
    assert merged.source_images == ["i0", "i1"]


def test_dedup_respects_distance_and_identity():
    far = [placed_at(0.0, 0.0), placed_at(3.0, 0.0)]
    assert len(dedup_placed(far, FRAME, radius_m=1.5)) == 2
    mixed = [
        placed_at(0.0, 0.0, category="traffic_sign", subtype="stop", light_kind=None),
        placed_at(0.5, 0.0, category="traffic_sign", subtype="yield", light_kind=None),
    ]
    assert len(dedup_placed(mixed, FRAME, radius_m=1.5)) == 2


def test_dedup_chains_transitively():
    chain = [placed_at(0.0, 0.0), placed_at(1.2, 0.0), placed_at(2.4, 0.0)]
    assert len(dedup_placed(chain, FRAME, radius_m=1.5)) == 1


def test_dedup_lead_member_sets_kind():
    a = placed_at(0.0, 0.0, confidence=0.9, light_kind="low")
    b = placed_at(0.5, 0.0, confidence=0.4, light_kind="high")
    (merged,) = dedup_placed([a, b], FRAME, radius_m=1.5)
    assert merged.light_kind == "low"


# ---------------------------------------------------------------------------
# GeoJSON round trip.


def test_geojson_round_trip_and_order():
    objs = [
        placed_at(1.0, 2.0, category="traffic_sign", subtype="stop", light_kind=None),
        placed_at(-3.0, 1.0),
    ]
    doc = to_geojson(objs)
    assert doc["type"] == "FeatureCollection"
    cats = [f["properties"]["category"] for f in doc["features"]]
    assert cats == ["traffic_light", "traffic_sign"]
    back = from_geojson(doc)
    assert len(back) == 2
    assert back[0].category == "traffic_light"
    assert back[0].position.lat == pytest.approx(objs[1].position.lat)
    assert back[1].subtype == "stop"


# ---------------------------------------------------------------------------
# Full pipeline.


def test_run_intersection_extracts_regions_once_per_image(monkeypatch):
    bundle, _ = render_bundle(standard_fixtures(1, seed=1)[0])
    buffer = bundle.buffers[0]
    calls = []
    real_extract = scene.extract_regions

    def counting_extract(*args, **kwargs):
        calls.append(1)
        return real_extract(*args, **kwargs)

    monkeypatch.setattr(scene, "extract_regions", counting_extract)
    result = run_intersection(bundle, buffer, RunConfig())
    tracked = sum(len(t.images) for t in build_tracks(images_in_buffer(bundle.images, buffer), buffer))
    assert result.placed
    assert tracked > 0
    assert len(calls) == tracked
