"""Camera cases, corner selection, placement arithmetic, and deduplication."""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rop.atbt import FusedObject, build_atbt
from rop.geo import (
    FRAME_SPAN_DEG,
    M_PER_DEG_LAT,
    Footprint,
    GeoPoint,
    LocalPoint,
    dist,
    heading_vector,
    make_frame,
    project,
    unproject,
    within,
)
import rop.placer
from rop import scene
from rop.config import RunConfig
from rop.evalx import evaluate
from rop.ingest import (
    Bundle,
    Detection,
    ImageMeta,
    IntersectionBuffer,
)
from rop.placer import (
    classify_camera,
    dedup_placed,
    from_geojson,
    place_objects,
    run_intersection,
    select_corners,
    slice_bundle,
    to_geojson,
    track_trees,
)
from rop.synth import render_bundle, standard_fixtures

CENTER = GeoPoint(52.52, 13.405)
FRAME = make_frame(CENTER)
CFG = RunConfig()


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


def case_of(img, frame=FRAME, inner_radius_m=CFG.inner_radius_m):
    """classify_camera of an image, its camera projected into frame and
    measured from the center as slice_bundle measures it."""
    c = project(frame, img.position)
    return classify_camera(c, math.hypot(c.x, c.y), img.heading_deg, inner_radius_m)


def encloses_area(fp):
    """Whether fp's ring encloses area by the loader's rule: twice its area,
    summed about the first vertex in degrees, above 1e-8 of its box's squared
    diagonal."""
    first = fp.ring[0]
    xs = [(v.lon - first.lon) - 360.0 * round((v.lon - first.lon) / 360.0) for v in fp.ring]
    ys = [v.lat - first.lat for v in fp.ring]
    twice_area = sum(xs[i] * ys[i + 1] - xs[i + 1] * ys[i] for i in range(len(xs) - 1))
    return abs(twice_area) > 1e-8 * ((max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2)


def outline_oracle(fp, frame=FRAME):
    """fp's outline as select_corners takes it, projected into frame."""
    return outline_of(fp.id, [project(frame, v) for v in fp.ring[:-1]])


def outline_of(fp_id, pts):
    """The outline of an open ring pts in metres, by a scalar scan: its id,
    the ring, its vertex nearest the center (lowest index on a tie) and its
    shoelace centroid (summed about the first vertex)."""
    corner = min(enumerate(pts), key=lambda ip: (math.hypot(ip[1].x, ip[1].y), ip[0]))[1]
    tw = cx = cy = 0.0
    for p, q in zip(pts, pts[1:] + pts[:1]):
        (px, py), (qx, qy) = (p.x - pts[0].x, p.y - pts[0].y), (q.x - pts[0].x, q.y - pts[0].y)
        tw += px * qy - qx * py
        cx += (px + qx) * (px * qy - qx * py)
        cy += (py + qy) * (px * qy - qx * py)
    return fp_id, pts, corner, LocalPoint(pts[0].x + cx / (3 * tw), pts[0].y + cy / (3 * tw))


def corners_of(img, footprints, radius_m=CFG.corner_radius_m):
    """select_corners of an image and footprints, projected into FRAME."""
    outlines = [outline_oracle(fp) for fp in footprints]
    return select_corners(project(FRAME, img.position), outlines, img.heading_deg, radius_m)


# ---------------------------------------------------------------------------
# classify_camera.


def test_camera_cases_along_an_approach():
    assert case_of(cam(-20.0, 0.0, 90.0)) == "C1"
    assert case_of(cam(-5.0, 0.0, 90.0)) == "C2"
    assert case_of(cam(20.0, 0.0, 90.0)) == "C3"


def test_camera_inner_radius_boundary():
    # Exactly on the inner radius counts as inside.
    assert case_of(cam(-10.0, 0.0, 90.0), inner_radius_m=10.0) == "C2"
    assert case_of(cam(-10.001, 0.0, 90.0), inner_radius_m=10.0) == "C1"


def test_camera_heading_perpendicular_is_not_approaching():
    # Heading at right angles to the center direction: not moving toward it.
    assert case_of(cam(-20.0, 0.0, 0.0)) == "C3"


# ---------------------------------------------------------------------------
# select_corners. Oracle: quadratic scan over every footprint vertex with the
# same tie rules, written against the raw rings.


def corners_oracle(img, footprints, frame, radius_m):
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
        if side not in best or (d_cam, fp.id, corner.x, corner.y) < best[side][:4]:
            best[side] = (d_cam, fp.id, corner.x, corner.y, corner)
    if "left" not in best or "right" not in best:
        return None
    return (best["left"][4], best["right"][4])


def test_corners_c1_picks_near_pair():
    pair = corners_of(cam(-20.0, -3.5, 90.0), BUILDINGS)
    assert pair is not None
    left, right = pair
    assert left.x == pytest.approx(-INNER, abs=1e-6)
    assert left.y == pytest.approx(INNER, abs=1e-6)
    assert right.x == pytest.approx(-INNER, abs=1e-6)
    assert right.y == pytest.approx(-INNER, abs=1e-6)


def test_corners_c2_returns_pair_ahead():
    # Inside the intersection the near pair sits behind the camera; the
    # far-side pair ahead is the valid one.
    pair = corners_of(cam(0.0, -3.5, 90.0), BUILDINGS)
    assert pair is not None
    left, right = pair
    assert left.x == pytest.approx(INNER, abs=1e-6)
    assert left.y == pytest.approx(INNER, abs=1e-6)
    assert right.x == pytest.approx(INNER, abs=1e-6)
    assert right.y == pytest.approx(-INNER, abs=1e-6)


def test_corners_c3_has_none():
    assert corners_of(cam(20.0, -3.5, 90.0), BUILDINGS) is None


def test_corners_require_both_sides():
    # Only the two north buildings: the right (south) side has no candidate.
    north = [BUILDINGS[0], BUILDINGS[1]]
    pair = corners_of(cam(-20.0, -3.5, 90.0), north)
    assert pair is None


def test_corners_permutation_invariant():
    img = cam(-20.0, -3.5, 90.0)
    base = corners_of(img, BUILDINGS)
    for order in ([3, 2, 1, 0], [1, 3, 0, 2]):
        again = corners_of(img, [BUILDINGS[i] for i in order])
        assert again == base


def test_corners_do_not_depend_on_the_order_of_footprints_that_share_an_id():
    # Two left footprints share an id and the vertex nearest the camera, so
    # only their corners, (-8, -10) and (-8, -19), tell them apart.
    ring = lambda *xy: [LocalPoint(x, y) for x, y in xy]
    left = [
        outline_of("fp", ring((-8.0, -20.0), (-8.0, -10.0), (-20.0, -10.0), (-20.0, -20.0))),
        outline_of("fp", ring((-8.0, -20.0), (-30.0, -20.0), (-30.0, -19.0), (-8.0, -19.0))),
    ]
    right = outline_of("r", ring((8.0, -20.0), (20.0, -20.0), (20.0, -10.0), (8.0, -10.0)))
    pairs = {select_corners(LocalPoint(0.0, -30.0), [*order, right], 0.0, 26.0) for order in (left, left[::-1])}
    assert pairs == {(LocalPoint(-8.0, -19.0), LocalPoint(8.0, -10.0))}


def test_corners_radius_gates_candidates():
    img = cam(-20.0, -3.5, 90.0)
    assert corners_of(img, BUILDINGS, radius_m=5.0) is None


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
    got = corners_of(img, fps)
    want = corners_oracle(img, fps, FRAME, CFG.corner_radius_m)
    if want is None:
        assert got is None
    else:
        for g, w in zip(got, want):
            assert g.x == pytest.approx(w.x, abs=1e-9)
            assert g.y == pytest.approx(w.y, abs=1e-9)


# ---------------------------------------------------------------------------
# place_objects.


def fused(side, category, ordinal=0, depth=0, subtype=None, light_kind=None, support=3, inferred_only=False):
    return FusedObject(
        side=side,
        category=category,
        stack_ordinal=ordinal,
        depth_in_stack=depth,
        subtype=subtype,
        support=support,
        light_kind=light_kind,
        inferred_only=inferred_only,
        source_images=["i0"],
    )


def pair_at(a1, a2):
    return LocalPoint(*a1), LocalPoint(*a2)


def test_place_low_light_offset_vector():
    corners = pair_at((-10.0, 8.0), (10.0, 8.0))
    (placed,), _ = place_objects(
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
    (placed,), _ = place_objects(
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
    placed, _ = place_objects(stack, corners, FRAME, "x0", n_track_images=3)
    assert len(placed) == 3
    positions = {(round(p.position.lat, 12), round(p.position.lon, 12)) for p in placed}
    assert len(positions) == 1
    assert {p.subtype for p in placed} == {"stop", "yield", None}
    sign = next(p for p in placed if p.subtype == "stop")
    assert sign.height_m is None and sign.light_kind is None


def test_place_halves_confidence_of_inferred_only():
    corners = pair_at((-10.0, 8.0), (10.0, 8.0))
    (placed,), _ = place_objects(
        [fused("right", "traffic_light", light_kind="low", support=2, inferred_only=True)],
        corners,
        FRAME,
        "x0",
        n_track_images=4,
    )
    assert placed.inferred_only
    assert placed.confidence == pytest.approx(0.25)  # (2/4) / 2


def test_place_confidence_caps_at_one():
    corners = pair_at((-10.0, 8.0), (10.0, 8.0))
    (placed,), _ = place_objects(
        [fused("left", "traffic_light", light_kind="low", support=9)],
        corners,
        FRAME,
        "x0",
        n_track_images=4,
    )
    assert placed.confidence == 1.0


def test_place_offset_stays_short_of_the_nearer_corner():
    # The left corner is 5 m from the center: an offset of 5 m or more would
    # put its anchor on or past the center.
    corners = pair_at((-3.0, 4.0), (10.0, 8.0))
    objs = [fused("left", "traffic_sign")]
    (placed,), _ = place_objects(objs, corners, FRAME, "x0", 1, RunConfig(offset_m=4.99))
    local = project(FRAME, placed.position)
    assert math.hypot(local.x, local.y) == pytest.approx(0.01, abs=1e-6)
    assert local.x < 0 and local.y > 0
    for offset_m in (5.0, 20.0):
        with pytest.raises(ValueError, match=rf"^x0: offset_m must be below 5\.000 m, .*, got {offset_m}$"):
            place_objects(objs, corners, FRAME, "x0", 1, RunConfig(offset_m=offset_m))
    # No offset leaves even a corner at the center in place.
    (placed,), _ = place_objects(objs, pair_at((0.0, 0.0), (10.0, 8.0)), FRAME, "x0", 1, RunConfig(offset_m=0.0))
    local = project(FRAME, placed.position)
    assert math.hypot(local.x, local.y) == pytest.approx(0.0, abs=1e-6)


def test_place_splits_objects_by_their_anchor_and_unprojects_each_anchor_once(monkeypatch):
    # The offset corners sit 10.3 m from the center, the midpoint 8 m: under
    # a 9 m radius the high light is inside, the low light and signs past it.
    unprojected = []

    def unprojecting(frame, q):
        unprojected.append(q)
        return unproject(frame, q)

    monkeypatch.setattr(rop.placer, "unproject", unprojecting)
    objs = [
        fused("left", "traffic_sign", subtype="stop"),
        fused("left", "traffic_light", depth=1, light_kind="low"),
        fused("right", "traffic_light", light_kind="high"),
        fused("right", "traffic_sign", subtype="yield"),
    ]
    inside, past = place_objects(objs, pair_at((-10.0, 8.0), (10.0, 8.0)), FRAME, "x0", 3, CFG, radius_m=9.0)
    assert [p.light_kind for p in inside] == ["high"]
    assert [p.subtype or p.light_kind for p in past] == ["stop", "low", "yield"]
    assert len(unprojected) == len(set(unprojected)) == 3


# ---------------------------------------------------------------------------
# dedup_placed. Oracle: hand-merged fields.


def placed_at(
    x, y, category="traffic_light", subtype=None, confidence=0.5, support=1, sources=("i0",), light_kind="low",
    inferred_only=False,
):
    from rop.placer import PlacedObject

    return PlacedObject(
        category=category,
        subtype=subtype,
        light_kind=light_kind,
        position=geo_at(x, y),
        height_m=(7.0 if light_kind == "high" else 4.0) if category == "traffic_light" else None,
        source_images=list(sources),
        support=support,
        inferred_only=inferred_only,
        intersection_id="x0",
        confidence=confidence,
    )


def test_dedup_merges_close_same_kind():
    # Close means on one point: every placement is computed from footprint vertices.
    a = placed_at(3.0, 4.0, confidence=0.25, support=1, sources=("i2", "i1"), inferred_only=True)
    b = placed_at(3.0, 4.0, confidence=0.75, support=3, sources=("i0", "i1"), light_kind="high")
    (merged,) = dedup_placed([a, b])
    assert merged.position == a.position
    assert merged.support == 4
    assert merged.confidence == 0.75
    assert merged.source_images == ["i0", "i1", "i2"]
    assert (merged.light_kind, merged.height_m) == ("high", 7.0)
    assert not merged.inferred_only


def test_dedup_respects_distance_and_identity():
    # Same kind 1e-6 m apart: two objects.
    near = [placed_at(3.0, 4.0), placed_at(3.0 + 1e-6, 4.0)]
    assert near[0].position != near[1].position
    assert len(dedup_placed(near)) == 2
    # One point, another category or subtype: no merge either.
    mixed = [
        placed_at(3.0, 4.0, category="traffic_sign", subtype="stop", light_kind=None),
        placed_at(3.0, 4.0, category="traffic_sign", subtype="yield", light_kind=None),
        placed_at(3.0, 4.0, category="traffic_light"),
    ]
    assert len(dedup_placed(mixed)) == 3


def test_dedup_lead_member_sets_kind():
    a = placed_at(0.0, 0.0, confidence=0.9, light_kind="low")
    b = placed_at(0.0, 0.0, confidence=0.4, light_kind="high")
    for order in ([a, b], [b, a]):
        (merged,) = dedup_placed(order)
        assert (merged.light_kind, merged.height_m) == ("low", 4.0)


# A few shared anchors, as place_objects computes them: every member of a
# group sits on exactly one of these points.
_ANCHORS = [(0.0, 0.0), (12.5, -3.25), (-7.0, 9.0)]
_placements = st.builds(
    lambda at, kind, confidence, support, sources, inferred_only: placed_at(
        *_ANCHORS[at],
        category=kind[0],
        subtype=kind[1],
        light_kind=kind[2],
        confidence=confidence,
        support=support,
        sources=sources,
        inferred_only=inferred_only,
    ),
    at=st.integers(0, len(_ANCHORS) - 1),
    kind=st.sampled_from(
        [("traffic_light", None, "low"), ("traffic_light", None, "high"), ("traffic_sign", "stop", None)]
    ),
    confidence=st.sampled_from([0.25, 0.5, 1.0]),
    support=st.integers(1, 4),
    sources=st.lists(st.sampled_from(["i0", "i1", "i2"]), min_size=1, max_size=2, unique=True).map(sorted),
    inferred_only=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(placed=st.lists(_placements, max_size=8), data=st.data())
def test_dedup_is_invariant_to_input_order(placed, data):
    shuffled = data.draw(st.permutations(placed))
    assert to_geojson(dedup_placed(shuffled)) == to_geojson(dedup_placed(placed))


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
    part = slice_bundle(bundle, CFG)[0]
    calls = []
    real_extract = scene.extract_regions

    def counting_extract(maps, *args, **kwargs):
        calls.extend(id(m) for m in maps)
        return real_extract(maps, *args, **kwargs)

    monkeypatch.setattr(scene, "extract_regions", counting_extract)
    # Every rop module that holds concat_runs: each tracked image's runs are
    # laid end to end once, for the labelling and the light vote together.
    concatenated = []
    for name, module in list(sys.modules.items()):
        real_concat = getattr(module, "concat_runs", None)
        if name.startswith("rop.") and real_concat is not None:

            def counting_concat(maps, real_concat=real_concat):
                concatenated.extend(id(m) for m in maps)
                return real_concat(maps)

            monkeypatch.setattr(module, "concat_runs", counting_concat)
    result = run_intersection(part, CFG)
    tracked = sum(len(t.images) for t in part.tracks)
    assert result.placed
    assert tracked > 0
    assert len(calls) == len(set(calls)) == tracked
    assert any(o.category == "traffic_light" for o in result.placed)
    assert len(concatenated) == len(set(concatenated)) == tracked


def test_no_corners_counts_only_objects_that_can_be_placed():
    # Without footprints no track finds corners. Each track reports its
    # distinct lights and signs as unplaced; its sidewalks are not counted,
    # and a track that saw nothing else reports nothing.
    bundle, _ = render_bundle(standard_fixtures(1, seed=1)[0])
    part = dataclasses.replace(slice_bundle(bundle, CFG)[0], outlines=[])
    expected = []
    saw_sidewalks = False
    for track in part.tracks:
        nodes = [n for t in track_trees(part, track, CFG) for n in t.nodes if n.object]
        saw_sidewalks |= any(n.object.category == "sidewalk" for n in nodes)
        keys = {
            (n.side, n.object.category, n.stack_ordinal, n.depth_in_stack)
            for n in nodes
            if n.object.category != "sidewalk"
        }
        if keys:
            expected.append(("no_corners", track.track_id, len(keys)))
    assert saw_sidewalks and expected
    diagnostics = run_intersection(part, CFG).diagnostics
    events = [(d["event"], d.get("track_id"), d.get("unplaced")) for d in diagnostics]
    assert events == expected


def test_run_intersection_dedups_once_per_buffer(monkeypatch):
    # One dedup_placed call per buffer, whether its tracks place objects or
    # none finds corners; the objects past radius_m are noted without one.
    bundle, _ = render_bundle(standard_fixtures(1, seed=1)[0])
    part = slice_bundle(bundle, CFG)[0]
    calls = []
    real_dedup = rop.placer.dedup_placed

    def counting_dedup(placed):
        calls.append(len(placed))
        return real_dedup(placed)

    monkeypatch.setattr(rop.placer, "dedup_placed", counting_dedup)
    for outlines in (part.outlines, []):
        calls.clear()
        result = run_intersection(dataclasses.replace(part, outlines=outlines), CFG)
        assert len(calls) == 1
        assert bool(result.placed) == bool(outlines)


@pytest.mark.parametrize("kinds", [("high", "low"), ("low", "high")])
def test_a_fusion_tie_between_images_at_one_distance_goes_to_the_lower_image_id(kinds, monkeypatch):
    # Two approaching views from one spot, in one track, each see one light
    # at the same place in its tree, of a different kind. The 1-1 vote goes
    # to the nearest image, and between equal distances to the lower image
    # id, a, whatever the bundle order: a's kind is placed.
    images = [cam(-20.0, -3.5, 90.0, image_id=image_id) for image_id in ("b", "a")]
    bundle = Bundle(images, {}, {}, BUILDINGS, [IntersectionBuffer("x0", CENTER)])
    (part,) = slice_bundle(bundle, CFG)
    (track,) = part.tracks
    assert [im.image_id for im in track.images] == ["a", "b"]
    trees = {
        image_id: build_atbt(
            {"left": [[scene.SceneObject(f"light-{image_id}", "traffic_light", (300.0, 200.0), 80.0,
                                          (196.0, 296.0, 8.0, 8.0), light_kind=kind)]], "right": []},
            image_id,
        )
        for image_id, kind in zip(("a", "b"), kinds)
    }
    monkeypatch.setattr(rop.placer, "track_trees", lambda part, track, cfg: [trees[im.image_id] for im in track.images])
    (placed,) = run_intersection(part, CFG).placed
    assert (placed.category, placed.light_kind, placed.source_images) == ("traffic_light", kinds[0], ["a", "b"])


def test_corner_selection_tries_c1_nearest_first_then_c2_far_to_near(monkeypatch):
    # One northbound track: approaching views (C1) 20, 30 and 40 m south of
    # the center, two of them at 20 m, and views inside the inner radius (C2)
    # 8 and 4 m south. Corner selection tries C1 nearest first, equal
    # distances by image id, then C2 far to near, and stops at the first
    # view that finds a pair. Each view's heading names it.
    views = {"a30": -30.0, "b20": -20.0, "c20": -20.0, "d40": -40.0, "e8": -8.0, "f4": -4.0}
    images = [cam(0.0, y, heading=float(i), image_id=image_id) for i, (image_id, y) in enumerate(views.items())]
    (part,) = slice_bundle(Bundle(images, {}, {}, [], [IntersectionBuffer("x0", CENTER)]), CFG)
    assert [len(track.images) for track in part.tracks] == [len(views)]
    monkeypatch.setattr(rop.placer, "track_trees", lambda part, track, cfg: [None] * len(track.images))
    sign = dataclasses.replace(fused("left", "traffic_sign"), source_images=[images[0].image_id])
    monkeypatch.setattr(rop.placer, "fuse_track", lambda trees: [sign])
    every = ["b20", "c20", "a30", "d40", "e8", "f4"]
    for finds, tried in [("b20", every[:1]), ("a30", every[:3]), ("f4", every), (None, every)]:
        calls = []

        def finding(camera, outlines, heading_deg, radius_m, finds=finds, calls=calls):
            calls.append(images[int(heading_deg)].image_id)
            return pair_at((-10.0, 8.0), (10.0, 8.0)) if calls[-1] == finds else None

        monkeypatch.setattr(rop.placer, "select_corners", finding)
        result = run_intersection(part, CFG)
        assert calls == tried
        assert len(result.placed) == (finds is not None)


def test_a_buffer_whose_slice_holds_no_image_notes_no_images():
    bundle, _ = render_bundle(standard_fixtures(1, seed=1)[0])
    # The fixture's nearest camera stands 17 m from its center.
    lonely = dataclasses.replace(bundle.buffers[0], intersection_id="lonely", radius_m=5.0)
    bundle = dataclasses.replace(bundle, buffers=[*bundle.buffers, lonely])
    part = slice_bundle(bundle, CFG)[0]  # slices come in intersection_id order
    assert part.n_images == 0 and part.tracks == []
    result = run_intersection(part, CFG)
    assert result.placed == []
    assert result.diagnostics == [{"intersection_id": "lonely", "event": "no_images"}]


def test_an_object_placed_past_the_buffer_notes_outside_buffer():
    # A 20 m buffer holds one camera per approach, 17-18 m out. Four blocks
    # take the place of the fixture's, each with its corner nearest the center
    # at (+-16.5, +-16.5), 23.3 m out: past radius_m, within radius_m +
    # corner_radius_m. Low lights and signs sit offset_m in from those
    # corners, 20.8 m out, and fall outside the buffer; high lights hang at
    # the corners' midpoint, inside it.
    bundle, _ = render_bundle(standard_fixtures(1, seed=1)[0])
    buffer = dataclasses.replace(bundle.buffers[0], radius_m=20.0)
    frame = make_frame(buffer.center)

    def block(sx, sy, near=16.5, size=20.0):
        xs, ys = sorted([sx * near, sx * (near + size)]), sorted([sy * near, sy * (near + size)])
        corners = [(xs[0], ys[0]), (xs[1], ys[0]), (xs[1], ys[1]), (xs[0], ys[1]), (xs[0], ys[0])]
        return Footprint(f"block{sx:+d}{sy:+d}", tuple(unproject(frame, LocalPoint(x, y)) for x, y in corners))

    blocks = [block(sx, sy) for sx in (1, -1) for sy in (1, -1)]
    (part,) = slice_bundle(dataclasses.replace(bundle, footprints=blocks, buffers=[buffer]), CFG)
    result = run_intersection(part, CFG)
    outside = [d for d in result.diagnostics if d["event"] == "outside_buffer"]
    assert outside == [
        {"intersection_id": "x0000", "event": "outside_buffer", "category": category}
        for category in ["traffic_light", "traffic_sign", "traffic_sign"] * 2
    ]
    # The same slice under a buffer wide enough to keep every placed object:
    # the ones past 20 m are exactly those noted, in the same order.
    wide = run_intersection(dataclasses.replace(part, buffer=dataclasses.replace(buffer, radius_m=50.0)), CFG)
    far = [dist(project(frame, p.position), LocalPoint(0.0, 0.0)) > 20.0 for p in wide.placed]
    assert [d["category"] for d in outside] == [p.category for p, f in zip(wide.placed, far) if f]
    assert result.placed == [p for p, f in zip(wide.placed, far) if not f]
    assert result.placed and all(p.light_kind == "high" for p in result.placed)


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (code,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(code, namespace)
    assert namespace["doc"]["features"]


def _far_copy(layout):
    """The layout again, 0.06 deg north (beyond one frame's span), ids renamed."""
    return dataclasses.replace(
        layout,
        intersection_id=f"far-{layout.intersection_id}",
        center=GeoPoint(layout.center.lat + 0.06, layout.center.lon),
        footprints=[dataclasses.replace(fp, id=f"far-{fp.id}") for fp in layout.footprints],
        cameras=[dataclasses.replace(c, image_id=f"far-{c.image_id}") for c in layout.cameras],
    )


@pytest.fixture(scope="module")
def neighbours():
    """Three neighbouring fixtures plus a far copy of the first, rendered once,
    with what each places alone."""
    layouts = standard_fixtures(3, seed=1)
    bundles = [render_bundle(lay)[0] for lay in [*layouts, _far_copy(layouts[0])]]
    return bundles, [_outcome(b, b.buffers[0]) for b in bundles]


def _outcome(bundle, buffer):
    (part,) = [p for p in slice_bundle(bundle, CFG) if p.buffer == buffer]
    result = run_intersection(part, CFG)
    return to_geojson(result.placed), result.diagnostics


def _merged(bundles):
    return Bundle(
        images=[im for b in bundles for im in b.images],
        label_maps={k: v for b in bundles for k, v in b.label_maps.items()},
        detections={k: v for b in bundles for k, v in b.detections.items()},
        footprints=[fp for b in bundles for fp in b.footprints],
        buffers=[buf for b in bundles for buf in b.buffers],
    )


def _on_a_street(layouts, gap_m):
    """The layouts re-centred gap_m apart along one east-west street. Each
    still renders alone, so a camera sees only its own intersection, but
    neighbouring buffers share images."""
    frame = make_frame(layouts[0].center)
    return [
        dataclasses.replace(lay, center=unproject(frame, LocalPoint(k * gap_m, 0.0)))
        for k, lay in enumerate(layouts)
    ]


@settings(max_examples=16, deadline=None)
@given(
    target=st.integers(0, 3),
    others=st.lists(st.integers(0, 3), unique=True),
    target_at=st.integers(0, 4),
    street_gap_m=st.one_of(st.none(), st.floats(70.0, 110.0)),
)
@example(target=0, others=[3], target_at=0, street_gap_m=None)
@example(target=3, others=[0, 1, 2], target_at=3, street_gap_m=None)
@example(target=1, others=[0, 2], target_at=1, street_gap_m=70.0)
@example(target=0, others=[1], target_at=0, street_gap_m=110.0)
def test_placement_is_invariant_to_the_other_buffers(neighbours, target, others, target_at, street_gap_m):
    bundles, alone = neighbours
    order = [i for i in others if i != target]
    order.insert(min(target_at, len(order)), target)
    if street_gap_m is not None:
        street = _on_a_street(standard_fixtures(4, seed=1), street_gap_m)
        bundles = {i: render_bundle(street[i])[0] for i in order}
        alone = {target: _outcome(bundles[target], bundles[target].buffers[0])}
    merged = _merged([bundles[i] for i in order])
    buffer = bundles[target].buffers[0]
    assert _outcome(merged, buffer) == alone[target]


# Centres whose buffers straddle the antimeridian: 0.00044 deg is 49 m at the
# equator and still more than 8 m at 80 deg, inside every fixture's radius.
STRADDLE_LON = 180.0 - 0.00044


def _placed_locally(layout):
    """What layout places, rendered where it stands: the placed objects as
    (kind, position in the buffer's local frame), and the completeness
    against the rendered truth."""
    bundle, truth = render_bundle(layout)
    (part,) = slice_bundle(bundle, CFG)
    placed = run_intersection(part, CFG).placed
    frame = make_frame(layout.center)
    objects = [
        ((p.category, p.subtype, p.light_kind), project(frame, p.position)) for p in placed
    ]
    completeness = evaluate(placed, truth, radius_m=5.0).group("overall").completeness
    return objects, completeness


@pytest.fixture(scope="module")
def at_null_island():
    layouts = [dataclasses.replace(lay, center=GeoPoint(0.0, 0.0)) for lay in standard_fixtures(4, seed=1)]
    return layouts, [_placed_locally(lay) for lay in layouts]


@settings(max_examples=8, deadline=None)
@given(
    index=st.integers(0, 3),
    lat=st.floats(-80.0, 80.0),
    lon=st.one_of(st.sampled_from([STRADDLE_LON, -STRADDLE_LON]), st.floats(-180.0, 180.0)),
)
@example(index=0, lat=0.0, lon=STRADDLE_LON)
@example(index=1, lat=52.5, lon=-STRADDLE_LON)
@example(index=2, lat=-80.0, lon=STRADDLE_LON)
@example(index=3, lat=80.0, lon=-STRADDLE_LON)
def test_placement_is_invariant_to_translation(at_null_island, index, lat, lon):
    layouts, expected = at_null_island
    objects, completeness = _placed_locally(
        dataclasses.replace(layouts[index], center=GeoPoint(lat, lon))
    )
    want_objects, want_completeness = expected[index]
    assert completeness == want_completeness
    assert len(objects) == len(want_objects)
    # Same-kind objects merge only on one point, so distinct ones may stand
    # close: each expected object pairs with the nearest one of its kind.
    left = list(objects)
    for kind, q in want_objects:
        j = min(range(len(left)), key=lambda j: (left[j][0] != kind, dist(left[j][1], q)))
        assert left[j][0] == kind and dist(left.pop(j)[1], q) <= 1e-6


# (cos, sin) of k quarter turns.
_QUARTER_TURNS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


def _turned(q, k):
    """The local point q turned k quarter turns clockwise about the origin."""
    c, s = _QUARTER_TURNS[k]
    return LocalPoint(c * q.x + s * q.y, c * q.y - s * q.x)


def _turned_bundle(bundle, k):
    """The one-buffer bundle turned k quarter turns clockwise about its
    buffer's center: image positions, headings and footprint rings. Label
    maps and detections stay as they are, since they are camera-relative."""
    frame = make_frame(bundle.buffers[0].center)
    turn = lambda p: unproject(frame, _turned(project(frame, p), k))
    return dataclasses.replace(
        bundle,
        images=[
            dataclasses.replace(im, position=turn(im.position), heading_deg=(im.heading_deg + 90.0 * k) % 360.0)
            for im in bundle.images
        ],
        footprints=[dataclasses.replace(fp, ring=tuple(turn(v) for v in fp.ring)) for fp in bundle.footprints],
    )


def _placed_by_kind(bundle):
    """The positions of bundle's placed objects in their buffer's frame, by
    (intersection, category, subtype, light kind)."""
    out = {}
    for part in slice_bundle(bundle, CFG):
        for p in run_intersection(part, CFG).placed:
            kind = (p.intersection_id, p.category, p.subtype, p.light_kind)
            out.setdefault(kind, []).append(project(part.frame, p.position))
    return out


@pytest.fixture(scope="module")
def two_fixtures():
    bundles = [render_bundle(lay)[0] for lay in standard_fixtures(2, seed=1)]
    return bundles, _placed_by_kind(_merged(bundles))


@pytest.mark.parametrize("k", [1, 2, 3], ids=["90", "180", "270"])
def test_placement_turns_with_the_bundle(two_fixtures, k):
    # Turning every camera and footprint about its center turns what is
    # placed with them, and places the same objects.
    bundles, upright = two_fixtures
    turned = _placed_by_kind(_merged([_turned_bundle(b, k) for b in bundles]))
    assert {kind: len(ps) for kind, ps in turned.items()} == {kind: len(ps) for kind, ps in upright.items()}
    for kind, points in upright.items():
        left = list(turned[kind])
        for q in points:
            want = _turned(q, k)
            j = min(range(len(left)), key=lambda j: dist(left[j], want))
            assert dist(left.pop(j), want) <= 1e-6


# ---------------------------------------------------------------------------
# Slicing.


def projects(frame, p):
    return project(frame, p) is not None


def images_in_buffer(images, buffer):
    """The images that lie within the buffer's radius of its center, by a
    scalar scan: the slice's radius test, kept here as its oracle."""
    frame = make_frame(buffer.center)
    return [im for im in images if within(frame, im.position, buffer.radius_m)]


def slice_oracle(bundle, cfg):
    """Each buffer's images and footprints, by a scalar scan of the whole
    bundle: an image is kept when it lies in the buffer and has no heading or
    does not leave the center (C3); a footprint is kept when a vertex lies
    within reach, every vertex projects into the buffer's frame and its ring
    encloses area (a code-built bundle may hold one that does not)."""
    out = []
    for buffer in bundle.buffers:
        frame = make_frame(buffer.center)
        reach_m = buffer.radius_m + cfg.corner_radius_m
        footprints = [
            fp
            for fp in bundle.footprints
            if any(within(frame, v, reach_m) for v in fp.ring)
            and all(projects(frame, v) for v in fp.ring)
            and encloses_area(fp)
        ]
        images = [
            im
            for im in images_in_buffer(bundle.images, buffer)
            if im.heading_deg is None or case_of(im, frame, cfg.inner_radius_m) != "C3"
        ]
        out.append((images, footprints))
    return out


def _nudged(x, ulps):
    """x moved by ulps units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _bundle(positions, rings, buffers, headings=()):
    """Images at positions, heading north unless headings says otherwise."""
    headings = [*headings, *[0.0] * (len(positions) - len(headings))]
    images = [
        ImageMeta(f"i{k}", p, h, "s0", None, 4, 4) for k, (p, h) in enumerate(zip(positions, headings))
    ]
    return Bundle(
        images=images,
        label_maps={im.image_id: np.zeros((4, 4), dtype=np.uint8) for im in images},
        detections={
            im.image_id: [Detection(im.image_id, "traffic_sign", "stop", (0, 0, 1, 1), 0.5)]
            for im in images[::2]
        },
        footprints=[Footprint(f"b{k}", (*ring, ring[0])) for k, ring in enumerate(rings)],
        buffers=buffers,
    )


@st.composite
def sliceable_bundles(draw):
    """Buffers close enough to share images; images and footprint vertices on
    the buffer radius or the footprint reach (give or take two ulps), at the
    corners of the box around it, at any angle, or beyond the frame span.
    Some footprints reach 0.1 deg from their first vertex, past the span."""
    base = make_frame(GeoPoint(draw(st.floats(-60, 60)), draw(st.floats(-170, 170))))
    corner_radius_m = draw(st.floats(0.0, 30.0, exclude_min=True))
    offset = st.one_of(st.just(0.0), st.floats(-80.0, 80.0))
    buffers = [
        IntersectionBuffer(
            f"x{k}",
            unproject(base, LocalPoint(draw(offset), draw(offset))),
            draw(st.floats(1.0, 60.0)),
        )
        for k in range(draw(st.integers(1, 4)))
    ]

    def point():
        buffer = draw(st.sampled_from(buffers))
        c = buffer.center
        frame = make_frame(c)
        r = draw(st.sampled_from([buffer.radius_m, buffer.radius_m + corner_radius_m]))
        sx, sy = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
        kind = draw(st.sampled_from(["lat axis", "lon axis", "box corner", "angle", "far"]))
        if kind == "lat axis":
            lat, lon = c.lat + sy * r / M_PER_DEG_LAT, c.lon
        elif kind == "lon axis":
            lat, lon = c.lat, c.lon + sx * r / frame.m_per_deg_lon
        elif kind == "box corner":
            lat, lon = c.lat + sy * r / M_PER_DEG_LAT, c.lon + sx * r / frame.m_per_deg_lon
        elif kind == "angle":
            theta = draw(st.floats(0.0, 2.0 * math.pi))
            q = unproject(frame, LocalPoint(r * math.cos(theta), r * math.sin(theta)))
            lat, lon = q.lat, q.lon
        else:
            far = st.sampled_from([0.0, FRAME_SPAN_DEG, 0.06])
            lat, lon = c.lat + sy * draw(far), c.lon + sx * draw(far)
        ulps = st.integers(-2, 2)
        return GeoPoint(_nudged(lat, draw(ulps)), _nudged(lon, draw(ulps)))

    positions = [point() for _ in range(draw(st.integers(0, 8)))]
    heading = st.one_of(st.none(), st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0.0, 360.0))
    headings = [draw(heading) for _ in positions]
    size = st.one_of(st.floats(-3e-4, 3e-4), st.sampled_from([-0.1, 0.1]))
    rings = []
    for _ in range(draw(st.integers(0, 5))):
        p, dlat, dlon = point(), draw(size), draw(size)
        rings.append(
            (
                p,
                GeoPoint(p.lat + dlat, p.lon),
                GeoPoint(p.lat + dlat, p.lon + dlon),
                GeoPoint(p.lat, p.lon + dlon),
            )
        )
    # Pin one buffer's radius so that an image lies exactly on it, or a
    # footprint vertex exactly on its reach, in within's own arithmetic.
    pinned = draw(st.sampled_from([None, *positions, *(v for ring in rings for v in ring)]))
    if pinned is not None:
        j = draw(st.integers(0, len(buffers) - 1))
        frame = make_frame(buffers[j].center)
        if max(abs(pinned.lat - frame.origin.lat), abs(pinned.lon - frame.origin.lon)) < FRAME_SPAN_DEG:
            q = project(frame, pinned)
            d = math.hypot(q.x, q.y)
            if pinned in positions:
                radii = [d]
            else:
                rest = d - corner_radius_m
                radii = [r for r in (rest, _nudged(rest, 1), _nudged(rest, -1)) if r + corner_radius_m == d]
            if radii and radii[0] > 0.0:
                buffers[j] = dataclasses.replace(buffers[j], radius_m=radii[0])
    cfg = dataclasses.replace(
        CFG,
        corner_radius_m=corner_radius_m,
        inner_radius_m=draw(st.sampled_from([0.0, CFG.inner_radius_m, 30.0])),
    )
    return _bundle(positions, rings, buffers, headings), cfg


def _square(center, half_m):
    frame = make_frame(center)
    return tuple(
        unproject(frame, LocalPoint(x, y))
        for x, y in ((-half_m, -half_m), (half_m, -half_m), (half_m, half_m), (-half_m, half_m))
    )


@settings(max_examples=300, deadline=None)
@given(case=sliceable_bundles())
@example(
    case=(
        _bundle(
            [], [_square(CENTER, 5.0)], [IntersectionBuffer("x0", CENTER), IntersectionBuffer("x1", CENTER)]
        ),
        CFG,
    )
)
# A 10 km radius reaches past the frame's 0.05 deg span: an image 0.06 deg
# north of the center, and a footprint around it, pass the box test but lie
# outside the span, so they join no track and give no outline.
@example(
    case=(
        _bundle(
            [GeoPoint(CENTER.lat + 0.06, CENTER.lon)],
            [_square(GeoPoint(CENTER.lat + 0.06, CENTER.lon), 5.0)],
            [IntersectionBuffer("x0", CENTER, 10_000.0)],
        ),
        CFG,
    )
)
def test_slice_bundle_matches_a_full_scan(case):
    bundle, cfg = case
    slices = slice_bundle(bundle, cfg)
    assert [part.buffer for part in slices] == bundle.buffers
    by_id = lambda im: im.image_id
    for part, (images, footprints) in zip(slices, slice_oracle(bundle, cfg), strict=True):
        frame = make_frame(part.buffer.center)
        assert part.frame == frame
        assert part.n_images == len(images)
        tracked = sorted((im for t in part.tracks for im in t.images), key=by_id)
        assert tracked == sorted((im for im in images if im.heading_deg is not None), key=by_id)
        for track in part.tracks:
            assert track.cams == [project(frame, im.position) for im in track.images]
        want = [outline_oracle(fp, frame) for fp in footprints]
        assert [outline[:3] for outline in part.outlines] == [outline[:3] for outline in want]
        for (*_, got), (_, pts, _, centroid) in zip(part.outlines, want):
            extent = max(dist(p, q) for p in pts for q in pts)
            assert (got.x, got.y) == pytest.approx((centroid.x, centroid.y), abs=1e-6 + 1e-3 * extent)
        assert part.label_maps is bundle.label_maps
        assert part.detections is bundle.detections
