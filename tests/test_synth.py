"""Renderer and fixture-family checks.

The projection oracle recomputes pixel coordinates through viewing angles
(azimuth/elevation) instead of the renderer's dot-product camera basis, so a
sign error in either formulation breaks the comparison.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rop import synth

from rop.geo import GeoPoint, LocalPoint
from rop.ingest import Detection, from_json, load_inputs, to_json
from rop.labelmap import CATEGORY_IDS, runs_of
from rop.placer import direction_of
from rop.scene import extract_regions
from rop.synth import (
    CameraModel,
    CameraPose,
    Layout,
    PedestrianSpec,
    RectFootprint,
    TruthObject,
    load_layouts,
    render_bundle,
    render_image,
    save_layouts,
    standard_fixtures,
    truth_as_placed,
    validate_layout,
    write_bundle,
)

CENTER = GeoPoint(52.5, 13.4)


def pose(x, y, heading, image_id="img0", seq="s0"):
    return CameraPose(image_id=image_id, sequence_id=seq, position=LocalPoint(x, y), heading_deg=heading)


def layout(objs=(), peds=(), fps=(), cams=(), iid="t0"):
    return Layout(
        intersection_id=iid,
        center=CENTER,
        footprints=list(fps),
        truth_objects=list(objs),
        pedestrians=list(peds),
        cameras=list(cams),
    )


def project_oracle(cam_xy, heading_deg, target_xyz, model=CameraModel()):
    """Pixel position via viewing angles rather than a camera basis."""
    dx = target_xyz[0] - cam_xy[0]
    dy = target_xyz[1] - cam_xy[1]
    bearing = math.degrees(math.atan2(dx, dy)) % 360.0
    rel = (bearing - heading_deg + 180.0) % 360.0 - 180.0
    if abs(rel) >= 90.0:
        return None
    f = model.focal_px
    z_fwd = math.hypot(dx, dy) * math.cos(math.radians(rel))
    u = model.width_px / 2.0 + f * math.tan(math.radians(rel))
    v = model.height_px / 2.0 + f * (model.cam_height_m - target_xyz[2]) / z_fwd
    return u, v


# ---------------------------------------------------------------------------
# Projection and rasterization.


def test_empty_layout_is_sky_over_road():
    lay = layout(cams=[pose(0.0, 0.0, 90.0)])
    runs, dets = render_image(lay, lay.cameras[0])
    canvas = runs.rows(0, runs.height)
    sky = CATEGORY_IDS["sky"]
    road = CATEGORY_IDS["road"]
    horizon = 768 // 2 + 1
    assert dets == []
    assert (canvas[:horizon, :] == sky).all()
    assert (canvas[horizon:, :] == road).all()


@pytest.mark.parametrize(
    "cam_xy,heading,target",
    [
        ((0.0, -20.0), 0.0, (0.0, 0.0, 7.0)),
        ((0.0, -20.0), 0.0, (4.0, -2.0, 4.0)),
        ((-30.0, -3.5), 90.0, (-7.7, 7.7, 4.0)),
        ((5.0, 25.0), 180.0, (-3.0, 2.0, 3.0)),
        ((10.0, -10.0), 315.0, (0.0, 0.0, 5.0)),
    ],
)
def test_billboard_centroid_matches_angle_oracle(cam_xy, heading, target):
    light = TruthObject("traffic_light", None, "low", LocalPoint(target[0], target[1]), target[2])
    lay = layout(objs=[light], cams=[pose(cam_xy[0], cam_xy[1], heading)])
    runs, _ = render_image(lay, lay.cameras[0])
    regions = extract_regions([runs], categories=["traffic_light"], min_region_px=1)[0]
    want = project_oracle(cam_xy, heading, target)
    assert want is not None and len(regions) == 1
    row, col = regions[0].centroid
    assert abs(col - want[0]) <= 1.0
    assert abs(row - want[1]) <= 1.0


def test_high_light_at_20m_sits_above_horizon_in_sky():
    light = TruthObject("traffic_light", None, "high", LocalPoint(0.0, 0.0), 7.0)
    lay = layout(objs=[light], cams=[pose(0.0, -20.0, 0.0)])
    runs, _ = render_image(lay, lay.cameras[0])
    regions = extract_regions([runs], categories=["traffic_light"], min_region_px=1)[0]
    assert len(regions) == 1
    row, col = regions[0].centroid
    # v = 384 + 512 * (1.6 - 7.0) / 20 = 245.76
    assert abs(row - 245.76) <= 1.0
    assert abs(col - 512.0) <= 1.0
    x, y, w, h = map(int, regions[0].bbox)  # whole pixels, held as floats
    sky = CATEGORY_IDS["sky"]
    ring = runs.rows(0, runs.height)[y - 3 : y + h + 3, x - 3 : x + w + 3].copy()
    ring[3 : 3 + h, 3 : 3 + w] = sky
    assert (ring == sky).all()


def test_ground_aprons_leave_sidewalk_band_around_buildings():
    fp = RectFootprint("b0", 9.5, 9.5, 29.5, 29.5, 12.0)
    lay = layout(fps=[fp], cams=[pose(-30.0, -3.5, 90.0)])
    runs, _ = render_image(lay, lay.cameras[0])
    canvas = runs.rows(0, runs.height)
    ids = CATEGORY_IDS
    counts = np.bincount(canvas.ravel(), minlength=256)
    assert counts[ids["sidewalk"]] > 25
    assert counts[ids["building"]] > 1000
    # Building wall rises above the horizon, sidewalk stays below it.
    horizon = 768 // 2 + 1
    assert (canvas[:horizon] != ids["sidewalk"]).all()
    assert counts[ids["road"]] > 0 and counts[ids["sky"]] > 0


def test_building_occludes_sign_no_detection():
    hidden = TruthObject("traffic_sign", "stop", None, LocalPoint(0.0, 10.0), 3.0)
    seen = TruthObject("traffic_sign", "yield", None, LocalPoint(8.0, 5.0), 3.0)
    slab = RectFootprint("b0", -5.0, -2.0, 5.0, 2.0, 10.0)
    lay = layout(objs=[hidden, seen], fps=[slab], cams=[pose(0.0, -20.0, 0.0)])
    runs, dets = render_image(lay, lay.cameras[0])
    canvas = runs.rows(0, runs.height)
    assert [d.subtype for d in dets] == ["yield"]
    bx, by, bw, bh = dets[0].bbox
    sign = CATEGORY_IDS["traffic_sign"]
    patch = canvas[int(by) : int(by + bh), int(bx) : int(bx + bw)]
    assert (patch == sign).sum() >= 9


def test_detection_bbox_hugs_rendered_region():
    sign = TruthObject("traffic_sign", "stop", None, LocalPoint(3.0, 0.0), 3.0)
    lay = layout(objs=[sign], cams=[pose(0.0, -25.0, 0.0)])
    runs, dets = render_image(lay, lay.cameras[0])
    assert len(dets) == 1
    regions = extract_regions([runs], categories=["traffic_sign"], min_region_px=1)[0]
    assert len(regions) == 1
    assert dets[0].bbox == tuple(float(v) for v in regions[0].bbox)
    assert dets[0].score == 1.0


def test_camera_inside_footprint_raises():
    fp = RectFootprint("b0", -5.0, -5.0, 5.0, 5.0, 10.0)
    lay = layout(fps=[fp], cams=[pose(0.0, 0.0, 90.0)])
    with pytest.raises(ValueError, match="inside footprint"):
        render_image(lay, lay.cameras[0])


def test_render_is_deterministic():
    lay = standard_fixtures(n=1, seed=7)[0]
    a, _ = render_bundle(lay)
    b, _ = render_bundle(lay)
    for iid in a.label_maps:
        ra, rb = a.label_maps[iid], b.label_maps[iid]
        assert ra.starts.tobytes() == rb.starts.tobytes()
        assert ra.values.tobytes() == rb.values.tobytes()
    assert a.detections == b.detections


# ---------------------------------------------------------------------------
# Raster oracle: the painter's algorithm on a pixel canvas. render_image
# composites row spans instead; both must give the same map and detections.


def fill_convex_oracle(canvas: np.ndarray, uv: list[tuple[float, float]], value: int) -> None:
    if len(uv) < 3:
        return
    h, w = canvas.shape
    vs = np.asarray(uv, dtype=float)
    r_lo = max(0, int(math.ceil(vs[:, 1].min())))
    r_hi = min(h - 1, int(math.floor(vs[:, 1].max())))
    if r_hi < r_lo:
        return
    rows = np.arange(r_lo, r_hi + 1, dtype=float)
    umin = np.full(rows.shape, np.inf)
    umax = np.full(rows.shape, -np.inf)
    n = len(vs)
    for i in range(n):
        u0, v0 = vs[i]
        u1, v1 = vs[(i + 1) % n]
        if v0 == v1:
            sel = rows == v0
            if sel.any():
                umin[sel] = np.minimum(umin[sel], min(u0, u1))
                umax[sel] = np.maximum(umax[sel], max(u0, u1))
            continue
        t = (rows - v0) / (v1 - v0)
        sel = (t >= 0.0) & (t <= 1.0)
        if not sel.any():
            continue
        uu = u0 + t[sel] * (u1 - u0)
        umin[sel] = np.minimum(umin[sel], uu)
        umax[sel] = np.maximum(umax[sel], uu)
    c0 = np.maximum(np.ceil(umin), 0.0)
    c1 = np.minimum(np.floor(umax), float(w - 1))
    ok = np.isfinite(umin) & np.isfinite(umax) & (c1 >= c0)
    if not ok.any():
        return
    lo, hi = int(c0[ok].min()), int(c1[ok].max())
    cols = np.arange(lo, hi + 1)
    span = (cols >= c0[:, None]) & (cols <= c1[:, None])
    canvas[r_lo : r_hi + 1, lo : hi + 1][span] = value


def paint_oracle(lay: Layout, cam_pose: CameraPose, polys: list | None = None):
    """(canvas, detections) of one view, painted pixel by pixel in painter's
    order; every image polygon drawn is appended to polys when given."""
    cam = lay.camera
    ids = CATEGORY_IDS

    def fill(quad, value):
        uv = synth._project_poly(cam, synth._clip_near(synth._to_cam(cam_pose, cam, quad)))
        if polys is not None:
            polys.append(uv)
        fill_convex_oracle(canvas, uv, value)

    canvas = np.full((cam.height_px, cam.width_px), ids["sky"], dtype=np.uint8)
    canvas[cam.height_px // 2 + 1 :, :] = ids["road"]
    for fp in lay.footprints:
        ex0, ey0, ex1, ey1 = fp.expanded(synth._APRON_M)
        fill([(ex0, ey0, 0.0), (ex1, ey0, 0.0), (ex1, ey1, 0.0), (ex0, ey1, 0.0)], ids["sidewalk"])
    px, py = cam_pose.position.x, cam_pose.position.y
    drawables = []  # (plan distance, draw order, quad or board)
    for fp in lay.footprints:
        c = fp.corners()
        for a, b in zip(c, c[1:] + c[:1]):
            quad = [(*a, 0.0), (*b, 0.0), (*b, fp.height_m), (*a, fp.height_m)]
            d = math.hypot((a[0] + b[0]) / 2.0 - px, (a[1] + b[1]) / 2.0 - py)
            drawables.append((d, len(drawables), ("poly", quad)))
        roof = [(x, y, fp.height_m) for x, y in c]
        d = math.hypot((fp.x0 + fp.x1) / 2.0 - px, (fp.y0 + fp.y1) / 2.0 - py)
        drawables.append((d, len(drawables), ("poly", roof)))
    for i, t in enumerate(lay.truth_objects):
        light = t.category == "traffic_light"
        size = (synth._LIGHT_W, synth._LIGHT_H) if light else (synth._SIGN_W, synth._SIGN_H)
        board = (t.position, t.mount_m, *size, ids[t.category], None if light else i)
        d = math.hypot(t.position.x - px, t.position.y - py)
        drawables.append((d, len(drawables), ("board", board)))
    for ped in lay.pedestrians:
        board = (ped.position, ped.height_m / 2.0, synth._PED_W, ped.height_m, ids["pedestrian"], None)
        d = math.hypot(ped.position.x - px, ped.position.y - py)
        drawables.append((d, len(drawables), ("board", board)))
    sign_rects = {}
    for _, _, (kind, item) in sorted(drawables, key=lambda d: (-d[0], d[1])):
        if kind == "poly":
            fill(item, ids["building"])
            continue
        at, z, w_m, h_m, value, sign = item
        rect = synth._billboard_rect(cam_pose, cam, at.x, at.y, z, w_m, h_m)
        if rect is None:
            continue
        r0, r1, c0, c1 = rect
        canvas[r0 : r1 + 1, c0 : c1 + 1] = value
        if sign is not None:
            sign_rects[sign] = rect
    dets = []
    for i in sorted(sign_rects):
        r0, r1, c0, c1 = sign_rects[i]
        visible = int((canvas[r0 : r1 + 1, c0 : c1 + 1] == ids["traffic_sign"]).sum())
        if visible < max(9, int(0.2 * (r1 - r0 + 1) * (c1 - c0 + 1))):
            continue
        box = (float(c0), float(r0), float(c1 - c0 + 1), float(r1 - r0 + 1))
        dets.append(Detection(cam_pose.image_id, "traffic_sign", lay.truth_objects[i].subtype, box, 1.0))
    return canvas, dets


def assert_renders_like_oracle(lay: Layout) -> list:
    """render_image against paint_oracle for every camera of lay; returns the
    image polygons the oracle drew."""
    polys: list = []
    for cam_pose in lay.cameras:
        runs, dets = render_image(lay, cam_pose)
        canvas, want_dets = paint_oracle(lay, cam_pose, polys)
        want = runs_of(canvas)
        assert (runs.width, runs.height) == (want.width, want.height)
        assert np.array_equal(runs.starts, want.starts)
        assert np.array_equal(runs.values, want.values)
        assert runs.values.dtype == np.uint8
        assert dets == want_dets
    return polys


HALF = CameraModel(width_px=512, height_px=384)
SQUARE = RectFootprint("b0", 0.0, 0.0, 10.0, 10.0, 12.0)
# A building exactly as tall as the camera: its top edges and roof project
# onto the image's centre row, a flat polygon edge on a whole row.
EYE_LEVEL = RectFootprint("b1", -12.0, 4.0, -4.0, 9.0, CameraModel().cam_height_m)


def edge_cases() -> list[Layout]:
    """Hand-made layouts that force near-plane clipping to 3 and 5 vertices
    (a camera on a building's apron, facing away from it and across it),
    flat polygon edges on a whole row, a board one pixel across, half
    resolution, and more layers than one 52-bit mask word holds (70
    overlapping signs)."""
    signs = [
        TruthObject("traffic_sign", "stop", None, LocalPoint(-6.0 + 0.17 * k, 14.0 + 0.05 * k), 1.0 + 0.06 * k)
        for k in range(70)
    ]
    light = TruthObject("traffic_light", None, "low", LocalPoint(-1.0, 3.0), 4.0)
    speck = TruthObject("traffic_light", None, "high", LocalPoint(-8.0, 600.0), 7.0)  # one pixel
    cams = [
        pose(-1.0, -1.0, 45.0, "across"),
        pose(-1.0, -1.0, 225.0, "away"),
        pose(-8.0, -6.0, 0.0, "north"),
        pose(12.0, 5.0, 270.0, "west"),
    ]
    walk = [PedestrianSpec(LocalPoint(-2.0, 2.0), 1.7)]
    out = []
    for model in (CameraModel(), HALF):
        lay = layout(objs=[light, speck, *signs], peds=walk, fps=[SQUARE, EYE_LEVEL], cams=cams)
        lay.camera = model
        out.append(lay)
    return out


def test_edge_cases_clip_lie_flat_and_outgrow_one_mask_word():
    polys = [uv for lay in edge_cases() for uv in assert_renders_like_oracle(lay)]
    assert {3, 5} <= {len(uv) for uv in polys}
    assert any(
        v0 == v1 == math.floor(v0)
        for uv in polys
        for (_, v0), (_, v1) in zip(uv, uv[1:] + uv[:1])
    )
    lay = edge_cases()[0]
    assert len(lay.truth_objects) + 5 * len(lay.footprints) > 64


@st.composite
def random_layouts(draw) -> Layout:
    """Up to three buildings, some as tall as the camera; up to 75 lights and
    signs, near or far, and two pedestrians; cameras anywhere, or just off a
    face or corner of a building; full or half resolution."""
    coord = st.floats(-25.0, 25.0)
    far = st.floats(-700.0, 700.0)  # boards a pixel or two across
    fps = []
    for i in range(draw(st.integers(0, 3))):
        x0, y0 = draw(coord), draw(coord)
        x1 = x0 + draw(st.floats(1.0, 15.0))
        y1 = y0 + draw(st.floats(1.0, 15.0))
        height = draw(st.sampled_from([CameraModel().cam_height_m, 4.0]) | st.floats(0.5, 20.0))
        fps.append(RectFootprint(f"b{i}", x0, y0, x1, y1, height))
    objs = []
    for _ in range(draw(st.integers(0, 75))):
        at = LocalPoint(draw(coord | far), draw(coord | far))
        mount = draw(st.floats(0.3, 8.0))
        if draw(st.booleans()):
            objs.append(TruthObject("traffic_light", None, "low", at, mount))
        else:
            objs.append(TruthObject("traffic_sign", draw(st.sampled_from(["stop", "yield"])), None, at, mount))
    peds = [
        PedestrianSpec(LocalPoint(draw(coord), draw(coord)), draw(st.floats(1.0, 2.0)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    cams = []
    for k in range(draw(st.integers(1, 3))):
        if fps and draw(st.booleans()):
            # Just outside a building's edge or corner, within its apron.
            fp = draw(st.sampled_from(fps))
            gap = draw(st.floats(0.01, 2.0))
            xs = st.sampled_from([fp.x0 - gap, fp.x1 + gap])
            ys = st.sampled_from([fp.y0 - gap, fp.y1 + gap])
            x, y = draw(
                st.tuples(xs, ys)  # off a corner
                | st.tuples(xs, st.floats(fp.y0, fp.y1))  # off a west or east face
                | st.tuples(st.floats(fp.x0, fp.x1), ys)  # off a south or north face
            )
        else:
            x, y = draw(coord), draw(coord)
        heading = draw(st.sampled_from([0.0, 90.0, 180.0, 270.0]) | st.floats(0.0, 360.0, exclude_max=True))
        cams.append(pose(x, y, heading, f"img{k}"))
    assume(not any(fp.contains(c.position.x, c.position.y) for fp in fps for c in cams))
    lay = layout(objs=objs, peds=peds, fps=fps, cams=cams)
    lay.camera = draw(st.sampled_from([CameraModel(), HALF]))
    return lay


@settings(max_examples=60, deadline=None)
@given(random_layouts())
def test_render_image_equals_raster_oracle(lay):
    assert_renders_like_oracle(lay)


# ---------------------------------------------------------------------------
# Layout validation and serialization.


def test_validate_rejects_far_geometry():
    far = TruthObject("traffic_sign", "stop", None, LocalPoint(150.0, 0.0), 3.0)
    with pytest.raises(ValueError, match="100 m"):
        validate_layout(layout(objs=[far]))


def test_validate_rejects_off_menu_light_mount():
    bad = TruthObject("traffic_light", None, "low", LocalPoint(5.0, 5.0), 5.5)
    with pytest.raises(ValueError, match="mount"):
        validate_layout(layout(objs=[bad]))


def test_validate_rejects_duplicate_image_ids():
    cams = [pose(0.0, -20.0, 0.0), pose(0.0, -25.0, 0.0)]
    with pytest.raises(ValueError, match="duplicate"):
        validate_layout(layout(cams=cams))


def test_validate_rejects_camera_in_building():
    fp = RectFootprint("b0", -5.0, -5.0, 5.0, 5.0, 10.0)
    with pytest.raises(ValueError, match="inside"):
        validate_layout(layout(fps=[fp], cams=[pose(0.0, 0.0, 0.0)]))


def _first(items, **changes):
    return [dataclasses.replace(items[0], **changes), *items[1:]]


# (changes to the first standard fixture, the error render_bundle must raise).
_OUT_OF_RANGE_LAYOUTS = {
    "hfov-0": (
        lambda lay: {"camera": CameraModel(hfov_deg=0)},
        "x0000: camera: hfov_deg must be finite and in (0, 180), got 0",
    ),
    "width-0": (
        lambda lay: {"camera": CameraModel(width_px=0)},
        "x0000: camera: width_px must be at most 2**62 and > 0, got 0",
    ),
    "radius-negative": (lambda lay: {"radius_m": -5.0}, "x0000: radius_m must be finite and > 0, got -5.0"),
    "footprint-height-negative": (
        lambda lay: {"footprints": _first(lay.footprints, height_m=-3)},
        "x0000: footprint x0000-ne: height_m must be finite and > 0, got -3",
    ),
    "pedestrian-height-0": (
        lambda lay: {"pedestrians": _first(lay.pedestrians, height_m=0.0)},
        "x0000: pedestrians[0]: height_m must be finite and > 0, got 0.0",
    ),
}


@pytest.mark.parametrize("changes, message", list(_OUT_OF_RANGE_LAYOUTS.values()), ids=list(_OUT_OF_RANGE_LAYOUTS))
def test_render_bundle_names_a_field_out_of_its_range(changes, message):
    # A layout built in code, not read by the codec, has its ranges checked
    # by validate_layout before anything is rendered.
    lay = standard_fixtures(1)[0]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        render_bundle(dataclasses.replace(lay, **changes(lay)))


def test_layout_json_round_trip(tmp_path):
    lay = standard_fixtures(n=2, seed=3)[1]
    doc = to_json(lay)
    back = from_json(Layout, doc, "layout")
    assert back == lay
    assert to_json(back) == doc
    path = tmp_path / "layouts.json"
    for seed in (1, 2, 3):
        lays = standard_fixtures(n=6, seed=seed)
        save_layouts(lays, str(path))
        assert load_layouts(str(path)) == lays


def test_load_layouts_reads_one_layout_or_a_list(tmp_path):
    # The loader behind both `rop synth --layout` and the preview script.
    lays = standard_fixtures(n=2, seed=3)
    path = tmp_path / "layouts.json"
    path.write_text(json.dumps(to_json(lays[1])))
    assert load_layouts(str(path)) == [lays[1]]
    path.write_text(json.dumps([to_json(lay) for lay in lays]))
    assert load_layouts(str(path)) == lays
    # Footprints and truth objects may be left out, like every field with a default.
    path.write_text(json.dumps({"intersection_id": "z", "center": {"lat": 52.5, "lon": 13.4}}))
    assert load_layouts(str(path)) == [Layout("z", CENTER)]


def _fixture_text(edit) -> str:
    """The layout file of one standard fixture, after edit(its layout object)."""
    doc = to_json(standard_fixtures(n=1, seed=1)[0])
    edit(doc)
    return json.dumps([doc])


def _two_fixtures_text(edit) -> str:
    """The layout file of two standard fixtures, after edit(their layout objects)."""
    docs = [to_json(lay) for lay in standard_fixtures(n=2, seed=1)]
    edit(docs)
    return json.dumps(docs)


def _first_light(doc: dict) -> dict:
    return next(t for t in doc["truth_objects"] if t["category"] == "traffic_light")


# (layout file text, what the error must name besides the file). The first
# four keep their text as their test id.
BAD_LAYOUTS = [
    pytest.param(text, where, id=text)
    for text, where in [
        ("{\n", "line 2 column 1"),
        ('{"intersection_id": "z"}', "layouts[0]: missing field 'center'"),
        ('["z"]', "layouts[0]: expected a JSON object"),
        ('[{"intersection_id": "z", "center": 1}]', "layouts[0].center: expected a JSON object"),
    ]
] + [
    pytest.param(_fixture_text(edit), where, id=name)
    for name, edit, where in [
        (
            "footprint-x0-string",
            lambda d: d["footprints"][0].update(x0="abc"),
            "layouts[0].footprints[0]: x0 must be a number",
        ),
        (
            "camera-heading-bool",
            lambda d: d["cameras"][0].update(heading_deg=True),
            "layouts[0].cameras[0]: heading_deg must be a number",
        ),
        (
            "truth-subtype-int",
            lambda d: d["truth_objects"][0].update(subtype=5),
            "layouts[0].truth_objects[0]: subtype must be a string",
        ),
        (
            "camera-x-null",
            lambda d: d["cameras"][0].update(x=None),
            "layouts[0].cameras[0]: x must be a number",
        ),
        (
            "pedestrian-height-string",
            lambda d: d["pedestrians"][0].update(height_m="1.7"),
            "layouts[0].pedestrians[0]: height_m must be a number",
        ),
        (
            "camera-width-fractional",
            lambda d: d["camera"].update(width_px=1024.5),
            "layouts[0].camera: width_px must be a number",
        ),
        (
            "center-lat-95",
            lambda d: d["center"].update(lat=95),
            "layouts[0].center: latitude 95.0 outside [-90, 90]",
        ),
        (
            "pedestrians-string",
            lambda d: d.update(pedestrians="x"),
            "layouts[0]: pedestrians must be a list",
        ),
        (
            "light-mount-off-menu",
            lambda d: _first_light(d).update(mount_m=5.0),
            "layouts[0]: x0000: light mount 5.0 not in {4.0, 7.0}",
        ),
        (
            "footprint-x1-at-x0",
            lambda d: d["footprints"][0].update(x1=d["footprints"][0]["x0"]),
            "layouts[0]: x0000: footprint x0000-ne is degenerate",
        ),
        (
            "duplicate-image-id",
            lambda d: d["cameras"][1].update(image_id=d["cameras"][0]["image_id"]),
            "layouts[0]: x0000: duplicate image id",
        ),
        # One value outside each range a layout's fields declare. At hfov_deg
        # 0 rendering would divide by zero; at radius_m 0 it would write a
        # buffers.json that rop place rejects.
        (
            "camera-hfov-0",
            lambda d: d["camera"].update(hfov_deg=0),
            "layouts[0].camera: hfov_deg must be finite and in (0, 180), got 0.0",
        ),
        (
            "camera-hfov-180",
            lambda d: d["camera"].update(hfov_deg=180),
            "layouts[0].camera: hfov_deg must be finite and in (0, 180), got 180.0",
        ),
        (
            "camera-height-negative",
            lambda d: d["camera"].update(cam_height_m=-3),
            "layouts[0].camera: cam_height_m must be finite and > 0, got -3.0",
        ),
        (
            "camera-width-0",
            lambda d: d["camera"].update(width_px=0),
            "layouts[0].camera: width_px must be at most 2**62 and > 0, got 0",
        ),
        (
            "pedestrian-height-negative",
            lambda d: d["pedestrians"][0].update(height_m=-1),
            "layouts[0].pedestrians[0]: height_m must be finite and > 0, got -1.0",
        ),
        (
            "footprint-height-0",
            lambda d: d["footprints"][0].update(height_m=0),
            "layouts[0].footprints[0]: height_m must be finite and > 0, got 0.0",
        ),
        (
            "radius-0",
            lambda d: d.update(radius_m=0),
            "layouts[0]: radius_m must be finite and > 0, got 0.0",
        ),
        (
            "radius-negative",
            lambda d: d.update(radius_m=-5),
            "layouts[0]: radius_m must be finite and > 0, got -5.0",
        ),
    ]
] + [
    pytest.param(_two_fixtures_text(edit), where, id=name)
    for name, edit, where in [
        (
            "repeated-layout",
            lambda docs: docs.append(docs[0]),
            "layouts[2]: intersection_id 'x0000' is also in layouts[0]",
        ),
        (
            "image-id-in-two-layouts",
            lambda docs: docs[1]["cameras"][0].update(image_id=docs[0]["cameras"][0]["image_id"]),
            "layouts[1]: image_id 'x0000-WE-00' is also in layouts[0]",
        ),
    ]
]


@pytest.mark.parametrize("text, where", BAD_LAYOUTS)
def test_load_layouts_error_names_file(text, where, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))) as info:
        load_layouts(str(path))
    assert where in str(info.value)


def test_truth_as_placed_heights_only_for_lights():
    objs = [
        TruthObject("traffic_light", None, "low", LocalPoint(1.0, 2.0), 4.0),
        TruthObject("traffic_sign", "stop", None, LocalPoint(3.0, 4.0), 3.0),
    ]
    placed = truth_as_placed(layout(objs=objs))
    by_cat = {p.category: p for p in placed}
    assert by_cat["traffic_light"].height_m == 4.0
    assert by_cat["traffic_light"].light_kind == "low"
    assert by_cat["traffic_sign"].height_m is None
    assert all(p.confidence == 1.0 and p.support == 1 for p in placed)


# ---------------------------------------------------------------------------
# Disk round trip through the load path.


def test_write_bundle_reloads_identically(tmp_path):
    lay = standard_fixtures(n=1, seed=5)[0]
    bundle, _ = render_bundle(lay)
    paths = write_bundle(bundle, str(tmp_path))
    loaded = load_inputs(
        images_path=paths["images"],
        masks_dir=paths["masks"],
        detections_path=paths["detections"],
        footprints_path=paths["footprints"],
        buffers_path=paths["buffers"],
    )
    assert [im.image_id for im in loaded.images] == [im.image_id for im in bundle.images]
    assert sorted(p.name for p in Path(paths["masks"]).iterdir()) == sorted(
        f"{im.image_id}.rle" for im in bundle.images
    )
    for im in bundle.images:
        got, want = loaded.label_maps[im.image_id], bundle.label_maps[im.image_id]
        assert (got.width, got.height) == (want.width, want.height)
        assert np.array_equal(got.starts, want.starts)
        assert np.array_equal(got.values, want.values)
    assert loaded.detections == bundle.detections
    assert [fp.id for fp in loaded.footprints] == [fp.id for fp in bundle.footprints]
    assert loaded.buffers == bundle.buffers


# ---------------------------------------------------------------------------
# Standard fixture family invariants.


def test_standard_fixtures_are_deterministic():
    a = standard_fixtures(n=6, seed=1)
    b = standard_fixtures(n=6, seed=1)
    assert [to_json(x) for x in a] == [to_json(y) for y in b]
    c = standard_fixtures(n=6, seed=2)
    assert [to_json(x) for x in a] != [to_json(y) for y in c]


def test_standard_fixtures_validate_and_alternate_kinds():
    layouts = standard_fixtures(n=10, seed=1)
    for i, lay in enumerate(layouts):
        validate_layout(lay)
        assert lay.kind == ("crossroad" if i % 2 == 0 else "t_junction")
        directions = {direction_of(c.heading_deg) for c in lay.cameras}
        assert directions == (
            {"WE", "EW", "SN", "NS"} if lay.kind == "crossroad" else {"WE", "EW", "NS"}
        )
        per_track: dict[str, int] = {}
        for c in lay.cameras:
            track = c.image_id.rsplit("-", 1)[0]
            per_track[track] = per_track.get(track, 0) + 1
        assert all(3 <= n <= 6 for n in per_track.values())
    ids = [c.image_id for lay in layouts for c in lay.cameras]
    assert len(ids) == len(set(ids))


def test_standard_fixture_low_lights_come_in_mirrored_pairs():
    for lay in standard_fixtures(n=20, seed=1):
        lows = [
            t.position
            for t in lay.truth_objects
            if t.category == "traffic_light" and t.light_kind == "low"
        ]
        for p in lows:
            mirrored = any(
                (abs(q.x + p.x) < 0.1 and abs(q.y - p.y) < 0.1)
                or (abs(q.x - p.x) < 0.1 and abs(q.y + p.y) < 0.1)
                for q in lows
                if q is not p
            )
            assert mirrored, f"{lay.intersection_id}: low light at {p} has no partner"


def test_standard_fixture_light_mounts_on_menu():
    for lay in standard_fixtures(n=20, seed=1):
        for t in lay.truth_objects:
            if t.category == "traffic_light":
                assert t.mount_m in (4.0, 7.0)
                assert t.light_kind == ("low" if t.mount_m == 4.0 else "high")


def test_render_preview_palette_covers_the_registry():
    script = Path(__file__).resolve().parent.parent / "scripts" / "render_preview.py"
    spec = importlib.util.spec_from_file_location("render_preview", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert set(module.PALETTE) == set(CATEGORY_IDS)
