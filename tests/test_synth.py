"""Renderer and fixture-family checks.

The projection oracle recomputes pixel coordinates through viewing angles
(azimuth/elevation) instead of the renderer's dot-product camera basis, so a
sign error in either formulation breaks the comparison.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rop.geo import GeoPoint, LocalPoint
from rop.ingest import CATEGORY_IDS, direction_of, load_inputs
from rop.labelmap import runs_of
from rop.scene import extract_regions
from rop.synth import (
    CameraModel,
    CameraPose,
    Layout,
    PedestrianSpec,
    RectFootprint,
    TruthObject,
    layout_from_json,
    layout_to_json,
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
    canvas, dets = render_image(lay, lay.cameras[0])
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
    canvas, _ = render_image(lay, lay.cameras[0])
    regions = extract_regions([runs_of(canvas)], categories=["traffic_light"], min_region_px=1)[0]
    want = project_oracle(cam_xy, heading, target)
    assert want is not None and len(regions) == 1
    row, col = regions[0].centroid
    assert abs(col - want[0]) <= 1.0
    assert abs(row - want[1]) <= 1.0


def test_high_light_at_20m_sits_above_horizon_in_sky():
    light = TruthObject("traffic_light", None, "high", LocalPoint(0.0, 0.0), 7.0)
    lay = layout(objs=[light], cams=[pose(0.0, -20.0, 0.0)])
    canvas, _ = render_image(lay, lay.cameras[0])
    regions = extract_regions([runs_of(canvas)], categories=["traffic_light"], min_region_px=1)[0]
    assert len(regions) == 1
    row, col = regions[0].centroid
    # v = 384 + 512 * (1.6 - 7.0) / 20 = 245.76
    assert abs(row - 245.76) <= 1.0
    assert abs(col - 512.0) <= 1.0
    x, y, w, h = map(int, regions[0].bbox)  # whole pixels, held as floats
    sky = CATEGORY_IDS["sky"]
    ring = canvas[y - 3 : y + h + 3, x - 3 : x + w + 3].copy()
    ring[3 : 3 + h, 3 : 3 + w] = sky
    assert (ring == sky).all()


def test_ground_aprons_leave_sidewalk_band_around_buildings():
    fp = RectFootprint("b0", 9.5, 9.5, 29.5, 29.5, 12.0)
    lay = layout(fps=[fp], cams=[pose(-30.0, -3.5, 90.0)])
    canvas, _ = render_image(lay, lay.cameras[0])
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
    canvas, dets = render_image(lay, lay.cameras[0])
    assert [d.subtype for d in dets] == ["yield"]
    bx, by, bw, bh = dets[0].bbox
    sign = CATEGORY_IDS["traffic_sign"]
    patch = canvas[int(by) : int(by + bh), int(bx) : int(bx + bw)]
    assert (patch == sign).sum() >= 9


def test_detection_bbox_hugs_rendered_region():
    sign = TruthObject("traffic_sign", "stop", None, LocalPoint(3.0, 0.0), 3.0)
    lay = layout(objs=[sign], cams=[pose(0.0, -25.0, 0.0)])
    canvas, dets = render_image(lay, lay.cameras[0])
    assert len(dets) == 1
    regions = extract_regions([runs_of(canvas)], categories=["traffic_sign"], min_region_px=1)[0]
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


def test_layout_json_round_trip(tmp_path):
    lay = standard_fixtures(n=2, seed=3)[1]
    doc = layout_to_json(lay)
    back = layout_from_json(doc)
    assert back == lay
    assert layout_to_json(back) == doc
    path = tmp_path / "layouts.json"
    for seed in (1, 2, 3):
        lays = standard_fixtures(n=6, seed=seed)
        save_layouts(lays, str(path))
        assert load_layouts(str(path)) == lays


def test_load_layouts_reads_one_layout_or_a_list(tmp_path):
    # The loader behind both `rop synth --layout` and the preview script.
    lays = standard_fixtures(n=2, seed=3)
    path = tmp_path / "layouts.json"
    path.write_text(json.dumps(layout_to_json(lays[1])))
    assert load_layouts(str(path)) == [lays[1]]
    path.write_text(json.dumps([layout_to_json(lay) for lay in lays]))
    assert load_layouts(str(path)) == lays
    # Footprints and truth objects may be left out, like every field with a default.
    path.write_text(json.dumps({"intersection_id": "z", "center": {"lat": 52.5, "lon": 13.4}}))
    assert load_layouts(str(path)) == [Layout("z", CENTER)]


def _fixture_text(edit) -> str:
    """The layout file of one standard fixture, after edit(its layout object)."""
    doc = layout_to_json(standard_fixtures(n=1, seed=1)[0])
    edit(doc)
    return json.dumps([doc])


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
            "duplicate-image-id",
            lambda d: d["cameras"][1].update(image_id=d["cameras"][0]["image_id"]),
            "layouts[0]: x0000: duplicate image id",
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
    assert [layout_to_json(x) for x in a] == [layout_to_json(y) for y in b]
    c = standard_fixtures(n=6, seed=2)
    assert [layout_to_json(x) for x in a] != [layout_to_json(y) for y in c]


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
