"""Synthetic intersection scenes with exact ground truth.

A Layout declares an intersection in local meters: rectangular building
footprints, truth objects (lights, signs), pedestrians, and camera poses.
render_bundle renders pinhole views of it into the exact input formats the
pipeline ingests, plus a truth GeoJSON. Each view is painted in painter's
order as row spans, composited straight into row runs with no pixel array.
Geometry is deliberately simple (extruded boxes, camera-facing billboards,
flat ground): the downstream rules consume category maps and centroids,
nothing finer.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import check_fields
from .geo import Footprint, GeoPoint, LocalPoint, heading_vector, make_frame, unproject
from .ingest import (
    Bundle,
    Detection,
    ImageMeta,
    IntersectionBuffer,
    _load_json,
    feature,
    from_json,
    to_json,
)
from .labelmap import CATEGORY_IDS, LabelRuns, write_rle
from .placer import PlacedObject, to_geojson

_NEAR_M = 0.2


@dataclass(frozen=True)
class CameraModel:
    hfov_deg: float = field(default=90.0, metadata={"range": "in (0, 180)"})
    width_px: int = field(default=1024, metadata={"range": "> 0"})
    height_px: int = field(default=768, metadata={"range": "> 0"})
    cam_height_m: float = field(default=1.6, metadata={"range": "> 0"})

    @property
    def focal_px(self) -> float:
        return (self.width_px / 2.0) / math.tan(math.radians(self.hfov_deg) / 2.0)


@dataclass(frozen=True)
class RectFootprint:
    id: str
    x0: float
    y0: float
    x1: float
    y1: float
    height_m: float = field(metadata={"range": "> 0"})

    def expanded(self, margin: float) -> tuple[float, float, float, float]:
        return (self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin)

    def contains(self, x: float, y: float) -> bool:
        return self.x0 < x < self.x1 and self.y0 < y < self.y1

    def corners(self) -> list[tuple[float, float]]:
        return [(self.x0, self.y0), (self.x1, self.y0), (self.x1, self.y1), (self.x0, self.y1)]


@dataclass(frozen=True)
class TruthObject:
    category: str  # traffic_light | traffic_sign
    subtype: str | None
    light_kind: str | None  # high | low | None
    position: LocalPoint = field(metadata={"flat": True})
    mount_m: float  # height of the object center above ground


@dataclass(frozen=True)
class PedestrianSpec:
    position: LocalPoint = field(metadata={"flat": True})
    height_m: float = field(metadata={"range": "> 0"})


@dataclass(frozen=True)
class CameraPose:
    image_id: str
    sequence_id: str
    position: LocalPoint = field(metadata={"flat": True})
    heading_deg: float


@dataclass
class Layout:
    intersection_id: str
    center: GeoPoint
    footprints: list[RectFootprint] = field(default_factory=list)
    truth_objects: list[TruthObject] = field(default_factory=list)
    pedestrians: list[PedestrianSpec] = field(default_factory=list)
    cameras: list[CameraPose] = field(default_factory=list)
    camera: CameraModel = field(default_factory=CameraModel)
    radius_m: float = field(default=50.0, metadata={"range": "> 0"})
    kind: str = "crossroad"


_LIGHT_W, _LIGHT_H = 0.3, 0.9
_SIGN_W, _SIGN_H = 0.6, 0.6
_PED_W = 0.5
_APRON_M = 2.5


def validate_layout(layout: Layout) -> None:
    records = [("", layout), ("camera: ", layout.camera)]
    records += [(f"footprint {fp.id}: ", fp) for fp in layout.footprints]
    records += [(f"pedestrians[{i}]: ", p) for i, p in enumerate(layout.pedestrians)]
    for what, record in records:
        try:
            check_fields(record)
        except ValueError as exc:
            raise ValueError(f"{layout.intersection_id}: {what}{exc}") from exc

    def check_reach(x, y, what):
        if math.hypot(x, y) > 100.0:
            raise ValueError(f"{layout.intersection_id}: {what} farther than 100 m from center")

    for fp in layout.footprints:
        for x, y in fp.corners():
            check_reach(x, y, f"footprint {fp.id}")
        if fp.x1 <= fp.x0 or fp.y1 <= fp.y0:
            raise ValueError(f"{layout.intersection_id}: footprint {fp.id} is degenerate")
    for t in layout.truth_objects:
        check_reach(t.position.x, t.position.y, f"truth {t.category}")
        if t.category == "traffic_light" and t.mount_m not in (4.0, 7.0):
            raise ValueError(
                f"{layout.intersection_id}: light mount {t.mount_m} not in {{4.0, 7.0}}"
            )
    for p in layout.pedestrians:
        check_reach(p.position.x, p.position.y, "pedestrian")
    seen = set()
    for pose in layout.cameras:
        check_reach(pose.position.x, pose.position.y, f"camera {pose.image_id}")
        if pose.image_id in seen:
            raise ValueError(f"{layout.intersection_id}: duplicate image id {pose.image_id}")
        seen.add(pose.image_id)
        for fp in layout.footprints:
            if fp.contains(pose.position.x, pose.position.y):
                raise ValueError(
                    f"{layout.intersection_id}: camera {pose.image_id} inside footprint {fp.id}"
                )


# ---------------------------------------------------------------------------
# Rendering.


def _cam_basis(pose: CameraPose) -> tuple[float, float, float, float]:
    fx, fy = heading_vector(pose.heading_deg)
    return fx, fy, fy, -fx  # forward, right


def _to_cam(pose: CameraPose, cam: CameraModel, pts: list[tuple[float, float, float]]):
    fx, fy, rx, ry = _cam_basis(pose)
    out = []
    for x, y, z in pts:
        dx, dy = x - pose.position.x, y - pose.position.y
        out.append((rx * dx + ry * dy, cam.cam_height_m - z, fx * dx + fy * dy))
    return out


def _clip_near(poly: list[tuple[float, float, float]], near: float = _NEAR_M):
    out = []
    n = len(poly)
    for i in range(n):
        ax, ay, az = poly[i]
        bx, by, bz = poly[(i + 1) % n]
        a_in, b_in = az >= near, bz >= near
        if a_in:
            out.append((ax, ay, az))
        if a_in != b_in:
            t = (near - az) / (bz - az)
            out.append((ax + t * (bx - ax), ay + t * (by - ay), near))
    return out


def _project_poly(cam: CameraModel, poly_cam) -> list[tuple[float, float]]:
    f = cam.focal_px
    cx, cy = cam.width_px / 2.0, cam.height_px / 2.0
    return [(cx + f * x / z, cy + f * y / z) for x, y, z in poly_cam]


def _ranges(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, value) pairs: value runs from lo[i] through lo[i] + counts[i] - 1
    for each i in turn."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, lo[owner] + np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _convex_spans(polys: list[list[tuple[float, float]]], w: int, h: int):
    """The scan fill of convex image polygons, as (polygon index, row, c0, c1)
    arrays of inclusive column spans. Row r of a polygon covers the columns
    from the least to the greatest u where its edges meet the line v = r (an
    edge lying on the line counts both ends), rounded inward and clamped to
    the image; a row it does not reach, or whose span holds no whole column,
    has no span. A polygon of fewer than three vertices covers nothing; at
    least one must have three."""
    keep, own, a, b, lo, hi = [], [], [], [], [], []
    for i, uv in enumerate(polys):
        if len(uv) < 3:
            continue
        vs = [v for _, v in uv]
        own += [len(keep)] * len(uv)
        keep.append(i)
        lo.append(max(0, math.ceil(min(vs))))
        hi.append(min(h - 1, math.floor(max(vs))))
        a += uv
        b += uv[1:] + uv[:1]
    r_lo, r_hi = np.array(lo), np.array(hi)
    counts = np.maximum(r_hi - r_lo + 1, 0)
    poly, rows = _ranges(r_lo, counts)
    at = (np.cumsum(counts) - counts - r_lo)[own]  # row y of edge i's polygon: slot at[i] + y
    (u0, v0), (u1, v1) = np.array(a).T, np.array(b).T
    flat = v0 == v1
    # A sloped edge meets row y where t = (y - v0) / (v1 - v0) lies in [0, 1].
    # Rounding can put t at 0 or 1 for a row just outside the edge's v range,
    # never for one a whole row away, so one row past each end is scanned.
    e_lo = np.maximum(np.ceil(np.minimum(v0, v1)).astype(np.int64) - 1, r_lo[own])
    e_hi = np.minimum(np.floor(np.maximum(v0, v1)).astype(np.int64) + 1, r_hi[own])
    e, y = _ranges(e_lo, np.where(flat, 0, np.maximum(e_hi - e_lo + 1, 0)))
    t = (y - v0[e]) / (v1 - v0)[e]
    meets = (t >= 0.0) & (t <= 1.0)
    e, y, t = e[meets], y[meets], t[meets]
    u = u0[e] + t * (u1 - u0)[e]
    # A flat edge meets only the row it lies on, at both ends.
    f = np.flatnonzero(flat & (v0 == np.floor(v0)) & (v0 >= r_lo[own]) & (v0 <= r_hi[own]))
    slot = np.concatenate([at[e] + y, at[f] + v0[f].astype(np.int64)])
    umin = np.full(rows.size, np.inf)
    umax = np.full(rows.size, -np.inf)
    np.minimum.at(umin, slot, np.concatenate([u, np.fmin(u0[f], u1[f])]))
    np.maximum.at(umax, slot, np.concatenate([u, np.fmax(u0[f], u1[f])]))
    c0 = np.maximum(np.ceil(umin), 0.0)
    c1 = np.minimum(np.floor(umax), float(w - 1))
    ok = np.isfinite(umin) & (c1 >= c0)
    return np.asarray(keep)[poly[ok]], rows[ok], c0[ok].astype(np.int64), c1[ok].astype(np.int64)


_WORD_BITS = 52  # layers per int64 mask word; its top bit is read through a float64


def _composite(
    layer: np.ndarray, rows: np.ndarray, c0: np.ndarray, c1: np.ndarray,
    labels: np.ndarray, w: int, h: int,
) -> LabelRuns:
    """The label map in which each pixel holds labels[l] of the highest layer
    l whose span (row, c0..c1 inclusive) covers it: the painter's algorithm,
    with no pixel array. Every pixel must be covered, and a layer may hold at
    most one span per row."""
    # Each span adds its layer's bit to the coverage mask at c0 and takes it
    # away after c1; between two span ends the mask is constant, and its top
    # bit is the visible layer. The span ends are sorted by pixel index, with
    # layer and end flag packed below it in one int64.
    shift = int(layer.max()).bit_length() + 1
    tag = layer << 1
    ends = [(rows * w + c0) << shift | tag, (rows * w + c1 + 1) << shift | tag | 1]
    key = np.sort(np.concatenate(ends))
    pos = key >> shift
    last = np.flatnonzero(np.append(pos[1:] != pos[:-1], True))[:-1]  # drops w * h
    word, bit = np.divmod((key >> 1) & ((1 << (shift - 1)) - 1), _WORD_BITS)
    sign = 1 - 2 * (key & 1)
    top = np.zeros(last.size, dtype=np.int64)
    for k in range(int(word.max()) + 1):
        mask = np.cumsum(np.where(word == k, sign << bit, 0))[last]
        live = mask != 0
        top[live] = k * _WORD_BITS + np.frexp(mask[live].astype(float))[1] - 1
    starts, values = pos[last], labels[top]
    new = np.ones(starts.size, dtype=bool)
    new[1:] = (values[1:] != values[:-1]) | (starts[1:] % w == 0)
    return LabelRuns(starts[new], values[new], w, h)


def _billboard_rect(
    pose: CameraPose, cam: CameraModel, x: float, y: float, z: float, w_m: float, h_m: float
) -> tuple[int, int, int, int] | None:
    """Integer pixel rect (r0, r1, c0, c1 inclusive) of a camera-facing board."""
    (X, Y, Z) = _to_cam(pose, cam, [(x, y, z)])[0]
    if Z < _NEAR_M:
        return None
    f = cam.focal_px
    u = cam.width_px / 2.0 + f * X / Z
    v = cam.height_px / 2.0 + f * Y / Z
    pw = max(1.0, f * w_m / Z)
    ph = max(1.0, f * h_m / Z)
    c0 = int(round(u - pw / 2.0))
    c1 = max(c0, int(round(u + pw / 2.0)) - 1)
    r0 = int(round(v - ph / 2.0))
    r1 = max(r0, int(round(v + ph / 2.0)) - 1)
    if c1 < 0 or r1 < 0 or c0 >= cam.width_px or r0 >= cam.height_px:
        return None
    return (max(0, r0), min(cam.height_px - 1, r1), max(0, c0), min(cam.width_px - 1, c1))


def render_image(layout: Layout, pose: CameraPose) -> tuple[LabelRuns, list[Detection]]:
    """One pinhole view: its label map as row runs, plus detector output for
    visible signs."""
    cam = layout.camera
    for fp in layout.footprints:
        if fp.contains(pose.position.x, pose.position.y):
            raise ValueError(f"camera {pose.image_id} inside footprint {fp.id}")
    w, h = cam.width_px, cam.height_px

    def project(pts: list[tuple[float, float, float]]) -> list[tuple[float, float]]:
        return _project_poly(cam, _clip_near(_to_cam(pose, cam, pts)))

    def rect(r0: int, r1: int, c0: int, c1: int) -> list[tuple[float, float]]:
        return [(c0, r0), (c1, r0), (c1, r1), (c0, r1)]

    # (label, image polygon) in paint order: a later layer covers an earlier one.
    horizon = int(math.floor(h / 2.0)) + 1
    layers = [
        (CATEGORY_IDS["sky"], rect(0, horizon - 1, 0, w - 1)),
        (CATEGORY_IDS["road"], rect(horizon, h - 1, 0, w - 1)),
    ]
    # Ground-plane sidewalk aprons around every footprint; building boxes
    # drawn later reclaim the interiors, leaving the 2.5 m band.
    for fp in layout.footprints:
        ex0, ey0, ex1, ey1 = fp.expanded(_APRON_M)
        quad = [(ex0, ey0, 0.0), (ex1, ey0, 0.0), (ex1, ey1, 0.0), (ex0, ey1, 0.0)]
        layers.append((CATEGORY_IDS["sidewalk"], project(quad)))

    # Vertical geometry, painter's order by plan distance to the camera:
    # (distance, draw order, label, image polygon, (truth index, rect) of a sign).
    px, py = pose.position.x, pose.position.y
    drawables: list[tuple[float, int, int, list, tuple | None]] = []

    def draw(x: float, y: float, label: int, uv: list, sign: tuple | None = None) -> None:
        drawables.append((math.hypot(x - px, y - py), len(drawables), label, uv, sign))

    def board(x, y, z, w_m, h_m, label, t_idx: int | None = None) -> None:
        box = _billboard_rect(pose, cam, x, y, z, w_m, h_m)
        if box is not None:
            draw(x, y, label, rect(*box), None if t_idx is None else (t_idx, box))

    building = CATEGORY_IDS["building"]
    for fp in layout.footprints:
        corners = fp.corners()
        for a, b in zip(corners, corners[1:] + corners[:1]):
            quad = [(*a, 0.0), (*b, 0.0), (*b, fp.height_m), (*a, fp.height_m)]
            draw((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0, building, project(quad))
        roof = [(x, y, fp.height_m) for x, y in corners]
        draw((fp.x0 + fp.x1) / 2.0, (fp.y0 + fp.y1) / 2.0, building, project(roof))
    for t_idx, t in enumerate(layout.truth_objects):
        x, y = t.position.x, t.position.y
        if t.category == "traffic_light":
            board(x, y, t.mount_m, _LIGHT_W, _LIGHT_H, CATEGORY_IDS["traffic_light"])
        else:
            sign = t_idx if t.category == "traffic_sign" else None
            board(x, y, t.mount_m, _SIGN_W, _SIGN_H, CATEGORY_IDS["traffic_sign"], sign)
    for ped in layout.pedestrians:
        x, y = ped.position.x, ped.position.y
        board(x, y, ped.height_m / 2.0, _PED_W, ped.height_m, CATEGORY_IDS["pedestrian"])
    drawables.sort(key=lambda d: (-d[0], d[1]))
    layers += [(label, uv) for _, _, label, uv, _ in drawables]

    labels = np.array([label for label, _ in layers], dtype=np.uint8)
    runs = _composite(*_convex_spans([uv for _, uv in layers], w, h), labels, w, h)

    detections: list[Detection] = []
    sign_id = CATEGORY_IDS["traffic_sign"]
    for t_idx, (r0, r1, c0, c1) in sorted(sign for *_, sign in drawables if sign):
        area = (r1 - r0 + 1) * (c1 - c0 + 1)
        visible = int((runs.rows(r0, r1 + 1)[:, c0 : c1 + 1] == sign_id).sum())
        if visible < max(9, int(0.2 * area)):
            continue  # occluded or clipped away
        truth = layout.truth_objects[t_idx]
        detections.append(
            Detection(
                image_id=pose.image_id,
                category="traffic_sign",
                subtype=truth.subtype,
                bbox=(float(c0), float(r0), float(c1 - c0 + 1), float(r1 - r0 + 1)),
                score=1.0,
            )
        )
    return runs, detections


def truth_as_placed(layout: Layout) -> list[PlacedObject]:
    frame = make_frame(layout.center)
    out = []
    for t in layout.truth_objects:
        out.append(
            PlacedObject(
                category=t.category,
                subtype=t.subtype,
                light_kind=t.light_kind,
                position=unproject(frame, t.position),
                height_m=t.mount_m if t.category == "traffic_light" else None,
                intersection_id=layout.intersection_id,
            )
        )
    return out


def render_bundle(layout: Layout) -> tuple[Bundle, list[PlacedObject]]:
    """Rasterize every camera pose; returns (ingest bundle, truth objects)."""
    validate_layout(layout)
    frame = make_frame(layout.center)
    images: list[ImageMeta] = []
    label_maps: dict[str, LabelRuns] = {}
    detections: dict[str, list[Detection]] = {}
    for pose in layout.cameras:
        label_maps[pose.image_id], dets = render_image(layout, pose)
        if dets:
            detections[pose.image_id] = dets
        images.append(
            ImageMeta(
                image_id=pose.image_id,
                position=unproject(frame, pose.position),
                heading_deg=pose.heading_deg,
                sequence_id=pose.sequence_id,
                captured_at=None,
                width_px=layout.camera.width_px,
                height_px=layout.camera.height_px,
            )
        )
    footprints = [_fp_to_geo(fp, frame) for fp in layout.footprints]
    bundle = Bundle(
        images=images,
        label_maps=label_maps,
        detections=detections,
        footprints=footprints,
        buffers=[
            IntersectionBuffer(
                intersection_id=layout.intersection_id,
                center=layout.center,
                radius_m=layout.radius_m,
            )
        ],
    )
    return bundle, truth_as_placed(layout)


def _fp_to_geo(fp: RectFootprint, frame) -> Footprint:
    ring = tuple(
        unproject(frame, LocalPoint(x, y))
        for x, y in fp.corners() + [fp.corners()[0]]
    )
    return Footprint(id=fp.id, ring=ring)


# ---------------------------------------------------------------------------
# Disk output in the ingest formats.


def _dump(doc, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def write_bundles(parts: Iterable[Bundle], out_dir: str) -> dict[str, str]:
    """Write the bundle that merges parts, in order, to out_dir; return its paths.
    Each part's label maps go to masks/ as it arrives, and it is dropped before the
    next is drawn: one part's maps are in memory at a time. Other records go last."""
    out = Path(out_dir)
    masks = out / "masks"
    masks.mkdir(parents=True, exist_ok=True)
    merged = Bundle(images=[], label_maps={}, detections={}, footprints=[], buffers=[])
    for part in parts:
        for image_id in part.label_maps:
            write_rle(str(masks / f"{image_id}.rle"), part.label_maps[image_id])
        merged.images += part.images
        merged.detections.update(part.detections)
        merged.footprints += part.footprints
        merged.buffers += part.buffers
        del part  # so its label maps are freed before the next part is drawn
    _dump(to_json(merged.images), out / "images.json")
    with open(out / "detections.jsonl", "w") as fh:
        for image_id in sorted(merged.detections):
            fh.writelines(json.dumps(to_json(d), sort_keys=True) + "\n" for d in merged.detections[image_id])
    footprints = [feature("Polygon", [[[v.lon, v.lat] for v in fp.ring]], {"id": fp.id}) for fp in merged.footprints]
    _dump({"type": "FeatureCollection", "features": footprints}, out / "footprints.geojson")
    _dump(to_json(merged.buffers), out / "buffers.json")
    return {
        "images": str(out / "images.json"),
        "masks": str(masks),
        "detections": str(out / "detections.jsonl"),
        "footprints": str(out / "footprints.geojson"),
        "buffers": str(out / "buffers.json"),
    }


def write_bundle(bundle: Bundle, out_dir: str) -> dict[str, str]:
    return write_bundles([bundle], out_dir)


def write_truth(truth: list[PlacedObject], path: str) -> None:
    _dump(to_geojson(truth), path)


# ---------------------------------------------------------------------------
# Layout JSON I/O.


def save_layouts(layouts: list[Layout], path: str) -> None:
    _dump(to_json(layouts), path)


def load_layouts(path: str) -> list[Layout]:
    """The layouts of a JSON file of one layout object or a list, each checked
    by validate_layout, with no intersection or image id in two layouts; any
    fault is a ValueError naming the file and layout."""
    doc = _load_json(path)
    layouts = []
    first: dict[tuple[str, str], int] = {}  # (field, id) -> index of the first layout with it
    for i, d in enumerate(doc if isinstance(doc, list) else [doc]):
        try:
            layout = from_json(Layout, d, f"layouts[{i}]")
        except ValueError as exc:
            raise ValueError(f"{path}: invalid layout: {exc}") from exc
        try:
            validate_layout(layout)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid layout: layouts[{i}]: {exc}") from exc
        image_ids = [("image_id", pose.image_id) for pose in layout.cameras]
        for key in [("intersection_id", layout.intersection_id), *image_ids]:
            j = first.setdefault(key, i)
            if j != i:
                where = f"layouts[{i}]: {key[0]} {key[1]!r} is also in layouts[{j}]"
                raise ValueError(f"{path}: invalid layout: {where}")
        layouts.append(layout)
    return layouts


# ---------------------------------------------------------------------------
# Standard fixture family: crossroads and T-junctions in German signal style.


_SUBTYPES = ("stop", "yield", "no_entry", "speed_30", "priority_road")


def _anchor(corner: tuple[float, float], offset: float = 2.5) -> LocalPoint:
    x, y = corner
    d = math.hypot(x, y)
    s = offset / d
    return LocalPoint(x * (1.0 - s), y * (1.0 - s))


def _pole_truths(rng: random.Random, anchor: LocalPoint, with_lights: bool) -> list[TruthObject]:
    # Distinct subtypes within one pole: stacked twins at the same point would
    # collapse into a single placement and be unrecoverable by any matcher.
    def signs(mounts):
        picks = rng.sample(_SUBTYPES, len(mounts))
        return [
            TruthObject("traffic_sign", sub, None, anchor, mount)
            for sub, mount in zip(picks, mounts)
        ]

    out: list[TruthObject] = []
    if with_lights:
        pattern = rng.choice(["light_only", "sign_above_light", "signs_above_and_below_light"])
        out.append(TruthObject("traffic_light", None, "low", anchor, 4.0))
        if pattern == "sign_above_light":
            out.extend(signs([5.0]))
        elif pattern == "signs_above_and_below_light":
            out.extend(signs([5.0, 2.9]))
    else:
        pattern = rng.choice(["none", "sign_alone", "sign_stack"])
        if pattern == "sign_alone":
            out.extend(signs([3.0]))
        elif pattern == "sign_stack":
            out.extend(signs([3.4, 2.5]))
    return out


_TRACK_GEOM = {
    # direction: (unit along travel, lane offset unit (right of travel), base heading)
    "WE": ((1.0, 0.0), (0.0, -1.0), 90.0),
    "EW": ((-1.0, 0.0), (0.0, 1.0), 270.0),
    "NS": ((0.0, -1.0), (-1.0, 0.0), 180.0),
    "SN": ((0.0, 1.0), (1.0, 0.0), 0.0),
}


def _track_poses(
    rng: random.Random, intersection_id: str, direction: str, rh: float
) -> list[CameraPose]:
    along, right, heading0 = _TRACK_GEOM[direction]
    n = rng.randint(3, 6)
    d0 = rng.uniform(38.0, 46.0)
    d1 = rng.uniform(14.0, 18.0)
    split = rng.random() < 0.5 and n >= 4
    poses = []
    for k in range(n):
        d = d0 + (d1 - d0) * (k / (n - 1)) + rng.uniform(-0.8, 0.8)
        lat_off = rh / 2.0 + rng.uniform(-0.6, 0.6)
        x = -d * along[0] + lat_off * right[0]
        y = -d * along[1] + lat_off * right[1]
        heading = (heading0 + rng.uniform(-6.0, 6.0)) % 360.0
        seq = 0 if not split or k < n // 2 else 1
        poses.append(
            CameraPose(
                image_id=f"{intersection_id}-{direction}-{k:02d}",
                sequence_id=f"{intersection_id}-{direction}-s{seq}",
                position=LocalPoint(x, y),
                heading_deg=heading,
            )
        )
    return poses


def standard_fixtures(n: int = 100, seed: int = 1) -> list[Layout]:
    """Deterministic family of crossroads (even index) and T-junctions (odd)."""
    layouts = []
    for i in range(n):
        rng = random.Random(f"{seed}:{i}")
        kind = "crossroad" if i % 2 == 0 else "t_junction"
        iid = f"x{i:04d}"
        center = GeoPoint(52.30 + 0.002 * i, 13.20 + 0.0017 * (i % 9))
        rh = rng.uniform(6.0, 8.0)
        inner = rh + _APRON_M
        quadrants = {
            "ne": (1, 1),
            "nw": (-1, 1),
            "sw": (-1, -1),
            "se": (1, -1),
        }
        footprints = []
        for name, (sx, sy) in quadrants.items():
            side = rng.uniform(14.0, 24.0)
            height = rng.uniform(10.0, 18.0)
            xs = sorted([sx * inner, sx * (inner + side)])
            ys = sorted([sy * inner, sy * (inner + side)])
            footprints.append(RectFootprint(f"{iid}-{name}", xs[0], ys[0], xs[1], ys[1], height))

        with_lights = rng.random() < 0.85
        pole_corners = ["nw", "ne", "sw", "se"] if kind == "crossroad" else ["nw", "ne"]
        truths: list[TruthObject] = []
        for name in pole_corners:
            sx, sy = quadrants[name]
            truths.extend(_pole_truths(rng, _anchor((sx * inner, sy * inner)), with_lights))
        entries = (
            [(-inner, 0.0), (inner, 0.0), (0.0, inner), (0.0, -inner)]
            if kind == "crossroad"
            else [(-inner, 0.0), (inner, 0.0), (0.0, inner)]
        )
        for ex, ey in entries:
            if rng.random() < 0.5:
                truths.append(
                    TruthObject("traffic_light", None, "high", LocalPoint(ex, ey), 7.0)
                )

        pedestrians = []
        strips = [(-1, -1), (-1, 1), (1, -1)]
        for k in range(rng.randint(1, 3)):
            sx, sy = strips[k % len(strips)]
            x = sx * (inner + rng.uniform(2.0, 12.0))
            y = sy * (inner - 1.25)
            pedestrians.append(PedestrianSpec(LocalPoint(x, y), rng.uniform(1.65, 1.9)))

        directions = ["WE", "EW", "SN", "NS"] if kind == "crossroad" else ["WE", "EW", "NS"]
        cameras = []
        for direction in directions:
            cameras.extend(_track_poses(rng, iid, direction, rh))

        layouts.append(
            Layout(
                intersection_id=iid,
                center=center,
                footprints=footprints,
                truth_objects=truths,
                pedestrians=pedestrians,
                cameras=cameras,
                kind=kind,
            )
        )
    return layouts
