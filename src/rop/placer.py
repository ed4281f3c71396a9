"""Slicing and geographic placement: camera cases, tracks, footprint corners,
and Rule 6 offsets.

slice_bundle cuts each buffer's Slice, its whole placement input: the frame,
one Track per compass bin of its cameras' headings, and the footprint outlines
near it. Each image position and footprint vertex is projected into the frame
once; a point outside the frame's validity span projects to None and is left
out.

A camera near an intersection is approaching (C1), inside (C2), or leaving
(C3). For C1/C2 views, the footprints flanking the heading line contribute one
corner each (their vertex nearest the intersection center, required to lie in
front of the camera); objects then sit a sidewalk's width in from those
corners, and suspended lights hang over the road at the corner midpoint.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .atbt import Atbt, FusedObject, build_atbt, fuse_track
from .config import RunConfig
from .geo import (
    M_PER_DEG_LAT,
    GeoPoint,
    LocalFrame,
    LocalPoint,
    dist,
    heading_vector,
    make_frame,
    nearest_vertex,
    project,
    unproject,
)
from .grammar import apply_grammar
from .ingest import (
    Bundle,
    Detection,
    ImageMeta,
    IntersectionBuffer,
    feature,
    from_json,
    geojson_features,
    lon_lat,
)
from .labelmap import LabelRuns
from .scene import scene_objects

log = logging.getLogger("rop.placer")

_ORIGIN = LocalPoint(0.0, 0.0)
# The height written for each light kind, as synth mounts them; nothing measures it.
LIGHT_HEIGHT_M = {"high": 7.0, "low": 4.0}


@dataclass(slots=True)
class PlacedObject:
    category: str
    subtype: str | None
    light_kind: str | None
    position: GeoPoint = field(metadata={"flat": True})
    height_m: float | None = None
    source_images: list[str] = field(default_factory=list)
    support: int = 1
    inferred_only: bool = False
    intersection_id: str = ""
    confidence: float = 1.0


@dataclass
class IntersectionResult:
    placed: list[PlacedObject] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Camera cases, tracks and slices.


def classify_camera(cam: LocalPoint, d: float, heading_deg: float, inner_radius_m: float) -> str:
    """C1 approaching, C2 inside the inner radius of the center (the frame
    origin), C3 past it, for a camera at cam, in metres, d from the center,
    facing heading_deg."""
    if d <= inner_radius_m:
        return "C2"
    hx, hy = heading_vector(heading_deg)
    # Approaching when the heading points back toward the origin.
    return "C1" if hx * cam.x + hy * cam.y < 0 else "C3"


# Heading bins, degrees clockwise from north, each from one bound up to the
# next: SN below 45 and from 315 on. A track direction names where traffic
# comes from and goes to: WE drives eastward, SN drives northward.
def direction_of(heading_deg: float) -> str:
    return ("SN", "WE", "NS", "EW", "SN")[bisect_right((45.0, 135.0, 225.0, 315.0), heading_deg % 360.0)]


_DIRECTIONS = ("WE", "EW", "SN", "NS")  # the order of a buffer's tracks


@dataclass
class Track:
    """One heading bin's images, far to near, and at the same index each one's
    camera in the buffer's frame, in metres. near_first, their indices nearest
    first, ties by image id, orders fusion; corner_order tries C1 views in that
    order, then C2 views far to near. build_tracks makes both."""

    track_id: str  # <intersection id>:<direction>, direction WE, EW, SN or NS
    images: list[ImageMeta]
    cams: list[LocalPoint]
    near_first: list[int]
    corner_order: list[int]


def build_tracks(members: list[tuple[ImageMeta, LocalPoint, str, float]], intersection_id: str) -> list[Track]:
    """One track per heading bin of members, one intersection's images that
    have a heading, each with its camera in the buffer's frame, in metres, case
    (C1 or C2) and distance from the center, as slice_bundle measures them. A
    track runs far to near, ties by image id, and orders its views as Track says."""
    bins: dict[str, list[tuple[ImageMeta, LocalPoint, str, float]]] = {d: [] for d in _DIRECTIONS}
    for m in members:
        bins[direction_of(m[0].heading_deg)].append(m)
    tracks = []
    for direction, binned in bins.items():
        if not binned:
            continue
        binned.sort(key=lambda m: (-m[3], m[0].image_id))
        images, cams, cases, dists = zip(*binned)
        # A stable sort of the track order: equal distances stay in image id order.
        near_first = sorted(range(len(dists)), key=dists.__getitem__)
        order = [i for i in near_first if cases[i] == "C1"] + [i for i, case in enumerate(cases) if case == "C2"]
        tracks.append(Track(f"{intersection_id}:{direction}", list(images), list(cams), near_first, order))
    return tracks


@dataclass
class Slice:
    """One buffer's whole placement input, as slice_bundle cuts it: the
    buffer's frame; its tracks, far to near, each camera in the frame's
    metres; the outlines of the footprints near it, each an id, open ring,
    corner (the vertex nearest the center) and centroid in metres, as
    select_corners takes them; how many images it kept, those without a
    heading too; and the bundle's label maps and detections, of which it reads
    only its tracks' images'."""

    buffer: IntersectionBuffer
    frame: LocalFrame
    tracks: list[Track]
    outlines: list[tuple[str, list[LocalPoint], LocalPoint, LocalPoint]]
    n_images: int
    label_maps: Mapping[str, LabelRuns]
    detections: dict[str, list[Detection]]


# ---------------------------------------------------------------------------
# Corner selection.


def select_corners(
    cam: LocalPoint,
    outlines: list[tuple[str, list[LocalPoint], LocalPoint, LocalPoint]],
    heading_deg: float,
    radius_m: float,
) -> tuple[LocalPoint, LocalPoint] | None:
    """The (left, right) corners, one per side of the heading line of a camera
    at cam, or None; outlines holds each footprint's id, open ring, corner and
    centroid in metres.

    Candidate footprints have a vertex within radius_m of the camera. Each
    contributes its corner, the vertex nearest the center (the frame origin);
    candidates whose corner sits behind the camera are dropped before sides
    are compared, so a camera inside the intersection still finds the pair
    ahead of it. Per side the footprint nearest the camera wins, ties by id,
    then by the corner's x and y, so the order of outlines changes nothing.
    """
    hx, hy = heading_vector(heading_deg)
    best: dict[str, tuple[float, str, float, float]] = {}
    for fp_id, pts, corner, centroid in outlines:
        _, d_cam = nearest_vertex(pts, cam)
        if d_cam > radius_m:
            continue
        if hx * (corner.x - cam.x) + hy * (corner.y - cam.y) <= 0:
            continue  # behind the camera
        cross = hx * (centroid.y - cam.y) - hy * (centroid.x - cam.x)
        side = "left" if cross > 0 else "right"
        key = (d_cam, fp_id, corner.x, corner.y)
        best[side] = min(best.get(side, key), key)
    if "left" not in best or "right" not in best:
        return None
    return LocalPoint(*best["left"][2:]), LocalPoint(*best["right"][2:])


# ---------------------------------------------------------------------------
# Placement.


def _offset_toward_center(corner: LocalPoint, offset_m: float) -> LocalPoint:
    d = dist(corner, _ORIGIN)
    if d < 1e-9:
        return corner
    s = offset_m / d
    return LocalPoint(corner.x * (1.0 - s), corner.y * (1.0 - s))


def place_objects(
    fused: list[FusedObject],
    corners: tuple[LocalPoint, LocalPoint],
    frame: LocalFrame,
    intersection_id: str,
    n_track_images: int,
    cfg: RunConfig = RunConfig(),
    radius_m: float = math.inf,
) -> tuple[list[PlacedObject], list[PlacedObject]]:
    """Anchor fused objects to the (left, right) corners: those whose anchor
    lies within radius_m of the center, and those past it. Each of the three
    anchors is tested in metres and unprojected once.

    Low lights and sign stacks sit cfg.offset_m in from their side's corner (one
    pole per stack, so stack members share the position); high lights hang at
    the midpoint of the two corners. An offset_m that is not below the nearer
    corner's distance from the center would move its anchor onto or past the
    center, and is a ValueError naming the intersection.
    """
    left, right = corners
    d = min(dist(left, _ORIGIN), dist(right, _ORIGIN))
    if cfg.offset_m > 0 and cfg.offset_m >= d:
        raise ValueError(
            f"{intersection_id}: offset_m must be below {d:.3f} m, the distance from the "
            f"center to the nearer chosen corner, got {cfg.offset_m}"
        )
    inside, past = [], []
    anchors = {
        "left": _offset_toward_center(left, cfg.offset_m),
        "right": _offset_toward_center(right, cfg.offset_m),
        "high": LocalPoint((left.x + right.x) / 2.0, (left.y + right.y) / 2.0),
    }
    # Each anchor: the list its objects join, and its position.
    spots = {a: (inside if dist(q, _ORIGIN) <= radius_m else past, unproject(frame, q)) for a, q in anchors.items()}
    for f in fused:
        is_light = f.category == "traffic_light"
        into, position = spots["high" if is_light and f.light_kind == "high" else f.side]
        confidence = min(1.0, f.support / max(1, n_track_images))
        if f.inferred_only:
            confidence /= 2.0
        into.append(
            PlacedObject(
                category=f.category,
                subtype=f.subtype,
                light_kind=f.light_kind if is_light else None,
                position=position,
                height_m=LIGHT_HEIGHT_M[f.light_kind] if is_light else None,
                source_images=list(f.source_images),
                support=f.support,
                inferred_only=f.inferred_only,
                intersection_id=intersection_id,
                confidence=confidence,
            )
        )
    return inside, past


# ---------------------------------------------------------------------------
# Deduplication across tracks.


def dedup_placed(placed: list[PlacedObject]) -> list[PlacedObject]:
    """Merge the same-kind placements (category and subtype) that sit on one
    point. Every position is computed from footprint vertices, so objects
    that should merge sit on exactly the same point, and only they merge.

    Support adds up, source images join, and the group is inferred only if
    every member is; confidence, light kind and height follow the strongest
    member: the most confident, ties broken by source images, then light
    kind, so the input order changes nothing. Groups come out in the order of
    their first member; to_geojson orders the output.
    """
    groups: dict[tuple, list[PlacedObject]] = {}
    for p in placed:
        groups.setdefault((p.category, p.subtype, p.position), []).append(p)
    return [
        replace(
            min(members, key=lambda p: (-p.confidence, p.source_images, p.light_kind or "")),
            source_images=sorted({s for p in members for s in p.source_images}),
            support=sum(p.support for p in members),
            inferred_only=all(p.inferred_only for p in members),
        )
        for members in groups.values()
    ]


# ---------------------------------------------------------------------------
# Full per-intersection pipeline.


def _in_box(frame: LocalFrame, lat: np.ndarray, lon: np.ndarray, radius_m: float) -> np.ndarray:
    """Which points lie within radius_m of the frame origin on each axis: a
    necessary condition of within, since |x| <= hypot(x, y). Longitude
    differences wrap as in geo.wrap_lon."""
    dlon = lon - frame.origin.lon
    dlon = np.where(np.abs(dlon) > 180.0, (dlon + 180.0) % 360.0 - 180.0, dlon)
    return (np.abs(lat - frame.origin.lat) * M_PER_DEG_LAT <= radius_m) & (
        np.abs(dlon) * frame.m_per_deg_lon <= radius_m
    )


def slice_bundle(bundle: Bundle, cfg: RunConfig) -> list[Slice]:
    """One Slice per buffer, in intersection_id order. Placement makes each
    frame, projects, classifies and measures each camera, projects each
    footprint vertex, finds each outline's corner and centroid, and groups
    images into tracks here and nowhere else.

    A slice keeps the buffer's images that approach its center or stand in
    it (C1 or C2), each projected into the buffer's frame, classified and
    measured once, for both tests and for its track's orders. A camera that
    has passed the center (C3) is left out, so a neighbour's camera leaving
    this center joins none of its tracks and a buffer places the same
    whatever buffers surround it. An image without a heading is kept and
    counted, but joins no track, with a warning. The outlines are the
    footprints whose corner, the vertex nearest the center, lies within
    radius_m + corner_radius_m of it. By the triangle inequality that bound
    loses nothing, up to rounding in the last place: select_corners keeps
    only footprints with a vertex within corner_radius_m of a camera, and
    every camera of the slice lies within radius_m of the center. A
    footprint with a vertex outside the buffer frame's span is dropped with
    a warning, since its outline needs every vertex. Its centroid is the one
    the footprint carries, the sum the loader checked, in metres; so only a
    footprint built in code can enclose no area, and it is left out.

    Image positions and footprint vertices go into arrays once. Per buffer a
    box test picks the candidates, and only those take the exact checks, so
    each slice keeps the same records, in the same order, as a full scan.
    Each candidate image and vertex is projected once: one that projects to
    None lies outside the frame's span, which a wide box can reach past.
    """
    images = bundle.images
    footprints = bundle.footprints
    img_lat = np.array([im.position.lat for im in images])
    img_lon = np.array([im.position.lon for im in images])
    owner = np.repeat(np.arange(len(footprints)), [len(fp.ring) for fp in footprints])
    v_lat = np.array([v.lat for fp in footprints for v in fp.ring])
    v_lon = np.array([v.lon for fp in footprints for v in fp.ring])
    slices = []
    for buffer in sorted(bundle.buffers, key=lambda b: b.intersection_id):
        iid = buffer.intersection_id
        frame = make_frame(buffer.center)
        reach_m = buffer.radius_m + cfg.corner_radius_m
        near = np.flatnonzero(_in_box(frame, img_lat, img_lon, buffer.radius_m))
        kept = []
        for im in (images[i] for i in near):
            if (cam := project(frame, im.position)) is None or (d := dist(cam, _ORIGIN)) > buffer.radius_m:
                continue
            case = None
            if im.heading_deg is None:
                log.warning("image %s (intersection %s) has no heading; excluded from tracks", im.image_id, iid)
            elif (case := classify_camera(cam, d, im.heading_deg, cfg.inner_radius_m)) == "C3":
                continue
            kept.append((im, cam, case, d))
        candidates = np.zeros(len(footprints), dtype=bool)
        candidates[owner[_in_box(frame, v_lat, v_lon, reach_m)]] = True
        outlines = []
        for fp in (footprints[i] for i in np.flatnonzero(candidates)):
            pts = [q for v in fp.ring[:-1] if (q := project(frame, v)) is not None]
            corner, d_corner = nearest_vertex(pts, _ORIGIN) if pts else (None, math.inf)
            if d_corner > reach_m:
                continue
            if len(pts) < len(fp.ring) - 1:
                log.warning("footprint %s reaches outside the frame span of buffer %s; dropped", fp.id, iid)
            elif (c := fp.centroid) is not None:
                centroid = LocalPoint(pts[0].x + c[0] * frame.m_per_deg_lon, pts[0].y + c[1] * M_PER_DEG_LAT)
                outlines.append((fp.id, pts, corner, centroid))
        tracks = build_tracks([m for m in kept if m[0].heading_deg is not None], iid)
        slices.append(Slice(buffer, frame, tracks, outlines, len(kept), bundle.label_maps, bundle.detections))
    return slices


def track_trees(part: Slice, track: Track, cfg: RunConfig) -> list[Atbt]:
    """One tree per image of track, one of part's tracks, in track order: the
    tree stage that run_intersection and dump-trees share. Each label map is
    read once, and scene_objects makes the track's one pass over their runs."""
    maps = [part.label_maps[img.image_id] for img in track.images]
    detections = [part.detections.get(img.image_id, []) for img in track.images]
    return [
        build_atbt(apply_grammar(objs, runs.width, cfg), img.image_id)
        for img, runs, objs in zip(track.images, maps, scene_objects(maps, detections, cfg))
    ]


def run_intersection(part: Slice, cfg: RunConfig = RunConfig()) -> IntersectionResult:
    """Trees -> fusion -> corners -> placement -> dedup, on one buffer's
    Slice as slice_bundle cut it; no placed object is projected back. Fusion
    takes each track's trees in near_first order, corner selection its views
    in corner_order. Dedup merges same-kind objects placed on one point,
    across tracks; each such point past radius_m is noted once, as
    outside_buffer, and not placed."""
    iid, radius_m = part.buffer.intersection_id, part.buffer.radius_m
    result = IntersectionResult()

    def note(event: str, **fields) -> None:
        result.diagnostics.append({"intersection_id": iid, "event": event, **fields})

    if not part.n_images:
        note("no_images")
        return result
    inside, past = [], []  # the placements within the buffer's radius, and past it
    for track in part.tracks:
        trees = track_trees(part, track, cfg)
        fused = fuse_track([trees[i] for i in track.near_first])
        if not fused:
            continue
        views = ((track.cams[i], track.images[i].heading_deg) for i in track.corner_order)
        tries = (select_corners(cam, part.outlines, heading, cfg.corner_radius_m) for cam, heading in views)
        corners = next((c for c in tries if c is not None), None)
        if corners is None:
            note("no_corners", track_id=track.track_id, unplaced=len(fused))
            continue
        near, far = place_objects(fused, corners, part.frame, iid, len(track.images), cfg, radius_m)
        inside += near
        past += far
    result.placed = dedup_placed(inside)
    for category, _, _ in dict.fromkeys((p.category, p.subtype, p.position) for p in past):
        note("outside_buffer", category=category)
    return result


# ---------------------------------------------------------------------------
# GeoJSON output.


def output_order(p: PlacedObject) -> tuple:
    """The sort key of the one output order: to_geojson's and rop place's."""
    return (p.intersection_id, p.category, p.subtype or "", p.position.lat, p.position.lon, p.light_kind or "")


# A placed object's feature properties: its fields but the flat position, the Point's.
_PROPERTIES = tuple(f.name for f in fields(PlacedObject) if not f.metadata.get("flat"))


def geojson_feature(p: PlacedObject) -> dict:
    properties = {name: getattr(p, name) for name in _PROPERTIES}
    properties["confidence"] = round(p.confidence, 6)
    return feature("Point", [p.position.lon, p.position.lat], properties)


def to_geojson(placed: list[PlacedObject]) -> dict:
    features = [geojson_feature(p) for p in sorted(placed, key=output_order)]
    return {"type": "FeatureCollection", "features": features}


def from_geojson(doc, path: str = "<document>") -> list[PlacedObject]:
    """The objects of a FeatureCollection of Points read from path, as
    to_geojson writes it: each feature's properties, read with its Point's
    lat and lon as a PlacedObject by the record codec. Any fault is a
    BundleError naming path and the feature."""
    return [
        from_json(PlacedObject, {**props, **lon_lat(c, f"{where}: geometry.coordinates")}, where)
        for where, c, props, _ in geojson_features(doc, path, "Point")
    ]
