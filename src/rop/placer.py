"""Geographic placement: camera cases, footprint corners, and Rule 6 offsets.

A camera near an intersection is approaching (C1), inside (C2), or leaving
(C3). For C1/C2 views, the footprints flanking the heading line contribute one
corner each (their vertex nearest the intersection center, required to lie in
front of the camera); objects then sit a sidewalk's width in from those
corners, and suspended lights hang over the road at the corner midpoint.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .atbt import Atbt, FusedObject, build_atbt, fuse_track
from .config import RunConfig
from .geo import (
    Footprint,
    GeoPoint,
    LocalFrame,
    LocalPoint,
    dist,
    footprint_centroid,
    heading_vector,
    make_frame,
    nearest_vertex,
    project,
    unproject,
)
from .grammar import apply_grammar
from .ingest import Bundle, ImageMeta, IntersectionBuffer, Track, build_tracks, correct_track, images_in_buffer
from .scene import scene_objects

log = logging.getLogger("rop.placer")

_ORIGIN = LocalPoint(0.0, 0.0)


@dataclass(frozen=True)
class CornerPair:
    A1: LocalPoint  # left of the heading line
    A2: LocalPoint  # right of the heading line
    left_fp: str
    right_fp: str


@dataclass
class PlacedObject:
    category: str
    subtype: str | None
    light_kind: str | None
    position: GeoPoint
    height_m: float | None
    source_images: list[str]
    support: int
    inferred_only: bool
    intersection_id: str
    confidence: float


@dataclass
class IntersectionResult:
    intersection_id: str
    placed: list[PlacedObject] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)
    trees: dict[str, list[Atbt]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Camera cases.


def classify_camera(
    img: ImageMeta, center: GeoPoint, frame: LocalFrame, inner_radius_m: float = 10.0
) -> str:
    """C1 approaching, C2 inside the inner radius, C3 past the center."""
    if img.heading_deg is None:
        raise ValueError(f"image {img.image_id} has no heading")
    cam = project(frame, img.position)
    ctr = project(frame, center)
    vx, vy = ctr.x - cam.x, ctr.y - cam.y
    if (vx * vx + vy * vy) ** 0.5 <= inner_radius_m:
        return "C2"
    hx, hy = heading_vector(img.heading_deg)
    ahead = hx * vx + hy * vy
    return "C1" if ahead > 0 else "C3"


# ---------------------------------------------------------------------------
# Corner selection.


def select_corners(
    img: ImageMeta,
    footprints: list[Footprint],
    frame: LocalFrame,
    radius_m: float = 26.0,
) -> CornerPair | None:
    """One corner per side of the heading line, or None.

    Candidate footprints have a vertex within radius_m of the camera. Each
    contributes the vertex nearest the intersection center (the frame origin);
    candidates whose corner sits behind the camera are dropped before sides
    are compared, so a camera inside the intersection still finds the pair
    ahead of it. Per side the footprint nearest the camera wins.
    """
    if img.heading_deg is None:
        raise ValueError(f"image {img.image_id} has no heading")
    cam = project(frame, img.position)
    hx, hy = heading_vector(img.heading_deg)
    best: dict[str, tuple[float, str, LocalPoint]] = {}
    for fp in footprints:
        _, d_cam = nearest_vertex(fp, frame, cam)
        if d_cam > radius_m:
            continue
        corner, _ = nearest_vertex(fp, frame, _ORIGIN)
        if hx * (corner.x - cam.x) + hy * (corner.y - cam.y) <= 0:
            continue  # behind the camera
        centroid = footprint_centroid(fp, frame)
        cross = hx * (centroid.y - cam.y) - hy * (centroid.x - cam.x)
        side = "left" if cross > 0 else "right"
        key = (d_cam, fp.id)
        if side not in best or key < (best[side][0], best[side][1]):
            best[side] = (d_cam, fp.id, corner)
    if "left" not in best or "right" not in best:
        return None
    return CornerPair(
        A1=best["left"][2],
        A2=best["right"][2],
        left_fp=best["left"][1],
        right_fp=best["right"][1],
    )


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
    corners: CornerPair,
    frame: LocalFrame,
    intersection_id: str,
    n_track_images: int,
    offset_m: float = 2.5,
    high_height_m: float = 7.0,
    low_height_m: float = 4.0,
) -> list[PlacedObject]:
    """Anchor fused objects to the corner pair.

    Low lights and sign stacks sit offset_m in from their side's corner (one
    pole per stack, so stack members share the position); high lights hang at
    the midpoint of the two corners. Sidewalks are evidence, not assets, and
    are not placed.
    """
    if corners is None:
        raise ValueError("place_objects requires a corner pair")
    anchors = {
        "left": _offset_toward_center(corners.A1, offset_m),
        "right": _offset_toward_center(corners.A2, offset_m),
    }
    mid = LocalPoint((corners.A1.x + corners.A2.x) / 2.0, (corners.A1.y + corners.A2.y) / 2.0)
    out: list[PlacedObject] = []
    for f in fused:
        if f.key.category == "sidewalk":
            continue
        if f.key.category == "traffic_light" and f.light_kind == "high":
            local = mid
            height = high_height_m
        else:
            local = anchors[f.key.side]
            height = low_height_m if f.key.category == "traffic_light" else None
        confidence = min(1.0, f.support / max(1, n_track_images))
        if f.inferred_only:
            confidence /= 2.0
        out.append(
            PlacedObject(
                category=f.key.category,
                subtype=f.subtype,
                light_kind=f.light_kind if f.key.category == "traffic_light" else None,
                position=unproject(frame, local),
                height_m=height,
                source_images=list(f.source_images),
                support=f.support,
                inferred_only=f.inferred_only,
                intersection_id=intersection_id,
                confidence=confidence,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Deduplication across tracks.


def dedup_placed(
    placed: list[PlacedObject], frame: LocalFrame, radius_m: float = 1.5
) -> list[PlacedObject]:
    """Merge same category+subtype placements within radius_m.

    Merged position is the confidence-weighted mean; support adds up;
    confidence, light kind, and height follow the strongest member.
    """
    n = len(placed)
    locals_ = [project(frame, p.position) for p in placed]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            a, b = placed[i], placed[j]
            if (a.category, a.subtype) != (b.category, b.subtype):
                continue
            if dist(locals_[i], locals_[j]) <= radius_m:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members_idx in groups.values():
        members = [placed[i] for i in members_idx]
        if len(members) == 1:
            out.append(members[0])
            continue
        members.sort(
            key=lambda p: (-p.confidence, p.position.lat, p.position.lon, tuple(p.source_images))
        )
        total_conf = sum(p.confidence for p in members)
        weights = [p.confidence / total_conf for p in members]
        x = sum(w * project(frame, p.position).x for w, p in zip(weights, members))
        y = sum(w * project(frame, p.position).y for w, p in zip(weights, members))
        lead = members[0]
        sources = sorted({s for p in members for s in p.source_images})
        out.append(
            PlacedObject(
                category=lead.category,
                subtype=lead.subtype,
                light_kind=lead.light_kind,
                position=unproject(frame, LocalPoint(x, y)),
                height_m=lead.height_m,
                source_images=sources,
                support=sum(p.support for p in members),
                inferred_only=all(p.inferred_only for p in members),
                intersection_id=lead.intersection_id,
                confidence=max(p.confidence for p in members),
            )
        )
    out.sort(
        key=lambda p: (
            p.category,
            p.subtype or "",
            p.position.lat,
            p.position.lon,
            p.light_kind or "",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Full per-intersection pipeline.


def _track_trees(
    bundle: Bundle, track: Track, cfg: RunConfig
) -> list[Atbt]:
    trees = []
    for img in track.images:
        label_map = bundle.label_maps[img.image_id]
        objs, tallest = scene_objects(
            label_map,
            bundle.detections.get(img.image_id, []),
            bundle.registry,
            min_region_px=cfg.min_region_px,
            iou_min=cfg.iou_min,
        )
        objs, groups = apply_grammar(objs, label_map, tallest, cfg, bundle.registry)
        trees.append(build_atbt(objs, groups, img.image_id, img.width_px))
    return trees


def run_intersection(
    bundle: Bundle, buffer: IntersectionBuffer, cfg: RunConfig = RunConfig()
) -> IntersectionResult:
    """Tracks -> trees -> fusion -> corners -> placement -> dedup."""
    result = IntersectionResult(intersection_id=buffer.intersection_id)
    frame = make_frame(buffer.center)
    members = images_in_buffer(bundle.images, buffer)
    if not members:
        result.diagnostics.append(
            {"intersection_id": buffer.intersection_id, "event": "no_images"}
        )
        return result
    tracks = [correct_track(t) for t in build_tracks(members, buffer)]
    raw_placed: list[PlacedObject] = []
    any_corners = False
    for track in tracks:
        trees = _track_trees(bundle, track, cfg)
        result.trees[track.track_id] = trees
        ranks = {
            img.image_id: dist(project(frame, img.position), _ORIGIN)
            for img in track.images
        }
        cases = {
            img.image_id: classify_camera(img, buffer.center, frame, cfg.inner_radius_m)
            for img in track.images
        }
        fused = fuse_track(trees, image_rank=ranks)
        if not fused:
            continue
        corners = None
        c1_images = sorted(
            (img for img in track.images if cases[img.image_id] == "C1"),
            key=lambda im: (ranks[im.image_id], im.image_id),
        )
        for img in c1_images:
            corners = select_corners(img, bundle.footprints, frame, cfg.corner_radius_m)
            if corners is not None:
                break
        if corners is None:
            for img in track.images:
                if cases[img.image_id] == "C2":
                    corners = select_corners(img, bundle.footprints, frame, cfg.corner_radius_m)
                    if corners is not None:
                        break
        if corners is None:
            result.diagnostics.append(
                {
                    "intersection_id": buffer.intersection_id,
                    "track_id": track.track_id,
                    "event": "no_corners",
                    "unplaced": len(fused),
                }
            )
            continue
        any_corners = True
        raw_placed.extend(
            place_objects(
                fused,
                corners,
                frame,
                buffer.intersection_id,
                n_track_images=len(track.images),
                offset_m=cfg.offset_m,
                high_height_m=cfg.high_height_m,
                low_height_m=cfg.low_height_m,
            )
        )
    if not any_corners:
        result.diagnostics.append(
            {"intersection_id": buffer.intersection_id, "event": "no_corners_any_track"}
        )
        return result
    deduped = dedup_placed(raw_placed, frame, cfg.dedup_radius_m)
    kept = []
    for p in deduped:
        if dist(project(frame, p.position), _ORIGIN) <= buffer.radius_m:
            kept.append(p)
        else:
            result.diagnostics.append(
                {
                    "intersection_id": buffer.intersection_id,
                    "event": "outside_buffer",
                    "category": p.category,
                }
            )
    result.placed = kept
    return result


# ---------------------------------------------------------------------------
# GeoJSON output.


def to_geojson(placed: list[PlacedObject]) -> dict:
    ordered = sorted(
        placed,
        key=lambda p: (
            p.intersection_id,
            p.category,
            p.subtype or "",
            p.position.lat,
            p.position.lon,
            p.light_kind or "",
        ),
    )
    features = []
    for p in ordered:
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [p.position.lon, p.position.lat]},
                "properties": {
                    "category": p.category,
                    "subtype": p.subtype,
                    "light_kind": p.light_kind,
                    "height_m": p.height_m,
                    "support": p.support,
                    "confidence": round(p.confidence, 6),
                    "inferred_only": p.inferred_only,
                    "source_images": p.source_images,
                    "intersection_id": p.intersection_id,
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def from_geojson(doc: dict) -> list[PlacedObject]:
    out = []
    for feat in doc.get("features", []):
        lon, lat = feat["geometry"]["coordinates"]
        props = feat.get("properties", {})
        out.append(
            PlacedObject(
                category=props.get("category"),
                subtype=props.get("subtype"),
                light_kind=props.get("light_kind"),
                position=GeoPoint(lat, lon),
                height_m=props.get("height_m"),
                source_images=list(props.get("source_images", [])),
                support=int(props.get("support", 1)),
                inferred_only=bool(props.get("inferred_only", False)),
                intersection_id=props.get("intersection_id", ""),
                confidence=float(props.get("confidence", 1.0)),
            )
        )
    return out
