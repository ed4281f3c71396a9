"""Per-image scene objects from label maps and detections.

Regions are 4-connected components of a semantic label map. Sign regions are
reconciled against detector output so each emitted sign carries the detector's
subtype while borrowing pixel-accurate geometry where the match is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .ingest import DEFAULT_REGISTRY, CategoryRegistry, Detection


@dataclass
class Region:
    category: str
    centroid: tuple[float, float]  # (row, col)
    area_px: int
    bbox: tuple[int, int, int, int]  # (x, y, w, h)
    first_px: int  # row-major index of the first pixel, for stable ordering


@dataclass
class SceneObject:
    id: str
    category: str
    centroid: tuple[float, float]  # (row, col)
    area_px: float
    bbox: tuple[float, float, float, float] | None  # (x, y, w, h)
    subtype: str | None = None
    score: float | None = None
    source: str = "region"  # region | detection | inferred
    light_kind: str | None = None  # high | low
    height_m: float | None = None
    low_confidence: bool = False
    inferred: bool = False


def extract_regions(
    label_map: np.ndarray,
    registry: CategoryRegistry = DEFAULT_REGISTRY,
    categories: list[str] | None = None,
    min_region_px: int = 25,
) -> list[Region]:
    """Connected components (4-connectivity) per category, smaller than
    min_region_px dropped, ordered by (category id, first pixel index)."""
    if label_map.ndim != 2:
        raise ValueError("label map must be 2-D")
    h, w = label_map.shape
    names = registry.names() if categories is None else list(categories)
    out: list[Region] = []
    for name in sorted(names, key=registry.id_of):
        mask = label_map == registry.id_of(name)
        # No component can reach min_region_px when the whole category has
        # fewer pixels; an absent category has no bounding box to crop to.
        n_px = np.count_nonzero(mask)
        if n_px == 0 or n_px < min_region_px:
            continue
        # Work inside the category's bounding box; sparse categories shrink
        # the labeling pass to a small crop. Ordering by first pixel is
        # unchanged: lexicographic (row, col) order survives the translation.
        rows_any = mask.any(axis=1).nonzero()[0]
        cols_any = mask.any(axis=0).nonzero()[0]
        r_off, c_off = int(rows_any[0]), int(cols_any[0])
        sub = mask[r_off : rows_any[-1] + 1, c_off : cols_any[-1] + 1]
        sw = sub.shape[1]
        labs, n = ndimage.label(sub)
        if n == 0:
            continue
        flat = labs.ravel()
        nz = np.flatnonzero(flat)
        comp = flat[nz]
        area = np.bincount(comp, minlength=n + 1)
        rsum = np.bincount(comp, weights=nz // sw, minlength=n + 1)
        csum = np.bincount(comp, weights=nz % sw, minlength=n + 1)
        # Assigning in reverse leaves each component's smallest index in place.
        first = np.empty(n + 1, dtype=np.int64)
        first[comp[::-1]] = nz[::-1]
        slices = ndimage.find_objects(labs)
        members = []
        for k in range(1, n + 1):
            if area[k] < min_region_px:
                continue
            rs, cs = slices[k - 1]
            fr, fc = int(first[k]) // sw + r_off, int(first[k]) % sw + c_off
            members.append(
                Region(
                    category=name,
                    centroid=(
                        (rsum[k] + r_off * area[k]) / area[k],
                        (csum[k] + c_off * area[k]) / area[k],
                    ),
                    area_px=int(area[k]),
                    bbox=(
                        cs.start + c_off,
                        rs.start + r_off,
                        cs.stop - cs.start,
                        rs.stop - rs.start,
                    ),
                    first_px=fr * w + fc,
                )
            )
        members.sort(key=lambda r: r.first_px)
        out.extend(members)
    return out


def box_iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _from_region(obj_id: str, region: Region) -> SceneObject:
    return SceneObject(
        id=obj_id,
        category=region.category,
        centroid=region.centroid,
        area_px=float(region.area_px),
        bbox=tuple(float(v) for v in region.bbox),
        source="region",
    )


def reconcile(
    regions: list[Region],
    detections: list[Detection],
    iou_min: float = 0.3,
) -> list[SceneObject]:
    """Fuse sign regions with sign detections; pass lights and sidewalks through.

    Each sign detection yields one object. When exactly one detection overlaps
    exactly one region at IoU >= iou_min, the object takes the region's
    centroid, area, and bbox; otherwise geometry derives from the detection
    bbox alone. Sign regions no detection claims are dropped (the detector is
    the authority on sign existence), and detections of other categories are
    ignored here.
    """
    out: list[SceneObject] = []
    lights = [r for r in regions if r.category == "traffic_light"]
    walks = [r for r in regions if r.category == "sidewalk"]
    signs = [r for r in regions if r.category == "traffic_sign"]
    out.extend(_from_region(f"light{i}", r) for i, r in enumerate(lights))
    out.extend(_from_region(f"walk{i}", r) for i, r in enumerate(walks))

    sign_dets = [d for d in detections if d.category == "traffic_sign"]
    matches: list[list[int]] = []
    claimed = [0] * len(signs)
    for det in sign_dets:
        hits = [j for j, r in enumerate(signs) if box_iou(det.bbox, tuple(float(v) for v in r.bbox)) >= iou_min]
        matches.append(hits)
        for j in hits:
            claimed[j] += 1
    for i, det in enumerate(sign_dets):
        hits = matches[i]
        if len(hits) == 1 and claimed[hits[0]] == 1:
            r = signs[hits[0]]
            obj = SceneObject(
                id=f"sign{i}",
                category="traffic_sign",
                centroid=r.centroid,
                area_px=float(r.area_px),
                bbox=tuple(float(v) for v in r.bbox),
                subtype=det.subtype,
                score=det.score,
                source="region",
            )
        else:
            x, y, w, h = det.bbox
            obj = SceneObject(
                id=f"sign{i}",
                category="traffic_sign",
                centroid=(y + h / 2.0, x + w / 2.0),
                area_px=float(w * h),
                bbox=det.bbox,
                subtype=det.subtype,
                score=det.score,
                source="detection",
            )
        out.append(obj)
    return out


def _tallest(regions: list[Region]) -> int:
    return max((r.bbox[3] for r in regions if r.category == "pedestrian"), default=0)


def tallest_pedestrian_px(
    label_map: np.ndarray,
    registry: CategoryRegistry = DEFAULT_REGISTRY,
    min_region_px: int = 25,
) -> int:
    """Bounding-box height of the tallest pedestrian region, 0 if none."""
    return _tallest(
        extract_regions(label_map, registry, categories=["pedestrian"], min_region_px=min_region_px)
    )


def scene_objects(
    label_map: np.ndarray,
    detections: list[Detection],
    registry: CategoryRegistry = DEFAULT_REGISTRY,
    min_region_px: int = 25,
    iou_min: float = 0.3,
) -> tuple[list[SceneObject], int]:
    """One image's reconciled objects and its tallest pedestrian height in
    pixels (0 if none), from a single extraction over the label map."""
    regions = extract_regions(
        label_map,
        registry,
        categories=["sidewalk", "pedestrian", "traffic_light", "traffic_sign"],
        min_region_px=min_region_px,
    )
    return reconcile(regions, detections, iou_min=iou_min), _tallest(regions)


def build_scene(
    label_map: np.ndarray,
    detections: list[Detection],
    registry: CategoryRegistry = DEFAULT_REGISTRY,
    min_region_px: int = 25,
    iou_min: float = 0.3,
) -> list[SceneObject]:
    return scene_objects(label_map, detections, registry, min_region_px, iou_min)[0]
