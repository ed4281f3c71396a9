"""Geodetic and local-metric geometry primitives.

Everything downstream works in a small equirectangular tangent frame around a
single road intersection. At that scale (under 100 m) the frame error stays
below a centimeter, which spares us a projection-library dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

M_PER_DEG_LAT = 111320.0
# Spherical radius consistent with M_PER_DEG_LAT (R * pi / 180 = 111319.49).
EARTH_RADIUS_M = 6378137.0
# Half-width of a tangent frame's validity window, degrees on both axes.
FRAME_SPAN_DEG = 0.05


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """WGS84 coordinate in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True, slots=True)
class LocalPoint:
    """Meters east (x) and north (y) of a frame origin."""

    x: float
    y: float


@dataclass(frozen=True)
class LocalFrame:
    origin: GeoPoint
    m_per_deg_lon: float  # metres per degree of latitude are M_PER_DEG_LAT everywhere


@dataclass(frozen=True, slots=True)
class Footprint:
    """Building outline: closed vertex ring, first vertex repeated last. Its
    centroid, footprint_centroid(ring), is computed once, here: None when the
    ring encloses no area."""

    id: str
    ring: tuple[GeoPoint, ...]
    centroid: tuple[float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ring) < 4:
            raise ValueError(
                f"footprint {self.id}: ring needs >= 4 vertices, got {len(self.ring)}"
            )
        if self.ring[0] != self.ring[-1]:
            raise ValueError(f"footprint {self.id}: ring is not closed")
        object.__setattr__(self, "centroid", footprint_centroid(self.ring))


def make_frame(center: GeoPoint) -> LocalFrame:
    """Local tangent frame centered on an intersection."""
    if abs(center.lat) > 89.0:
        raise ValueError(f"frame degenerate near the poles (lat={center.lat})")
    return LocalFrame(origin=center, m_per_deg_lon=M_PER_DEG_LAT * math.cos(math.radians(center.lat)))


def wrap_lon(lon: float) -> float:
    """A longitude, or a difference of two, in degrees: moved into
    [-180, 180) by whole turns when it lies outside [-180, 180], else
    returned as it is, since (lon + 180) % 360 - 180 is not exact for a
    small lon."""
    if -180.0 <= lon <= 180.0:
        return lon
    return (lon + 180.0) % 360.0 - 180.0


def project(frame: LocalFrame, p: GeoPoint) -> LocalPoint | None:
    """p in the frame's metres, or None when p lies outside the frame's validity span."""
    dlat = p.lat - frame.origin.lat
    dlon = wrap_lon(p.lon - frame.origin.lon)
    if abs(dlat) >= FRAME_SPAN_DEG or abs(dlon) >= FRAME_SPAN_DEG:
        return None
    return LocalPoint(x=dlon * frame.m_per_deg_lon, y=dlat * M_PER_DEG_LAT)


def unproject(frame: LocalFrame, q: LocalPoint) -> GeoPoint:
    dlat = q.y / M_PER_DEG_LAT
    dlon = q.x / frame.m_per_deg_lon
    if abs(dlat) >= FRAME_SPAN_DEG or abs(dlon) >= FRAME_SPAN_DEG:
        raise ValueError("local point outside the frame validity span")
    return GeoPoint(lat=frame.origin.lat + dlat, lon=wrap_lon(frame.origin.lon + dlon))


def within(frame: LocalFrame, p: GeoPoint, radius_m: float) -> bool:
    """Whether p lies within radius_m of the frame origin; False for a point
    outside the frame's validity span, where project returns None."""
    q = project(frame, p)
    return q is not None and math.hypot(q.x, q.y) <= radius_m


def dist(a: LocalPoint, b: LocalPoint) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance on the sphere the local frames assume."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(s))


def heading_vector(heading_deg: float) -> tuple[float, float]:
    """Unit (east, north) vector of a compass heading, degrees clockwise from north."""
    r = math.radians(heading_deg)
    return math.sin(r), math.cos(r)


def nearest_vertex(pts: list[LocalPoint], q: LocalPoint) -> tuple[LocalPoint, float]:
    """The vertex of pts, an open ring in metres, nearest q, and its distance; ties go to the lowest index."""
    d, i = min((dist(p, q), i) for i, p in enumerate(pts))
    return pts[i], d


def footprint_centroid(ring: tuple[GeoPoint, ...]) -> tuple[float, float] | None:
    """Shoelace centroid of a closed ring, in degrees east and north of its first
    vertex (about which it sums, wrapping as wrap_lon), or None when twice its
    area is within 1e-8 of its box's squared diagonal: no area enclosed."""
    xs = [wrap_lon(v.lon - ring[0].lon) for v in ring]
    ys = [v.lat - ring[0].lat for v in ring]
    twice_area = cx = cy = 0.0
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        w = x0 * y1 - x1 * y0
        twice_area += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    if abs(twice_area) <= 1e-8 * ((max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2):
        return None
    return cx / (3.0 * twice_area), cy / (3.0 * twice_area)
