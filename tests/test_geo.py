import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop import geo
from rop.geo import Footprint, GeoPoint, LocalPoint


# ---------------------------------------------------------------------------
# Oracles, written independently of the module under test.


def haversine_oracle(lat1, lon1, lat2, lon2, radius=6378137.0):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * radius * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def brute_nearest_vertex(fp, frame, q):
    best = None
    for v in fp.ring:  # duplicate closing vertex never beats index 0 on a tie
        pv = geo.project(frame, v)
        d = math.hypot(pv.x - q.x, pv.y - q.y)
        if best is None or d < best[0]:
            best = (d, pv)
    return best[1], best[0]


def fan_centroid_oracle(pts):
    """Area-weighted mean of fan-triangulation centroids (open ring, meters)."""
    ax, ay = pts[0]
    cx = cy = area = 0.0
    for i in range(1, len(pts) - 1):
        bx, by = pts[i]
        dx, dy = pts[i + 1]
        a2 = (bx - ax) * (dy - ay) - (dx - ax) * (by - ay)
        cx += a2 * (ax + bx + dx) / 3.0
        cy += a2 * (ay + by + dy) / 3.0
        area += a2
    return cx / area, cy / area


def ring_from_local(frame, pts):
    """Closed GeoPoint ring from local-meter vertices."""
    g = [geo.unproject(frame, LocalPoint(x, y)) for x, y in pts]
    return tuple(g + [g[0]])


def outline(frame, fp):
    """A footprint's open ring in frame's metres, as the vertex helpers take it."""
    return [geo.project(frame, v) for v in fp.ring[:-1]]


def centroid_in(frame, fp):
    """footprint_centroid of fp, its degree offset taken into frame's metres."""
    dlon, dlat = geo.footprint_centroid(fp.ring)
    first = geo.project(frame, fp.ring[0])
    return LocalPoint(first.x + dlon * frame.m_per_deg_lon, first.y + dlat * geo.M_PER_DEG_LAT)


BERLIN = GeoPoint(52.52, 13.405)


# ---------------------------------------------------------------------------
# Frames and projection.


def test_make_frame_scales():
    frame = geo.make_frame(BERLIN)
    assert geo.M_PER_DEG_LAT == 111320.0
    assert frame.m_per_deg_lon == pytest.approx(111320.0 * math.cos(math.radians(52.52)))


def test_make_frame_equator_scales_match():
    frame = geo.make_frame(GeoPoint(0.0, 0.0))
    assert frame.m_per_deg_lon == pytest.approx(geo.M_PER_DEG_LAT)


@pytest.mark.parametrize("lat", [89.5, -89.2, 90.0])
def test_make_frame_rejects_near_poles(lat):
    with pytest.raises(ValueError):
        geo.make_frame(GeoPoint(lat, 0.0))


def test_project_center_is_origin():
    frame = geo.make_frame(BERLIN)
    q = geo.project(frame, BERLIN)
    assert q == LocalPoint(0.0, 0.0)


def test_project_north_offset_matches_haversine():
    # 0.001 deg of latitude is about 111.32 m on this sphere.
    frame = geo.make_frame(BERLIN)
    p = GeoPoint(BERLIN.lat + 0.001, BERLIN.lon)
    q = geo.project(frame, p)
    assert q.x == pytest.approx(0.0, abs=1e-9)
    assert q.y == pytest.approx(111.32, abs=0.01)
    ref = haversine_oracle(BERLIN.lat, BERLIN.lon, p.lat, p.lon)
    assert abs(q.y - ref) / ref < 1e-3


def test_project_out_of_span_raises():
    frame = geo.make_frame(BERLIN)
    assert geo.project(frame, GeoPoint(BERLIN.lat + 0.06, BERLIN.lon)) is None
    with pytest.raises(ValueError):
        geo.unproject(frame, LocalPoint(0.0, 0.06 * geo.M_PER_DEG_LAT))


@given(
    lat=st.floats(-80, 80),
    lon=st.floats(-179, 179),
    dlat=st.floats(-0.04, 0.04),
    dlon=st.floats(-0.04, 0.04),
)
@settings(max_examples=200)
def test_projection_round_trip(lat, lon, dlat, dlon):
    frame = geo.make_frame(GeoPoint(lat, lon))
    p = GeoPoint(lat + dlat, lon + dlon)
    back = geo.unproject(frame, geo.project(frame, p))
    assert abs(back.lat - p.lat) < 1e-9
    assert abs(back.lon - p.lon) < 1e-9


# Frame centres on and near the antimeridian, where longitudes of one frame
# differ by almost a whole turn.
NEAR_180 = st.one_of(
    st.sampled_from([180.0, -180.0]), st.floats(179.96, 180.0), st.floats(-180.0, -179.96)
)
SPAN_M = 0.04 * 111320.0 * math.cos(math.radians(60))


def same_local(a, b):
    return math.hypot(a.x - b.x, a.y - b.y) <= 1e-6


@given(lat=st.floats(-60, 60), lon=NEAR_180, dlat=st.floats(-0.04, 0.04))
@settings(max_examples=200)
def test_project_is_blind_to_a_whole_turn(lat, lon, dlat):
    # ±180 name one meridian: a point on it projects the same under either
    # name, and so does any point under a frame centred on it.
    frame = geo.make_frame(GeoPoint(lat, lon))
    if abs(geo.wrap_lon(180.0 - lon)) < 0.05:
        east, west = GeoPoint(lat + dlat, 180.0), GeoPoint(lat + dlat, -180.0)
        assert same_local(geo.project(frame, east), geo.project(frame, west))
    if abs(lon) == 180.0:
        twin = geo.make_frame(GeoPoint(lat, -lon))
        p = geo.unproject(frame, LocalPoint(25.0, -40.0))
        assert same_local(geo.project(frame, p), geo.project(twin, p))


@given(
    lat=st.floats(-60, 60),
    lon=NEAR_180,
    x=st.floats(-SPAN_M, SPAN_M),
    y=st.floats(-SPAN_M, SPAN_M),
)
@settings(max_examples=300)
def test_projection_round_trip_across_the_antimeridian(lat, lon, x, y):
    frame = geo.make_frame(GeoPoint(lat, lon))
    p = geo.unproject(frame, LocalPoint(x, y))
    assert -180.0 <= p.lon <= 180.0
    assert same_local(geo.project(frame, p), LocalPoint(x, y))
    back = geo.unproject(frame, geo.project(frame, p))
    assert abs(back.lat - p.lat) < 1e-9
    assert abs(geo.wrap_lon(back.lon - p.lon)) < 1e-9


@given(
    lat=st.floats(-60, 60),
    lon=NEAR_180,
    radius=st.floats(1.0, 500.0),
    offsets=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=1, max_size=20),
)
@settings(max_examples=200)
def test_in_box_holds_wherever_within_does(lat, lon, radius, offsets):
    from rop.placer import _in_box

    frame = geo.make_frame(GeoPoint(lat, lon))
    points = [geo.unproject(frame, LocalPoint(u * radius, v * radius)) for u, v in offsets]
    boxed = _in_box(
        frame, np.array([p.lat for p in points]), np.array([p.lon for p in points]), radius
    )
    for p, inside in zip(points, boxed.tolist()):
        assert inside or not geo.within(frame, p, radius)


def test_wrap_lon_leaves_in_range_values_exact():
    for v in (0.0, 1e-12, -13.4, 179.99999999, 180.0, -180.0):
        assert geo.wrap_lon(v) == v
    assert geo.wrap_lon(359.5) == -0.5
    assert geo.wrap_lon(-180.25) == 179.75


@given(
    lat=st.floats(-75, 75),
    lon=st.floats(-179, 179),
    dn=st.floats(-140, 140),
    de=st.floats(-140, 140),
)
@settings(max_examples=200)
def test_frame_distance_matches_haversine_within_200m(lat, lon, dn, de):
    frame = geo.make_frame(GeoPoint(lat, lon))
    p = geo.unproject(frame, LocalPoint(de, dn))
    d_frame = geo.dist(LocalPoint(0.0, 0.0), geo.project(frame, p))
    d_ref = haversine_oracle(lat, lon, p.lat, p.lon)
    if d_ref > 1.0:
        assert abs(d_frame - d_ref) / d_ref < 1e-3


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)


# ---------------------------------------------------------------------------
# dist.


def test_dist_examples():
    assert geo.dist(LocalPoint(0, 0), LocalPoint(3, 4)) == 5.0
    p = LocalPoint(-2.5, 7.1)
    assert geo.dist(p, p) == 0.0


@given(
    st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
)
def test_dist_triangle_inequality(a, b, c):
    pa, pb, pc = (LocalPoint(*t) for t in (a, b, c))
    assert geo.dist(pa, pc) <= geo.dist(pa, pb) + geo.dist(pb, pc) + 1e-9


# ---------------------------------------------------------------------------
# Footprints.


def test_footprint_validation():
    frame = geo.make_frame(BERLIN)
    sq = ring_from_local(frame, [(0, 0), (1, 0), (1, 1), (0, 1)])
    Footprint("ok", sq)
    with pytest.raises(ValueError):
        Footprint("open", sq[:-1] + (sq[2],))  # not closed
    with pytest.raises(ValueError):
        Footprint("short", (sq[0], sq[1], sq[0]))


def test_nearest_vertex_unit_square():
    frame = geo.make_frame(BERLIN)
    fp = Footprint("sq", ring_from_local(frame, [(0, 0), (1, 0), (1, 1), (0, 1)]))
    v, d = geo.nearest_vertex(outline(frame, fp), LocalPoint(0.1, 0.1))
    assert d == pytest.approx(math.hypot(0.1, 0.1), abs=1e-6)
    assert v.x == pytest.approx(0.0, abs=1e-6)
    assert v.y == pytest.approx(0.0, abs=1e-6)


def test_nearest_vertex_on_vertex_distance_zero():
    frame = geo.make_frame(BERLIN)
    fp = Footprint("sq", ring_from_local(frame, [(0, 0), (2, 0), (2, 2), (0, 2)]))
    _, d = geo.nearest_vertex(outline(frame, fp), LocalPoint(2.0, 0.0))
    assert d < 1e-6


@given(
    pts=st.lists(
        st.tuples(st.floats(-60, 60), st.floats(-60, 60)),
        min_size=3,
        max_size=8,
        unique=True,
    ),
    qx=st.floats(-80, 80),
    qy=st.floats(-80, 80),
)
@settings(max_examples=150)
def test_nearest_vertex_matches_brute_force(pts, qx, qy):
    frame = geo.make_frame(BERLIN)
    fp = Footprint("rand", ring_from_local(frame, pts))
    q = LocalPoint(qx, qy)
    v, d = geo.nearest_vertex(outline(frame, fp), q)
    bv, bd = brute_nearest_vertex(fp, frame, q)
    assert d == pytest.approx(bd, abs=1e-6)
    assert math.hypot(v.x - bv.x, v.y - bv.y) < 1e-6


def test_centroid_unit_square():
    frame = geo.make_frame(BERLIN)
    fp = Footprint("sq", ring_from_local(frame, [(0, 0), (1, 0), (1, 1), (0, 1)]))
    c = centroid_in(frame, fp)
    assert c.x == pytest.approx(0.5, abs=1e-6)
    assert c.y == pytest.approx(0.5, abs=1e-6)


def test_centroid_translation_invariance():
    frame = geo.make_frame(BERLIN)
    base = [(0, 0), (4, 0), (4, 2), (0, 2)]
    moved = [(x + 10, y - 7) for x, y in base]
    c0 = centroid_in(frame, Footprint("a", ring_from_local(frame, base)))
    c1 = centroid_in(frame, Footprint("b", ring_from_local(frame, moved)))
    assert c1.x - c0.x == pytest.approx(10.0, abs=1e-6)
    assert c1.y - c0.y == pytest.approx(-7.0, abs=1e-6)


def test_centroid_matches_fan_triangulation_oracle():
    frame = geo.make_frame(BERLIN)
    pts = [(0, 0), (6, 0), (7, 3), (3, 6), (-1, 4)]
    fp = Footprint("penta", ring_from_local(frame, pts))
    c = centroid_in(frame, fp)
    ox, oy = fan_centroid_oracle(pts)
    assert c.x == pytest.approx(ox, abs=1e-6)
    assert c.y == pytest.approx(oy, abs=1e-6)


def test_centroid_of_a_ring_that_encloses_no_area_is_none():
    frame = geo.make_frame(BERLIN)
    line = ring_from_local(frame, [(0, 0), (1, 0), (2, 0)])
    assert geo.footprint_centroid(line) is None
    diagonal = ring_from_local(frame, [(6, -6), (11, -11), (16, -16)])
    assert geo.footprint_centroid(diagonal) is None


def test_centroid_wraps_longitude_across_the_antimeridian():
    frame = geo.make_frame(GeoPoint(-40.0, 180.0))
    fp = Footprint("dateline", ring_from_local(frame, [(-5, -5), (5, -5), (5, 5), (-5, 5)]))
    assert fp.ring[0].lon > 179.0 and fp.ring[1].lon < -179.0
    c = centroid_in(frame, fp)
    assert c.x == pytest.approx(0.0, abs=1e-6)
    assert c.y == pytest.approx(0.0, abs=1e-6)
