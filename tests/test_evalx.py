"""Matcher and report checks against a step-scan oracle.

The oracle re-derives greedy nearest-first matching the slow way: rescan every
remaining (pred, ref) pair each round and take the global minimum. Any
divergence in pairing or order breaks the comparison.
"""

from __future__ import annotations

import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from rop.evalx import Pairing, _stats, evaluate, match, to_json, to_table
from rop.geo import M_PER_DEG_LAT, GeoPoint, haversine_m, make_frame
from rop.placer import PlacedObject

FRAME = make_frame(GeoPoint(52.5, 13.4))


def wrapped(frame, x, y) -> GeoPoint:
    """unproject(frame, LocalPoint(x, y)), with the longitude wrapped into
    [-180, 180], which unproject cannot do."""
    lon = frame.origin.lon + x / frame.m_per_deg_lon
    lon += 360.0 if lon < -180.0 else -360.0 if lon > 180.0 else 0.0
    return GeoPoint(frame.origin.lat + y / M_PER_DEG_LAT, lon)


def obj(x, y, category="traffic_sign", subtype=None, light_kind=None, iid="x0", frame=FRAME):
    return PlacedObject(
        category=category,
        subtype=subtype,
        light_kind=light_kind,
        position=wrapped(frame, x, y),
        height_m=None,
        source_images=[],
        support=1,
        inferred_only=False,
        intersection_id=iid,
        confidence=1.0,
    )


def match_oracle(preds, refs, radius_m=5.0):
    """Greedy nearest-first by exhaustive rescan each round."""
    used_p, used_r = set(), set()
    out = []
    while True:
        best = None
        for pi, p in enumerate(preds):
            if pi in used_p:
                continue
            for ri, r in enumerate(refs):
                if ri in used_r:
                    continue
                if p.category != r.category:
                    continue
                if p.subtype is not None and r.subtype is not None and p.subtype != r.subtype:
                    continue
                d = haversine_m(p.position, r.position)
                if d > radius_m:
                    continue
                key = (d, pi, ri)
                if best is None or key < best:
                    best = key
        if best is None:
            return out
        d, pi, ri = best
        used_p.add(pi)
        used_r.add(ri)
        out.append(Pairing(ref_index=ri, pred_index=pi, distance_m=d))


def test_identical_sets_match_exactly():
    refs = [obj(0, 0), obj(10, 0), obj(0, 10, category="traffic_light", light_kind="low")]
    preds = [refs[2], refs[0], refs[1]]
    pairs = match(preds, refs)
    assert len(pairs) == 3
    assert all(p.distance_m < 1e-6 for p in pairs)


def test_radius_cutoff():
    refs = [obj(0, 0)]
    assert match([obj(4.9, 0)], refs) != []
    assert match([obj(5.5, 0)], refs) == []


def test_category_and_subtype_gating():
    refs = [obj(0, 0, subtype="stop")]
    assert match([obj(0, 0, subtype="yield")], refs) == []
    assert match([obj(0, 0, subtype=None)], refs) != []
    assert match([obj(0, 0, category="traffic_light")], refs) == []


def test_greedy_takes_global_nearest_not_optimal():
    # P is 0.4 m from B and 0.6 m from A; greedy pairs P-B even though P-A
    # would free B for nothing else. Pins nearest-first over assignment.
    refs = [obj(0.0, 0), obj(1.0, 0)]
    preds = [obj(0.6, 0)]
    pairs = match(preds, refs)
    assert len(pairs) == 1
    assert pairs[0].ref_index == 1
    assert math.isclose(pairs[0].distance_m, 0.4, rel_tol=1e-3)


def test_tie_breaks_by_pred_then_ref_index():
    refs = [obj(0, 0), obj(0, 0)]
    preds = [obj(0, 0), obj(0, 0)]
    pairs = match(preds, refs)
    assert [(p.pred_index, p.ref_index) for p in pairs] == [(0, 0), (1, 1)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_match_equals_rescan_oracle(data):
    # Objects scatter in metres around a centre at any latitude in [-85, 85],
    # where a degree of longitude spans from 111 km down to under 10 km, and
    # at any longitude: a centre on ±180 puts the scatter across the line.
    lat = data.draw(st.floats(-85, 85, allow_nan=False))
    lon = data.draw(st.sampled_from([13.4, 180.0, -180.0]) | st.floats(-180, 180, allow_nan=False))
    frame = make_frame(GeoPoint(lat, lon))
    n_pred = data.draw(st.integers(0, 6))
    n_ref = data.draw(st.integers(0, 6))
    coord = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
    cats = st.sampled_from(["traffic_light", "traffic_sign"])
    subs = st.sampled_from([None, "stop", "yield"])

    def draw_obj(x, y):
        return obj(x, y, category=data.draw(cats), subtype=data.draw(subs), frame=frame)

    preds = [draw_obj(data.draw(coord), data.draw(coord)) for _ in range(n_pred)]
    refs = [draw_obj(data.draw(coord), data.draw(coord)) for _ in range(n_ref)]
    # Pairs about one radius apart along the meridian, on either side of it:
    # the most latitude a matching pair can span.
    for _ in range(data.draw(st.integers(0, 2))):
        x, y = data.draw(coord), data.draw(coord)
        dy = data.draw(st.sampled_from([-5.0, 5.0])) * (1.0 - data.draw(st.floats(-1e-5, 1e-5)))
        preds.append(draw_obj(x, y))
        refs.append(draw_obj(x, y + dy))
    assert match(preds, refs) == match_oracle(preds, refs)
    for g in evaluate(preds, refs).groups:
        assert g.precision == (g.n_matched / g.n_pred if g.n_pred else None)
        assert g.n_unmatched_pred == g.n_pred - g.n_matched
        if g.precision is None or g.completeness is None:
            assert g.f1 is None
        elif g.n_matched == 0:
            assert g.f1 == 0.0
        else:
            assert math.isclose(g.f1, 2 * g.n_matched / (g.n_ref + g.n_pred))


def evaluate_oracle(preds, refs, radius_m=5.0):
    """evaluate's groups by a full recount per group: each group rescans both
    lists and takes its distances in reference order, the overall group's in
    pairing order."""
    pairings = match(preds, refs, radius_m=radius_m)
    by_ref = {p.ref_index: p for p in pairings}
    matched_preds = {p.pred_index for p in pairings}

    def groups_of(o):
        names = [o.category]
        if o.category == "traffic_light" and o.light_kind:
            names.append(f"traffic_light[{o.light_kind}]")
        return names

    names = sorted({g for o in [*refs, *preds] for g in groups_of(o)})
    overall = [p.distance_m for p in pairings]
    groups = [_stats("overall", len(refs), len(preds), len(pairings), overall)]
    for name in names:
        n_ref = sum(1 for r in refs if name in groups_of(r))
        n_pred = sum(1 for p in preds if name in groups_of(p))
        n_pred_matched = sum(
            1 for i, p in enumerate(preds) if name in groups_of(p) and i in matched_preds
        )
        dists = [
            by_ref[i].distance_m
            for i, r in enumerate(refs)
            if name in groups_of(r) and i in by_ref
        ]
        groups.append(_stats(name, n_ref, n_pred, n_pred_matched, dists))
    return groups


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_equals_recount_oracle(data):
    # Up to 12 objects a side, either side possibly empty, within a few
    # metres of each other, so most groups match several pairs and their
    # float sums depend on the order of the distances.
    coord = st.floats(-6, 6, allow_nan=False, allow_infinity=False)
    objects = st.lists(
        st.builds(
            obj,
            coord,
            coord,
            category=st.sampled_from(["traffic_light", "traffic_sign"]),
            subtype=st.sampled_from([None, "stop", "yield"]),
            light_kind=st.sampled_from([None, "high", "low"]),
        ),
        max_size=12,
    )
    preds, refs = data.draw(objects), data.draw(objects)
    report = evaluate(preds, refs)
    assert report.pairings == match(preds, refs)
    # Dataclass equality compares every field, floats exactly, in order.
    assert report.groups == evaluate_oracle(preds, refs)


def test_evaluate_memory_grows_with_objects_not_their_product():
    # 3,000 references on a 30 m grid, each with a prediction 1 m east. One
    # P x R float64 matrix alone would take 72 MB.
    refs = [obj(30.0 * (i % 55), 30.0 * (i // 55)) for i in range(3000)]
    preds = [obj(30.0 * (i % 55) + 1.0, 30.0 * (i // 55)) for i in range(3000)]
    tracemalloc.start()
    try:
        report = evaluate(preds, refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.group("overall").n_matched == 3000
    assert peak < 20 * 2**20


def test_evaluate_stats_hand_computed():
    refs = [
        obj(0, 0, category="traffic_light", light_kind="high"),
        obj(20, 0, category="traffic_light", light_kind="low"),
        obj(40, 0, subtype="stop"),
        obj(60, 0, subtype="yield"),
    ]
    preds = [
        obj(0, 3, category="traffic_light", light_kind="high"),  # 3 m
        obj(20, 4, category="traffic_light", light_kind="low"),  # 4 m
        obj(40, 0, subtype="stop"),  # 0 m
        # yield ref unmatched
    ]
    rep = evaluate(preds, refs)
    overall = rep.group("overall")
    assert overall.n_ref == 4 and overall.n_matched == 3
    assert math.isclose(overall.completeness, 0.75)
    assert math.isclose(overall.median_m, 3.0, rel_tol=1e-3)
    assert math.isclose(overall.mean_m, 7.0 / 3.0, rel_tol=1e-3)
    assert math.isclose(overall.rmse_m, math.sqrt(25.0 / 3.0), rel_tol=1e-3)
    high = rep.group("traffic_light[high]")
    assert high.n_ref == 1 and high.n_matched == 1
    assert math.isclose(high.median_m, 3.0, rel_tol=1e-3)
    signs = rep.group("traffic_sign")
    assert signs.n_ref == 2 and signs.n_matched == 1 and signs.completeness == 0.5
    lights = rep.group("traffic_light")
    assert lights.n_ref == 2 and lights.n_matched == 2
    assert overall.n_unmatched_pred == 0 and overall.precision == 1.0
    assert math.isclose(overall.f1, 2 * 0.75 / 1.75)
    assert signs.precision == 1.0 and math.isclose(signs.f1, 2 / 3)


def test_precision_counts_the_group_s_matched_predictions():
    # Matching ignores the light kind, so a high light may match a low
    # reference: it counts for the high group's precision and the low
    # group's completeness.
    refs = [obj(0, 0, category="traffic_light", light_kind="low")]
    preds = [obj(0, 1, category="traffic_light", light_kind="high"), obj(30, 0, subtype="stop")]
    rep = evaluate(preds, refs)
    overall = rep.group("overall")
    assert (overall.n_matched, overall.n_unmatched_pred, overall.precision) == (1, 1, 0.5)
    assert math.isclose(overall.f1, 2 / 3)
    high = rep.group("traffic_light[high]")
    assert (high.n_pred, high.n_unmatched_pred, high.precision) == (1, 0, 1.0)
    assert high.completeness is None and high.f1 is None
    low = rep.group("traffic_light[low]")
    assert (low.n_ref, low.n_matched, low.completeness) == (1, 1, 1.0)
    assert low.precision is None and low.f1 is None
    signs = rep.group("traffic_sign")
    assert (signs.n_unmatched_pred, signs.precision, signs.completeness) == (1, 0.0, None)


def test_evaluate_empty_inputs():
    rep = evaluate([], [])
    assert rep.group("overall").completeness is None
    assert rep.group("overall").precision is None and rep.group("overall").f1 is None
    assert rep.group("overall").median_m is None
    assert rep.pairings == []


def test_report_serializes():
    refs = [obj(0, 0, subtype="stop")]
    preds = [obj(1, 0, subtype="stop")]
    rep = evaluate(preds, refs)
    doc = to_json(rep)
    assert doc["radius_m"] == 5.0
    assert doc["groups"][0]["group"] == "overall"
    assert doc["pairings"][0]["ref_index"] == 0
    overall = doc["groups"][0]
    assert (overall["n_unmatched_pred"], overall["precision"], overall["f1"]) == (0, 1.0, 1.0)
    table = to_table(rep)
    assert "overall" in table and "traffic_sign" in table
    assert "prec" in table.splitlines()[0] and "f1" in table.splitlines()[0]
    assert "1.000" in table
