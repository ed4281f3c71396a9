"""End-to-end acceptance checks for the geolocation pipeline.

Seven numbered criteria, each printing one ``[criterion N] PASS/FAIL`` line
(visible under ``pytest -s``) before asserting. Thresholds are pinned here;
loosening them is an interface change, not a test fix.
"""
from __future__ import annotations

import json
import math
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rop.atbt import Atbt, build_atbt, tree_to_json
from rop.cli import main as cli_main
from rop.config import RunConfig
from rop.evalx import evaluate, match
from rop.geo import (
    Footprint,
    GeoPoint,
    LocalPoint,
    haversine_m,
    heading_vector,
    make_frame,
    project,
    unproject,
)
from rop.grammar import apply_grammar, classify_light, merge_sidewalks
from rop.ingest import DEFAULT_REGISTRY, ImageMeta, build_tracks, correct_track
from rop.placer import run_intersection, select_corners
from rop.scene import scene_objects
from rop.synth import (
    CameraPose,
    Layout,
    PedestrianSpec,
    RectFootprint,
    TruthObject,
    render_bundle,
    render_image,
    standard_fixtures,
)

MATCH_RADIUS_M = 5.0


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# Shared full run over the standard fixture set.


@pytest.fixture(scope="module")
def fixture_run():
    layouts = standard_fixtures(100, seed=1)
    cfg = RunConfig()
    runs = []
    preds = []
    refs = []
    t0 = time.perf_counter()
    for lay in layouts:
        bundle, truth = render_bundle(lay)
        result = run_intersection(bundle, bundle.buffers[0], cfg)
        runs.append(SimpleNamespace(layout=lay, bundle=bundle, truth=truth, result=result))
        preds.extend(result.placed)
        refs.extend(truth)
    elapsed = time.perf_counter() - t0
    report = evaluate(preds, refs, radius_m=MATCH_RADIUS_M)
    return SimpleNamespace(
        runs=runs, preds=preds, refs=refs, report=report, elapsed_s=elapsed
    )


# ---------------------------------------------------------------------------
# Criterion 1: completeness and runtime over 100 standard intersections.


def test_criterion_1_completeness_and_runtime(fixture_run):
    overall = fixture_run.report.group("overall")
    ok = (
        overall.completeness is not None
        and overall.completeness >= 0.97
        and fixture_run.elapsed_s < 60.0
    )
    _report(
        1,
        ok,
        f"completeness={overall.completeness:.4f} "
        f"({overall.n_matched}/{overall.n_ref} reference objects matched at "
        f"{MATCH_RADIUS_M:.1f}m) over {len(fixture_run.runs)} intersections, "
        f"runtime={fixture_run.elapsed_s:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: position error.


def test_criterion_2_position_error(fixture_run):
    overall = fixture_run.report.group("overall")
    high = fixture_run.report.group("traffic_light[high]")
    ok = (
        overall.median_m is not None
        and overall.median_m <= 3.0
        and high.median_m is not None
        and high.median_m <= 2.5
    )
    _report(
        2,
        ok,
        f"overall mean={overall.mean_m:.4f}m median={overall.median_m:.4f}m "
        f"rmse={overall.rmse_m:.4f}m (limit median<=3.0m); "
        f"high lights median={high.median_m:.4f}m over {high.n_matched} matches "
        f"(limit 2.5m)",
    )


# ---------------------------------------------------------------------------
# Criterion 3: light height classification on controlled scenes.
#
# Clean scenes give the surround ring a decisive majority (building backdrop
# for low lights, open sky for high ones). The two tie scenes align a wall top
# so the ring splits exactly between sky and building, forcing the downward
# ray rule; without a pedestrian in frame the fallback scale is too coarse for
# the high light, which is the one permitted miss.

_INNER = 9.5
_ANCHOR = _INNER - 2.5 / math.sqrt(2.0)


def _corner_blocks(inner: float, side: float, height: float) -> list[RectFootprint]:
    out = []
    for name, (sx, sy) in (("ne", (1, 1)), ("nw", (-1, 1)), ("sw", (-1, -1)), ("se", (1, -1))):
        xs = sorted((sx * inner, sx * (inner + side)))
        ys = sorted((sy * inner, sy * (inner + side)))
        out.append(RectFootprint(name, xs[0], ys[0], xs[1], ys[1], height))
    return out


def _clean_scene(kind: str, building_h: float, cam_x: float) -> Layout:
    if kind == "low":
        truth = TruthObject("traffic_light", None, "low", LocalPoint(-_ANCHOR, _ANCHOR), 4.0)
    else:
        truth = TruthObject("traffic_light", None, "high", LocalPoint(-_INNER, 0.0), 7.0)
    return Layout(
        f"clean-{kind}",
        GeoPoint(52.5, 13.4),
        _corner_blocks(_INNER, 20.0, building_h),
        [truth],
        [PedestrianSpec(LocalPoint(-13.5, -8.25), 1.75)],
        [CameraPose("c0", "s0", LocalPoint(cam_x, -3.5), 90.0)],
    )


def _tie_scene(kind: str, mount_m: float, cam_dist: float, top_row: int) -> Layout:
    # Wall top row chosen so the surround ring holds exactly as many sky as
    # building pixels; the height realizing it comes from inverting the
    # projection at the wall's plan distance (cam_dist + 1.5).
    wall_h = 1.6 + (384 + 0.5 - top_row) * (cam_dist + 1.5) / 512.0
    truth = TruthObject("traffic_light", None, kind, LocalPoint(0.0, 0.0), mount_m)
    return Layout(
        f"tie-{kind}",
        GeoPoint(52.5, 13.4),
        [RectFootprint("wall", -30.0, 1.5, 30.0, 3.5, wall_h)],
        [truth],
        [PedestrianSpec(LocalPoint(6.0, 0.0), 1.75)],
        [CameraPose("c0", "s0", LocalPoint(0.0, -cam_dist), 0.0)],
    )


def _ring_counts(canvas: np.ndarray, bbox, ring_px: int) -> tuple[int, int]:
    """Sky and building pixel counts in the ring around bbox (recomputed
    from scratch so the tie scenes are verified independently)."""
    big_h, big_w = canvas.shape
    x, y, w, h = bbox
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = int(np.ceil(x + w)), int(np.ceil(y + h))
    ox0, oy0 = max(0, x0 - ring_px), max(0, y0 - ring_px)
    ox1, oy1 = min(big_w, x1 + ring_px), min(big_h, y1 + ring_px)
    sky_id = DEFAULT_REGISTRY.id_of("sky")
    bld_id = DEFAULT_REGISTRY.id_of("building")
    window = canvas[oy0:oy1, ox0:ox1]
    inner = canvas[max(0, y0) : min(big_h, y1), max(0, x0) : min(big_w, x1)]
    sky = int((window == sky_id).sum()) - int((inner == sky_id).sum())
    bld = int((window == bld_id).sum()) - int((inner == bld_id).sum())
    return sky, bld


def _classify_one(layout: Layout) -> tuple[str, object]:
    canvas, dets = render_image(layout, layout.cameras[0])
    objs, tallest = scene_objects(canvas, dets)
    lights = [o for o in objs if o.category == "traffic_light"]
    if len(lights) != 1:
        return "NONE", None
    kind = classify_light(lights[0], canvas, tallest or None, RunConfig())
    return kind, (canvas, lights[0])


def test_criterion_3_light_classification():
    scenes: list[tuple[str, Layout]] = []
    for building_h in (12.0, 15.0, 18.0):
        for cam_x in (-34.0, -30.0, -26.0, -22.0, -19.0):
            scenes.append(("low", _clean_scene("low", building_h, cam_x)))
        for cam_x in (-40.0, -34.0, -28.0, -22.0):
            scenes.append(("high", _clean_scene("high", building_h, cam_x)))
    tie_low = _tie_scene("low", 4.0, 18.0, 316)
    tie_high = _tie_scene("high", 7.0, 19.25, 240)
    scenes.append(("low", tie_low))
    scenes.append(("high", tie_high))

    # The tie scenes must actually tie, or they test nothing.
    for lay in (tie_low, tie_high):
        kind, payload = _classify_one(lay)
        assert payload is not None, f"{lay.intersection_id}: light not extracted"
        canvas, light = payload
        sky, bld = _ring_counts(canvas, light.bbox, RunConfig().ring_px)
        assert sky == bld > 0, f"{lay.intersection_id}: ring not tied ({sky} vs {bld})"

    n_ped = n_ped_ok = n_noped = n_noped_ok = 0
    for want, lay in scenes:
        got_ped, _ = _classify_one(lay)
        n_ped += 1
        n_ped_ok += got_ped == want
        got_noped, _ = _classify_one(replace(lay, pedestrians=[]))
        n_noped += 1
        n_noped_ok += got_noped == want
    acc_ped = n_ped_ok / n_ped
    acc_noped = n_noped_ok / n_noped
    ok = acc_ped == 1.0 and acc_noped >= 0.95
    _report(
        3,
        ok,
        f"with pedestrians {n_ped_ok}/{n_ped} = {acc_ped:.4f} (required 1.0); "
        f"without pedestrians {n_noped_ok}/{n_noped} = {acc_noped:.4f} "
        f"(required >= 0.95) over {len(scenes)} scenes incl. 2 exact-tie scenes",
    )


# ---------------------------------------------------------------------------
# Criterion 4: paired-light inference fires on one-side-occluded scenes and
# never on both-visible ones.


def _pair_scene(cam_x: float, building_h: float, intersection_id: str) -> Layout:
    truths = [
        TruthObject("traffic_light", None, "low", LocalPoint(-_ANCHOR, _ANCHOR), 4.0),
        TruthObject("traffic_light", None, "low", LocalPoint(-_ANCHOR, -_ANCHOR), 4.0),
    ]
    return Layout(
        intersection_id,
        GeoPoint(52.5, 13.4),
        _corner_blocks(_INNER, 20.0, building_h),
        truths,
        [PedestrianSpec(LocalPoint(-13.5, -8.25), 1.75)],
        [CameraPose("p0", "s0", LocalPoint(cam_x, -3.5), 90.0)],
    )


def _grammar_lights(layout: Layout) -> tuple[list, list]:
    canvas, dets = render_image(layout, layout.cameras[0])
    objs, tallest = scene_objects(canvas, dets)
    objs, _ = apply_grammar(objs, canvas, tallest)
    lights = [o for o in objs if o.category == "traffic_light"]
    return [o for o in lights if not o.inferred], [o for o in lights if o.inferred]


def test_criterion_4_pair_inference():
    occluded = [(x, h) for x in (-13.0, -15.0, -17.0) for h in (16.0, 18.0, 20.0)]
    visible = [(-26.0, 18.0), (-30.0, 18.0), (-34.0, 16.0)]

    n_inferred_ok = 0
    for k, (cam_x, building_h) in enumerate(occluded):
        lay = _pair_scene(cam_x, building_h, f"occ{k}")
        real, inferred = _grammar_lights(lay)
        assert len(real) == 1 and real[0].light_kind == "low", (cam_x, building_h)
        assert len(inferred) == 1 and inferred[0].light_kind == "low", (cam_x, building_h)
        # End to end: the inferred twin must land on the hidden pole.
        bundle, truth = render_bundle(lay)
        result = run_intersection(bundle, bundle.buffers[0])
        twins = [p for p in result.placed if p.inferred_only]
        assert len(twins) == 1, (cam_x, building_h)
        rep = evaluate(result.placed, truth, radius_m=MATCH_RADIUS_M)
        overall = rep.group("overall")
        assert overall.n_ref == 2 and overall.completeness == 1.0, (cam_x, building_h)
        hidden = min(haversine_m(twins[0].position, t.position) for t in truth)
        assert hidden <= 1.0, f"inferred twin {hidden:.2f}m off the hidden pole"
        n_inferred_ok += 1

    n_clean = 0
    for k, (cam_x, building_h) in enumerate(visible):
        lay = _pair_scene(cam_x, building_h, f"vis{k}")
        real, inferred = _grammar_lights(lay)
        assert len(real) == 2 and not inferred, (cam_x, building_h)
        bundle, _ = render_bundle(lay)
        result = run_intersection(bundle, bundle.buffers[0])
        assert not [p for p in result.placed if p.inferred_only], (cam_x, building_h)
        n_clean += 1

    _report(
        4,
        n_inferred_ok == len(occluded) and n_clean == len(visible),
        f"{n_inferred_ok}/{len(occluded)} occluded scenes inferred the hidden "
        f"counterpart within 1.0m; {n_clean}/{len(visible)} both-visible scenes "
        f"produced zero inferences",
    )


# ---------------------------------------------------------------------------
# Criterion 5: corner selection and matching agree with brute force.


def _corners_oracle(img: ImageMeta, footprints: list[Footprint], frame, radius_m=26.0):
    """Exhaustive restatement of the corner rule over every ring vertex."""
    cam = project(frame, img.position)
    hx, hy = heading_vector(img.heading_deg)
    best: dict[str, tuple[float, str, LocalPoint]] = {}
    for fp in footprints:
        pts = [project(frame, v) for v in fp.ring[:-1]]
        d_cam = min(math.hypot(p.x - cam.x, p.y - cam.y) for p in pts)
        if d_cam > radius_m:
            continue
        corner = min(
            ((math.hypot(p.x, p.y), i) for i, p in enumerate(pts)), key=lambda t: t
        )
        corner = pts[corner[1]]
        if hx * (corner.x - cam.x) + hy * (corner.y - cam.y) <= 0:
            continue
        twice_area = cx = cy = 0.0
        for i, p in enumerate(pts):
            nxt = pts[(i + 1) % len(pts)]
            w = p.x * nxt.y - nxt.x * p.y
            twice_area += w
            cx += (p.x + nxt.x) * w
            cy += (p.y + nxt.y) * w
        cx /= 3.0 * twice_area
        cy /= 3.0 * twice_area
        cross = hx * (cy - cam.y) - hy * (cx - cam.x)
        side = "left" if cross > 0 else "right"
        if side not in best or (d_cam, fp.id) < (best[side][0], best[side][1]):
            best[side] = (d_cam, fp.id, corner)
    if "left" not in best or "right" not in best:
        return None
    return (best["left"][2], best["right"][2], best["left"][1], best["right"][1])


def _random_footprint(rng: random.Random, frame, fid: str, near: tuple[float, float]) -> Footprint:
    r, ang = rng.uniform(5.0, 34.0), rng.uniform(0.0, 2.0 * math.pi)
    cx, cy = near[0] + r * math.cos(ang), near[1] + r * math.sin(ang)
    w, h = rng.uniform(3.0, 22.0), rng.uniform(3.0, 22.0)
    x0, y0, x1, y1 = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    if rng.random() < 0.25:  # clip one corner to get a pentagon
        cut = min(w, h) * rng.uniform(0.2, 0.45)
        k = rng.randrange(4)
        ax, ay = corners[k]
        px, py = corners[k - 1]
        nx, ny = corners[(k + 1) % 4]
        to_prev = (px - ax, py - ay)
        to_next = (nx - ax, ny - ay)
        sp = cut / math.hypot(*to_prev)
        sn = cut / math.hypot(*to_next)
        corners[k : k + 1] = [
            (ax + to_prev[0] * sp, ay + to_prev[1] * sp),
            (ax + to_next[0] * sn, ay + to_next[1] * sn),
        ]
    ring = [unproject(frame, LocalPoint(x, y)) for x, y in corners]
    ring.append(ring[0])
    return Footprint(fid, tuple(ring))


def test_criterion_5_brute_force_agreement(fixture_run):
    # Part A: select_corners versus an exhaustive vertex scan, 1000 fixtures.
    rng = random.Random(20260818)
    frame = make_frame(GeoPoint(52.40, 13.30))
    n_pairs = n_none = 0
    for trial in range(1000):
        cam_xy = (rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0))
        fps = [
            _random_footprint(rng, frame, f"b{j}", cam_xy)
            for j in range(rng.randint(0, 7))
        ]
        img = ImageMeta(
            image_id=f"q{trial}",
            position=unproject(frame, LocalPoint(*cam_xy)),
            heading_deg=rng.uniform(0.0, 360.0),
            sequence_id="s0",
            captured_at=None,
            width_px=1024,
            height_px=768,
        )
        got = select_corners(img, fps, frame)
        want = _corners_oracle(img, fps, frame)
        if want is None:
            assert got is None, f"trial {trial}: expected no corner pair"
            n_none += 1
        else:
            assert got is not None, f"trial {trial}: expected a corner pair"
            assert (got.A1, got.A2, got.left_fp, got.right_fp) == want, f"trial {trial}"
            n_pairs += 1

    # Part B: greedy matching versus optimal assignment on every intersection
    # and category with at most four objects per side.
    def compatible(p, r):
        return p.category == r.category and (
            p.subtype is None or r.subtype is None or p.subtype == r.subtype
        )

    def optimal(preds, refs):
        cand = [
            [
                (j, haversine_m(p.position, r.position))
                for j, r in enumerate(refs)
                if compatible(p, r)
                and haversine_m(p.position, r.position) <= MATCH_RADIUS_M
            ]
            for p in preds
        ]
        best = (0, 0.0)

        def rec(i, used, count, total):
            nonlocal best
            if i == len(cand):
                if (count, -total) > (best[0], -best[1]):
                    best = (count, total)
                return
            rec(i + 1, used, count, total)
            for j, d in cand[i]:
                if j not in used:
                    rec(i + 1, used | {j}, count + 1, total + d)

        rec(0, frozenset(), 0, 0.0)
        return best

    n_instances = n_matched_total = 0
    for run in fixture_run.runs:
        instances = []
        cats = {r.category for r in run.truth} | {p.category for p in run.result.placed}
        for cat in sorted(cats):
            preds = [p for p in run.result.placed if p.category == cat]
            refs = [r for r in run.truth if r.category == cat]
            if refs and len(preds) <= 4 and len(refs) <= 4:
                instances.append((cat, preds, refs))
            elif cat == "traffic_light":
                # Oversized light groups still yield bounded instances per kind.
                for kind in ("low", "high"):
                    kp = [p for p in preds if p.light_kind == kind]
                    kr = [r for r in refs if r.light_kind == kind]
                    if kr and len(kp) <= 4 and len(kr) <= 4:
                        instances.append((f"{cat}[{kind}]", kp, kr))
        for name, preds, refs in instances:
            pairs = match(preds, refs, radius_m=MATCH_RADIUS_M)
            greedy = (len(pairs), sum(p.distance_m for p in pairs))
            opt = optimal(preds, refs)
            assert greedy[0] == opt[0], f"{run.layout.intersection_id}/{name}: count"
            assert abs(greedy[1] - opt[1]) <= 1e-6, f"{run.layout.intersection_id}/{name}: distance"
            n_instances += 1
            n_matched_total += greedy[0]

    ok = n_pairs >= 200 and n_none >= 100 and n_instances >= 100 and n_matched_total > 0
    _report(
        5,
        ok,
        f"corner selection == vertex brute force on 1000 fixtures "
        f"({n_pairs} pairs, {n_none} empty); greedy matching == optimal "
        f"assignment on {n_instances} instances ({n_matched_total} matches)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: structural invariants.


def _check_heap(tree: Atbt) -> int:
    idxs = [n.heap_index for n in tree.nodes]
    assert idxs == sorted(idxs), tree.image_id
    assert len(set(idxs)) == len(idxs), tree.image_id
    by = {n.heap_index: n for n in tree.nodes}
    assert 1 in by and by[1].role == "root" and by[1].object is None
    for n in tree.nodes:
        if n.heap_index == 1:
            continue
        parent = by.get(n.heap_index // 2)
        assert parent is not None, f"{tree.image_id}: node {n.heap_index} orphaned"
        if n.heap_index in (2, 3):
            assert n.role == "side_root"
        else:
            assert parent.side == n.side
            if n.depth_in_stack > 0:
                assert n.heap_index == parent.heap_index * 2
                assert parent.stack_ordinal == n.stack_ordinal
                assert parent.depth_in_stack == n.depth_in_stack - 1
            else:
                assert n.heap_index % 2 == 1  # next stack head: right child
    # Every (side, ordinal) stack obeys head * 2**depth, heads chain by 2h+1.
    for side in ("left", "right"):
        heads = {}
        for n in tree.nodes:
            if n.side == side:
                heads.setdefault(n.stack_ordinal, []).append(n)
        prev_head = None
        for ordinal in sorted(heads):
            members = sorted(heads[ordinal], key=lambda n: n.depth_in_stack)
            head = members[0].heap_index
            for depth, n in enumerate(members):
                assert n.depth_in_stack == depth
                assert n.heap_index == head * 2**depth
            if prev_head is None:
                assert head == {"left": 2, "right": 3}[side]
            else:
                assert head == 2 * prev_head + 1
            prev_head = head
    return len(tree.nodes)


def _scene_inputs(run, index: int = 0):
    img = run.bundle.images[index]
    label_map = run.bundle.label_maps[img.image_id]
    dets = run.bundle.detections.get(img.image_id, [])
    return img, label_map, dets


def test_criterion_6_structural_invariants(fixture_run):
    n_trees = n_nodes = 0
    for run in fixture_run.runs:
        for trees in run.result.trees.values():
            for tree in trees:
                n_nodes += _check_heap(tree)
                n_trees += 1
    assert n_trees >= 300

    # Tree assembly must not depend on input order: 500 shuffles.
    rng = random.Random(6)
    n_shuffles = 0
    for run in fixture_run.runs[:5]:
        img, label_map, dets = _scene_inputs(run)
        objs, tallest = scene_objects(label_map, dets)
        objs, groups = apply_grammar(objs, label_map, tallest)
        base = tree_to_json(build_atbt(objs, groups, img.image_id, img.width_px))
        for _ in range(100):
            o2, g2 = list(objs), list(groups)
            rng.shuffle(o2)
            rng.shuffle(g2)
            shuffled = tree_to_json(build_atbt(o2, g2, img.image_id, img.width_px))
            assert shuffled == base, img.image_id
            n_shuffles += 1

    # Track correction is idempotent.
    n_tracks = 0
    for run in fixture_run.runs[:20]:
        for track in build_tracks(run.bundle.images, run.bundle.buffers[0]):
            once = correct_track(track)
            twice = correct_track(once)
            assert [i.image_id for i in twice.images] == [i.image_id for i in once.images]
            assert twice.corrected == once.corrected
            for a, b in zip(once.images, twice.images):
                assert haversine_m(a.position, b.position) <= 1e-6
            n_tracks += 1
    assert n_tracks >= 20

    # Sidewalk merging is idempotent and order-independent.
    def merge_key(objs):
        return [(o.id, o.category, o.bbox, o.area_px, o.centroid) for o in objs]

    n_merge = 0
    for run in fixture_run.runs[:5]:
        img, label_map, dets = _scene_inputs(run)
        objs, _ = scene_objects(label_map, dets)
        merged = merge_sidewalks(objs, img.width_px)
        assert merge_key(merge_sidewalks(merged, img.width_px)) == merge_key(merged)
        for _ in range(10):
            o2 = list(objs)
            rng.shuffle(o2)
            assert merge_key(merge_sidewalks(o2, img.width_px)) == merge_key(merged)
            n_merge += 1

    _report(
        6,
        True,
        f"heap arithmetic on {n_trees} trees ({n_nodes} nodes); tree assembly "
        f"invariant under {n_shuffles} input shuffles; track correction "
        f"idempotent on {n_tracks} tracks; sidewalk merge idempotent and "
        f"order-independent ({n_merge} shuffles)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: byte-identical output on repeated runs.


def _place_args(bundle_dir, out_path, jobs: int | None = None) -> list[str]:
    args = [
        "place",
        "--images", str(bundle_dir / "images.json"),
        "--masks", str(bundle_dir / "masks"),
        "--detections", str(bundle_dir / "detections.jsonl"),
        "--footprints", str(bundle_dir / "footprints.geojson"),
        "--buffers", str(bundle_dir / "buffers.json"),
        "--out", str(out_path),
    ]
    if jobs is not None:
        args += ["--jobs", str(jobs)]
    return args


def test_criterion_7_determinism(tmp_path):
    bundles = []
    for tag in ("a", "b"):
        bdir = tmp_path / f"bundle_{tag}"
        assert cli_main(["synth", "--fixtures", "2", "--seed", "7", "--out", str(bdir)]) == 0
        bundles.append(bdir)
    synth_files = ["images.json", "detections.jsonl", "footprints.geojson",
                   "buffers.json", "truth.geojson", "layouts.json"]
    for name in synth_files:
        assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes(), name
    masks = sorted(p.name for p in (bundles[0] / "masks").glob("*.pgm"))
    assert masks == sorted(p.name for p in (bundles[1] / "masks").glob("*.pgm"))
    for name in masks:
        assert (bundles[0] / "masks" / name).read_bytes() == (
            bundles[1] / "masks" / name
        ).read_bytes(), name

    outs = [tmp_path / f"out_{k}.geojson" for k in range(3)]
    assert cli_main(_place_args(bundles[0], outs[0])) == 0
    assert cli_main(_place_args(bundles[1], outs[1])) == 0
    assert cli_main(_place_args(bundles[0], outs[2], jobs=2)) == 0
    blobs = [p.read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    n_features = len(json.loads(blobs[0])["features"])
    assert n_features > 0

    _report(
        7,
        True,
        f"two full synth+place reruns and a --jobs 2 variant produced "
        f"byte-identical GeoJSON ({len(blobs[0])} bytes, {n_features} features) "
        f"and byte-identical synthetic bundles",
    )
