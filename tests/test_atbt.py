"""Tree construction, heap arithmetic, and track fusion."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.atbt import Atbt, build_atbt, fuse_track, tree_to_json
from rop.grammar import PatternGroup
from rop.scene import SceneObject

W_IMG = 1000


def obj(oid, category, centroid, light_kind=None, subtype=None, inferred=False):
    r, c = centroid
    return SceneObject(
        id=oid,
        category=category,
        centroid=centroid,
        area_px=80.0,
        bbox=None if inferred else (c - 4.0, r - 4.0, 8.0, 8.0),
        subtype=subtype,
        light_kind=light_kind,
        inferred=inferred,
    )


def assert_heap_consistent(tree: Atbt):
    indices = [n.heap_index for n in tree.nodes]
    assert len(set(indices)) == len(indices)
    assert 1 in indices
    present = set(indices)
    for i in indices:
        if i > 1:
            assert i // 2 in present, f"node {i} has no parent {i // 2}"


# ---------------------------------------------------------------------------
# build_atbt.


def test_worked_example_indices():
    # Left: one low light. Right: sign above light, plus a sidewalk.
    left_light = obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")
    sign = obj("s0", "traffic_sign", (100.0, 800.0), subtype="stop")
    right_light = obj("l1", "traffic_light", (300.0, 805.0), light_kind="low")
    walk = obj("w0", "sidewalk", (600.0, 700.0))
    groups = [PatternGroup(members=["s0", "l1"], kind="sign_above_light", side="right")]
    tree = build_atbt([left_light, sign, right_light, walk], groups, "img", W_IMG)
    by_index = {n.heap_index: n for n in tree.nodes}
    assert set(by_index) == {1, 2, 3, 6, 7}
    assert by_index[1].role == "root" and by_index[1].object is None
    assert by_index[2].object.id == "l0"
    assert by_index[2].role == "side_root"
    assert by_index[2].side == "left"
    assert by_index[3].object.id == "s0"
    assert by_index[3].role == "side_root"
    assert by_index[6].object.id == "l1"
    assert by_index[6].role == "stack_child"
    assert (by_index[6].stack_ordinal, by_index[6].depth_in_stack) == (0, 1)
    assert by_index[7].object.id == "w0"
    assert by_index[7].role == "sidewalk"
    assert (by_index[7].stack_ordinal, by_index[7].depth_in_stack) == (1, 0)
    assert_heap_consistent(tree)


def test_empty_scene_gives_root_only():
    tree = build_atbt([], [], "img", W_IMG)
    assert len(tree.nodes) == 1
    assert tree.root.role == "root"
    assert tree.root.heap_index == 1


def test_stack_chain_indices():
    # Three singleton lights on the left: heads 2, 5, 11.
    lights = [
        obj("a", "traffic_light", (300.0, 100.0), light_kind="high"),
        obj("b", "traffic_light", (300.0, 200.0), light_kind="high"),
        obj("c", "traffic_light", (300.0, 300.0), light_kind="high"),
    ]
    tree = build_atbt(lights, [], "img", W_IMG)
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["a"].heap_index == 2
    assert by_id["b"].heap_index == 5
    assert by_id["c"].heap_index == 11
    assert [by_id[k].stack_ordinal for k in "abc"] == [0, 1, 2]
    assert_heap_consistent(tree)


def test_within_stack_left_child_chain():
    top = obj("s0", "traffic_sign", (100.0, 800.0))
    mid = obj("l0", "traffic_light", (200.0, 805.0), light_kind="low")
    bot = obj("s1", "traffic_sign", (300.0, 810.0))
    groups = [
        PatternGroup(members=["s0", "l0", "s1"], kind="signs_above_and_below_light", side="right")
    ]
    tree = build_atbt([top, mid, bot], groups, "img", W_IMG)
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["s0"].heap_index == 3
    assert by_id["l0"].heap_index == 6
    assert by_id["s1"].heap_index == 12
    assert [by_id[k].depth_in_stack for k in ("s0", "l0", "s1")] == [0, 1, 2]
    assert_heap_consistent(tree)


def test_sidewalk_is_always_last_stack():
    # Sidewalk sits left of the light in image space, but is still the final stack.
    walk = obj("w0", "sidewalk", (600.0, 50.0))
    light = obj("l0", "traffic_light", (300.0, 400.0), light_kind="low")
    tree = build_atbt([walk, light], [], "img", W_IMG)
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["l0"].heap_index == 2
    assert by_id["l0"].role == "side_root"
    assert by_id["w0"].heap_index == 5
    assert by_id["w0"].role == "sidewalk"
    assert by_id["w0"].stack_ordinal == 1


def test_sidewalk_alone_becomes_side_root():
    walk = obj("w0", "sidewalk", (600.0, 50.0))
    tree = build_atbt([walk], [], "img", W_IMG)
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["w0"].heap_index == 2
    assert by_id["w0"].role == "side_root"


def test_ungrouped_sign_is_rejected():
    sign = obj("s0", "traffic_sign", (100.0, 200.0))
    with pytest.raises(ValueError, match="s0"):
        build_atbt([sign], [], "img", W_IMG)


def test_side_split_left_right():
    ll = obj("a", "traffic_light", (300.0, 100.0), light_kind="high")
    rl = obj("b", "traffic_light", (300.0, 900.0), light_kind="high")
    tree = build_atbt([ll, rl], [], "img", W_IMG)
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["a"].heap_index == 2 and by_id["a"].side == "left"
    assert by_id["b"].heap_index == 3 and by_id["b"].side == "right"


def test_stacks_order_by_min_member_column():
    # Group spanning cols 210..190 (min 190) vs singleton light at 200.
    s0 = obj("s0", "traffic_sign", (100.0, 190.0))
    l0 = obj("l0", "traffic_light", (300.0, 210.0), light_kind="low")
    single = obj("l1", "traffic_light", (300.0, 200.0), light_kind="high")
    groups = [PatternGroup(members=["s0", "l0"], kind="sign_above_light", side="left")]
    tree = build_atbt([s0, l0, single], groups, "img", W_IMG)
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["s0"].stack_ordinal == 0
    assert by_id["l1"].stack_ordinal == 1
    assert by_id["s0"].heap_index == 2
    assert by_id["l1"].heap_index == 5


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["light", "walk"]),
            st.floats(min_value=0.0, max_value=999.0),
            st.floats(min_value=0.0, max_value=700.0),
        ),
        min_size=0,
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_build_is_permutation_invariant(entries, rnd):
    objs = []
    for i, (kind, col, row) in enumerate(entries):
        if kind == "light":
            objs.append(obj(f"l{i}", "traffic_light", (row, col), light_kind="high"))
        else:
            objs.append(obj(f"w{i}", "sidewalk", (row, col)))
    base = build_atbt(objs, [], "img", W_IMG)
    assert_heap_consistent(base)
    shuffled = list(objs)
    rnd.shuffle(shuffled)
    again = build_atbt(shuffled, [], "img", W_IMG)
    assert tree_to_json(base) == tree_to_json(again)


def test_tree_json_round_trips():
    light = obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")
    tree = build_atbt([light], [], "img7", W_IMG)
    doc = json.loads(json.dumps(tree_to_json(tree)))
    assert doc["image_id"] == "img7"
    ids = {n.get("object_id") for n in doc["nodes"]}
    assert ids == {None, "l0"}


# ---------------------------------------------------------------------------
# fuse_track. Oracle: direct recount of votes per structural key.


def tree_of(image_id, *objects_groups):
    objs, groups = objects_groups if objects_groups else ([], [])
    return build_atbt(objs, groups, image_id, W_IMG)


def vote_oracle(values):
    counts = Counter(values)
    top = max(counts.values())
    return {v for v, c in counts.items() if c == top}


def test_fuse_empty():
    assert fuse_track([]) == []


def test_fuse_single_tree_pass_through():
    light = obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")
    walk = obj("w0", "sidewalk", (600.0, 100.0))
    fused = fuse_track([tree_of("i0", [light, walk], [])])
    assert len(fused) == 2
    for f in fused:
        assert f.support == 1
        assert f.source_images == ["i0"]
    cats = {f.key.category for f in fused}
    assert cats == {"traffic_light", "sidewalk"}


def test_fuse_support_counts_occlusion():
    def light_tree(iid):
        return tree_of(iid, [obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")], [])

    trees = [light_tree("i0"), light_tree("i1"), tree_of("i2", [], []), light_tree("i3")]
    fused = fuse_track(trees)
    assert len(fused) == 1
    assert fused[0].support == 3
    assert fused[0].source_images == ["i0", "i1", "i3"]


def sign_alone_tree(iid, subtype):
    sign = obj("s0", "traffic_sign", (100.0, 200.0), subtype=subtype)
    group = PatternGroup(members=["s0"], kind="sign_alone", side="left")
    return tree_of(iid, [sign], [group])


def test_fuse_majority_subtype_matches_oracle():
    sign_tree = sign_alone_tree

    trees = [sign_tree("i0", "yield"), sign_tree("i1", "stop"), sign_tree("i2", "stop")]
    fused = fuse_track(trees)
    assert len(fused) == 1
    winners = vote_oracle(["yield", "stop", "stop"])
    assert winners == {"stop"}
    assert fused[0].subtype == "stop"
    assert fused[0].key.subtype == "stop"


def test_fuse_tie_goes_to_nearest_rank():
    trees = [sign_alone_tree("i0", "yield"), sign_alone_tree("i1", "stop")]
    fused = fuse_track(trees, image_rank={"i0": 5.0, "i1": 2.0})
    assert fused[0].subtype == "stop"
    fused = fuse_track(trees, image_rank={"i0": 1.0, "i1": 2.0})
    assert fused[0].subtype == "yield"


def test_fuse_default_rank_prefers_later_images():
    def kind_tree(iid, kind):
        return tree_of(iid, [obj("l0", "traffic_light", (300.0, 200.0), light_kind=kind)], [])

    # 1-1 tie on light kind: the later (nearer) image wins.
    fused = fuse_track([kind_tree("i0", "high"), kind_tree("i1", "low")])
    assert fused[0].light_kind == "low"


def test_fuse_inferred_only_flag():
    real = obj("l0", "traffic_light", (300.0, 790.0), light_kind="low")
    ghost = obj("inferred:l0", "traffic_light", (300.0, 790.0), light_kind="low", inferred=True)
    ghost.bbox = None
    t_real = tree_of("i0", [real], [])
    t_ghost = tree_of("i1", [ghost], [])
    fused = fuse_track([t_ghost, t_ghost])
    assert len(fused) == 1 and fused[0].inferred_only
    fused = fuse_track([t_ghost, t_real])
    assert len(fused) == 1 and not fused[0].inferred_only


def test_fuse_keys_keep_distinct_objects_apart():
    a = obj("a", "traffic_light", (300.0, 100.0), light_kind="high")
    b = obj("b", "traffic_light", (300.0, 300.0), light_kind="high")
    fused = fuse_track([tree_of("i0", [a, b], []), tree_of("i1", [a, b], [])])
    assert len(fused) == 2
    assert all(f.support == 2 for f in fused)
    ordinals = sorted(f.key.stack_ordinal for f in fused)
    assert ordinals == [0, 1]


def test_fuse_output_sorted_by_key():
    a = obj("a", "traffic_light", (300.0, 900.0), light_kind="high")
    b = obj("b", "traffic_light", (300.0, 100.0), light_kind="high")
    w = obj("w", "sidewalk", (600.0, 120.0))
    fused = fuse_track([tree_of("i0", [a, b, w], [])])
    keys = [f.key.sort_key() for f in fused]
    assert keys == sorted(keys)
