"""Tree construction, heap arithmetic, and track fusion."""

from __future__ import annotations

import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from rop.atbt import Atbt, build_atbt, fuse_track, tree_to_json
from rop.grammar import stack_objects
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


def tree_of(image_id, objs=()):
    """The tree of one image's objects, stacked by the grammar."""
    return build_atbt(stack_objects(list(objs), W_IMG), image_id)


# ---------------------------------------------------------------------------
# build_atbt.


def test_worked_example_indices():
    # Left: one low light. Right: sign above light, plus a sidewalk.
    left_light = obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")
    sign = obj("s0", "traffic_sign", (100.0, 800.0), subtype="stop")
    right_light = obj("l1", "traffic_light", (300.0, 805.0), light_kind="low")
    walk = obj("w0", "sidewalk", (600.0, 700.0))
    tree = tree_of("img", [left_light, sign, right_light, walk])
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
    tree = tree_of("img")
    assert len(tree.nodes) == 1
    assert tree.nodes[0].role == "root"
    assert tree.nodes[0].heap_index == 1


def test_stack_chain_indices():
    # Three singleton lights on the left: heads 2, 5, 11.
    lights = [
        obj("a", "traffic_light", (300.0, 100.0), light_kind="high"),
        obj("b", "traffic_light", (300.0, 200.0), light_kind="high"),
        obj("c", "traffic_light", (300.0, 300.0), light_kind="high"),
    ]
    tree = tree_of("img", lights)
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
    tree = tree_of("img", [bot, top, mid])
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["s0"].heap_index == 3
    assert by_id["l0"].heap_index == 6
    assert by_id["s1"].heap_index == 12
    assert [by_id[k].depth_in_stack for k in ("s0", "l0", "s1")] == [0, 1, 2]
    assert [by_id[k].role for k in ("s0", "l0", "s1")] == ["side_root", "stack_child", "stack_child"]
    assert_heap_consistent(tree)


def test_sidewalk_is_always_last_stack():
    # Sidewalk sits left of the light in image space, but is still the final stack.
    walk = obj("w0", "sidewalk", (600.0, 50.0))
    light = obj("l0", "traffic_light", (300.0, 400.0), light_kind="low")
    tree = tree_of("img", [walk, light])
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["l0"].heap_index == 2
    assert by_id["l0"].role == "side_root"
    assert by_id["w0"].heap_index == 5
    assert by_id["w0"].role == "sidewalk"
    assert by_id["w0"].stack_ordinal == 1


def test_sidewalk_alone_becomes_side_root():
    walk = obj("w0", "sidewalk", (600.0, 50.0))
    tree = tree_of("img", [walk])
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["w0"].heap_index == 2
    assert by_id["w0"].role == "side_root"


def test_lone_sign_is_its_own_stack():
    sign = obj("s0", "traffic_sign", (100.0, 200.0))
    light = obj("l0", "traffic_light", (300.0, 400.0), light_kind="low")
    tree = tree_of("img", [light, sign])
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert (by_id["s0"].heap_index, by_id["s0"].role) == (2, "side_root")
    assert (by_id["l0"].heap_index, by_id["l0"].role) == (5, "stack_head")


def test_side_split_left_right():
    ll = obj("a", "traffic_light", (300.0, 100.0), light_kind="high")
    rl = obj("b", "traffic_light", (300.0, 900.0), light_kind="high")
    tree = tree_of("img", [ll, rl])
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["a"].heap_index == 2 and by_id["a"].side == "left"
    assert by_id["b"].heap_index == 3 and by_id["b"].side == "right"


def test_stacks_order_by_min_member_column():
    # Stack spanning cols 210..190 (min 190) vs singleton light at 200.
    s0 = obj("s0", "traffic_sign", (100.0, 190.0))
    l0 = obj("l0", "traffic_light", (300.0, 210.0), light_kind="low")
    single = obj("l1", "traffic_light", (300.0, 200.0), light_kind="high")
    tree = tree_of("img", [s0, l0, single])
    by_id = {n.object.id: n for n in tree.nodes if n.object}
    assert by_id["s0"].stack_ordinal == 0
    assert by_id["l1"].stack_ordinal == 1
    assert by_id["s0"].heap_index == 2
    assert by_id["l1"].heap_index == 5


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["high", "low", "sign", "walk"]),
            st.floats(min_value=0.0, max_value=999.0),
            st.floats(min_value=0.0, max_value=700.0),
        ),
        min_size=0,
        max_size=10,
    ),
    st.randoms(use_true_random=False),
)
def test_build_is_permutation_invariant(entries, rnd):
    objs = []
    for i, (kind, col, row) in enumerate(entries):
        if kind in ("high", "low"):
            objs.append(obj(f"l{i}", "traffic_light", (row, col), light_kind=kind))
        elif kind == "sign":
            objs.append(obj(f"s{i}", "traffic_sign", (row, col)))
        else:
            objs.append(obj(f"w{i}", "sidewalk", (row, col)))
    base = tree_of("img", objs)
    assert_heap_consistent(base)
    placed = Counter(n.object.id for n in base.nodes if n.object is not None)
    assert placed == Counter(o.id for o in objs)
    shuffled = list(objs)
    rnd.shuffle(shuffled)
    again = tree_of("img", shuffled)
    assert tree_to_json(base) == tree_to_json(again)


def test_tree_json_round_trips():
    light = obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")
    tree = tree_of("img7", [light])
    doc = json.loads(json.dumps(tree_to_json(tree)))
    assert doc["image_id"] == "img7"
    ids = {n.get("object_id") for n in doc["nodes"]}
    assert ids == {None, "l0"}


# ---------------------------------------------------------------------------
# fuse_track. Oracle: direct recount of votes per structural key. Trees come
# nearest image first, as run_intersection passes them (Track.near_first).


def vote_oracle(values):
    counts = Counter(values)
    top = max(counts.values())
    return {v for v, c in counts.items() if c == top}


def test_fuse_empty():
    assert fuse_track([]) == []


def test_fuse_single_tree_pass_through():
    # Sidewalks stay in the tree but are evidence, not assets: only the light
    # is fused.
    light = obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")
    walk = obj("w0", "sidewalk", (600.0, 100.0))
    trees = [tree_of("i0", [light, walk])]
    assert any(n.role == "sidewalk" for n in trees[0].nodes)
    (fused,) = fuse_track(trees)
    assert fused.category == "traffic_light"
    assert fused.support == 1
    assert fused.source_images == ["i0"]
    walks = [tree_of("i0", [walk]), tree_of("i1", [walk])]
    assert fuse_track(walks) == []


def test_fuse_support_counts_occlusion():
    def light_tree(iid):
        return tree_of(iid, [obj("l0", "traffic_light", (300.0, 200.0), light_kind="low")])

    trees = [light_tree("i0"), light_tree("i1"), tree_of("i2"), light_tree("i3")]
    fused = fuse_track(trees)
    assert len(fused) == 1
    assert fused[0].support == 3
    assert fused[0].source_images == ["i0", "i1", "i3"]


def sign_alone_tree(iid, subtype):
    return tree_of(iid, [obj("s0", "traffic_sign", (100.0, 200.0), subtype=subtype)])


def test_fuse_majority_subtype_matches_oracle():
    sign_tree = sign_alone_tree

    trees = [sign_tree("i0", "yield"), sign_tree("i1", "stop"), sign_tree("i2", "stop")]
    fused = fuse_track(trees)
    assert len(fused) == 1
    winners = vote_oracle(["yield", "stop", "stop"])
    assert winners == {"stop"}
    assert fused[0].subtype == "stop"


def test_fuse_tie_goes_to_nearest_rank():
    # A 1-1 tie goes to the nearest image: the first tree, whichever it is.
    i0, i1 = sign_alone_tree("i0", "yield"), sign_alone_tree("i1", "stop")
    assert vote_oracle(["yield", "stop"]) == {"yield", "stop"}
    assert fuse_track([i1, i0])[0].subtype == "stop"
    assert fuse_track([i0, i1])[0].subtype == "yield"


def test_fuse_equal_ranks_go_to_lowest_image_id():
    def kind_tree(iid, kind):
        return tree_of(iid, [obj("l0", "traffic_light", (300.0, 200.0), light_kind=kind)])

    # Images at one distance reach fusion in image id order (build_tracks
    # makes Track.near_first so), and the 1-1 tie on light kind goes to the
    # first of them, the lower id. Fusion reads only the order: given the
    # other way round, the tie goes to i1.
    high, low = kind_tree("i0", "high"), kind_tree("i1", "low")
    assert vote_oracle(["high", "low"]) == {"high", "low"}
    assert fuse_track([high, low])[0].light_kind == "high"
    assert fuse_track([low, high])[0].light_kind == "low"


def test_fuse_inferred_only_flag():
    real = obj("l0", "traffic_light", (300.0, 790.0), light_kind="low")
    ghost = obj("inferred:l0", "traffic_light", (300.0, 790.0), light_kind="low", inferred=True)
    ghost.bbox = None
    t_real = tree_of("i0", [real])
    t_ghost = tree_of("i1", [ghost])
    fused = fuse_track([t_ghost, t_ghost])
    assert len(fused) == 1 and fused[0].inferred_only
    fused = fuse_track([t_ghost, t_real])
    assert len(fused) == 1 and not fused[0].inferred_only


def test_fuse_keys_keep_distinct_objects_apart():
    a = obj("a", "traffic_light", (300.0, 100.0), light_kind="high")
    b = obj("b", "traffic_light", (300.0, 300.0), light_kind="high")
    trees = [tree_of("i0", [a, b]), tree_of("i1", [a, b])]
    fused = fuse_track(trees)
    assert len(fused) == 2
    assert all(f.support == 2 for f in fused)
    ordinals = sorted(f.stack_ordinal for f in fused)
    assert ordinals == [0, 1]


def test_fuse_output_sorted_by_key():
    a = obj("a", "traffic_light", (300.0, 900.0), light_kind="high")
    b = obj("b", "traffic_light", (300.0, 100.0), light_kind="high")
    w = obj("w", "sidewalk", (600.0, 120.0))
    trees = [tree_of("i0", [a, b, w])]
    fused = fuse_track(trees)
    keys = [(f.side, f.category, f.stack_ordinal, f.depth_in_stack, f.subtype or "") for f in fused]
    assert keys == sorted(keys)
