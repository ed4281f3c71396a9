"""Attributed topological binary tree per image, and cross-image fusion.

Objects on each road side stack vertically; stacks order left to right. The
tree encodes that layout in heap numbering: a stack head's right child is the
next stack's head, a member's left child is the member below it. Structural
coordinates (side, stack ordinal, depth) then let one physical object be
matched across every image of a track without any pixel-space reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .scene import SceneObject


@dataclass(slots=True)
class AtbtNode:
    heap_index: int
    object: SceneObject | None
    side: str | None
    role: str  # root | side_root | sidewalk | stack_head | stack_child
    stack_ordinal: int = 0
    depth_in_stack: int = 0


@dataclass
class Atbt:
    image_id: str
    nodes: list[AtbtNode]  # sorted by heap_index


@dataclass(slots=True)
class FusedObject:
    side: str
    category: str
    stack_ordinal: int
    depth_in_stack: int
    subtype: str | None
    support: int
    light_kind: str | None
    inferred_only: bool
    source_images: list[str]


def build_atbt(stacks: dict[str, list[list[SceneObject]]], image_id: str) -> Atbt:
    """Number one image's stacks (grammar.stack_objects) into its tree.

    Per side, the first stack head is the side root (heap index 2 left, 3
    right); within a stack member j sits at head_index * 2**j; the next
    stack's head is the current head's right child.
    """
    nodes = [AtbtNode(1, None, None, "root")]
    for side, head in (("left", 2), ("right", 3)):
        for ordinal, members in enumerate(stacks[side]):
            for depth, obj in enumerate(members):
                if ordinal == 0 and depth == 0:
                    role = "side_root"
                elif obj.category == "sidewalk":
                    role = "sidewalk"
                else:
                    role = "stack_head" if depth == 0 else "stack_child"
                # Fields in order: heap_index (head * 2**depth), object, side, role, stack_ordinal, depth_in_stack.
                nodes.append(AtbtNode(head << depth, obj, side, role, ordinal, depth))
            head = 2 * head + 1
    nodes.sort(key=attrgetter("heap_index"))
    return Atbt(image_id=image_id, nodes=nodes)


def tree_to_json(tree: Atbt) -> dict:
    out = {"image_id": tree.image_id, "nodes": []}
    for n in tree.nodes:
        rec = {
            "heap_index": n.heap_index,
            "side": n.side,
            "role": n.role,
            "stack_ordinal": n.stack_ordinal,
            "depth_in_stack": n.depth_in_stack,
        }
        if n.object is not None:
            rec.update(
                object_id=n.object.id,
                category=n.object.category,
                subtype=n.object.subtype,
                centroid_px=list(n.object.centroid),
                area_px=n.object.area_px,
                light_kind=n.object.light_kind,
                inferred=n.object.inferred,
            )
        out["nodes"].append(rec)
    return out


# ---------------------------------------------------------------------------
# Track fusion.


def _vote(values: list):
    """The most frequent of values, a tie going to the first seen: max keeps
    the first of equal counts, and a dict keeps first-seen order."""
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return max(counts, key=counts.__getitem__)


def fuse_track(trees: list[Atbt]) -> list[FusedObject]:
    """Merge a track's per-image trees, nearest image first, into the set of
    objects to place.

    Nodes sharing (side, category, stack ordinal, stack depth) across images
    are one physical object; subtype and light kind resolve by majority vote,
    a tie going to the earliest tree (see _vote): the nearest image, then the
    lowest image id, as Track.near_first orders them.
    Sidewalks are evidence for the grammar, not assets, and are not fused.
    """
    observations: dict[tuple, list[tuple[str, SceneObject]]] = {}
    for tree in trees:
        for node in tree.nodes:
            if node.object is None or node.object.category == "sidewalk":
                continue
            key = (node.side, node.object.category, node.stack_ordinal, node.depth_in_stack)
            observations.setdefault(key, []).append((tree.image_id, node.object))

    fused = [
        FusedObject(
            *key,
            subtype=_vote([o.subtype for _, o in obs]),
            support=len(obs),
            light_kind=_vote([o.light_kind for _, o in obs]),
            inferred_only=all(o.inferred for _, o in obs),
            source_images=sorted({iid for iid, _ in obs}),
        )
        for key, obs in observations.items()
    ]
    fused.sort(key=lambda f: (f.side, f.category, f.stack_ordinal, f.depth_in_stack, f.subtype or ""))
    return fused
