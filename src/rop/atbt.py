"""Attributed topological binary tree per image, and cross-image fusion.

Objects on each road side stack vertically; stacks order left to right. The
tree encodes that layout in heap numbering: a stack head's right child is the
next stack's head, a member's left child is the member below it. Structural
coordinates (side, stack ordinal, depth) then let one physical object be
matched across every image of a track without any pixel-space reasoning.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .grammar import PatternGroup, side_of
from .scene import SceneObject


@dataclass
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
    nodes: list[AtbtNode] = field(default_factory=list)  # sorted by heap_index

    @property
    def root(self) -> AtbtNode:
        return self.nodes[0]


@dataclass(frozen=True)
class FusedKey:
    side: str
    category: str
    stack_ordinal: int
    depth_in_stack: int
    subtype: str | None

    def sort_key(self):
        return (self.side, self.category, self.stack_ordinal, self.depth_in_stack, self.subtype or "")


@dataclass
class FusedObject:
    key: FusedKey
    support: int
    light_kind: str | None
    subtype: str | None
    inferred_only: bool
    source_images: list[str]


def _stack_sort_key(members: list[SceneObject]) -> tuple:
    return (
        min(o.centroid[1] for o in members),
        min(o.centroid[0] for o in members),
        min(o.id for o in members),
    )


def build_atbt(
    objs: list[SceneObject],
    groups: list[PatternGroup],
    image_id: str,
    width_px: int,
) -> Atbt:
    """Assemble one image's tree from grammar output.

    Per side: pattern groups and ungrouped lights become stacks ordered by
    leftmost member column; sidewalks append after them as final stacks. The
    side's first stack head is the side root (heap index 2 left, 3 right);
    within a stack member j sits at head_index * 2**j; the next stack's head
    is the current head's right child. Input order never matters.
    """
    by_id = {o.id: o for o in objs}
    grouped_ids = {m for g in groups for m in g.members}
    stray = [o.id for o in objs if o.category == "traffic_sign" and o.id not in grouped_ids]
    if stray:
        raise ValueError(f"signs outside any pattern group: {stray}")
    nodes = [AtbtNode(heap_index=1, object=None, side=None, role="root")]
    for side, side_root_index in (("left", 2), ("right", 3)):
        stacks: list[tuple[list[SceneObject], str]] = []
        for g in groups:
            if g.side == side:
                stacks.append(([by_id[m] for m in g.members], "stack"))
        for o in objs:
            if (
                o.category == "traffic_light"
                and o.id not in grouped_ids
                and side_of(o, width_px) == side
            ):
                stacks.append(([o], "stack"))
        stacks.sort(key=lambda s: _stack_sort_key(s[0]))
        walks = sorted(
            (o for o in objs if o.category == "sidewalk" and side_of(o, width_px) == side),
            key=lambda o: (o.centroid[1], o.centroid[0], o.id),
        )
        stacks.extend(([w], "sidewalk") for w in walks)
        head = side_root_index
        for ordinal, (members, flavor) in enumerate(stacks):
            for depth, obj in enumerate(members):
                if ordinal == 0 and depth == 0:
                    role = "side_root"
                elif flavor == "sidewalk":
                    role = "sidewalk"
                else:
                    role = "stack_head" if depth == 0 else "stack_child"
                nodes.append(
                    AtbtNode(
                        heap_index=head * 2**depth,
                        object=obj,
                        side=side,
                        role=role,
                        stack_ordinal=ordinal,
                        depth_in_stack=depth,
                    )
                )
            head = 2 * head + 1
    nodes.sort(key=lambda n: n.heap_index)
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


def _vote(values: list, ranked_order: list[int]) -> object:
    """Majority value; ties resolved by the earliest observation in rank order."""
    counts = Counter(values)
    top = max(counts.values())
    tied = {v for v, c in counts.items() if c == top}
    if len(tied) == 1:
        return tied.pop()
    for i in ranked_order:
        if values[i] in tied:
            return values[i]
    return values[ranked_order[0]]


def fuse_track(
    trees: list[Atbt],
    image_rank: dict[str, float] | None = None,
) -> list[FusedObject]:
    """Merge a track's per-image trees into one object set.

    Nodes sharing (side, category, stack ordinal, stack depth) across images
    are one physical object; subtype and light kind resolve by majority vote
    with ties going to the image ranked nearest the intersection.
    """
    if not trees:
        return []
    if image_rank is None:
        # Later images in track order sit nearer the intersection.
        image_rank = {t.image_id: float(i) for i, t in enumerate(reversed(trees))}
    rank = lambda iid: (image_rank.get(iid, float("inf")), iid)

    observations: dict[tuple, list[tuple[str, SceneObject]]] = {}
    for tree in trees:
        for node in tree.nodes:
            if node.object is None:
                continue
            key = (node.side, node.object.category, node.stack_ordinal, node.depth_in_stack)
            observations.setdefault(key, []).append((tree.image_id, node.object))

    fused: list[FusedObject] = []
    for (side, category, ordinal, depth), obs in observations.items():
        order = sorted(range(len(obs)), key=lambda i: rank(obs[i][0]))
        subtypes = [o.subtype for _, o in obs]
        kinds = [o.light_kind for _, o in obs]
        subtype = _vote(subtypes, order)
        light_kind = _vote(kinds, order)
        fused.append(
            FusedObject(
                key=FusedKey(side, category, ordinal, depth, subtype),
                support=len(obs),
                light_kind=light_kind,
                subtype=subtype,
                inferred_only=all(o.inferred for _, o in obs),
                source_images=sorted({iid for iid, _ in obs}),
            )
        )
    fused.sort(key=lambda f: f.key.sort_key())
    return fused
