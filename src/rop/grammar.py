"""Urban-grammar rules over one image's finished scene objects.

rop.scene has already classified each light high or low from the label map
(Rules 1-2). Here a low light seen on only one side implies its twin across
the road (Rule 4), and each side's objects form vertical stacks, ordered left
to right, with signs and low lights sharing a pole in one stack and each
sidewalk component a stack of its own (Rule 5). There is no Rule 3; the
others keep the numbers the docs cite. Nothing here reads pixels.
"""

from __future__ import annotations

from .config import RunConfig
from .scene import SceneObject


def side_of(obj: SceneObject, width_px: int) -> str:
    """The one midline rule: left when the centroid's column is below width_px / 2."""
    return "left" if obj.centroid[1] < width_px / 2.0 else "right"


def _split_sides(objs: list[SceneObject], width_px: int) -> dict[str, list[SceneObject]]:
    """objs by side_of, "left" then "right", each in input order."""
    sides: dict[str, list[SceneObject]] = {"left": [], "right": []}
    for o in objs:
        sides[side_of(o, width_px)].append(o)
    return sides


# ---------------------------------------------------------------------------
# Rule 4: paired low lights.


def infer_pair(
    left: list[SceneObject],
    right: list[SceneObject],
    width_px: int,
) -> SceneObject | None:
    """Low lights flank the road in pairs: when one side shows a low light and
    the other side shows sidewalk but no low light, mirror the light across the
    vertical midline and mark it inferred."""

    def lows(objs):
        return [o for o in objs if o.category == "traffic_light" and o.light_kind == "low"]

    def has_walk(objs):
        return any(o.category == "sidewalk" for o in objs)

    left_lows, right_lows = lows(left), lows(right)
    if left_lows and not right_lows and has_walk(right):
        source_pool = left_lows
    elif right_lows and not left_lows and has_walk(left):
        source_pool = right_lows
    else:
        return None
    src = min(source_pool, key=lambda o: (-o.area_px, o.centroid[1], o.id))
    row, col = src.centroid
    return SceneObject(
        id=f"inferred:{src.id}",
        category="traffic_light",
        centroid=(row, (width_px - 1) - col),
        area_px=src.area_px,
        bbox=None,
        light_kind="low",
        inferred=True,
    )


# ---------------------------------------------------------------------------
# Rule 5: stacks.


def _split_by_nearest_light(cluster: list[SceneObject]) -> list[list[SceneObject]]:
    lights = sorted(
        (o for o in cluster if o.category == "traffic_light"),
        key=lambda o: (o.centroid[1], o.id),
    )
    if len(lights) <= 1:
        return [cluster]
    slot = {id(o): k for k, o in enumerate(lights)}
    buckets: list[list[SceneObject]] = [[] for _ in lights]
    for o in cluster:
        j = slot.get(id(o))
        if j is None:
            j = min(range(len(lights)), key=lambda k: (abs(o.centroid[1] - lights[k].centroid[1]), k))
        buckets[j].append(o)
    return buckets


def _stack_sort_key(members: list[SceneObject]) -> tuple:
    if len(members) == 1:  # most stacks: the key is the one member's
        (row, col), oid = members[0].centroid, members[0].id
        return col, row, oid
    return (
        min(o.centroid[1] for o in members),
        min(o.centroid[0] for o in members),
        min(o.id for o in members),
    )


def _side_stacks(mine: list[SceneObject], width_px: int, cfg: RunConfig) -> list[list[SceneObject]]:
    """The stacks of one side's objects, as stack_objects orders them."""
    thresh = cfg.stack_dx_frac * width_px
    lights = [o for o in mine if o.category == "traffic_light"]
    pool = sorted(
        [o for o in mine if o.category == "traffic_sign"] + [o for o in lights if o.light_kind == "low"],
        key=lambda o: (o.centroid[1], o.id),
    )
    clusters: list[list[SceneObject]] = []
    for o in pool:
        if clusters and o.centroid[1] - clusters[-1][-1].centroid[1] <= thresh:
            clusters[-1].append(o)
        else:
            clusters.append([o])
    stacks = [
        sorted(part, key=lambda o: (o.centroid[0], o.centroid[1], o.id))
        for cluster in clusters
        for part in _split_by_nearest_light(cluster)
    ]
    stacks += [[o] for o in lights if o.light_kind != "low"]
    stacks.sort(key=_stack_sort_key)
    walks = sorted(
        (o for o in mine if o.category == "sidewalk"),
        key=lambda o: (o.centroid[1], o.centroid[0], o.id),
    )
    return stacks + [[w] for w in walks]


def stack_objects(
    objs: list[SceneObject], width_px: int, cfg: RunConfig = RunConfig()
) -> dict[str, list[list[SceneObject]]]:
    """Each side's stacks, left to right, each stack top to bottom.

    Signs and low lights cluster per side on centroid column (single linkage,
    threshold stack_dx_frac * width); a cluster holding several lights splits
    by nearest light, and every part is a stack ordered by (row, col, id).
    Every other light is a stack of its own. Stacks order by leftmost member
    column; the side's sidewalks follow, one stack each, by (col, row, id).
    Input order never matters. The objects are split by side once, by
    _split_sides, as apply_grammar splits them.
    """
    return {side: _side_stacks(mine, width_px, cfg) for side, mine in _split_sides(objs, width_px).items()}


# ---------------------------------------------------------------------------
# Full per-image pass.


def apply_grammar(
    objs: list[SceneObject], width_px: int, cfg: RunConfig = RunConfig()
) -> dict[str, list[list[SceneObject]]]:
    """Run Rules 4 and 5 on one image's finished objects (see
    scene.scene_objects) in an image width_px pixels wide: each side's
    stacks (see stack_objects), with Rule 4's twin among them when it fires.
    The objects are split by side once; the twin joins the side side_of puts
    it on, and both rules read those two lists."""
    sides = _split_sides(objs, width_px)
    twin = infer_pair(sides["left"], sides["right"], width_px)
    if twin is not None:
        sides[side_of(twin, width_px)].append(twin)
    return {side: _side_stacks(mine, width_px, cfg) for side, mine in sides.items()}
