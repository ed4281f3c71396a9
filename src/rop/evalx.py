"""Scoring placed objects against reference (truth) objects.

Matching is greedy on globally nearest pairs: all candidate (prediction,
reference) pairs within the match radius, same category, and agreeing subtype
when both sides declare one, sorted by (distance, prediction index, reference
index) and consumed first-come with each side used at most once. The tie key
makes reports byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import M_PER_DEG_LAT, haversine_m
from .placer import PlacedObject


@dataclass(frozen=True)
class Pairing:
    ref_index: int
    pred_index: int
    distance_m: float


@dataclass(frozen=True)
class GroupStats:
    group: str
    n_ref: int
    n_pred: int
    n_matched: int
    n_unmatched_pred: int
    completeness: float | None  # absent when there are no references
    precision: float | None  # absent when there are no predictions
    f1: float | None  # absent when either of the two above is
    mean_m: float | None
    median_m: float | None
    rmse_m: float | None


@dataclass
class EvalReport:
    groups: list[GroupStats]
    pairings: list[Pairing]
    radius_m: float

    def group(self, name: str) -> GroupStats:
        for g in self.groups:
            if g.group == name:
                return g
        raise KeyError(name)


def _compatible(pred: PlacedObject, ref: PlacedObject) -> bool:
    if pred.category != ref.category:
        return False
    if pred.subtype is not None and ref.subtype is not None and pred.subtype != ref.subtype:
        return False
    return True


def match(
    preds: list[PlacedObject], refs: list[PlacedObject], radius_m: float = 5.0
) -> list[Pairing]:
    """Greedy nearest-first one-to-one matching within radius_m."""
    # A pair d apart differs by at most d in latitude, so ±2 * radius_m of it is ample.
    order = np.argsort([r.position.lat for r in refs], kind="stable")
    lats = np.array([refs[ri].position.lat for ri in order])
    lons = np.array([refs[ri].position.lon for ri in order])
    half = 2.0 * radius_m / M_PER_DEG_LAT
    p_lats = np.array([p.position.lat for p in preds])
    los = np.searchsorted(lats, p_lats - half, side="left").tolist()
    his = np.searchsorted(lats, p_lats + half, side="right").tolist()
    candidates: list[tuple[float, int, int]] = []
    for pi, p in enumerate(preds):
        lo, hi = los[pi], his[pi]
        if lo == hi:
            continue
        # On the parallel of the window's largest |lat|, |Δlon| in metres is
        # at most π/2 times a pair's distance, so 2 * radius_m drops no match.
        dlon = np.abs(lons[lo:hi] - p.position.lon)
        dlon = np.minimum(dlon, 360.0 - dlon)
        widest = math.radians(min(90.0, abs(p.position.lat) + half))
        m_per_deg_lon = M_PER_DEG_LAT * math.cos(widest)
        for ri in order[lo:hi][dlon * m_per_deg_lon <= 2.0 * radius_m].tolist():
            if not _compatible(p, refs[ri]):
                continue
            d = haversine_m(p.position, refs[ri].position)
            if d <= radius_m:
                candidates.append((d, pi, ri))
    candidates.sort()
    used_p: set[int] = set()
    used_r: set[int] = set()
    out: list[Pairing] = []
    for d, pi, ri in candidates:
        if pi in used_p or ri in used_r:
            continue
        used_p.add(pi)
        used_r.add(ri)
        out.append(Pairing(ref_index=ri, pred_index=pi, distance_m=d))
    return out


def _stats(
    name: str, n_ref: int, n_pred: int, n_pred_matched: int, dists: list[float]
) -> GroupStats:
    """dists holds one distance per matched reference of the group;
    n_pred_matched counts the group's matched predictions. The two differ
    only in the light-kind groups, since matching ignores the light kind."""
    n_matched = len(dists)
    completeness = n_matched / n_ref if n_ref else None
    precision = n_pred_matched / n_pred if n_pred else None
    if completeness is None or precision is None:
        f1 = None
    elif completeness + precision == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * completeness / (precision + completeness)
    if dists:
        arr = np.array(dists)
        mean = float(arr.mean())
        median = float(np.median(arr))
        rmse = float(math.sqrt(float((arr**2).mean())))
    else:
        mean = median = rmse = None
    return GroupStats(
        group=name,
        n_ref=n_ref,
        n_pred=n_pred,
        n_matched=n_matched,
        n_unmatched_pred=n_pred - n_pred_matched,
        completeness=completeness,
        precision=precision,
        f1=f1,
        mean_m=mean,
        median_m=median,
        rmse_m=rmse,
    )


def evaluate(
    preds: list[PlacedObject], refs: list[PlacedObject], radius_m: float = 5.0
) -> EvalReport:
    pairings = match(preds, refs, radius_m=radius_m)
    ref_dist = {p.ref_index: p.distance_m for p in pairings}
    matched_preds = {p.pred_index for p in pairings}

    def groups_of(obj: PlacedObject) -> list[str]:
        names = [obj.category]
        if obj.category == "traffic_light" and obj.light_kind:
            names.append(f"traffic_light[{obj.light_kind}]")
        return names

    # Each group's reference and prediction indices, in input order.
    members: dict[str, tuple[list[int], list[int]]] = {}
    for side, objs in enumerate((refs, preds)):
        for i, obj in enumerate(objs):
            for name in groups_of(obj):
                members.setdefault(name, ([], []))[side].append(i)

    overall = [p.distance_m for p in pairings]
    groups = [_stats("overall", len(refs), len(preds), len(pairings), overall)]
    for name, (ref_ids, pred_ids) in sorted(members.items()):
        dists = [ref_dist[i] for i in ref_ids if i in ref_dist]
        n_pred_matched = sum(i in matched_preds for i in pred_ids)
        groups.append(_stats(name, len(ref_ids), len(pred_ids), n_pred_matched, dists))
    return EvalReport(groups=groups, pairings=pairings, radius_m=radius_m)


# A group's columns, in table order: (GroupStats field, decimals in JSON or
# None for a name or count, table header, table alignment and width). The
# table shows each ratio and distance to 3 decimals.
_COLUMNS = [
    ("group", None, "group", "<22"),
    ("n_ref", None, "refs", ">5"),
    ("n_pred", None, "preds", ">5"),
    ("n_matched", None, "match", ">5"),
    ("n_unmatched_pred", None, "unm_p", ">5"),
    ("completeness", 6, "compl", ">6"),
    ("precision", 6, "prec", ">6"),
    ("f1", 6, "f1", ">6"),
    ("mean_m", 4, "mean", ">7"),
    ("median_m", 4, "median", ">7"),
    ("rmse_m", 4, "rmse", ">7"),
]


def to_json(report: EvalReport) -> dict:
    def cell(value, decimals):
        return value if decimals is None or value is None else round(value, decimals)

    return {
        "radius_m": report.radius_m,
        "groups": [{name: cell(getattr(g, name), d) for name, d, _, _ in _COLUMNS} for g in report.groups],
        "pairings": [
            {
                "ref_index": p.ref_index,
                "pred_index": p.pred_index,
                "distance_m": round(p.distance_m, 4),
            }
            for p in report.pairings
        ],
    }


def to_table(report: EvalReport) -> str:
    def cell(value, decimals):
        return value if decimals is None else "-" if value is None else f"{value:.3f}"

    header = " ".join(f"{head:{align}}" for _, _, head, align in _COLUMNS)
    lines = [header, "-" * len(header)]
    for g in report.groups:
        lines.append(" ".join(f"{cell(getattr(g, name), d):{align}}" for name, d, _, align in _COLUMNS))
    return "\n".join(lines)
