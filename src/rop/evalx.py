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

from .geo import haversine_m
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
    completeness: float | None  # absent when there are no references
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
    if not preds or not refs:
        return []
    # Coarse degree-box prefilter before exact distances; 1 deg latitude is
    # always > 111 km so the bound below is generous at any latitude.
    p_lat = np.array([p.position.lat for p in preds])
    p_lon = np.array([p.position.lon for p in preds])
    r_lat = np.array([r.position.lat for r in refs])
    r_lon = np.array([r.position.lon for r in refs])
    bound = 2.0 * radius_m / 111320.0
    near = (np.abs(p_lat[:, None] - r_lat[None, :]) <= bound) & (
        np.abs(p_lon[:, None] - r_lon[None, :]) <= bound
    )
    candidates: list[tuple[float, int, int]] = []
    for pi, ri in zip(*np.nonzero(near)):
        p, r = preds[pi], refs[ri]
        if not _compatible(p, r):
            continue
        d = haversine_m(p.position, r.position)
        if d <= radius_m:
            candidates.append((d, int(pi), int(ri)))
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
    name: str, n_ref: int, n_pred: int, dists: list[float]
) -> GroupStats:
    n_matched = len(dists)
    completeness = n_matched / n_ref if n_ref else None
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
        completeness=completeness,
        mean_m=mean,
        median_m=median,
        rmse_m=rmse,
    )


def evaluate(
    preds: list[PlacedObject], refs: list[PlacedObject], radius_m: float = 5.0
) -> EvalReport:
    pairings = match(preds, refs, radius_m=radius_m)
    by_ref = {p.ref_index: p for p in pairings}

    def groups_of(obj: PlacedObject) -> list[str]:
        names = [obj.category]
        if obj.category == "traffic_light" and obj.light_kind:
            names.append(f"traffic_light[{obj.light_kind}]")
        return names

    names = sorted({g for obj in [*refs, *preds] for g in groups_of(obj)})

    groups = [
        _stats(
            "overall",
            len(refs),
            len(preds),
            [p.distance_m for p in pairings],
        )
    ]
    for name in names:
        n_ref = sum(1 for r in refs if name in groups_of(r))
        n_pred = sum(1 for p in preds if name in groups_of(p))
        dists = [
            by_ref[i].distance_m
            for i, r in enumerate(refs)
            if name in groups_of(r) and i in by_ref
        ]
        groups.append(_stats(name, n_ref, n_pred, dists))
    return EvalReport(groups=groups, pairings=pairings, radius_m=radius_m)


def to_json(report: EvalReport) -> dict:
    return {
        "radius_m": report.radius_m,
        "groups": [
            {
                "group": g.group,
                "n_ref": g.n_ref,
                "n_pred": g.n_pred,
                "n_matched": g.n_matched,
                "completeness": None if g.completeness is None else round(g.completeness, 6),
                "mean_m": None if g.mean_m is None else round(g.mean_m, 4),
                "median_m": None if g.median_m is None else round(g.median_m, 4),
                "rmse_m": None if g.rmse_m is None else round(g.rmse_m, 4),
            }
            for g in report.groups
        ],
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
    header = f"{'group':<22} {'refs':>5} {'preds':>5} {'match':>5} {'compl':>6} {'mean':>7} {'median':>7} {'rmse':>7}"
    lines = [header, "-" * len(header)]

    def fmt(v):
        return "-" if v is None else f"{v:.3f}"

    for g in report.groups:
        compl = "-" if g.completeness is None else f"{g.completeness:.3f}"
        lines.append(
            f"{g.group:<22} {g.n_ref:>5} {g.n_pred:>5} {g.n_matched:>5} "
            f"{compl:>6} {fmt(g.mean_m):>7} {fmt(g.median_m):>7} {fmt(g.rmse_m):>7}"
        )
    return "\n".join(lines)
