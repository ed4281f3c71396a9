"""Run configuration: one flat dataclass, file + override parsing."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

_POSITIVE = ("high_factor", "ring_px", "corner_radius_m")
_NON_NEGATIVE = (
    "min_region_px",
    "sidewalk_gap_px",
    "high_height_m",
    "low_height_m",
    "inner_radius_m",
    "offset_m",
    "dedup_radius_m",
)


@dataclass(frozen=True)
class RunConfig:
    # scene
    min_region_px: int = 25
    iou_min: float = 0.3
    # grammar
    high_factor: float = 3.0
    ring_px: int = 15
    sidewalk_gap_px: int = 40
    stack_dx_frac: float = 0.04
    pedestrian_fallback_frac: float = 0.22
    # placer
    high_height_m: float = 7.0
    low_height_m: float = 4.0
    corner_radius_m: float = 26.0
    inner_radius_m: float = 10.0
    offset_m: float = 2.5
    dedup_radius_m: float = 1.5

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for key in _POSITIVE:
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        for key in _NON_NEGATIVE:
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative")
        for key in ("stack_dx_frac", "pedestrian_fallback_frac"):
            if not 0 < getattr(self, key) < 1:
                raise ValueError(f"{key} must lie in (0, 1)")
        if not 0 <= self.iou_min <= 1:
            raise ValueError("iou_min must lie in [0, 1]")

    def show(self) -> str:
        lines = [
            f"{f.name} = {getattr(self, f.name)}"
            for f in dataclasses.fields(self)
        ]
        return "\n".join(lines)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key '{key}'")
    kind = _FIELD_TYPES[key]
    try:
        if kind in ("int", int):
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"config key '{key}': cannot parse '{raw}'") from exc


def parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override '{pair}' is not key=value")
        key, raw = pair.split("=", 1)
        key, raw = key.strip(), raw.strip()
        out[key] = _coerce(key, raw)
    return out


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus CLI overrides.

    Unknown keys, unparsable values and values that break an invariant raise
    ValueError here, before any bundle is read."""
    values: dict = {}
    if path is not None:
        for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {ln + 1}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _coerce(key, raw)
    if overrides:
        values.update(parse_overrides(overrides))
    return RunConfig(**values)
