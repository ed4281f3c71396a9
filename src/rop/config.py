"""Run configuration: one flat dataclass, file + override parsing."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

_POSITIVE = ("high_factor", "ring_px", "corner_radius_m")
_NON_NEGATIVE = (
    "min_region_px",
    "high_height_m",
    "low_height_m",
    "inner_radius_m",
    "offset_m",
    "dedup_radius_m",
)


@dataclass(frozen=True)
class RunConfig:
    # scene: labelling and sign reconciliation
    min_region_px: int = 25
    iou_min: float = 0.3
    # scene: the light vote (Rules 1-2); stack_dx_frac is grammar's (Rule 5)
    high_factor: float = 3.0
    ring_px: int = 15
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


def _key_value(text: str, malformed: str) -> tuple[str, int | float]:
    """The key and parsed value of one `key = value` text, a config file line
    or a --set pair; malformed is the error when text holds no '='."""
    if "=" not in text:
        raise ValueError(malformed)
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key '{key}'")
    try:
        return key, (int if _FIELD_TYPES[key] in ("int", int) else float)(raw)
    except ValueError as exc:
        raise ValueError(f"config key '{key}': cannot parse '{raw}'") from exc


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus CLI overrides.

    Unknown keys, unparsable values, a file that is not UTF-8 and values that
    break an invariant raise ValueError here, before any bundle is read."""
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        for ln, line in enumerate(text.splitlines()):
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = _key_value(line, f"{path}: line {ln + 1}: expected key = value")
                values[key] = value
    for pair in overrides or ():
        key, value = _key_value(pair, f"override '{pair}' is not key=value")
        values[key] = value
    return RunConfig(**values)
