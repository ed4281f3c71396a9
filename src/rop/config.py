"""Run configuration: one flat dataclass, file + override parsing, and the
range check of every ranged number rop reads, typed or in a record."""

from __future__ import annotations

import dataclasses
import numbers
import sys
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

INT_MAX = 2**62  # so ring_px added to a pixel coordinate stays inside int64
RANGES = {
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 180)": lambda v: 0 < v < 180,
}


def check_range(name: str, value: int | float, rule: str, kind: type | None = None) -> None:
    """Raise a ValueError naming name and value unless value, a number and
    not a bool, lies in rule, a key of RANGES, and is at most INT_MAX if kind
    (by default value's own type) is int, else finite. If kind is int, value
    must be an integer."""
    # A plain int or float, the common case, skips the slower ABC checks.
    exact = type(value) is int or type(value) is float
    if not exact and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    integral = type(value) is int if exact else isinstance(value, numbers.Integral)
    if kind is int and not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (kind or type(value)) is int:
        bound, bounded = "at most 2**62", value <= INT_MAX
    else:  # compare Python numbers (a float32 bound overflows); an int too large for a float is not finite either
        number = value if integral else float(value)
        bound, bounded = "finite", abs(number) <= sys.float_info.max
    if not (bounded and RANGES[rule](value)):
        raise ValueError(f"{name} must be {bound} and {rule}, got {value}")


@cache
def _ranged_fields(kind: type) -> list[tuple[str, str, type]]:
    """(name, rule, declared type: int or float) of each ranged field of the dataclass kind."""
    ranged = [f for f in dataclasses.fields(kind) if "range" in f.metadata]
    return [(f.name, f.metadata["range"], int if f.type in ("int", int) else float) for f in ranged]


def check_fields(record) -> None:
    """check_range, by the field's declared type, on each ranged field of record."""
    for name, rule, kind in _ranged_fields(type(record)):
        check_range(name, getattr(record, name), rule, kind)


@dataclass(frozen=True)
class RunConfig:
    # scene: labelling and sign reconciliation
    min_region_px: int = field(default=25, metadata={"range": ">= 0"})
    iou_min: float = field(default=0.3, metadata={"range": "in [0, 1]"})
    # scene: the light vote (Rules 1-2); stack_dx_frac is grammar's (Rule 5)
    high_factor: float = field(default=3.0, metadata={"range": "> 0"})
    ring_px: int = field(default=15, metadata={"range": "> 0"})
    stack_dx_frac: float = field(default=0.04, metadata={"range": "in (0, 1)"})
    pedestrian_fallback_frac: float = field(default=0.22, metadata={"range": "in (0, 1)"})
    # placer
    corner_radius_m: float = field(default=26.0, metadata={"range": "> 0"})
    inner_radius_m: float = field(default=10.0, metadata={"range": ">= 0"})
    offset_m: float = field(default=2.5, metadata={"range": ">= 0"})

    def __post_init__(self) -> None:
        check_fields(self)

    def show(self) -> str:
        lines = [
            f"{f.name} = {getattr(self, f.name)}"
            for f in dataclasses.fields(self)
        ]
        return "\n".join(lines)


# Every key is ranged, so this is every key's declared type.
_FIELD_TYPES = {name: kind for name, _, kind in _ranged_fields(RunConfig)}


def _key_value(text: str, malformed: str) -> tuple[str, int | float]:
    """The key and parsed value of one `key = value` text, a config file line
    or a --set pair; malformed is the error when text holds no '='."""
    if "=" not in text:
        raise ValueError(malformed)
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key '{key}'")
    try:
        return key, _FIELD_TYPES[key](raw)
    except ValueError as exc:
        raise ValueError(f"config key '{key}': cannot parse '{raw}'") from exc


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus CLI overrides.

    Unknown keys, unparsable values, a file that is not UTF-8 (a leading
    byte order mark is skipped) and values that break an invariant raise
    ValueError here, before any bundle is read."""
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
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
