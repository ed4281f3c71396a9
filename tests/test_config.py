"""RunConfig invariants and the key = value file format."""

from __future__ import annotations

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.config import RunConfig, load_config

_non_negative = st.floats(min_value=0.0, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_fraction = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)

# One strategy per field, each drawing only values the invariants accept.
FIELDS = {
    "min_region_px": st.integers(0, 2**40),
    "iou_min": st.floats(min_value=0.0, max_value=1.0),
    "high_factor": _positive,
    "ring_px": st.integers(1, 2**40),
    "stack_dx_frac": _fraction,
    "pedestrian_fallback_frac": _fraction,
    "corner_radius_m": _positive,
    "inner_radius_m": _non_negative,
    "offset_m": _non_negative,
}


def test_strategies_cover_every_field():
    assert set(FIELDS) == {f.name for f in dataclasses.fields(RunConfig)}


@settings(max_examples=100, deadline=None)
@given(st.builds(RunConfig, **FIELDS))
def test_show_round_trips_through_load_config(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "round-trip.cfg"
    path.write_text(cfg.show() + "\n", encoding="utf-8")
    assert load_config(str(path)) == cfg


@pytest.mark.parametrize(
    "values, message",
    [
        # The bound follows the field's declared type, not the value's.
        ({"iou_min": 2}, "iou_min must be finite and in [0, 1], got 2"),
        ({"corner_radius_m": 0}, "corner_radius_m must be finite and > 0, got 0"),
        ({"high_factor": 10**400}, f"high_factor must be finite and > 0, got {10**400}"),
        ({"ring_px": 2**62 + 1}, f"ring_px must be at most 2**62 and > 0, got {2**62 + 1}"),
        # A bool is not a number, whatever Python makes of it.
        ({"ring_px": True}, "ring_px must be a number, got True"),
        ({"iou_min": False}, "iou_min must be a number, got False"),
        # A value of the wrong kind is refused by name, never let through.
        ({"ring_px": 2.5}, "ring_px must be an integer, got 2.5"),
        ({"iou_min": None}, "iou_min must be a number, got None"),
        ({"iou_min": "0.5"}, "iou_min must be a number, got '0.5'"),
    ],
    ids=[
        "int-for-float", "zero-for-float", "huge-int-for-float", "int-past-cap", "bool-for-int", "bool-for-float",
        "float-for-int", "none", "str",
    ],
)
def test_range_message_follows_the_declared_type(values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig(**values)


def test_float32_infinity_is_not_finite():
    # float32 cannot hold the largest float, so a bound cast to it overflows to inf.
    with pytest.raises(ValueError, match=r"^offset_m must be finite and >= 0, got inf$"):
        RunConfig(offset_m=np.float32("inf"))


def test_float32_value_passes_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert RunConfig(offset_m=np.float32(2.5)).offset_m == 2.5
