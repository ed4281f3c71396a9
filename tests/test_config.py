"""RunConfig invariants and the key = value file format."""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from rop.config import RunConfig, load_config

_finite = st.floats(allow_nan=False, allow_infinity=False)
_fraction = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)

# One strategy per field, each drawing only values the invariants accept.
FIELDS = {
    "min_region_px": st.integers(-(2**40), 2**40),
    "iou_min": _finite,
    "high_factor": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "ring_px": st.integers(1, 2**40),
    "sidewalk_gap_px": st.integers(0, 2**40),
    "stack_dx_frac": _fraction,
    "pedestrian_fallback_frac": _fraction,
    "high_height_m": _finite,
    "low_height_m": _finite,
    "corner_radius_m": _finite,
    "inner_radius_m": _finite,
    "offset_m": _finite,
    "dedup_radius_m": _finite,
}


def test_strategies_cover_every_field():
    assert set(FIELDS) == {f.name for f in dataclasses.fields(RunConfig)}


@settings(max_examples=100, deadline=None)
@given(st.builds(RunConfig, **FIELDS))
def test_show_round_trips_through_load_config(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "round-trip.cfg"
    path.write_text(cfg.show() + "\n", encoding="utf-8")
    assert load_config(str(path)) == cfg
