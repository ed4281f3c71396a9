"""Exit codes, determinism, and file contracts of the command-line interface."""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import weakref
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.cli import deal, main, write_json, write_placed
from rop.config import RunConfig
from rop.geo import GeoPoint, LocalPoint, make_frame, unproject
from rop.ingest import feature, load_buffers, load_images, load_inputs
from rop.labelmap import read_label_map, write_pgm
from rop.placer import IntersectionResult, PlacedObject, slice_bundle, to_geojson
from rop.synth import CameraPose, Layout, RectFootprint, save_layouts, standard_fixtures
from test_placer import images_in_buffer
from test_synth import BAD_LAYOUTS

SRC = Path(__file__).parents[1] / "src"


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    rc = main(["synth", "--out", str(out), "--fixtures", "2", "--seed", "1"])
    assert rc == 0
    return out


def place_args(bundle: Path, out: Path, extra: list[str] = ()):  # noqa: B006
    return [
        "place",
        "--images", str(bundle / "images.json"),
        "--masks", str(bundle / "masks"),
        "--detections", str(bundle / "detections.jsonl"),
        "--footprints", str(bundle / "footprints.geojson"),
        "--buffers", str(bundle / "buffers.json"),
        "--out", str(out),
        *extra,
    ]


def test_place_produces_nonempty_geojson(bundle_dir, tmp_path):
    out = tmp_path / "pred.geojson"
    assert main(place_args(bundle_dir, out)) == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) > 0
    assert "diagnostics" in doc
    props = doc["features"][0]["properties"]
    for key in ("category", "support", "confidence", "intersection_id"):
        assert key in props


def test_place_missing_out_flag_is_usage_error(bundle_dir):
    argv = place_args(bundle_dir, Path("x"))
    argv.remove("--out")
    argv.remove("x")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_place_jobs_below_one_is_usage_error(jobs, bundle_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(place_args(bundle_dir, tmp_path / "pred.geojson", ["--jobs", jobs]))
    assert exc.value.code == 64
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "pred.geojson").exists()


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_place_is_deterministic_and_jobs_invariant(bundle_dir, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.geojson", "b.geojson", "c.geojson"))
    assert main(place_args(bundle_dir, a)) == 0
    assert main(place_args(bundle_dir, b)) == 0
    assert main(place_args(bundle_dir, c, ["--jobs", "3"])) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def copy_with_pgm_masks(src: Path, dst: Path, image_ids=None) -> Path:
    """A copy of the bundle in src whose masks, those of image_ids or all of
    them, are rewritten from run-length files to PGM by write_pgm."""
    shutil.copytree(src, dst)
    for path in sorted((dst / "masks").glob("*.rle")):
        if image_ids is None or path.stem in image_ids:
            runs = read_label_map(str(path))
            write_pgm(str(path.with_suffix(".pgm")), runs.rows(0, runs.height))
            path.unlink()
    return dst


def test_corrupt_pgm_names_file(bundle_dir, tmp_path, capsys):
    broken = copy_with_pgm_masks(bundle_dir, tmp_path / "broken")
    victim = sorted((broken / "masks").glob("*.pgm"))[0]
    victim.write_bytes(b"P6\n3 3\n255\n" + b"\0" * 27)
    rc = main(place_args(broken, tmp_path / "pred.geojson"))
    assert rc == 2
    assert victim.name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["place", "dump-trees"])
def test_a_pgm_header_larger_than_its_file_names_the_file(command, bundle_dir, tmp_path, capsys):
    # The first image declares 200000 x 200000 pixels, and its 31-byte mask
    # declares the same: 40 GB of raster that the file does not hold. That
    # is a short raster, not an allocation of the declared size.
    broken = copy_with_pgm_masks(bundle_dir, tmp_path / "broken")
    images = json.loads((broken / "images.json").read_text())
    images[0].update(width_px=200000, height_px=200000)
    (broken / "images.json").write_text(json.dumps(images))
    victim = broken / "masks" / f"{images[0]['image_id']}.pgm"
    victim.write_bytes(b"P5\n200000 200000\n255\n" + bytes(10))
    assert main([command, *place_args(broken, tmp_path / "out.json")[1:]]) == 2
    err = capsys.readouterr().err
    assert "truncated raster (10 of 40000000000 bytes)" in err and victim.name in err


def _crossing(w, h, lengths, values):
    # Move one pixel from the first run of row 1 to the last run of row 0.
    k = int(np.searchsorted(np.cumsum(lengths), w))
    assert lengths[k + 1] >= 2
    lengths[k] += 1
    lengths[k + 1] -= 1
    return w, h, lengths, values


def _split(w, h, lengths, values):
    assert lengths[0] >= 2
    return w, h, [1, lengths[0] - 1, *lengths[1:]], [values[0], *values]


BAD_RLE_EDITS = [
    pytest.param(lambda w, h, L, V: (w, h + 1, L + [w], V + [0]), "declares 1024x768", id="size"),
    pytest.param(lambda w, h, L, V: (w, h, L, [9, *V[1:]]), "value 9 at row 0, column 0", id="category"),
    pytest.param(lambda w, h, L, V: (w, h, [*L[:-1], L[-1] + 1], V), "runs cover", id="coverage"),
    pytest.param(_crossing, "crosses the end of row 0", id="row-crossing"),
    pytest.param(lambda w, h, L, V: (w, h, [L[0], 0, *L[1:]], [V[0], 0, *V[1:]]), "has length 0", id="empty-run"),
    pytest.param(_split, "both hold value", id="split-run"),
]


@pytest.mark.parametrize("edit, fragment", BAD_RLE_EDITS)
def test_bad_rle_mask_names_file(edit, fragment, bundle_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(bundle_dir, broken)
    victim = sorted((broken / "masks").glob("*.rle"))[0]
    data = victim.read_bytes()
    magic, w, h, n = struct.unpack_from("<4sIII", data)
    lengths = list(struct.unpack_from(f"<{n}I", data, 16))
    w, h, lengths, values = edit(w, h, lengths, list(data[16 + 4 * n :]))
    victim.write_bytes(
        struct.pack(f"<4sIII{len(lengths)}I", magic, w, h, len(lengths), *lengths) + bytes(values)
    )
    assert main(place_args(broken, tmp_path / "pred.geojson")) == 2
    err = capsys.readouterr().err
    assert fragment in err and victim.name in err


def test_pgm_mask_outside_categories_names_file(bundle_dir, tmp_path, capsys):
    broken = copy_with_pgm_masks(bundle_dir, tmp_path / "broken")
    victim = sorted((broken / "masks").glob("*.pgm"))[0]
    data = bytearray(victim.read_bytes())
    data[-1] = 200  # the last pixel
    victim.write_bytes(bytes(data))
    assert main(place_args(broken, tmp_path / "pred.geojson")) == 2
    err = capsys.readouterr().err
    assert "value 200 at row 767, column 1023" in err and victim.name in err


def test_two_masks_for_one_image_names_both(bundle_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(bundle_dir, broken)
    rle = sorted((broken / "masks").glob("*.rle"))[0]
    runs = read_label_map(str(rle))
    write_pgm(str(rle.with_suffix(".pgm")), runs.rows(0, runs.height))
    assert main(place_args(broken, tmp_path / "pred.geojson")) == 2
    err = capsys.readouterr().err
    assert rle.name in err and rle.with_suffix(".pgm").name in err


NUMBER_FIELDS = [
    ("images", "lat"),
    ("images", "lon"),
    ("images", "width_px"),
    ("images", "height_px"),
    ("buffers", "lat"),
    ("buffers", "lon"),
    ("buffers", "radius_m"),
    ("detections", "score"),
]


NUMBER_CASES = [
    pytest.param(flag, key, value, f"{key} must be a number", id=f"{flag}-{key}-{value}")
    for flag, key in NUMBER_FIELDS
    for value in (None, "wide", True)
] + [
    pytest.param("images", "heading_deg", True, "heading_deg must be a number", id="images-heading_deg-True"),
    pytest.param("images", "heading_deg", "wide", "heading_deg must be a number", id="images-heading_deg-wide"),
    pytest.param("detections", "bbox", [True, False, 5, 5], "bbox[0] must be a number", id="detections-bbox-True"),
    pytest.param("detections", "bbox", [math.nan, 0, 5, 5], "bbox[0] must be finite", id="detections-bbox-nan"),
    pytest.param("detections", "bbox", [0, 0, math.inf, 5], "bbox[2] must be finite", id="detections-bbox-inf"),
    pytest.param("detections", "bbox", ["1", 2, 3, 4], "bbox[0] must be a number", id="detections-bbox-str"),
] + [
    # A number written as a JSON string is not a number, however it parses.
    pytest.param(flag, key, value, f"{key} must be a number", id=f"{flag}-{key}-str")
    for flag, key, value in (
        ("images", "lat", "52.3"),
        ("images", "lon", "13.2"),
        ("images", "width_px", "1024"),
        ("images", "height_px", "768"),
        ("images", "heading_deg", "90"),
        ("buffers", "lat", "52.3"),
        ("buffers", "lon", "13.2"),
        ("buffers", "radius_m", " 1e1 "),
        ("detections", "score", "0.5"),
    )
]

# An id or a name is a JSON string: a number is not read as its digits. The
# error names the file, the record and the field.
STRING_CASES = [
    pytest.param(flag, key, value, f"{where}: {key} must be {what}", id=f"{flag}-{key}-{value!r}")
    for flag, where, key, value, what in (
        ("images", "images[0]", "image_id", 12, "a string"),
        ("images", "images[0]", "sequence_id", 3, "a string"),
        ("images", "images[0]", "captured_at", [], "a number or a string or null"),
        ("images", "images[0]", "captured_at", {}, "a number or a string or null"),
        ("detections", "line 1", "image_id", 12, "a string"),
        ("detections", "line 1", "category", 7, "a string"),
        ("detections", "line 1", "subtype", 5, "a string or null"),
        ("buffers", "buffers[0]", "intersection_id", 0, "a string"),
    )
]


@pytest.mark.parametrize("flag, key, value, fragment", NUMBER_CASES)
def test_place_rejects_non_numeric_field(flag, key, value, fragment, bundle_dir, tmp_path, capsys):
    argv = place_args(bundle_dir, tmp_path / "pred.geojson")
    i = argv.index(f"--{flag}") + 1
    src = Path(argv[i])
    if flag == "detections":
        lines = src.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), key: value})
        text = "\n".join(lines)
    else:
        records = json.loads(src.read_text())
        records[0][key] = value
        text = json.dumps(records)
    argv[i] = str(tmp_path / src.name)
    Path(argv[i]).write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert fragment in err and src.name in err


@pytest.mark.parametrize("flag, key, value, fragment", STRING_CASES)
def test_place_rejects_non_string_field(flag, key, value, fragment, bundle_dir, tmp_path, capsys):
    test_place_rejects_non_numeric_field(flag, key, value, fragment, bundle_dir, tmp_path, capsys)


@pytest.mark.parametrize("bbox", [[10, 20, 0, 8], [10, 20, 5, -8]], ids=["zero-width", "negative-height"])
def test_place_rejects_a_bbox_without_area(bbox, bundle_dir, tmp_path, capsys):
    fragment = "line 1: bbox width and height must be positive"
    test_place_rejects_non_numeric_field("detections", "bbox", bbox, fragment, bundle_dir, tmp_path, capsys)


def _footprint_properties(props):
    """An edit of a footprints file that moves the first feature's id from its
    properties to the feature and sets its properties to props."""

    def edit(text):
        doc = json.loads(text)
        first = doc["features"][0]
        doc["features"][0] = {**first, "id": first["properties"]["id"], "properties": props}
        return json.dumps(doc)

    return edit


BAD_RECORD_CASES = [
    pytest.param(
        "images",
        lambda text: json.dumps([5, *json.loads(text)[1:]]),
        "images[0]: expected a JSON object",
        id="images-int",
    ),
    pytest.param(
        "detections",
        lambda text: "\n".join(["5", *text.splitlines()[1:]]),
        "line 1: expected a JSON object",
        id="detections-int",
    ),
    pytest.param(
        "buffers",
        lambda text: json.dumps([None, *json.loads(text)[1:]]),
        "buffers[0]: expected a JSON object",
        id="buffers-null",
    ),
    pytest.param(
        "footprints",
        lambda text: json.dumps(json.loads(text)["features"]),
        "expected a GeoJSON FeatureCollection",
        id="footprints-array",
    ),
    pytest.param(
        "footprints",
        lambda text: json.dumps({**json.loads(text), "features": ["b0"]}),
        "features[0]: expected a JSON object",
        id="footprints-str-feature",
    ),
    pytest.param(
        "images",
        lambda text: json.dumps([{**json.loads(text)[0], "lat": 10**400}, *json.loads(text)[1:]]),
        "images.json: images[0]: lat must be a number",
        id="images-int-beyond-float",
    ),
    pytest.param(
        "footprints",
        lambda text: json.dumps({"type": "FeatureCollection"}),
        "footprints.geojson: features must be a list",
        id="footprints-no-features",
    ),
] + [
    pytest.param(
        "footprints",
        _footprint_properties(props),
        "footprints.geojson: features[0]: properties must be an object or null",
        id=f"footprints-properties-{name}",
    )
    for name, props in [("list", []), ("zero", 0), ("false", False), ("empty-string", "")]
] + [
    pytest.param(
        "buffers",
        lambda text: json.dumps([{**json.loads(text)[0], "lat": 89.5}, *json.loads(text)[1:]]),
        "buffers[0]: frame degenerate near the poles (lat=89.5)",
        id="buffers-polar",
    ),
] + [
    pytest.param(flag, lambda text: "{" + text, "Expecting property name", id=f"{flag}-invalid-json")
    for flag in ("images", "footprints", "buffers")
]


@pytest.mark.parametrize("flag, edit, fragment", BAD_RECORD_CASES)
def test_place_rejects_malformed_bundle_file(flag, edit, fragment, bundle_dir, tmp_path, capsys):
    argv = place_args(bundle_dir, tmp_path / "pred.geojson")
    i = argv.index(f"--{flag}") + 1
    src = Path(argv[i])
    argv[i] = str(tmp_path / src.name)
    Path(argv[i]).write_text(edit(src.read_text()))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert fragment in err and src.name in err


def test_place_names_a_masks_path_that_is_a_file(bundle_dir, tmp_path, capsys):
    argv = place_args(bundle_dir, tmp_path / "pred.geojson")
    masks = str(bundle_dir / "images.json")
    argv[argv.index("--masks") + 1] = masks
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {masks}: not a directory\n"
    assert not (tmp_path / "pred.geojson").exists()


def _json_paths(value, prefix=()):
    """The path, as keys and indices, of every member below value."""
    members = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, member in members:
        yield (*prefix, key)
        yield from _json_paths(member, (*prefix, key))


OTHER_TYPES = [None, True, 7, 2.5, "x", [], {}]
BUNDLE_FILES = {
    "images": "images.json",
    "detections": "detections.jsonl",
    "footprints": "footprints.geojson",
    "buffers": "buffers.json",
}


@st.composite
def bundle_mutations(draw, bundle: Path):
    """A flag of place_args and an edit of the file or directory it names:
    one field, record or mask file dropped, retyped, duplicated or cut short."""
    flag = draw(st.sampled_from([*BUNDLE_FILES, "masks"]))
    op = draw(st.sampled_from(["drop", "retype", "duplicate", "truncate"]))
    if flag == "masks":
        name = draw(st.sampled_from(sorted(p.name for p in (bundle / "masks").iterdir())))
        cut = draw(st.floats(0.0, 1.0, exclude_max=True))

        def edit_masks(masks: Path) -> None:
            mask = masks / name
            if op == "drop":
                mask.unlink()
            elif op == "retype":  # run-length bytes under the PGM suffix
                mask.rename(mask.with_suffix(".pgm"))
            elif op == "duplicate":
                runs = read_label_map(str(mask))
                write_pgm(str(mask.with_suffix(".pgm")), runs.rows(0, runs.height))
            else:
                data = mask.read_bytes()
                mask.write_bytes(data[: int(cut * len(data))])

        return flag, edit_masks
    text = (bundle / BUNDLE_FILES[flag]).read_text()
    if op == "truncate":
        cut = draw(st.integers(0, len(text) - 1))
        return flag, lambda _: text[:cut]
    lines = flag == "detections"
    doc = [json.loads(line) for line in text.splitlines()] if lines else json.loads(text)
    records = doc["features"] if flag == "footprints" else doc
    i = draw(st.integers(0, len(records) - 1))
    if op == "duplicate":
        records.insert(i, records[i])
    else:
        path = (i, *draw(st.sampled_from([(), *_json_paths(records[i])])))
        parent = records
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(parent[path[-1]])]))
    edited = "".join(json.dumps(r) + "\n" for r in doc) if lines else json.dumps(doc)
    return flag, lambda _: edited


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_mutated_bundle_places_or_names_a_file(bundle_dir, tmp_path_factory, data):
    # Any one damaged field, record or mask file places, exits 3 on an empty
    # output, or exits 2 with one line that names an input. Never a fault.
    flag, edit = data.draw(bundle_mutations(bundle_dir))
    work = tmp_path_factory.mktemp("mutated")
    argv = place_args(bundle_dir, work / "pred.geojson")
    i = argv.index(f"--{flag}") + 1
    src = Path(argv[i])
    argv[i] = str(work / src.name)
    if flag == "masks":
        shutil.copytree(src, argv[i])
        edit(Path(argv[i]))
    else:
        Path(argv[i]).write_text(edit(src.read_text()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 2:
        (line,) = err.getvalue().splitlines()
        inputs = [argv[argv.index(f"--{f}") + 1] for f in (*BUNDLE_FILES, "masks")]
        assert line.startswith("error: ") and any(path in line for path in inputs), line


# The bytes this two-fixture bundle places to and dumps as trees. A change
# meant to alter the output updates these pins and records the new hashes in
# CHANGES.md.
PLACE_SHA256 = "80d13b3ba68c1bf528cb900329d153875127aec19737f3c39ad90df7a13381f0"
DUMP_TREES_SHA256 = "c58279b476452aa689cd4a839cea4691ed8f9a2f4a10369508f5ef72ae9647c7"
# The files of `rop synth --fixtures 2 --seed 1` and `--fixtures 20 --seed 1`,
# hashed as tree_sha256 does.
SYNTH_SHA256 = "620b9fa45ff4a811b936043cd917aab39e29fc153cc7e296a41fb12949ecdaf0"
SYNTH20_SHA256 = "8654e080d4398256ebc3aa19425ecb749886bd9f5b3e9f4dae45337c1b913194"
# The bytes `--fixtures 20 --seed 1` places to and dumps as trees.
PLACE20_SHA256 = "823eaf593e6332cb2e529f94133dc95952b1fb40944b0bd62cbe884bee1eb130"
DUMP_TREES20_SHA256 = "891dffc6904b01a327c55ed362a0850aee1070410a0739155e46a59c50c7604b"
# The precision of what `--fixtures 20 --seed 1` places, per group, against
# its truth at 5 m: each floor is the figure rounded down to three places. A
# change meant to alter the output raises these to its new figures, rounded
# down, and records any lowering in CHANGES.md.
PRECISION20_FLOORS = {
    "overall": 0.498,
    "traffic_sign": 0.405,
    "traffic_light[low]": 0.594,
    "traffic_light[high]": 0.618,
}


def tree_sha256(root: Path) -> str:
    """sha256 over every file under root, in sorted relative-path order, each
    as its POSIX relative path, a NUL byte, then its bytes."""
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        h.update(rel.encode() + b"\0" + (root / rel).read_bytes())
    return h.hexdigest()


def test_synth_output_is_pinned(tmp_path):
    # A fresh directory: other tests may write next to bundle_dir's files.
    assert main(["synth", "--out", str(tmp_path), "--fixtures", "2", "--seed", "1"]) == 0
    assert tree_sha256(tmp_path) == SYNTH_SHA256


@pytest.fixture(scope="module")
def bundle20_dir(tmp_path_factory):
    """`rop synth --fixtures 20 --seed 1`, rendered once. Tests write their
    outputs elsewhere, so the directory keeps the synth bytes."""
    out = tmp_path_factory.mktemp("bundle20")
    assert main(["synth", "--out", str(out), "--fixtures", "20", "--seed", "1"]) == 0
    return out


@pytest.fixture(scope="module")
def c2_bundle_dir(tmp_path_factory):
    """The first standard fixture plus one camera 6 m from its centre, inside
    the default 10 m inner radius: the only C2 view that any bundle here has."""
    lay = standard_fixtures(1, seed=1)[0]
    lay.cameras.append(CameraPose("x0000-WE-zz", "x0000-WE-s0", LocalPoint(-6.0, 0.0), 90.0))
    out = tmp_path_factory.mktemp("c2_bundle")
    save_layouts([lay], str(out / "layout.json"))
    assert main(["synth", "--out", str(out), "--layout", str(out / "layout.json")]) == 0
    return out


# Every RunConfig key, in field order: its default, one other value, and a
# scene whose `place` or `dump-trees` bytes differ between the two. A key that
# no scene moves is a knob that nothing tests: give it a scene or remove it.
KNOBS = [
    ("min_region_px", 25, 5, "bundle_dir", "place"),
    ("iou_min", 0.3, 0.0, "bundle_dir", "dump-trees"),
    ("high_factor", 3.0, 1.5, "bundle20_dir", "place"),
    ("ring_px", 15, 3, "bundle20_dir", "place"),
    ("stack_dx_frac", 0.04, 0.01, "bundle_dir", "place"),
    ("pedestrian_fallback_frac", 0.22, 0.01, "bundle20_dir", "place"),
    ("corner_radius_m", 26.0, 10.0, "bundle_dir", "place"),
    ("inner_radius_m", 10.0, 0.0, "c2_bundle_dir", "place"),
    ("offset_m", 2.5, 1.0, "bundle_dir", "place"),
]


def test_knobs_list_every_config_key_and_its_default():
    assert [key for key, *_ in KNOBS] == [f.name for f in dataclasses.fields(RunConfig)]
    assert {key: default for key, default, *_ in KNOBS} == dataclasses.asdict(RunConfig())


@pytest.mark.parametrize("key, default, other, scene, command", KNOBS, ids=[k[0] for k in KNOBS])
def test_every_config_key_moves_some_output(key, default, other, scene, command, request, tmp_path):
    bundle = request.getfixturevalue(scene)
    outputs = []
    for value in (default, other):
        out = tmp_path / f"{value}.json"
        assert main([command, *place_args(bundle, out, ["--set", f"{key}={value}"])[1:]]) in (0, 3)
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1], f"{key} = {other} changes no byte of {command} on {scene}"


def test_synth20_output_is_pinned(bundle20_dir):
    assert tree_sha256(bundle20_dir) == SYNTH20_SHA256


def test_place20_and_dump_trees20_are_pinned(bundle20_dir, tmp_path):
    for jobs in ("1", "2", "3", "4"):
        out = tmp_path / f"pred{jobs}.geojson"
        assert main(place_args(bundle20_dir, out, ["--jobs", jobs])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PLACE20_SHA256
    trees = tmp_path / "trees.json"
    assert main(["dump-trees", *place_args(bundle20_dir, trees)[1:]]) == 0
    assert hashlib.sha256(trees.read_bytes()).hexdigest() == DUMP_TREES20_SHA256


def test_place20_meets_the_precision_floors(bundle20_dir, tmp_path):
    placed, report = tmp_path / "placed.geojson", tmp_path / "report.json"
    assert main(place_args(bundle20_dir, placed)) == 0
    ref = str(bundle20_dir / "truth.geojson")
    assert main(["eval", "--pred", str(placed), "--ref", ref, "--radius", "5", "--json", "--out", str(report)]) == 0
    precision = {g["group"]: g["precision"] for g in json.loads(report.read_text())["groups"]}
    below = {g: (precision[g], floor) for g, floor in PRECISION20_FLOORS.items() if precision[g] < floor}
    assert below == {}


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_place_output_is_pinned(jobs, bundle_dir, tmp_path):
    out = tmp_path / "pred.geojson"
    assert main(place_args(bundle_dir, out, ["--jobs", jobs])) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLACE_SHA256


def test_dump_trees_output_is_pinned(bundle_dir, tmp_path, monkeypatch):
    # dump-trees runs the tree stage only: no fusion, corners, placement or
    # dedup.
    import rop.placer

    def later_stage(*args, **kwargs):
        raise AssertionError("dump-trees ran a stage after the trees")

    for name in ("fuse_track", "select_corners", "place_objects", "dedup_placed"):
        monkeypatch.setattr(rop.placer, name, later_stage)
    out = tmp_path / "trees.json"
    assert main(["dump-trees", *place_args(bundle_dir, out)[1:]]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_TREES_SHA256


def test_dump_trees_writes_buffers_in_id_order(bundle_dir, tmp_path):
    # dump-trees writes the buffers in slice order, that of their ids.
    buffers = json.loads((bundle_dir / "buffers.json").read_text())
    assert len(buffers) == 2
    (tmp_path / "buffers.json").write_text(json.dumps(buffers[::-1]))
    argv = place_args(bundle_dir, tmp_path / "trees.json")
    argv[argv.index("--buffers") + 1] = str(tmp_path / "buffers.json")
    assert main(["dump-trees", *argv[1:]]) == 0
    assert hashlib.sha256((tmp_path / "trees.json").read_bytes()).hexdigest() == DUMP_TREES_SHA256


@pytest.fixture(scope="module")
def pgm_bundle_dir(bundle_dir, tmp_path_factory):
    return copy_with_pgm_masks(bundle_dir, tmp_path_factory.mktemp("pgm") / "bundle")


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_place_from_pgm_masks_is_pinned(jobs, pgm_bundle_dir, tmp_path):
    out = tmp_path / "pred.geojson"
    assert main(place_args(pgm_bundle_dir, out, ["--jobs", jobs])) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLACE_SHA256
    trees = tmp_path / "trees.json"
    assert main(["dump-trees", *place_args(pgm_bundle_dir, trees)[1:]]) == 0
    assert hashlib.sha256(trees.read_bytes()).hexdigest() == DUMP_TREES_SHA256


@settings(max_examples=4, deadline=None)
@given(st.data())
def test_place_from_mixed_masks_is_pinned(bundle_dir, tmp_path_factory, data):
    # Any split of the masks between PGM and run-length files places the
    # same bytes.
    images = [im["image_id"] for im in json.loads((bundle_dir / "images.json").read_text())]
    as_pgm = data.draw(st.sets(st.sampled_from(images)))
    mixed = copy_with_pgm_masks(bundle_dir, tmp_path_factory.mktemp("mixed") / "bundle", as_pgm)
    out = mixed / "pred.geojson"
    assert main(place_args(mixed, out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLACE_SHA256


@pytest.mark.parametrize("earlier", [None, b"an earlier run\n"], ids=["no-earlier-out", "earlier-out"])
@pytest.mark.parametrize("command", ["place", "dump-trees"])
def test_a_bad_mask_in_the_last_buffer_leaves_no_partial_output(
    command, earlier, bundle_dir, tmp_path, capsys
):
    # dump-trees writes each buffer as it finishes, in intersection_id order.
    # A fault in the last buffer still leaves --out as it was, and no
    # temporary file beside it.
    broken = tmp_path / "broken"
    shutil.copytree(bundle_dir, broken)
    last = max(load_buffers(str(broken / "buffers.json")), key=lambda b: b.intersection_id)
    first_image = images_in_buffer(load_images(str(broken / "images.json")), last)[0]
    victim = broken / "masks" / f"{first_image.image_id}.rle"
    data = bytearray(victim.read_bytes())
    data[-1] = 9  # the last run's value: not a category id
    victim.write_bytes(bytes(data))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "out.json"
    if earlier is not None:
        out.write_bytes(earlier)
    assert main([command, *place_args(broken, out)[1:]]) == 2
    assert victim.name in capsys.readouterr().err
    assert sorted(out_dir.iterdir()) == ([] if earlier is None else [out])
    if earlier is not None:
        assert out.read_bytes() == earlier


@pytest.mark.parametrize("command", ["place", "dump-trees"])
def test_an_out_in_a_missing_directory_names_out(command, bundle_dir, tmp_path, capsys):
    # The error names --out, not the temporary file written beside it.
    out = tmp_path / "missing" / "out.json"
    assert main([command, *place_args(bundle_dir, out)[1:]]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


def _truncate_runs(mask: Path) -> None:
    """Cut the run bytes of an .rle label map short; its header stays whole."""
    data = mask.read_bytes()
    mask.write_bytes(data[: 16 + (len(data) - 16) // 2])


def _first_mask_of(bundle: Path, intersection_id: str) -> Path:
    buffers = {b.intersection_id: b for b in load_buffers(str(bundle / "buffers.json"))}
    first = images_in_buffer(load_images(str(bundle / "images.json")), buffers[intersection_id])[0]
    return bundle / "masks" / f"{first.image_id}.rle"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_first_failing_buffer_wins_at_any_jobs(bundle20_dir, tmp_path, capsys):
    # Whichever process reaches a fault first, the error is the one --jobs 1
    # raises: that of the lowest failing buffer.
    broken = tmp_path / "broken"
    shutil.copytree(bundle20_dir, broken)
    first, later = _first_mask_of(broken, "x0001"), _first_mask_of(broken, "x0004")
    _truncate_runs(first)
    _truncate_runs(later)
    errors = []
    for jobs in ("1", "2", "3"):
        out_dir = tmp_path / f"out{jobs}"
        out_dir.mkdir()
        assert main(place_args(broken, out_dir / "pred.geojson", ["--jobs", jobs])) == 2
        errors.append(capsys.readouterr().err)
        assert list(out_dir.iterdir()) == []
        assert_no_child_left()
    assert first.name in errors[0] and later.name not in errors[0]
    assert errors == [errors[0]] * 3


def _buffer_sizes(bundle: Path) -> list[int]:
    """The image count of each buffer's slice, in buffer order."""
    files = ("images.json", "masks", "detections.jsonl", "footprints.geojson", "buffers.json")
    parts = slice_bundle(load_inputs(*(str(bundle / name) for name in files)), RunConfig())
    return [part.n_images for part in parts]


def assert_fair_deal(sizes: list[int], n: int) -> None:
    """deal gives each buffer to exactly one of n processes, each share in
    buffer order, and the process loads differ by at most the largest size."""
    shares = deal(sizes, n)
    assert shares == deal(sizes, n) and len(shares) == n
    assert sorted(i for share in shares for i in share) == list(range(len(sizes)))
    assert all(share == sorted(share) for share in shares)
    loads = [sum(sizes[i] for i in share) for share in shares]
    assert max(loads) - min(loads) <= max(sizes, default=0)


@pytest.mark.parametrize("n", [2, 3])
def test_the_deal_is_balanced_by_image_count(n, bundle20_dir):
    # The bundle alternates crossroads (4 tracks) with T-junctions (3), so a
    # deal by position would give one process every crossroad at n = 2.
    assert_fair_deal(_buffer_sizes(bundle20_dir), n)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), max_size=30), n=st.integers(1, 5))
def test_deal_gives_each_buffer_to_one_process(sizes, n):
    assert_fair_deal(sizes, n)


def test_place_jobs_loads_no_process_pool(bundle20_dir, tmp_path):
    out = tmp_path / "pred.geojson"
    argv = place_args(bundle20_dir, out, ["--jobs", "2"])
    code = (
        f"import sys, rop.cli; rc = rop.cli.main({argv!r}); "
        "print(rc, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 []"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLACE20_SHA256


def _worker_buffers(bundle: Path, n: int, k: int) -> set[str]:
    """The intersection ids that worker k of n places."""
    buffers = load_buffers(str(bundle / "buffers.json"))
    return {buffers[i].intersection_id for i in deal(_buffer_sizes(bundle), n)[k]}


def test_a_killed_worker_is_an_error_not_a_short_output(bundle20_dir, tmp_path, monkeypatch, capsys):
    # Worker 1 is killed mid-share. Worker 2 fills its pipe and blocks on it
    # until the parent, on its way out, closes the read end.
    import rop.cli

    parent, real = os.getpid(), rop.cli.run_intersection
    doomed, bulky = _worker_buffers(bundle20_dir, 3, 1), _worker_buffers(bundle20_dir, 3, 2)

    def run_intersection(part, cfg):
        if os.getpid() != parent:
            if part.buffer.intersection_id in doomed:
                os.kill(os.getpid(), signal.SIGKILL)
            if part.buffer.intersection_id in bulky:
                return IntersectionResult(diagnostics=[{"pad": "x" * 200_000}])
        return real(part, cfg)

    def hung(signum, frame):
        raise TimeoutError("the parent waits for a worker that is blocked on its pipe")

    monkeypatch.setattr(rop.cli, "run_intersection", run_intersection)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        assert main(place_args(bundle20_dir, out_dir / "pred.geojson", ["--jobs", "3"])) == 70
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert re.fullmatch(r"internal error: RuntimeError: place worker 1 \(pid \d+\) .*wait status 9\b.*\n", err)
    assert list(out_dir.iterdir()) == []
    assert_no_child_left()


def test_an_internal_fault_exits_70_in_one_line_at_any_jobs(bundle20_dir, tmp_path, monkeypatch, capsys):
    # A bug in rop is not an input error (2) and not a failed gate (1). The
    # line names the buffer being placed, whichever process placed it.
    import rop.cli

    real = rop.cli.run_intersection

    def run_intersection(part, cfg):
        if part.buffer.intersection_id == "x0003":
            raise KeyError("corner")
        return real(part, cfg)

    monkeypatch.setattr(rop.cli, "run_intersection", run_intersection)
    assert all("x0003" not in _worker_buffers(bundle20_dir, n, 0) for n in (2, 3))  # a worker's
    for jobs in ("1", "2", "3"):
        out_dir = tmp_path / f"out{jobs}"
        out_dir.mkdir()
        assert main(place_args(bundle20_dir, out_dir / "pred.geojson", ["--jobs", jobs])) == 70
        assert capsys.readouterr().err == "internal error: x0003: KeyError: 'corner'\n"
        assert list(out_dir.iterdir()) == []
        assert_no_child_left()


@pytest.mark.parametrize("offset_m", ["20", "1e5"])
def test_an_offset_m_past_a_corner_names_it_and_the_buffer(offset_m, bundle20_dir, tmp_path, capsys):
    # Every buffer of fixtures20 has a chosen corner nearer its center than
    # 20 m, so the lowest buffer, x0000, fails first at any --jobs.
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"out{jobs}"
        out_dir.mkdir()
        extra = ["--jobs", jobs, "--set", f"offset_m={offset_m}"]
        assert main(place_args(bundle20_dir, out_dir / "pred.geojson", extra)) == 2
        err = capsys.readouterr().err
        pattern = rf"error: x0000: offset_m must be below (\d+\.\d+) m, .*, got {float(offset_m)}\n"
        match = re.fullmatch(pattern, err)
        assert match and float(match[1]) < float(offset_m), err
        assert list(out_dir.iterdir()) == []
        assert_no_child_left()


def test_jobs_above_one_needs_fork(bundle_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(SystemExit) as exc:
        main(place_args(bundle_dir, tmp_path / "pred.geojson", ["--jobs", "2"]))
    assert exc.value.code == 64
    assert "os.fork" in capsys.readouterr().err
    assert main(place_args(bundle_dir, tmp_path / "pred.geojson", ["--jobs", "1"])) == 0


def test_place_writes_through_a_symlink(bundle_dir, tmp_path):
    # The file the link names is replaced; the link stays a link.
    target = tmp_path / "real.geojson"
    target.write_bytes(b"an earlier run\n")
    link = tmp_path / "link.geojson"
    link.symlink_to(target)
    assert main(place_args(bundle_dir, link)) == 0
    assert link.is_symlink()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PLACE_SHA256
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.geojson", "real.geojson"]


def test_write_json_writes_a_pipe_in_place(tmp_path):
    # A pipe or a device, such as /dev/stdout, cannot be renamed onto.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_json(str(fifo), [("a", iter([1, 2])), ("b", {"c": None})])
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [(json.dumps({"a": [1, 2], "b": {"c": None}}, indent=2, sort_keys=True) + "\n").encode()]
    assert fifo.is_fifo() and list(tmp_path.iterdir()) == [fifo]


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
# Ids, categories and subtypes with non-ASCII text, which the output escapes.
_name = st.text(alphabet=st.sampled_from("aZ_:-09 éß北\u200b\"\\\n"), max_size=8)
_placed = st.builds(
    PlacedObject,
    category=_name,
    subtype=st.none() | _name,
    light_kind=st.sampled_from([None, "high", "low"]),
    position=st.builds(GeoPoint, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
    height_m=st.none() | st.floats(0.0, 10.0),
    source_images=st.lists(_name, max_size=3),
    support=st.integers(1, 9),
    inferred_only=st.booleans(),
    intersection_id=_name,
    confidence=st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(
    placed=st.lists(_placed, max_size=30),
    diagnostics=st.lists(st.dictionaries(st.text(max_size=5), _json_values, max_size=3), max_size=3),
)
def test_streamed_place_output_is_the_whole_document_dumped(placed, diagnostics, tmp_path_factory):
    out = tmp_path_factory.mktemp("streamed") / "pred.geojson"
    write_placed(str(out), placed, diagnostics)
    doc = {**to_geojson(placed), "diagnostics": diagnostics}
    assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert list(out.parent.iterdir()) == [out]


_tree = st.fixed_dictionaries(
    {"image_id": _name, "nodes": st.lists(st.dictionaries(_name, _json_scalars, max_size=4), max_size=4)}
)


@settings(max_examples=60, deadline=None)
@given(
    doc=st.dictionaries(_name, st.dictionaries(_name, st.lists(_tree, max_size=3), max_size=3), max_size=4),
    listed=st.lists(_json_values, max_size=4),
)
def test_streamed_trees_are_the_whole_document_dumped(doc, listed, tmp_path_factory):
    # As dump-trees writes them: one buffer's trees at a time, in key order.
    out = tmp_path_factory.mktemp("streamed") / "trees.json"
    write_json(str(out), ((key, doc[key]) for key in sorted(doc)))
    assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # A value that is an iterator is written as a list, one item at a time.
    write_json(str(out), [("listed", iter(listed)), ("~", doc)])
    expected = json.dumps({"listed": listed, "~": doc}, indent=2, sort_keys=True) + "\n"
    assert out.read_text(encoding="utf-8") == expected


def fresh_env(openblas_threads: str | None = None) -> dict[str, str]:
    """The environment of a new interpreter on rop's source.
    OPENBLAS_NUM_THREADS is unset unless given (importing rop.cli here has set
    it in this process), and so is PYTHONUNBUFFERED, so a piped stdout is
    block-buffered as by default."""
    unset = ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


def fresh_python(*args: str, openblas_threads: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=fresh_env(openblas_threads),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_import_leaves_scipy_out():
    # Nor does it load what `rop place` never runs: the renderer and the
    # evaluator are imported where they are used, and no process pool is.
    unused = ("scipy", "rop.synth", "rop.evalx", "concurrent.futures.process")
    code = f"import sys, rop.cli; print([m for m in {unused!r} if m in sys.modules])"
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module, preset, expected",
    [("rop.cli", None, "1"), ("rop.cli", "4", "4"), ("rop.placer", None, "None")],
)
def test_openblas_threads_default(module, preset, expected):
    code = f"import os, {module}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = fresh_python("-c", code, openblas_threads=preset)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == expected


@pytest.mark.parametrize("collecting", [True, False])
def test_cli_import_leaves_the_collector_as_it_found_it(collecting):
    # rop.cli pauses the collector while it imports, and no longer.
    code = f"import gc; gc.{'enable' if collecting else 'disable'}(); import rop.cli; print(gc.isenabled())"
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(collecting)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through /proc")
def test_cli_import_starts_no_blas_thread():
    # The default reaches OpenBLAS only if it is set before numpy is imported.
    code = "import os, rop.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


def test_synth_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), "--fixtures", "2", "--seed", "9"]) == 0
    assert main(["synth", "--out", str(b), "--fixtures", "2", "--seed", "9"]) == 0
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_synth_zero_fixtures_writes_empty_manifest(tmp_path):
    out = tmp_path / "empty"
    assert main(["synth", "--out", str(out), "--fixtures", "0"]) == 0
    assert json.loads((out / "layouts.json").read_text()) == []
    assert json.loads((out / "images.json").read_text()) == []
    assert json.loads((out / "truth.geojson").read_text())["features"] == []


def test_synth_invalid_layout_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"intersection_id": "z", "nope": 1}))
    rc = main(["synth", "--out", str(tmp_path / "o"), "--layout", str(bad)])
    assert rc == 2
    assert "invalid layout" in capsys.readouterr().err
    # Every malformed layout of the loader's test exits 2 naming the file and the field,
    # before any mask is written, even where the bad layout follows good ones.
    for case in BAD_LAYOUTS:
        text, where = case.values
        bad.write_text(text)
        assert main(["synth", "--out", str(tmp_path / "o"), "--layout", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and where in err
        assert not (tmp_path / "o").exists()


def test_synth_layout_invalid_json_names_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n")
    assert main(["synth", "--out", str(tmp_path / "o"), "--layout", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


def test_synth_requires_exactly_one_source(tmp_path, capsys):
    # Neither source, or both, is a usage error.
    for source in ([], ["--layout", "layouts.json", "--fixtures", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "o"), *source])
        assert exc.value.code == 64
        assert capsys.readouterr().err.startswith("usage: rop synth")
        assert not (tmp_path / "o").exists()


def test_synth_rejects_negative_fixtures(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--fixtures", "-1"]) == 2
    assert "--fixtures must be at most 2**62 and >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_synth_holds_one_layout_of_label_maps_at_a_time(tmp_path, monkeypatch):
    # Each layout's maps are written and dropped before the next is rendered.
    import rop.synth

    render = rop.synth.render_bundle
    earlier: list[weakref.ref] = []
    alive = {}  # intersection id -> label maps of earlier layouts alive as it renders

    def tracked(layout):
        alive[layout.intersection_id] = sum(ref() is not None for ref in earlier)
        bundle, truth = render(layout)
        earlier.extend(weakref.ref(runs) for runs in bundle.label_maps.values())
        return bundle, truth

    monkeypatch.setattr(rop.synth, "render_bundle", tracked)
    assert main(["synth", "--out", str(tmp_path), "--fixtures", "3", "--seed", "1"]) == 0
    assert alive == {"x0000": 0, "x0001": 0, "x0002": 0}
    assert len(earlier) == len(list((tmp_path / "masks").iterdir())) > 0


# What rop place writes when it places nothing.
EMPTY_PLACED = b'{\n  "diagnostics": [],\n  "features": [],\n  "type": "FeatureCollection"\n}\n'


def test_place_empty_bundle_exits_three(tmp_path):
    out = tmp_path / "empty"
    assert main(["synth", "--out", str(out), "--fixtures", "0"]) == 0
    rc = main(place_args(out, tmp_path / "pred.geojson"))
    assert rc == 3
    assert (tmp_path / "pred.geojson").read_bytes() == EMPTY_PLACED


def test_eval_perfect_run_and_gate(bundle_dir, tmp_path, capsys):
    pred = tmp_path / "pred.geojson"
    assert main(place_args(bundle_dir, pred)) == 0
    ref = bundle_dir / "truth.geojson"
    rc = main(["eval", "--pred", str(pred), "--ref", str(ref), "--min-completeness", "0.97"])
    assert rc == 0
    assert "overall" in capsys.readouterr().out

    # Starve the predictions: completeness collapses and the gate trips.
    doc = json.loads(pred.read_text())
    doc["features"] = doc["features"][:1]
    starved = tmp_path / "starved.geojson"
    starved.write_text(json.dumps(doc))
    rc = main(["eval", "--pred", str(starved), "--ref", str(ref), "--min-completeness", "0.97"])
    assert rc == 1


def test_eval_empty_ref_reports_absent_completeness(bundle_dir, tmp_path, capsys):
    pred = tmp_path / "pred.geojson"
    assert main(place_args(bundle_dir, pred)) == 0
    empty = tmp_path / "none.geojson"
    empty.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
    rc = main(["eval", "--pred", str(pred), "--ref", str(empty)])
    assert rc == 0
    table = capsys.readouterr().out
    line = [ln for ln in table.splitlines() if ln.startswith("overall")][0]
    assert " - " in line


def test_eval_gate_on_an_empty_ref_names_the_file(bundle_dir, tmp_path, capsys):
    # With no reference there is no completeness to gate on.
    empty = tmp_path / "none.geojson"
    empty.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
    out = tmp_path / "report.txt"
    truth = str(bundle_dir / "truth.geojson")
    argv = ["eval", "--pred", truth, "--ref", str(empty), "--out", str(out), "--min-completeness", "0.5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {empty}: no reference objects, so --min-completeness cannot be checked\n"
    )
    assert not out.exists()


def test_eval_json_report(bundle_dir, tmp_path, capsys):
    pred = tmp_path / "pred.geojson"
    assert main(place_args(bundle_dir, pred)) == 0
    rc = main(
        ["eval", "--pred", str(pred), "--ref", str(bundle_dir / "truth.geojson"), "--json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["groups"][0]["group"] == "overall"
    assert doc["groups"][0]["completeness"] == 1.0


def _truth_with(bundle: Path, bad_feature: dict) -> dict:
    doc = json.loads((bundle / "truth.geojson").read_text())
    doc["features"] = [doc["features"][0], bad_feature]
    return doc


@pytest.mark.parametrize(
    "feature, fragment",
    [
        pytest.param({}, "features[1]: geometry.type must be Point", id="no-geometry"),
        pytest.param(
            {"geometry": {"type": "Polygon", "coordinates": [[[13.4, 52.5]]]}},
            "features[1]: geometry.type must be Point",
            id="polygon",
        ),
        pytest.param(5, "features[1]: expected a JSON object", id="int-feature"),
        pytest.param(
            {"geometry": {"type": "Point"}},
            "features[1]: geometry.coordinates must be [lon, lat]",
            id="no-coordinates",
        ),
        pytest.param(
            {"geometry": {"type": "Point", "coordinates": [13.4]}},
            "features[1]: geometry.coordinates must be [lon, lat]",
            id="one-coordinate",
        ),
        pytest.param(
            {
                "geometry": {"type": "Point", "coordinates": [13.4, "52.5"]},
                "properties": {"category": "traffic_sign"},
            },
            "features[1]: lat must be a number",
            id="string-coordinate",
        ),
        pytest.param(
            {"geometry": {"type": "Point", "coordinates": [13.4, 52.5]}, "properties": []},
            "features[1]: properties must be an object",
            id="array-properties",
        ),
        pytest.param(
            {
                "geometry": {"type": "Point", "coordinates": [13.4, 52.5]},
                "properties": {"category": "traffic_sign", "support": None},
            },
            "features[1]: support must be a number",
            id="null-support",
        ),
        pytest.param(
            {"geometry": {"type": "Point", "coordinates": [13.4, 52.5]}, "properties": {"support": 2}},
            "features[1]: missing field 'category'",
            id="category-absent",
        ),
    ]
    + [
        pytest.param(
            {
                "geometry": {"type": "Point", "coordinates": [13.4, 52.5]},
                "properties": {"category": "traffic_sign", **props},
            },
            f"features[1]: {fragment}",
            id=name,
        )
        for name, props, fragment in [
            ("sources-number", {"source_images": 5}, "source_images must be a list"),
            ("sources-mixed", {"source_images": ["a", 3]}, "source_images[1] must be a string"),
            ("category-number", {"category": 5}, "category must be a string"),
            ("category-missing", {"category": None}, "category must be a string"),
            ("subtype-number", {"subtype": 3}, "subtype must be a string or null"),
            ("light-kind-list", {"light_kind": ["high"]}, "light_kind must be a string or null"),
            ("intersection-number", {"intersection_id": 7}, "intersection_id must be a string"),
            ("height-string", {"height_m": "7"}, "height_m must be a number"),
            ("inferred-only-string", {"inferred_only": "no"}, "inferred_only must be a boolean"),
        ]
    ],
)
@pytest.mark.parametrize("flag", ["--pred", "--ref"])
def test_eval_rejects_malformed_feature(flag, feature, fragment, bundle_dir, tmp_path, capsys):
    bad = tmp_path / "bad.geojson"
    bad.write_text(json.dumps(_truth_with(bundle_dir, feature)))
    truth = str(bundle_dir / "truth.geojson")
    argv = ["eval", "--pred", truth, "--ref", truth]
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {fragment}" in err


EVAL_RANGES = {"--radius": "> 0", "--min-completeness": "in [0, 1]"}


@pytest.mark.parametrize(
    "flag, value",
    # The --radius cases keep their value alone as their test id.
    [pytest.param("--radius", v, id=v) for v in ["nan", "-5", "0", "inf"]]
    + [
        pytest.param("--min-completeness", v, id=f"min-completeness={v}")
        for v in ["nan", "inf", "-0.1", "1.1"]
    ],
)
def test_eval_rejects_bad_radius(flag, value, bundle_dir, tmp_path, capsys):
    truth = str(bundle_dir / "truth.geojson")
    out = tmp_path / "report.txt"
    assert main(["eval", "--pred", truth, "--ref", truth, "--out", str(out), flag, value]) == 2
    assert f"{flag} must be finite and {EVAL_RANGES[flag]}, got " in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_non_object_document(bundle_dir, tmp_path, capsys):
    truth = bundle_dir / "truth.geojson"
    bad = tmp_path / "bad.geojson"
    for doc, fragment in [
        (json.loads(truth.read_text())["features"], "expected a GeoJSON FeatureCollection"),
        ({"type": "FeatureCollection", "features": 5}, "features must be a list"),
    ]:
        bad.write_text(json.dumps(doc))
        assert main(["eval", "--pred", str(bad), "--ref", str(truth)]) == 2
        assert f"{bad}: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(
            lambda truth: truth["features"][0], "expected a GeoJSON FeatureCollection", id="one-feature"
        ),
        pytest.param(lambda truth: {"type": "FeatureCollection"}, "features must be a list", id="no-features"),
        pytest.param(
            lambda truth: {"features": truth["features"]}, "expected a GeoJSON FeatureCollection", id="no-type"
        ),
    ],
)
@pytest.mark.parametrize("flag", ["--pred", "--ref"])
def test_eval_reads_only_a_feature_collection(flag, doc, message, bundle_dir, tmp_path, capsys):
    # None of these is a FeatureCollection with a features list, so none
    # reads as zero objects, and a gate is not passed by default.
    truth = bundle_dir / "truth.geojson"
    bad = tmp_path / "bad.geojson"
    bad.write_text(json.dumps(doc(json.loads(truth.read_text()))))
    argv = ["eval", "--pred", str(truth), "--ref", str(truth), "--min-completeness", "1.0"]
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_eval_reads_a_point_with_an_altitude_as_a_vertex_is_read(bundle_dir, tmp_path, capsys):
    truth = bundle_dir / "truth.geojson"
    doc = json.loads(truth.read_text())
    for feat in doc["features"]:
        feat["geometry"]["coordinates"].append(12.5)
    high = tmp_path / "high.geojson"
    high.write_text(json.dumps(doc))
    assert main(["eval", "--pred", str(truth), "--ref", str(truth), "--json"]) == 0
    flat = capsys.readouterr().out
    assert main(["eval", "--pred", str(high), "--ref", str(high), "--json"]) == 0
    assert capsys.readouterr().out == flat
    assert json.loads(flat)["groups"][0]["completeness"] == 1.0


def test_dump_trees_exports_heap_nodes(bundle_dir, tmp_path):
    out = tmp_path / "trees.json"
    argv = place_args(bundle_dir, out)
    argv[0] = "dump-trees"
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"x0000", "x0001"}
    some_track = next(iter(doc["x0000"].values()))
    nodes = some_track[0]["nodes"]
    indices = [n["heap_index"] for n in nodes]
    assert indices[0] == 1 and len(set(indices)) == len(indices)


def test_config_show_lists_defaults_and_overrides(tmp_path, capsys):
    assert main(["config", "--show"]) == 0
    out = capsys.readouterr().out
    assert "offset_m = 2.5" in out
    assert "ring_px = 15" in out
    assert len(out.splitlines()) == 9
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("high_factor = 4.5  # widened\n")
    assert main(["config", "--show", "--config", str(cfg_file), "--set", "ring_px=20"]) == 0
    out = capsys.readouterr().out
    assert "high_factor = 4.5" in out
    assert "ring_px = 20" in out


def test_config_without_show_only_checks(capsys):
    assert main(["config"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["config", "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_rejects_unknown_key(capsys):
    assert main(["config", "--show", "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, expected",
    [
        (b"ring_px = 20\n\xff\n", "'utf-8' codec can't decode"),
        (b"ring_px = 20\n# note\nring_px 30\n", "line 3: expected key = value"),
    ],
    ids=["not-utf8", "no-equals"],
)
def test_config_file_error_names_file(content, expected, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(content)
    assert main(["config", "--show", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_file}: ") and expected in err


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # Windows Notepad saves UTF-8 with a BOM; the first key must still be known.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"\xef\xbb\xbfring_px = 12\n")
    assert main(["config", "--show", "--config", str(cfg_file)]) == 0
    assert "ring_px = 12" in capsys.readouterr().out


def test_config_override_without_equals_names_it(capsys):
    assert main(["config", "--show", "--set", "ring_px 20"]) == 2
    assert "override 'ring_px 20' is not key=value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key",
    [
        "seed", "jobs", "buffer_radius_m", "match_radius_m", "low_factor", "sidewalk_gap_px", "dedup_radius_m",
        "high_height_m", "low_height_m",
    ],
)
def test_config_rejects_removed_key(key, capsys):
    assert main(["config", "--show", "--set", f"{key}=1"]) == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err and key in err


def _count_calls(monkeypatch, module, *names) -> list:
    """Replace each module.name with a wrapper that records the arguments of
    each call, all in one list."""
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


def _count_mask_reads(monkeypatch) -> list:
    """Every label-map read, from either mask format."""
    import rop.labelmap

    return _count_calls(monkeypatch, rop.labelmap, "read_label_map")


INVALID_VALUES = [
    "ring_px=0",
    "high_factor=0",
    "stack_dx_frac=1",
    "offset_m=nan",
    "corner_radius_m=-1",
    "corner_radius_m=0",
    "iou_min=inf",
    "iou_min=1.5",
    "min_region_px=-5",
    "inner_radius_m=-inf",
    # Ints above 2**62, where ring_px added to a pixel coordinate can leave int64.
    "ring_px=9223372036854775807",
    "ring_px=10000000000000000000",
    "min_region_px=4611686018427387905",
    "ring_px=abc",
]


@pytest.mark.parametrize("override", INVALID_VALUES)
def test_config_rejects_invalid_value(override, bundle_dir, tmp_path, monkeypatch, capsys):
    assert main(["config", "--show", "--set", override]) == 2
    assert override.split("=")[0] in capsys.readouterr().err
    reads = _count_mask_reads(monkeypatch)
    out = tmp_path / "pred.geojson"
    assert main(place_args(bundle_dir, out, ["--set", override])) == 2
    assert override.split("=")[0] in capsys.readouterr().err
    assert reads == [] and not out.exists()


def test_place_rejects_invalid_config_before_reading_maps(bundle_dir, tmp_path, monkeypatch, capsys):
    calls = _count_mask_reads(monkeypatch)
    out = tmp_path / "pred.geojson"
    assert main(place_args(bundle_dir, out, ["--set", "ring_px=0"])) == 2
    assert "ring_px" in capsys.readouterr().err
    assert calls == [] and not out.exists()
    # The counter does see the reads of a valid run.
    assert main(place_args(bundle_dir, out)) == 0
    assert calls


def test_place_config_override_changes_behavior(tmp_path):
    # A layout whose only object is one high light; raising min_region_px
    # far beyond the light's pixel size suppresses every placement.
    from rop.synth import TruthObject

    lay = Layout(
        intersection_id="cfg0",
        center=GeoPoint(52.5, 13.4),
        footprints=[
            RectFootprint("cfg0-nw", -29.5, 9.5, -9.5, 29.5, 12.0),
            RectFootprint("cfg0-ne", 9.5, 9.5, 29.5, 29.5, 12.0),
            RectFootprint("cfg0-sw", -29.5, -29.5, -9.5, -9.5, 12.0),
            RectFootprint("cfg0-se", 9.5, -29.5, 29.5, -9.5, 12.0),
        ],
        truth_objects=[TruthObject("traffic_light", None, "high", LocalPoint(-9.5, 0.0), 7.0)],
        cameras=[
            CameraPose(f"cfg0-WE-{k:02d}", "cfg0-WE-s0", LocalPoint(-40.0 + 8.0 * k, -3.5), 90.0)
            for k in range(4)
        ],
    )
    src = tmp_path / "layout.json"
    save_layouts([lay], str(src))
    out = tmp_path / "b"
    assert main(["synth", "--out", str(out), "--layout", str(src)]) == 0
    pred = tmp_path / "pred.geojson"
    assert main(place_args(out, pred)) == 0
    assert len(json.loads(pred.read_text())["features"]) == 1
    pred2 = tmp_path / "pred2.geojson"
    assert main(place_args(out, pred2, ["--set", "min_region_px=4000"])) == 3
    assert json.loads(pred2.read_text())["features"] == []


def test_place_loads_the_bundle_once_and_workers_never(bundle_dir, tmp_path, monkeypatch):
    import rop.cli

    calls = tmp_path / "load_inputs.calls"
    real = rop.cli.load_inputs

    def logging_load_inputs(*args, **kwargs):
        # A file, not a list: forked workers would append to their own copy.
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(rop.cli, "load_inputs", logging_load_inputs)
    assert main(place_args(bundle_dir, tmp_path / "pred.geojson", ["--jobs", "2"])) == 0
    assert calls.read_text().split() == [str(os.getpid())]


@pytest.mark.parametrize("command", ["place", "dump-trees"])
def test_each_buffer_is_sliced_once(command, bundle_dir, tmp_path, monkeypatch):
    import rop.cli
    import rop.placer

    calls = []
    real = rop.placer.slice_bundle

    def counting_slice(*args, **kwargs):
        slices = real(*args, **kwargs)
        calls.append([part.buffer.intersection_id for part in slices])
        return slices

    monkeypatch.setattr(rop.cli, "slice_bundle", counting_slice)
    monkeypatch.setattr(rop.placer, "slice_bundle", counting_slice)
    argv = place_args(bundle_dir, tmp_path / "out.json", ["--jobs", "1"] if command == "place" else [])
    argv[0] = command
    assert main(argv) == 0
    assert calls == [["x0000", "x0001"]]


@pytest.mark.parametrize("command", ["place", "dump-trees"])
def test_each_coordinate_is_projected_once(command, bundle_dir, tmp_path, monkeypatch):
    # Slicing makes each buffer's frame, projects each camera and each
    # footprint vertex into it once, classifies and measures the distance
    # from the center of each camera it keeps once, and finds each outline's
    # corner once; nothing after it does any of these again, and no position
    # that placement unprojected is projected back.
    import rop.cli
    import rop.geo
    import rop.ingest
    import rop.placer

    loaded, frames, projected = [], [], collections.Counter()
    classified, unprojected = collections.Counter(), set()
    real_load, real_frame, real_project = rop.cli.load_inputs, rop.geo.make_frame, rop.geo.project
    real_classify, real_unproject = rop.placer.classify_camera, rop.geo.unproject
    measured, cornered = collections.Counter(), collections.Counter()
    real_hypot, real_nearest = math.hypot, rop.placer.nearest_vertex

    def loading(*args):
        loaded.append(real_load(*args))
        return loaded[-1]

    def making_frame(center):
        if loaded:  # load_buffers makes one to check each center
            frames.append(center)
        return real_frame(center)

    def projecting(frame, p):
        projected[frame, p] += 1
        return real_project(frame, p)

    def classifying(cam, *args):
        classified[cam] += 1
        return real_classify(cam, *args)

    def unprojecting(frame, q):
        p = real_unproject(frame, q)
        unprojected.add(p)
        return p

    def hypot(*args):
        measured[args] += 1
        return real_hypot(*args)

    def nearest(pts, q):
        if q == LocalPoint(0.0, 0.0):
            cornered[tuple(pts)] += 1
        return real_nearest(pts, q)

    monkeypatch.setattr(rop.cli, "load_inputs", loading)
    monkeypatch.setattr(rop.placer, "classify_camera", classifying)
    monkeypatch.setattr(math, "hypot", hypot)
    monkeypatch.setattr(rop.placer, "nearest_vertex", nearest)
    for module in (rop.geo, rop.ingest, rop.placer):
        for name, fn in (("make_frame", making_frame), ("project", projecting), ("unproject", unprojecting)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    argv = place_args(bundle_dir, tmp_path / "out.json", ["--jobs", "1"] if command == "place" else [])
    argv[0] = command
    assert main(argv) == 0
    (bundle,) = loaded
    assert sorted(frames, key=astuple) == sorted((b.center for b in bundle.buffers), key=astuple)
    inputs = {im.position for im in bundle.images} | {v for fp in bundle.footprints for v in fp.ring}
    counts = [n for (_, p), n in projected.items() if p in inputs]
    assert counts and set(counts) == {1}
    monkeypatch.undo()
    slices = rop.placer.slice_bundle(bundle, RunConfig())
    kept = [cam for part in slices for t in part.tracks for cam in t.cams]
    assert kept and all(classified[cam] == 1 for cam in kept)
    assert all(measured[cam.x, cam.y] == 1 for cam in kept)
    outlines = [tuple(outline[1]) for part in slices for outline in part.outlines]
    assert outlines and all(cornered[pts] == 1 for pts in outlines)
    assert not unprojected & {p for _, p in projected}


def test_a_collinear_footprint_exits_2_naming_the_file_and_the_footprint(bundle_dir, tmp_path, capsys):
    # A ring along one line, (6, -6) -> (11, -11) -> (16, -16) m from x0000's
    # center, encloses no area. Before the loader refused it, rop placed
    # against it: 28 predictions where the bundle gives 25.
    broken = tmp_path / "broken"
    shutil.copytree(bundle_dir, broken)
    (x0000,) = [b for b in load_buffers(str(broken / "buffers.json")) if b.intersection_id == "x0000"]
    frame = make_frame(x0000.center)
    line = [unproject(frame, LocalPoint(x, -x)) for x in (6.0, 11.0, 16.0, 6.0)]
    doc = json.loads((broken / "footprints.geojson").read_text())
    doc["features"].append(feature("Polygon", [[[v.lon, v.lat] for v in line]], {"id": "line"}))
    (broken / "footprints.geojson").write_text(json.dumps(doc))
    out = tmp_path / "pred.geojson"
    assert main(place_args(broken, out)) == 2
    err = capsys.readouterr().err
    assert f"footprints.geojson: features[{len(doc['features']) - 1}] (line) has a zero-area ring" in err
    assert not out.exists()


def test_a_buffer_whose_images_all_lack_a_heading(bundle_dir, tmp_path):
    # Each of x0001's images is kept by its slice and warned about once, at
    # any --jobs, but joins no track: the buffer has no trees, places nothing
    # and notes nothing, since no track failed to find corners. x0000 places
    # as before.
    bundle = tmp_path / "headless"
    shutil.copytree(bundle_dir, bundle)
    images = json.loads((bundle / "images.json").read_text())
    for image in images:
        if image["image_id"].startswith("x0001-"):
            image["heading_deg"] = None
    (bundle / "images.json").write_text(json.dumps(images))
    buffer = next(b for b in load_buffers(str(bundle / "buffers.json")) if b.intersection_id == "x0001")
    kept = images_in_buffer(load_images(str(bundle / "images.json")), buffer)
    assert kept and all(im.image_id.startswith("x0001-") for im in kept)
    warnings = [f"WARNING image {im.image_id} (intersection x0001) has no heading; excluded from tracks" for im in kept]

    def logged(stderr):  # each line without the name of the logger
        return [line.split(" ", 1)[1] for line in stderr.splitlines()]

    for jobs in ("1", "2"):
        out = tmp_path / f"pred{jobs}.geojson"
        proc = run_rop(*place_args(bundle, out, ["--jobs", jobs]))
        assert proc.returncode == 0, proc.stderr
        assert logged(proc.stderr) == warnings
        doc = json.loads(out.read_text())
        assert [d for d in doc["diagnostics"] if d["intersection_id"] == "x0001"] == []
        assert {f["properties"]["intersection_id"] for f in doc["features"]} == {"x0000"}
    argv = place_args(bundle, tmp_path / "trees.json")
    argv[0] = "dump-trees"
    proc = run_rop(*argv)
    assert proc.returncode == 0, proc.stderr
    assert logged(proc.stderr) == warnings
    assert json.loads((tmp_path / "trees.json").read_text())["x0001"] == {}


def test_place_bundle_wider_than_one_frame(tmp_path):
    # The second intersection sits 0.06 deg north of the first, beyond the
    # 0.05 deg span of a tangent frame; each buffer must still place.
    near, far = standard_fixtures(2, seed=1)
    far = dataclasses.replace(far, center=GeoPoint(near.center.lat + 0.06, near.center.lon))
    src = tmp_path / "layouts.json"
    save_layouts([near, far], str(src))
    bundle = tmp_path / "b"
    assert main(["synth", "--out", str(bundle), "--layout", str(src)]) == 0
    ref = str(bundle / "truth.geojson")
    for jobs in ("1", "2"):
        pred = tmp_path / f"pred{jobs}.geojson"
        assert main(place_args(bundle, pred, ["--jobs", jobs])) == 0
        doc = json.loads(pred.read_text())
        assert {f["properties"]["intersection_id"] for f in doc["features"]} == {"x0000", "x0001"}
        assert main(["eval", "--pred", str(pred), "--ref", ref, "--min-completeness", "0.97"]) == 0
    assert (tmp_path / "pred1.geojson").read_bytes() == (tmp_path / "pred2.geojson").read_bytes()


def test_place_drops_a_footprint_wider_than_the_frame(bundle_dir, tmp_path, caplog):
    # One vertex lies 0.0002 deg north and 0.0003 deg east of the first
    # centre, within reach of its cameras; the others lie 0.1 deg north and
    # east, beyond the 0.05 deg span of the buffer's frame.
    wide = tmp_path / "wide"
    shutil.copytree(bundle_dir, wide)
    center = json.loads((wide / "buffers.json").read_text())[0]
    lat, lon = center["lat"] + 0.0002, center["lon"] + 0.0003
    ring = [[lon, lat], [lon + 0.1, lat], [lon + 0.1, lat + 0.1], [lon, lat + 0.1], [lon, lat]]
    doc = json.loads((wide / "footprints.geojson").read_text())
    doc["features"].append(
        {
            "type": "Feature",
            "properties": {"id": "wide"},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }
    )
    (wide / "footprints.geojson").write_text(json.dumps(doc))
    for jobs in ("1", "2"):
        out = tmp_path / f"pred{jobs}.geojson"
        caplog.clear()
        assert main(place_args(wide, out, ["--jobs", jobs])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PLACE_SHA256
        assert "footprint wide reaches outside the frame span of buffer x0000" in caplog.text


def test_place_bundle_straddling_the_antimeridian(tmp_path):
    # Centred 0.00044 deg (49 m) east of -180, so each track's images lie on
    # both sides of the line.
    layouts = [
        dataclasses.replace(lay, center=GeoPoint(lay.center.lat, -179.99956))
        for lay in standard_fixtures(2, seed=1)
    ]
    src = tmp_path / "layouts.json"
    save_layouts(layouts, str(src))
    bundle = tmp_path / "b"
    assert main(["synth", "--out", str(bundle), "--layout", str(src)]) == 0
    lons = [im["lon"] for im in json.loads((bundle / "images.json").read_text())]
    assert min(lons) < -179.9999 and max(lons) > 179.9999
    pred = tmp_path / "pred.geojson"
    assert main(place_args(bundle, pred)) == 0
    ref = str(bundle / "truth.geojson")
    report = tmp_path / "report.json"
    assert main(["eval", "--pred", str(pred), "--ref", ref, "--json", "--out", str(report)]) == 0
    groups = {g["group"]: g for g in json.loads(report.read_text())["groups"]}
    assert groups["overall"]["n_ref"] > 0 and groups["overall"]["completeness"] == 1.0


@pytest.fixture(scope="module")
def placed_bytes(bundle_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("placed") / "pred.geojson"
    assert main(place_args(bundle_dir, out)) == 0
    return out.read_bytes()


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_place_is_invariant_to_record_order(seed, bundle_dir, placed_bytes, tmp_path_factory):
    # Permute the image records, the detection lines (so each image's
    # detections too), the footprint features and the buffers; neither the
    # placed bytes nor the trees' may move.
    rng = random.Random(seed)
    tmp_path = tmp_path_factory.mktemp("permuted")
    images = json.loads((bundle_dir / "images.json").read_text())
    rng.shuffle(images)
    lines = (bundle_dir / "detections.jsonl").read_text().splitlines()
    rng.shuffle(lines)
    footprints = json.loads((bundle_dir / "footprints.geojson").read_text())
    rng.shuffle(footprints["features"])
    buffers = json.loads((bundle_dir / "buffers.json").read_text())
    rng.shuffle(buffers)
    (tmp_path / "images.json").write_text(json.dumps(images))
    (tmp_path / "detections.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "footprints.geojson").write_text(json.dumps(footprints))
    (tmp_path / "buffers.json").write_text(json.dumps(buffers))
    argv = place_args(bundle_dir, tmp_path / "pred.geojson")
    for name in ("images", "detections", "footprints", "buffers"):
        i = argv.index(f"--{name}") + 1
        argv[i] = str(tmp_path / Path(argv[i]).name)
    assert main(argv) == 0
    assert (tmp_path / "pred.geojson").read_bytes() == placed_bytes
    argv[argv.index("--out") + 1] = str(tmp_path / "trees.json")
    assert main(["dump-trees", *argv[1:]]) == 0
    assert hashlib.sha256((tmp_path / "trees.json").read_bytes()).hexdigest() == DUMP_TREES_SHA256


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_place_is_invariant_to_ring_start_and_orientation(seed, bundle20_dir, tmp_path):
    # Each footprint ring starts at a seeded vertex, and about half of the
    # rings run the other way round; the placed bytes must not move.
    rng = random.Random(seed)
    doc = json.loads((bundle20_dir / "footprints.geojson").read_text())
    for feat in doc["features"]:
        ring = feat["geometry"]["coordinates"][0][:-1]
        k = rng.randrange(len(ring))
        ring = ring[k:] + ring[:k]
        if rng.random() < 0.5:
            ring.reverse()
        feat["geometry"]["coordinates"][0] = ring + ring[:1]
    (tmp_path / "footprints.geojson").write_text(json.dumps(doc))
    argv = place_args(bundle20_dir, tmp_path / "pred.geojson")
    argv[argv.index("--footprints") + 1] = str(tmp_path / "footprints.geojson")
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "pred.geojson").read_bytes()).hexdigest() == PLACE20_SHA256


def test_place_writes_diagnostics_in_intersection_id_order(bundle_dir, tmp_path):
    # Two more buffers of 5 m, each far from every camera, note no_images.
    # Whatever the order of the buffer records, the bytes are the same.
    buffers = json.loads((bundle_dir / "buffers.json").read_text())
    lat, lon = buffers[0]["lat"], buffers[0]["lon"]
    buffers += [{"intersection_id": iid, "lat": lat + 0.01, "lon": lon + dlon, "radius_m": 5.0}
                for iid, dlon in (("empty-a", 0.0), ("empty-b", 0.01))]
    outputs = []
    for order in (buffers, buffers[::-1]):
        (tmp_path / "buffers.json").write_text(json.dumps(order))
        argv = place_args(bundle_dir, tmp_path / "pred.geojson")
        argv[argv.index("--buffers") + 1] = str(tmp_path / "buffers.json")
        assert main(argv) == 0
        outputs.append((tmp_path / "pred.geojson").read_bytes())
    diagnostics = json.loads(outputs[0])["diagnostics"]
    assert [(d["intersection_id"], d["event"]) for d in diagnostics] == [
        ("empty-a", "no_images"), ("empty-b", "no_images")
    ]
    assert outputs[1] == outputs[0]


# ---------------------------------------------------------------------------
# The entry point as a process: `python -m rop.cli` ends through os._exit, so
# these check what in-process calls to main() cannot: the exit code, that
# piped stdout arrives whole, and that the output file is complete.


def run_rop(*argv: str) -> subprocess.CompletedProcess:
    return fresh_python("-m", "rop.cli", *argv)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_entry_point_places_pinned_bytes(jobs, bundle_dir, tmp_path):
    out = tmp_path / "pred.geojson"
    proc = run_rop(*place_args(bundle_dir, out, ["--jobs", jobs]))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLACE_SHA256


def test_entry_point_exit_codes(bundle_dir, tmp_path):
    truth = bundle_dir / "truth.geojson"
    doc = json.loads(truth.read_text())
    doc["features"] = doc["features"][1:]
    missed = tmp_path / "missed.geojson"
    missed.write_text(json.dumps(doc))
    gate = run_rop("eval", "--pred", str(missed), "--ref", str(truth), "--min-completeness", "1.0")
    assert gate.returncode == 1, gate.stderr

    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("images.json", "footprints.geojson", "buffers.json"):
        (bad / name).write_bytes((bundle_dir / name).read_bytes())
    (bad / "masks").symlink_to(bundle_dir / "masks")
    (bad / "detections.jsonl").write_bytes(b"\xff\n")
    proc = run_rop(*place_args(bad, tmp_path / "pred.geojson"))
    assert proc.returncode == 2
    assert "detections.jsonl: line 1: not valid UTF-8" in proc.stderr

    empty = tmp_path / "empty"
    assert main(["synth", "--out", str(empty), "--fixtures", "0"]) == 0
    assert run_rop(*place_args(empty, tmp_path / "none.geojson")).returncode == 3
    assert (tmp_path / "none.geojson").read_bytes() == EMPTY_PLACED

    usage = run_rop("place")
    assert usage.returncode == 64
    assert "usage: rop" in usage.stderr


@pytest.mark.parametrize("level", ["WARNING", "DEBUG"])
def test_entry_point_prints_a_fault_traceback_only_at_debug(level, bundle_dir, tmp_path):
    # x0001 is placed by the forked worker at --jobs 2; its traceback is
    # logged there, and the parent's last line is the fault's.
    code = (
        "import rop.cli\n"
        "def run_intersection(part, cfg):\n"
        "    if part.buffer.intersection_id == 'x0001':\n"
        "        raise KeyError('corner')\n"
        "    return real(part, cfg)\n"
        "real, rop.cli.run_intersection = rop.cli.run_intersection, run_intersection\n"
        "rop.cli.console_main()\n"
    )
    argv = place_args(bundle_dir, tmp_path / "pred.geojson", ["--jobs", "2"])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**fresh_env(), "ROP_LOG": level},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 70
    lines = proc.stderr.splitlines()
    assert lines[-1] == "internal error: x0001: KeyError: 'corner'"
    if level == "DEBUG":
        assert "Traceback (most recent call last)" in proc.stderr and "in run_intersection" in proc.stderr
    else:
        assert lines == lines[-1:]


@pytest.mark.parametrize(
    "argv", [["config", "--show"], ["eval"], ["eval", "--json"]], ids=["config", "eval", "eval-json"]
)
def test_entry_point_pipes_whole_stdout(argv, bundle_dir, capsys):
    if argv[0] == "eval":
        truth = str(bundle_dir / "truth.geojson")
        argv = [*argv, "--pred", truth, "--ref", truth]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    proc = run_rop(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def run_rop_into_a_closed_pipe(*argv: str) -> tuple[int, bytes]:
    """The exit code and stderr of rop run with argv, its stdout a pipe whose
    reader has gone away before rop writes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "rop.cli", *argv], env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


def test_entry_point_closed_pipe_exits_as_python_does():
    # A reader that goes away before rop writes: stdout cannot be flushed, and
    # the process exits as Python itself would, with 120 and no traceback.
    code, err = run_rop_into_a_closed_pipe("config", "--show")
    assert code == 120
    assert b"Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "place"])
def test_a_reader_that_closes_the_pipe_is_not_bad_input(command, bundle_dir, bundle20_dir, tmp_path, capsys):
    # The output is larger than the 8 KB stdio buffer, so the write fails
    # inside main, not at exit: a broken pipe ends rop quietly with 120.
    if command == "eval":
        truth = str(bundle20_dir / "truth.geojson")
        argv = ["eval", "--pred", truth, "--ref", truth, "--json"]
        assert main(argv) == 0
        size = len(capsys.readouterr().out)
    else:
        out = tmp_path / "pred.geojson"
        assert main(place_args(bundle_dir, out)) == 0
        size = out.stat().st_size
        argv = place_args(bundle_dir, Path("/dev/stdout"))
    assert size > 8192
    code, err = run_rop_into_a_closed_pipe(*argv)
    assert code == 120
    assert b"error:" not in err and b"Traceback" not in err
