"""Bundle loading, label-map I/O, buffers, and tracks."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import pickle
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rop import labelmap
from rop.atbt import AtbtNode, FusedObject
from rop.config import RunConfig
from rop.geo import Footprint, GeoPoint, LocalPoint, make_frame, project
from rop.ingest import (
    Bundle,
    BundleError,
    Detection,
    ImageMeta,
    IntersectionBuffer,
    from_json,
    load_buffers,
    load_detections,
    load_footprints,
    load_images,
    load_inputs,
    to_json,
)
from rop.labelmap import (
    CATEGORY_IDS,
    CATEGORY_NAMES,
    LabelRuns,
    MaskDirectory,
    label_map_size,
    read_label_map,
    runs_of,
    write_pgm,
    write_rle,
)
from rop.placer import PlacedObject, build_tracks, classify_camera, direction_of, slice_bundle
from rop.scene import SceneObject
from rop.synth import Layout, PedestrianSpec, RectFootprint

BERLIN = GeoPoint(52.52, 13.405)


def im(image_id, lat, lon, heading=90.0, seq="s0", w=64, h=48):
    return ImageMeta(
        image_id=image_id,
        position=GeoPoint(lat, lon),
        heading_deg=heading,
        sequence_id=seq,
        captured_at=None,
        width_px=w,
        height_px=h,
    )


# ---------------------------------------------------------------------------
# Category ids.


def test_registry_lookup_both_ways():
    assert CATEGORY_IDS["road"] == 1
    assert CATEGORY_IDS["traffic_light"] == 6
    assert CATEGORY_NAMES[7] == "traffic_sign"
    assert CATEGORY_NAMES[4] == "sky"


def test_category_ids_are_unique_bytes():
    ids = list(CATEGORY_IDS.values())
    assert len(set(ids)) == len(ids)
    assert all(isinstance(cid, int) and 0 <= cid <= 255 for cid in ids)
    assert CATEGORY_NAMES == {cid: name for name, cid in CATEGORY_IDS.items()}


# ---------------------------------------------------------------------------
# Label-map I/O (rop.labelmap) and the mask directory. The reference files
# below are assembled by hand, byte by byte, so the readers are checked
# against the formats themselves rather than against the writers.


def pixels(runs: LabelRuns) -> np.ndarray:
    return runs.rows(0, runs.height)


def same_runs(a: LabelRuns, b: LabelRuns) -> bool:
    return (
        (a.width, a.height) == (b.width, b.height)
        and np.array_equal(a.starts, b.starts)
        and np.array_equal(a.values, b.values)
    )


def test_read_pgm_hand_assembled(tmp_path):
    raster = bytes([0, 1, 2, 3, 4, 5])
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + raster)
    runs = read_label_map(str(path))
    assert (runs.width, runs.height) == (3, 2)
    assert runs.values.dtype == np.uint8
    assert pixels(runs).tolist() == [[0, 1, 2], [3, 4, 5]]


def test_read_pgm_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "odd.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + bytes(6))
    runs = read_label_map(str(path))
    assert pixels(runs).shape == (2, 3)
    assert label_map_size(str(path)) == (3, 2)


@pytest.mark.parametrize("pad", [0, 500, 501, 502, 504, 506, 507, 508, 3000])
def test_read_pgm_header_past_the_first_read(tmp_path, pad):
    # The pad values put the end of the comment, the width, the maxval and
    # the separator byte around the 512th byte, and 3000 far past it.
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n#" + b"x" * pad + b"\n3 2\n255\n" + bytes([0, 1, 2, 3, 4, 5]))
    assert pixels(read_label_map(str(path))).tolist() == [[0, 1, 2], [3, 4, 5]]
    assert label_map_size(str(path)) == (3, 2)


def test_read_pgm_runs_outlive_the_next_read(tmp_path):
    # Every PGM read scans its raster in labelmap's one scratch; the runs each
    # returns must not change when the next, smaller or larger, map is read.
    maps = [np.full((2, 3), 4, dtype=np.uint8), np.arange(12, dtype=np.uint8).reshape(3, 4) % 9]
    maps.append(maps[0])
    got = []
    for k, arr in enumerate(maps):
        path = tmp_path / f"m{k}.pgm"
        write_pgm(str(path), arr)
        got.append(read_label_map(str(path)))
    for arr, runs in zip(maps, got):
        assert np.array_equal(pixels(runs), arr)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 9, size=(17, 31), dtype=np.uint8)
    path = tmp_path / "rt.pgm"
    write_pgm(str(path), arr)
    assert same_runs(read_label_map(str(path)), runs_of(arr))
    assert label_map_size(str(path)) == (31, 17)


@pytest.mark.parametrize(
    "payload, fragment",
    [
        (b"P2\n3 2\n255\n" + bytes(6), "magic"),
        (b"P5\n3 2\n", "truncated PGM header"),
        pytest.param(b"P5\n#" + b"x" * 600, "truncated PGM header", id="endless-comment"),
        (b"P5\n3 2\n70000\n" + bytes(6), "16-bit"),
        (b"P5\n0 2\n255\n", "dimensions"),
        (b"P5\n3 2\n255\n" + bytes(5), "truncated raster"),
    ],
)
def test_read_pgm_rejects_malformed(tmp_path, payload, fragment):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(BundleError, match=fragment):
        read_label_map(str(path))


def test_read_pgm_names_the_file_of_a_non_numeric_header_token(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n3 two\n255\n" + bytes(6))
    with pytest.raises(BundleError, match=rf"^{re.escape(str(path))}: malformed PGM header$"):
        read_label_map(str(path))


def pgm_header_oracle(data: bytes) -> tuple[int, int, int] | str:
    """(width, height, raster offset) of a P5 file's bytes, or the message a
    header fault raises: a tokenizer that reads the header one byte at a
    time, in 512 bytes first and then in doubling reads, as the reader does."""
    fh = io.BytesIO(data)
    data = fh.read(512)
    if data[:2] != b"P5":
        return f"not a binary PGM (bad magic {data[:2]!r})"
    while True:
        tokens: list[bytes] = []
        i = 2
        n = len(data)
        while i < n and len(tokens) < 3:
            c = data[i : i + 1]
            if c in b" \t\r\n":
                i += 1
                continue
            if c == b"#":
                j = data.find(b"\n", i)
                i = n if j < 0 else j + 1
                continue
            j = i
            while j < n and data[j : j + 1] not in b" \t\r\n#":
                j += 1
            tokens.append(data[i:j])
            i = j
        # The last token is only known to be whole once a byte follows it.
        if len(tokens) == 3 and i < n:
            break
        more = fh.read(n)
        if not more:
            return "truncated PGM header"
        data += more
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        return "malformed PGM header"
    if w <= 0 or h <= 0:
        return f"bad PGM dimensions {w}x{h}"
    if maxval > 255:
        return f"16-bit PGM not supported (maxval {maxval})"
    return w, h, i + 1  # one byte separates header and raster


@st.composite
def pgm_files(draw):
    """The bytes of a P5 file built from header tokens, whitespace runs and #
    comments, whose lengths put the header's end on either side of the 512th
    byte; some end early, some hold a bad token, magic or size."""
    space = st.text(" \t\r\n", min_size=1, max_size=3).map(str.encode)
    comment = st.builds(
        lambda pad, end: b"#" + b"x" * pad + end,
        st.one_of(st.integers(0, 8), st.integers(490, 515), st.integers(516, 1100)),
        st.sampled_from([b"\n"] * 4 + [b""]),
    )
    gap = st.lists(st.one_of(space, comment), max_size=3).map(b"".join)
    token = st.one_of(
        st.integers(1, 4).map(lambda v: str(v).encode()),
        st.sampled_from([b"255", b"0", b"70000", b"x", b"+2", b"03", b"-1", b"1\xff"]),
    )
    head = [draw(st.sampled_from([b"P5"] * 7 + [b"P2"]))]
    for k in range(3):
        sep = draw(gap)
        if k and not sep:  # two tokens need a space or a comment between them
            sep = draw(st.one_of(space, comment))
        head += [sep, draw(token)]
    head.append(draw(st.sampled_from([b"\n", b" ", b"\t", b"#", b""])))
    data = b"".join(head) + bytes(i % 9 for i in range(draw(st.integers(0, 40))))
    if draw(st.integers(0, 3)) == 0:  # cut short, most often near the end
        data = data[: len(data) - draw(st.integers(1, len(data)))]
    return data


@settings(max_examples=400, deadline=None)
@given(pgm_files())
def test_read_pgm_header_matches_a_byte_by_byte_tokenizer(tmp_path_factory, data):
    # The reader's one header pattern keeps the tokenizer's width, height and
    # raster offset, or raises its message, and the raster check follows.
    path = tmp_path_factory.mktemp("pgm") / "m.pgm"
    path.write_bytes(data)
    header = pgm_header_oracle(data)
    if isinstance(header, str):
        for read in (label_map_size, read_label_map):
            with pytest.raises(BundleError) as exc:
                read(str(path))
            assert str(exc.value) == f"{path}: {header}"
        return
    w, h, offset = header
    assert label_map_size(str(path)) == (w, h)
    raster = data[offset : offset + w * h]
    if len(raster) < w * h:
        with pytest.raises(BundleError) as exc:
            read_label_map(str(path))
        assert str(exc.value) == f"{path}: truncated raster ({len(raster)} of {w * h} bytes)"
    else:
        runs = read_label_map(str(path))
        assert pixels(runs).tobytes() == raster


def test_read_pgm_header_larger_than_the_file_is_a_truncated_raster(tmp_path):
    # A 31-byte file whose header declares a 200000 x 200000 raster is short
    # of raster, found from the file's size before any buffer is taken.
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P5\n200000 200000\n255\n" + bytes(10))
    assert path.stat().st_size == 31
    with pytest.raises(BundleError, match=r"truncated raster \(10 of 40000000000 bytes\)") as exc:
        read_label_map(str(path))
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("suffix", [".pgm", ".rle"])
def test_read_label_map_rejects_a_value_outside_the_categories(tmp_path, suffix):
    arr = np.zeros((2, 3), dtype=np.uint8)
    arr[1, 2] = 9
    path = tmp_path / f"m{suffix}"
    (write_pgm if suffix == ".pgm" else lambda p, a: write_rle(p, runs_of(a)))(str(path), arr)
    with pytest.raises(BundleError, match="value 9 at row 1, column 2 is not a category id") as exc:
        read_label_map(str(path))
    assert str(path) in str(exc.value)


def rle_bytes(w, h, lengths, values, magic=b"RLE1", count=None):
    n = len(lengths) if count is None else count
    return (
        struct.pack("<4sIII", magic, w, h, n)
        + struct.pack(f"<{len(lengths)}I", *lengths)
        + bytes(values)
    )


def test_read_rle_hand_assembled(tmp_path):
    path = tmp_path / "tiny.rle"
    # Row 0: 2 x sky, 1 x road; row 1: 3 x road.
    path.write_bytes(rle_bytes(3, 2, [2, 1, 3], [4, 1, 1]))
    runs = read_label_map(str(path))
    assert (runs.width, runs.height) == (3, 2)
    assert runs.starts.tolist() == [0, 2, 3]
    assert pixels(runs).tolist() == [[4, 4, 1], [1, 1, 1]]
    assert label_map_size(str(path)) == (3, 2)


@pytest.mark.parametrize(
    "payload, fragment",
    [
        (rle_bytes(3, 2, [6], [0], magic=b"RLE2"), "bad magic"),
        (b"RLE1\x03\x00\x00\x00", "truncated RLE header"),
        (rle_bytes(0, 2, [], []), "dimensions"),
        (rle_bytes(3, 2, [3, 3], [0, 1])[:-1], "header declares 2 runs"),
        (rle_bytes(3, 2, [3, 3], [0, 1]) + b"\0", "header declares 2 runs"),
        (rle_bytes(3, 2, [3, 3], [0, 1], count=3), "header declares 3 runs"),
        (rle_bytes(3, 2, [3, 0, 3], [0, 1, 2]), "run 1 has length 0"),
        (rle_bytes(3, 2, [3, 2], [0, 1]), "runs cover 5 pixels, not 3x2"),
        (rle_bytes(3, 2, [3, 4], [0, 1]), "runs cover 7 pixels, not 3x2"),
        (rle_bytes(3, 2, [], []), "runs cover 0 pixels"),
        (rle_bytes(3, 2, [2, 4], [0, 1]), "run 1 crosses the end of row 0"),
        (rle_bytes(3, 2, [1, 2, 3], [5, 5, 1]), "runs 0 and 1 in row 0 both hold value 5"),
    ],
    ids=[
        "magic", "short-header", "zero-width", "truncated", "trailing", "count",
        "empty-run", "short-cover", "long-cover", "no-runs", "row-crossing", "split-run",
    ],
)
def test_read_rle_rejects_malformed(tmp_path, payload, fragment):
    path = tmp_path / "bad.rle"
    path.write_bytes(payload)
    with pytest.raises(BundleError, match=fragment) as exc:
        read_label_map(str(path))
    assert str(path) in str(exc.value)


def rle_fault(w, h, lengths, values):
    """The first fault of a run-length map's runs, in the reader's order and
    words, or None: a scan of one run at a time."""
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    for i, n in enumerate(lengths):
        if n == 0:
            return f"run {i} has length 0"
    if sum(lengths) != w * h:
        return f"runs cover {sum(lengths)} pixels, not {w}x{h} = {w * h}"
    for i, (s, n) in enumerate(zip(starts, lengths)):
        if (s + n - 1) // w != s // w:
            return f"run {i} crosses the end of row {s // w}"
    for i in range(1, len(lengths)):
        if values[i] == values[i - 1] and starts[i] % w:
            return f"runs {i - 1} and {i} in row {starts[i] // w} both hold value {values[i]}"
    for s, v in zip(starts, values):
        if v not in CATEGORY_NAMES:
            return f"value {v} at row {s // w}, column {s % w} is not a category id"
    return None


@st.composite
def rle_maps(draw):
    """(w, h, lengths, values) of a valid map of at most 6 x 6 pixels, or of
    one broken by a single fault."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lengths, values = [], []
    for _ in range(h):
        cuts = sorted(draw(st.sets(st.integers(1, w - 1), max_size=w - 1))) if w > 1 else []
        for a, b in zip([0, *cuts], [*cuts, w]):
            lengths.append(b - a)
            values.append(draw(st.integers(0, 8)))
    # Neighbours inside a row differ: step a value that repeats its left one.
    for i in range(1, len(values)):
        if values[i] == values[i - 1] and sum(lengths[:i]) % w:
            values[i] = (values[i] + 1) % 9
    fault = draw(st.sampled_from(["none", "empty", "short", "long", "crossing", "split", "byte"]))
    i = draw(st.integers(0, len(lengths) - 1))
    if fault == "empty":
        lengths.insert(i, 0)
        values.insert(i, values[i])
    elif fault == "short":
        lengths[i] -= 1
    elif fault == "long":
        lengths[i] += 1
    elif fault == "crossing" and i + 1 < len(lengths) and lengths[i + 1] > 1:
        lengths[i] += 1
        lengths[i + 1] -= 1
    elif fault == "split" and lengths[i] > 1:
        lengths[i : i + 1] = [1, lengths[i] - 1]
        values.insert(i, values[i])
    elif fault == "byte":
        values[i] = draw(st.integers(9, 255))
    return w, h, lengths, values


@settings(max_examples=300, deadline=None)
@given(rle_maps())
def test_read_rle_matches_a_run_by_run_check(tmp_path_factory, rle):
    # The reader checks whole arrays at once and scans again only to name a
    # fault; either way it keeps or refuses the map as the scalar check does.
    w, h, lengths, values = rle
    path = tmp_path_factory.mktemp("rle") / "m.rle"
    path.write_bytes(rle_bytes(w, h, lengths, values))
    fault = rle_fault(w, h, lengths, values)
    if fault is None:
        runs = read_label_map(str(path))
        assert (runs.width, runs.height) == (w, h)
        assert runs.starts.tolist() == [sum(lengths[:i]) for i in range(len(lengths))]
        assert runs.values.tolist() == values
    else:
        with pytest.raises(BundleError) as exc:
            read_label_map(str(path))
        assert str(exc.value) == f"{path}: {fault}"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.integers(1, 20),
    st.data(),
)
def test_rle_round_trip_and_row_bands(tmp_path_factory, seed, h, w, data):
    rng = np.random.default_rng(seed)
    arr = rng.choice(np.array([0, 1, 1, 4, 6], dtype=np.uint8), size=(h, w))
    runs = runs_of(arr)
    y0 = data.draw(st.integers(0, h))
    y1 = data.draw(st.integers(y0, h))
    assert np.array_equal(runs.rows(y0, y1), arr[y0:y1])
    path = str(tmp_path_factory.mktemp("rle") / "m.rle")
    write_rle(path, runs)
    back = read_label_map(path)
    assert same_runs(back, runs)
    assert np.array_equal(back.rows(y0, y1), arr[y0:y1])


def test_mask_directory_lazy_mapping(tmp_path):
    a = np.zeros((2, 2), dtype=np.uint8)
    b = np.ones((3, 4), dtype=np.uint8)
    write_pgm(str(tmp_path / "img_a.pgm"), a)
    write_rle(str(tmp_path / "img_b.rle"), runs_of(b))
    (tmp_path / "notes.txt").write_text("not a label map")
    # The index takes pathlib's suffix: a.b.rle is image a.b, while a file
    # named .rle has no suffix and an upper-case one is not a label map's.
    write_rle(str(tmp_path / "a.b.rle"), runs_of(b))
    for name in (".rle", "x.RLE"):
        (tmp_path / name).write_bytes(b"")
    d = MaskDirectory(str(tmp_path))
    assert set(d) == {"img_a", "img_b", "a.b"}
    assert len(d) == 3
    assert d.path_of("a.b") == str(tmp_path / "a.b.rle")
    assert np.array_equal(pixels(d["img_a"]), a)
    assert np.array_equal(pixels(d["img_b"]), b)
    assert d.size_of("img_a") == (2, 2)
    assert d.size_of("img_b") == (4, 3)
    with pytest.raises(KeyError):
        d["missing"]


@pytest.mark.parametrize("read", [label_map_size, read_label_map])
def test_a_directory_named_like_a_label_map_is_an_error_naming_it(tmp_path, read):
    path = tmp_path / "m.rle"
    path.mkdir()
    with pytest.raises(IsADirectoryError, match=re.escape(str(path))):
        read(str(path))


def test_mask_directory_refuses_two_maps_of_one_image(tmp_path):
    write_pgm(str(tmp_path / "x.pgm"), np.zeros((2, 2), dtype=np.uint8))
    write_rle(str(tmp_path / "x.rle"), runs_of(np.zeros((2, 2), dtype=np.uint8)))
    with pytest.raises(BundleError) as exc:
        MaskDirectory(str(tmp_path))
    assert str(exc.value) == f"{tmp_path / 'x.rle'}: x.pgm is there too; keep one label map per image"


# ---------------------------------------------------------------------------
# JSON loaders.


def _image_record(image_id="i0", lat=52.52, lon=13.405, **over):
    rec = {
        "image_id": image_id,
        "lat": lat,
        "lon": lon,
        "heading_deg": 90.0,
        "sequence_id": "s0",
        "captured_at": "2021-05-01T10:00:00Z",
        "width_px": 64,
        "height_px": 48,
    }
    rec.update(over)
    return rec


def test_load_images_happy_path(tmp_path):
    path = tmp_path / "images.json"
    path.write_text(json.dumps([_image_record(), _image_record("i1", heading_deg=None)]))
    images = load_images(str(path))
    assert [i.image_id for i in images] == ["i0", "i1"]
    assert images[0].heading_deg == 90.0
    assert images[1].heading_deg is None
    assert images[0].width_px == 64


def test_load_images_takes_an_integral_float_size(tmp_path):
    path = tmp_path / "images.json"
    path.write_text(json.dumps([_image_record(width_px=64.0)]))
    width = load_images(str(path))[0].width_px
    assert width == 64 and type(width) is int


def test_load_images_normalizes_heading(tmp_path):
    path = tmp_path / "images.json"
    path.write_text(json.dumps([_image_record(heading_deg=-90.0)]))
    assert load_images(str(path))[0].heading_deg == 270.0


@pytest.mark.parametrize(
    "records, fragment",
    [
        ([{"lat": 1, "lon": 2}], "image_id"),
        ([_image_record(lat=91.0)], "lat"),
        ([_image_record(width_px=0)], "width_px"),
        ([_image_record(), _image_record()], "duplicate image_id"),
        ([_image_record(heading_deg="east")], "heading_deg"),
        ([_image_record(lat=None)], "lat must be a number"),
        ([_image_record(lon="x")], "lon must be a number"),
        ([_image_record(width_px="wide")], r"images\[0\]: width_px must be a number"),
        ([_image_record(height_px=None)], "height_px must be a number"),
        ([_image_record(height_px=float("inf"))], "height_px must be a number"),
        ([_image_record(width_px=64.9)], r"images\[0\]: width_px must be a number"),
        ([_image_record(height_px=True)], "height_px must be a number"),
        ([_image_record(lat=True)], "lat must be a number"),
        ([_image_record(lon=False)], "lon must be a number"),
        ([_image_record(heading_deg=True)], r"images\[0\]: heading_deg must be a number"),
        ([_image_record(heading_deg=float("nan"))], "heading_deg must be finite"),
    ],
)
def test_load_images_rejects_bad_records(tmp_path, records, fragment):
    path = tmp_path / "images.json"
    path.write_text(json.dumps(records))
    with pytest.raises(BundleError, match=fragment):
        load_images(str(path))


def _det_line(image_id="i0", **over):
    rec = {
        "image_id": image_id,
        "category": "traffic_sign",
        "subtype": "stop",
        "bbox": [10.0, 20.0, 5.0, 8.0],
        "score": 0.9,
    }
    rec.update(over)
    return json.dumps(rec)


def test_load_detections_groups_by_image(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text("\n".join([_det_line(), _det_line("i1", subtype=None), "", _det_line()]))
    dets = load_detections(str(path))
    assert len(dets["i0"]) == 2
    assert dets["i1"][0].subtype is None
    assert dets["i0"][0].bbox == (10.0, 20.0, 5.0, 8.0)


def test_load_detections_referential_integrity(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text(_det_line("ghost"))
    with pytest.raises(BundleError, match="unknown image_id 'ghost'"):
        load_detections(str(path), known_images={"i0"})


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("{not json", "invalid JSON"),
        (_det_line(score=1.5), "score"),
        (_det_line(bbox=[1, 2, 3]), "bbox"),
        (_det_line(bbox=[1, 2, None, 4]), "bbox"),
        (_det_line(score=None), "line 1: score must be a number"),
        (_det_line(score="high"), "score must be a number"),
        (json.dumps({"category": "x", "bbox": [0, 0, 1, 1], "score": 0.5}), "image_id"),
        (_det_line(bbox=[True, False, 5, 5]), r"line 1: bbox\[0\] must be a number"),
        (_det_line(bbox=[float("nan"), 0, 5, 5]), r"line 1: bbox\[0\] must be finite"),
        (_det_line(bbox=[0, 0, 5, float("-inf")]), r"bbox\[3\] must be finite"),
        (_det_line(bbox=[1, 2, 0, 8]), r"line 1: bbox width and height must be positive, got \[1.0, 2.0, 0.0, "),
        (_det_line(bbox=[1, 2, 5, -8]), r"line 1: bbox width and height must be positive"),
    ],
)
def test_load_detections_rejects_bad_lines(tmp_path, line, fragment):
    path = tmp_path / "det.jsonl"
    path.write_text(line)
    with pytest.raises(BundleError, match=fragment):
        load_detections(str(path))


def test_load_detections_names_file_and_line_on_bad_utf8(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_bytes(_det_line().encode() + b"\n\n" + b'{"image_id": "i\xff"}\n')
    with pytest.raises(BundleError, match=r"det\.jsonl: line 3: not valid UTF-8"):
        load_detections(str(path))


def test_load_buffers(tmp_path):
    path = tmp_path / "buffers.json"
    path.write_text(
        json.dumps(
            [
                {"intersection_id": "x0", "lat": 52.52, "lon": 13.405},
                {"intersection_id": "x1", "lat": 52.53, "lon": 13.41, "radius_m": 30.0},
            ]
        )
    )
    buffers = load_buffers(str(path))
    assert buffers[0].radius_m == 50.0
    assert buffers[1].radius_m == 30.0
    path.write_text(json.dumps([{"intersection_id": "x0", "lat": 52.52, "lon": 13.405, "radius_m": -1}]))
    with pytest.raises(BundleError, match="radius_m"):
        load_buffers(str(path))


@pytest.mark.parametrize("radius", ["NaN", "Infinity"])
def test_load_buffers_rejects_non_finite_radius(tmp_path, radius):
    # json reads both literals as floats; NaN slips past a plain `<= 0` test.
    path = tmp_path / "buffers.json"
    path.write_text(
        '[{"intersection_id": "x0", "lat": 52.52, "lon": 13.405}, '
        f'{{"intersection_id": "x1", "lat": 52.52, "lon": 13.405, "radius_m": {radius}}}]'
    )
    with pytest.raises(BundleError, match=r"buffers\[1\]: radius_m"):
        load_buffers(str(path))


def test_load_buffers_rejects_a_centre_near_a_pole(tmp_path):
    # Past 89 deg of latitude no tangent frame is made; 89 itself still is.
    path = tmp_path / "buffers.json"
    recs = [{"intersection_id": f"x{i}", "lat": lat, "lon": 13.4} for i, lat in enumerate((89.0, -89.0))]
    path.write_text(json.dumps(recs))
    assert [b.center.lat for b in load_buffers(str(path))] == [89.0, -89.0]
    for lat in (89.5, -89.01):
        path.write_text(json.dumps([*recs, {"intersection_id": "p", "lat": lat, "lon": 13.4}]))
        with pytest.raises(BundleError, match=rf"buffers\.json: buffers\[2\]: .*poles \(lat={lat}\)"):
            load_buffers(str(path))


@pytest.mark.parametrize("key", ["lat", "lon", "radius_m"])
@pytest.mark.parametrize("value", [None, "x", True])
def test_load_buffers_rejects_non_numeric_fields(tmp_path, key, value):
    rec = {"intersection_id": "x0", "lat": 52.52, "lon": 13.405, key: value}
    path = tmp_path / "buffers.json"
    path.write_text(json.dumps([rec]))
    with pytest.raises(BundleError, match=rf"buffers\[0\]: {key} must be a number"):
        load_buffers(str(path))


def _feature(ring, props={"id": "b1"}, **over):  # noqa: B006
    feat = {"type": "Feature", "properties": props, "geometry": {"type": "Polygon", "coordinates": [ring]}}
    feat.update(over)
    return feat


_RING = [[13.4, 52.52], [13.4003, 52.52], [13.4003, 52.5202], [13.4, 52.5202], [13.4, 52.52]]


def _write_footprints(tmp_path, *features):
    path = tmp_path / "fp.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": list(features)}))
    return str(path)


def test_load_footprints_round_trip(tmp_path):
    fps = load_footprints(_write_footprints(tmp_path, _feature(_RING)))
    assert len(fps) == 1
    assert fps[0].id == "b1"
    assert fps[0].ring[0] == GeoPoint(52.52, 13.4)
    assert fps[0].ring[0] == fps[0].ring[-1]


def test_load_footprints_takes_altitudes_feature_ids_and_holes(tmp_path):
    hole = [[13.4001, 52.5201], [13.4002, 52.5201], [13.4001, 52.52015], [13.4001, 52.5201]]
    feat = _feature([[*v, 35.0] for v in _RING], props={}, id="f7")
    feat["geometry"]["coordinates"].append(hole)
    fps = load_footprints(_write_footprints(tmp_path, feat))
    assert fps[0].id == "f7"
    assert fps[0].ring == tuple(GeoPoint(lat, lon) for lon, lat in _RING)


def test_load_footprints_rejects_missing_id(tmp_path):
    path = _write_footprints(tmp_path, _feature([[0, 0], [1, 0], [1, 1], [0, 0]], props={}))
    with pytest.raises(BundleError, match="id"):
        load_footprints(path)


@pytest.mark.parametrize(
    "fid, expected",
    [("b1", "b1"), ("", ""), (4711, "4711"), (4711.0, "4711"), (-3, "-3")],
    ids=["string", "empty-string", "number", "whole-float", "negative"],
)
@pytest.mark.parametrize("where", ["properties", "feature"])
def test_load_footprints_takes_a_string_or_whole_number_id(fid, expected, where, tmp_path):
    feat = _feature(_RING, props={"id": fid}) if where == "properties" else _feature(_RING, props={}, id=fid)
    assert load_footprints(_write_footprints(tmp_path, feat))[0].id == expected


@pytest.mark.parametrize(
    "fid, shown",
    [([1, 2], "[1, 2]"), (True, "true"), (False, "false"), ({"a": 1}, '{"a": 1}'), (1.5, "1.5")],
    ids=["list", "true", "false", "object", "fraction"],
)
@pytest.mark.parametrize("where", ["properties", "feature"])
def test_load_footprints_rejects_an_id_of_another_kind(fid, shown, where, tmp_path):
    # An id is never a value's Python str(): [1, 2], true and {"a": 1} are not ids.
    feat = _feature(_RING, props={"id": fid}) if where == "properties" else _feature(_RING, props={}, id=fid)
    path = _write_footprints(tmp_path, _feature(_RING), feat)
    message = rf"fp.geojson: features\[1\]: id must be a string or a whole number, got {re.escape(shown)}$"
    with pytest.raises(BundleError, match=message):
        load_footprints(path)


def test_load_footprints_rejects_non_polygon(tmp_path):
    feat = _feature(_RING, props={"id": "x"}, geometry={"type": "Point", "coordinates": [0, 0]})
    with pytest.raises(BundleError, match="Polygon"):
        load_footprints(_write_footprints(tmp_path, feat))


@pytest.mark.parametrize(
    "vertex, fragment",
    [
        ([True, 52.52], r"features\[0\]: vertex 1: lon must be a number"),
        ([13.4003, False], r"features\[0\]: vertex 1: lat must be a number"),
        (["13.4003", 52.52], r"features\[0\]: vertex 1: lon must be a number"),
        ([13.4003, "52.52"], r"features\[0\]: vertex 1: lat must be a number"),
        ([13.4003, None], r"features\[0\]: vertex 1: lat must be a number"),
        ([13.4003, float("nan")], r"features\[0\]: vertex 1: lat must be finite"),
        ([13.4003], r"features\[0\]: vertex 1 must be \[lon, lat\]"),
    ],
    ids=["bool-lon", "bool-lat", "str-lon", "str-lat", "null-lat", "nan-lat", "short"],
)
def test_load_footprints_rejects_bad_vertex(tmp_path, vertex, fragment):
    ring = [_RING[0], vertex, *_RING[2:]]
    with pytest.raises(BundleError, match=fragment):
        load_footprints(_write_footprints(tmp_path, _feature(ring)))


@pytest.mark.parametrize(
    "ring, message",
    [
        (_RING[:-1], "features[0]: footprint b1: ring is not closed"),
        ([_RING[0], _RING[1], _RING[0]], "features[0]: footprint b1: ring needs >= 4 vertices, got 3"),
        ([_RING[0], _RING[1], [13.4001, 52.52], _RING[0]], "features[0] (b1) has a zero-area ring"),
        (
            [_RING[0], [13.4001, 52.5201], [13.4002, 52.5202], _RING[0]],
            "features[0] (b1) has a zero-area ring",
        ),
    ],
    ids=["unclosed", "three-vertices", "zero-area", "collinear-diagonal"],
)
def test_load_footprints_rejects_a_bad_ring(tmp_path, ring, message):
    with pytest.raises(BundleError, match=rf"fp\.geojson: {re.escape(message)}$"):
        load_footprints(_write_footprints(tmp_path, _feature(ring)))


def _lon_lat_ring(lat, lon, offsets):
    """A closed ring of [lon, lat] vertices at (dlat, dlon) degree offsets
    from (lat, lon), a longitude past ±180 moved by a whole turn."""
    turn = lambda x: x - 360.0 if x > 180.0 else x + 360.0 if x < -180.0 else x
    ring = [[turn(lon + dlon), lat + dlat] for dlat, dlon in offsets]
    return [*ring, ring[0]]


@settings(max_examples=200, deadline=None)
@given(
    lat=st.floats(-89.9, 89.9),
    lon=st.floats(-180.0, 180.0),
    direction=st.floats(0.0, 2.0 * math.pi),
    length_deg=st.floats(1e-4, 0.05),
    steps=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5),
)
def test_a_collinear_ring_anywhere_is_refused_naming_its_file_and_footprint(
    tmp_path_factory, lat, lon, direction, length_deg, steps
):
    # Vertices on one line through the first vertex enclose no area, however
    # large their coordinates: the loader refuses the ring, naming the file
    # and the footprint, and rop exits 2 on it. The ring spans length_deg or
    # more, so rounding each coordinate to a float moves its vertices off the
    # line by under 1e-9 of its size.
    dlat, dlon = length_deg * math.sin(direction), length_deg * math.cos(direction)
    ring = _lon_lat_ring(lat, lon, [(0.0, 0.0), (dlat, dlon), *((t * dlat, t * dlon) for t in steps)])
    path = _write_footprints(tmp_path_factory.mktemp("fp"), _feature(ring, props={"id": "line7"}))
    with pytest.raises(BundleError, match=rf"^{re.escape(path)}: features\[0\] \(line7\) has a zero-area ring$"):
        load_footprints(path)


@settings(max_examples=200, deadline=None)
@given(
    lat=st.floats(-89.0, 89.0),
    lon=st.floats(-180.0, 180.0),
    width_m=st.floats(0.01, 200.0),
    height_m=st.floats(0.01, 200.0),
    angle=st.floats(0.0, 2.0 * math.pi),
)
def test_a_rectangle_from_a_centimetre_to_200_m_loads(tmp_path_factory, lat, lon, width_m, height_m, angle):
    c, s = math.cos(angle), math.sin(angle)
    m_per_deg_lon = 111320.0 * math.cos(math.radians(lat))
    corners = [(0.0, 0.0), (width_m, 0.0), (width_m, height_m), (0.0, height_m)]
    offsets = [((x * s + y * c) / 111320.0, (x * c - y * s) / m_per_deg_lon) for x, y in corners]
    path = _write_footprints(tmp_path_factory.mktemp("fp"), _feature(_lon_lat_ring(lat, lon, offsets)))
    (fp,) = load_footprints(path)
    assert fp.id == "b1"


def test_load_footprints_names_a_polygon_without_a_ring(tmp_path):
    feat = _feature(_RING, geometry={"type": "Polygon", "coordinates": []})
    with pytest.raises(BundleError, match=r"fp\.geojson: features\[0\]: geometry\.coordinates holds no ring$"):
        load_footprints(_write_footprints(tmp_path, feat))


def test_load_footprints_reads_null_properties_as_empty(tmp_path):
    # properties: null is an empty object, so the feature's own id is taken.
    fps = load_footprints(_write_footprints(tmp_path, _feature(_RING, props=None, id="f9")))
    assert [fp.id for fp in fps] == ["f9"]


# ---------------------------------------------------------------------------
# The record codec.

_number = st.floats(allow_nan=False, allow_infinity=False)
_whole = st.integers(-(2**53), 2**53)
# In-range values of the ranged fields: a pixel size, a score and a radius.
_size = st.integers(1, 2**53)
_score = st.floats(0.0, 1.0)
_positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
_text = st.text(max_size=6)
_geo = st.builds(GeoPoint, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))

# One JSON value of each type. A record field replaced by one it does not take
# must fail to read.
_JSON_VALUES = {"null": None, "boolean": True, "number": 2, "string": "x", "list": [], "object": {}}

# Each record type: a strategy for its values, and the JSON values of
# _JSON_VALUES each of its fields takes, by the field's JSON name.
_RECORDS = {
    ImageMeta: (
        st.builds(ImageMeta, _text, _geo, st.none() | _number, _text, st.none() | _number | _text, _size, _size),
        {
            "image_id": {"string"},
            "lat": {"number"},
            "lon": {"number"},
            "heading_deg": {"null", "number"},
            "sequence_id": {"string"},
            "captured_at": {"null", "number", "string"},
            "width_px": {"number"},
            "height_px": {"number"},
        },
    ),
    Detection: (
        st.builds(Detection, _text, _text, st.none() | _text, st.tuples(*[_number] * 4), _score),
        # No list of _JSON_VALUES is a bbox: it holds four numbers.
        {"image_id": {"string"}, "category": {"string"}, "subtype": {"null", "string"}, "bbox": set(), "score": {"number"}},
    ),
    IntersectionBuffer: (
        st.builds(IntersectionBuffer, _text, _geo, _positive),
        {"intersection_id": {"string"}, "lat": {"number"}, "lon": {"number"}, "radius_m": {"number"}},
    ),
    PlacedObject: (
        st.builds(
            PlacedObject,
            _text,
            st.none() | _text,
            st.none() | _text,
            _geo,
            st.none() | _number,
            st.lists(_text, max_size=3),
            _whole,
            st.booleans(),
            _text,
            _number,
        ),
        {
            "category": {"string"},
            "subtype": {"null", "string"},
            "light_kind": {"null", "string"},
            "lat": {"number"},
            "lon": {"number"},
            "height_m": {"null", "number"},
            "source_images": {"list"},
            "support": {"number"},
            "inferred_only": {"boolean"},
            "intersection_id": {"string"},
            "confidence": {"number"},
        },
    ),
}


@pytest.mark.parametrize("kind", list(_RECORDS), ids=lambda kind: kind.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_codec_round_trips_a_record_and_names_a_wrongly_typed_field(kind, data):
    # Every field in turn takes every JSON value of a type it does not take.
    strategy, takes = _RECORDS[kind]
    record = data.draw(strategy)
    doc = json.loads(json.dumps(to_json(record)))
    assert set(doc) == set(takes)
    assert from_json(kind, doc, "r") == record
    for key, json_types in takes.items():
        for wrong in set(_JSON_VALUES) - json_types:
            with pytest.raises(BundleError, match=rf"^r: {re.escape(key)} must be "):
                from_json(kind, {**doc, key: _JSON_VALUES[wrong]}, "r")


# Values outside each range rule a record field declares in its metadata.
_OUT_OF_RANGE = {"> 0": [0, -1], "in [0, 1]": [-0.5, 1.5], "in (0, 180)": [0, 180]}
_LAYOUT = Layout(
    "x0",
    GeoPoint(0.0, 0.0),
    footprints=[RectFootprint("f", 0.0, 0.0, 1.0, 1.0, 5.0)],
    pedestrians=[PedestrianSpec(LocalPoint(1.0, 2.0), 1.7)],
)
# (record, the keys from it to the record that holds the ranged fields):
# each record type with a ranged field, as it nests.
_RANGED_RECORDS = [
    (ImageMeta("i0", GeoPoint(0.0, 0.0), 90.0, "s0", None, 64, 48), []),
    (Detection("i0", "traffic_sign", "stop", (1.0, 2.0, 3.0, 4.0), 0.9), []),
    (IntersectionBuffer("x0", GeoPoint(0.0, 0.0)), []),
    (_LAYOUT, []),
    (_LAYOUT, ["camera"]),
    (_LAYOUT, ["footprints", 0]),
    (_LAYOUT, ["pedestrians", 0]),
]


def _out_of_range_cases():
    for record, path in _RANGED_RECORDS:
        inner = record
        for key in path:
            inner = inner[key] if isinstance(key, int) else getattr(inner, key)
        for f in dataclasses.fields(inner):
            for value in _OUT_OF_RANGE[f.metadata["range"]] if "range" in f.metadata else []:
                name = f"{type(inner).__name__}.{f.name}={value}"
                yield pytest.param(record, path, f.name, value, id=name)


@pytest.mark.parametrize("record, path, key, value", list(_out_of_range_cases()))
def test_codec_names_a_field_out_of_its_range(record, path, key, value):
    # Each field with a range in its metadata, given a value outside it, is a
    # BundleError naming the record and the key, however deep it nests.
    doc = json.loads(json.dumps(to_json(record)))
    assert from_json(type(record), doc, "r") == record
    inner = doc
    for k in path:
        inner = inner[k]
    inner[key] = value
    where = "r" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    with pytest.raises(BundleError, match=rf"^{re.escape(where)}: {key} must be .*, got {value}"):
        from_json(type(record), doc, "r")


def test_every_ranged_field_has_an_out_of_range_case():
    # The fields README lists as ranged: a range dropped from one fails here.
    names = {p.id.split("=")[0] for p in _out_of_range_cases()}
    assert names == {
        "ImageMeta.width_px", "ImageMeta.height_px", "Detection.score", "IntersectionBuffer.radius_m",
        "Layout.radius_m", "CameraModel.hfov_deg", "CameraModel.width_px", "CameraModel.height_px",
        "CameraModel.cam_height_m", "RectFootprint.height_m", "PedestrianSpec.height_m",
    }


# One of each record rop holds one of per image, detection, object or vertex.
# Each is slotted: no per-instance __dict__.
_ORIGIN = GeoPoint(0.0, 0.0)
_PER_ITEM_RECORDS = [
    _ORIGIN,
    LocalPoint(0.0, 0.0),
    Footprint("f", (_ORIGIN, GeoPoint(0.0, 1e-4), GeoPoint(1e-4, 1e-4), _ORIGIN)),
    ImageMeta("i0", _ORIGIN, 90.0, "s0", None, 64, 48),
    Detection("i0", "traffic_sign", "stop", (1.0, 2.0, 3.0, 4.0), 0.9),
    PlacedObject("traffic_sign", "stop", None, _ORIGIN),
    SceneObject("o1", "traffic_sign", (1.0, 2.0), 3.0, None),
    AtbtNode(1, None, None, "root"),
    FusedObject("left", "traffic_sign", 0, 0, "stop", 1, None, False, ["i0"]),
]


@pytest.mark.parametrize("record", _PER_ITEM_RECORDS, ids=lambda r: type(r).__name__)
def test_per_item_records_are_slotted(record):
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record


def test_loaded_detections_share_their_strings(tmp_path):
    # Each distinct string is held once, however many lines repeat it.
    path = tmp_path / "det.jsonl"
    path.write_text("\n".join([_det_line(), _det_line(), _det_line("i1")]))
    dets = load_detections(str(path))
    first, second = dets["i0"]
    assert first.category is second.category is dets["i1"][0].category
    assert first.image_id is second.image_id
    assert first.subtype is second.subtype


def _write_bundle_files(tmp_path, *, mask_size=(64, 48)):
    (tmp_path / "masks").mkdir()
    w, h = mask_size
    write_pgm(str(tmp_path / "masks" / "i0.pgm"), np.zeros((h, w), dtype=np.uint8))
    (tmp_path / "images.json").write_text(json.dumps([_image_record()]))
    (tmp_path / "det.jsonl").write_text(_det_line())
    (tmp_path / "buffers.json").write_text(
        json.dumps([{"intersection_id": "x0", "lat": 52.52, "lon": 13.405}])
    )
    ring = [[13.4049, 52.5199], [13.4051, 52.5199], [13.4051, 52.5201], [13.4049, 52.5201], [13.4049, 52.5199]]
    (tmp_path / "fp.geojson").write_text(
        json.dumps(
            {
                "type": "FeatureCollection",
                "features": [
                    {
                        "type": "Feature",
                        "properties": {"id": "b0"},
                        "geometry": {"type": "Polygon", "coordinates": [ring]},
                    }
                ],
            }
        )
    )


def test_load_inputs_cross_validates(tmp_path):
    _write_bundle_files(tmp_path)
    bundle = load_inputs(
        str(tmp_path / "images.json"),
        str(tmp_path / "masks"),
        str(tmp_path / "det.jsonl"),
        str(tmp_path / "fp.geojson"),
        str(tmp_path / "buffers.json"),
    )
    assert isinstance(bundle, Bundle)
    runs = bundle.label_maps["i0"]
    assert (runs.width, runs.height) == (64, 48)
    assert bundle.detections["i0"][0].category == "traffic_sign"
    assert bundle.footprints[0].id == "b0"


def test_load_inputs_rejects_missing_mask(tmp_path):
    _write_bundle_files(tmp_path)
    (tmp_path / "masks" / "i0.pgm").unlink()
    with pytest.raises(BundleError, match="missing label map for image 'i0'"):
        load_inputs(
            str(tmp_path / "images.json"),
            str(tmp_path / "masks"),
            str(tmp_path / "det.jsonl"),
            str(tmp_path / "fp.geojson"),
            str(tmp_path / "buffers.json"),
        )


def test_load_inputs_rejects_dimension_mismatch(tmp_path):
    _write_bundle_files(tmp_path, mask_size=(32, 48))
    with pytest.raises(BundleError, match="32x48"):
        load_inputs(
            str(tmp_path / "images.json"),
            str(tmp_path / "masks"),
            str(tmp_path / "det.jsonl"),
            str(tmp_path / "fp.geojson"),
            str(tmp_path / "buffers.json"),
        )


def test_load_inputs_decodes_no_label_map(tmp_path, monkeypatch):
    _write_bundle_files(tmp_path)
    decoded = []
    real_read = labelmap.read_label_map

    def counting_read(path, *args):
        decoded.append(path)
        return real_read(path, *args)

    monkeypatch.setattr(labelmap, "read_label_map", counting_read)
    d = MaskDirectory(str(tmp_path / "masks"))
    assert "i0" in d
    assert "x" not in d
    bundle = load_inputs(
        str(tmp_path / "images.json"),
        str(tmp_path / "masks"),
        str(tmp_path / "det.jsonl"),
        str(tmp_path / "fp.geojson"),
        str(tmp_path / "buffers.json"),
    )
    assert decoded == []
    bundle.label_maps["i0"]
    assert len(decoded) == 1


# ---------------------------------------------------------------------------
# Buffers.


def test_slice_bundle_radius_cut():
    frame = make_frame(BERLIN)
    buffer = IntersectionBuffer("x0", BERLIN, radius_m=50.0)
    # Positions laid out at known local offsets via the same frame the
    # filter uses; distances are then exact by construction. The cameras
    # near the center head toward it, so only the radius decides.
    inside = im("a", *_latlon(frame, 30.0, 0.0), heading=270.0)
    edge = im("b", *_latlon(frame, 0.0, 49.9), heading=180.0)
    outside = im("c", *_latlon(frame, 60.0, 0.0), heading=270.0)
    far = im("d", 12.0, 100.0)  # other side of the world, caught by the degree prefilter
    bundle = Bundle([inside, edge, outside, far], {}, {}, [], [buffer])
    (part,) = slice_bundle(bundle, RunConfig())
    assert part.n_images == 2
    assert [(t.track_id, [g.image_id for g in t.images]) for t in part.tracks] == [("x0:EW", ["a"]), ("x0:NS", ["b"])]


def _latlon(frame, x, y):
    from rop.geo import unproject

    p = unproject(frame, LocalPoint(x, y))
    return p.lat, p.lon


# ---------------------------------------------------------------------------
# Heading bins.


@pytest.mark.parametrize(
    "heading, direction",
    [
        (90.0, "WE"),
        (45.0, "WE"),
        (134.999, "WE"),
        (180.0, "NS"),
        (135.0, "NS"),
        (270.0, "EW"),
        (225.0, "EW"),
        (0.0, "SN"),
        (315.0, "SN"),
        (44.999, "SN"),
        (359.0, "SN"),
        (-90.0, "EW"),
        (450.0, "WE"),
    ],
)
def test_direction_bins(heading, direction):
    assert direction_of(heading) == direction


# ---------------------------------------------------------------------------
# Track building.


def _members(frame, images):
    """Each image with its camera in frame, its case and its distance from the
    center, as slice_bundle hands them to build_tracks."""
    cams = [project(frame, image.position) for image in images]
    inner_radius_m = RunConfig().inner_radius_m
    dists = [math.hypot(cam.x, cam.y) for cam in cams]
    return [
        (image, cam, classify_camera(cam, d, image.heading_deg, inner_radius_m), d)
        for image, cam, d in zip(images, cams, dists)
    ]


def test_build_tracks_bins_and_orders():
    frame = make_frame(BERLIN)
    # Eastbound track approaching from the west: x increases along travel.
    e2 = im("e2", *_latlon(frame, -10.0, -3.0), heading=92.0, seq="s1")
    e0 = im("e0", *_latlon(frame, -30.0, -3.0), heading=88.0, seq="s0")
    e1 = im("e1", *_latlon(frame, -20.0, -3.0), heading=90.0, seq="s0")
    # A southbound image.
    s0 = im("s0", *_latlon(frame, 2.0, 25.0), heading=181.0)
    members = _members(frame, [e2, e0, e1, s0])
    tracks = build_tracks(members, "x0")
    by_id = {t.track_id: t for t in tracks}
    assert set(by_id) == {"x0:WE", "x0:NS"}
    # Far to near: by distance from the center, farthest first.
    assert [i.image_id for i in by_id["x0:WE"].images] == ["e0", "e1", "e2"]
    assert [i.image_id for i in by_id["x0:NS"].images] == ["s0"]
    # Each camera is the one it came with, at the same index as its image.
    cams = {image.image_id: cam for image, cam, _, _ in members}
    for track in tracks:
        assert track.cams == [cams[image.image_id] for image in track.images]
    # Fusion takes the views nearest first, and corner selection tries the
    # approaching ones in that order.
    assert [by_id["x0:WE"].images[i].image_id for i in by_id["x0:WE"].near_first] == ["e2", "e1", "e0"]
    assert [by_id["x0:WE"].images[i].image_id for i in by_id["x0:WE"].corner_order] == ["e2", "e1", "e0"]


def test_slice_bundle_warns_on_missing_heading(caplog):
    # An image without a heading is kept and counted, but joins no track.
    bundle = Bundle([im("n0", 52.52, 13.405, heading=None)], {}, {}, [], [IntersectionBuffer("x0", BERLIN)])
    with caplog.at_level("WARNING", logger="rop.placer"):
        (part,) = slice_bundle(bundle, RunConfig())
    assert part.tracks == [] and part.n_images == 1
    assert [r.getMessage() for r in caplog.records] == [
        "image n0 (intersection x0) has no heading; excluded from tracks"
    ]


def test_build_tracks_tie_breaks_by_image_id():
    frame = make_frame(BERLIN)
    lat, lon = _latlon(frame, -10.0, 0.0)
    b = im("b", lat, lon, heading=90.0)
    a = im("a", lat, lon, heading=90.0)
    for images in ([b, a], [a, b]):
        (track,) = build_tracks(_members(frame, images), "x0")
        assert [i.image_id for i in track.images] == ["a", "b"]
        # Nearest first, equal distances by image id too: fusion gives a tie to a.
        assert [track.images[i].image_id for i in track.near_first] == ["a", "b"]
        assert [track.images[i].image_id for i in track.corner_order] == ["a", "b"]
