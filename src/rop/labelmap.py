"""Label maps as row runs, the category bytes they hold, the two mask file
formats and the mask directory.

A label map assigns each pixel the byte of its category (CATEGORY_IDS).
Labelling and the light vote in rop.scene read it as row runs (LabelRuns). It
is stored as binary PGM (P5, one byte per pixel, as a segmentation network
writes it) or as a run-length .rle file. One table of suffixes (_FORMATS)
decides which file names MaskDirectory indexes and which format
read_label_map and label_map_size read; a map is read straight into runs, so
no full-size pixel array outlives a read, and a byte that is not a category
id is a BundleError naming the file.

A PGM is scanned in one scratch raster and run-start mask that this module
keeps for the life of the process, reused by every read and sized to the
largest PGM read so far; the runs a read returns share no memory with it.
So read_label_map must not run in two threads at once.
"""

from __future__ import annotations

import os
import re
import stat
import struct
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np


class BundleError(ValueError):
    """Raised when bundle inputs violate the format contract. Label maps are
    the format's lowest layer, so it is defined here; rop.ingest raises it for
    every other bundle file."""


# The byte each category takes in a label map: part of the bundle format.
CATEGORY_IDS = {
    "other": 0,
    "road": 1,
    "sidewalk": 2,
    "building": 3,
    "sky": 4,
    "pedestrian": 5,
    "traffic_light": 6,
    "traffic_sign": 7,
    "vehicle": 8,
}
CATEGORY_NAMES = {cid: name for name, cid in CATEGORY_IDS.items()}


@dataclass(frozen=True, eq=False)
class LabelRuns:
    """A label map as its row runs, the one form rop.scene reads. Run i
    holds values[i] from flat pixel index starts[i] up to the next run's
    start (width * height after the last run). Every row begins a run, no
    run is empty, and neighbouring runs in one row differ in value."""

    starts: np.ndarray  # int64, ascending from 0
    values: np.ndarray  # uint8
    width: int
    height: int

    def rows(self, y0: int, y1: int) -> np.ndarray:
        """Pixel rows y0 .. y1 - 1 (0 <= y0 <= y1 <= height) as a uint8 array
        of shape (y1 - y0, width); no other row is decoded."""
        w = self.width
        i0, i1 = np.searchsorted(self.starts, (y0 * w, y1 * w))
        starts = self.starts[i0:i1]
        lengths = np.append(starts[1:], y1 * w) - starts
        return np.repeat(self.values[i0:i1], lengths).reshape(y1 - y0, w)


def _runs(flat: np.ndarray, change: np.ndarray, w: int, h: int) -> LabelRuns:
    """The runs of the row-major raster flat, using change (bool, same size)
    as scratch. The result shares no memory with either array."""
    # A run starts at column 0 or where the value differs from its left
    # neighbour, so runs never span rows.
    change[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=change[1:])
    change[::w] = True
    starts = np.flatnonzero(change)
    return LabelRuns(starts, flat[starts], w, h)


def runs_of(label_map: np.ndarray) -> LabelRuns:
    """The row runs of a 2-D array of label bytes: the library's public
    array-to-runs entry point, which shares its scan with the PGM reader."""
    if label_map.ndim != 2:
        raise ValueError("label map must be 2-D")
    h, w = label_map.shape
    flat = np.ascontiguousarray(label_map, dtype=np.uint8).ravel()
    return _runs(flat, np.empty(flat.size, dtype=bool), w, h)


# A P5 header: the magic, then width, height and maxval, each after
# whitespace and # comments (none needed after the magic, one at least between
# two tokens), then one byte that ends the maxval; the raster follows it.
_SEP = rb"(?:[ \t\r\n]|#[^\n]*\n)"
_TOKEN = rb"([^ \t\r\n#]+)"
_PGM_HEADER = re.compile(rb"P5" + _SEP + b"*" + _TOKEN + (_SEP + b"+" + _TOKEN) * 2 + rb"[ \t\r\n#]")


def _pgm_header(fh: BinaryIO, path: str) -> tuple[int, int]:
    """Parse a P5 header from the start of fh: returns (width, height) and
    leaves fh at the first raster byte. Reads on until the header is
    complete, so comments of any length are fine."""
    data = fh.read(512)
    if data[:2] != b"P5":
        raise BundleError(f"{path}: not a binary PGM (bad magic {data[:2]!r})")
    while not (m := _PGM_HEADER.match(data)):
        more = fh.read(len(data))
        if not more:
            raise BundleError(f"{path}: truncated PGM header")
        data += more
    try:
        w, h, maxval = (int(t) for t in m.groups())
    except ValueError as exc:
        raise BundleError(f"{path}: malformed PGM header") from exc
    if w <= 0 or h <= 0:
        raise BundleError(f"{path}: bad PGM dimensions {w}x{h}")
    if maxval > 255:
        raise BundleError(f"{path}: 16-bit PGM not supported (maxval {maxval})")
    fh.seek(m.end())
    return w, h


# The PGM scratch (see above): two fresh map-sized arrays per image cost more
# in page faults than the scan.
_raster = np.empty(0, dtype=np.uint8)
_change = np.empty(0, dtype=bool)


def _read_pgm(path: str) -> LabelRuns:
    global _raster, _change
    with open(path, "rb") as fh:
        w, h = _pgm_header(fh, path)
        n = w * h
        # A header may declare far more raster than the file holds: that is
        # a short raster, found before the scratch grows to the declared size.
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and (got := info.st_size - fh.tell()) < n:
            raise BundleError(f"{path}: truncated raster ({got} of {n} bytes)")
        if _raster.size < n:
            _raster = np.empty(n, dtype=np.uint8)
            _change = np.empty(n, dtype=bool)
        got = fh.readinto(_raster[:n])
    if got < n:
        raise BundleError(f"{path}: truncated raster ({got} of {n} bytes)")
    return _runs(_raster[:n], _change[:n], w, h)


def write_pgm(path: str, arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr, dtype=np.uint8)
    if a.ndim != 2:
        raise ValueError("label map must be 2-D")
    h, w = a.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(a.tobytes())


# A run-length label map: a 16-byte header of the magic b"RLE1" and the width,
# height and run count n as little-endian uint32, then the n run lengths as
# little-endian uint32 and the n run values as bytes, runs in row-major order.
RLE_MAGIC = b"RLE1"
_RLE_HEADER = struct.Struct("<4sIII")


def _rle_header(head: bytes, path: str) -> tuple[int, int, int]:
    """(width, height, run count) from head, the file's first bytes."""
    if len(head) < _RLE_HEADER.size:
        raise BundleError(f"{path}: truncated RLE header")
    magic, w, h, n = _RLE_HEADER.unpack_from(head)
    if magic != RLE_MAGIC:
        raise BundleError(f"{path}: not a run-length label map (bad magic {magic!r})")
    if w == 0 or h == 0:
        raise BundleError(f"{path}: bad RLE dimensions {w}x{h}")
    return w, h, n


def _run_fault(
    lengths: np.ndarray, starts: np.ndarray, values: np.ndarray, w: int, h: int
) -> str | None:
    """What keeps these runs from being a LabelRuns of a w x h map, or None.
    A valid map costs a few whole-array passes: no run is empty and the runs
    cover w * h pixels, so they tile the map in order; then no run crosses a
    row end exactly when all h row starts begin a run; and two neighbours may
    hold one value only across a row start. Only a known fault is looked for
    run by run, to name its first run."""
    if not lengths.all():
        return f"run {np.argmin(lengths)} has length 0"
    covered = int(starts[-1] + lengths[-1]) if lengths.size else 0
    if covered != w * h:
        return f"runs cover {covered} pixels, not {w}x{h} = {w * h}"
    row_start = starts == starts // w * w
    if np.count_nonzero(row_start) != h:
        i = np.argmax((starts + lengths - 1) // w != starts // w)
        return f"run {i} crosses the end of row {starts[i] // w}"
    split = np.greater(values[1:] == values[:-1], row_start[1:])
    if split.any():
        i = split.argmax() + 1
        return f"runs {i - 1} and {i} in row {starts[i] // w} both hold value {values[i]}"
    return None


def _read_rle(path: str) -> LabelRuns:
    with open(path, "rb", buffering=0) as fh:  # read whole, so unbuffered
        data = fh.read()
    w, h, n = _rle_header(data, path)
    if (body := len(data) - _RLE_HEADER.size) != 5 * n:
        raise BundleError(f"{path}: {body} bytes of runs, the header declares {n} runs ({5 * n} bytes)")
    lengths = np.frombuffer(data, dtype="<u4", count=n, offset=_RLE_HEADER.size)
    values = np.frombuffer(data, dtype=np.uint8, count=n, offset=_RLE_HEADER.size + 4 * n)
    starts = lengths.astype(np.int64).cumsum() - lengths
    if fault := _run_fault(lengths, starts, values, w, h):
        raise BundleError(f"{path}: {fault}")
    return LabelRuns(starts, values, w, h)


# The mask formats by file suffix: each one's reader, and the header parser
# that label_map_size calls on the open file.
_FORMATS = {
    ".pgm": (_read_pgm, _pgm_header),
    ".rle": (_read_rle, lambda fh, path: _rle_header(fh.read(_RLE_HEADER.size), path)[:2]),
}


def read_label_map(path: str) -> LabelRuns:
    """The label map in path: a run-length map if path ends in .rle, else a
    binary PGM. A format fault, or a value that is not in CATEGORY_IDS, is a
    BundleError naming path.

    A valid map passes each check in a few whole-array passes: the runs'
    tiling (_run_fault) and the largest value. Only a map that fails one is
    scanned again, to name its first fault."""
    read, _ = _FORMATS.get(path[-4:], _FORMATS[".pgm"])
    runs = read(path)
    # The ids are 0 .. 8, so a byte is a category id exactly when it is below 9.
    if runs.values.max() >= len(CATEGORY_IDS):
        i = np.argmax(runs.values >= len(CATEGORY_IDS))
        row, col = divmod(int(runs.starts[i]), runs.width)
        raise BundleError(f"{path}: value {runs.values[i]} at row {row}, column {col} is not a category id")
    return runs


def label_map_size(path: str) -> tuple[int, int]:
    """(width, height) of the label map in path, read from its header alone,
    in the format read_label_map reads."""
    _, header = _FORMATS.get(path[-4:], _FORMATS[".pgm"])
    with open(path, "rb", buffering=0) as fh:  # unbuffered: the header is all it reads
        return header(fh, path)


class MaskDirectory(Mapping):
    """Lazy image_id -> LabelRuns view over a directory that holds one
    <image_id>.pgm or <image_id>.rle label map per image, each read by
    read_label_map when looked up.

    The index is built from the directory's sorted names as strings, with
    pathlib's rule for a suffix: a.b.rle is image a.b, while .rle, x.RLE and
    notes.txt are no label map. Only the directory itself is parsed as a
    Path, so each path reads as pathlib would write it."""

    def __init__(self, directory: str):
        top = str(Path(directory))
        if not os.path.isdir(top):
            raise BundleError(f"{directory}: not a directory")
        prefix = "" if top == "." else os.path.join(top, "")  # Path(".") / name is name
        self._paths: dict[str, str] = {}
        for name in sorted(os.listdir(top)):
            if len(name) <= 4 or name[-4:] not in _FORMATS:
                continue
            path = prefix + name
            stem = name[:-4]
            if stem in self._paths:
                other = os.path.basename(self._paths[stem])
                raise BundleError(f"{path}: {other} is there too; keep one label map per image")
            self._paths[stem] = path

    def path_of(self, image_id: str) -> str:
        return self._paths[image_id]

    def size_of(self, image_id: str) -> tuple[int, int]:
        return label_map_size(self._paths[image_id])

    def __getitem__(self, image_id: str) -> LabelRuns:
        return read_label_map(self._paths[image_id])

    def __contains__(self, image_id: object) -> bool:
        # Mapping's default would decode the whole raster via __getitem__.
        return image_id in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def write_rle(path: str, runs: LabelRuns) -> None:
    lengths = np.diff(runs.starts, append=runs.width * runs.height)
    with open(path, "wb") as fh:
        fh.write(_RLE_HEADER.pack(RLE_MAGIC, runs.width, runs.height, runs.values.size))
        fh.write(lengths.astype("<u4").tobytes())
        fh.write(runs.values.astype(np.uint8).tobytes())
