"""Bundle loading: the records in a bundle's files, and the record codec.

A bundle is the on-disk contract of the pipeline: camera metadata (JSON),
per-image semantic label maps (binary PGM or run-length files, which
labelmap indexes and reads), object detections (JSON Lines), building
footprints (GeoJSON), and intersection buffers (JSON). Every JSON record rop reads or writes is a
dataclass that one record codec, to_json and from_json, writes and reads, a
point field marked flat in its metadata as the record's own lat and lon (or x
and y); every GeoJSON feature goes through geojson_features or feature.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from collections.abc import Iterator, Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .config import check_fields
from .geo import Footprint, GeoPoint, make_frame
from .labelmap import BundleError, LabelRuns, MaskDirectory

log = logging.getLogger("rop.ingest")


# ---------------------------------------------------------------------------
# Core records.


@dataclass(slots=True)
class ImageMeta:
    """One images.json record. The record codec (to_json, from_json) writes
    and reads it, its position as the record's lat and lon, so sequence_id
    and captured_at stay, though placement does not read them."""

    image_id: str
    position: GeoPoint = field(metadata={"flat": True})
    heading_deg: float | None
    sequence_id: str
    captured_at: float | str | None
    width_px: int = field(metadata={"range": "> 0"})
    height_px: int = field(metadata={"range": "> 0"})


@dataclass(frozen=True)
class IntersectionBuffer:
    intersection_id: str
    center: GeoPoint = field(metadata={"flat": True})
    radius_m: float = field(default=50.0, metadata={"range": "> 0"})


@dataclass(slots=True)
class Detection:
    """One detections.jsonl line, written and read by the record codec
    (to_json, from_json). score stays, though placement does not read it."""

    image_id: str
    category: str
    subtype: str | None
    bbox: tuple[float, float, float, float]  # x, y, w, h in pixels
    score: float = field(metadata={"range": "in [0, 1]"})


@dataclass
class Bundle:
    images: list[ImageMeta]
    label_maps: Mapping[str, LabelRuns]
    detections: dict[str, list[Detection]]
    footprints: list[Footprint]
    buffers: list[IntersectionBuffer]


# ---------------------------------------------------------------------------
# JSON loaders.


def _load_json(path: str):
    """The document in path; bad JSON or bad UTF-8 is a BundleError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise BundleError(f"{path}: {exc}") from exc


def _records(path: str, what: str, doc) -> Iterator[tuple[str, dict]]:
    """(where, record) for each element of doc, the JSON array of what read
    from path; where names the file and the record. A doc that is not an
    array, or a record that is not an object, is a BundleError."""
    if not isinstance(doc, list):
        raise BundleError(f"{path}: expected a JSON array of {what}")
    for i, rec in enumerate(doc):
        where = f"{path}: {what}[{i}]"
        if not isinstance(rec, dict):
            raise BundleError(f"{where}: expected a JSON object")
        yield where, rec


# ---------------------------------------------------------------------------
# The record codec: every JSON record rop reads or writes is a dataclass, and
# to_json and from_json are its one written form.


def to_json(value):
    """value, a JSON scalar or a list, tuple or dataclass of them, as JSON. A
    dataclass is an object of its fields by name, but a field whose metadata
    says flat adds its own fields (lat and lon, or x and y)."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    out = {}
    for f in fields(value):
        v = to_json(getattr(value, f.name))
        out.update(v if f.metadata.get("flat") else {f.name: v})
    return out


def from_json(kind: type, doc, where: str):
    """doc, the JSON object at where, read as a kind dataclass as to_json
    writes it: each field by its type, and a flat field from the object's
    own fields. A field typed X | None may be null or absent; any other
    absent field takes its default; a field with a range is checked by
    config.check_fields. Any fault is a BundleError naming where and the field."""
    return _record(kind)(doc, where)


# The JSON scalar types: what an error calls each, and the Python types json
# reads a value of it as.
_SCALARS = {
    bool: ("a boolean", (bool,)),
    int: ("a number", (int, float)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    type(None): ("null", (type(None),)),
}
# How _record reads a field besides by its key: a flat field read from the
# record itself, or, for an absent key, an error or the dataclass default.
_FLAT, _REQUIRED, _DEFAULT = object(), object(), object()


@cache
def _record(kind: type):
    """from_json's reader (doc, where) -> kind, built once per kind."""
    hints = get_type_hints(kind)
    plan = []
    for f in fields(kind):
        tp = hints[f.name]
        if f.metadata.get("flat"):
            plan.append((f.name, _record(tp), _FLAT))
            continue
        if f.default is not MISSING or f.default_factory is not MISSING:
            absent = _DEFAULT
        else:
            absent = None if type(None) in get_args(tp) else _REQUIRED
        plan.append((f.name, _reader(tp), absent))

    def read(doc, where: str):
        if not isinstance(doc, dict):
            raise BundleError(f"{where}: expected a JSON object")
        values = {}
        for name, reader, absent in plan:
            if absent is _FLAT:
                values[name] = reader(doc, where)
            elif name in doc:
                values[name] = reader(doc[name], name, where)
            elif absent is _REQUIRED:
                raise BundleError(f"{where}: missing field '{name}'")
            elif absent is not _DEFAULT:
                values[name] = absent
        try:
            record = kind(**values)
            check_fields(record)
        except ValueError as exc:  # a dataclass's own check, such as GeoPoint's, or a field's range
            raise BundleError(f"{where}: {exc}") from exc
        return record

    return read


@cache
def _reader(tp):
    """The reader (value, key, where) -> tp of a field typed tp, built once
    per type."""
    args = get_args(tp)
    if is_dataclass(tp):
        record = _record(tp)
        return lambda value, key, where: record(value, f"{where}.{key}")
    if get_origin(tp) is list:
        item = _reader(args[0])

        def read_list(value, key: str, where: str):
            if not isinstance(value, list):
                raise BundleError(f"{where}: {key} must be a list")
            return [item(v, f"{key}[{i}]", where) for i, v in enumerate(value)]

        return read_list
    if get_origin(tp) is tuple:  # of fixed length, such as tuple[float, float]
        items = [_reader(a) for a in args]

        def read_tuple(value, key: str, where: str):
            if not (isinstance(value, list) and len(value) == len(items)):
                raise BundleError(f"{where}: {key} must be a list of {len(items)} items")
            return tuple([r(v, f"{key}[{i}]", where) for i, (r, v) in enumerate(zip(items, value))])

        return read_tuple
    # A JSON scalar type, or a union of them such as float | str | None.
    options = args or (tp,)
    what = " or ".join(_SCALARS[t][0] for t in options)
    takes = {py: t for t in options for py in _SCALARS[t][1]}

    def read_scalar(value, key: str, where: str):
        t = takes.get(type(value))
        if t is None:
            raise BundleError(f"{where}: {key} must be {what}")
        if t is str:  # one object per distinct string, however many records repeat it
            return sys.intern(value)
        if t is not int and t is not float:
            return value
        if t is float and type(value) is float and math.isfinite(value):  # the common case
            return value
        # A number must be finite, and whole where the field is an int.
        if t is int and type(value) is float and not value.is_integer():
            raise BundleError(f"{where}: {key} must be a number")
        try:
            number = t(value)
            finite = math.isfinite(number)
        except OverflowError as exc:  # an integer too large for a float
            raise BundleError(f"{where}: {key} must be a number") from exc
        if not finite:
            raise BundleError(f"{where}: {key} must be finite")
        return number

    return read_scalar


# ---------------------------------------------------------------------------
# GeoJSON (RFC 7946): the one reader of FeatureCollections, footprints and
# placed objects alike, and the one builder of the features rop writes.


def geojson_features(doc, path: str, geometry: str) -> Iterator[tuple[str, object, dict, object]]:
    """(where, coordinates, properties, id) of each feature of doc, the GeoJSON
    FeatureCollection in path. Each feature must be an object with a geometry
    of type geometry and properties that are an object or null, read as {};
    id is the feature's own, or None. Any fault is a BundleError naming path."""
    if not (isinstance(doc, dict) and doc.get("type") == "FeatureCollection"):
        raise BundleError(f"{path}: expected a GeoJSON FeatureCollection")
    if not isinstance(doc.get("features"), list):
        raise BundleError(f"{path}: features must be a list")
    for where, feat in _records(path, "features", doc["features"]):
        geom = feat.get("geometry")
        if not (isinstance(geom, dict) and geom.get("type") == geometry):
            raise BundleError(f"{where}: geometry.type must be {geometry}")
        props = feat.get("properties")
        if not (props is None or isinstance(props, dict)):
            raise BundleError(f"{where}: properties must be an object or null")
        yield where, geom.get("coordinates"), props or {}, feat.get("id")


def lon_lat(position, where: str) -> dict:
    """A GeoJSON position, [lon, lat] and an ignored altitude, as a record's lat and lon."""
    if not (isinstance(position, list) and len(position) >= 2):
        raise BundleError(f"{where} must be [lon, lat]")
    return {"lat": position[1], "lon": position[0]}


def feature(geometry: str, coordinates, properties: dict) -> dict:
    return {"type": "Feature", "geometry": {"type": geometry, "coordinates": coordinates}, "properties": properties}


def load_images(path: str) -> list[ImageMeta]:
    out: list[ImageMeta] = []
    seen: set[str] = set()
    for where, rec in _records(path, "images", _load_json(path)):
        image = from_json(ImageMeta, rec, where)
        if image.image_id in seen:
            raise BundleError(f"{where}: duplicate image_id '{image.image_id}'")
        seen.add(image.image_id)
        if image.heading_deg is not None:
            image.heading_deg %= 360.0
        out.append(image)
    return out


def load_detections(path: str, known_images: set[str] | None = None) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    # Lines end at \n, as JSON Lines defines; each is decoded on its own, so a
    # byte that is not UTF-8 is reported with its line.
    with open(path, "rb") as fh:
        for ln, raw in enumerate(fh):
            where = f"{path}: line {ln + 1}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise BundleError(f"{where}: not valid UTF-8 ({exc.reason})") from exc
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BundleError(f"{where}: invalid JSON") from exc
            det = from_json(Detection, rec, where)
            if known_images is not None and det.image_id not in known_images:
                raise BundleError(f"{where}: detection references unknown image_id '{det.image_id}'")
            if not (det.bbox[2] > 0 and det.bbox[3] > 0):
                raise BundleError(f"{where}: bbox width and height must be positive, got {list(det.bbox)}")
            out.setdefault(det.image_id, []).append(det)
    return out


def load_footprints(path: str) -> list[Footprint]:
    """Read building footprints from a GeoJSON FeatureCollection of Polygons.

    The outer ring is used and holes are ignored. A feature without an 'id'
    property takes the feature's own id. An id is a string, or a whole
    number, which is read as its digits.
    """
    out: list[Footprint] = []
    for where, rings, props, own_id in geojson_features(_load_json(path), path, "Polygon"):
        fid = props.get("id", own_id)
        if fid is None:
            raise BundleError(f"{where} is missing the 'id' property")
        whole = isinstance(fid, int) or (isinstance(fid, float) and fid.is_integer())
        if isinstance(fid, bool) or not (isinstance(fid, str) or whole):
            raise BundleError(f"{where}: id must be a string or a whole number, got {json.dumps(fid)}")
        if not (isinstance(rings, list) and rings and isinstance(rings[0], list)):
            raise BundleError(f"{where}: geometry.coordinates holds no ring")
        ring = []
        for k, c in enumerate(rings[0]):
            at = f"{where}: vertex {k}"
            ring.append(from_json(GeoPoint, lon_lat(c, at), at))
        try:
            fp = Footprint(id=fid if isinstance(fid, str) else str(int(fid)), ring=tuple(ring))
        except ValueError as exc:
            raise BundleError(f"{where}: {exc}") from exc
        if fp.centroid is None:
            raise BundleError(f"{where} ({fp.id}) has a zero-area ring")
        out.append(fp)
    return out


def load_buffers(path: str) -> list[IntersectionBuffer]:
    out = []
    seen: set[str] = set()
    for where, rec in _records(path, "buffers", _load_json(path)):
        buffer = from_json(IntersectionBuffer, rec, where)
        if buffer.intersection_id in seen:
            raise BundleError(f"{where}: duplicate intersection_id '{buffer.intersection_id}'")
        seen.add(buffer.intersection_id)
        try:
            make_frame(buffer.center)  # placement needs a tangent frame at the centre
        except ValueError as exc:
            raise BundleError(f"{where}: {exc}") from exc
        out.append(buffer)
    return out


def load_inputs(
    images_path: str,
    masks_dir: str,
    detections_path: str,
    footprints_path: str,
    buffers_path: str,
) -> Bundle:
    """Load and cross-validate a full input bundle.

    Label maps stay lazy (header-validated only) so large bundles do not have
    to fit in memory at once.
    """
    images = load_images(images_path)
    label_maps = MaskDirectory(masks_dir)
    for im in images:
        if im.image_id not in label_maps:
            raise BundleError(f"{masks_dir}: missing label map for image '{im.image_id}'")
        w, h = label_maps.size_of(im.image_id)
        if (w, h) != (im.width_px, im.height_px):
            raise BundleError(
                f"{label_maps.path_of(im.image_id)}: label map is {w}x{h}, "
                f"{images_path} declares {im.width_px}x{im.height_px} for '{im.image_id}'"
            )
    extra = set(label_maps) - {im.image_id for im in images}
    if extra:
        log.warning("masks directory has %d label maps without image records", len(extra))
    detections = load_detections(detections_path, known_images={im.image_id for im in images})
    footprints = load_footprints(footprints_path)
    buffers = load_buffers(buffers_path)
    return Bundle(
        images=images,
        label_maps=label_maps,
        detections=detections,
        footprints=footprints,
        buffers=buffers,
    )
