"""Spans around the public functions of each `rop` module, for the traced run.

Each function is wrapped in the namespace it is called from (for instance
`rop.placer.build_scene`, not `rop.scene.build_scene`), so both call sites of
`rop.scene.extract_regions` are caught by patching it in `rop.scene`. Spans
stay in memory. With `--jobs N` the pool's forked workers inherit the
wrappers; each worker appends its spans to a file of its own after every
top-level call, and the parent merges those files when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _scan_sizes(args, kwargs, result):
    images = kwargs.get("images", args[0] if args else ())
    return [len(images), len(result)]


def _footprint_count(args, kwargs, result):
    footprints = kwargs.get("footprints", args[1] if len(args) > 1 else ())
    return [len(footprints)]


# (module the function is called from, attribute, span name, attributes).
TARGETS = [
    ("rop.cli", "cmd_place", "cli.cmd_place", None),
    ("rop.cli", "_run_buffers", "cli.run_buffers", None),
    ("rop.cli", "load_inputs", "ingest.load_inputs", None),
    ("rop.ingest", "read_pgm", "ingest.read_pgm", None),
    ("rop.placer", "images_in_buffer", "ingest.images_in_buffer", _scan_sizes),
    ("rop.placer", "build_tracks", "ingest.build_tracks", None),
    ("rop.placer", "correct_track", "ingest.correct_track", None),
    ("rop.placer", "build_scene", "scene.build_scene", None),
    ("rop.scene", "extract_regions", "scene.extract_regions", None),
    ("rop.placer", "apply_grammar", "grammar.apply_grammar", None),
    ("rop.grammar", "tallest_pedestrian_px", "grammar.tallest_pedestrian_px", None),
    ("rop.placer", "build_atbt", "atbt.build_atbt", None),
    ("rop.placer", "fuse_track", "atbt.fuse_track", None),
    ("rop.cli", "run_intersection", "placer.run_intersection", None),
    ("rop.placer", "select_corners", "placer.select_corners", _footprint_count),
    ("rop.placer", "place_objects", "placer.place_objects", None),
    ("rop.placer", "dedup_placed", "placer.dedup_placed", None),
    ("rop.cli", "to_geojson", "placer.to_geojson", None),
]


class Tracer:
    """Records (name, duration_s, self_s, attributes) for each wrapped call.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._stack: list[list[float]] = []
        self._worker_dir: Path | None = None
        self._sink: Path | None = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self._worker_dir is None:
            return
        self.records = []
        self._stack = []
        self._sink = self._worker_dir / f"spans-{os.getpid()}.jsonl"

    def _flush(self) -> None:
        with open(self._sink, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.records) + "\n")
        self.records = []

    def wrap(self, name: str, fn, attributes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
            extra = attributes(args, kwargs, result) if attributes else None
            self.records.append((name, duration, duration - frame[0], extra))
            if self._sink is not None and not self._stack:
                self._flush()
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, worker_dir: Path):
        """Wrap every target that exists; restore the originals on exit."""
        self.records = []
        self._worker_dir = worker_dir
        saved = []
        try:
            for module_name, attr, name, attributes in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, attributes))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._worker_dir = None

    def collect(self, worker_dir: Path) -> list[tuple]:
        """This process's records plus those the workers wrote."""
        records = list(self.records)
        for path in sorted(worker_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                records.extend(tuple(r) for r in json.loads(line))
        return records


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(records: list[tuple], n_images: int) -> dict[str, float]:
    """Per-layer figures from one traced placement. Times are summed over calls."""
    spans = defaultdict(list)
    for name, duration, self_s, extra in records:
        spans[name].append((duration, self_s, extra))

    def total(name):
        return sum(d for d, _, _ in spans[name])

    def self_total(name):
        return sum(s for _, s, _ in spans[name])

    scans = [e for _, _, e in spans["ingest.images_in_buffer"]]
    scanned = sum(s for s, _ in scans)
    corners = [e[0] for _, _, e in spans["placer.select_corners"]]
    latency_ms = [d * 1000.0 for d, _, _ in spans["placer.run_intersection"]]
    return {
        "ingest.load_inputs_s": total("ingest.load_inputs"),
        "ingest.read_pgm_calls_per_image": len(spans["ingest.read_pgm"]) / n_images,
        "ingest.read_pgm_s": total("ingest.read_pgm"),
        "ingest.images_in_buffer_s": total("ingest.images_in_buffer"),
        "ingest.images_scanned_per_buffer": scanned / len(scans) if scans else 0.0,
        "ingest.images_in_buffer_hit_ratio": sum(h for _, h in scans) / scanned if scanned else 0.0,
        "ingest.tracks_s": total("ingest.build_tracks") + total("ingest.correct_track"),
        "scene.extract_regions_s": total("scene.extract_regions"),
        "scene.extract_regions_calls_per_image": len(spans["scene.extract_regions"]) / n_images,
        "scene.build_scene_s": total("scene.build_scene"),
        "grammar.apply_grammar_s": total("grammar.apply_grammar"),
        "grammar.tallest_pedestrian_px_s": total("grammar.tallest_pedestrian_px"),
        "atbt.build_atbt_s": total("atbt.build_atbt"),
        "atbt.fuse_track_s": total("atbt.fuse_track"),
        "placer.select_corners_s": total("placer.select_corners"),
        "placer.footprints_per_select_corners": sum(corners) / len(corners) if corners else 0.0,
        "placer.run_intersection_ms_p50": _quantile(latency_ms, 50),
        "placer.run_intersection_ms_p90": _quantile(latency_ms, 90),
        "placer.place_objects_s": total("placer.place_objects"),
        "placer.dedup_placed_s": total("placer.dedup_placed"),
        "placer.to_geojson_s": total("placer.to_geojson"),
        "cli.self_s": self_total("cli.cmd_place"),
        "cli.pool_s": self_total("cli.run_buffers"),
    }
