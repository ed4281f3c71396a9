"""Command-line entry point.

Subcommands: place (bundle -> placed-object GeoJSON), synth (fixture bundles
with truth), eval (score predictions against references), dump-trees
(per-image tree export), config (check the configuration; --show prints it).

Exit codes: 0 success, 1 failed --min-completeness gate, 2 input error,
3 empty output, 64 usage error, 70 internal fault (a bug in rop, reported in
one line; ROP_LOG=DEBUG adds its traceback), 120 a reader closed the output
pipe (nothing on stderr: the code Python exits with when it cannot flush
stdout). ROP_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import pickle
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import NoReturn

# rop makes no BLAS call, yet by default OpenBLAS starts a worker thread at
# numpy import that spins and burns CPU that places nothing, so the command
# line runs OpenBLAS on one thread. This must run before anything imports
# numpy; a value already in the environment wins. Library users who import
# rop's other modules keep OpenBLAS's own default.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# Importing numpy and rop makes tens of collector passes that free next to
# nothing, so the collector is paused while they import and then left as it
# was found; console_main then freezes what they made. Like the line above,
# this is the command line's alone.
_collecting = gc.isenabled()
gc.disable()
try:
    from .atbt import tree_to_json
    from .config import RunConfig, check_range, load_config
    from .ingest import Bundle, _load_json, load_inputs
    from .placer import (
        IntersectionResult,
        PlacedObject,
        Slice,
        from_geojson,
        geojson_feature,
        output_order,
        run_intersection,
        slice_bundle,
        track_trees,
    )
finally:
    if _collecting:
        gc.enable()

# synth and evalx are imported where they are used, so a `rop place` process
# loads only what placement runs.

EX_OK = 0
EX_GATE = 1
EX_INPUT = 2
EX_EMPTY = 3
EX_USAGE = 64
EX_SOFTWARE = 70
EX_PIPE = 120

# The range of each numeric flag, checked before its command runs (exit 2).
FLAG_RANGES = {"--fixtures": ">= 0", "--radius": "> 0", "--min-completeness": "in [0, 1]"}

log = logging.getLogger("rop.cli")


class Fault(Exception):
    """A fault in rop itself, not in its input, as its one line of stderr."""


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _add_bundle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--images", required=True, help="images.json manifest")
    p.add_argument(
        "--masks", required=True, help="directory of <image_id>.pgm or <image_id>.rle label maps"
    )
    p.add_argument("--detections", required=True, help="detections JSONL")
    p.add_argument("--footprints", required=True, help="building footprints GeoJSON")
    p.add_argument("--buffers", required=True, help="intersection buffers JSON")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration value (repeatable)",
    )


def _jobs(text: str) -> int:
    """The value of --jobs: a whole number of at least 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    if int(text) > 1 and not hasattr(os, "fork"):
        raise argparse.ArgumentTypeError(f"{text} needs os.fork, which this platform lacks; use 1")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="rop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_place = sub.add_parser("place", help="run the placement pipeline on a bundle")
    _add_bundle_flags(p_place)
    _add_config_flags(p_place)
    p_place.add_argument("--out", required=True, help="output GeoJSON path")
    p_place.add_argument(
        "--jobs", type=_jobs, default=1, help="processes across intersections: this one and forked workers"
    )
    p_place.set_defaults(func=cmd_place)

    p_synth = sub.add_parser("synth", help="generate synthetic fixture bundles with truth")
    p_synth.add_argument("--out", required=True, help="output directory")
    source = p_synth.add_mutually_exclusive_group(required=True)
    source.add_argument("--layout", default=None, help="layout JSON (single object or list)")
    source.add_argument("--fixtures", type=int, default=None, metavar="N", help="generate N standard fixtures")
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score predictions against references")
    p_eval.add_argument("--pred", required=True, help="predicted GeoJSON")
    p_eval.add_argument("--ref", required=True, help="reference GeoJSON")
    p_eval.add_argument("--radius", type=float, default=5.0, help="match radius in meters")
    p_eval.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_eval.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_eval.add_argument(
        "--min-completeness",
        type=float,
        default=None,
        help="exit 1 when overall completeness falls below this, finite in [0, 1]",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_trees = sub.add_parser("dump-trees", help="export per-image trees as JSON")
    _add_bundle_flags(p_trees)
    _add_config_flags(p_trees)
    p_trees.add_argument("--out", required=True, help="output JSON path")
    p_trees.set_defaults(func=cmd_dump_trees)

    p_cfg = sub.add_parser("config", help="check the effective configuration")
    _add_config_flags(p_cfg)
    p_cfg.add_argument("--show", action="store_true", help="print name = value lines")
    p_cfg.set_defaults(func=cmd_config)

    return parser


# ---------------------------------------------------------------------------
# place


def _load_bundle(args) -> Bundle:
    return load_inputs(args.images, args.masks, args.detections, args.footprints, args.buffers)


def deal(sizes: list[int], n: int) -> list[list[int]]:
    """The slice indices of each of n processes, each list in slice order.

    Buffers go out by size (image count), largest first and ties in slice
    order, each to the least-loaded process, ties to the lowest process."""
    shares: list[list[int]] = [[] for _ in range(n)]
    loads = [0] * n
    for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += sizes[i]
    return [sorted(share) for share in shares]


def _place_share(
    slices: list[Slice], share: list[int], cfg: RunConfig
) -> tuple[list[IntersectionResult], tuple[int, Exception] | None]:
    """The results of share's buffers in order, or, at the first buffer that
    fails, no results and that buffer's index with its exception. An input
    error passes as it is; any other exception becomes a Fault naming the
    buffer, its traceback logged at DEBUG in the process that hit it."""
    results = []
    for i in share:
        try:
            results.append(run_intersection(slices[i], cfg))
        except (ValueError, OSError) as exc:
            return [], (i, exc)
        except Exception as exc:
            iid = slices[i].buffer.intersection_id
            log.debug("fault placing %s", iid, exc_info=True)
            return [], (i, Fault(f"{iid}: {type(exc).__name__}: {exc}"))
    return results, None


def _worker(
    slices: list[Slice], share: list[int], cfg: RunConfig, out: int, inherited: list[int]
) -> NoReturn:
    """A forked worker's whole life: place share, write the pickled outcome to
    the pipe end out, exit. It never returns into the caller of rop's main."""
    code = 1
    try:
        for fd in inherited:  # read ends of this worker's own and earlier pipes
            os.close(fd)
        with open(out, "wb") as fh:
            fh.write(pickle.dumps(_place_share(slices, share, cfg), pickle.HIGHEST_PROTOCOL))
        code = 0
    except Exception:  # the payload cannot be sent: exit 1, the parent reports it
        log.debug("place worker cannot send its results", exc_info=True)
    finally:
        sys.stderr.flush()
        os._exit(code)


def _run_buffers(args, cfg: RunConfig, jobs: int) -> list[IntersectionResult]:
    """Per-buffer results in slice order, identical for any job count.

    The bundle is loaded and sliced once. With jobs above 1 the slices are
    dealt to min(jobs, buffers) processes: this one places the first share,
    and each other share goes to a forked worker, which inherits the slices
    and sends its results back through a pipe. The exception of the lowest
    failing buffer is raised, as --jobs 1 would raise it. The rop command
    runs one thread (OpenBLAS included, see above), so it forks safely."""
    bundle = _load_bundle(args)
    slices = slice_bundle(bundle, cfg)
    shares = deal([part.n_images for part in slices], max(1, min(jobs, len(slices))))
    readers: dict[int, int] = {}  # worker pid -> read end of its pipe, until read
    running: list[int] = []  # worker pids not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(slices, share, cfg, w, [r, *readers.values()])
            os.close(w)
            readers[pid] = r
            running.append(pid)
        outcomes = [_place_share(slices, shares[0], cfg)]
        for k, pid in enumerate(running.copy(), 1):
            with open(readers.pop(pid), "rb") as fh:
                payload = fh.read()
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            if status:
                raise RuntimeError(
                    f"place worker {k} (pid {pid}) ended without its results: wait status {status}, "
                    f"exit code {os.waitstatus_to_exitcode(status)}"
                )
            outcomes.append(pickle.loads(payload))
    finally:
        for r in readers.values():  # a worker blocked on a full pipe gets EPIPE
            os.close(r)
        for pid in running:
            os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    placed = {i: result for share, (done, _) in zip(shares, outcomes) for i, result in zip(share, done)}
    return [placed[i] for i in range(len(slices))]


def write_json(path: str, members: Iterable[tuple[str, object]]) -> None:
    """Write the JSON object of members, (key, value) pairs in key order, to path
    as json.dumps(dict(members), indent=2, sort_keys=True) + "\n", one value, or
    one item of a value that is an iterator (a list), at a time. A pipe or device
    such as /dev/stdout is written in place; a file is written beside its real
    path and renamed onto it when whole, so a failed write leaves it as it was."""
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    in_place = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if in_place else f"{os.path.realpath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w" if in_place else "x", encoding="utf-8")
    except OSError as exc:  # name path, not the temporary file beside it
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            opening = "{"
            for key, value in members:
                fh.write(f"{opening}\n  {encode(key)}: ")
                opening = ","
                if not isinstance(value, Iterator):
                    fh.write(encode(value).replace("\n", "\n  "))
                    continue
                item_opening = "["
                for item in value:
                    fh.write(f"{item_opening}\n    " + encode(item).replace("\n", "\n    "))
                    item_opening = ","
                fh.write("[]" if item_opening == "[" else "\n  ]")
            fh.write("{}\n" if opening == "{" else "\n}\n")
        if not in_place:
            os.replace(tmp, os.path.realpath(path))
    except BaseException:
        if not in_place:
            os.unlink(tmp)
        raise


def write_placed(path: str, placed: list[PlacedObject], diagnostics: list[dict]) -> None:
    """The bytes of to_geojson(placed) with diagnostics, one feature at a time."""
    features = map(geojson_feature, sorted(placed, key=output_order))
    write_json(path, [("diagnostics", diagnostics), ("features", features), ("type", "FeatureCollection")])


def cmd_place(args) -> int:
    cfg = load_config(args.config, args.set)
    results = _run_buffers(args, cfg, args.jobs)
    placed = [obj for res in results for obj in res.placed]
    write_placed(args.out, placed, [d for res in results for d in res.diagnostics])
    log.info("placed %d objects across %d intersections", len(placed), len(results))
    if not placed:
        log.warning("no objects placed")
        return EX_EMPTY
    return EX_OK


def cmd_dump_trees(args) -> int:
    """The tree stage alone: slice -> tracks -> one tree per image."""
    cfg = load_config(args.config, args.set)
    parts = slice_bundle(_load_bundle(args), cfg)
    write_json(args.out, ((part.buffer.intersection_id, {
        track.track_id: [tree_to_json(t) for t in track_trees(part, track, cfg)] for track in part.tracks
    }) for part in parts))
    return EX_OK


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    from .synth import (
        load_layouts,
        render_bundle,
        save_layouts,
        standard_fixtures,
        truth_as_placed,
        write_bundles,
        write_truth,
    )

    if args.layout is not None:
        layouts = load_layouts(args.layout)
    else:
        layouts = standard_fixtures(n=args.fixtures, seed=args.seed)
    out_dir = Path(args.out)
    # Each layout renders as write_bundles draws it: one layout's maps are in memory at a time.
    write_bundles((render_bundle(lay)[0] for lay in layouts), str(out_dir))
    write_truth([ref for lay in layouts for ref in truth_as_placed(lay)], str(out_dir / "truth.geojson"))
    save_layouts(layouts, str(out_dir / "layouts.json"))
    log.info("wrote %d layouts to %s", len(layouts), out_dir)
    return EX_OK


# ---------------------------------------------------------------------------
# eval


def _read_placed(path: str) -> list[PlacedObject]:
    """The objects of a placed-object GeoJSON file; any error in it names the file."""
    return from_geojson(_load_json(path), path)


def cmd_eval(args) -> int:
    from .evalx import evaluate, to_table
    from .evalx import to_json as report_to_json

    preds = _read_placed(args.pred)
    refs = _read_placed(args.ref)
    if args.min_completeness is not None and not refs:
        raise ValueError(f"{args.ref}: no reference objects, so --min-completeness cannot be checked")
    report = evaluate(preds, refs, radius_m=args.radius)
    if args.json:
        text = json.dumps(report_to_json(report), indent=2, sort_keys=True)
    else:
        text = to_table(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.min_completeness is not None:
        c = report.group("overall").completeness
        if c < args.min_completeness:
            log.error("completeness %.4f below gate %.4f", c, args.min_completeness)
            return EX_GATE
    return EX_OK


# ---------------------------------------------------------------------------
# config


def cmd_config(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.show:
        print(cfg.show())
    return EX_OK


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level_name = os.environ.get("ROP_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level_name, logging.WARNING),
        format="%(name)s %(levelname)s %(message)s",
    )
    try:
        for flag, rule in FLAG_RANGES.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None:
                check_range(flag, value, rule)
        return args.func(args)
    except BrokenPipeError:  # a reader that stops reading is not bad input
        return EX_PIPE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_INPUT
    except Exception as exc:
        if not isinstance(exc, Fault):
            log.debug("internal fault", exc_info=True)
            exc = Fault(f"{type(exc).__name__}: {exc}")
        sys.stderr.write(f"internal error: {exc}\n")
        return EX_SOFTWARE


def _exit(code: int) -> NoReturn:
    """End the process with code and skip interpreter teardown, which takes
    tens of milliseconds and writes nothing. By now main() has returned: its
    output file is closed and every forked worker reaped. An exception or a
    usage SystemExit never reaches here and exits the normal way. A stream
    whose reader has gone away ends the process with EX_PIPE, as in main()."""
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = EX_PIPE
        except OSError:  # a full disk, say: Python's own exit reports it
            raise SystemExit(code) from None
    os._exit(code)


def console_main() -> NoReturn:
    """The rop command: main() in a process that ends with it. Every object
    the imports made lives until then, so they are frozen out of the
    collector's passes first."""
    gc.freeze()
    _exit(main())


if __name__ == "__main__":
    console_main()
