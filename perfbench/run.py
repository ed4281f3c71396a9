"""Placement benchmark: time `rop place` on a synthetic bundle and score it.

Run from the repository root:

    python3 perfbench/run.py --workload fixtures20 --seed 1 --seconds 20 --trace 0

Each run renders the workload's bundle three times through `rop.synth`
(set-up), makes one untimed warm-up placement, then places the bundle again
and again for --seconds, one placement at a time (a closed loop with one
client). With --trace 0 each placement is a fresh `rop place` process and the
end-to-end metrics are printed. With --trace 1 each placement calls
`rop.cli.main` in-process, alternating untraced and traced calls, and the
per-layer metrics come from spans recorded around the pipeline's functions
(see spans.py). Every placement is checked: exit code 0, overall completeness
at 5 m of at least 0.97, and output bytes equal to the warm-up's. The warm-up
always runs with --jobs 1, so the fixtures20-jobs2 placements are also checked
against the single-process output. The bundle files are written just before
the warm-up and stay in the page cache; no cold-cache figure is measured.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 3
COMPLETENESS_FLOOR = 0.97
MATCH_RADIUS_M = 5.0
BUDGET_S = 170.0
REFERENCE_JOBS = 1


@dataclass
class Placement:
    wall_s: float
    rc: int
    output: bytes | None
    cpu_s: float = 0.0
    rss_mb: float = 0.0


@dataclass
class Quality:
    completeness: float
    precision: float
    mean_error_m: float
    evaluate_s: float


class Bench:
    def __init__(self, args, launcher, files, refs, run_dir: Path, started: float):
        self.args = args
        self.launcher = launcher
        self.files = files
        self.refs = refs
        self.run_dir = run_dir
        self.out = run_dir / "placed.geojson"
        self.started = started
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def remaining_s(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def _argv(self, jobs: int) -> list[str]:
        return ["place", *self.files.place_flags(), "--out", str(self.out), "--jobs", str(jobs)]

    def _take_output(self) -> bytes | None:
        if not self.out.exists():
            return None
        data = self.out.read_bytes()
        self.out.unlink()
        return data

    def place_subprocess(self, jobs: int) -> Placement:
        """One `rop place` process, started by the launch.py helper."""
        log = self.run_dir / "place.log"
        request = {
            "cmd": [sys.executable, "-m", "rop.cli", *self._argv(jobs)],
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "cwd": str(ROOT),
            "log": str(log),
            "timeout_s": max(1.0, self.remaining_s()),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launch.py helper exited")
        r = json.loads(reply)
        if r["rc"] != 0:
            sys.stderr.write(f"rop place exited {r['rc']}:\n{log.read_text(errors='replace')[-2000:]}")
        return Placement(r["wall_s"], r["rc"], self._take_output(), r["cpu_s"], r["rss_mb"])

    def place_in_process(self, jobs: int) -> Placement:
        from rop.cli import main

        t0 = time.perf_counter()
        try:
            rc = main(self._argv(jobs))
        except Exception:  # a crash is a failed placement, not a failed benchmark
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
        return Placement(wall_s=wall, rc=rc, output=self._take_output())

    def score(self, output: bytes | None) -> Quality | None:
        from rop.evalx import evaluate
        from rop.placer import from_geojson

        if output is None:
            return None
        try:
            preds = from_geojson(json.loads(output))
        except (ValueError, KeyError, TypeError) as exc:
            print(f"unreadable placement output: {exc!r}", file=sys.stderr)
            return None
        t0 = time.perf_counter()
        overall = evaluate(preds, self.refs, radius_m=MATCH_RADIUS_M).group("overall")
        evaluate_s = time.perf_counter() - t0
        return Quality(
            completeness=overall.completeness or 0.0,
            precision=overall.n_matched / overall.n_pred if overall.n_pred else 0.0,
            mean_error_m=overall.mean_m or 0.0,
            evaluate_s=evaluate_s,
        )

    def _ok(self, p: Placement, q: Quality | None) -> bool:
        return (
            p.rc == 0
            and q is not None
            and q.completeness >= COMPLETENESS_FLOOR
            and p.output == self.reference
        )

    def warm_up(self) -> bool:
        """One untimed placement at --jobs 1; its output is the reference bytes."""
        p = self.place_subprocess(REFERENCE_JOBS)
        self.reference = p.output
        q = self.score(p.output)
        if not self._ok(p, q):
            print(f"warm-up placement is bad: exit {p.rc}, quality {q}", file=sys.stderr)
            return False
        return True

    def check(self, p: Placement) -> Quality | None:
        """Score one timed placement and count it, as failed when it is bad."""
        q = self.score(p.output)
        self.attempted += 1
        self.failed += not self._ok(p, q)
        return q

    def timed_loop(self):
        """Yield until --seconds have passed, at least once, within the time budget."""
        t0 = time.perf_counter()
        last_s = 0.0
        while last_s == 0.0 or (
            time.perf_counter() - t0 < self.args.seconds and self.remaining_s() > 1.5 * last_s
        ):
            t = time.perf_counter()
            yield
            last_s = time.perf_counter() - t


def run_untraced(bench: Bench, jobs: int, setup: list) -> tuple[dict, dict]:
    placements, qualities = [], []
    for _ in bench.timed_loop():
        p = bench.place_subprocess(jobs)
        placements.append(p)
        q = bench.check(p)
        if q is not None:
            qualities.append(q)
    n_images = bench.files.n_images
    samples = {
        "place_s": [p.wall_s for p in placements],
        "ms_per_image": [p.wall_s * 1000.0 / n_images for p in placements],
        "cpu_s": [p.cpu_s for p in placements],
        "peak_rss_mb": [p.rss_mb for p in placements],
        "setup_s": [f.setup_s for f in setup],
        "completeness": [q.completeness for q in qualities] or [0.0],
        "precision": [q.precision for q in qualities] or [0.0],
        "mean_error_m": [q.mean_error_m for q in qualities] or [0.0],
    }
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def run_traced(bench: Bench, jobs: int, setup: list) -> tuple[dict, dict]:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced, layers, evaluations = [], [], [], []
    for _ in bench.timed_loop():
        p = bench.place_in_process(jobs)
        bench.check(p)
        untraced.append(p.wall_s)
        worker_dir = bench.run_dir / f"spans-{len(traced)}"
        worker_dir.mkdir()
        with tracer.patched(worker_dir):
            p = bench.place_in_process(jobs)
        records = tracer.collect(worker_dir)
        if jobs > 1 and not any(worker_dir.iterdir()):
            raise RuntimeError("no spans came back from the pool's workers")
        q = bench.check(p)
        traced.append(p.wall_s)
        layers.append(layer_metrics(records, bench.files.n_images))
        if q is not None:
            evaluations.append(q.evaluate_s)
    samples = {name: [m[name] for m in layers] for name in layers[0]}
    samples["evalx.evaluate_s"] = evaluations or [0.0]
    samples["synth.render_bundle_s"] = [f.render_s for f in setup]
    samples["synth.write_bundle_s"] = [f.write_s for f in setup]
    samples["trace.place_traced_s"] = traced
    samples["trace.place_untraced_s"] = untraced
    samples["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def _fsync_tree(directory: Path) -> None:
    """Flush the bundle just written, so write-back does not overlap the timed runs."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rop" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'rop'} or {spec_path} is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rop
    from bundles import WORKLOADS, write_workload
    from rop.placer import from_geojson

    if Path(rop.__file__).resolve().parent != SRC / "rop":
        print(f"error: imported rop from {rop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir()
    launcher = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("launch.py"))],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        setup = []
        for k in range(SETUPS):
            if setup:
                shutil.rmtree(setup[-1].directory)
            setup.append(write_workload(workload, args.seed, run_dir / f"bundle-{k}"))
        files = setup[-1]
        _fsync_tree(files.directory)
        refs = from_geojson(json.loads(files.truth.read_text()))
        bench = Bench(args, launcher, files, refs, run_dir, started)
        warm_ok = bench.warm_up()
        run = run_traced if args.trace else run_untraced
        metrics, samples = run(bench, workload.jobs, setup)
    finally:
        launcher.terminate()  # also stops a placement still running
        launcher.wait()
        launcher.stdin.close()
        launcher.stdout.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    print(
        f"workload {args.workload}: seed {args.seed}, --jobs {workload.jobs}, "
        f"{files.n_images} images, {files.n_buffers} buffers, {files.n_footprints} footprints; "
        f"failed {bench.failed} of {bench.attempted} placements"
    )
    for m in wanted:
        name = m["name"]
        print(f"  {name:<40} {metrics[name]:>14.6g} {m['unit']:<6} {_spread(samples[name])}")
    result = {
        "correct": warm_ok and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
