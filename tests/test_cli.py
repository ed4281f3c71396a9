"""Exit codes, determinism, and file contracts of the command-line interface."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from rop.cli import main
from rop.geo import GeoPoint, LocalPoint
from rop.synth import CameraPose, Layout, RectFootprint, save_layouts


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


def test_corrupt_pgm_names_file(bundle_dir, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(bundle_dir, broken)
    victim = sorted((broken / "masks").glob("*.pgm"))[0]
    victim.write_bytes(b"P6\n3 3\n255\n" + b"\0" * 27)
    rc = main(place_args(broken, tmp_path / "pred.geojson"))
    assert rc == 2
    assert victim.name in capsys.readouterr().err


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


def test_synth_requires_exactly_one_source(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "o")]) == 2


def test_place_empty_bundle_exits_three(tmp_path):
    out = tmp_path / "empty"
    assert main(["synth", "--out", str(out), "--fixtures", "0"]) == 0
    rc = main(place_args(out, tmp_path / "pred.geojson"))
    assert rc == 3
    doc = json.loads((tmp_path / "pred.geojson").read_text())
    assert doc["features"] == []


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
    rc = main(
        ["eval", "--pred", str(pred), "--ref", str(empty), "--min-completeness", "0.99"]
    )
    assert rc == 0
    table = capsys.readouterr().out
    line = [ln for ln in table.splitlines() if ln.startswith("overall")][0]
    assert " - " in line


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
    assert len(out.splitlines()) == 13
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("high_factor = 4.5  # widened\n")
    assert main(["config", "--show", "--config", str(cfg_file), "--set", "ring_px=20"]) == 0
    out = capsys.readouterr().out
    assert "high_factor = 4.5" in out
    assert "ring_px = 20" in out


def test_config_rejects_unknown_key(capsys):
    assert main(["config", "--show", "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["seed", "jobs", "buffer_radius_m", "match_radius_m", "low_factor"])
def test_config_rejects_removed_key(key, capsys):
    assert main(["config", "--show", "--set", f"{key}=1"]) == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err and key in err


@pytest.mark.parametrize("override", ["ring_px=0", "high_factor=0", "sidewalk_gap_px=-1", "stack_dx_frac=1"])
def test_config_rejects_invalid_value(override, capsys):
    assert main(["config", "--show", "--set", override]) == 2
    assert override.split("=")[0] in capsys.readouterr().err


def test_place_rejects_invalid_config_before_reading_maps(bundle_dir, tmp_path, monkeypatch, capsys):
    import rop.ingest

    calls = []
    read_pgm = rop.ingest.read_pgm

    def counting_read_pgm(path):
        calls.append(path)
        return read_pgm(path)

    monkeypatch.setattr(rop.ingest, "read_pgm", counting_read_pgm)
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


def test_run_synth_eval_script_applies_set_override(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_synth_eval.py"
    spec = importlib.util.spec_from_file_location("run_synth_eval", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    base, moved = tmp_path / "base", tmp_path / "moved"
    assert module.main(["--n", "1", "--out", str(base)]) == 0
    assert module.main(["--n", "1", "--set", "offset_m=2.0", "--out", str(moved)]) == 0
    pred = "predictions.geojson"
    assert (base / pred).read_bytes() != (moved / pred).read_bytes()
