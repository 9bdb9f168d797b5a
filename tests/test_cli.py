"""CLI tests: subcommand behavior, output files, and the exit-code contract."""

import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import greenlite
from conftest import returns_within
from greenlite import (
    DEFAULT_CLASS_NAMES,
    ContractViolation,
    Dataset,
    QuantizedModel,
    load_any,
    load_manifest,
    load_model,
    parse_detection,
    read_ppm,
    save_manifest,
    track_memory,
    write_ppm,
)
from greenlite.cli import (
    BENCH_CSV_HEADER,
    BENCH_EMISSIONS_CSV_HEADER,
    BenchRow,
    MD_HEADER,
    MD_RULE,
    MEMORY_CSV_HEADER,
    main,
)
from greenlite.container import ALIGN, MAGIC, read_container, write_container
from greenlite.data import default_class_names


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A small dataset plus a float/quantized model pair, built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--images", "6", "--classes", "7",
                 "--size", "96", "--seed", "9"]) == 0
    model = root / "model.glw"
    assert main(["build", "--out", str(model), "--input-size", "64", "--seed", "3"]) == 0
    assert main(["quantize", "--model", str(model),
                 "--calib-manifest", str(data / "manifest.tsv"), "--calib-count", "4"]) == 0
    assert (root / "model.q.glw").exists()
    return root


# ---- synth ----


def test_synth_cli_is_seed_deterministic(tmp_path, capsys):
    argv = ["synth", "--images", "3", "--classes", "4", "--size", "64", "--seed", "11", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "wrote 3 images" in out
    assert out.strip().splitlines()[-1].startswith("total\t")
    assert sha(tmp_path / "a" / "manifest.tsv") == sha(tmp_path / "b" / "manifest.tsv")
    img = "images/img_00000.ppm"
    assert sha(tmp_path / "a" / img) == sha(tmp_path / "b" / img)
    ds = load_manifest(tmp_path / "a" / "manifest.tsv")
    assert len(ds.images) == 3


# ---- build ----


def test_build_cli_prints_the_golden_footprint(tmp_path, capsys):
    out = tmp_path / "m.glw"
    capsys.readouterr()
    assert main(["build", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "parameters: 1047982" in text
    assert "size: 4.2083 MB" in text
    assert f"wrote {out}" in text
    assert os.path.getsize(out) == 4_208_320


def test_build_cli_same_seed_same_bytes(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.glw", "b.glw", "c.glw"))
    assert main(["build", "--out", str(a), "--input-size", "64", "--seed", "5"]) == 0
    assert main(["build", "--out", str(b), "--input-size", "64", "--seed", "5"]) == 0
    assert main(["build", "--out", str(c), "--input-size", "64", "--seed", "6"]) == 0
    assert sha(a) == sha(b)
    assert sha(a) != sha(c)


def test_build_cli_respects_class_count(tmp_path):
    out = tmp_path / "three.glw"
    assert main(["build", "--out", str(out), "--classes", "3", "--input-size", "64"]) == 0
    model = load_model(str(out))
    assert model.meta.num_classes == 3
    assert model.meta.class_names == DEFAULT_CLASS_NAMES[:3]


def test_build_cli_names_more_than_seven_classes_as_synth_does(tmp_path):
    out = tmp_path / "ten.glw"
    assert main(["build", "--out", str(out), "--classes", "10", "--input-size", "64"]) == 0
    assert load_model(str(out)).meta.class_names == default_class_names(10)


# ---- quantize ----


def test_quantize_cli_reports_consistent_sizes(cli_env, tmp_path, capsys):
    model = cli_env / "model.glw"
    out = tmp_path / "custom.q.glw"
    capsys.readouterr()
    rc = main(["quantize", "--model", str(model),
               "--calib-manifest", str(cli_env / "data" / "manifest.tsv"),
               "--calib-count", "3", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "calibrated on 3 images" in text
    fbytes, qbytes = os.path.getsize(model), os.path.getsize(out)
    assert f"size: {fbytes / 1e6:.4f} MB" in text
    assert f"qsize: {qbytes / 1e6:.4f} MB" in text
    assert f"reduction: {(1 - qbytes / fbytes) * 100:.1f}%" in text
    assert qbytes < fbytes
    assert isinstance(load_any(str(out)), QuantizedModel)


def test_quantize_refuses_an_out_that_is_its_own_model(cli_env, tmp_path, capsys):
    model = tmp_path / "m.glw"
    shutil.copy(cli_env / "model.glw", model)
    before = model.read_bytes()
    for out in (str(model), f"{tmp_path}/./m.glw"):
        capsys.readouterr()
        assert main(["quantize", "--model", str(model), "--out", out,
                     "--calib-manifest", str(cli_env / "data" / "manifest.tsv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--out {out} is the --model file {model}" in captured.err
        assert model.read_bytes() == before


def test_quantize_cli_default_twin_name(cli_env):
    # built by the fixture without --out
    assert (cli_env / "model.q.glw").exists()
    assert isinstance(load_any(str(cli_env / "model.q.glw")), QuantizedModel)


# ---- detect ----


def test_detect_cli_json_schema(cli_env, capsys):
    img = cli_env / "data" / "images" / "img_00000.ppm"
    capsys.readouterr()
    rc = main(["detect", "--model", str(cli_env / "model.glw"), "--image", str(img),
               "--conf", "0.01", "--emit", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload
    scores = [row["score"] for row in payload]
    assert scores == sorted(scores, reverse=True)
    for row in payload:
        assert set(row) == {"class", "class_id", "score", "box"}
        assert row["class"] == DEFAULT_CLASS_NAMES[row["class_id"]]
        assert 0.01 <= row["score"] <= 1.0
        x1, y1, x2, y2 = row["box"]
        assert 0.0 <= x1 < x2 <= 96.0
        assert 0.0 <= y1 < y2 <= 96.0


def test_detect_cli_text_matches_json(cli_env, capsys):
    img = cli_env / "data" / "images" / "img_00001.ppm"
    base = ["detect", "--model", str(cli_env / "model.glw"), "--image", str(img), "--conf", "0.01"]
    capsys.readouterr()
    assert main(base + ["--emit", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(base + ["--emit", "text"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(payload)
    for line, row in zip(lines, payload):
        d = parse_detection(line)
        assert d.class_id == row["class_id"]
        assert abs(d.score - row["score"]) <= 5e-5  # text keeps 4 decimals
        for got, want in zip(d.box, row["box"]):
            assert abs(got - want) <= 0.05  # corners keep 1 decimal


def test_detect_cli_runs_quantized_models(cli_env, capsys):
    img = cli_env / "data" / "images" / "img_00002.ppm"
    capsys.readouterr()
    rc = main(["detect", "--model", str(cli_env / "model.q.glw"), "--image", str(img),
               "--conf", "0.01"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines:
        parse_detection(line)


def test_detect_cli_blank_image_at_high_confidence(cli_env, tmp_path, capsys):
    gray = tmp_path / "gray.ppm"
    write_ppm(gray, np.full((64, 64, 3), 114, dtype=np.uint8))
    capsys.readouterr()
    rc = main(["detect", "--model", str(cli_env / "model.glw"), "--image", str(gray),
               "--conf", "0.999"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == ""


class _StubImage:
    """Stands in for a Pillow image: convert("RGB") reads the file as PPM."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def convert(self, mode):
        assert mode == "RGB"
        return read_ppm(self.path)


def test_detect_reads_other_formats_through_pillow(cli_env, tmp_path, capsys, monkeypatch):
    ppm = cli_env / "data" / "images" / "img_00000.ppm"
    png = tmp_path / "x.png"
    shutil.copy(ppm, png)
    base = ["detect", "--model", str(cli_env / "model.glw"), "--conf", "0.01"]
    monkeypatch.setitem(sys.modules, "PIL", None)  # as if Pillow were not installed
    capsys.readouterr()
    assert main(base + ["--image", str(png)]) == 2
    assert f"{png}: only PPM is supported without Pillow" in capsys.readouterr().err
    pil = types.ModuleType("PIL")
    pil.Image = types.SimpleNamespace(open=_StubImage)
    monkeypatch.setitem(sys.modules, "PIL", pil)
    assert main(base + ["--image", str(png)]) == 0
    via_pillow = capsys.readouterr().out
    assert main(base + ["--image", str(ppm)]) == 0
    assert via_pillow == capsys.readouterr().out and via_pillow.strip()


# ---- bench ----


def test_bench_row_formats_csv_and_markdown_cells():
    """Report metrics print to 4 decimals, latency to 6, carbon in shortest
    round-trip form, bytes as an int; an absent value is an empty CSV cell and
    "-" in markdown, and a detector row's acc column is always absent."""
    header = BENCH_CSV_HEADER.split(",")
    assert header[0] == "model" and header[1] == "acc" and len(header) == 11
    row = BenchRow("m.glw", precision=0.5, recall=1 / 3, f1=0.42, map_50=0.12345, size_mb=4.20832,
                   qsize_mb=None, mean_latency_s=0.0123456789, peak_mem_bytes=1_066_338,
                   total_carbon_kg=1.5e-7)
    assert row.to_csv() == "m.glw,,0.5000,0.3333,0.4200,0.1235,4.2083,,0.012346,1066338,1.5e-07"
    assert len(row.to_csv().split(",")) == len(header)
    assert row.to_md() == "| m.glw | - | 0.5000 | 0.3333 | 0.4200 | 0.1235 | 4.2083 | - |"
    assert len(row.to_md().split(" | ")) == len(MD_HEADER.split(" | "))
    failed = BenchRow("bogus.glw", failed=True)
    assert failed.to_csv() == "bogus.glw,,,,,,,,,,"
    assert failed.to_md() == "| bogus.glw (failed) | - | - | - | - | - | - | - |"


def test_bench_writes_the_four_reports(cli_env, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GREENLITE_POWER_W", raising=False)
    monkeypatch.delenv("GREENLITE_INTENSITY", raising=False)
    out_dir = tmp_path / "bench"
    fmodel, qmodel = cli_env / "model.glw", cli_env / "model.q.glw"
    capsys.readouterr()
    rc = main(["bench", "--models", str(fmodel), str(qmodel),
               "--manifest", str(cli_env / "data" / "manifest.tsv"),
               "--out-dir", str(out_dir), "--warmup", "1", "--iters", "2"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert MD_HEADER in printed
    assert "wrote" in printed

    lines = (out_dir / "bench.csv").read_text().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3
    frow, qrow = lines[1].split(","), lines[2].split(",")
    assert frow[0] == "model.glw" and qrow[0] == "model.q.glw"
    assert frow[1] == "" and qrow[1] == ""  # detector rows carry no accuracy
    fsize, qsize = os.path.getsize(fmodel), os.path.getsize(qmodel)
    assert frow[6] == f"{fsize / 1e6:.4f}"
    assert frow[7] == f"{qsize / 1e6:.4f}"  # twin discovery fills the float row
    assert qrow[6] == f"{qsize / 1e6:.4f}"
    assert qrow[7] == f"{qsize / 1e6:.4f}"
    for row in (frow, qrow):
        assert 0.0 <= float(row[5]) <= 1.0  # map50
        assert float(row[8]) > 0.0
        assert int(row[9]) > 0
        assert float(row[10]) >= 0.0
    assert int(qrow[9]) < int(frow[9])  # quantized peak memory dominates
    assert float(qrow[6]) < float(frow[6])

    em_lines = (out_dir / "emissions.csv").read_text().splitlines()
    assert em_lines[0] == BENCH_EMISSIONS_CSV_HEADER
    assert len(em_lines) == 7
    for name, chunk in (("model.glw", em_lines[1:4]), ("model.q.glw", em_lines[4:7])):
        stages = [ln.split(",")[1] for ln in chunk]
        assert stages == ["load", "inference", "evaluate"]
        assert all(ln.split(",")[0] == name for ln in chunk)
        carbon = sum(float(ln.split(",")[4]) for ln in chunk)
        row = frow if name == "model.glw" else qrow
        assert abs(carbon - float(row[10])) <= 5e-6  # per-stage rows sum to the bench total

    mem_lines = (out_dir / "memory.csv").read_text().splitlines()
    assert mem_lines[0] == MEMORY_CSV_HEADER
    assert len(mem_lines) == 3
    for ln in mem_lines[1:]:
        name, stage, peak, current, allocs = ln.split(",")
        assert stage == "inference"
        assert int(peak) > int(current) >= 0
        assert int(allocs) >= 1

    report = (out_dir / "report.md").read_text().splitlines()
    assert report[0] == MD_HEADER and report[1] == MD_RULE
    assert report[2].startswith("| model.glw | - | ")  # Acc column stays "-"
    assert report[3].startswith("| model.q.glw | - | ")
    assert "(failed)" not in "\n".join(report)


def test_bench_memory_does_not_grow_with_the_manifest(cli_env, tmp_path):
    """Memory is measured on the first image alone, so a 2-row and a 6-row
    manifest give the same memory rows."""
    data = cli_env / "data"
    ds = load_manifest(data / "manifest.tsv")
    assert len(ds.images) == 6
    save_manifest(Dataset(ds.class_names, ds.images[:2]), tmp_path / "two.tsv")
    shutil.copytree(data / "images", tmp_path / "images")
    rows = []
    for manifest in (tmp_path / "two.tsv", data / "manifest.tsv"):
        out_dir = tmp_path / manifest.stem
        assert main(["bench", "--models", str(cli_env / "model.glw"), str(cli_env / "model.q.glw"),
                     "--manifest", str(manifest), "--out-dir", str(out_dir),
                     "--warmup", "0", "--iters", "1"]) == 0
        rows.append((out_dir / "memory.csv").read_text().splitlines())
    assert len(rows[0]) == 3 and rows[0] == rows[1]


def test_bench_runs_inside_a_memory_window(cli_env, tmp_path):
    out_dir = tmp_path / "bench"
    argv = ["bench", "--models", str(cli_env / "model.glw"), "--manifest", str(cli_env / "data" / "manifest.tsv"),
            "--out-dir", str(out_dir), "--warmup", "0", "--iters", "1"]
    codes = []
    outer = returns_within(lambda: track_memory(lambda: codes.append(main(argv))))
    assert codes == [0]
    inner_peak = int((out_dir / "memory.csv").read_text().splitlines()[1].split(",")[2])
    assert outer.peak_live_tensor_bytes >= inner_peak > 0


def test_bench_keeps_going_past_a_broken_model(cli_env, tmp_path, capsys):
    bogus = tmp_path / "bogus.glw"
    bogus.write_bytes(b"not a container at all")
    out_dir = tmp_path / "bench"
    capsys.readouterr()
    rc = main(["bench", "--models", str(cli_env / "model.q.glw"), str(bogus),
               "--manifest", str(cli_env / "data" / "manifest.tsv"),
               "--out-dir", str(out_dir), "--warmup", "0", "--iters", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "bench failed for" in captured.err
    lines = (out_dir / "bench.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[2] == "bogus.glw,,,,,,,,,,"  # the row survives with empty cells
    report = (out_dir / "report.md").read_text()
    assert "| bogus.glw (failed) | - | - | - | - | - | - | - |" in report


def test_bench_energy_settings_flow_through(cli_env, tmp_path, capsys, monkeypatch):
    config = tmp_path / "rig.cfg"
    config.write_text("power=3600000000\nintensity=2.0\n", encoding="utf-8")
    monkeypatch.setenv("GREENLITE_POWER_W", "7200000000")
    monkeypatch.delenv("GREENLITE_INTENSITY", raising=False)
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--models", str(cli_env / "model.q.glw"),
               "--manifest", str(cli_env / "data" / "manifest.tsv"),
               "--out-dir", str(out_dir), "--warmup", "0", "--iters", "1",
               "--config", str(config)])
    assert rc == 0
    capsys.readouterr()
    for ln in (out_dir / "emissions.csv").read_text().splitlines()[1:]:
        _, _, dur, kwh, kg = ln.split(",")
        # env power (2000x kWh/s) beats the config value; config intensity still applies
        assert abs(float(kwh) - 2000.0 * float(dur)) <= 0.01
        assert abs(float(kg) - 2.0 * float(kwh)) <= 0.01


# ---- exit codes ----


def test_usage_errors_exit_one():
    for argv in ([], ["frobnicate"], ["build"], ["detect", "--model", "m.glw"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv


@pytest.mark.parametrize(
    "command, flag, value",
    [("quantize", "--calib-count", "-3"), ("quantize", "--calib-count", "0"),
     ("bench", "--iters", "0"), ("bench", "--warmup", "-1"),
     ("synth", "--images", "0"), ("synth", "--classes", "0"), ("synth", "--max-boxes", "0"),
     ("synth", "--size", "31"), ("build", "--classes", "0"), ("build", "--input-size", "16")],
)
def test_a_count_flag_out_of_range_is_a_usage_error(cli_env, tmp_path, capsys, command, flag, value):
    """Nothing is loaded or written: the parser refuses the value and names the flag."""
    out = tmp_path / "out"
    manifest = str(cli_env / "data" / "manifest.tsv")
    argv = {
        "quantize": ["quantize", "--model", str(cli_env / "model.glw"), "--calib-manifest", manifest,
                     "--out", str(out)],
        "bench": ["bench", "--models", str(cli_env / "model.glw"), "--manifest", manifest,
                  "--out-dir", str(out)],
        "synth": ["synth", "--out", str(out)],
        "build": ["build", "--out", str(out)],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 1
    assert f"argument {flag}: must be >= " in capsys.readouterr().err
    assert not out.exists()


def _record_loads(monkeypatch):
    """Every model or manifest path that a CLI command goes on to load."""
    loaded = []
    for name in ("load_any", "load_manifest"):
        real = getattr(greenlite.cli, name)
        monkeypatch.setattr(greenlite.cli, name, lambda path, real=real: loaded.append(path) or real(path))
    return loaded


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
@pytest.mark.parametrize("flag", ["--conf", "--iou"])
@pytest.mark.parametrize("command", ["detect", "bench"])
def test_a_threshold_flag_outside_the_unit_interval_is_a_usage_error(
    cli_env, tmp_path, capsys, monkeypatch, command, flag, value
):
    """Nothing is loaded or written: the parser refuses the value and names the flag."""
    loaded = _record_loads(monkeypatch)
    out = tmp_path / "out"
    model = str(cli_env / "model.glw")
    argv = {
        "detect": ["detect", "--model", model, "--image",
                   str(cli_env / "data" / "images" / "img_00000.ppm")],
        "bench": ["bench", "--models", model, "--manifest", str(cli_env / "data" / "manifest.tsv"),
                  "--out-dir", str(out)],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 1
    assert f"argument {flag}: must be a number in [0, 1], got '{value}'" in capsys.readouterr().err
    assert loaded == []
    assert not out.exists()


@pytest.mark.parametrize("line", ["conf=2", "iou=-1"])
def test_bench_on_a_config_threshold_outside_the_unit_interval_exits_two(
    cli_env, tmp_path, capsys, monkeypatch, line
):
    loaded = _record_loads(monkeypatch)
    config = tmp_path / "rig.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["bench", "--models", str(cli_env / "model.glw"),
               "--manifest", str(cli_env / "data" / "manifest.tsv"),
               "--out-dir", str(out), "--config", str(config)])
    assert rc == 2
    value = line.partition("=")[2]
    assert f"config conf and iou: each must be a number in [0, 1], got '{value}'" in capsys.readouterr().err
    assert loaded == []
    assert not out.exists()


@pytest.mark.parametrize(
    "var, value",
    [("GREENLITE_POWER_W", "inf"), ("GREENLITE_POWER_W", "nan"), ("GREENLITE_INTENSITY", "nan")],
)
def test_bench_on_a_non_finite_energy_setting_exits_two(cli_env, tmp_path, capsys, monkeypatch, var, value):
    monkeypatch.delenv("GREENLITE_POWER_W", raising=False)
    monkeypatch.delenv("GREENLITE_INTENSITY", raising=False)
    monkeypatch.setenv(var, value)
    with pytest.raises(ContractViolation, match="must be finite and >= 0"):
        greenlite.resolve_energy_settings()
    loaded = _record_loads(monkeypatch)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["bench", "--models", str(cli_env / "model.glw"),
               "--manifest", str(cli_env / "data" / "manifest.tsv"), "--out-dir", str(out)])
    assert rc == 2
    assert "must be finite and >= 0" in capsys.readouterr().err
    assert loaded == []
    assert not out.exists()


def test_bench_refuses_an_unknown_config_key(cli_env, tmp_path, capsys, monkeypatch):
    """A misspelt key would otherwise bench at the default it meant to override."""
    loaded = _record_loads(monkeypatch)
    config = tmp_path / "rig.cfg"
    config.write_text("powr=65\nfoo=1\niou=0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["bench", "--models", str(cli_env / "model.glw"),
               "--manifest", str(cli_env / "data" / "manifest.tsv"),
               "--out-dir", str(out), "--config", str(config)])
    assert rc == 2
    assert "unknown keys foo, powr; expected power, intensity, conf, iou" in capsys.readouterr().err
    assert loaded == []
    assert not out.exists()


def test_bench_refuses_a_repeated_config_key(cli_env, tmp_path, capsys, monkeypatch):
    """The later value would otherwise win without a word."""
    loaded = _record_loads(monkeypatch)
    config = tmp_path / "rig.cfg"
    config.write_text("power=65\n# a comment\nintensity=0.3\npower=5\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["bench", "--models", str(cli_env / "model.glw"),
               "--manifest", str(cli_env / "data" / "manifest.tsv"),
               "--out-dir", str(out), "--config", str(config)])
    assert rc == 2
    assert "config line 4: key 'power' is already set on line 1" in capsys.readouterr().err
    assert loaded == []
    assert not out.exists()


def test_bench_refuses_a_model_with_fewer_classes_than_the_manifest(cli_env, tmp_path, capsys):
    """mAP would skip the boxes of classes the model cannot predict while
    recall counts them; that model fails and the others still bench."""
    three = tmp_path / "three.glw"
    assert main(["build", "--out", str(three), "--classes", "3", "--input-size", "64"]) == 0
    manifest = cli_env / "data" / "manifest.tsv"
    beyond = sorted({c for img in load_manifest(manifest).images for c, *_ in img.boxes if c >= 3})
    assert beyond
    out_dir = tmp_path / "bench"
    capsys.readouterr()
    rc = main(["bench", "--models", str(three), str(cli_env / "model.glw"), "--manifest", str(manifest),
               "--out-dir", str(out_dir), "--warmup", "0", "--iters", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"bench failed for {three}: manifest class ids {beyond} are beyond the model's 3 classes" in err
    report = (out_dir / "report.md").read_text().splitlines()
    assert report[2] == "| three.glw (failed) | - | - | - | - | - | - | - |"
    assert report[3].startswith("| model.glw | - | 0.") and "(failed)" not in report[3]
    assert len((out_dir / "memory.csv").read_text().splitlines()) == 2  # header and model.glw


@pytest.mark.parametrize(
    "var, line, source",
    [("GREENLITE_POWER_W", None, "GREENLITE_POWER_W"), ("GREENLITE_INTENSITY", None, "GREENLITE_INTENSITY"),
     (None, "power=abc", "config key power")],
)
def test_bench_on_an_energy_setting_that_is_not_a_number_exits_two(
    cli_env, tmp_path, capsys, monkeypatch, var, line, source
):
    monkeypatch.delenv("GREENLITE_POWER_W", raising=False)
    monkeypatch.delenv("GREENLITE_INTENSITY", raising=False)
    argv = []
    if var:
        monkeypatch.setenv(var, "abc")
    else:
        config = tmp_path / "rig.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        argv = ["--config", str(config)]
    loaded = _record_loads(monkeypatch)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["bench", "--models", str(cli_env / "model.glw"),
               "--manifest", str(cli_env / "data" / "manifest.tsv"), "--out-dir", str(out)] + argv)
    assert rc == 2
    assert f"error: {source} must be a number, got 'abc'" in capsys.readouterr().err
    assert loaded == []
    assert not out.exists()


def test_bench_reports_the_twin_that_quantize_wrote_for_any_name(cli_env, tmp_path, capsys):
    """m.bin's default twin is m.bin.q.glw, and bench reads its size from there."""
    model = tmp_path / "m.bin"
    shutil.copyfile(cli_env / "model.glw", model)
    manifest = str(cli_env / "data" / "manifest.tsv")
    assert main(["quantize", "--model", str(model), "--calib-manifest", manifest,
                 "--calib-count", "2"]) == 0
    twin = tmp_path / "m.bin.q.glw"
    assert twin.exists()
    out_dir = tmp_path / "bench"
    assert main(["bench", "--models", str(model), "--manifest", manifest,
                 "--out-dir", str(out_dir), "--warmup", "0", "--iters", "1"]) == 0
    capsys.readouterr()
    row = (out_dir / "bench.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "m.bin"
    assert row[7] == f"{os.path.getsize(twin) / 1e6:.4f}"


def test_data_errors_exit_two(cli_env, tmp_path, capsys):
    missing = str(tmp_path / "nope.glw")
    img = str(cli_env / "data" / "images" / "img_00000.ppm")
    assert main(["detect", "--model", missing, "--image", img]) == 2
    assert main(["detect", "--model", str(cli_env / "model.glw"),
                 "--image", str(tmp_path / "nope.ppm")]) == 2
    junk = tmp_path / "junk.glw"
    junk.write_bytes(b"GLWx broken header")
    assert main(["detect", "--model", str(junk), "--image", img]) == 2
    assert main(["quantize", "--model", str(cli_env / "model.glw"),
                 "--calib-manifest", str(tmp_path / "nope.tsv")]) == 2
    assert main(["build", "--out", str(tmp_path / "m.glw"), "--input-size", "48"]) == 2
    assert main(["bench", "--models", str(cli_env / "model.glw"),
                 "--manifest", str(tmp_path / "nope.tsv"),
                 "--out-dir", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


# (stride, the error message it must give); the id of the stride-0 case is the container's name
BAD_STRIDES = [
    (0, "stride must be >= 1"),
    (None, "layer 0 (conv): stride must be an int, got None"),
    (1.5, "layer 0 (conv): stride must be an int, got 1.5"),
]


@pytest.mark.parametrize(
    "name, stride, message",
    [
        pytest.param(name, stride, message, id=name if stride == 0 else f"{name}-{json.dumps(stride)}")
        for stride, message in BAD_STRIDES
        for name in ("model.glw", "model.q.glw")
    ],
)
def test_detect_on_a_stride_zero_container_exits_two(cli_env, tmp_path, capsys, name, stride, message):
    """A zero, null or fractional conv stride is refused at load: exit 2,
    a message naming the layer and the attr, no traceback."""
    doc, tensors = read_container(str(cli_env / name))
    conv = next(layer for layer in doc["layers"] if layer["kind"] == "conv")
    conv["attrs"]["stride"] = stride
    bad = tmp_path / "bad.glw"
    bad.write_bytes(write_container(doc, list(tensors.items())))
    img = str(cli_env / "data" / "images" / "img_00000.ppm")
    assert main(["detect", "--model", str(bad), "--image", img]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["model.glw", "model.q.glw"])
def test_detect_on_class_names_that_do_not_match_the_head_exits_two(cli_env, tmp_path, capsys, name):
    """One class name fewer than the head's classes is refused at load, so
    `detect --emit json` never indexes past the names."""
    doc, tensors = read_container(str(cli_env / name))
    doc["meta"]["class_names"] = doc["meta"]["class_names"][:-1]
    bad = tmp_path / "bad.glw"
    bad.write_bytes(write_container(doc, list(tensors.items())))
    img = str(cli_env / "data" / "images" / "img_00000.ppm")
    capsys.readouterr()
    assert main(["detect", "--model", str(bad), "--image", img, "--conf", "0", "--emit", "json"]) == 2
    err = capsys.readouterr().err
    assert "got 6 class names and 11 head channels for 7 classes" in err
    assert "Traceback" not in err


def _first_conv(doc):
    return next(layer for layer in doc["layers"] if layer["kind"] == "conv")


def _w_scale(value):
    def edit(doc, tensors):
        tensors[f"{_first_conv(doc)['slot']}/w_scale"][0] = value
    return edit


def _act_scale(key, value):
    return lambda doc, tensors: doc["act_params"][key].update(scale=value)


def _conv_padding(value):
    return lambda doc, tensors: _first_conv(doc)["attrs"].update(padding=value)


def _3d_stem_weight(doc, tensors):
    tensors["stem.conv/weight"] = tensors["stem.conv/weight"][0].copy()


def _huge_head_scale(doc, tensors):
    tensors["head/w_scale"][0] = 1e300


# case -> (container, edit of its document and tensors, the error message it must give)
BAD_AT_LOAD = {
    "w_scale nan": ("model.q.glw", _w_scale(np.nan), "weight scales must be finite and > 0"),
    "w_scale inf": ("model.q.glw", _w_scale(np.inf), "weight scales must be finite and > 0"),
    "w_scale -1": ("model.q.glw", _w_scale(-1.0), "weight scales must be finite and > 0"),
    "input scale 1e308": ("model.q.glw", _act_scale("input", 1e308), "activation scales must lie in"),
    "input scale 5e-324": ("model.q.glw", _act_scale("input", 5e-324), "activation scales must lie in"),
    "L002 scale 1e-310": ("model.q.glw", _act_scale("L002", 1e-310), "activation scales must lie in"),
    "float padding 64": ("model.glw", _conv_padding(64), "layer 0 (conv): padding must be < kernel 3, got 64"),
    "int8 padding 64": ("model.q.glw", _conv_padding(64), "layer 0 (conv): padding must be < kernel 3, got 64"),
    "float 3-d stem weight": ("model.glw", _3d_stem_weight, "conv weight must be 4-d, got ndim=3"),
    "int8 head w_scale 1e300": ("model.q.glw", _huge_head_scale, "(detect_head): outputs could exceed float32's range"),
}


@pytest.mark.parametrize("case", sorted(BAD_AT_LOAD))
def test_detect_on_bad_scales_or_padding_exits_two(cli_env, tmp_path, capsys, case):
    """A weight scale that is not finite and > 0, an activation scale whose
    reciprocal or 255 steps would not be finite, a conv padding as wide as
    its kernel, a conv weight that is not 4-d and a head scale whose output
    could overflow float32 are refused at load: exit 2, no traceback."""
    name, edit, message = BAD_AT_LOAD[case]
    doc, tensors = read_container(str(cli_env / name))
    edit(doc, tensors)
    bad = tmp_path / "bad.glw"
    bad.write_bytes(write_container(doc, list(tensors.items())))
    img = str(cli_env / "data" / "images" / "img_00000.ppm")
    capsys.readouterr()
    assert main(["detect", "--model", str(bad), "--image", img]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_detect_on_a_container_without_conv_slots_exits_two(cli_env, tmp_path, capsys):
    doc, tensors = read_container(str(cli_env / "model.q.glw"))
    del doc["conv_slots"]
    bad = tmp_path / "bad.q.glw"
    bad.write_bytes(write_container(doc, list(tensors.items())))
    img = str(cli_env / "data" / "images" / "img_00000.ppm")
    assert main(["detect", "--model", str(bad), "--image", img]) == 2
    err = capsys.readouterr().err
    assert "container is missing 'conv_slots'" in err
    assert "Traceback" not in err


def test_detect_on_act_params_without_a_scale_exits_two(cli_env, tmp_path, capsys):
    doc, tensors = read_container(str(cli_env / "model.q.glw"))
    del doc["act_params"]["input"]["scale"]
    bad = tmp_path / "bad.q.glw"
    bad.write_bytes(write_container(doc, list(tensors.items())))
    img = str(cli_env / "data" / "images" / "img_00000.ppm")
    assert main(["detect", "--model", str(bad), "--image", img]) == 2
    err = capsys.readouterr().err
    assert "container is missing 'scale'" in err
    assert "Traceback" not in err


def _first(manifest, entry):
    return [entry, *manifest[1:]]


def _without(entry, field):
    return {k: v for k, v in entry.items() if k != field}


def _first_dim(manifest, value):
    return _first(manifest, {**manifest[0], "shape": [value, *manifest[0]["shape"][1:]]})


# case -> (manifest edit, the error message it must give)
MALFORMED_MANIFESTS = {
    "unknown dtype": (lambda m: _first(m, {**m[0], "dtype": "f16"}), "unknown dtype 'f16'"),
    "no key": (lambda m: _first(m, _without(m[0], "key")), "container is missing 'key'"),
    "no dtype": (lambda m: _first(m, _without(m[0], "dtype")), "container is missing 'dtype'"),
    "no shape": (lambda m: _first(m, _without(m[0], "shape")), "container is missing 'shape'"),
    "entry not an object": (lambda m: _first(m, "x"), "container is missing 'key'"),
    "manifest not a list": (lambda m: {"entries": m}, "manifest is not a list"),
    "shape not a list": (lambda m: _first(m, {**m[0], "shape": 4}), "is not a list of dims"),
    "float dim": (lambda m: _first_dim(m, 2.5), "is not a list of dims"),
    "string dim": (lambda m: _first_dim(m, "3"), "is not a list of dims"),
    "bool dim": (lambda m: _first_dim(m, True), "is not a list of dims"),
    "negative dim": (lambda m: _first_dim(m, -1), "is not a list of dims"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_detect_on_a_malformed_tensor_manifest_exits_two(cli_env, tmp_path, capsys, case):
    """The manifest is rewritten raw (write_container emits only valid
    ones); the payloads keep their order and 64-byte alignment."""
    mutate, message = MALFORMED_MANIFESTS[case]
    blob = (cli_env / "model.glw").read_bytes()
    (meta_len,) = struct.unpack("<I", blob[4:8])
    meta = json.loads(blob[8 : 8 + meta_len])
    _, tensors = read_container(blob)
    meta["tensors"] = mutate(meta["tensors"])
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray(MAGIC + struct.pack("<I", len(meta_bytes)) + meta_bytes)
    for arr in tensors.values():
        out += b"\x00" * (-len(out) % ALIGN)
        out += arr.tobytes()
    bad = tmp_path / "bad.glw"
    bad.write_bytes(bytes(out))
    img = str(cli_env / "data" / "images" / "img_00000.ppm")
    capsys.readouterr()
    assert main(["detect", "--model", str(bad), "--image", img]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def _negative_var(attrs, arrays):
    arrays["var"] = arrays["var"].copy()
    arrays["var"][0] = -1.0


# case -> (edit of the first bn layer's attrs and arrays, the error message it must give)
MALFORMED_BN = {
    "negative var": (_negative_var, "variance must be >= 0"),
    "zero eps": (lambda attrs, arrays: attrs.update(eps=0.0), "eps must be finite and > 0"),
    "infinite eps": (lambda attrs, arrays: attrs.update(eps=1e999), "eps must be finite and > 0"),
    "short beta": (lambda attrs, arrays: arrays.update(beta=arrays["beta"][:-1]), "bn params do not match"),
    "bool eps": (lambda attrs, arrays: attrs.update(eps=True), "eps must be finite and > 0"),
    "string eps": (lambda attrs, arrays: attrs.update(eps="1e-5"), "eps must be finite and > 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BN))
def test_detect_on_malformed_bn_params_exits_two(cli_env, tmp_path, capsys, case):
    """bn params that would fail only inside the first forward are refused
    at load: load_model raises, and detect exits 2."""
    edit, message = MALFORMED_BN[case]
    doc, tensors = read_container(str(cli_env / "model.glw"))
    layer = next(layer for layer in doc["layers"] if layer["kind"] == "bn")
    arrays = {name: tensors[f"{layer['slot']}/{name}"] for name in ("gamma", "beta", "mean", "var")}
    edit(layer["attrs"], arrays)
    tensors.update((f"{layer['slot']}/{name}", arr) for name, arr in arrays.items())
    bad = tmp_path / "bad.glw"
    bad.write_bytes(write_container(doc, list(tensors.items())))
    with pytest.raises(ContractViolation, match=re.escape(message)):
        load_model(str(bad))
    img = str(cli_env / "data" / "images" / "img_00000.ppm")
    capsys.readouterr()
    assert main(["detect", "--model", str(bad), "--image", img]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# ---- console script ----

CHECKOUT_SRC = Path(greenlite.__file__).parents[1]
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
SYNTH_ONE = ["synth", "--images", "1", "--classes", "2", "--size", "64", "--seed", "0", "--out"]

# What an installer writes as the `greenlite` executable for a console_scripts entry.
WRAPPER = """\
import sys
from {module} import {attr}
sys.exit({attr}())
"""


def declared_script_spec():
    """The `greenlite` entry of `[project.scripts]` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "greenlite" in scripts, "pyproject.toml should declare the greenlite script"
    return scripts["greenlite"]


def checkout_env():
    """The caller's environment with this checkout first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(CHECKOUT_SRC), env.get("PYTHONPATH")) if p)
    return env


def greenlite_is_installed():
    try:
        importlib.metadata.distribution("greenlite")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_is_installed(tmp_path):
    spec = declared_script_spec()
    ep = importlib.metadata.EntryPoint(name="greenlite", value=spec, group="console_scripts")
    assert callable(ep.load()), spec
    wrapper = tmp_path / "greenlite"
    wrapper.write_text(WRAPPER.format(module=ep.module, attr=ep.attr))
    proc = subprocess.run(
        [sys.executable, str(wrapper)] + SYNTH_ONE + [str(tmp_path / "d")],
        capture_output=True, text=True, timeout=120, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 1 images" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "greenlite.cli", "--help"],
        capture_output=True, text=True, timeout=120, env=checkout_env(),
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "bench" in proc.stdout


@pytest.mark.skipif(not greenlite_is_installed(), reason="the greenlite distribution is not installed")
def test_installed_console_script_runs(tmp_path):
    dist = importlib.metadata.distribution("greenlite")
    installed = [ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts" and ep.name == "greenlite"]
    assert installed == [declared_script_spec()]
    exe = shutil.which("greenlite")
    assert exe, "the installed distribution should put the greenlite script on PATH"
    proc = subprocess.run(
        [exe] + SYNTH_ONE + [str(tmp_path / "d")],
        capture_output=True, text=True, timeout=120, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 1 images" in proc.stdout
