import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vadsphere
from vadsphere import F0Config
from vadsphere.cli import run
from vadsphere.prosody import _F0_BLOCK

from conftest import (
    CLASS_CENTERS,
    manifest_of,
    serialize_manifest,
    sine_samples,
    synthetic_manifest,
    track_to_text,
    write_wav,
)


@pytest.fixture()
def manifest_file(tmp_path) -> Path:
    manifest = synthetic_manifest(per_class=25, seed=6)
    path = tmp_path / "manifest.jsonl"
    path.write_text(serialize_manifest(manifest), encoding="utf-8")
    return path


def test_fit_writes_the_package_version(tmp_path, manifest_file):
    model = tmp_path / "model.json"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    assert json.loads(model.read_text())["tool_version"] == vadsphere.__version__


def test_fit_is_byte_deterministic(tmp_path, manifest_file):
    out_a = tmp_path / "model_a.json"
    out_b = tmp_path / "model_b.json"
    base = ["fit", "--manifest", str(manifest_file)]
    assert run(base + ["--out", str(out_a)]) == 0
    assert run(base + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fit_extract_analyze_pipeline(tmp_path, manifest_file):
    model = tmp_path / "model.json"
    easv = tmp_path / "easv.jsonl"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    assert run(["extract", "--manifest", str(manifest_file),
                "--model", str(model), "--out", str(easv)]) == 0

    easv_lines = [json.loads(line) for line in easv.read_text().splitlines()]
    assert all(0.0 <= e["r_iqr"] <= 1.0 for e in easv_lines)

    prosody = tmp_path / "prosody.jsonl"
    rows = []
    for e in easv_lines:
        rows.append(json.dumps({"id": e["id"], "pitch_mean_hz": 100.0,
                                "energy_mean": 0.1, "duration_s": 2.0}))
    prosody.write_text("\n".join(rows) + "\n", encoding="utf-8")

    report = tmp_path / "report.md"
    assert run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                "--manifest", str(manifest_file), "--out", str(report)]) == 0
    text = report.read_text()
    assert text.startswith("# Prosodic variation")
    assert "neutral" in text

    csv_report = tmp_path / "report.csv"
    assert run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                "--manifest", str(manifest_file), "--format", "csv",
                "--out", str(csv_report)]) == 0
    header = csv_report.read_text().splitlines()[0]
    assert header == "emotion,octant,region,count,pitch_mean,energy_mean,duration_mean"


def test_analyze_missing_prosody_exits_1_without_writing(tmp_path, manifest_file, capsys):
    model = tmp_path / "model.json"
    easv = tmp_path / "easv.jsonl"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    assert run(["extract", "--manifest", str(manifest_file),
                "--model", str(model), "--out", str(easv)]) == 0
    prosody = tmp_path / "prosody.jsonl"
    lines = [json.dumps({"id": "nobody", "pitch_mean_hz": 1.0,
                         "energy_mean": 1.0, "duration_s": 1.0})]
    prosody.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "report.md"
    code = run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                "--manifest", str(manifest_file), "--out", str(out)])
    assert code == 1
    assert not out.exists()

    ids = [json.loads(line)["id"] for line in easv.read_text().splitlines()]
    lines = [json.dumps({"id": i, "pitch_mean_hz": None, "energy_mean": 0.1,
                         "duration_s": 1.0}) for i in ids]
    lines[1] = lines[1].replace("0.1", "NaN")
    prosody.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                "--manifest", str(manifest_file), "--out", str(out)])
    assert code == 1
    assert f"{prosody}: line 2: energy_mean must be a finite number" in capsys.readouterr().err
    assert not out.exists()

    lines[1] = lines[1].replace("NaN", '"abc"')
    prosody.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                "--manifest", str(manifest_file), "--out", str(out)])
    assert code == 1
    assert f"{prosody}: line 2: energy_mean must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_bad_easv_names_file_and_line(tmp_path, manifest_file, capsys):
    model = tmp_path / "model.json"
    easv = tmp_path / "easv.jsonl"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    assert run(["extract", "--manifest", str(manifest_file),
                "--model", str(model), "--out", str(easv)]) == 0
    good = easv.read_text().splitlines()
    prosody = tmp_path / "prosody.jsonl"
    prosody.write_text("".join(
        json.dumps({"id": json.loads(line)["id"], "pitch_mean_hz": 100.0,
                    "energy_mean": 0.1, "duration_s": 1.0}) + "\n" for line in good))
    out = tmp_path / "report.md"
    second = json.loads(good[1])
    for bad_line, detail in (("[1,2]", "EASV record must be a JSON object"),
                             (json.dumps({**second, "r_iqr": None}), "r_iqr must be a number"),
                             (json.dumps({**second, "theta": float("nan")}),
                              "theta must be a finite number"),
                             (json.dumps({**second, "theta": 4.0}), "theta 4.0 outside [0, pi]"),
                             (json.dumps({k: v for k, v in second.items() if k != "phi"}),
                              "missing key 'phi'")):
        easv.write_text("\n".join([good[0], bad_line, *good[2:]]) + "\n")
        capsys.readouterr()
        assert run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                    "--manifest", str(manifest_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {easv}: line 2: {detail}\n"
        assert not out.exists()


@pytest.mark.parametrize("kind, field, value, message", [
    ("easv", "id", None, "id must be a string or number"),
    ("easv", "emotion", [], "emotion must be a string or number"),
    ("easv", "r_iqr", True, "r_iqr must be a number"),
    ("easv", "theta", "1.5", "theta must be a number"),
    ("easv", "phi", False, "phi must be a number"),
    ("prosody", "energy_mean", True, "energy_mean must be a number"),
    ("prosody", "duration_s", "2", "duration_s must be a number"),
    ("prosody", "pitch_mean_hz", "100", "pitch_mean_hz must be a number"),
], ids=["easv-id", "easv-emotion", "easv-r_iqr", "easv-theta", "easv-phi",
        "prosody-energy_mean", "prosody-duration_s", "prosody-pitch_mean_hz"])
def test_analyze_field_types_name_file_and_line(tmp_path, manifest_file, capsys,
                                                kind, field, value, message):
    model = tmp_path / "model.json"
    easv = tmp_path / "easv.jsonl"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    assert run(["extract", "--manifest", str(manifest_file),
                "--model", str(model), "--out", str(easv)]) == 0
    rows = {"easv": [json.loads(line) for line in easv.read_text().splitlines()]}
    rows["prosody"] = [{"id": row["id"], "pitch_mean_hz": 100.0, "energy_mean": 0.1,
                        "duration_s": 1.0} for row in rows["easv"]]
    rows[kind][1][field] = value
    paths = {name: tmp_path / f"{name}.jsonl" for name in rows}
    for name, path in paths.items():
        path.write_text("".join(json.dumps(row) + "\n" for row in rows[name]))
    out = tmp_path / "report.md"
    capsys.readouterr()
    assert run(["analyze", "--easv", str(paths["easv"]), "--prosody", str(paths["prosody"]),
                "--manifest", str(manifest_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {paths[kind]}: line 2: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("faults, message", [
    ({1: {"energy_mean": -1.0, "duration_s": -3.0}},
     "line 1: energy_mean -1.0 must be non-negative"),
    ({1: {"duration_s": -3.0}}, "line 1: duration_s -3.0 must be positive"),
    ({3: {"duration_s": 0}}, "line 3: duration_s 0.0 must be positive"),
    ({2: {"pitch_mean_hz": -5.0}, 3: {"energy_mean": -0.5}},
     "line 2: pitch_mean_hz -5.0 must be positive"),
    ({3: {"pitch_mean_hz": 0.0}, 2: {"energy_mean": -1e-300}},
     "line 2: energy_mean -1e-300 must be non-negative"),
], ids=["energy-and-duration", "duration", "zero-duration", "pitch", "first-line-named"])
def test_analyze_prosody_out_of_range_names_file_and_line(chain, tmp_path, capsys, faults,
                                                          message):
    rows = [json.loads(line) for line in chain["prosody"].read_text().splitlines()]
    for line_no, values in faults.items():
        rows[line_no - 1].update(values)
    prosody, out = tmp_path / "prosody.jsonl", tmp_path / "report.md"
    prosody.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert run(["analyze", "--easv", str(chain["easv"]), "--prosody", str(prosody),
                "--manifest", str(chain["manifest"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {prosody}: {message}\n"
    assert not out.exists()


def test_extract_bad_model_names_file_and_key(tmp_path, manifest_file, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    no_label = {k: v for k, v in doc.items() if k != "neutral_label"}
    nan_q1 = json.loads(model.read_text())
    nan_q1["bounds"]["happy"]["q1"] = float("nan")
    no_r_max = json.loads(model.read_text())
    del no_r_max["bounds"]["sad"]["r_max"]
    bad = tmp_path / "bad.json"
    out = tmp_path / "easv.jsonl"
    for text, message in (("[1]", "EASV model must be a JSON object"),
                          (json.dumps(no_label), "missing key 'neutral_label'"),
                          (json.dumps(nan_q1), "bounds['happy']: q1 must be a finite number"),
                          (json.dumps(no_r_max), "bounds['sad']: missing key 'r_max'")):
        bad.write_text(text)
        capsys.readouterr()
        assert run(["extract", "--manifest", str(manifest_file),
                    "--model", str(bad), "--out", str(out)]) == 1
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("entry, key, value, message", [
    ("centroids", "point", [True, 0.5, 0.5], "point must be an array of numbers"),
    ("centroids", "objective", "abc", "objective must be a number"),
    ("bounds", "q1", True, "q1 must be a number"),
])
def test_extract_model_field_types_name_key(tmp_path, manifest_file, capsys,
                                            entry, key, value, message):
    model = tmp_path / "model.json"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc[entry]["happy"][key] = value
    model.write_text(json.dumps(doc))
    out = tmp_path / "easv.jsonl"
    capsys.readouterr()
    assert run(["extract", "--manifest", str(manifest_file),
                "--model", str(model), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {model}: {entry}['happy']: {message}\n"
    assert not out.exists()


def test_analyze_diagnostic_names_offending_id(tmp_path, manifest_file, capsys):
    model = tmp_path / "model.json"
    easv = tmp_path / "easv.jsonl"
    run(["fit", "--manifest", str(manifest_file), "--out", str(model)])
    run(["extract", "--manifest", str(manifest_file), "--model", str(model),
         "--out", str(easv)])
    prosody = tmp_path / "prosody.jsonl"
    prosody.write_text("", encoding="utf-8")
    code = run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                "--manifest", str(manifest_file)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "angry-0000" in err  # first id lacking prosody


def test_control_vec_strong(capsys):
    assert run(["control-vec", "--emotion", "happy", "--octant", "I",
                "--intensity", "strong"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["r_iqr"] == 0.9
    assert obj["emotion"] == "happy"
    assert obj["octant"] == "I"


def test_control_vec_numeric_intensity(capsys):
    assert run(["control-vec", "--emotion", "sad", "--octant", "VII",
                "--intensity", "0.25"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["r_iqr"] == 0.25


def test_control_vec_bad_intensity(capsys):
    assert run(["control-vec", "--emotion", "sad", "--octant", "VII",
                "--intensity", "mild"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_1(capsys):
    assert run(["fit"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert run(["fit", "--manifest", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_fit_without_non_neutral_class_exits_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "n1", "speaker": "s", "emotion": "neutral",
                                    "vad": [0.5, 0.5, 0.5]}) + "\n")
    out = tmp_path / "model.json"
    assert run(["fit", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert "no non-neutral class" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_path_exits_1(tmp_path, manifest_file, capsys):
    # the diagnostic names the --out path, not the random temp file, so it is
    # the same on every run
    out = tmp_path / "no" / "such" / "dir" / "model.json"
    errors = []
    for _ in range(2):
        assert run(["fit", "--manifest", str(manifest_file), "--out", str(out)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert ".tmp" not in errors[0]
    assert not (tmp_path / "no").exists()


def test_failed_write_keeps_existing_out_file(tmp_path, capsys):
    # an emotion label that is a lone surrogate cannot be encoded as UTF-8,
    # so rendering succeeds but writing the report fails
    classes = dict(CLASS_CENTERS, **{"\udcff": (0.7, 0.3, 0.6)})
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(serialize_manifest(synthetic_manifest(25, 6, classes=classes)))
    model = tmp_path / "model.json"
    easv = tmp_path / "easv.jsonl"
    assert run(["fit", "--manifest", str(manifest), "--out", str(model)]) == 0
    assert run(["extract", "--manifest", str(manifest),
                "--model", str(model), "--out", str(easv)]) == 0
    prosody = tmp_path / "prosody.jsonl"
    prosody.write_text("".join(
        json.dumps({"id": json.loads(line)["id"], "pitch_mean_hz": 100.0,
                    "energy_mean": 0.1, "duration_s": 2.0}) + "\n"
        for line in easv.read_text().splitlines()))
    report = tmp_path / "report.md"
    report.write_bytes(b"old report\n")
    report.chmod(0o600)
    link = tmp_path / "link.md"
    link.symlink_to(report.name)
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    before = sorted(tmp_path.iterdir())
    assert run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                "--manifest", str(manifest), "--out", str(report)]) == 1
    assert "can't encode" in capsys.readouterr().err
    assert report.read_bytes() == b"old report\n"
    assert sorted(tmp_path.iterdir()) == before

    # a directory is not replaced: opening it fails and nothing is left
    assert run(["control-vec", "--emotion", "happy", "--octant", "I",
                "--intensity", "strong", "--out", str(occupied)]) == 1
    assert sorted(tmp_path.iterdir()) == before

    # a successful write replaces the file behind a symlink and keeps its
    # mode; a new file gets the mode a plain write gives
    control_vec = ["control-vec", "--emotion", "happy", "--octant", "I",
                   "--intensity", "strong", "--out"]
    assert run(control_vec + [str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(report.read_text())["r_iqr"] == 0.9
    assert stat.S_IMODE(report.stat().st_mode) == 0o600
    assert sorted(tmp_path.iterdir()) == before
    fresh = tmp_path / "fresh.json"
    assert run(control_vec + [str(fresh)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_to_fifo_writes_through(tmp_path):
    # a target that is not a regular file is written, never replaced
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert run(["control-vec", "--emotion", "happy", "--octant", "I",
                "--intensity", "strong", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert json.loads(received[0])["r_iqr"] == 0.9
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(tmp_path.iterdir()) == [fifo]


@pytest.mark.parametrize("command", ["fit", "extract", "control-vec", "svas",
                                     "metrics", "prosody", "analyze", "pair-acc"])
def test_help_exits_0_and_lists_defaults(command, capsys):
    assert run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--out" in out
    if command == "fit":
        assert "(default: neutral)" in out  # --neutral-label default advertised


def test_svas_with_center_flag(tmp_path, capsys):
    synth = tmp_path / "synth.txt"
    ref = tmp_path / "ref.txt"
    synth.write_text("0.8 0.7 0.6\n0.2 0.3 0.4\n")
    ref.write_text("0.8 0.7 0.6\n0.9 0.8 0.7\n")
    assert run(["svas", "--synth", str(synth), "--ref", str(ref),
                "--center", "0.5,0.5,0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    first = float(lines[0].split("\t")[1])
    assert first == pytest.approx(1.0, abs=1e-12)
    assert lines[-1].startswith("mean\t")

    assert run(["svas", "--synth", str(synth), "--ref", str(ref),
                "--center", "0.5,nan,0.5"]) == 1
    assert "outside [0, 1]" in capsys.readouterr().err

    assert run(["svas", "--synth", str(synth), "--ref", str(ref),
                "--center", "abc,1,2"]) == 1
    assert "--center expects 'v,a,d', got 'abc,1,2'" in capsys.readouterr().err


def test_svas_with_manifest_center(tmp_path, manifest_file, capsys):
    synth = tmp_path / "synth.txt"
    ref = tmp_path / "ref.txt"
    synth.write_text("0.9 0.8 0.7\n")
    ref.write_text("0.9 0.8 0.7\n")
    assert run(["svas", "--synth", str(synth), "--ref", str(ref),
                "--manifest", str(manifest_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("mean\t")


@pytest.mark.parametrize("bad_side, bad_line", [("synth", 3), ("ref", 2)])
def test_svas_point_on_center_names_file_and_line(tmp_path, capsys, bad_side, bad_line):
    lines = {"synth": ["0.8 0.7 0.6", "0.2 0.3 0.4", "0.9 0.8 0.7"],
             "ref": ["0.8 0.7 0.6", "0.9 0.8 0.7", "0.2 0.3 0.4"]}
    lines[bad_side][bad_line - 1] = "0.5 0.5 0.5"
    paths = {side: tmp_path / f"{side}.txt" for side in lines}
    for side, path in paths.items():
        path.write_text("\n".join(lines[side]) + "\n")
    assert run(["svas", "--synth", str(paths["synth"]), "--ref", str(paths["ref"]),
                "--center", "0.5,0.5,0.5"]) == 1
    assert capsys.readouterr().err == (
        f"error: {paths[bad_side]}: line {bad_line}: degenerate radius: point coincides "
        "with the center, angle undefined\n")


@pytest.mark.parametrize("bad_flag, bad_line", [("--emb-a", 3), ("--emb-b", 4),
                                               ("--speaker-emb", 3), ("--emotion-emb", 4)])
def test_metrics_zero_norm_embedding_names_file_and_line(tmp_path, capsys, bad_flag, bad_line):
    if bad_flag in ("--emb-a", "--emb-b"):
        flags = ("--emb-a", "--emb-b")
        message = "cosine similarity undefined for a zero-norm vector"
    else:
        flags = ("--speaker-emb", "--emotion-emb")
        message = "zero-norm row in embedding batch"
    lines = {flag: ["1 0", "", "0 1", "1 1"] for flag in flags}
    lines[bad_flag][bad_line - 1] = "0 0"
    paths = {flag: tmp_path / f"{flag[2:]}.txt" for flag in lines}
    for flag, path in paths.items():
        path.write_text("\n".join(lines[flag]) + "\n")
    assert run(["metrics", flags[0], str(paths[flags[0]]), flags[1], str(paths[flags[1]])]) == 1
    assert capsys.readouterr().err == f"error: {paths[bad_flag]}: line {bad_line}: {message}\n"


@pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank-lines"])
def test_metrics_vector_file_without_vectors(tmp_path, capsys, text):
    emb = tmp_path / "emb.txt"
    emb.write_text(text)
    other = tmp_path / "other.txt"
    other.write_text("1 0\n")
    assert run(["metrics", "--emb-a", str(emb), "--emb-b", str(other)]) == 1
    assert capsys.readouterr().err == f"error: {emb}: no vectors found\n"


def test_metrics_embeddings_labels(tmp_path, capsys):
    emb_a = tmp_path / "a.txt"
    emb_b = tmp_path / "b.txt"
    emb_a.write_text("1 0\n0 1\n")
    emb_b.write_text("1 0\n0 1\n")
    spk = tmp_path / "spk.txt"
    emo = tmp_path / "emo.txt"
    spk.write_text("1 0\n1 0\n")
    emo.write_text("0 1\n0 1\n")
    pred = tmp_path / "pred.txt"
    ref = tmp_path / "ref.txt"
    pred.write_text("happy\nsad\n")
    ref.write_text("happy\nhappy\n")
    assert run(["metrics", "--emb-a", str(emb_a), "--emb-b", str(emb_b),
                "--speaker-emb", str(spk), "--emotion-emb", str(emo),
                "--pred-labels", str(pred), "--ref-labels", str(ref)]) == 0
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert float(out["eecs"]) == pytest.approx(1.0)
    assert float(out["orthogonality_loss"]) == pytest.approx(0.0, abs=1e-12)
    assert float(out["eca"]) == pytest.approx(0.5)

    emb_a.write_text("1 0\n\nnan 1\n")
    spk.write_text("1 0\n\n-inf 0\n")
    for flags, bad in ((["--emb-a", str(emb_a), "--emb-b", str(emb_b)], emb_a),
                       (["--speaker-emb", str(spk), "--emotion-emb", str(emo)], spk)):
        assert run(["metrics", *flags]) == 1
        assert f"{bad}: line 3: non-finite value" in capsys.readouterr().err


def test_metrics_tracks(tmp_path, capsys):
    from vadsphere import AudioBuffer, estimate_f0
    track = estimate_f0(AudioBuffer(samples=sine_samples(220, 0.5), sample_rate=22050))
    path_a = tmp_path / "a.track"
    path_b = tmp_path / "b.track"
    path_a.write_text(track_to_text(track))
    path_b.write_text(track_to_text(track))
    assert run(["metrics", "--track-a", str(path_a), "--track-b", str(path_b)]) == 0
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert float(out["rmse_f0"]) == 0.0
    assert float(out["rmse_period"]) == 0.0
    assert float(out["f1_vuv"]) == 1.0

    lines = track_to_text(track).splitlines()
    frame, _, voiced, periodicity = lines[-1].split()
    lines[-1] = f"{frame} inf {voiced} {periodicity}"
    path_b.write_text("\n".join(lines) + "\n")
    assert run(["metrics", "--track-a", str(path_a), "--track-b", str(path_b)]) == 1
    assert f"{path_b}: line {len(lines)}: non-finite" in capsys.readouterr().err

    lines[-1] = f"{frame} abc {voiced} {periodicity}"
    path_b.write_text("\n".join(lines) + "\n")
    assert run(["metrics", "--track-a", str(path_a), "--track-b", str(path_b)]) == 1
    assert f"{path_b}: line {len(lines)}: non-numeric field" in capsys.readouterr().err


def test_metrics_tracks_with_different_frame_steps_exit_1(tmp_path, capsys):
    paths = {}
    for name, hop, sample_rate in (("a", 256, 16000), ("b", 160, 22050)):
        paths[name] = tmp_path / f"{name}.track"
        paths[name].write_text(f"# hop={hop}\n# sample_rate={sample_rate}\n"
                               "0 100.0 1 0.9\n1 110.0 1 0.8\n")
    assert run(["metrics", "--track-a", str(paths["a"]), "--track-b", str(paths["b"])]) == 1
    assert capsys.readouterr().err == ("error: frame step mismatch: hop 256 at 16000 Hz "
                                       "vs hop 160 at 22050 Hz\n")
    # the same step in other units is no mismatch
    paths["b"].write_text("# hop=512\n# sample_rate=32000\n0 100.0 1 0.9\n1 110.0 1 0.8\n")
    assert run(["metrics", "--track-a", str(paths["a"]), "--track-b", str(paths["b"])]) == 0


def test_neutral_label_flag_matches_a_relabelled_run(tmp_path, manifest_file):
    texts = {"neutral": manifest_file.read_text()}
    texts["calm"] = texts["neutral"].replace('"emotion": "neutral"', '"emotion": "calm"')
    assert texts["calm"] != texts["neutral"]
    synth, ref = tmp_path / "synth.txt", tmp_path / "ref.txt"
    synth.write_text("0.8 0.7 0.6\n0.2 0.3 0.4\n")
    ref.write_text("0.9 0.8 0.7\n0.1 0.6 0.4\n")
    outputs = {}
    for label, text in texts.items():
        d = tmp_path / label
        d.mkdir()
        manifest = d / "manifest.jsonl"
        manifest.write_text(text)
        rows = [json.loads(line) for line in text.splitlines()]
        (d / "prosody.jsonl").write_text("".join(json.dumps(
            {"id": row["id"], "pitch_mean_hz": 100.0 + i, "energy_mean": 0.1 * (i % 7),
             "duration_s": 1.0 + 0.01 * i}) + "\n" for i, row in enumerate(rows)))
        label_flag = ["--neutral-label", label]
        m = ["--manifest", str(manifest)]
        for name, args in (
                ("model.json", ["fit", *m, *label_flag]),
                ("easv.jsonl", ["extract", *m, "--model", str(d / "model.json")]),
                ("svas.tsv", ["svas", "--synth", str(synth), "--ref", str(ref), *m, *label_flag]),
                ("report.md", ["analyze", "--easv", str(d / "easv.jsonl"), "--prosody",
                               str(d / "prosody.jsonl"), *m, *label_flag]),
                ("report.csv", ["analyze", "--easv", str(d / "easv.jsonl"), "--prosody",
                                str(d / "prosody.jsonl"), *m, *label_flag, "--format", "csv"])):
            assert run([*args, "--out", str(d / name)]) == 0
        outputs[label] = {name: (d / name).read_text()
                          for name in ("model.json", "easv.jsonl", "svas.tsv", "report.md",
                                       "report.csv")}
    assert "calm" in outputs["calm"]["report.md"]
    for name, text in outputs["calm"].items():
        assert text.replace("calm", "neutral") == outputs["neutral"][name], name


def test_prosody_f0_flags_reach_the_config(tmp_path, capsys):
    from vadsphere import F0Config, read_wav, utterance_prosody
    wav = tmp_path / "a.wav"
    write_wav(wav, sine_samples(180, 0.8, sr=16000), 16000)
    wav_list = tmp_path / "wavs.txt"
    wav_list.write_text(f"{wav}\n")
    stats = utterance_prosody(read_wav(wav), F0Config(80, 400, 800, 200, 0.2))
    expected = json.dumps({"id": str(wav), "pitch_mean_hz": stats.pitch_mean_hz,
                           "energy_mean": stats.energy_mean, "duration_s": stats.duration_s})
    assert run(["prosody", "--wav-list", str(wav_list), "--f-min", "80", "--f-max", "400",
                "--threshold", "0.2", "--window", "800", "--hop", "200"]) == 0
    assert capsys.readouterr().out == expected + "\n"
    assert run(["prosody", "--wav-list", str(wav_list)]) == 0  # the defaults differ
    assert capsys.readouterr().out != expected + "\n"


def test_fit_records_the_default_solver_epsilon(tmp_path, manifest_file, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    assert json.loads(model.read_text())["solver"] == {"denominator_epsilon": 1e-06}
    # the epsilon is a library setting (SolverConfig), not a flag
    assert run(["fit", "--manifest", str(manifest_file), "--denominator-epsilon", "0.1",
                "--out", str(model)]) == 1
    assert "unrecognized arguments: --denominator-epsilon 0.1" in capsys.readouterr().err


def test_metrics_requires_some_input(capsys):
    assert run(["metrics"]) == 1
    assert "no metric inputs" in capsys.readouterr().err


def test_prosody_manifest_and_jobs_equivalence(tmp_path):
    import json as _json
    sr = 22050
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    lines = []
    # u3 has 3 * _F0_BLOCK + 5 pitch frames, so it spans 4 blocks
    cfg = F0Config()
    long_n = cfg.window + math.ceil(sr / cfg.f_min) + (3 * _F0_BLOCK + 4) * cfg.hop
    durations = (0.4, 0.4, 0.4, long_n / sr)
    for i, (freq, duration) in enumerate(zip((150.0, 220.0, 310.0, 180.0), durations)):
        wav_path = wav_dir / f"u{i}.wav"
        write_wav(wav_path, sine_samples(freq, duration, sr), sr)
        lines.append(_json.dumps({"id": f"u{i}", "speaker": "s", "emotion": "happy",
                                  "vad": [0.5, 0.5, 0.5],
                                  "audio_path": str(wav_path)}))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    outs = {jobs: tmp_path / f"stats{jobs}.jsonl" for jobs in (1, 2, 3)}
    for jobs, out in outs.items():
        assert run(["prosody", "--manifest", str(manifest), "--out", str(out),
                    "--jobs", str(jobs)]) == 0
    assert outs[1].read_bytes() == outs[2].read_bytes() == outs[3].read_bytes()
    stats = [_json.loads(line) for line in outs[1].read_text().splitlines()]
    assert [s["id"] for s in stats] == ["u0", "u1", "u2", "u3"]
    assert stats[1]["pitch_mean_hz"] == pytest.approx(220.0, abs=2.0)
    assert stats[3]["pitch_mean_hz"] == pytest.approx(180.0, abs=2.0)
    assert all(s["duration_s"] == pytest.approx(d, abs=1e-3) for s, d in zip(stats, durations))


def test_prosody_wav_list(tmp_path, capsys):
    sr = 22050
    wav_path = tmp_path / "tone.wav"
    write_wav(wav_path, sine_samples(200.0, 0.4, sr), sr)
    listing = tmp_path / "wavs.txt"
    listing.write_text(str(wav_path) + "\n")
    assert run(["prosody", "--wav-list", str(listing)]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["pitch_mean_hz"] == pytest.approx(200.0, abs=2.0)


def test_prosody_requires_audio_path(tmp_path, manifest_file, capsys):
    assert run(["prosody", "--manifest", str(manifest_file)]) == 1
    assert re.fullmatch(f"error: {re.escape(str(manifest_file))}: record '[^']+' has no audio_path\n",
                        capsys.readouterr().err)


def _write_8bit_wav(path: Path, sr: int) -> None:
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(sr)
        w.writeframes(bytes(sr // 2))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("source", ["--wav-list", "--manifest"])
@pytest.mark.parametrize("case", ["missing", "8-bit", "short", "empty", "truncated"])
def test_prosody_wav_errors_name_source_and_wav(tmp_path, capsys, case, source, jobs):
    sr = 16000
    good = tmp_path / "a_good.wav"
    write_wav(good, sine_samples(200.0, 0.4, sr), sr)
    bad = tmp_path / "b_bad.wav"
    if case == "8-bit":
        _write_8bit_wav(bad, sr)
    elif case == "short":
        write_wav(bad, sine_samples(200.0, 0.05, sr), sr)
    elif case == "empty":
        bad.write_bytes(b"")
    elif case == "truncated":  # cut one byte into the last frame
        bad.write_bytes(good.read_bytes()[:-1])
    listing = tmp_path / "inputs.txt"
    if source == "--wav-list":
        listing.write_text(f"{good}\n{bad}\n")
    else:
        listing.write_text("".join(
            json.dumps({"id": f"u{i}", "speaker": "s", "emotion": "happy",
                        "vad": [0.5, 0.5, 0.5], "audio_path": str(path)}) + "\n"
            for i, path in enumerate((good, bad))))
    out = tmp_path / "stats.jsonl"
    assert run(["prosody", source, str(listing), "--jobs", jobs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    message = {"missing": "[Errno 2] No such file or directory",
               "8-bit": "unsupported encoding: expected 16-bit PCM, got 8-bit",
               "short": "audio too short for pitch analysis",
               "empty": "unsupported encoding: truncated file, header ends early",
               "truncated": "unsupported encoding: truncated file, data ends mid-frame"}[case]
    assert err.startswith(f"error: {listing}: {bad}: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", ["frame-cut", "header-only"])
def test_prosody_rejects_wav_short_of_its_data(tmp_path, capsys, case, jobs):
    # data that stops at a frame boundary short of the declared length, and a
    # header that declares frames but has none, exit 1 and write nothing
    sr = 16000
    good = tmp_path / "a_good.wav"
    write_wav(good, sine_samples(200.0, 0.4, sr), sr)
    bad = tmp_path / "b_bad.wav"
    bad.write_bytes(good.read_bytes()[:-2 if case == "frame-cut" else 44])
    listing = tmp_path / "wavs.txt"
    listing.write_text(f"{good}\n{bad}\n")
    out = tmp_path / "stats.jsonl"
    assert run(["prosody", "--wav-list", str(listing), "--jobs", jobs, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {listing}: {bad}: unsupported encoding: truncated file, data ends early\n")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_prosody_wav_list_rejects_repeated_path(tmp_path, capsys, jobs):
    sr = 16000
    wav = tmp_path / "t.wav"
    write_wav(wav, sine_samples(200.0, 0.4, sr), sr)
    listing = tmp_path / "wavs.txt"
    listing.write_text(f"{wav}\n{wav}\n")
    out = tmp_path / "stats.jsonl"
    assert run(["prosody", "--wav-list", str(listing), "--jobs", jobs, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {listing}: line 2: duplicate path '{wav}' (first seen at line 1)\n")
    assert not out.exists()


def test_pair_acc(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0.1 0.5 1\n0.5 0.9 1\n0.1 0.9 1\n0.9 0.1 1\n")
    assert run(["pair-acc", "--pairs", str(pairs)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pair_order_accuracy\t0.75")

    pairs.write_text("0.1 0.5 1\n0.1 nan 1\n")
    assert run(["pair-acc", "--pairs", str(pairs)]) == 1
    assert f"{pairs}: line 2: non-finite" in capsys.readouterr().err

    pairs.write_text("0.1 0.5 1\n0.1 abc 1\n")
    assert run(["pair-acc", "--pairs", str(pairs)]) == 1
    assert f"{pairs}: line 2: non-numeric radius" in capsys.readouterr().err


def test_bad_manifest_embedding_names_file_and_line(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    for embedding in ("[0.1,NaN]", "[0.1,[1]]"):
        manifest.write_text(
            '{"id":"a","speaker":"s","emotion":"neutral","vad":[0.5,0.5,0.5]}\n'
            '{"id":"b","speaker":"s","emotion":"happy","vad":[0.8,0.7,0.6],'
            f'"emo_embedding":{embedding}}}\n')
        assert run(["fit", "--manifest", str(manifest)]) == 1
        assert f"{manifest}: line 2: emo_embedding" in capsys.readouterr().err



def test_analyze_rejects_duplicate_prosody_id(tmp_path, manifest_file, capsys):
    model = tmp_path / "model.json"
    easv = tmp_path / "easv.jsonl"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(model)]) == 0
    assert run(["extract", "--manifest", str(manifest_file),
                "--model", str(model), "--out", str(easv)]) == 0
    ids = [json.loads(line)["id"] for line in easv.read_text().splitlines()]
    lines = [json.dumps({"id": i, "pitch_mean_hz": 100.0, "energy_mean": 0.1,
                         "duration_s": 1.0}) for i in ids]
    lines.insert(3, lines[1].replace("100.0", "900.0"))
    prosody = tmp_path / "prosody.jsonl"
    prosody.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.md"
    assert run(["analyze", "--easv", str(easv), "--prosody", str(prosody),
                "--manifest", str(manifest_file), "--out", str(out)]) == 1
    assert (f"{prosody}: line 4: duplicate id '{ids[1]}' (first seen at line 2)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_analyze_reads_numeric_prosody_ids_as_text(tmp_path, capsys):
    lines = serialize_manifest(synthetic_manifest(per_class=25, seed=6)).splitlines()
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({**json.loads(line), "id": 100 + i}) + "\n" for i, line in enumerate(lines)))
    model = tmp_path / "model.json"
    easv = tmp_path / "easv.jsonl"
    assert run(["fit", "--manifest", str(manifest), "--out", str(model)]) == 0
    assert run(["extract", "--manifest", str(manifest),
                "--model", str(model), "--out", str(easv)]) == 0
    rows = [{"id": 100 + i, "pitch_mean_hz": 100.0, "energy_mean": 0.1, "duration_s": 1.0}
            for i in range(len(lines))]
    prosody = tmp_path / "prosody.jsonl"
    prosody.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "report.md"
    analyze = ["analyze", "--easv", str(easv), "--prosody", str(prosody),
               "--manifest", str(manifest), "--out", str(out)]
    assert run(analyze) == 0
    assert out.read_text().startswith("# Prosodic variation")

    out.unlink()
    rows[1]["id"] = None
    prosody.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert run(analyze) == 1
    assert capsys.readouterr().err == (
        f"error: {prosody}: line 2: id must be a string or number\n")
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("id", "", "record id must be non-empty"),
    ("id", None, "id must be a string or number"),
    ("speaker", [1], "speaker must be a string or number"),
    ("emotion", None, "emotion must be a string or number"),
    ("emotion", {"a": 1}, "emotion must be a string or number"),
    ("emotion", True, "emotion must be a string or number"),
    ("emo_embedding", ["1.5", True], "emo_embedding must be an array of numbers"),
    ("spk_embedding", [0.5, True], "spk_embedding must be an array of numbers"),
    ("audio_path", [1, 2], "audio_path must be a string"),
])
def test_manifest_field_errors_name_line(tmp_path, capsys, field, value, message):
    records = [{"id": "a", "speaker": "s", "emotion": "neutral", "vad": [0.5, 0.5, 0.5]},
               {"id": "b", "speaker": "s", "emotion": "happy", "vad": [0.8, 0.7, 0.6]}]
    records[1][field] = value
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(["fit", "--manifest", str(manifest)]) == 1
    assert f"error: {manifest}: line 2: {message}\n" == capsys.readouterr().err


def test_manifest_numeric_labels_are_text(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id": 7, "speaker": 3.5, "emotion": 0, "vad": [0.5, 0.5, 0.5]}\n')
    record = vadsphere.parse_manifest(manifest).records[0]
    assert (record.id, record.speaker, record.emotion) == ("7", "3.5", "0")


def test_svas_vad_out_of_range_names_line(tmp_path, capsys):
    synth = tmp_path / "synth.txt"
    ref = tmp_path / "ref.txt"
    synth.write_text("0.8 0.7 0.6\n\n0.2 1.5 0.4\n")
    ref.write_text("0.8 0.7 0.6\n0.9 0.8 0.7\n")
    assert run(["svas", "--synth", str(synth), "--ref", str(ref),
                "--center", "0.5,0.5,0.5"]) == 1
    assert (f"error: {synth}: line 3: arousal component 1.5 outside [0, 1]\n"
            == capsys.readouterr().err)


def test_svas_center_outside_cube_names_the_axis(tmp_path, capsys):
    synth = tmp_path / "synth.txt"
    synth.write_text("0.8 0.7 0.6\n")
    assert run(["svas", "--synth", str(synth), "--ref", str(synth),
                "--center", "1.5,0.5,0.5"]) == 1
    assert capsys.readouterr().err == "error: valence component 1.5 outside [0, 1]\n"


def test_model_centroid_outside_cube_names_the_axis(tmp_path, capsys, chain):
    bad, out = tmp_path / "model", tmp_path / "out"
    _write_edited(chain, "model",
                  lambda d: d["centroids"]["happy"].update(point=[1.5, 0.5, 0.5]), "", bad)
    assert run(_reading("model", bad, chain, out)) == 1
    assert (capsys.readouterr().err
            == f"error: {bad}: centroids['happy']: valence component 1.5 outside [0, 1]\n")
    assert not out.exists()


def test_vector_dimension_mismatch_names_line(tmp_path, capsys):
    emb = tmp_path / "emb.txt"
    emb.write_text("1 0 0\n0 1 0\n\n0 1\n1 1 1 1\n")
    assert run(["metrics", "--emb-a", str(emb), "--emb-b", str(emb)]) == 1
    assert (f"error: {emb}: line 4: inconsistent vector dimensions\n"
            == capsys.readouterr().err)


def test_pair_acc_without_pairs_names_file(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("\n  \n\t\n")
    assert run(["pair-acc", "--pairs", str(pairs)]) == 1
    assert f"error: {pairs}: no pairs found\n" == capsys.readouterr().err

def test_extract_stdout(tmp_path, manifest_file, capsys):
    model = tmp_path / "model.json"
    run(["fit", "--manifest", str(manifest_file), "--out", str(model)])
    capsys.readouterr()
    assert run(["extract", "--manifest", str(manifest_file),
                "--model", str(model)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 100  # 4 classes x 25 records
    neutral = [json.loads(l) for l in lines if json.loads(l)["emotion"] == "neutral"]
    assert all(e["r_iqr"] == 0.0 and e["theta"] == 0.0 and e["phi"] == 0.0
               for e in neutral)


def test_no_subcommand_loads_scipy(tmp_path):
    """The package depends on numpy alone: no subcommand, `fit` included, loads scipy."""
    from vadsphere import AudioBuffer, estimate_f0
    sr = 16000
    records = []
    for i, record in enumerate(synthetic_manifest(per_class=5, seed=8).records):
        wav = tmp_path / f"{record.id}.wav"
        write_wav(wav, sine_samples(120.0 + 10 * i, 0.2, sr), sr)
        records.append(record._replace(audio_path=str(wav)))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(serialize_manifest(manifest_of(records)), encoding="utf-8")
    model = tmp_path / "model.json"
    assert run(["fit", "--manifest", str(manifest), "--out", str(model)]) == 0
    (tmp_path / "vad.txt").write_text("0.8 0.7 0.6\n0.2 0.3 0.4\n")
    (tmp_path / "emb.txt").write_text("1 0\n0 1\n")
    (tmp_path / "labels.txt").write_text("happy\nsad\n")
    (tmp_path / "pairs.txt").write_text("0.1 0.5 1\n0.9 0.1 1\n")
    track = estimate_f0(AudioBuffer(samples=sine_samples(220, 0.3), sample_rate=22050))
    (tmp_path / "f0.track").write_text(track_to_text(track))

    def path(name):
        return str(tmp_path / name)

    manifest, model = str(manifest), str(model)
    commands = [
        ("control-vec", ["--emotion", "happy", "--octant", "I", "--intensity", "strong"]),
        ("prosody", ["--manifest", manifest, "--jobs", "2",
                     "--out", path("prosody.jsonl")]),
        ("extract", ["--manifest", manifest, "--model", model,
                     "--out", path("easv.jsonl")]),
        ("analyze", ["--easv", path("easv.jsonl"), "--prosody", path("prosody.jsonl"),
                     "--manifest", manifest]),
        ("svas", ["--synth", path("vad.txt"), "--ref", path("vad.txt"),
                  "--manifest", manifest]),
        ("metrics", ["--emb-a", path("emb.txt"), "--emb-b", path("emb.txt"),
                     "--pred-labels", path("labels.txt"), "--ref-labels", path("labels.txt"),
                     "--track-a", path("f0.track"), "--track-b", path("f0.track")]),
        ("pair-acc", ["--pairs", path("pairs.txt")]),
        ("fit", ["--manifest", manifest]),
    ]
    # Each command's exit code and whether scipy is loaded after it, in a
    # fresh interpreter; stdout carries the subcommands' outputs first.
    script = ("import json, sys\n"
              "from vadsphere.cli import run\n"
              "seen = [[name, run([name, *argv]), 'scipy' in sys.modules]\n"
              "        for name, argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps(seen))\n")
    src = str(Path(vadsphere.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [[name, 0, False] for name, _ in commands]


def test_svas_center_sources_are_exclusive_and_required(tmp_path, manifest_file, capsys):
    vad = tmp_path / "vad.txt"
    vad.write_text("0.8 0.7 0.6\n")
    svas = ["svas", "--synth", str(vad), "--ref", str(vad)]
    assert run([*svas, "--center", "0.5,0.5,0.5", "--manifest", str(tmp_path / "absent")]) == 1
    assert capsys.readouterr().err == (
        "error: argument --manifest: not allowed with argument --center\n")
    assert run([*svas, "--manifest", str(manifest_file), "--center", "0.5,0.5,0.5"]) == 1
    assert "not allowed with argument --manifest" in capsys.readouterr().err
    assert run(svas) == 1
    assert capsys.readouterr().err == (
        "error: one of the arguments --manifest --center is required\n")


def test_prosody_audio_sources_are_exclusive_and_required(tmp_path, manifest_file, capsys):
    wav_list = tmp_path / "wavs.txt"
    wav_list.write_text("a.wav\n")
    assert run(["prosody", "--manifest", str(manifest_file), "--wav-list", str(wav_list)]) == 1
    assert capsys.readouterr().err == (
        "error: argument --wav-list: not allowed with argument --manifest\n")
    assert run(["prosody"]) == 1
    assert capsys.readouterr().err == (
        "error: one of the arguments --manifest --wav-list is required\n")


@pytest.mark.parametrize("flag, message", [("--f-min", "f_min must be >= 50 Hz"),
                                           ("--f-max", "f_max must exceed f_min")])
def test_prosody_nan_f0_bound_is_a_config_error(tmp_path, capsys, flag, message):
    wav = tmp_path / "a.wav"
    write_wav(wav, sine_samples(200.0, 0.4, 16000), 16000)
    wav_list = tmp_path / "wavs.txt"
    wav_list.write_text(f"{wav}\n")
    out = tmp_path / "stats.jsonl"
    assert run(["prosody", "--wav-list", str(wav_list), flag, "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the JSON readers' object and number rules, through the commands that read
# each JSON input
# ---------------------------------------------------------------------------

_SLOT = "@number@"  # a JSON string that _write_edited replaces by a raw literal


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> dict[str, Path]:
    """A valid manifest and the model, EASV and prosody files made from it."""
    d = tmp_path_factory.mktemp("chain")
    files = {name: d / name for name in ("manifest", "model", "easv", "prosody")}
    files["manifest"].write_text(serialize_manifest(synthetic_manifest(per_class=6, seed=6)))
    m = str(files["manifest"])
    assert run(["fit", "--manifest", m, "--out", str(files["model"])]) == 0
    assert run(["extract", "--manifest", m, "--model", str(files["model"]),
                "--out", str(files["easv"])]) == 0
    files["prosody"].write_text("".join(
        json.dumps({"id": json.loads(line)["id"], "pitch_mean_hz": 100.0,
                    "energy_mean": 0.1, "duration_s": 1.0}) + "\n"
        for line in files["easv"].read_text().splitlines()))
    return files


def _write_edited(chain: dict[str, Path], kind: str, edit, literal: str, path: Path) -> None:
    """chain[kind] written to `path` with `edit` applied to line 2 (to the whole
    document of a model) and every _SLOT string replaced by `literal`. `edit`
    changes the decoded value in place, or returns the value that replaces it."""
    text = chain[kind].read_text()
    lines = [text] if kind == "model" else text.splitlines()
    at = 0 if kind == "model" else 1
    value = json.loads(lines[at])
    edited = edit(value)
    lines[at] = json.dumps(value if edited is None else edited)
    path.write_text("\n".join(lines).replace(json.dumps(_SLOT), literal) + "\n")


def _reading(kind: str, path: Path, chain: dict[str, Path], out: Path) -> list[str]:
    """The command that reads `path` as its input of `kind`, writing to `out`."""
    files = {**chain, kind: path}
    m = str(files["manifest"])
    if kind == "manifest":
        return ["fit", "--manifest", m, "--out", str(out)]
    if kind == "model":
        return ["extract", "--manifest", m, "--model", str(files["model"]), "--out", str(out)]
    return ["analyze", "--easv", str(files["easv"]), "--prosody", str(files["prosody"]),
            "--manifest", m, "--out", str(out)]


_NUMBER_FIELDS = {
    "manifest vad": ("manifest", lambda o: o.update(vad=[0.5, _SLOT, 0.5]), "line 2: vad"),
    "manifest emo_embedding": ("manifest", lambda o: o.update(emo_embedding=[0.1, _SLOT]),
                               "line 2: emo_embedding"),
    "easv r_iqr": ("easv", lambda o: o.update(r_iqr=_SLOT), "line 2: r_iqr"),
    "prosody energy_mean": ("prosody", lambda o: o.update(energy_mean=_SLOT),
                            "line 2: energy_mean"),
    "model point": ("model", lambda d: d["centroids"]["happy"].update(point=[0.5, _SLOT, 0.5]),
                    "centroids['happy']: point"),
    "model q1": ("model", lambda d: d["bounds"]["happy"].update(q1=_SLOT), "bounds['happy']: q1"),
    "model objective": ("model", lambda d: d["centroids"]["happy"].update(objective=_SLOT),
                        "centroids['happy']: objective"),
}


@pytest.mark.parametrize("literal", ["9" * 401, "NaN", "Infinity", "-1e400"],
                         ids=["401-digit", "NaN", "Infinity", "-1e400"])
@pytest.mark.parametrize("field", list(_NUMBER_FIELDS))
def test_number_beyond_finite_floats_names_the_key(tmp_path, capsys, chain, field, literal):
    kind, edit, where = _NUMBER_FIELDS[field]
    bad, out = tmp_path / kind, tmp_path / "out"
    _write_edited(chain, kind, edit, literal, bad)
    assert run(_reading(kind, bad, chain, out)) == 1
    assert capsys.readouterr().err == f"error: {bad}: {where} must be a finite number\n"
    assert not out.exists()


_LABEL_FIELDS = {
    "manifest id": ("manifest", lambda o: o.update(id=_SLOT), "line 2: id"),
    "manifest speaker": ("manifest", lambda o: o.update(speaker=_SLOT), "line 2: speaker"),
    "manifest emotion": ("manifest", lambda o: o.update(emotion=_SLOT), "line 2: emotion"),
    "easv id": ("easv", lambda o: o.update(id=_SLOT), "line 2: id"),
    "easv emotion": ("easv", lambda o: o.update(emotion=_SLOT), "line 2: emotion"),
    "prosody id": ("prosody", lambda o: o.update(id=_SLOT), "line 2: id"),
}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("field", list(_LABEL_FIELDS))
def test_non_finite_label_names_the_key(tmp_path, capsys, chain, field, literal):
    kind, edit, where = _LABEL_FIELDS[field]
    bad, out = tmp_path / kind, tmp_path / "out"
    _write_edited(chain, kind, edit, literal, bad)
    assert run(_reading(kind, bad, chain, out)) == 1
    assert capsys.readouterr().err == f"error: {bad}: {where} must be a finite number\n"
    assert not out.exists()


def test_large_integer_label_is_its_text(tmp_path, chain):
    bad, out = tmp_path / "manifest", tmp_path / "out"
    _write_edited(chain, "manifest", lambda o: o.update(speaker=_SLOT), "9" * 401, bad)
    assert run(_reading("manifest", bad, chain, out)) == 0
    assert vadsphere.parse_manifest(bad).speakers[1] == "9" * 401


@pytest.mark.parametrize("kind, edit, message", [
    ("manifest", lambda o: [1, 2], "line 2: record must be a JSON object"),
    ("prosody", lambda o: [1, 2], "line 2: prosody record must be a JSON object"),
    ("prosody", lambda o: {k: v for k, v in o.items() if k != "energy_mean"},
     "line 2: missing key 'energy_mean'"),
    ("model", lambda d: [d], "EASV model must be a JSON object"),
    ("model", lambda d: d["centroids"].update(happy=[0.5, 0.5, 0.5]),
     "centroids['happy']: entry must be a JSON object"),
    ("model", lambda d: d["bounds"].update(sad=[1, 2, 3, 4]),
     "bounds['sad']: entry must be a JSON object"),
    ("model", lambda d: d.update(bounds=[]), "bounds must be a JSON object"),
], ids=["manifest", "prosody", "prosody-missing-key", "model", "model-centroid", "model-bound",
        "model-bounds"])
def test_json_value_that_is_no_object_names_it(tmp_path, capsys, chain, kind, edit, message):
    bad, out = tmp_path / kind, tmp_path / "out"
    _write_edited(chain, kind, edit, "", bad)
    assert run(_reading(kind, bad, chain, out)) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("literal", ["[" * 100_000 + "]" * 100_000, "9" * 5000],
                         ids=["nested-too-deep", "5000-digit"])
def test_json_past_the_decoder_limits_is_malformed(tmp_path, capsys, chain, literal):
    bad, out = tmp_path / "manifest", tmp_path / "out"
    _write_edited(chain, "manifest", lambda o: o.update(vad=[0.5, _SLOT, 0.5]), literal, bad)
    assert run(_reading("manifest", bad, chain, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: malformed record: ") and err.count("\n") == 1
    assert not out.exists()


_JSON_NUMBER_LITERAL = (
    st.from_regex(r"\A-?(0|[1-9][0-9]{0,400})(\.[0-9]{1,20})?([eE][+-]?[0-9]{1,4})?\Z",
                  fullmatch=True)
    | st.integers(-10 ** 401, 10 ** 401).map(str)
    | st.sampled_from(["NaN", "Infinity", "-Infinity", "-0", "1e-400", "9" * 401]))
_ANY_NUMBER_FIELD = {
    "manifest speaker": ("manifest", lambda o: o.update(speaker=_SLOT)),
    "manifest vad": ("manifest", lambda o: o.update(vad=[_SLOT, 0.5, 0.5])),
    "manifest spk_embedding": ("manifest", lambda o: o.update(spk_embedding=[_SLOT])),
    "easv theta": ("easv", lambda o: o.update(theta=_SLOT)),
    "easv phi": ("easv", lambda o: o.update(phi=_SLOT)),
    "prosody pitch_mean_hz": ("prosody", lambda o: o.update(pitch_mean_hz=_SLOT)),
    "prosody duration_s": ("prosody", lambda o: o.update(duration_s=_SLOT)),
    "model point": ("model", lambda d: d["centroids"]["sad"].update(point=[0.3, 0.3, _SLOT])),
    "model r_max": ("model", lambda d: d["bounds"]["angry"].update(r_max=_SLOT)),
    "model objective": ("model", lambda d: d["centroids"]["angry"].update(objective=_SLOT)),
}


@settings(max_examples=60, deadline=None)
@example(field="easv theta", literal="9" * 401)
@given(field=st.sampled_from(sorted(_ANY_NUMBER_FIELD)), literal=_JSON_NUMBER_LITERAL)
def test_any_json_number_in_a_numeric_field_exits_0_or_1(tmp_path_factory, chain, field,
                                                         literal):
    kind, edit = _ANY_NUMBER_FIELD[field]
    d = tmp_path_factory.mktemp("literal")
    bad, out = d / kind, d / "out"
    _write_edited(chain, kind, edit, literal, bad)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(_reading(kind, bad, chain, out))
    assert code in (0, 1), err.getvalue()
    assert out.exists() == (code == 0)


# ---------------------------------------------------------------------------
# one output path: every subcommand writes the same bytes to stdout or --out
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def every_command(chain, tmp_path_factory) -> dict[str, list[str]]:
    """A successful command line for each subcommand, without --out."""
    d = tmp_path_factory.mktemp("every")
    vad, emb, labels, pairs, wavs = (d / name for name in
                                     ("vad.txt", "emb.txt", "labels.txt", "pairs.txt", "wavs"))
    vad.write_text("0.8 0.7 0.6\n0.2 0.3 0.4\n")
    emb.write_text("1 0\n0.6 0.8\n")
    labels.write_text("happy\nsad\n")
    pairs.write_text("0.2 0.8 1\n0.9 0.1 0\n0.3 0.4 0\n")
    write_wav(d / "tone.wav", sine_samples(200.0, 0.4, 16000), 16000)
    wavs.write_text(f"{d / 'tone.wav'}\n")
    m = str(chain["manifest"])
    return {
        "fit": ["fit", "--manifest", m],
        "extract": ["extract", "--manifest", m, "--model", str(chain["model"])],
        "control-vec": ["control-vec", "--emotion", "sad", "--octant", "VI",
                        "--intensity", "0.4"],
        "svas": ["svas", "--synth", str(vad), "--ref", str(vad), "--center", "0.5,0.5,0.5"],
        "metrics": ["metrics", "--emb-a", str(emb), "--emb-b", str(emb),
                    "--pred-labels", str(labels), "--ref-labels", str(labels)],
        "prosody": ["prosody", "--wav-list", str(wavs)],
        "analyze": ["analyze", "--easv", str(chain["easv"]), "--prosody", str(chain["prosody"]),
                    "--manifest", m],
        "pair-acc": ["pair-acc", "--pairs", str(pairs)],
    }


@pytest.mark.parametrize("command", ["fit", "extract", "control-vec", "svas",
                                     "metrics", "prosody", "analyze", "pair-acc"])
def test_out_file_holds_the_stdout_bytes(command, every_command, tmp_path, capsysbinary):
    argv = every_command[command]
    assert run(argv) == 0
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert stdout and out.read_bytes() == stdout
    assert run([command, "--help"]) == 0
    help_text = capsysbinary.readouterr().out.decode()
    assert re.findall(r"^ +--out\b", help_text, re.M) == ["  --out"]


@pytest.mark.parametrize("command", ["extract", "prosody"])
def test_empty_manifest_gives_an_empty_file(command, chain, tmp_path, capsysbinary):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n  \n")
    argv = {"extract": ["extract", "--manifest", str(empty), "--model", str(chain["model"])],
            "prosody": ["prosody", "--manifest", str(empty)]}[command]
    assert run(argv) == 0
    assert capsysbinary.readouterr().out == b""
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == b""
