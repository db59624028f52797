import json
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from vadsphere import serialize_manifest
from vadsphere.cli import run

from conftest import CLASS_CENTERS, sine_samples, synthetic_manifest, write_wav


@pytest.fixture()
def manifest_file(tmp_path) -> Path:
    manifest = synthetic_manifest(per_class=25, seed=6)
    path = tmp_path / "manifest.jsonl"
    path.write_text(serialize_manifest(manifest), encoding="utf-8")
    return path


def test_fit_is_byte_deterministic(tmp_path, manifest_file):
    out_a = tmp_path / "model_a.json"
    out_b = tmp_path / "model_b.json"
    base = ["fit", "--manifest", str(manifest_file), "--seed", "42"]
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
    assert f"{prosody}: line 2: non-finite value" in capsys.readouterr().err
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


def test_unwritable_out_path_exits_1(tmp_path, manifest_file, capsys):
    out = tmp_path / "no" / "such" / "dir" / "model.json"
    assert run(["fit", "--manifest", str(manifest_file), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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
        assert "default: 42" in out  # seed default advertised


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


def test_svas_with_manifest_center(tmp_path, manifest_file, capsys):
    synth = tmp_path / "synth.txt"
    ref = tmp_path / "ref.txt"
    synth.write_text("0.9 0.8 0.7\n")
    ref.write_text("0.9 0.8 0.7\n")
    assert run(["svas", "--synth", str(synth), "--ref", str(ref),
                "--manifest", str(manifest_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("mean\t")


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
    from vadsphere.prosody import track_to_text
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


def test_metrics_requires_some_input(capsys):
    assert run(["metrics"]) == 1
    assert "no metric inputs" in capsys.readouterr().err


def test_prosody_manifest_and_jobs_equivalence(tmp_path):
    import json as _json
    sr = 22050
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    lines = []
    for i, freq in enumerate((150.0, 220.0, 310.0)):
        wav_path = wav_dir / f"u{i}.wav"
        write_wav(wav_path, sine_samples(freq, 0.4, sr), sr)
        lines.append(_json.dumps({"id": f"u{i}", "speaker": "s", "emotion": "happy",
                                  "vad": [0.5, 0.5, 0.5],
                                  "audio_path": str(wav_path)}))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    out1 = tmp_path / "stats1.jsonl"
    out2 = tmp_path / "stats2.jsonl"
    assert run(["prosody", "--manifest", str(manifest), "--out", str(out1),
                "--jobs", "1"]) == 0
    assert run(["prosody", "--manifest", str(manifest), "--out", str(out2),
                "--jobs", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stats = [_json.loads(line) for line in out1.read_text().splitlines()]
    assert [s["id"] for s in stats] == ["u0", "u1", "u2"]
    assert stats[1]["pitch_mean_hz"] == pytest.approx(220.0, abs=2.0)
    assert all(s["duration_s"] == pytest.approx(0.4, abs=1e-3) for s in stats)


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
    assert "audio_path" in capsys.readouterr().err


def test_pair_acc(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0.1 0.5 1\n0.5 0.9 1\n0.1 0.9 1\n0.9 0.1 1\n")
    assert run(["pair-acc", "--pairs", str(pairs)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pair_order_accuracy\t0.75")

    pairs.write_text("0.1 0.5 1\n0.1 nan 1\n")
    assert run(["pair-acc", "--pairs", str(pairs)]) == 1
    assert f"{pairs}: line 2: non-finite" in capsys.readouterr().err


def test_bad_manifest_embedding_names_file_and_line(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    for embedding in ("[0.1,NaN]", "[0.1,[1]]"):
        manifest.write_text(
            '{"id":"a","speaker":"s","emotion":"neutral","vad":[0.5,0.5,0.5]}\n'
            '{"id":"b","speaker":"s","emotion":"happy","vad":[0.8,0.7,0.6],'
            f'"emo_embedding":{embedding}}}\n')
        assert run(["fit", "--manifest", str(manifest)]) == 1
        assert f"{manifest}: line 2: emo_embedding" in capsys.readouterr().err


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
