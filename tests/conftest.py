"""Shared builders and writers for synthetic manifests, f0 tracks and audio."""

from __future__ import annotations

import json
import wave
from pathlib import Path

import numpy as np

from vadsphere import DatasetManifest, F0Track, UtteranceRecord, VadPoint

CLASS_CENTERS = {
    "neutral": (0.50, 0.50, 0.50),
    "happy": (0.76, 0.68, 0.62),
    "angry": (0.22, 0.82, 0.70),
    "sad": (0.30, 0.26, 0.36),
}


def synthetic_manifest(per_class: int = 200, seed: int = 2024,
                       spread: float = 0.11,
                       classes: dict | None = None) -> DatasetManifest:
    """Gaussian class clouds clipped to the cube, id-sorted."""
    rng = np.random.default_rng(seed)
    records = []
    for emotion, center in (classes or CLASS_CENTERS).items():
        points = np.clip(rng.normal(center, spread, size=(per_class, 3)), 0.0, 1.0)
        for i, p in enumerate(points):
            records.append(UtteranceRecord(
                id=f"{emotion}-{i:04d}",
                speaker=f"spk{i % 10}",
                emotion=emotion,
                vad=VadPoint(*p),
            ))
    return manifest_of(records)


def manifest_of(records, neutral_label: str = "neutral") -> DatasetManifest:
    """The manifest whose rows are the UtteranceRecords `records`, in any order."""
    rows = sorted(records, key=lambda r: r.id)
    return DatasetManifest(*(zip(*rows) if rows else ((),) * 7), neutral_label=neutral_label)


def serialize_manifest(manifest: DatasetManifest) -> str:
    """A manifest as line-delimited text: id-sorted rows, stable keys, optional
    keys only where present."""
    lines = []
    for rec_id, speaker, emotion, vad, *optional in zip(
            manifest.ids, manifest.speakers, manifest.emotions, manifest.vad.tolist(),
            manifest.audio_paths, manifest.emo_embeddings, manifest.spk_embeddings):
        obj = {"id": rec_id, "speaker": speaker, "emotion": emotion, "vad": vad}
        for key, value in zip(("audio_path", "emo_embedding", "spk_embedding"), optional):
            if value is not None:
                obj[key] = value
        lines.append(json.dumps(obj))
    return "\n".join(lines) + ("\n" if lines else "")


def track_to_text(track: F0Track) -> str:
    """A track file: header comments plus one `frame f0 voiced periodicity` line
    per frame."""
    lines = [f"# hop={track.hop}", f"# sample_rate={track.sample_rate}"]
    for i in range(len(track)):
        lines.append(f"{i} {float(track.f0_hz[i])!r} {int(track.voiced[i])} "
                     f"{float(track.periodicity[i])!r}")
    return "\n".join(lines) + "\n"


def random_solver_instance(rng: np.random.Generator, n: int = 200):
    """One (targets, neutrals) pair of VadPoint clouds for solver tests."""
    t_center = rng.uniform(0.15, 0.85, 3)
    n_center = rng.uniform(0.35, 0.65, 3)
    t_spread = rng.uniform(0.05, 0.18)
    n_spread = rng.uniform(0.05, 0.15)
    targets = np.clip(rng.normal(t_center, t_spread, (n, 3)), 0.0, 1.0)
    neutrals = np.clip(rng.normal(n_center, n_spread, (n, 3)), 0.0, 1.0)
    return ([VadPoint(*p) for p in targets], [VadPoint(*p) for p in neutrals])


def sine_samples(freq: float, duration: float, sr: int = 22050,
                 amplitude: float = 0.8) -> np.ndarray:
    t = np.arange(int(round(duration * sr))) / sr
    return amplitude * np.sin(2.0 * np.pi * freq * t)


def write_wav(path: Path, samples: np.ndarray, sr: int, channels: int = 1) -> None:
    """16-bit PCM writer for test fixtures."""
    data = np.clip(samples, -1.0, 1.0)
    ints = (data * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(ints.tobytes())


# One "[acceptance] <criterion>: PASS|FAIL" line per release criterion,
# echoed in the terminal summary regardless of capture mode.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
