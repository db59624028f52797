"""Dataset manifest parsing and WAV loading.

Manifests are UTF-8 text with one JSON object per line. Required keys:
``id``, ``speaker``, ``emotion``, ``vad`` (3-element array in [0, 1]).
Optional keys: ``audio_path``, ``emo_embedding``, ``spk_embedding``.
Unknown keys are ignored. Records are kept sorted by id so downstream
aggregation is deterministic.

WAV support is deliberately narrow: RIFF little-endian, 16-bit signed PCM,
mono or multichannel (downmixed by channel mean). No resampling, no
compressed formats.
"""

from __future__ import annotations

import io
import json
import math
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .geometry import VadPoint

REQUIRED_KEYS = ("id", "speaker", "emotion", "vad")

INT16_SCALE = 32768.0


@dataclass(frozen=True)
class UtteranceRecord:
    """One manifest row: identity, labels, VAD triple, optional attachments."""

    id: str
    speaker: str
    emotion: str
    vad: VadPoint
    audio_path: str | None = None
    emo_embedding: tuple[float, ...] | None = None
    spk_embedding: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("record id must be non-empty")
        for name, emb in (("emo_embedding", self.emo_embedding),
                          ("spk_embedding", self.spk_embedding)):
            if emb is not None and len(emb) == 0:
                raise ValueError(f"{name} must have positive dimension when present")


@dataclass(frozen=True)
class DatasetManifest:
    """Immutable, id-sorted collection of utterance records."""

    records: tuple[UtteranceRecord, ...]
    neutral_label: str = "neutral"

    def __post_init__(self) -> None:
        ids = [r.id for r in self.records]
        if sorted(ids) != ids:
            raise ValueError("manifest records must be sorted by id")
        if len(set(ids)) != len(ids):
            raise ValueError("manifest records must have unique ids")

    def __len__(self) -> int:
        return len(self.records)

    def by_id(self) -> Mapping[str, UtteranceRecord]:
        return {r.id: r for r in self.records}

    def class_records(self, emotion: str) -> list[UtteranceRecord]:
        return [r for r in self.records if r.emotion == emotion]

    def neutral_records(self) -> list[UtteranceRecord]:
        return self.class_records(self.neutral_label)

    def emotion_order(self) -> list[str]:
        """Emotion labels in order of first appearance over the sorted records."""
        seen: list[str] = []
        for r in self.records:
            if r.emotion not in seen:
                seen.append(r.emotion)
        return seen


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio, samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate {self.sample_rate} must be positive")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


def _coerce_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    raise TypeError(f"unsupported manifest source type {type(source)!r}")


def _parse_vad(raw, line_no: int) -> VadPoint:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ValueError(f"line {line_no}: vad must be a 3-element array")
    values = []
    for component in raw:
        if not isinstance(component, (int, float)) or isinstance(component, bool):
            raise ValueError(f"line {line_no}: vad components must be numbers")
        values.append(float(component))
    if any(not (0.0 <= value <= 1.0) for value in values):
        raise ValueError(f"vad out of range at line {line_no}")
    return VadPoint(*values)


def _parse_embedding(raw, key: str, line_no: int) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or len(raw) == 0:
        raise ValueError(f"line {line_no}: {key} must be a non-empty array")
    try:
        values = tuple(float(x) for x in raw)
    except (TypeError, ValueError):
        raise ValueError(f"line {line_no}: {key} must contain only numbers") from None
    if not all(math.isfinite(x) for x in values):
        raise ValueError(f"line {line_no}: {key} must contain only finite numbers")
    return values


def parse_manifest(source, neutral_label: str = "neutral") -> DatasetManifest:
    """Parse a line-delimited manifest from bytes, text, a path, or a stream.

    Blank lines are skipped. Raises ValueError with the offending line number
    on malformed records, missing keys, out-of-range VAD values, and
    duplicate ids.
    """
    text = _coerce_text(source)
    records: list[UtteranceRecord] = []
    seen_ids: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_no}: malformed record: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"line {line_no}: record must be a key/value object")
        for key in REQUIRED_KEYS:
            if key not in obj:
                raise ValueError(f"line {line_no}: missing required key '{key}'")
        rec_id = str(obj["id"])
        if rec_id in seen_ids:
            raise ValueError(
                f"line {line_no}: duplicate id '{rec_id}' (first seen at line {seen_ids[rec_id]})")
        seen_ids[rec_id] = line_no
        vad = _parse_vad(obj["vad"], line_no)
        audio_path = str(obj["audio_path"]) if obj.get("audio_path") is not None else None
        emo_emb = (_parse_embedding(obj["emo_embedding"], "emo_embedding", line_no)
                   if obj.get("emo_embedding") is not None else None)
        spk_emb = (_parse_embedding(obj["spk_embedding"], "spk_embedding", line_no)
                   if obj.get("spk_embedding") is not None else None)
        records.append(UtteranceRecord(
            id=rec_id,
            speaker=str(obj["speaker"]),
            emotion=str(obj["emotion"]),
            vad=vad,
            audio_path=audio_path,
            emo_embedding=emo_emb,
            spk_embedding=spk_emb,
        ))
    records.sort(key=lambda r: r.id)
    return DatasetManifest(records=tuple(records), neutral_label=neutral_label)


def serialize_manifest(manifest: DatasetManifest) -> str:
    """Render a manifest back to line-delimited text (id-sorted, stable keys)."""
    lines = []
    for r in manifest.records:
        obj: dict = {
            "id": r.id,
            "speaker": r.speaker,
            "emotion": r.emotion,
            "vad": [r.vad.v, r.vad.a, r.vad.d],
        }
        if r.audio_path is not None:
            obj["audio_path"] = r.audio_path
        if r.emo_embedding is not None:
            obj["emo_embedding"] = list(r.emo_embedding)
        if r.spk_embedding is not None:
            obj["spk_embedding"] = list(r.spk_embedding)
        lines.append(json.dumps(obj))
    return "\n".join(lines) + ("\n" if lines else "")


def read_wav(path) -> AudioBuffer:
    """Load a 16-bit PCM RIFF/WAVE file as mono float64 in [-1, 1].

    Multichannel input is downmixed by the arithmetic channel mean. Anything
    that is not 16-bit PCM is rejected.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            samp_width = wav.getsampwidth()
            sample_rate = wav.getframerate()
            n_frames = wav.getnframes()
            if samp_width != 2:
                raise ValueError(
                    f"unsupported encoding: expected 16-bit PCM, got {8 * samp_width}-bit")
            raw = wav.readframes(n_frames)
    except wave.Error as exc:
        raise ValueError(f"unsupported encoding: {exc}") from exc
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / INT16_SCALE
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return AudioBuffer(samples=data, sample_rate=sample_rate)
