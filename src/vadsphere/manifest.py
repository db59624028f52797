"""Line-oriented input, dataset manifest parsing and WAV loading.

Every line-oriented input format is read through ``parse_lines``: blank and
whitespace-only lines are skipped, lines are numbered from 1, and a fault
in one line is a ValueError reading ``line N: <message>``, or ``line N:
missing key 'k'`` for a KeyError. ``unique_ids`` rejects an id seen twice,
naming both lines.

Every JSON input (manifest, EASV and prosody lines, model files) is decoded
by ``json_object`` and read through ``label_field``, ``number_field`` and
``number_list``. A number is a JSON number that fits a float and is finite:
``"1.5"`` and ``true`` read ``<key> must be a number``; ``NaN``,
``Infinity``, ``1e400`` and a 401-digit integer read ``<key> must be a
finite number``.

Manifests are UTF-8 text with one JSON object per line. Required keys:
``id``, ``speaker``, ``emotion`` (each a string, or a number read as
text), ``vad`` (3-element array in [0, 1]). Optional keys:
``audio_path`` (a string), ``emo_embedding``, ``spk_embedding`` (non-empty
arrays). Unknown keys are ignored. Records are kept sorted by id so
downstream aggregation is deterministic.

WAV support is deliberately narrow: RIFF little-endian, 16-bit signed PCM,
mono or multichannel (downmixed by channel mean). No resampling, no
compressed formats.
"""

from __future__ import annotations

import gc
import io
import json
import math
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .geometry import VadPoint

INT16_SCALE = 32768.0

# What the JSON decoder makes of a JSON number; compared by type(), as bool is an int
_JSON_NUMBER = frozenset((int, float))


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
        return list(dict.fromkeys(r.emotion for r in self.records))


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


def parse_lines(text: str, parse_line) -> list[tuple[int, object]]:
    """(line number, parse_line(line)) for each non-blank line, numbered from 1;
    a ValueError from parse_line is raised again as `line N: <message>`, and a
    KeyError as `line N: missing key 'k'`."""
    numbered = []
    collecting = gc.isenabled()
    gc.disable()  # a parse keeps all it builds: collections here would free nothing
    try:
        for line_no, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                try:
                    numbered.append((line_no, parse_line(line)))
                except ValueError as exc:
                    raise line_error(line_no, exc) from exc
                except KeyError as exc:
                    raise line_error(line_no, f"missing key {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    return numbered


def line_error(line_no: int, message) -> ValueError:
    """The error for a fault found on line `line_no` of an input."""
    return ValueError(f"line {line_no}: {message}")


class RowError(ValueError):
    """A fault in row `row` of the array passed as argument `arg` (0 = the first)
    of a function over arrays; the caller that read the rows names the line."""

    def __init__(self, message: str, row: int, arg: int = 0) -> None:
        super().__init__(message)
        self.row, self.arg = row, arg


def first_fault(faults: np.ndarray) -> tuple[int, int]:
    """(row, column) of the first True in an (n, k) mask, row by row."""
    return divmod(int(np.argmax(faults)), faults.shape[1])


def unique_ids(numbered: list[tuple[int, tuple]]) -> dict:
    """{id: value} from parse_lines output of (id, value) pairs; ids must be unique."""
    out = {}
    for line_no, (key, value) in numbered:
        if key in out:
            first = next(n for n, (k, _) in numbered if k == key)
            raise line_error(line_no, f"duplicate id '{key}' (first seen at line {first})")
        out[key] = value
    return out


def json_object(text: str, what: str) -> dict:
    """text decoded as JSON, which must be an object; `what` names it in a fault."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep, or an int of 4300+ digits
        raise ValueError(f"malformed {what}: {getattr(exc, 'msg', exc)}") from None
    return object_value(value, what)


def object_value(value, what: str) -> dict:
    """value, a decoded JSON value, which must be an object."""
    if type(value) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    return value


def label_field(obj: dict, key: str) -> str:
    """obj[key] as text: a JSON string or number; null, true, [] or {} is no label."""
    value = obj[key]
    if type(value) not in (str, int, float):
        raise ValueError(f"{key} must be a string or number")
    return str(value)


def number_field(obj: dict, key: str) -> float:
    """obj[key] as a float: a finite JSON number; true, "1.5" or null is no number."""
    value = obj[key]
    if type(value) not in _JSON_NUMBER:
        raise ValueError(f"{key} must be a number")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{key} must be a finite number")


def number_list(obj: dict, key: str) -> list[float]:
    """obj[key] as floats: a JSON array of numbers, each by number_field's rule."""
    values = obj[key]
    if type(values) is not list or not _JSON_NUMBER.issuperset(map(type, values)):
        raise ValueError(f"{key} must be an array of numbers")
    try:
        floats = list(map(float, values))
        if all(map(math.isfinite, floats)):
            return floats
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{key} must be a finite number")


def _parse_vad(obj: dict) -> VadPoint:
    values = number_list(obj, "vad")
    if len(values) != 3:
        raise ValueError("vad must be a 3-element array")
    return VadPoint(*values)


def _parse_embedding(obj: dict, key: str) -> tuple[float, ...] | None:
    return None if obj.get(key) is None else tuple(number_list(obj, key))


def _parse_record(line: str) -> tuple[str, UtteranceRecord]:
    obj = json_object(line, "record")
    audio_path = obj.get("audio_path")
    if audio_path is not None and type(audio_path) is not str:
        raise ValueError("audio_path must be a string")
    record = UtteranceRecord(
        id=label_field(obj, "id"),
        speaker=label_field(obj, "speaker"),
        emotion=label_field(obj, "emotion"),
        vad=_parse_vad(obj),
        audio_path=audio_path,
        emo_embedding=_parse_embedding(obj, "emo_embedding"),
        spk_embedding=_parse_embedding(obj, "spk_embedding"),
    )
    return record.id, record


def parse_manifest(source, neutral_label: str = "neutral") -> DatasetManifest:
    """Parse a line-delimited manifest from bytes, text, a path, or a stream;
    a malformed record or a duplicate id is a ValueError naming its line."""
    by_id = unique_ids(parse_lines(_coerce_text(source), _parse_record))
    return DatasetManifest(records=tuple(by_id[k] for k in sorted(by_id)),
                           neutral_label=neutral_label)


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
