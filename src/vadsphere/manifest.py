"""Line-oriented input, dataset manifest parsing and WAV loading.

Every line-oriented input format is defined by its per-line parser, run
through ``parse_lines``. Every reader of lines, the column decoders too,
takes them from ``numbered_lines``: blank and whitespace-only lines are
skipped, and lines are numbered from 1. In ``parse_lines`` a fault in one
line is a ValueError reading ``line N: <message>``, or ``line N: missing
key 'k'`` for a KeyError.

Read once, check once: a manifest is first decoded whole into columns by
``_decode_manifest``, which accepts only a strict subset of valid manifests
(non-empty string ids, string labels, ``vad`` three finite JSON numbers) and
gives the same columns on it; any other text goes through ``_parse_record``,
the per-line parser, which defines the accepted syntax and names every
unreadable line. Either path gives (line numbers, columns), on which the
rules over rows run once: a VAD component outside [0, 1], then a duplicate
id (``unique_ids``), each naming its line. The EASV and prosody files the
tool writes (``pipeline.easv_set_from_jsonl``,
``prosody.prosody_set_from_jsonl``) follow the same rule through
``JsonLines``, one declaration of a format's fields from which its writer's
template, its column pattern and its per-line parser are all built; after
either path, a duplicate id and then a value out of range name their line.

Every JSON input (manifest, EASV and prosody lines, model files) is decoded
by ``json_object`` and read through ``label_field``, ``number_field`` and
``number_list``. A number is a JSON number that fits a float and is finite:
``"1.5"`` and ``true`` read ``<key> must be a number``; ``NaN``,
``Infinity``, ``1e400`` and a 401-digit integer read ``<key> must be a
finite number``.

Manifests are UTF-8 text with one JSON object per line. Required keys:
``id`` (non-empty), ``speaker``, ``emotion`` (each a string, or a finite
number read as text), ``vad`` (3-element array in [0, 1]). Optional keys:
``audio_path`` (a string), ``emo_embedding``, ``spk_embedding`` (non-empty
arrays). Unknown keys are ignored. A parsed manifest is a set of columns,
one entry per utterance, sorted by id so downstream aggregation is
deterministic.

WAV support is deliberately narrow: RIFF little-endian, 16-bit signed PCM,
mono or multichannel (downmixed by channel mean). No resampling, no
compressed formats.
"""

from __future__ import annotations

import gc
import io
import json
import math
import re
import wave
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .geometry import RowError, VadPoint, as_points, check_in_cube

INT16_SCALE = 32768.0

# What the JSON decoder makes of a JSON number; compared by type(), as bool is an int
_JSON_NUMBER = frozenset((int, float))


class UtteranceRecord(NamedTuple):
    """One manifest row: identity, labels, VAD triple, optional attachments."""

    id: str
    speaker: str
    emotion: str
    vad: VadPoint
    audio_path: str | None = None
    emo_embedding: tuple[float, ...] | None = None
    spk_embedding: tuple[float, ...] | None = None


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    """Utterances as columns: row i of each is the utterance ids[i].

    ids are unique and sorted. vad is the read-only (n, 3) float array of
    points in the unit cube. A missing audio path or embedding is None.
    Manifests are equal when all their columns are.
    """

    ids: tuple[str, ...]
    speakers: tuple[str, ...]
    emotions: tuple[str, ...]
    vad: np.ndarray
    audio_paths: tuple[str | None, ...]
    emo_embeddings: tuple[tuple[float, ...] | None, ...]
    spk_embeddings: tuple[tuple[float, ...] | None, ...]
    neutral_label: str = "neutral"

    def __post_init__(self) -> None:
        vad = as_points(self.vad).copy()  # a copy, so that no caller can change it
        vad.flags.writeable = False
        object.__setattr__(self, "vad", vad)
        if len({len(self.ids), len(self.speakers), len(self.emotions), len(vad),
                len(self.audio_paths), len(self.emo_embeddings), len(self.spk_embeddings)}) > 1:
            raise ValueError("manifest columns must have one entry per record")
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("manifest ids must be unique and sorted")

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        def columns(m: DatasetManifest) -> tuple:
            return (m.ids, m.speakers, m.emotions, m.vad.tolist(), m.audio_paths,
                    m.emo_embeddings, m.spk_embeddings, m.neutral_label)
        return isinstance(other, DatasetManifest) and columns(self) == columns(other)

    def class_rows(self) -> dict[str, np.ndarray]:
        """Each emotion's row indices, emotions in order of first appearance."""
        rows: dict[str, list[int]] = {}
        for row, emotion in enumerate(self.emotions):  # str ==: numpy text drops trailing NULs
            rows.setdefault(emotion, []).append(row)
        return {emotion: np.array(r) for emotion, r in rows.items()}

    # A row view, kept only because perfbench/checks.py and perfbench/traced.py
    # read records[i].vad, .emotion and .vad.as_tuple(); nothing in the package does.
    @cached_property
    def records(self) -> tuple[UtteranceRecord, ...]:
        return tuple(map(UtteranceRecord, self.ids, self.speakers, self.emotions,
                         map(VadPoint._make, self.vad.tolist()), self.audio_paths,
                         self.emo_embeddings, self.spk_embeddings))

    def class_records(self, emotion: str) -> list[UtteranceRecord]:
        return [r for r in self.records if r.emotion == emotion]

    def neutral_records(self) -> list[UtteranceRecord]:
        return self.class_records(self.neutral_label)


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


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector: a parse keeps all it builds, so
    collections during it would free nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def numbered_lines(text: str) -> tuple[list[int], list[str]]:
    """The lines of `text` that are not blank or whitespace-only, and their
    line numbers, counted from 1: (numbers, lines)."""
    lines = text.splitlines()  # filtered in C, and no (number, line) tuple per line
    stripped = list(map(str.strip, lines))
    return list(compress(count(1), stripped)), list(compress(lines, stripped))


def parse_lines(text: str, parse_line) -> tuple[list[int], list]:
    """The numbered_lines of text, each read by parse_line: (numbers, values).
    A ValueError from parse_line is raised again as `line N: <message>`, and
    a KeyError as `line N: missing key 'k'`."""
    line_nos, lines = numbered_lines(text)
    values = []
    with _collector_paused():
        for line_no, line in zip(line_nos, lines):
            try:
                values.append(parse_line(line))
            except ValueError as exc:
                raise line_error(line_no, exc) from exc
            except KeyError as exc:
                raise line_error(line_no, f"missing key {exc}") from exc
    return line_nos, values


def line_error(line_no: int, message) -> ValueError:
    """The error for a fault found on line `line_no` of an input."""
    return ValueError(f"line {line_no}: {message}")


def unique_ids(line_nos, ids) -> None:
    """Raise a ValueError naming the first line whose id an earlier line has."""
    if len(set(ids)) < len(ids):
        first_seen = dict(zip(reversed(ids), reversed(line_nos)))
        line_no, key = next((n, k) for n, k in zip(line_nos, ids) if first_seen[k] != n)
        raise line_error(line_no, f"duplicate id '{key}' (first seen at line {first_seen[key]})")


def columns_by_line(text: str, parse_line, width: int) -> tuple[list[int], list]:
    """parse_lines(text, parse_line), each line read into a row of `width`
    values, as (line numbers, columns)."""
    line_nos, rows = parse_lines(text, parse_line)
    return line_nos, list(zip(*rows)) if rows else [()] * width


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
    """obj[key] as text: a JSON string or a finite JSON number; null, true, [] or
    {} is no label, and NaN or Infinity no finite number."""
    value = obj[key]
    if type(value) not in (str, int, float):
        raise ValueError(f"{key} must be a string or number")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number")
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


def number_list(values, key: str) -> list[float]:
    """A JSON array of numbers, each by number_field's rule, as floats;
    errors name the array `key`."""
    if type(values) is not list or not _JSON_NUMBER.issuperset(map(type, values)):
        raise ValueError(f"{key} must be an array of numbers")
    try:
        floats = list(map(float, values))
        if all(map(math.isfinite, floats)):
            return floats
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{key} must be a finite number")


# A value as JsonLines writes it and as its column decoder takes it: a string
# of printable ASCII without `"` or `\`, which json.loads reads as itself, or
# a number with a fraction or an exponent, which json.loads reads with float()
# as the decoder does. A bare integer is left to the per-line path: json.loads
# reads -0 as the int 0, so +0.0, where float("-0") is -0.0.
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_VALUE_PATTERNS = {str: r'"([ !#-\[\]-~]*)"', float: f"({_NUMBER})", None: f"(null|{_NUMBER})"}


# Each field kind's reader of one value of a decoded line
_FIELD_READERS = {str: label_field, float: number_field,
                  None: lambda obj, key: math.nan if obj[key] is None else number_field(obj, key)}


class JsonLines:
    """A JSON-lines file the tool writes: one object per line, with the keys
    of `fields` in their order, as json.dumps writes it with its default
    separators. A field is (key, kind): str for text, float for a finite
    number, and None for a finite number or null, held as NaN. `what` names
    a line in a `malformed <what>` fault.

    `write` makes that text from columns, by one template built from the
    fields. `read` takes it back into columns by one pattern built from the
    same fields, when every non-blank line is in the exact form `write`
    gives; any other text goes through `_parse_line`, built from the same
    fields too, which defines the accepted syntax and names every fault.
    """

    def __init__(self, what: str, *fields: tuple[str, type | None]) -> None:
        self.what = what
        self.keys = tuple(key for key, _ in fields)
        self.kinds = tuple(kind for _, kind in fields)
        self._names = [json.dumps(key) for key in self.keys]
        self._template = "{{" + ", ".join(f"{name}: {{}}" for name in self._names) + "}}\n"

    @cached_property
    def _pattern(self) -> re.Pattern:
        # compiled on first use: a process that reads no such file, such as
        # control-vec, does not pay for it
        return re.compile(
            r"^\{" + ", ".join(re.escape(f"{name}: ") + _VALUE_PATTERNS[kind]
                              for name, kind in zip(self._names, self.kinds)) + r"\}$",
            re.MULTILINE)

    def write(self, *columns) -> str:
        """One line per row of `columns`: sequences of str for text fields,
        float arrays for number fields, NaN written null where allowed."""
        texts = []
        for key, kind, column in zip(self.keys, self.kinds, columns):
            if kind is str:
                texts.append(map(encode_basestring_ascii, column))
                continue
            values = np.asarray(column, dtype=np.float64)
            written = values[~np.isnan(values)] if kind is None else values
            if not np.isfinite(written).all():
                raise ValueError(f"{key} {float(written[~np.isfinite(written)][0])} is not finite")
            # repr of a Python float, as json.dumps writes a finite one (numpy 2
            # writes a float64's repr as np.float64(...))
            values = values.tolist()
            texts.append(map(repr, values) if kind is float
                         else ("null" if v != v else repr(v) for v in values))
        return "".join(map(self._template.format, *texts))

    def read(self, text: str, make: Callable):
        """make(*columns) of `text`, one column per field, rows in line order.

        The columns are decoded by the pattern when every non-blank line is
        in the form `write` gives, and by _parse_line otherwise. Then the ids
        (the first field) must be unique, and make must raise no RowError:
        a fault of either kind, as of a line, is a ValueError naming its line.
        """
        line_nos, columns = (self._decode(text)
                             or columns_by_line(text, self._parse_line, len(self.keys)))
        unique_ids(line_nos, columns[0])
        try:
            return make(*columns)
        except RowError as exc:
            raise line_error(line_nos[exc.row], exc) from exc

    def _parse_line(self, line: str) -> tuple:
        """The values of one line, each read by its field's kind."""
        obj = json_object(line, self.what)
        return tuple(_FIELD_READERS[kind](obj, key) for key, kind in zip(self.keys, self.kinds))

    def _decode(self, text: str) -> tuple[list[int], list] | None:
        """The line numbers and columns of `text` when each of its
        numbered_lines is in the form `write` gives, with finite numbers;
        None otherwise."""
        with _collector_paused():
            rows = self._pattern.findall(text)
        # a match is a whole line of printable ASCII, so it is one numbered line
        line_nos = numbered_lines(text)[0]
        if len(rows) != len(line_nos):
            return None
        columns = []
        for kind, column in zip(self.kinds, zip(*rows) if rows else ((),) * len(self.kinds)):
            if kind is not str:
                column = np.array([math.nan if v == "null" else float(v) for v in column]
                                  if kind is None else list(map(float, column)))
                if np.isinf(column).any():  # 1e400; a NaN is only ever a null
                    return None
            columns.append(column)
        return line_nos, columns


_EMBEDDINGS = ("emo_embedding", "spk_embedding")
# a manifest record's fields, in column order
_COLUMNS = ("id", "speaker", "emotion", "vad", "audio_path", *_EMBEDDINGS)


def _parse_record(line: str) -> tuple:
    """The row's column values; the VAD range and the ids are checked over all rows."""
    obj = json_object(line, "record")
    audio_path = obj.get("audio_path")
    if audio_path is not None and type(audio_path) is not str:
        raise ValueError("audio_path must be a string")
    rec_id, speaker, emotion = (label_field(obj, key) for key in ("id", "speaker", "emotion"))
    vad = number_list(obj["vad"], "vad")
    if len(vad) != 3:
        raise ValueError("vad must be a 3-element array")
    embeddings = [None if obj.get(key) is None else tuple(number_list(obj[key], key))
                  for key in _EMBEDDINGS]
    if not rec_id:
        raise ValueError("record id must be non-empty")
    for key, embedding in zip(_EMBEDDINGS, embeddings):
        if embedding == ():
            raise ValueError(f"{key} must have positive dimension when present")
    return rec_id, speaker, emotion, vad, audio_path, *embeddings


def _decode_manifest(text: str) -> tuple[list[int], list] | None:
    """The line numbers and columns of `text` when every record is in the
    strict subset read here: non-empty string ids, string labels, and a list
    of three finite JSON numbers for `vad`. None for anything else, which
    the per-line path then reads or names."""
    line_nos, lines = numbered_lines(text)
    with _collector_paused():
        rows = []
        try:
            for line in lines:
                obj = json.loads(line)
                if type(obj) is not dict:
                    return None
                rows.append(tuple(map(obj.get, _COLUMNS)))  # and the dict is freed
        except (ValueError, RecursionError):
            return None
        ids, speakers, emotions, vads, audio_paths, *raw_embeddings = (
            zip(*rows) if rows else ((),) * len(_COLUMNS))
        del lines, rows
        if (not {str}.issuperset(map(type, ids + speakers + emotions)) or not all(ids)
                or not {str, type(None)}.issuperset(map(type, audio_paths))
                or not {list}.issuperset(map(type, vads)) or not {3}.issuperset(map(len, vads))
                or not _JSON_NUMBER.issuperset(map(type, chain.from_iterable(vads)))):
            return None
        try:
            vad = np.array(vads, dtype=np.float64).reshape(-1, 3)
            embeddings = [[None if values is None else tuple(number_list(values, key))
                           for values in column]
                          for key, column in zip(_EMBEDDINGS, raw_embeddings)]
        except (ValueError, OverflowError):  # OverflowError: an integer beyond the float range
            return None
        # a NaN or an infinity is a fault of its line, for the per-line path to name
        if not np.isfinite(vad).all() or () in embeddings[0] or () in embeddings[1]:
            return None
    return line_nos, [ids, speakers, emotions, vad, audio_paths, *embeddings]


def parse_manifest(source, neutral_label: str = "neutral") -> DatasetManifest:
    """Parse a line-delimited manifest from bytes, text, a path, or a stream;
    a malformed record, then a VAD component outside [0, 1], then a
    duplicate id is a ValueError naming its line."""
    text = _coerce_text(source)
    line_nos, columns = (_decode_manifest(text)
                         or columns_by_line(text, _parse_record, len(_COLUMNS)))
    ids, speakers, emotions, vad, *rest = columns
    vad = as_points(vad)
    try:
        check_in_cube(vad)
    except RowError as exc:
        raise line_error(line_nos[exc.row], exc) from exc
    unique_ids(line_nos, ids)
    order = sorted(range(len(ids)), key=ids.__getitem__)

    def sort(column) -> tuple:
        return tuple(map(column.__getitem__, order))
    return DatasetManifest(sort(ids), sort(speakers), sort(emotions), vad[order],
                           *map(sort, rest), neutral_label=neutral_label)


def read_wav(path) -> AudioBuffer:
    """Load a 16-bit PCM RIFF/WAVE file as mono float64 in [-1, 1].

    Multichannel input is downmixed by the arithmetic channel mean. Anything
    that is not 16-bit PCM is rejected, as is a data chunk that declares no
    frames or holds fewer bytes than it declares: a file cut short anywhere,
    or a streaming writer's unfilled 0xFFFFFFFF size.
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
            # no more frames than the file has bytes for: wave allocates the
            # declared size, 4 GB for an unfilled 0xFFFFFFFF, before it reads
            raw = wav.readframes(min(n_frames, Path(path).stat().st_size // (2 * n_channels)))
    except wave.Error as exc:
        raise ValueError(f"unsupported encoding: {exc}") from exc
    except EOFError:
        raise ValueError("unsupported encoding: truncated file, header ends early") from None
    if n_frames == 0:
        raise ValueError("unsupported encoding: data chunk declares no frames")
    if len(raw) != n_frames * 2 * n_channels:
        where = "mid-frame" if len(raw) % (2 * n_channels) else "early"
        raise ValueError(f"unsupported encoding: truncated file, data ends {where}")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / INT16_SCALE
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return AudioBuffer(samples=data, sample_rate=sample_rate)
