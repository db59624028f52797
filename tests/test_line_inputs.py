"""The input contract shared by every line-oriented file format.

Blank and whitespace-only lines are skipped wherever they fall, and a fault
on one line exits 1 with a `path: line N:` diagnostic, N the physical line.
Label files and wav lists have no invalid line (any non-blank text is a
label or a path), so for them only the blank-line half is checked.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadsphere import cli, manifest, parse_manifest
from vadsphere.cli import (
    _parse_pair,
    _parse_vad_points,
    _parse_vectors,
    _stripped_lines,
    run,
)
from vadsphere.manifest import JsonLines, parse_lines
from vadsphere.pipeline import EasvSet, easv_set_from_jsonl, easv_set_to_jsonl
from vadsphere.prosody import (
    ProsodySet,
    prosody_set_from_jsonl,
    prosody_set_to_jsonl,
    track_from_text,
)

_unit = st.floats(min_value=0.0, max_value=1.0)
_finite = st.floats(min_value=-1e6, max_value=1e6)
_word = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)


def _numbered(draw, make_line, min_size=1, max_size=6) -> list[str]:
    n = draw(st.integers(min_size, max_size))
    return [make_line(draw, k) for k in range(n)]


def _manifest_line(draw, k: int) -> str:
    return json.dumps({"id": f"u{k}", "speaker": draw(_word), "emotion": draw(_word),
                       "vad": [draw(_unit), draw(_unit), draw(_unit)]})


def _easv_line(draw, k: int) -> str:
    return json.dumps({"id": f"u{k}", "emotion": draw(_word), "r_iqr": draw(_unit),
                       "theta": draw(st.floats(0.0, 3.14)),
                       "phi": draw(st.floats(-3.14, 3.14))})


_positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)


def _prosody_line(draw, k: int) -> str:
    return json.dumps({"id": f"u{k}", "pitch_mean_hz": draw(st.none() | _positive),
                       "energy_mean": draw(st.floats(0.0, 1e6)), "duration_s": draw(_positive)})


def _pair_line(draw, k: int) -> str:
    judged = draw(st.sampled_from(["0", "1", "true", "false", "yes", "no"]))
    return f"{draw(_finite)!r} {draw(_finite)!r} {judged}"


def _track_line(draw, k: int) -> str:
    return f"{k} {draw(_finite)!r} {draw(st.sampled_from('01'))} {draw(_unit)!r}"


@dataclass(frozen=True)
class Format:
    name: str
    lines: Callable  # (draw, dim) -> valid non-blank lines
    bad_lines: Callable  # dim -> lines, each invalid wherever it stands
    parse: Callable  # text -> a value that compares with ==
    argv: Callable | None  # (path of the file under test, companion files) -> CLI args


def _vectors(draw, dim):
    return _numbered(draw, lambda d, k: " ".join(repr(d(_finite)) for _ in range(dim)))


def _vectors_value(text):
    return _parse_vectors(text)[1].tolist()


def _easv_value(text):
    e = easv_set_from_jsonl(text)
    return e.ids, e.emotions, e.r_iqr.tobytes(), e.theta.tobytes(), e.phi.tobytes()


def _prosody_value(text):
    p = prosody_set_from_jsonl(text)
    return p.ids, p.pitch_mean_hz.tobytes(), p.energy_mean.tobytes(), p.duration_s.tobytes()


def _track_value(text):
    t = track_from_text(text)
    return t.hop, t.sample_rate, t.f0_hz.tolist(), t.voiced.tolist(), t.periodicity.tolist()


def _track_lines(draw, dim):
    return ["# hop=256", "# sample_rate=16000", *_numbered(draw, _track_line)]


FORMATS = (
    Format("manifest", lambda draw, dim: _numbered(draw, _manifest_line),
           lambda dim: ("not json", "[1, 2]", '{"id": "x", "speaker": "s", "emotion": "e"}',
                        '{"id": "x", "speaker": "s", "emotion": "e", "vad": [1.5, 0, 0]}',
                        '{"id": "", "speaker": "s", "emotion": "e", "vad": [0, 0, 0]}',
                        '{"id": "x", "speaker": "s", "emotion": null, "vad": [0, 0, 0]}'),
           lambda text: parse_manifest(text),
           lambda path, c: ["svas", "--synth", c["vad"], "--ref", c["vad"], "--manifest", path]),
    Format("easv", lambda draw, dim: _numbered(draw, _easv_line),
           lambda dim: ("{", '{"id": "x"}',
                        '{"id": "x", "emotion": "e", "r_iqr": 2, "theta": 0, "phi": 0}'),
           _easv_value,
           lambda path, c: ["analyze", "--easv", path, "--prosody", c["prosody"],
                            "--manifest", c["manifest"]]),
    Format("prosody", lambda draw, dim: _numbered(draw, _prosody_line),
           lambda dim: ("[", '{"id": "x"}', *(
               '{"id": "x", "pitch_mean_hz": %s, "energy_mean": %s, "duration_s": %s}' % values
               for values in (("null", "NaN", "1"), ("-5.0", "0.1", "1.0"), ("0.0", "0.1", "1.0"),
                              ("null", "-1.0", "1.0"), ("100.0", "0.1", "0.0"),
                              ("null", "0.1", "-3")))),
           _prosody_value,
           lambda path, c: ["analyze", "--easv", c["easv"], "--prosody", path,
                            "--manifest", c["manifest"]]),
    Format("vector", _vectors,
           lambda dim: ("abc", " ".join(["nan"] * dim), " ".join(["1"] * (dim - 1) + ["-inf"])),
           _vectors_value,
           lambda path, c: ["metrics", "--emb-a", path, "--emb-b", path]),
    Format("label", lambda draw, dim: _numbered(draw, lambda d, k: d(_word)), lambda dim: (),
           lambda text: _stripped_lines(text, "labels"), None),
    Format("wav-list", lambda draw, dim: _numbered(draw, lambda d, k: f"wavs/{d(_word)}.wav"),
           lambda dim: (),
           lambda text: _stripped_lines(text, "wav paths"), None),
    Format("pairs", lambda draw, dim: _numbered(draw, _pair_line),
           lambda dim: ("0.1 0.2", "0.1 0.2 maybe", "x 0.2 1", "0.1 inf 1"),
           lambda text: parse_lines(text, _parse_pair)[1],
           lambda path, c: ["pair-acc", "--pairs", path]),
    Format("f0-track", _track_lines,
           lambda dim: ("0 abc 1 0.5", "0 100.0 7 0.5", "0 inf 1 0.5", "0 100.0 1", "# hop=0",
                        "# sample_rate=x"),
           _track_value,
           lambda path, c: ["metrics", "--track-a", path, "--track-b", path]),
)


@pytest.fixture(scope="module")
def companions(tmp_path_factory) -> dict[str, str]:
    """Valid files for the inputs a command reads besides the one under test."""
    root = tmp_path_factory.mktemp("companions")
    files = {
        "manifest": '{"id": "u0", "speaker": "s", "emotion": "neutral", "vad": [0.5, 0.5, 0.5]}',
        "easv": '{"id": "u0", "emotion": "neutral", "r_iqr": 0.0, "theta": 0.0, "phi": 0.0}',
        "prosody": '{"id": "u0", "pitch_mean_hz": null, "energy_mean": 0.1, "duration_s": 1.0}',
        "vad": "0.8 0.7 0.6",
    }
    paths = {}
    for name, line in files.items():
        paths[name] = str(root / name)
        (root / name).write_text(line + "\n")
    return paths


def _with_blanks(draw, lines: list[str]) -> tuple[list[str], list[int]]:
    """Lines with blank ones inserted at random; the 1-based position of each original."""
    blank = st.sampled_from(["", " ", "\t", "  \t "])
    out, positions = [], []
    for line in [*lines, None]:
        out += draw(st.lists(blank, max_size=2))
        if line is not None:
            out.append(line)
            positions.append(len(out))
    return out, positions


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("fmt", FORMATS, ids=[f.name for f in FORMATS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_blank_lines_and_line_numbers(fmt, data, companions, tmp_path_factory):
    draw = data.draw
    dim = draw(st.integers(1, 4))
    lines = fmt.lines(draw, dim)
    spaced, positions = _with_blanks(draw, lines)
    assert fmt.parse("\n".join(spaced) + "\n") == fmt.parse("\n".join(lines) + "\n")

    bad_lines = fmt.bad_lines(dim)
    if not bad_lines:
        return
    i = draw(st.integers(0, len(lines) - 1))
    spaced[positions[i] - 1] = draw(st.sampled_from(bad_lines))
    path = tmp_path_factory.mktemp(fmt.name) / "input.txt"
    path.write_text("\n".join(spaced) + "\n")
    code, err = _run(fmt.argv(str(path), companions))
    assert code == 1, err
    assert f"error: {path}: line {positions[i]}: " in err


# --- columns-first decoders against the per-line path ------------------------
#
# Vector files, manifests, EASV and prosody files are decoded whole into
# columns; only input the decoder does not take goes through the per-line
# parser. The tests below turn the decoders off to get the per-line result, and
# require the same values, line numbers, diagnostics and CLI output either way.

_UNICODE_SPACE = ["\t", "\x0b", "\x1f", "\xa0", "\u2000", "\u3000"]
_LINE_BREAK = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
_ODD_NUMBER = ["1_0", "\u0661", "\u0663.5", "\uff11", "nan", "-inf", "Infinity", "1e400",
               "-1e400", "#", "#1", "1#", "0x10", "+3", ".5", "-0", "1e", "abc", "1,2", "\x00"]


@contextlib.contextmanager
def _per_line_only():
    """Turn the columns-first decoders off: every input takes the per-line path."""
    with mock.patch.object(cli, "_decode_vectors", lambda text: None), \
            mock.patch.object(manifest, "_decode_manifest", lambda text: None), \
            mock.patch.object(JsonLines, "_decode", lambda self, text: None):
        yield


def _both_ways(parse, text):
    """parse(text) with the decoders on, then off; a ValueError as its message."""
    def outcome():
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)
    fast = outcome()
    with _per_line_only():
        return fast, outcome()


def _cli_both_ways(argv: list[str]) -> tuple:
    def outcome():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = run(argv)
        return code, out.getvalue(), err.getvalue()
    fast = outcome()
    with _per_line_only():
        return fast, outcome()


@st.composite
def _vector_texts(draw):
    """Rows of equal width, then up to two faults: an odd token, a row one
    token short or long, a blank line; separators and line breaks vary."""
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_finite.map(repr) | st.integers(-99, 99).map(str),
                                  min_size=dim, max_size=dim), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        fault = draw(st.sampled_from(["token", "short", "long", "blank"]))
        if fault == "blank" or at == len(rows):
            rows.insert(at, [draw(st.sampled_from(["", " ", "\t", "\xa0 ", "\u3000"]))])
        elif fault == "token":
            rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(st.sampled_from(_ODD_NUMBER))
        elif fault == "short":
            rows[at] = rows[at][1:] or ["1", "2"]
        else:
            rows[at] = rows[at] + ["1"]
    gap = st.sampled_from([" "] * 4 + ["  ", *_UNICODE_SPACE])
    lines = [draw(st.sampled_from(["", "", " ", "\t"]))
             + "".join(token + draw(gap) for token in row) for row in rows]
    text = "".join(line + draw(st.sampled_from(["\n"] * 4 + _LINE_BREAK)) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def _assert_vectors_same_both_ways(text: str, path: Path) -> None:
    """The decoded vector and VAD files, and the CLI's output, equal the per-line path's."""
    for parse in (_parse_vectors, _parse_vad_points):
        fast, slow = _both_ways(parse, text)
        if isinstance(slow, str):
            assert fast == slow
        else:
            (fast_lines, fast_arr), (slow_lines, slow_arr) = fast, slow
            assert fast_lines.tolist() == slow_lines.tolist()
            assert fast_arr.shape == slow_arr.shape
            assert fast_arr.tobytes() == slow_arr.tobytes()
    path.write_bytes(text.encode("utf-8"))
    for argv in (["metrics", "--emb-a", str(path), "--emb-b", str(path)],
                 ["svas", "--synth", str(path), "--ref", str(path), "--center", "0.5,0.5,0.4"]):
        fast, slow = _cli_both_ways(argv)
        assert fast == slow


@pytest.fixture(scope="module")
def input_path(tmp_path_factory) -> Path:
    """One file path, rewritten by each example."""
    return tmp_path_factory.mktemp("decoders") / "input.txt"


@settings(max_examples=200, deadline=None)
@given(text=_vector_texts())
def test_vector_decoder_matches_per_line_path(text, input_path):
    _assert_vectors_same_both_ways(text, input_path)


@pytest.mark.parametrize("token", _ODD_NUMBER)
def test_vector_decoder_matches_per_line_path_on_each_odd_token(token, tmp_path):
    for text in (f"{token}\n", f"0.5 0.25 0.5\n\n0.5 {token} 0.5\n0.1 0.2 0.3\n"):
        _assert_vectors_same_both_ways(text, tmp_path / "input.txt")


_BIG = 10 ** 401  # a JSON integer beyond the float range
# (key, odd value): each replaces one field of one record; "dup" repeats another id
_MANIFEST_FAULTS = [
    *(("id", v) for v in ("", 3, True, None, _BIG, "dup")),
    *((key, v) for key in ("speaker", "emotion") for v in (3, -2.5, True, None, [], _BIG)),
    *(("vad", v) for v in ([0.5, 0.5], [0.5] * 4, [True, 0.5, 0.5], ["0.5", 0, 0],
                           [_BIG, 0, 0], [1.5, 0, 0], [0, -0.5, 0], [0, 0, 2],
                           [float("nan"), 0, 0], None, "0.5")),
    *(("audio_path", v) for v in (1, [], True)),
    *((key, v) for key in ("emo_embedding", "spk_embedding")
      for v in ([], [True], ["1"], [_BIG], [float("inf")], 1, "x")),
]


@st.composite
def _manifest_texts(draw):
    """Valid records, then up to two faults: an odd field value, a missing
    key, or a line that is no JSON object; in any order, line breaks vary."""
    label = st.sampled_from(["neutral", "happy", "sad", "é", "x\x00"])
    embedding = st.none() | st.lists(_finite, min_size=1, max_size=3)
    records = []
    for k in range(draw(st.integers(0, 5))):
        obj = {"id": f"u{k}", "speaker": draw(label), "emotion": draw(label),
               "vad": list(draw(st.tuples(_unit, _unit.map(lambda x: round(x, 3)),
                                          st.sampled_from([0, 1, 0.5]))))}
        for key, value in (("audio_path", st.sampled_from(["a.wav", None])),
                           ("emo_embedding", embedding), ("spk_embedding", embedding)):
            if draw(st.booleans()):
                obj[key] = draw(value)
        records.append(obj)
    lines = [json.dumps(obj) for obj in records]
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        at = draw(st.integers(0, len(records) - 1))
        fault = draw(st.sampled_from(["field"] * 4 + ["missing", "line"]))
        if fault == "field":
            key, value = draw(st.sampled_from(_MANIFEST_FAULTS))
            # an earlier fault may have deleted the id this one repeats
            records[at][key] = records[at - 1].get("id", "") if value == "dup" else value
            lines[at] = json.dumps(records[at])
        elif fault == "missing" and (present := [key for key in ("id", "speaker", "emotion", "vad")
                                                 if key in records[at]]):
            del records[at][draw(st.sampled_from(present))]
            lines[at] = json.dumps(records[at])
        else:
            lines[at] = draw(st.sampled_from(["not json", "[1, 2]", "null", "{"]))
    lines = draw(st.permutations(lines))  # ids out of order
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    return "".join(line + draw(st.sampled_from(["\n"] * 4 + _LINE_BREAK)) for line in lines)


def _assert_manifest_same_both_ways(text: str, path: Path, companions) -> None:
    """The parsed manifest, and the CLI's output, equal the per-line path's."""
    fast, slow = _both_ways(parse_manifest, text)
    assert fast == slow
    if not isinstance(slow, str):
        assert fast.vad.tobytes() == slow.vad.tobytes()
    path.write_bytes(text.encode("utf-8"))
    fast, slow = _cli_both_ways(["svas", "--synth", companions["vad"], "--ref", companions["vad"],
                                 "--manifest", str(path)])
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(text=_manifest_texts())
def test_manifest_decoder_matches_per_line_path(text, input_path, companions):
    _assert_manifest_same_both_ways(text, input_path, companions)


@pytest.mark.parametrize("key, value", [*_MANIFEST_FAULTS, *(
    ("missing", key) for key in ("id", "speaker", "emotion", "vad"))])
def test_manifest_decoder_matches_per_line_path_on_each_fault(key, value, tmp_path, companions):
    records = [{"id": f"u{k}", "speaker": "s", "emotion": emotion, "vad": [0.5, 0.25, 1]}
               for k, emotion in enumerate(["neutral", "happy", "neutral"])]
    if key == "missing":
        del records[1][value]
    else:
        records[1][key] = records[0]["id"] if value == "dup" else value
    text = "".join(json.dumps(obj) + "\n" for obj in records)
    _assert_manifest_same_both_ways(text, tmp_path / "manifest.jsonl", companions)


# --- EASV and prosody files: the tool's own lines by column ------------------
#
# The column decoder takes only the exact lines the writer emits. Any other
# line form (keys reordered, other separators, escapes, integer literals, CRLF,
# a raw U+2028 in an id), every fault and every duplicate id is left to the
# per-line parser, so values, order and diagnostics are the same either way.

# (low, high) of each number field's valid values; an id and a label are text
_EASV_FIELDS = {"id": None, "emotion": None, "r_iqr": (0.0, 1.0), "theta": (0.0, 3.14),
                "phi": (-3.14, 3.14)}
_PROSODY_FIELDS = {"id": None, "pitch_mean_hz": (50.0, 400.0), "energy_mean": (0.0, 1.0),
                   "duration_s": (0.1, 10.0)}
# number texts: integers (json.loads reads -0 as the int 0, so +0.0, where
# float("-0") is -0.0), a leading zero, beyond the float range, a 401-digit
# integer, non-finite literals, other types, out of every field's range; and
# forms the decoder does take
_ODD_NUMBERS = ["0", "-0", "12", "00.5", "1e400", "-1e400", str(_BIG), "NaN", "Infinity",
                "-Infinity", "true", '"1.5"', "null", "-5.0", "0.0", "-0.0", "1E2", "2.5e-3",
                "7.0"]
_IDS = ["u", "\u00e9", 'q"', "a\\b", "x y", "\u2028", "\x7f", "\x01"]


@st.composite
def _json_lines_texts(draw, fields: dict):
    """Lines as the writer emits them, then up to two changes: another valid
    form of a line (keys reordered, other separators, an id with other
    characters or escapes), an odd number, a repeated id, a missing key or no
    JSON object; blank lines and line breaks vary."""
    records = []
    for k in range(draw(st.integers(0, 5))):
        record = {"id": f'"u{k}"'}
        for key, bounds in list(fields.items())[1:]:
            record[key] = (json.dumps(draw(st.sampled_from(["neutral", "happy"])))
                           if bounds is None else repr(draw(st.floats(*bounds))))
        if "pitch_mean_hz" in record and draw(st.booleans()):
            record["pitch_mean_hz"] = "null"
        records.append(record)
    forms = [(", ", ": ", False)] * len(records)  # (item separator, colon, keys reversed)
    lines = [None] * len(records)
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        at = draw(st.integers(0, len(records) - 1))
        change = draw(st.sampled_from(["number"] * 3 + ["id"] * 2 + [
            "repeat", "reordered", "compact", "spaced", "missing", "no object"]))
        record = records[at]
        if change == "number":
            record[draw(st.sampled_from(list(record)[2 if "emotion" in record else 1:]))] = (
                draw(st.sampled_from(_ODD_NUMBERS)))
        elif change == "id":
            rec_id = draw(st.sampled_from(_IDS)) + str(at)
            escape = draw(st.sampled_from(["ascii", "unicode", "none"]))  # a raw \x01 is no JSON
            record["id"] = (f'"{rec_id}"' if escape == "none"
                            else json.dumps(rec_id, ensure_ascii=escape == "ascii"))
        elif change == "repeat":  # an earlier change may have deleted the id it repeats
            record["id"] = records[at - 1].get("id", '"u0"')
        elif change == "missing":
            del record[draw(st.sampled_from(list(record)))]
        elif change == "no object":
            lines[at] = draw(st.sampled_from(["{", "[1]", "not json"]))
        else:
            forms[at] = {"reordered": (", ", ": ", True), "compact": (",", ":", False),
                         "spaced": (" ,  ", " :", False)}[change]
    for at, (record, (item, colon, reverse)) in enumerate(zip(records, forms)):
        pairs = list(record.items())[::-1 if reverse else 1]
        if lines[at] is None:
            lines[at] = "{" + item.join(f'"{key}"{colon}{text}' for key, text in pairs) + "}"
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    breaks = st.sampled_from(["\n"] * 20 + ["\r\n", "\r", "\u2028"])
    text = "".join(line + draw(breaks) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def _columns(value) -> list:
    """An EasvSet's or ProsodySet's columns: text as tuples, numbers as bytes."""
    columns = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return [c.tobytes() if isinstance(c, np.ndarray) else tuple(c) for c in columns]


def _assert_json_lines_same_both_ways(read, text: str, argv: list[str], path: Path) -> None:
    """The columns read, or the diagnostic, and the CLI's output equal the per-line path's."""
    fast, slow = _both_ways(read, text)
    if isinstance(fast, str) or isinstance(slow, str):
        assert fast == slow
    else:
        assert _columns(fast) == _columns(slow)
    path.write_bytes(text.encode("utf-8"))
    fast, slow = _cli_both_ways(argv)
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(text=_json_lines_texts(_EASV_FIELDS))
def test_easv_decoder_matches_per_line_path(text, input_path, companions):
    _assert_json_lines_same_both_ways(
        easv_set_from_jsonl, text, ["analyze", "--easv", str(input_path), "--prosody",
                                    companions["prosody"], "--manifest", companions["manifest"]],
        input_path)


@settings(max_examples=200, deadline=None)
@given(text=_json_lines_texts(_PROSODY_FIELDS))
def test_prosody_decoder_matches_per_line_path(text, input_path, companions):
    _assert_json_lines_same_both_ways(
        prosody_set_from_jsonl, text, ["analyze", "--easv", companions["easv"], "--prosody",
                                        str(input_path), "--manifest", companions["manifest"]],
        input_path)


_TWO_LINES = {"easv": '{"id": "u0", "emotion": "happy", "r_iqr": 0.5, "theta": 1.0, "phi": 0.5}',
              "prosody": '{"id": "u0", "pitch_mean_hz": 100.0, "energy_mean": 0.1, '
                         '"duration_s": 1.0}'}
# (format, key, value text): each takes the place of one value of a second line
_ODD_VALUES = [
    *((fmt, "id", text) for fmt in _TWO_LINES for rec_id in _IDS
      for text in (json.dumps(rec_id), json.dumps(rec_id, ensure_ascii=False), f'"{rec_id}"')),
    *((fmt, key, number) for fmt, fields in (("easv", _EASV_FIELDS), ("prosody", _PROSODY_FIELDS))
      for key, bounds in fields.items() if bounds is not None for number in _ODD_NUMBERS),
]


@pytest.mark.parametrize("fmt, key, text", _ODD_VALUES)
def test_json_lines_decoders_match_per_line_path_on_each_value(fmt, key, text):
    first = _TWO_LINES[fmt]
    second = json.dumps({**json.loads(first), "id": "u1", key: None}).replace("null", text)
    fast, slow = _both_ways(easv_set_from_jsonl if fmt == "easv" else prosody_set_from_jsonl,
                            f"{first}\n{second}\n")
    if isinstance(fast, str) or isinstance(slow, str):
        assert fast == slow
    else:
        assert _columns(fast) == _columns(slow)


_MANIFEST_LINE = '{"id": "u0", "speaker": "s", "emotion": "happy", "vad": [0.5, 0.25, 1.0]}'
# (reader, first line, the second line's changes, the fault that names line 3)
_ROW_RULES = [
    (read, first, {"id": "u0"}, "duplicate id 'u0' (first seen at line 1)")
    for read, first in ((easv_set_from_jsonl, _TWO_LINES["easv"]),
                        (prosody_set_from_jsonl, _TWO_LINES["prosody"]),
                        (parse_manifest, _MANIFEST_LINE))
] + [
    (easv_set_from_jsonl, _TWO_LINES["easv"], {"id": "u1", "r_iqr": 1.5},
     "r_iqr 1.5 outside [0, 1]"),
    (prosody_set_from_jsonl, _TWO_LINES["prosody"], {"id": "u1", "duration_s": -1.0},
     "duration_s -1.0 must be positive"),
    (parse_manifest, _MANIFEST_LINE, {"id": "u1", "vad": [0.5, 1.5, 0.0]},
     "arousal component 1.5 outside [0, 1]"),
]


@pytest.mark.parametrize("read, first, changes, fault", _ROW_RULES,
                         ids=[f"{r[0].__name__}-{r[3].split()[0]}" for r in _ROW_RULES])
def test_rules_over_rows_run_once_after_the_column_path(read, first, changes, fault):
    """A duplicate id, an EASV or prosody value out of range and a VAD point
    outside the cube are checked on the columns, whichever path read them:
    the column path names the line as the per-line path does, and reads no
    line a second time to do so."""
    text = f"{first}\n\n{json.dumps({**json.loads(first), **changes})}\n"
    assert _both_ways(read, text) == (f"line 3: {fault}",) * 2

    def no_per_line_pass(*args):
        raise AssertionError("per-line parser called")
    with mock.patch.object(JsonLines, "_parse_line", no_per_line_pass), \
            mock.patch.object(manifest, "_parse_record", no_per_line_pass), \
            pytest.raises(ValueError, match=f"^line 3: {re.escape(fault)}$"):
        read(text)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.text(max_size=4), _unit, st.floats(0.0, 3.14),
                               st.floats(-3.14, 3.14), st.none() | _positive,
                               st.floats(0.0, 1e6), _positive), max_size=6))
def test_writers_emit_json_dumps_lines(rows):
    """Each line is json.dumps of the record, byte for byte, and reads back."""
    ids = [f"{text}{k}" for k, (text, *_) in enumerate(rows)]
    easvs = EasvSet(ids, ["happy"] * len(rows), *(np.array([r[i] for r in rows], dtype=float)
                                                  for i in (1, 2, 3)))
    text = easv_set_to_jsonl(easvs)
    assert text == "".join(json.dumps({"id": i, "emotion": "happy", "r_iqr": r[1],
                                       "theta": r[2], "phi": r[3]}) + "\n"
                           for i, r in zip(ids, rows))
    assert _columns(easv_set_from_jsonl(text)) == _columns(easvs)
    prosody = ProsodySet(ids, [math.nan if r[4] is None else r[4] for r in rows],
                         [r[5] for r in rows], [r[6] for r in rows])
    text = prosody_set_to_jsonl(prosody)
    assert text == "".join(json.dumps({"id": i, "pitch_mean_hz": r[4], "energy_mean": r[5],
                                       "duration_s": r[6]}) + "\n"
                           for i, r in zip(ids, rows))
    assert _columns(prosody_set_from_jsonl(text)) == _columns(prosody)


def test_json_lines_writer_refuses_non_finite_numbers():
    lines = JsonLines("record", ("id", str), ("pitch", None), ("energy", float))
    assert lines.write(["a"], [math.nan], [0.5]) == '{"id": "a", "pitch": null, "energy": 0.5}\n'
    for pitch, energy, message in ((math.inf, 0.5, "pitch inf"), (1.0, math.nan, "energy nan"),
                                   (1.0, -math.inf, "energy -inf")):
        with pytest.raises(ValueError, match=f"^{message} is not finite$"):
            lines.write(["a"], [pitch], [energy])


def _load_workloads():
    """perfbench/workloads.py, the generator of the benchmark's inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("workload", ["vad-corpus", "many-emotions", "audio-prosody"])
def test_benchmark_inputs_take_no_per_line_pass(workload, tmp_path, monkeypatch):
    """The benchmark's manifests, vector files, and the EASV and prosody files
    `analyze` reads decode by column: were they to fall back to the per-line
    parsers, their speed-up would be lost unseen."""
    workloads = _load_workloads()
    inputs = workloads.generate(workloads.WORKLOADS[workload].scaled(0.002), 1, tmp_path)

    def no_per_line_pass(*args):
        raise AssertionError("per-line parser called")
    for owner, name in ((cli, "_parse_vector"), (manifest, "_parse_record"),
                        (JsonLines, "_parse_line")):
        monkeypatch.setattr(owner, name, no_per_line_pass)
    m, easv, prosody = str(inputs.manifest), tmp_path / "easv.jsonl", tmp_path / "prosody.jsonl"
    assert run(["fit", "--manifest", m, "--out", str(tmp_path / "model.json")]) == 0
    assert run(["extract", "--manifest", m, "--model", str(tmp_path / "model.json"),
                "--out", str(easv)]) == 0
    if inputs.prosody_for_analyze is None:  # analyze reads what `prosody` writes
        assert inputs.wav_list is None
        assert run(["prosody", "--manifest", m, "--out", str(prosody)]) == 0
    else:
        prosody = inputs.prosody_for_analyze
    easvs = easv_set_from_jsonl(easv.read_text(encoding="utf-8"))
    assert len(easvs) == inputs.n_records
    assert sorted(prosody_set_from_jsonl(prosody.read_text(encoding="utf-8")).ids) == sorted(
        easvs.ids)
    assert run(["analyze", "--easv", str(easv), "--prosody", str(prosody), "--manifest", m,
                "--out", str(tmp_path / "report.md")]) == 0
    assert len(parse_manifest(inputs.manifest)) == inputs.n_records
    for path in (inputs.emb_a, inputs.emb_b, inputs.speaker_emb, inputs.emotion_emb):
        _, arr = _parse_vectors(path.read_text(encoding="utf-8"))
        assert arr.tolist() == workloads.load_matrix(path).tolist()
    for path in (inputs.svas_synth, inputs.svas_ref):
        _, arr = _parse_vad_points(path.read_text(encoding="utf-8"))
        assert arr.tolist() == workloads.load_matrix(path).tolist()
