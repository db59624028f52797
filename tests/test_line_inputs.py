"""The input contract shared by every line-oriented file format.

Blank and whitespace-only lines are skipped wherever they fall, and a fault
on one line exits 1 with a `path: line N:` diagnostic, N the physical line.
Label files and wav lists have no invalid line (any non-blank text is a
label or a path), so for them only the blank-line half is checked.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadsphere import parse_manifest
from vadsphere.cli import _parse_pair, _parse_prosody_line, _parse_vectors, _stripped_lines, run
from vadsphere.manifest import parse_lines, unique_ids
from vadsphere.pipeline import easv_set_from_jsonl
from vadsphere.prosody import track_from_text

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


def _prosody_line(draw, k: int) -> str:
    return json.dumps({"id": f"u{k}", "pitch_mean_hz": draw(st.none() | _finite),
                       "energy_mean": draw(_finite), "duration_s": draw(_finite)})


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
    return e.ids, e.emotions, e.r_iqr.tolist(), e.theta.tolist(), e.phi.tolist()


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
           lambda dim: ("[", '{"id": "x"}', '{"id": "x", "pitch_mean_hz": null, '
                                            '"energy_mean": NaN, "duration_s": 1}'),
           lambda text: unique_ids(parse_lines(text, _parse_prosody_line)),
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
           lambda text: [p for _, p in parse_lines(text, _parse_pair)],
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
