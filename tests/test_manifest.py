import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadsphere import DatasetManifest, UtteranceRecord, VadPoint, parse_manifest, read_wav
from vadsphere.geometry import RowError

from conftest import manifest_of, serialize_manifest, synthetic_manifest, write_wav


def test_parse_single_record():
    line = '{"id":"u1","speaker":"s1","emotion":"neutral","vad":[0.5,0.5,0.5]}'
    manifest = parse_manifest(line)
    assert len(manifest) == 1
    rec = manifest.records[0]
    assert rec.id == "u1"
    assert rec.speaker == "s1"
    assert rec.emotion == "neutral"
    assert rec.vad.as_tuple() == (0.5, 0.5, 0.5)
    assert rec.audio_path is None
    assert rec.emo_embedding is None


def test_parse_sorts_by_id():
    text = ('{"id":"b","speaker":"s","emotion":"happy","vad":[0.5,0.5,0.5]}\n'
            '{"id":"a","speaker":"s","emotion":"happy","vad":[0.5,0.5,0.5]}\n')
    manifest = parse_manifest(text)
    assert [r.id for r in manifest.records] == ["a", "b"]


def test_parse_vad_out_of_range():
    line = '{"id":"u1","speaker":"s","emotion":"happy","vad":[1.2,0,0]}'
    with pytest.raises(ValueError, match=r"^line 1: valence component 1.2 outside \[0, 1\]$"):
        parse_manifest(line)


def test_manifest_rejects_vad_outside_the_cube():
    # the constructor holds the invariant its docstring states, not only the parser
    columns = (("a", "b"), ("s", "s"), ("neutral", "happy"),
               [[0.5, 0.5, 0.5], [1.5, -2.0, 0.5]], (None, None), (None, None), (None, None))
    with pytest.raises(RowError, match=r"^valence component 1.5 outside \[0, 1\]$") as exc:
        DatasetManifest(*columns)
    assert exc.value.row == 1


def test_parse_malformed_line_reports_number():
    text = ('{"id":"u1","speaker":"s","emotion":"happy","vad":[0.5,0.5,0.5]}\n'
            'not json\n')
    with pytest.raises(ValueError, match="line 2"):
        parse_manifest(text)


def test_parse_duplicate_id():
    text = ('{"id":"u1","speaker":"s","emotion":"happy","vad":[0.5,0.5,0.5]}\n'
            '{"id":"u1","speaker":"s","emotion":"sad","vad":[0.4,0.4,0.4]}\n')
    with pytest.raises(ValueError, match="duplicate id 'u1'"):
        parse_manifest(text)


@pytest.mark.parametrize("missing", ["id", "speaker", "emotion", "vad"])
def test_parse_missing_required_key(missing):
    obj = {"id": "u1", "speaker": "s", "emotion": "happy", "vad": [0.5, 0.5, 0.5]}
    del obj[missing]
    import json
    with pytest.raises(ValueError, match=f"^line 1: missing key '{missing}'$"):
        parse_manifest(json.dumps(obj))


def test_parse_ignores_unknown_keys_and_reads_optionals():
    line = ('{"id":"u1","speaker":"s","emotion":"happy","vad":[0.1,0.2,0.3],'
            '"audio_path":"a.wav","emo_embedding":[1,2],"spk_embedding":[3,4,5],'
            '"mystery":42}')
    rec = parse_manifest(line).records[0]
    assert rec.audio_path == "a.wav"
    assert rec.emo_embedding == (1.0, 2.0)
    assert rec.spk_embedding == (3.0, 4.0, 5.0)


def test_parse_accepts_bytes_and_streams():
    line = b'{"id":"u1","speaker":"s","emotion":"happy","vad":[0.1,0.2,0.3]}'
    assert len(parse_manifest(line)) == 1
    assert len(parse_manifest(io.BytesIO(line))) == 1


def test_roundtrip_identity():
    manifest = synthetic_manifest(per_class=25, seed=5)
    again = parse_manifest(serialize_manifest(manifest))
    assert len(again) == len(manifest)
    for a, b in zip(manifest.records, again.records):
        assert a.id == b.id
        assert a.speaker == b.speaker
        assert a.emotion == b.emotion
        assert a.vad.as_tuple() == b.vad.as_tuple()


_unit = st.floats(min_value=0.0, max_value=1.0)
_embedding = st.none() | st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=1, max_size=4).map(tuple)
_record_fields = st.fixed_dictionaries({
    "speaker": st.text(max_size=5),
    "emotion": st.text(max_size=5),
    "vad": st.builds(VadPoint, _unit, _unit, _unit),
    "audio_path": st.none() | st.text(max_size=8),
    "emo_embedding": _embedding,
    "spk_embedding": _embedding,
})


@settings(max_examples=50, deadline=None)
@given(rows=st.dictionaries(st.text(min_size=1, max_size=6), _record_fields, max_size=6))
def test_parse_serialize_round_trip_property(rows):
    manifest = manifest_of(UtteranceRecord(id=rec_id, **fields) for rec_id, fields in rows.items())
    text = serialize_manifest(manifest)
    again = parse_manifest(text)
    assert again == manifest
    assert serialize_manifest(again) == text


@settings(max_examples=50, deadline=None)
@given(rows=st.dictionaries(st.text(min_size=1, max_size=6), _record_fields, max_size=8),
       data=st.data())
def test_columns_match_a_json_reference_property(rows, data):
    lines = []
    for rec_id, fields in rows.items():
        obj = {"id": rec_id, "speaker": fields["speaker"], "emotion": fields["emotion"],
               "vad": list(fields["vad"])}
        for key in ("audio_path", "emo_embedding", "spk_embedding"):
            if fields[key] is not None or data.draw(st.booleans()):  # absent, null or set
                obj[key] = fields[key]
        lines.append(json.dumps(obj))
    lines = data.draw(st.permutations(lines))
    manifest = parse_manifest("\n".join(lines))

    reference = sorted(map(json.loads, lines), key=lambda obj: obj["id"])
    for column, key in ((manifest.ids, "id"), (manifest.speakers, "speaker"),
                        (manifest.emotions, "emotion"), (manifest.audio_paths, "audio_path")):
        assert column == tuple(obj.get(key) for obj in reference)
    assert manifest.vad.tolist() == [obj["vad"] for obj in reference]
    for column, key in ((manifest.emo_embeddings, "emo_embedding"),
                        (manifest.spk_embeddings, "spk_embedding")):
        assert column == tuple(None if obj.get(key) is None else tuple(obj[key])
                               for obj in reference)
    class_rows = manifest.class_rows()
    assert list(class_rows) == list(dict.fromkeys(manifest.emotions))
    assert sorted(np.concatenate([[], *class_rows.values()])) == list(range(len(manifest)))
    for emotion, rows_of_class in class_rows.items():
        assert all(manifest.emotions[i] == emotion for i in rows_of_class)
    assert len(manifest.records) == len(manifest)
    for i, record in enumerate(manifest.records):
        assert record == (manifest.ids[i], manifest.speakers[i], manifest.emotions[i],
                          tuple(manifest.vad[i]), manifest.audio_paths[i],
                          manifest.emo_embeddings[i], manifest.spk_embeddings[i])


def test_class_rows_compare_labels_as_python_text():
    # a numpy text array drops trailing NULs, so "x" and "x\0" would share rows
    point = VadPoint(0.5, 0.5, 0.5)
    manifest = manifest_of([UtteranceRecord("a", "s", "x", point),
                            UtteranceRecord("b", "s", "x\0", point)])
    assert {e: rows.tolist() for e, rows in manifest.class_rows().items()} == {
        "x": [0], "x\0": [1]}


def test_read_wav_mono_identity(tmp_path):
    sr = 22050
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.9, 0.9, sr)
    path = tmp_path / "mono.wav"
    write_wav(path, samples, sr)
    buf = read_wav(path)
    assert buf.sample_rate == sr
    assert buf.samples.size == sr
    assert np.all(np.abs(buf.samples) <= 1.0)


def test_read_wav_stereo_downmix(tmp_path):
    # L = +16384, R = -16384: symmetric frame downmixes to exactly 0
    frames = np.array([16384, -16384, 8192, 8192], dtype="<i2")
    path = tmp_path / "stereo.wav"
    import wave
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(frames.tobytes())
    buf = read_wav(path)
    assert buf.samples.size == 2
    assert buf.samples[0] == 0.0
    assert buf.samples[1] == pytest.approx(8192 / 32768.0)


def test_read_wav_rejects_8bit(tmp_path):
    import wave
    path = tmp_path / "eight.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(8000)
        w.writeframes(bytes([128] * 100))
    with pytest.raises(ValueError, match="unsupported encoding"):
        read_wav(path)


def test_read_wav_samples_bounded(tmp_path):
    # full-scale extremes stay within [-1, 1] after 1/32768 scaling
    extremes = np.array([-32768, 32767, 0], dtype="<i2")
    path = tmp_path / "extremes.wav"
    import wave
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(extremes.tobytes())
    buf = read_wav(path)
    assert np.all(buf.samples >= -1.0)
    assert np.all(buf.samples <= 1.0)
    assert buf.samples[0] == -1.0


def _forty_frame_wav(tmp_path):
    """A 124-byte mono WAV: a 44-byte header and 40 frames of 2 bytes."""
    path = tmp_path / "forty.wav"
    write_wav(path, np.linspace(-0.5, 0.5, 40), 16000)
    data = path.read_bytes()
    assert len(data) == 124 and data[36:40] == b"data"
    return data


def test_read_wav_rejects_data_short_of_its_declared_length(tmp_path):
    data = _forty_frame_wav(tmp_path)
    path = tmp_path / "cut.wav"
    # every cut inside the data, at a frame boundary or not, down to the
    # header alone (which declares 40 frames and holds none)
    for end in range(44, 124):
        path.write_bytes(data[:end])
        where = "mid-frame" if end % 2 else "early"
        with pytest.raises(ValueError, match=f"^unsupported encoding: truncated file, "
                                             f"data ends {where}$"):
            read_wav(path)
    path.write_bytes(data)
    assert read_wav(path).samples.size == 40


def test_read_wav_rejects_placeholder_sizes(tmp_path, monkeypatch):
    # a streaming writer that never went back to fill in its sizes leaves
    # 0xFFFFFFFF in them; the data chunk then declares more than the file holds
    import wave
    requested = []
    readframes = wave.Wave_read.readframes
    monkeypatch.setattr(wave.Wave_read, "readframes",
                        lambda wav, n: requested.append(n) or readframes(wav, n))
    data = _forty_frame_wav(tmp_path)
    unfilled = (0xFFFFFFFF).to_bytes(4, "little")
    path = tmp_path / "streamed.wav"
    for header in (data[:40] + unfilled,
                   data[:4] + unfilled + data[8:40] + unfilled):
        path.write_bytes(header + data[44:])
        with pytest.raises(ValueError, match="^unsupported encoding: truncated file, "
                                             "data ends early$"):
            read_wav(path)
    # the read asks for what the file can hold, not the 4 GB its header declares
    assert requested and max(requested) * 2 <= len(data)


def test_read_wav_rejects_declared_empty_data(tmp_path):
    data = _forty_frame_wav(tmp_path)
    path = tmp_path / "empty-data.wav"
    path.write_bytes(data[:4] + (36).to_bytes(4, "little") + data[8:40] + bytes(4))
    with pytest.raises(ValueError, match="^unsupported encoding: data chunk declares no frames$"):
        read_wav(path)


def test_parse_lines_restores_garbage_collection():
    import gc
    from vadsphere.manifest import parse_lines

    def bad(line):
        raise ValueError("bad")

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert parse_lines("a\n\nb\n", str.upper) == ([1, 3], ["A", "B"])
            with pytest.raises(ValueError, match="^line 3: bad$"):
                parse_lines("\n \nx\n", bad)
            assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
