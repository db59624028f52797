import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadsphere import (
    DatasetManifest,
    UtteranceRecord,
    VadPoint,
    parse_manifest,
    read_wav,
    serialize_manifest,
)

from conftest import synthetic_manifest, write_wav


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
    manifest = DatasetManifest(records=tuple(
        UtteranceRecord(id=rec_id, **fields) for rec_id, fields in sorted(rows.items())))
    text = serialize_manifest(manifest)
    again = parse_manifest(text)
    assert again == manifest
    assert serialize_manifest(again) == text


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


def test_parse_lines_restores_garbage_collection():
    import gc
    from vadsphere.manifest import parse_lines

    def bad(line):
        raise ValueError("bad")

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert parse_lines("a\n\nb\n", str.upper) == [(1, "A"), (3, "B")]
            with pytest.raises(ValueError, match="^line 3: bad$"):
                parse_lines("\n \nx\n", bad)
            assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
