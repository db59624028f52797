import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadsphere import (
    AudioBuffer,
    F0Config,
    F0Track,
    align_tracks,
    estimate_f0,
    f1_vuv,
    frame_energy,
    rmse_f0,
    rmse_period,
    utterance_prosody,
)
from vadsphere import _kernels, prosody
from vadsphere.prosody import _F0_BLOCK, _cmndf, _select_lags, track_from_text

from conftest import sine_samples, track_to_text

SR = 22050


def _audio(samples, sr=SR):
    return AudioBuffer(samples=np.asarray(samples, dtype=np.float64), sample_rate=sr)


def test_frame_energy_constant():
    audio = _audio(np.full(1024, 0.5))
    energy = frame_energy(audio, window=1024, hop=256)
    assert energy.shape == (1,)
    assert energy[0] == pytest.approx(0.5)


def test_frame_energy_silence():
    audio = _audio(np.zeros(4096))
    energy = frame_energy(audio, window=1024, hop=256)
    assert np.all(energy == 0.0)


def test_frame_energy_sine_rms():
    audio = _audio(sine_samples(220, 1.0, SR, amplitude=1.0))
    energy = frame_energy(audio, window=1024, hop=256)
    assert np.abs(energy - 1.0 / math.sqrt(2.0)).max() < 1e-2


def test_frame_energy_count_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(64, 5000))
        window = int(rng.integers(16, 64))
        hop = int(rng.integers(1, window + 1))
        audio = _audio(rng.uniform(-1, 1, n))
        frames = frame_energy(audio, window=window, hop=hop)
        assert len(frames) == (n - window) // hop + 1


def test_frame_energy_too_short():
    with pytest.raises(ValueError, match="shorter than one window"):
        frame_energy(_audio(np.zeros(100)), window=1024, hop=256)


def test_estimate_f0_pure_tone():
    track = estimate_f0(_audio(sine_samples(220, 1.0)))
    assert track.voiced.all()
    assert np.abs(track.f0_hz[track.voiced] - 220.0).mean() < 2.0


def test_estimate_f0_silence_unvoiced():
    track = estimate_f0(_audio(np.zeros(2 * SR)))
    assert not track.voiced.any()
    assert np.all(track.f0_hz == 0.0)


def test_estimate_f0_white_noise_mostly_unvoiced():
    rng = np.random.default_rng(123)
    track = estimate_f0(_audio(rng.uniform(-0.5, 0.5, SR)))
    assert track.voiced.mean() < 0.20


def test_estimate_f0_deterministic():
    samples = sine_samples(173.0, 0.6)
    a = estimate_f0(_audio(samples))
    b = estimate_f0(_audio(samples))
    assert np.array_equal(a.f0_hz, b.f0_hz)
    assert np.array_equal(a.voiced, b.voiced)
    assert np.array_equal(a.periodicity, b.periodicity)


def test_estimate_f0_track_invariants():
    track = estimate_f0(_audio(sine_samples(110, 0.5)))
    cfg = F0Config()
    voiced_f0 = track.f0_hz[track.voiced]
    assert np.all((voiced_f0 >= cfg.f_min) & (voiced_f0 <= cfg.f_max))
    assert np.all(track.f0_hz[~track.voiced] == 0.0)
    assert np.all((track.periodicity >= 0.0) & (track.periodicity <= 1.0))


def _scalar_lag(row, tau_min, threshold):
    """One frame, one lag at a time: the reference lag search for _select_lags."""
    tau_max = len(row) - 1
    for cand in range(tau_min, tau_max + 1):
        if row[cand] < threshold:
            tau = cand
            while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
                tau += 1
            return tau
    return tau_min + int(np.argmin(row[tau_min:tau_max + 1]))


_THRESHOLD = 0.15
_LEVELS = st.sampled_from([0.0, 0.05, 0.1, 0.149, 0.15, 0.151, 0.3, 1.0])
_ABOVE = st.floats(_THRESHOLD, 2.0)


@st.composite
def _cmndf_rows(draw):
    """(rows of d', tau_min): ties and plateaus, no dip, a dip falling to
    tau_max, or a dip followed by NaN, which ends the walk (NaN < x is false)."""
    n_lags = draw(st.integers(3, 40))
    tau_min = draw(st.integers(2, n_lags - 1))
    rows = []
    kinds = ["levels", "no_dip", "to_tau_max"] + (["nan"] if tau_min < n_lags - 1 else [])
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        if kind == "levels":
            row = draw(st.lists(_LEVELS, min_size=n_lags, max_size=n_lags))
        elif kind == "no_dip":
            row = draw(st.lists(_ABOVE, min_size=n_lags, max_size=n_lags))
        elif kind == "nan":
            start = draw(st.integers(tau_min, n_lags - 2))
            rest = n_lags - start - 2
            row = draw(st.lists(_ABOVE, min_size=start, max_size=start))
            row += [draw(st.floats(0.0, _THRESHOLD, exclude_max=True)), math.nan]
            row += draw(st.lists(_LEVELS | st.just(math.nan), min_size=rest, max_size=rest))
        else:
            start = draw(st.integers(tau_min, n_lags - 1))
            tail = draw(st.lists(st.floats(0.0, _THRESHOLD, exclude_max=True),
                                 min_size=n_lags - start, max_size=n_lags - start,
                                 unique=True))
            row = draw(st.lists(_ABOVE, min_size=start, max_size=start))
            row += sorted(tail, reverse=True)
        rows.append(row)
    return np.array(rows), tau_min


@settings(max_examples=300, deadline=None)
@given(case=_cmndf_rows())
def test_select_lags_matches_scalar_search_property(case):
    cm, tau_min = case
    expected = [_scalar_lag(row, tau_min, _THRESHOLD) for row in cm]
    assert _select_lags(cm, tau_min, _THRESHOLD).tolist() == expected


def _whole_utterance_f0(audio, cfg=F0Config()):
    """(f0, voiced, periodicity) from one yin_difference over every frame of
    the utterance: the unblocked reference for estimate_f0."""
    sr = audio.sample_rate
    tau_min = max(2, int(math.floor(sr / cfg.f_max)))
    tau_max = int(math.ceil(sr / cfg.f_min))
    frames = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(
        audio.samples, cfg.window + tau_max)[::cfg.hop])
    cm = _cmndf(_kernels.yin_difference(frames, cfg.window, tau_max))
    tau = _select_lags(cm, tau_min, cfg.aperiodicity_threshold)
    rows = np.arange(len(cm))
    aperiodicity = np.clip(cm[rows, tau], 0.0, 1.0)
    y0, y1, y2 = cm[rows, tau - 1], cm[rows, tau], cm[rows, np.minimum(tau + 1, tau_max)]
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(invalid="ignore", divide="ignore"):
        shift = np.where((tau < tau_max) & (denom != 0.0), 0.5 * (y0 - y2) / denom, 0.0)
    refined = np.clip(tau + shift, tau_min, tau_max)
    voiced = aperiodicity < cfg.aperiodicity_threshold
    f0 = np.where(voiced, np.clip(sr / refined, cfg.f_min, cfg.f_max), 0.0)
    return f0, voiced, 1.0 - aperiodicity


# a block size well under _F0_BLOCK, so that short utterances already span
# several blocks; frame counts are taken around both block sizes
_SMALL_BLOCK = 48
_BLOCKS = (_SMALL_BLOCK, _F0_BLOCK)


@pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100, 48000])
@pytest.mark.parametrize("n_frames", sorted({1, *(b + d for b in _BLOCKS for d in (-1, 0, 1)),
                                             *(3 * b + 5 for b in _BLOCKS)}))
def test_estimate_f0_blocks_match_whole_utterance(monkeypatch, sr, n_frames):
    cfg = F0Config()
    n = cfg.window + math.ceil(sr / cfg.f_min) + (n_frames - 1) * cfg.hop
    tone, silence = (4 * n) // 10, (3 * n) // 10
    samples = np.concatenate([
        sine_samples(220.0, tone / sr, sr)[:tone], np.zeros(silence),
        np.random.default_rng(n_frames).uniform(-0.5, 0.5, n - tone - silence)])
    audio = _audio(samples, sr)
    f0, voiced, periodicity = _whole_utterance_f0(audio, cfg)
    for block in _BLOCKS:
        monkeypatch.setattr(prosody, "_F0_BLOCK", block)
        track = estimate_f0(audio, cfg)
        assert len(track) == n_frames
        assert np.array_equal(track.voiced, voiced)
        assert np.abs(track.f0_hz - f0).max() <= 1e-9
        assert np.abs(track.periodicity - periodicity).max() <= 1e-12
        if n_frames > block:  # the signal crosses voiced and unvoiced blocks
            assert voiced.any() and not voiced.all()


def _tone_silence_noise(n, sr, seed):
    """n samples: 40% 220 Hz tone, 30% silence, then noise."""
    tone, silence = (4 * n) // 10, (3 * n) // 10
    return np.concatenate([
        sine_samples(220.0, tone / sr, sr)[:tone], np.zeros(silence),
        np.random.default_rng(seed).uniform(-0.5, 0.5, n - tone - silence)])


# (window, hop, frames): windows that are no multiple of the hop, hop ==
# window, and hop 1, whose sub-windows span several hops
_CONFIGS = [*((w, h, 3 * b + 5) for b in _BLOCKS for w, h in ((1000, 300), (777, 100))),
            *((1024, h, 2 * b + 3) for b in _BLOCKS for h in (1024, 1000)),
            (1024, 1, 700)]


@pytest.mark.parametrize("sr", [8000, 16000, 48000])
@pytest.mark.parametrize("window, hop, n_frames", _CONFIGS)
def test_estimate_f0_sub_windows_match_whole_frames(monkeypatch, sr, window, hop, n_frames):
    cfg = F0Config(window=window, hop=hop)
    n = window + math.ceil(sr / cfg.f_min) + (n_frames - 1) * hop
    audio = _audio(_tone_silence_noise(n, sr, n_frames), sr)
    f0, voiced, periodicity = _whole_utterance_f0(audio, cfg)
    assert voiced.any() and not voiced.all()
    for block in _BLOCKS:
        monkeypatch.setattr(prosody, "_F0_BLOCK", block)
        track = estimate_f0(audio, cfg)
        assert len(track) == n_frames
        assert np.array_equal(track.voiced, voiced)
        assert np.abs(track.f0_hz - f0).max() <= 1e-9
        assert np.abs(track.periodicity - periodicity).max() <= 1e-12


@pytest.mark.parametrize("window, hop, n_frames",
                         [*((1024, 256, 3 * b + 5) for b in _BLOCKS), *_CONFIGS])
def test_estimate_f0_does_not_depend_on_the_block_size(monkeypatch, window, hop, n_frames):
    # a frame's sub-window rows can fall in two blocks, or in more
    cfg = F0Config(window=window, hop=hop)
    n = window + math.ceil(16000 / cfg.f_min) + (n_frames - 1) * hop
    audio = _audio(_tone_silence_noise(n, 16000, n_frames), 16000)
    tracks = []
    for block in (1, 7, *_BLOCKS, 10 ** 6):
        monkeypatch.setattr(prosody, "_F0_BLOCK", block)
        track = estimate_f0(audio, cfg)
        tracks.append((track.f0_hz.tobytes(), track.voiced.tobytes(),
                       track.periodicity.tobytes()))
    assert tracks.count(tracks[0]) == len(tracks)


@pytest.mark.parametrize("window, hop", [(1024, 256), (1000, 300), (777, 100), (1024, 1)])
@pytest.mark.parametrize("block", [1, 7, _SMALL_BLOCK, _F0_BLOCK, 10 ** 6])
def test_estimate_f0_computes_each_row_once(monkeypatch, window, hop, block):
    cfg = F0Config(window=window, hop=hop)
    n_frames = 3 * _SMALL_BLOCK + 5
    n = window + math.ceil(16000 / cfg.f_min) + (n_frames - 1) * hop
    audio = _audio(_tone_silence_noise(n, 16000, n_frames), 16000)
    step, terms, rest = prosody._sub_windows(window, hop)
    span = (terms - 1) * step
    calls = []  # (rows, window) of each yin_difference call
    kernel = _kernels.yin_difference

    def recorder(frames, length, tau_max):
        calls.append((len(frames), length))
        return kernel(frames, length, tau_max)

    monkeypatch.setattr(_kernels, "yin_difference", recorder)
    monkeypatch.setattr(prosody, "_F0_BLOCK", block)
    assert len(estimate_f0(audio, cfg)) == n_frames
    assert sum(rows for rows, w in calls if w == step * hop) == n_frames + span
    assert sum(rows for rows, w in calls if w == rest) == (n_frames if rest else 0)
    assert max(rows for rows, _ in calls) <= block + span


@pytest.mark.parametrize("window", [2, 3, 100, 777, 1000, 1024, 4096])
def test_sub_windows_tile_the_window(window):
    for hop in {min(h, window) for h in (1, 2, 3, window // 5, window // 4, window // 3,
                                         window - 1, window) if h >= 1}:
        step, terms, rest = prosody._sub_windows(window, hop)
        assert 1 <= terms <= prosody._MAX_TERMS
        assert 0 <= rest < step * hop
        assert terms * step * hop + rest == window
        assert step == 1 or window > prosody._MAX_TERMS * hop


def test_estimate_f0_validation():
    with pytest.raises(ValueError, match="sample_rate"):
        estimate_f0(_audio(np.zeros(10000), sr=4000))
    with pytest.raises(ValueError, match="f_max"):
        estimate_f0(_audio(np.zeros(10000), sr=8000), F0Config(f_max=700.0))
    with pytest.raises(ValueError, match="too short"):
        estimate_f0(_audio(np.zeros(500)))


def test_f0_config_validation():
    with pytest.raises(ValueError):
        F0Config(f_min=20.0)
    with pytest.raises(ValueError):
        F0Config(f_min=300.0, f_max=200.0)
    with pytest.raises(ValueError):
        F0Config(aperiodicity_threshold=1.5)


def test_utterance_prosody_tone():
    stats = utterance_prosody(_audio(sine_samples(220, 1.0)))
    assert stats.pitch_mean_hz == pytest.approx(220.0, abs=2.0)
    assert stats.duration_s == pytest.approx(1.0)


def test_utterance_prosody_silence():
    stats = utterance_prosody(_audio(np.zeros(2 * SR)))
    assert stats.pitch_mean_hz is None
    assert stats.energy_mean == 0.0
    assert stats.duration_s == pytest.approx(2.0)


def test_utterance_prosody_tone_plus_silence_oracle():
    samples = np.concatenate([sine_samples(220, 1.0), np.zeros(SR)])
    audio = _audio(samples)
    stats = utterance_prosody(audio)
    assert stats.duration_s == pytest.approx(2.0)
    assert stats.pitch_mean_hz == pytest.approx(220.0, abs=2.0)
    # direct recomputation of the voiced-only mean and the all-frame energy
    track = estimate_f0(audio)
    energy = frame_energy(audio, 1024, 256)
    assert stats.pitch_mean_hz == pytest.approx(track.f0_hz[track.voiced].mean())
    assert stats.energy_mean == pytest.approx(energy.mean())


def _track(f0, voiced, periodicity=None):
    f0 = np.asarray(f0, dtype=float)
    if periodicity is None:
        periodicity = np.where(np.asarray(voiced), 0.9, 0.1)
    return F0Track(f0_hz=f0, voiced=np.asarray(voiced, dtype=bool),
                   periodicity=np.asarray(periodicity, dtype=float),
                   hop=256, sample_rate=SR)


def test_rmse_f0_identity():
    t = _track([100, 200, 0], [True, True, False])
    assert rmse_f0(t, t) == 0.0


def test_rmse_f0_single_common_frame():
    a = _track([100, 150], [True, False])
    b = _track([110, 150], [True, True])
    assert rmse_f0(a, b) == pytest.approx(10.0)


def test_rmse_f0_two_frames_closed_form():
    a = _track([100, 200], [True, True])
    b = _track([110, 190], [True, True])
    assert rmse_f0(a, b) == pytest.approx(10.0)


def test_rmse_f0_errors():
    a = _track([100], [True])
    b = _track([100, 200], [True, True])
    with pytest.raises(ValueError, match="mismatch"):
        rmse_f0(a, b)
    c = _track([0, 0], [False, False])
    d = _track([100, 200], [True, True])
    with pytest.raises(ValueError, match="commonly-voiced"):
        rmse_f0(c, d)


def test_rmse_period_examples():
    a = _track([0, 0], [False, False], periodicity=[1.0, 1.0])
    b = _track([0, 0], [False, False], periodicity=[0.0, 0.0])
    assert rmse_period(a, a) == 0.0
    assert rmse_period(a, b) == pytest.approx(1.0)


def test_rmse_period_brute_force_oracle():
    rng = np.random.default_rng(3)
    pa = rng.uniform(0, 1, 17)
    pb = rng.uniform(0, 1, 17)
    a = _track(np.zeros(17), np.zeros(17), periodicity=pa)
    b = _track(np.zeros(17), np.zeros(17), periodicity=pb)
    expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(pa, pb)) / 17)
    assert rmse_period(a, b) == pytest.approx(expected, abs=1e-12)


def test_f1_vuv_examples():
    t = _track([100, 0, 100], [True, False, True])
    assert f1_vuv(t, t) == 1.0
    pred = _track([0, 0], [False, False])
    ref = _track([100, 0], [True, False])
    assert f1_vuv(pred, ref) == 0.0
    pred = _track([100, 100, 0], [True, True, False])
    ref = _track([100, 0, 0], [True, False, False])
    assert f1_vuv(pred, ref) == pytest.approx(2.0 / 3.0)


def test_f1_vuv_reference_all_unvoiced():
    pred = _track([100], [True])
    ref = _track([0], [False])
    with pytest.raises(ValueError, match="entirely unvoiced"):
        f1_vuv(pred, ref)


def test_align_tracks_truncates():
    a = _track([100, 200, 300], [True, True, True])
    b = _track([100, 200], [True, True])
    a2, b2 = align_tracks(a, b)
    assert len(a2) == len(b2) == 2
    assert rmse_f0(a2, b2) == 0.0


def test_track_serialization_round_trip():
    track = estimate_f0(_audio(sine_samples(220, 0.5)))
    text = track_to_text(track)
    back = track_from_text(text)
    assert back.hop == track.hop
    assert back.sample_rate == track.sample_rate
    assert np.array_equal(back.f0_hz, track.f0_hz)
    assert np.array_equal(back.voiced, track.voiced)
    assert np.array_equal(back.periodicity, track.periodicity)


def test_track_text_requires_header():
    with pytest.raises(ValueError, match="header"):
        track_from_text("0 100.0 1 0.9\n")


@pytest.mark.parametrize("lines, message", [
    (["# hop=256", "# sample_rate=16000", "0 100.0 7 0.9"], "line 3: voiced 7 must be 0 or 1"),
    (["# hop=256", "# sample_rate=16000", "0 100.0 -3 0.9"], "line 3: voiced -3 must be 0 or 1"),
    (["# hop=0", "# sample_rate=16000", "0 100.0 1 0.9"], "line 1: hop 0 must be positive"),
    (["# hop=256", "", "# sample_rate=-5", "0 100.0 1 0.9"],
     "line 3: sample_rate -5 must be positive"),
    (["# hop=256", "# sample_rate=16000", "0 100.0 1 0.9", "# hop=128", "1 100.0 1 0.9"],
     r"line 4: duplicate header 'hop' \(first seen at line 1\)"),
])
def test_track_text_rejects_bad_voiced_and_header(lines, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        track_from_text("\n".join(lines) + "\n")
