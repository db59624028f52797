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
from vadsphere.prosody import _select_lags, track_from_text

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
    """(rows of d', tau_min): ties and plateaus, no dip, or a dip falling to tau_max."""
    n_lags = draw(st.integers(3, 40))
    tau_min = draw(st.integers(2, n_lags - 1))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["levels", "no_dip", "to_tau_max"]),
                              min_size=1, max_size=6)):
        if kind == "levels":
            row = draw(st.lists(_LEVELS, min_size=n_lags, max_size=n_lags))
        elif kind == "no_dip":
            row = draw(st.lists(_ABOVE, min_size=n_lags, max_size=n_lags))
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
])
def test_track_text_rejects_bad_voiced_and_header(lines, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        track_from_text("\n".join(lines) + "\n")
