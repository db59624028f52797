"""Pitch, energy, and duration extraction plus prosodic error metrics.

Pitch uses the YIN difference function (de Cheveigne & Kawahara, 2002).
d(tau) is a sum over the window, so a frame's d is the sum of the d of its
sub-windows: with sub-windows of `hop` samples and q, r = divmod(window, hop),

    d_f(tau) = sum over c < q of D_hop[f + c](tau) + D_r[f + q](tau),

where D_hop[k] is d over the `hop` samples from k * hop (a row of
hop + tau_max samples, 576 at 16 kHz and the default hop) and D_r the same
over the r-sample remainder, present only when r > 0. Each sub-window row
is computed once, by one 5-smooth-length FFT correlation per block of
`_F0_BLOCK` rows, and shared by the q frames that overlap it; with a hop
under a quarter of the window, sub-windows span several hops so that
neither the terms nor the FFT length grow without bound. Each block of
frames' (rows x lags) cumulative-mean-normalized difference d'(tau) is then
searched, all rows at once, for the first dip under the aperiodicity
threshold (falling back to the global minimum), refined by parabolic
interpolation; only the per-frame dip depth and refined lag outlive the
block. The dip depth doubles as the voicing decision: a frame is voiced
when its best d' value is below the threshold, and periodicity is reported
as 1 - d'.

Frame bookkeeping: energy frames are `window` samples advancing by `hop`;
pitch frames need `window + tau_max` samples (the difference function
correlates a window against lags up to tau_max), also advancing by `hop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .manifest import AudioBuffer, parse_lines

MIN_SAMPLE_RATE = 8000

# Sub-window rows per yin_difference call. A block's (rows x n_fft) FFT
# temporaries, about 0.2 MB each at 16 kHz, stay cache-resident and reuse
# freed memory; with whole utterances every call takes fresh pages, and page
# faults cost more system time than the FFTs take.
_F0_BLOCK = 48

# Sub-windows a frame's difference function is summed from, at most: with a
# hop under a quarter of the window, sub-windows span several hops.
_MAX_TERMS = 4


@dataclass(frozen=True)
class F0Config:
    """Pitch search range and framing; defaults target speech at 16-48 kHz."""

    f_min: float = 50.0
    f_max: float = 600.0
    window: int = 1024
    hop: int = 256
    aperiodicity_threshold: float = 0.15

    def __post_init__(self) -> None:
        if not self.f_min >= 50.0:  # written so that NaN fails too
            raise ValueError("f_min must be >= 50 Hz")
        if not self.f_max > self.f_min:
            raise ValueError("f_max must exceed f_min")
        if self.window < 2 or self.hop < 1 or self.hop > self.window:
            raise ValueError("need window >= hop >= 1")
        if not (0.0 < self.aperiodicity_threshold < 1.0):
            raise ValueError("aperiodicity_threshold must lie in (0, 1)")


@dataclass
class F0Track:
    """Frame-aligned pitch, voicing, and periodicity sequences."""

    f0_hz: np.ndarray
    voiced: np.ndarray
    periodicity: np.ndarray
    hop: int
    sample_rate: int

    def __post_init__(self) -> None:
        self.f0_hz = np.asarray(self.f0_hz, dtype=np.float64)
        self.voiced = np.asarray(self.voiced, dtype=bool)
        self.periodicity = np.asarray(self.periodicity, dtype=np.float64)
        if not (len(self.f0_hz) == len(self.voiced) == len(self.periodicity)):
            raise ValueError("track sequences must have equal length")

    def __len__(self) -> int:
        return len(self.f0_hz)


@dataclass(frozen=True)
class ProsodyStats:
    """Per-utterance aggregates; pitch_mean_hz is None when nothing is voiced."""

    pitch_mean_hz: float | None
    energy_mean: float
    duration_s: float


def frame_energy(audio: AudioBuffer, window: int, hop: int) -> np.ndarray:
    """Root-mean-square of each `window`-sample frame, advancing by `hop`."""
    if not (window >= hop >= 1):
        raise ValueError("need window >= hop >= 1")
    if audio.samples.size < window:
        raise ValueError(
            f"audio shorter than one window ({audio.samples.size} < {window})")
    frames = np.lib.stride_tricks.sliding_window_view(audio.samples, window)[::hop]
    return np.sqrt(np.mean(frames ** 2, axis=1))


def _cmndf(diff: np.ndarray) -> np.ndarray:
    """Cumulative-mean-normalized difference; d'(0) = 1, 0/0 frames -> 1."""
    out = np.empty_like(diff)
    out[:, 0] = 1.0
    tau = np.arange(1, diff.shape[1], dtype=np.float64)
    cumsum = np.cumsum(diff[:, 1:], axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out[:, 1:] = np.where(cumsum > 0.0, diff[:, 1:] * tau / cumsum, 1.0)
    return out


def _select_lags(cm: np.ndarray, tau_min: int, threshold: float) -> np.ndarray:
    """Per row of d', the first lag >= tau_min under threshold, walked down
    while d' strictly falls; the argmin over [tau_min, tau_max] where none dips."""
    search = cm[:, tau_min:]
    below = search < threshold
    dips = below.any(axis=1)
    lag = np.where(dips, below.argmax(axis=1), search.argmin(axis=1))
    last = search.shape[1] - 1
    walking = np.flatnonzero(dips)
    while walking.size:  # one lag per pass for every frame still descending
        walking = walking[lag[walking] < last]
        at = lag[walking]
        walking = walking[search[walking, at + 1] < search[walking, at]]
        lag[walking] += 1
    return tau_min + lag


def _sub_windows(window: int, hop: int) -> tuple[int, int, int]:
    """(hops per sub-window, sub-windows per frame, remainder length): a
    window split into at most _MAX_TERMS sub-windows of a whole number of
    hops, so every sub-window starts on a frame boundary."""
    step = -(-window // (hop * _MAX_TERMS))
    terms, rest = divmod(window, step * hop)
    return step, terms, rest


def _difference_blocks(x: np.ndarray, n_frames: int, window: int, hop: int,
                       tau_max: int):
    """d(tau) of frames 0 .. n_frames - 1 in consecutive blocks of rows.

    YIN's d is a sum over the window, so a frame's d is the sum of the d of
    its sub-windows. Sub-window rows start every hop, as frames do, and each
    is shared by up to `terms` frames: it is computed once, in blocks of
    _F0_BLOCK rows, and kept until the last frame that needs it is summed.
    The summation order is fixed, so the result does not depend on the block
    size.
    """
    step, terms, rest = _sub_windows(window, hop)
    sub = step * hop
    span = (terms - 1) * step  # rows a frame reaches past its first
    view = np.lib.stride_tricks.sliding_window_view
    rows = view(x, sub + tau_max)[::hop][:n_frames + span]
    tails = view(x[terms * sub:], rest + tau_max)[::hop] if rest else None
    held = np.empty((0, tau_max + 1))
    done = 0  # frames yielded; held[0] is row `done`
    for lo in range(0, len(rows), _F0_BLOCK):
        fresh = _kernels.yin_difference(rows[lo:lo + _F0_BLOCK], sub, tau_max)
        held = np.concatenate([held, fresh]) if len(held) else fresh
        ready = min(lo + len(fresh) - span, n_frames) - done
        if ready <= 0:
            continue
        d = held[:ready].copy()
        for c in range(1, terms):
            d += held[c * step:c * step + ready]
        if rest:
            d += _kernels.yin_difference(tails[done:done + ready], rest, tau_max)
        held = held[ready:]
        done += ready
        yield d


def _yin_block(diff: np.ndarray, cfg: F0Config, tau_min: int,
               tau_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per frame of one block of d(tau) rows: the aperiodicity, d' at the
    selected lag clipped to [0, 1], and that lag refined by a parabola
    through tau - 1, tau, tau + 1 (none at tau_max or on a flat line)."""
    cm = _cmndf(diff)
    tau = _select_lags(cm, tau_min, cfg.aperiodicity_threshold)
    rows = np.arange(len(cm))
    y0, y1, y2 = cm[rows, tau - 1], cm[rows, tau], cm[rows, np.minimum(tau + 1, tau_max)]
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(invalid="ignore", divide="ignore"):
        shift = np.where((tau < tau_max) & (denom != 0.0), 0.5 * (y0 - y2) / denom, 0.0)
    return np.clip(y1, 0.0, 1.0), tau + shift


def estimate_f0(audio: AudioBuffer, cfg: F0Config | None = None) -> F0Track:
    """YIN-style per-frame pitch with a dip-depth voicing decision.

    Lag selection: the smallest lag whose d' dips under the threshold,
    descended to its local minimum (this rejects subharmonic picks at
    integer multiples of the true period); if nothing dips, the global
    minimum. Unvoiced frames carry f0 = 0 but keep their periodicity.
    """
    cfg = cfg or F0Config()
    sr = audio.sample_rate
    if sr < MIN_SAMPLE_RATE:
        raise ValueError(f"sample_rate {sr} below minimum {MIN_SAMPLE_RATE}")
    if cfg.f_max > min(600.0, sr / 4.0):
        raise ValueError(f"f_max {cfg.f_max} exceeds min(600, sample_rate/4)")

    tau_min = max(2, int(math.floor(sr / cfg.f_max)))
    tau_max = int(math.ceil(sr / cfg.f_min))
    frame_len = cfg.window + tau_max
    x = audio.samples
    if x.size < frame_len:
        raise ValueError(
            f"audio too short for pitch analysis: need {frame_len} samples "
            f"(window plus two periods of f_min), got {x.size}")

    n_frames = (x.size - frame_len) // cfg.hop + 1
    blocks = [_yin_block(d, cfg, tau_min, tau_max)
              for d in _difference_blocks(x, n_frames, cfg.window, cfg.hop, tau_max)]
    aperiodicity, lag = (np.concatenate(part) for part in zip(*blocks))
    voiced = aperiodicity < cfg.aperiodicity_threshold
    refined = np.clip(lag, tau_min, tau_max)
    f0 = np.where(voiced, np.clip(sr / refined, cfg.f_min, cfg.f_max), 0.0)
    return F0Track(f0_hz=f0, voiced=voiced, periodicity=1.0 - aperiodicity,
                   hop=cfg.hop, sample_rate=sr)


def utterance_prosody(audio: AudioBuffer, cfg: F0Config | None = None) -> ProsodyStats:
    """Pitch mean over voiced frames, RMS mean over all frames, duration."""
    cfg = cfg or F0Config()
    track = estimate_f0(audio, cfg)
    energy = frame_energy(audio, cfg.window, cfg.hop)
    pitch_mean = float(track.f0_hz[track.voiced].mean()) if track.voiced.any() else None
    return ProsodyStats(pitch_mean_hz=pitch_mean,
                        energy_mean=float(energy.mean()),
                        duration_s=audio.duration_s)


def align_tracks(a: F0Track, b: F0Track) -> tuple[F0Track, F0Track]:
    """Truncate both tracks to the shorter frame count; their frame steps
    (hop / sample_rate seconds) must be equal."""
    if a.hop * b.sample_rate != b.hop * a.sample_rate:
        raise ValueError(f"frame step mismatch: hop {a.hop} at {a.sample_rate} Hz vs "
                         f"hop {b.hop} at {b.sample_rate} Hz")
    n = min(len(a), len(b))
    if n == 0:
        raise ValueError("cannot align empty tracks")

    def cut(t: F0Track) -> F0Track:
        if len(t) == n:
            return t
        return F0Track(f0_hz=t.f0_hz[:n], voiced=t.voiced[:n],
                       periodicity=t.periodicity[:n], hop=t.hop,
                       sample_rate=t.sample_rate)

    return cut(a), cut(b)


def _check_same_length(a: F0Track, b: F0Track) -> None:
    if len(a) != len(b):
        raise ValueError(
            f"frame-count mismatch ({len(a)} vs {len(b)}); align_tracks first")


def rmse_f0(a: F0Track, b: F0Track) -> float:
    """RMSE of f0 over frames voiced in both tracks."""
    _check_same_length(a, b)
    both = a.voiced & b.voiced
    if not both.any():
        raise ValueError("no commonly-voiced frame")
    err = a.f0_hz[both] - b.f0_hz[both]
    return float(np.sqrt(np.mean(err ** 2)))


def rmse_period(a: F0Track, b: F0Track) -> float:
    """RMSE of periodicity over all frames."""
    _check_same_length(a, b)
    if len(a) == 0:
        raise ValueError("rmse_period requires at least one frame")
    err = a.periodicity - b.periodicity
    return float(np.sqrt(np.mean(err ** 2)))


def f1_vuv(a: F0Track, b: F0Track) -> float:
    """F1 of the voiced class, with a as prediction and b as reference."""
    _check_same_length(a, b)
    if not b.voiced.any():
        raise ValueError("reference track is entirely unvoiced; F1 undefined")
    tp = int(np.sum(a.voiced & b.voiced))
    fp = int(np.sum(a.voiced & ~b.voiced))
    fn = int(np.sum(~a.voiced & b.voiced))
    return 2.0 * tp / (2.0 * tp + fp + fn)


# ---------------------------------------------------------------------------
# track files: `# hop=N` and `# sample_rate=N` headers plus one
# `frame f0 voiced periodicity` line per frame
# ---------------------------------------------------------------------------

def _parse_track_line(line: str) -> tuple[str | None, object]:
    """A `# key=value` header as (key, value); a frame as (None, (f0, voiced, periodicity))."""
    line = line.strip()
    if line.startswith("#"):
        key, _, value = line[1:].partition("=")
        key = key.strip()
        if key not in ("hop", "sample_rate"):
            return key, None  # any other comment is ignored
        try:
            number = int(value)
        except ValueError:
            raise ValueError(f"non-integer {key}") from None
        if number <= 0:
            raise ValueError(f"{key} {number} must be positive")
        return key, number
    parts = line.split()
    if len(parts) != 4:
        raise ValueError("expected 'frame f0 voiced periodicity'")
    try:
        f0_hz, voiced, per = float(parts[1]), int(parts[2]), float(parts[3])
    except ValueError:
        raise ValueError("non-numeric field") from None
    if voiced not in (0, 1):
        raise ValueError(f"voiced {voiced} must be 0 or 1")
    if not (math.isfinite(f0_hz) and math.isfinite(per)):
        raise ValueError("non-finite f0 or periodicity")
    return None, (f0_hz, bool(voiced), per)


def track_from_text(text: str) -> F0Track:
    """Parse a track file; a malformed line is an error naming it."""
    numbered = parse_lines(text, _parse_track_line)
    header = {key: value for _, (key, value) in numbered if key is not None}
    if header.get("hop") is None or header.get("sample_rate") is None:
        raise ValueError("track text missing '# hop=' or '# sample_rate=' header")
    frames = [frame for _, (key, frame) in numbered if key is None]
    f0, voiced, periodicity = zip(*frames) if frames else ((), (), ())
    return F0Track(f0_hz=np.array(f0), voiced=np.array(voiced, dtype=bool),
                   periodicity=np.array(periodicity), hop=header["hop"],
                   sample_rate=header["sample_rate"])
