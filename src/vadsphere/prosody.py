"""Pitch, energy, and duration extraction plus prosodic error metrics.

Pitch uses the YIN difference function (de Cheveigne & Kawahara, 2002).
d(tau) is a sum over the window, so a frame's d is the sum of the d of its
sub-windows: with sub-windows of `hop` samples and q, r = divmod(window, hop),

    d_f(tau) = sum over c < q of D_hop[f + c](tau) + D_r[f + q](tau),

where D_hop[k] is d over the `hop` samples from k * hop (a row of
hop + tau_max samples, 576 at 16 kHz and the default hop) and D_r the same
over the r-sample remainder, present only when r > 0. Each sub-window row is
computed once and shared by the q frames that overlap it: frames run in
blocks of `_F0_BLOCK`, the last frames of a block reach `span` rows past it,
and those rows are carried into the next block, whose one 5-smooth-length
FFT correlation computes only the rows it does not hold yet. With a hop
under a quarter of the window, sub-windows span several hops so that neither
the terms nor the FFT length grow without bound. Each block of frames'
(rows x lags) cumulative-mean-normalized difference d'(tau) is then
searched, all rows and lags at once, for the first dip under the
aperiodicity threshold (falling back to the global minimum); the descent
from the dip to its local minimum is one pass too, the first lag from the
dip on whose successor d' does not fall. The lag is refined by parabolic
interpolation; only the per-frame dip depth and refined lag outlive the
block, so a block is a handful of long numpy calls whatever its content.
The dip depth doubles as the voicing decision: a frame is voiced when its
best d' value is below the threshold, and periodicity is reported as 1 - d'.

Frame bookkeeping: energy frames are `window` samples advancing by `hop`;
pitch frames need `window + tau_max` samples (the difference function
correlates a window against lags up to tau_max), also advancing by `hop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .geometry import RowError, first_fault
from .manifest import AudioBuffer, JsonLines, parse_lines

MIN_SAMPLE_RATE = 8000

# Frames per block: one lag search each, and one yin_difference call for the
# sub-window rows the block lacks. Each call is at most _F0_BLOCK rows, except
# an utterance's first, which is up to _F0_BLOCK + span rows (195 at the
# defaults, 960 at hop 1), since a block carries `span` rows on. Each block is
# a few long numpy calls, so two prosody threads hand the interpreter lock over
# seldom; its (rows x n_fft) temporaries, about 0.9 MB each at 16 kHz, still
# reuse freed heap memory. From about 224 rows at 16 kHz they are returned to
# the system and faulted in again on every block (glibc's mmap and trim
# thresholds), and the page faults cost more system time than the FFTs take.
_F0_BLOCK = 192

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


@dataclass(frozen=True, eq=False)
class ProsodySet:
    """Prosody of many utterances, one column per field.

    Row i is utterance ids[i]: its mean pitch pitch_mean_hz[i] in Hz, NaN
    when nothing is voiced, its mean frame energy energy_mean[i] and its
    duration duration_s[i] in seconds. The number columns are float arrays;
    a pitch that is not positive or NaN, a negative energy or a duration
    that is not positive is a RowError naming its row.
    """

    ids: Sequence[str]
    pitch_mean_hz: np.ndarray
    energy_mean: np.ndarray
    duration_s: np.ndarray

    def __post_init__(self) -> None:
        for name in ("pitch_mean_hz", "energy_mean", "duration_s"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (len(self.ids) == len(self.pitch_mean_hz) == len(self.energy_mean)
                == len(self.duration_s)):
            raise ValueError("prosody columns must have one entry per utterance")
        in_range = np.column_stack([~(self.pitch_mean_hz <= 0.0), self.energy_mean >= 0.0,
                                    self.duration_s > 0.0])
        if not in_range.all():
            row, column = first_fault(~in_range)
            name, rule = (("pitch_mean_hz", "positive"), ("energy_mean", "non-negative"),
                          ("duration_s", "positive"))[column]
            raise RowError(f"{name} {float(getattr(self, name)[row])} must be {rule}", row)

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_stats(cls, stats: Mapping[str, ProsodyStats]) -> "ProsodySet":
        """The set of {id: stats}, in the mapping's order."""
        return cls(tuple(stats), [math.nan if s.pitch_mean_hz is None else s.pitch_mean_hz
                                  for s in stats.values()],
                   [s.energy_mean for s in stats.values()],
                   [s.duration_s for s in stats.values()])


# the prosody file: one utterance per line, pitch null when nothing is voiced
_PROSODY_LINES = JsonLines("prosody record", ("id", str), ("pitch_mean_hz", None),
                           ("energy_mean", float), ("duration_s", float))


def prosody_set_to_jsonl(prosody: ProsodySet) -> str:
    """One (id, pitch_mean_hz, energy_mean, duration_s) object per line."""
    return _PROSODY_LINES.write(prosody.ids, prosody.pitch_mean_hz, prosody.energy_mean,
                                prosody.duration_s)


def prosody_set_from_jsonl(text: str) -> ProsodySet:
    """Parse prosody_set_to_jsonl output; every fault names its line."""
    return _PROSODY_LINES.read(text, ProsodySet)


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
    first = below.argmax(axis=1)
    # the walk stops at the first lag from the dip on whose successor does
    # not fall ("not <", so a NaN neighbour stops it), or at tau_max
    stop = np.ones(search.shape, dtype=bool)
    stop[:, :-1] = ~(search[:, 1:] < search[:, :-1])
    stop &= np.arange(search.shape[1]) >= first[:, None]
    return tau_min + np.where(dips, stop.argmax(axis=1), search.argmin(axis=1))


def _sub_windows(window: int, hop: int) -> tuple[int, int, int]:
    """(hops per sub-window, sub-windows per frame, remainder length): a
    window split into at most _MAX_TERMS sub-windows of a whole number of
    hops, so every sub-window starts on a frame boundary."""
    step = -(-window // (hop * _MAX_TERMS))
    terms, rest = divmod(window, step * hop)
    return step, terms, rest


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
    step, terms, rest = _sub_windows(cfg.window, cfg.hop)
    sub = step * cfg.hop
    span = (terms - 1) * step  # rows a frame reaches past its first
    view = np.lib.stride_tricks.sliding_window_view
    rows = view(x, sub + tau_max)[::cfg.hop]
    tails = view(x[terms * sub:], rest + tau_max)[::cfg.hop] if rest else None
    aperiodicity, lag = np.empty(n_frames), np.empty(n_frames)
    # Frame f sums rows f, f + step, ..., f + span in that fixed order, so the
    # result does not depend on the block size.
    held = np.empty((0, tau_max + 1))  # rows lo .. lo + len(held) - 1
    for lo in range(0, n_frames, _F0_BLOCK):
        hi = min(lo + _F0_BLOCK, n_frames)
        fresh = _kernels.yin_difference(rows[lo + len(held):hi + span], sub, tau_max)
        held = np.concatenate([held, fresh]) if len(held) else fresh
        d = held[:hi - lo].copy()
        for c in range(1, terms):
            d += held[c * step:c * step + hi - lo]
        if rest:
            d += _kernels.yin_difference(tails[lo:hi], rest, tau_max)
        aperiodicity[lo:hi], lag[lo:hi] = _yin_block(d, cfg, tau_min, tau_max)
        held = held[hi - lo:]
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
    _, parsed = parse_lines(text, _parse_track_line)
    header = {key: value for key, value in parsed if key is not None}
    if header.get("hop") is None or header.get("sample_rate") is None:
        raise ValueError("track text missing '# hop=' or '# sample_rate=' header")
    frames = [frame for key, frame in parsed if key is None]
    f0, voiced, periodicity = zip(*frames) if frames else ((), (), ())
    return F0Track(f0_hz=np.array(f0), voiced=np.array(voiced, dtype=bool),
                   periodicity=np.array(periodicity), hop=header["hop"],
                   sample_rate=header["sample_rate"])
