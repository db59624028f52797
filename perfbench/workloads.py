"""Seeded synthetic inputs for the pipeline benchmark.

Every workload is a set of files written into one work directory: a
manifest, the audio the prosody stage reads, a prosody file for records
without audio, and the inputs of the evaluation subcommands. The same seed
gives the same bytes. Alongside the files, `Inputs` carries what the
generator knows to be true (each utterance's f0, the expected ECA and
pair-ordering accuracy) so the checks can compare the program's outputs
against it.

Sizes that set the amount of work are fixed per workload, so runs with
different seeds do the same amount of work: class sizes, the number of
utterances, their durations (a permuted, evenly spaced grid) and the share
of noise-only and stereo files. The seed draws the VAD points, the pitch
contours, the noise and the evaluation data.
"""

from __future__ import annotations

import json
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
F0_LO, F0_HI = 80.0, 400.0
DURATION_LO, DURATION_HI = 2.0, 5.0
NOISE_ONLY_SHARE = 0.10
STEREO_SHARE = 0.05
EMBEDDING_DIM = 64
TRACK_FRAMES = 4000
NEUTRAL = "neutral"

ESD_CENTERS = {
    "neutral": (0.50, 0.50, 0.50),
    "happy": (0.76, 0.68, 0.62),
    "angry": (0.22, 0.82, 0.70),
    "sad": (0.30, 0.26, 0.36),
    "surprise": (0.66, 0.84, 0.44),
}

FINE_LABELS = (
    "admiration", "amusement", "anger", "annoyance", "anxiety", "awe",
    "boredom", "calm", "contempt", "contentment", "disgust", "distress",
    "elation", "embarrassment", "fear", "gratitude", "guilt", "interest",
    "pride", "relief", "sadness", "shame", "tenderness",
)


def _fine_centers() -> dict[str, tuple[float, float, float]]:
    """Neutral plus 23 labels on a fixed spiral around the cube center.

    The centers are part of the workload's definition, not of its seed, so
    the per-class solves are equally hard on every seed.
    """
    centers = {NEUTRAL: (0.50, 0.50, 0.50)}
    n = len(FINE_LABELS)
    for i, label in enumerate(FINE_LABELS):
        z = -0.9 + 1.8 * i / (n - 1)
        ring = np.sqrt(1.0 - z * z)
        angle = i * np.pi * (3.0 - np.sqrt(5.0))
        direction = (ring * np.cos(angle), ring * np.sin(angle), z)
        radius = 0.22 + 0.08 * (i % 3) / 2.0
        centers[label] = tuple(round(0.5 + radius * c, 4) for c in direction)
    return centers


@dataclass(frozen=True)
class Workload:
    """What one workload runs; `audio_records` means every record has a WAV."""

    name: str
    centers: dict[str, tuple[float, float, float]]
    per_class: int
    spread: float
    audio_records: bool
    probe_utterances: int
    eval_pairs: int
    orthogonality_rows: int

    def scaled(self, scale: float) -> "Workload":
        """The same workload with every size multiplied by `scale` (tests)."""
        def size(n: int, floor: int) -> int:
            return max(floor, int(round(n * scale)))
        return Workload(
            name=self.name, centers=self.centers,
            per_class=size(self.per_class, 12), spread=self.spread,
            audio_records=self.audio_records,
            probe_utterances=size(self.probe_utterances, 10) if self.probe_utterances else 0,
            eval_pairs=size(self.eval_pairs, 20),
            orthogonality_rows=size(self.orthogonality_rows, 10))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="vad-corpus",
            centers=ESD_CENTERS, per_class=7000, spread=0.11, audio_records=False,
            probe_utterances=20, eval_pairs=28000, orthogonality_rows=1000),
        Workload(
            name="many-emotions",
            centers=_fine_centers(), per_class=150, spread=0.07, audio_records=False,
            probe_utterances=20, eval_pairs=2880, orthogonality_rows=200),
        Workload(
            name="audio-prosody",
            centers=ESD_CENTERS, per_class=80, spread=0.11, audio_records=True,
            probe_utterances=0, eval_pairs=320, orthogonality_rows=100),
    )
}


@dataclass
class Utterance:
    """One generated WAV and what is known about it."""

    path: Path
    duration_s: float
    f0_hz: float | None  # time-mean of the true f0 over the voiced span; None if noise-only


@dataclass
class Inputs:
    """Paths of the generated files plus the facts the checks compare against."""

    workdir: Path
    manifest: Path
    n_records: int
    emotions: list[str]
    record_emotion: dict[str, str]
    wav_list: Path | None  # None: the prosody stage reads the manifest's audio paths
    utterances: dict[str, Utterance]  # keyed by the id the prosody output uses
    prosody_for_analyze: Path | None  # None: analyze reads the prosody stage's output
    svas_synth: Path
    svas_ref: Path
    emb_a: Path
    emb_b: Path
    speaker_emb: Path
    emotion_emb: Path
    pred_labels: Path
    ref_labels: Path
    track_a: Path
    track_b: Path
    pairs: Path
    expected: dict[str, float] = field(default_factory=dict)

    @property
    def audio_seconds(self) -> float:
        return sum(u.duration_s for u in self.utterances.values())


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_matrix(path: Path, rows: np.ndarray) -> None:
    # values are pre-rounded, so repr is short and exact
    _write_lines(path, (" ".join(map(repr, row)) for row in rows.tolist()))


def load_matrix(path: Path) -> np.ndarray:
    """Read back a file written by _write_matrix."""
    return np.array([[float(x) for x in line.split()]
                     for line in path.read_text(encoding="utf-8").splitlines()])


def _manifest_rows(w: Workload, rng: np.random.Generator):
    """(id, emotion, vad) for every record, id-sorted."""
    rows = []
    for emotion, center in w.centers.items():
        points = np.clip(rng.normal(center, w.spread, size=(w.per_class, 3)), 0.0, 1.0)
        points = np.round(points, 6)
        for i, p in enumerate(points.tolist()):
            rows.append((f"{emotion}_{i:05d}", emotion, p))
    rows.sort(key=lambda r: r[0])
    return rows


_HARMONICS = 8
_TABLE = np.sum([np.sin(2.0 * np.pi * k * np.arange(4096) / 4096) / k
                 for k in range(1, _HARMONICS + 1)], axis=0)
_TABLE /= np.abs(_TABLE).max()


def _voiced_samples(rng: np.random.Generator, n: int, f0_center: float):
    """Harmonic source with a linear f0 glide between silences, plus noise.

    Returns the samples and the time-mean of the true f0 over the voiced
    span, which is what a pitch mean over voiced frames should recover.
    """
    lead = int(rng.uniform(0.15, 0.3) * SAMPLE_RATE)
    tail = int(rng.uniform(0.15, 0.3) * SAMPLE_RATE)
    voiced = n - lead - tail
    glide = rng.uniform(-0.15, 0.15) * f0_center
    f_start = float(np.clip(f0_center - glide / 2, F0_LO, F0_HI))
    f_end = float(np.clip(f0_center + glide / 2, F0_LO, F0_HI))
    f0 = np.linspace(f_start, f_end, voiced)
    phase = np.cumsum(f0) / SAMPLE_RATE
    source = np.interp((phase % 1.0) * 4096, np.arange(4097),
                       np.append(_TABLE, _TABLE[0]))
    ramp = min(int(0.02 * SAMPLE_RATE), voiced // 4)
    envelope = np.ones(voiced)
    envelope[:ramp] = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    envelope[-ramp:] = envelope[:ramp][::-1]
    x = rng.normal(0.0, 0.003, n)
    x[lead:lead + voiced] += rng.uniform(0.3, 0.7) * envelope * source
    return x, float(f0.mean())


def _write_wav(path: Path, samples: np.ndarray, channels: int,
               rng: np.random.Generator) -> None:
    if channels == 2:
        other = 0.9 * samples + rng.normal(0.0, 0.002, samples.size)
        samples = np.stack([samples, other], axis=1).reshape(-1)
    ints = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as out:
        out.setnchannels(channels)
        out.setsampwidth(2)
        out.setframerate(SAMPLE_RATE)
        out.writeframes(ints.tobytes())


def _make_audio(audio_dir: Path, names: list[str],
                rng: np.random.Generator) -> list[Utterance]:
    """One WAV per name. Durations, noise-only and stereo counts are fixed
    by len(names); which files get them, and all pitch contours, are drawn."""
    audio_dir.mkdir(parents=True, exist_ok=True)
    n = len(names)
    durations = rng.permutation(np.linspace(DURATION_LO, DURATION_HI, n))
    n_noise = max(1, int(round(NOISE_ONLY_SHARE * n)))
    n_stereo = max(1, int(round(STEREO_SHARE * n)))
    noise_only = set(rng.choice(n, n_noise, replace=False).tolist())
    stereo = set(rng.choice(n, n_stereo, replace=False).tolist())
    # stratified centers: an even grid over the range, jittered and permuted
    grid = np.linspace(F0_LO * 1.1, F0_HI * 0.9, n)
    centers = rng.permutation(grid + rng.uniform(-0.5, 0.5, n) * (grid[1] - grid[0]))
    out = []
    for i, name in enumerate(names):
        n_samples = int(round(durations[i] * SAMPLE_RATE))
        if i in noise_only:
            x, f0 = rng.normal(0.0, rng.uniform(0.05, 0.15), n_samples), None
        else:
            x, f0 = _voiced_samples(rng, n_samples, float(centers[i]))
        path = audio_dir / f"{name}.wav"
        _write_wav(path, x, 2 if i in stereo else 1, rng)
        out.append(Utterance(path=path, duration_s=n_samples / SAMPLE_RATE,
                             f0_hz=f0))
    return out


def _prosody_lines(rng: np.random.Generator, ids: list[str]) -> list[str]:
    """A prosody file standing in for audio the workload does not have."""
    pitch = np.round(rng.uniform(F0_LO, F0_HI, len(ids)), 3)
    unvoiced = rng.random(len(ids)) < NOISE_ONLY_SHARE
    energy = np.round(rng.uniform(0.01, 0.3, len(ids)), 5)
    duration = np.round(rng.uniform(DURATION_LO, DURATION_HI, len(ids)), 4)
    return [json.dumps({"id": rec_id,
                        "pitch_mean_hz": None if unvoiced[i] else float(pitch[i]),
                        "energy_mean": float(energy[i]),
                        "duration_s": float(duration[i])})
            for i, rec_id in enumerate(ids)]


def _eval_files(w: Workload, inp: Inputs, rng: np.random.Generator) -> None:
    """svas, metrics and pair-acc inputs, with their expected exact results."""
    n = w.eval_pairs
    ref = np.round(rng.uniform(0.02, 0.98, (n, 3)), 6)
    synth = np.round(np.clip(ref + rng.normal(0.0, 0.05, (n, 3)), 0.0, 1.0), 6)
    _write_matrix(inp.svas_ref, ref)
    _write_matrix(inp.svas_synth, synth)

    emb_a = np.round(rng.normal(0.0, 1.0, (n, EMBEDDING_DIM)), 4)
    emb_b = np.round(emb_a + rng.normal(0.0, 0.5, (n, EMBEDDING_DIM)), 4)
    _write_matrix(inp.emb_a, emb_a)
    _write_matrix(inp.emb_b, emb_b)
    rows = w.orthogonality_rows
    _write_matrix(inp.speaker_emb, np.round(rng.normal(0.0, 1.0, (rows, EMBEDDING_DIM)), 4))
    _write_matrix(inp.emotion_emb, np.round(rng.normal(0.0, 1.0, (rows, EMBEDDING_DIM)), 4))

    labels = list(w.centers)
    ref_idx = rng.integers(0, len(labels), n)
    hits = int(round(0.8 * n))
    wrong = rng.permutation(n)[:n - hits]
    pred_idx = ref_idx.copy()
    pred_idx[wrong] = (ref_idx[wrong] + rng.integers(1, len(labels), wrong.size)) % len(labels)
    upper = rng.random(n) < 0.1  # exercises the case-insensitive match
    _write_lines(inp.ref_labels, (labels[i] for i in ref_idx))
    _write_lines(inp.pred_labels, (labels[i].upper() if u else labels[i]
                                   for i, u in zip(pred_idx, upper)))
    inp.expected["eca"] = hits / n

    voiced = rng.random(TRACK_FRAMES) < 0.7
    f0 = np.where(voiced, np.round(rng.uniform(F0_LO, F0_HI, TRACK_FRAMES), 3), 0.0)
    per = np.round(rng.uniform(0.0, 1.0, TRACK_FRAMES), 4)
    flip = rng.random(TRACK_FRAMES) < 0.05
    voiced_b = voiced ^ flip
    f0_b = np.where(voiced_b, np.round(np.where(voiced, f0, 200.0)
                                       + rng.normal(0.0, 5.0, TRACK_FRAMES), 3), 0.0)
    per_b = np.round(np.clip(per + rng.normal(0.0, 0.05, TRACK_FRAMES), 0.0, 1.0), 4)
    for path, columns in ((inp.track_a, (f0, voiced, per)),
                          (inp.track_b, (f0_b, voiced_b, per_b))):
        f, v, p = (c.tolist() for c in columns)
        _write_lines(path, ["# hop=256", f"# sample_rate={SAMPLE_RATE}"]
                     + [f"{i} {f[i]!r} {int(v[i])} {p[i]!r}" for i in range(TRACK_FRAMES)])

    r_low = np.round(rng.uniform(0.0, 1.0, n), 4)
    r_high = np.round(rng.uniform(0.0, 1.0, n), 4)
    judged = rng.random(n) < 0.5
    _write_lines(inp.pairs, (f"{a!r} {b!r} {int(j)}" for a, b, j
                             in zip(r_low.tolist(), r_high.tolist(), judged.tolist())))
    correct = np.where(r_high > r_low, judged, np.where(r_high < r_low, ~judged, False))
    inp.expected["pair_order_accuracy"] = int(correct.sum()) / n


def generate(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write every input of workload `w` for `seed` into `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    rows = _manifest_rows(w, rng)
    ids = [r[0] for r in rows]

    utterances: dict[str, Utterance] = {}
    if w.audio_records:
        for utt, rec_id in zip(_make_audio(workdir / "audio", ids, rng), ids):
            utterances[rec_id] = utt
        wav_list = None
    else:
        names = [f"probe_{i:03d}" for i in range(w.probe_utterances)]
        for utt in _make_audio(workdir / "audio", names, rng):
            utterances[str(utt.path)] = utt
        wav_list = workdir / "wavs.txt"
        _write_lines(wav_list, utterances)

    manifest_lines = []
    for rec_id, emotion, vad in rows:
        obj = {"id": rec_id, "speaker": f"spk{int(rec_id[-2:]) % 10:02d}",
               "emotion": emotion, "vad": vad}
        if w.audio_records:
            obj["audio_path"] = str(utterances[rec_id].path)
        manifest_lines.append(json.dumps(obj))
    manifest = workdir / "manifest.jsonl"
    _write_lines(manifest, manifest_lines)

    inp = Inputs(
        workdir=workdir, manifest=manifest, n_records=len(rows),
        emotions=list(w.centers), record_emotion={r[0]: r[1] for r in rows},
        wav_list=wav_list, utterances=utterances,
        prosody_for_analyze=None if w.audio_records else workdir / "prosody.jsonl",
        svas_synth=workdir / "svas_synth.txt", svas_ref=workdir / "svas_ref.txt",
        emb_a=workdir / "emb_a.txt", emb_b=workdir / "emb_b.txt",
        speaker_emb=workdir / "speaker_emb.txt", emotion_emb=workdir / "emotion_emb.txt",
        pred_labels=workdir / "pred_labels.txt", ref_labels=workdir / "ref_labels.txt",
        track_a=workdir / "track_a.txt", track_b=workdir / "track_b.txt",
        pairs=workdir / "pairs.txt")
    if inp.prosody_for_analyze is not None:
        _write_lines(inp.prosody_for_analyze, _prosody_lines(rng, ids))
    _eval_files(w, inp, rng)
    return inp
