"""Output checks. Each check is one attempt; a failed one counts towards
`failed`, and a run is correct only when none failed.

What is checked:
- every process exits 0;
- fit: the model covers every non-neutral class with a finite objective;
- extract: one EASV per manifest record, same ids and emotions, neutral
  records exactly (0, 0, 0), every r_iqr in [0, 1];
- prosody: one line per utterance, null pitch for noise-only files, pitch
  within PITCH_TOLERANCE_HZ of the known f0 otherwise, exact durations;
- analyze: the report's "N All" column adds up to the manifest size;
- eval: svas has one line per pair plus the mean, each score in [-1, 1] and
  equal to an independent numpy computation; metrics has its six lines,
  ECA is the known value and the rest match numpy; pair-acc is the known
  value.
A stage run again writes files with the same SHA-256 as the chain's. Every
class objective is at least the best point of a coarse lattice
(`grid_search_centroid` at ORACLE_STEP).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stages import Outputs, Step
from workloads import NEUTRAL, Inputs, load_matrix

PITCH_TOLERANCE_HZ = 2.0
ORACLE_STEP = 0.1
REL_TOL = 1e-9


@dataclass
class Checker:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def guarded(self, what: str, fn, *args) -> None:
        """Run a group of checks; an unreadable output fails it once."""
        try:
            fn(self, *args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.check(False, f"{what}: unreadable output ({exc})")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _tsv(path: Path) -> list[tuple[str, str]]:
    return [tuple(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines()]


def check_exits(ck: Checker, steps: list[Step]) -> None:
    for step in steps:
        ck.check(step.exit_code == 0,
                 f"{step.args[0]} exited {step.exit_code}: {step.stderr.strip()[-300:]}")


def _check_model(ck: Checker, inp: Inputs, out: Outputs, refs: References) -> None:
    doc = json.loads(out.model.read_text(encoding="utf-8"))
    classes = sorted(e for e in inp.emotions if e != NEUTRAL)
    ck.check(sorted(doc["centroids"]) == classes, "model: classes differ from the manifest")
    ck.check(all(math.isfinite(c["objective"]) and c["objective"] > 0
                 for c in doc["centroids"].values()), "model: non-finite objective")


def _check_easv(ck: Checker, inp: Inputs, out: Outputs, refs: References) -> None:
    rows = [json.loads(line) for line in out.easv.read_text(encoding="utf-8").splitlines()]
    ck.check(len(rows) == inp.n_records, f"extract: {len(rows)} records, want {inp.n_records}")
    ck.check([r["id"] for r in rows] == list(inp.record_emotion), "extract: ids differ")
    ck.check(all(inp.record_emotion[r["id"]] == r["emotion"] for r in rows),
             "extract: emotions differ")
    ck.check(all((r["r_iqr"], r["theta"], r["phi"]) == (0.0, 0.0, 0.0)
                 for r in rows if r["emotion"] == NEUTRAL), "extract: neutral EASV not (0, 0, 0)")
    ck.check(all(0.0 <= r["r_iqr"] <= 1.0 for r in rows), "extract: r_iqr outside [0, 1]")


def _check_prosody(ck: Checker, inp: Inputs, out: Outputs, refs: References) -> None:
    rows = {(o := json.loads(line))["id"]: o
            for line in out.prosody.read_text(encoding="utf-8").splitlines()}
    ck.check(sorted(rows) == sorted(inp.utterances), "prosody: ids differ from the inputs")
    bad_null, bad_pitch, bad_duration = [], [], []
    for key, utt in inp.utterances.items():
        row = rows[key]
        if utt.f0_hz is None:
            if row["pitch_mean_hz"] is not None:
                bad_null.append(key)
        elif (row["pitch_mean_hz"] is None
              or abs(row["pitch_mean_hz"] - utt.f0_hz) > PITCH_TOLERANCE_HZ):
            bad_pitch.append((key, row["pitch_mean_hz"], utt.f0_hz))
        if row["duration_s"] != utt.duration_s:
            bad_duration.append(key)
    ck.check(not bad_null, f"prosody: noise-only files with a pitch: {bad_null[:3]}")
    ck.check(not bad_pitch, f"prosody: pitch off by > {PITCH_TOLERANCE_HZ} Hz: {bad_pitch[:3]}")
    ck.check(not bad_duration, f"prosody: wrong durations: {bad_duration[:3]}")


def pitch_errors(inp: Inputs, prosody: Path) -> list[float]:
    """|pitch_mean_hz - known f0| for every voiced utterance."""
    rows = {(o := json.loads(line))["id"]: o
            for line in prosody.read_text(encoding="utf-8").splitlines()}
    return [abs(rows[k]["pitch_mean_hz"] - u.f0_hz) for k, u in inp.utterances.items()
            if u.f0_hz is not None and rows[k]["pitch_mean_hz"] is not None]


def _check_report(ck: Checker, inp: Inputs, out: Outputs, refs: References) -> None:
    lines = out.report.read_text(encoding="utf-8").splitlines()
    header = next(line for line in lines if line.startswith("| Emotion"))
    col = [c.strip() for c in header.strip("|").split("|")].index("N All")
    body = [line for line in lines if line.startswith("|") and not line.startswith("|---")
            and line != header]
    total = sum(int(line.strip("|").split("|")[col].strip().replace(",", "")) for line in body)
    ck.check(total == inp.n_records, f"analyze: report counts {total} records, "
                                     f"want {inp.n_records}")


def _reference_svas(inp: Inputs) -> np.ndarray:
    """SVAS per pair, computed here independently of the program."""
    neutral = np.array([json.loads(line)["vad"] for line in
                        inp.manifest.read_text(encoding="utf-8").splitlines()
                        if json.loads(line)["emotion"] == NEUTRAL])
    center = neutral.mean(axis=0)

    def angles(points: np.ndarray) -> np.ndarray:
        s = points - center
        r = np.linalg.norm(s, axis=1)
        theta = np.arccos(np.clip(s[:, 2] / r, -1.0, 1.0))
        phi = np.arctan2(s[:, 0], s[:, 1])
        phi = np.where(phi <= -np.pi, np.pi, phi)
        return np.stack([theta, phi], axis=1)

    a = angles(load_matrix(inp.svas_synth))
    b = angles(load_matrix(inp.svas_ref))
    return (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


def _check_svas(ck: Checker, inp: Inputs, out: Outputs, refs: References) -> None:
    rows = _tsv(out.svas)
    ck.check(len(rows) == refs.svas.size + 1 and rows[-1][0] == "mean",
             f"svas: {len(rows)} lines, want {refs.svas.size} pairs plus the mean")
    scores = np.array([float(v) for _, v in rows[:-1]])
    ck.check(bool(np.all(np.abs(scores) <= 1.0)), "svas: score outside [-1, 1]")
    ck.check(scores.shape == refs.svas.shape
             and bool(np.allclose(scores, refs.svas, rtol=0, atol=1e-9)),
             "svas: scores differ from the reference computation")
    ck.check(_close(float(rows[-1][1]), float(refs.svas.mean())), "svas: mean differs")


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


def _track(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.array([line.split()[1:] for line in path.read_text(encoding="utf-8").splitlines()
                     if not line.startswith("#")], dtype=np.float64)
    return rows[:, 0], rows[:, 1] > 0, rows[:, 2]


def _check_metrics(ck: Checker, inp: Inputs, out: Outputs, refs: References) -> None:
    got = dict(_tsv(out.metrics))
    ck.check(list(got) == list(refs.metrics), f"metrics: lines {list(got)}, "
                                              f"want {list(refs.metrics)}")
    values = {k: float(v) for k, v in got.items()}
    ck.check(-1.0 <= values["eecs"] <= 1.0 and 0.0 <= values["eca"] <= 1.0
             and 0.0 <= values["f1_vuv"] <= 1.0 and values["rmse_f0"] >= 0.0
             and values["rmse_period"] >= 0.0 and values["orthogonality_loss"] >= 0.0,
             "metrics: value out of range")
    ck.check(values["eca"] == inp.expected["eca"], "metrics: eca differs from the known value")
    for name, want in refs.metrics.items():
        ck.check(_close(values[name], want), f"metrics: {name} {values[name]} != {want}")


def _check_pair_acc(ck: Checker, inp: Inputs, out: Outputs, refs: References) -> None:
    rows = _tsv(out.pair_acc)
    ck.check(len(rows) == 1 and rows[0][0] == "pair_order_accuracy", "pair-acc: bad output")
    ck.check(float(rows[0][1]) == inp.expected["pair_order_accuracy"],
             "pair-acc: accuracy differs from the known value")


@dataclass
class References:
    """Expected eval results, computed here independently of the program."""

    svas: np.ndarray
    metrics: dict[str, float]


def references(inp: Inputs) -> References:
    s, e = load_matrix(inp.speaker_emb), load_matrix(inp.emotion_emb)
    s /= np.linalg.norm(s, axis=1)[:, None]
    e /= np.linalg.norm(e, axis=1)[:, None]
    f0_a, v_a, p_a = _track(inp.track_a)
    f0_b, v_b, p_b = _track(inp.track_b)
    both = v_a & v_b
    tp, fp, fn = (int(np.sum(x)) for x in (v_a & v_b, v_a & ~v_b, ~v_a & v_b))
    return References(svas=_reference_svas(inp), metrics={
        "eecs": float(_cosines(load_matrix(inp.emb_a), load_matrix(inp.emb_b)).mean()),
        "orthogonality_loss": float(((s @ e.T) ** 2).sum()),
        "eca": inp.expected["eca"],
        "rmse_f0": float(np.sqrt(np.mean((f0_a[both] - f0_b[both]) ** 2))),
        "rmse_period": float(np.sqrt(np.mean((p_a - p_b) ** 2))),
        "f1_vuv": 2 * tp / (2 * tp + fp + fn),
    })


def check_outputs(ck: Checker, inp: Inputs, out: Outputs, refs: References) -> None:
    for what, fn in (("fit", _check_model), ("extract", _check_easv),
                     ("prosody", _check_prosody), ("analyze", _check_report),
                     ("svas", _check_svas), ("metrics", _check_metrics),
                     ("pair-acc", _check_pair_acc)):
        ck.guarded(what, fn, inp, out, refs)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def check_repeatable(ck: Checker, first: Outputs, repeats: list[Outputs]) -> None:
    """Every file a repeated stage wrote is byte-identical to the chain's."""
    for out in repeats:
        for path, want in zip(out.files(), first.files()):
            if path.exists():
                ck.check(digest(path) == digest(want),
                         f"{path.name}: output differs between repetitions")


def objectives(model: Path) -> dict[str, float]:
    doc = json.loads(model.read_text(encoding="utf-8"))
    return {e: c["objective"] for e, c in doc["centroids"].items()}


@dataclass
class OracleResult:
    margins: dict[str, float]  # fitted objective minus the lattice optimum
    scan_s: float


def check_oracle(ck: Checker, inp: Inputs, model: Path) -> OracleResult:
    """Each fitted objective is at least the best point of the coarse lattice."""
    from vadsphere import grid_search_centroid, parse_manifest

    manifest = parse_manifest(inp.manifest)
    neutrals = [r.vad for r in manifest.neutral_records()]
    fitted = objectives(model)
    margins, scan_s = {}, 0.0
    for emotion, value in fitted.items():
        targets = [r.vad for r in manifest.class_records(emotion)]
        start = time.perf_counter()
        lattice = grid_search_centroid(targets, neutrals, ORACLE_STEP)
        scan_s += time.perf_counter() - start
        margins[emotion] = value - lattice.objective
        ck.check(margins[emotion] >= -1e-12,
                 f"fit: '{emotion}' objective {value} below the lattice optimum "
                 f"{lattice.objective}")
    return OracleResult(margins=margins, scan_s=scan_s)
