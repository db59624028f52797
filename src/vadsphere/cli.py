"""Command-line interface.

One executable, eight subcommands: fit, extract, control-vec, svas,
metrics, prosody, analyze, pair-acc. Outputs are byte-deterministic for
fixed inputs and seed. Exit codes: 0 success, 1 input or validation error
(one-line diagnostic on stderr), 2 internal failure. Nothing is written to
an --out path unless the whole computation succeeded.

Set VADSPHERE_LOG=debug|info|warning|error to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import stat
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import build_report, render_report
from .centroid import SolverConfig
from .geometry import MODE_NEUTRAL_MEAN, Centroid, StyleOctant, VadPoint, neutral_center
from .manifest import DatasetManifest, parse_manifest, read_wav
from .metrics import eca, eecs, orthogonality_loss, pair_order_accuracy, svas
from .pipeline import (
    ControlSpec,
    easv_set_from_jsonl,
    easv_set_to_jsonl,
    extract_easv_set,
    fit_easv_model,
    intensity_label_to_value,
    make_control_vector,
    model_from_json,
    model_to_json,
)
from .prosody import (
    F0Config,
    F0Track,
    ProsodyStats,
    align_tracks,
    f1_vuv,
    rmse_f0,
    rmse_period,
    track_from_text,
    utterance_prosody,
)

logger = logging.getLogger(__name__)

LOG_ENV = "VADSPHERE_LOG"


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _CliError(message)


def _emit(text: str, out_path: str | None) -> None:
    """Write to stdout, or replace `out_path` whole: a failure leaves it as it was.

    Only a regular file (or a missing one) is replaced through a temp file;
    anything else (a FIFO, /dev/null, /dev/stdout) is opened and written.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    target = Path(os.path.realpath(out_path))  # through a symlink, as a plain write goes
    try:
        target_mode = os.stat(out_path).st_mode
    except FileNotFoundError:
        target_mode = None
    if target_mode is not None and not stat.S_ISREG(target_mode):
        with open(out_path, "wb") as f:
            f.write(data)
        return
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    # open() creates with mode 0o666 & ~umask, as a plain write would
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        if target_mode is not None:  # keep an existing file's mode
            os.chmod(tmp, stat.S_IMODE(target_mode))
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_manifest(path: str, neutral_label: str) -> DatasetManifest:
    try:
        return parse_manifest(Path(path), neutral_label=neutral_label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_vectors(path: str) -> np.ndarray:
    """Line-delimited vectors: space-separated decimals, one vector per line."""
    rows = []
    line_nos = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append([float(x) for x in line.split()])
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: not a numeric vector") from None
        line_nos.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise ValueError(f"{path}: inconsistent vector dimensions")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(arr).all():
        bad_row = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise ValueError(f"{path}: line {line_nos[bad_row]}: non-finite value")
    return arr


def _read_labels(path: str) -> list[str]:
    labels = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()
              if line.strip()]
    if not labels:
        raise ValueError(f"{path}: no labels found")
    return labels


def _read_track(path: str) -> F0Track:
    try:
        return track_from_text(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_vad_points(path: str) -> list[VadPoint]:
    arr = _read_vectors(path)
    if arr.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 values per line, got {arr.shape[1]}")
    return [VadPoint(*row) for row in arr]


def _parse_intensity(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        return intensity_label_to_value(raw)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"intensity {value} outside [0, 1]")
    return value


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_iterations=args.max_iterations,
        simplex_tolerance=args.simplex_tolerance,
        random_starts=args.random_starts,
        seed=args.seed,
        denominator_epsilon=args.denominator_epsilon,
    )


def _f0_config(args) -> F0Config:
    return F0Config(f_min=args.f_min, f_max=args.f_max, window=args.window,
                    hop=args.hop, aperiodicity_threshold=args.threshold)


# ---------------------------------------------------------------------------
# subcommand handlers: compute fully, then return (text, out_path)
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> tuple[str, str | None]:
    manifest = _load_manifest(args.manifest, args.neutral_label)
    cfg = _solver_config(args)
    model = fit_easv_model(manifest, cfg)
    return model_to_json(model, cfg), args.out


def _cmd_extract(args) -> tuple[str, str | None]:
    model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
    manifest = _load_manifest(args.manifest, model.neutral_label)
    easvs = extract_easv_set(manifest, model)
    return easv_set_to_jsonl(easvs), args.out


def _cmd_control_vec(args) -> tuple[str, str | None]:
    spec = ControlSpec(
        emotion=args.emotion,
        octant=StyleOctant.from_tag(args.octant),
        intensity=_parse_intensity(args.intensity),
    )
    easv = make_control_vector(spec)
    obj = {"emotion": easv.emotion, "octant": spec.octant.tag,
           "r_iqr": easv.r_iqr, "theta": easv.theta, "phi": easv.phi}
    return json.dumps(obj) + "\n", args.out


def _cmd_svas(args) -> tuple[str, str | None]:
    synth = _read_vad_points(args.synth)
    ref = _read_vad_points(args.ref)
    if len(synth) != len(ref):
        raise ValueError(f"length mismatch: {len(synth)} synth vs {len(ref)} ref points")
    if args.center is not None:
        parts = [float(x) for x in args.center.split(",")]
        if len(parts) != 3:
            raise ValueError("--center expects 'v,a,d'")
        center = Centroid(point=tuple(parts), mode=MODE_NEUTRAL_MEAN)
    elif args.manifest is not None:
        manifest = _load_manifest(args.manifest, args.neutral_label)
        neutrals = [r.vad for r in manifest.neutral_records()]
        if not neutrals:
            raise ValueError("no neutral records in manifest to derive a center from")
        center = neutral_center(neutrals)
    else:
        raise ValueError("svas needs --manifest or --center as the neutral-center source")
    scores = [svas(s, r, center) for s, r in zip(synth, ref)]
    lines = [f"{i}\t{score!r}" for i, score in enumerate(scores)]
    lines.append(f"mean\t{float(np.mean(scores))!r}")
    return "\n".join(lines) + "\n", args.out


def _cmd_metrics(args) -> tuple[str, str | None]:
    results: list[tuple[str, float]] = []
    if (args.emb_a is None) != (args.emb_b is None):
        raise ValueError("--emb-a and --emb-b must be given together")
    if (args.speaker_emb is None) != (args.emotion_emb is None):
        raise ValueError("--speaker-emb and --emotion-emb must be given together")
    if (args.pred_labels is None) != (args.ref_labels is None):
        raise ValueError("--pred-labels and --ref-labels must be given together")
    if (args.track_a is None) != (args.track_b is None):
        raise ValueError("--track-a and --track-b must be given together")

    if args.emb_a is not None:
        a = _read_vectors(args.emb_a)
        b = _read_vectors(args.emb_b)
        if a.shape != b.shape:
            raise ValueError(f"embedding shape mismatch: {a.shape} vs {b.shape}")
        values = [eecs(ra, rb) for ra, rb in zip(a, b)]
        results.append(("eecs", float(np.mean(values))))
    if args.speaker_emb is not None:
        results.append(("orthogonality_loss", orthogonality_loss(
            _read_vectors(args.speaker_emb), _read_vectors(args.emotion_emb))))
    if args.pred_labels is not None:
        results.append(("eca", eca(_read_labels(args.pred_labels),
                                   _read_labels(args.ref_labels))))
    if args.track_a is not None:
        track_a = _read_track(args.track_a)
        track_b = _read_track(args.track_b)
        track_a, track_b = align_tracks(track_a, track_b)
        results.append(("rmse_f0", rmse_f0(track_a, track_b)))
        results.append(("rmse_period", rmse_period(track_a, track_b)))
        results.append(("f1_vuv", f1_vuv(track_a, track_b)))
    if not results:
        raise ValueError("no metric inputs supplied; see `metrics --help`")
    lines = [f"{name}\t{value!r}" for name, value in results]
    return "\n".join(lines) + "\n", args.out


def _stats_line(rec_id: str, stats: ProsodyStats) -> str:
    return json.dumps({
        "id": rec_id,
        "pitch_mean_hz": stats.pitch_mean_hz,
        "energy_mean": stats.energy_mean,
        "duration_s": stats.duration_s,
    })


def _cmd_prosody(args) -> tuple[str, str | None]:
    cfg = _f0_config(args)
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if (args.manifest is None) == (args.wav_list is None):
        raise ValueError("prosody needs exactly one of --manifest or --wav-list")
    if args.manifest is not None:
        manifest = _load_manifest(args.manifest, args.neutral_label)
        jobs_input = []
        for record in manifest.records:
            if record.audio_path is None:
                raise ValueError(f"record '{record.id}' has no audio_path")
            jobs_input.append((record.id, record.audio_path))
    else:
        paths = [line.strip() for line in
                 Path(args.wav_list).read_text(encoding="utf-8").splitlines()
                 if line.strip()]
        if not paths:
            raise ValueError(f"{args.wav_list}: no wav paths found")
        jobs_input = sorted((p, p) for p in paths)

    def work(item: tuple[str, str]) -> tuple[str, ProsodyStats]:
        rec_id, path = item
        return rec_id, utterance_prosody(read_wav(path), cfg)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            computed = list(pool.map(work, jobs_input))
    else:
        computed = [work(item) for item in jobs_input]
    lines = [_stats_line(rec_id, stats) for rec_id, stats in computed]
    return "\n".join(lines) + "\n", args.out


def _read_prosody_file(path: str) -> dict[str, ProsodyStats]:
    out: dict[str, ProsodyStats] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            pitch = obj["pitch_mean_hz"]
            stats = out[obj["id"]] = ProsodyStats(
                pitch_mean_hz=float(pitch) if pitch is not None else None,
                energy_mean=float(obj["energy_mean"]),
                duration_s=float(obj["duration_s"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: line {line_no}: bad prosody record ({exc})") from exc
        if not all(math.isfinite(v) for v in (stats.pitch_mean_hz, stats.energy_mean,
                                              stats.duration_s) if v is not None):
            raise ValueError(f"{path}: line {line_no}: non-finite value")
    return out


def _cmd_analyze(args) -> tuple[str, str | None]:
    manifest = _load_manifest(args.manifest, args.neutral_label)
    easvs = easv_set_from_jsonl(Path(args.easv).read_text(encoding="utf-8"))
    prosody = _read_prosody_file(args.prosody)
    report = build_report(easvs, prosody, manifest)
    return render_report(report, args.format), args.out


def _cmd_pair_acc(args) -> tuple[str, str | None]:
    pairs = []
    truthy = {"1", "true", "yes"}
    falsy = {"0", "false", "no"}
    for line_no, line in enumerate(Path(args.pairs).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{args.pairs}: line {line_no}: expected 'r_low r_high judged'")
        flag = parts[2].lower()
        if flag not in truthy | falsy:
            raise ValueError(f"{args.pairs}: line {line_no}: judged must be 0/1/true/false")
        r_low, r_high = float(parts[0]), float(parts[1])
        if not (math.isfinite(r_low) and math.isfinite(r_high)):
            raise ValueError(f"{args.pairs}: line {line_no}: non-finite radius")
        pairs.append((r_low, r_high, flag in truthy))
    acc = pair_order_accuracy(pairs)
    return f"pair_order_accuracy\t{acc!r}\n", args.out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=SolverConfig.seed,
                   help="seed for the solver's random starts")
    p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations,
                   help="simplex iteration cap per start")
    p.add_argument("--random-starts", type=int, default=SolverConfig.random_starts,
                   help="number of seeded random starts")
    p.add_argument("--simplex-tolerance", type=float, default=SolverConfig.simplex_tolerance,
                   help="simplex convergence tolerance")
    p.add_argument("--denominator-epsilon", type=float,
                   default=SolverConfig.denominator_epsilon,
                   help="epsilon guarding the objective denominator")


def _add_f0_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f-min", type=float, default=F0Config.f_min,
                   help="lower pitch search bound in Hz")
    p.add_argument("--f-max", type=float, default=F0Config.f_max,
                   help="upper pitch search bound in Hz")
    p.add_argument("--threshold", type=float, default=F0Config.aperiodicity_threshold,
                   help="aperiodicity threshold for the voicing decision")
    p.add_argument("--window", type=int, default=F0Config.window,
                   help="analysis window in samples")
    p.add_argument("--hop", type=int, default=F0Config.hop,
                   help="frame hop in samples")


def build_parser() -> _Parser:
    parser = _Parser(prog="vadsphere",
                     description="Emotion-adaptive spherical vectors from VAD "
                                 "annotations: fitting, extraction, metrics, and "
                                 "prosody analysis reports.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("fit", formatter_class=fmt,
                       help="fit per-emotion centroids and radius bounds from a manifest")
    p.add_argument("--manifest", required=True, help="input manifest (one JSON object per line)")
    p.add_argument("--out", default=None, help="output model JSON path (default stdout)")
    p.add_argument("--neutral-label", default="neutral", help="label of the neutral class")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("extract", formatter_class=fmt,
                       help="extract spherical vectors for every manifest record")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="model JSON produced by fit")
    p.add_argument("--out", default=None, help="output EASV jsonl path (default stdout)")
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("control-vec", formatter_class=fmt,
                       help="build a control vector from emotion, octant, and intensity")
    p.add_argument("--emotion", required=True)
    p.add_argument("--octant", required=True, help="style octant tag, I..VIII")
    p.add_argument("--intensity", required=True,
                   help="number in [0, 1] or one of weak/medium/strong")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_control_vec)

    p = sub.add_parser("svas", formatter_class=fmt,
                       help="angle similarity between paired VAD files about a neutral center")
    p.add_argument("--synth", required=True, help="synthesized VAD file, 'v a d' per line")
    p.add_argument("--ref", required=True, help="reference VAD file, 'v a d' per line")
    p.add_argument("--manifest", default=None,
                   help="manifest whose neutral records define the center")
    p.add_argument("--center", default=None, help="explicit center as 'v,a,d'")
    p.add_argument("--neutral-label", default="neutral")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_svas)

    p = sub.add_parser("metrics", formatter_class=fmt,
                       help="embedding/label/track metrics (EECS, orthogonality, ECA, "
                            "RMSE_f0, RMSE_period, F1 v/uv)")
    p.add_argument("--emb-a", default=None, help="embedding file, paired with --emb-b")
    p.add_argument("--emb-b", default=None)
    p.add_argument("--speaker-emb", default=None,
                   help="speaker embedding batch, paired with --emotion-emb")
    p.add_argument("--emotion-emb", default=None)
    p.add_argument("--pred-labels", default=None, help="predicted labels, one per line")
    p.add_argument("--ref-labels", default=None)
    p.add_argument("--track-a", default=None, help="predicted f0 track file")
    p.add_argument("--track-b", default=None, help="reference f0 track file")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("prosody", formatter_class=fmt,
                       help="per-utterance pitch/energy/duration stats from WAV files")
    p.add_argument("--manifest", default=None,
                   help="manifest with audio_path entries (ids key the output)")
    p.add_argument("--wav-list", default=None, help="file with one wav path per line")
    p.add_argument("--neutral-label", default="neutral")
    p.add_argument("--jobs", type=int, default=1, help="worker threads for per-utterance work")
    p.add_argument("--out", default=None)
    _add_f0_flags(p)
    p.set_defaults(handler=_cmd_prosody)

    p = sub.add_parser("analyze", formatter_class=fmt,
                       help="style-by-intensity prosody report from EASV and prosody files")
    p.add_argument("--easv", required=True, help="EASV jsonl produced by extract")
    p.add_argument("--prosody", required=True, help="prosody jsonl produced by prosody")
    p.add_argument("--manifest", required=True)
    p.add_argument("--neutral-label", default="neutral")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("pair-acc", formatter_class=fmt,
                       help="intensity-ordering accuracy from a pairs file")
    p.add_argument("--pairs", required=True,
                   help="file with 'r_low r_high judged' per line; judged is whether "
                        "the rater picked the second sample as stronger")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_pair_acc)

    return parser


def run(argv: list[str] | None = None) -> int:
    level = os.environ.get(LOG_ENV, "warning").strip().upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        text, out_path = args.handler(args)
        _emit(text, out_path)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        logger.exception("internal failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
