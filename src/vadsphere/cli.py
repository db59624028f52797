"""Command-line interface.

One executable, eight subcommands: fit, extract, control-vec, svas,
metrics, prosody, analyze, pair-acc. Outputs are byte-deterministic for
fixed inputs. Exit codes: 0 success, 1 input or validation error
(one-line diagnostic on stderr), 2 internal failure.

Each handler computes its whole result and returns it as text, lines that
each end in a newline; only `run` writes it, to stdout or to the --out path
that every subcommand takes. Nothing is written to an --out path unless the
whole computation succeeded.

Vector and VAD files are decoded by column and diagnosed by line: the whole
file goes through np.loadtxt, and only a file it cannot read as equal rows
goes through the per-line parser, `_parse_vector`, which defines the format
and names the faulty line. The accepted syntax is that of the per-line
parser; manifests, EASV and prosody files follow the same rule (see
`manifest`).

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
from .geometry import Centroid, RowError, StyleOctant, check_in_cube, neutral_center
from .manifest import (
    line_error,
    numbered_lines,
    parse_lines,
    parse_manifest,
    read_wav,
    unique_ids,
)
from .metrics import eca, eecs, orthogonality_loss, pair_order_accuracy, svas
from .pipeline import (
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
    ProsodySet,
    ProsodyStats,
    align_tracks,
    f1_vuv,
    prosody_set_from_jsonl,
    prosody_set_to_jsonl,
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
    def __init__(self, *args, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

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
    try:
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
    except OSError as exc:  # name the path given, not the random temp file
        raise OSError(exc.errno, exc.strerror, out_path) from None


def _parse_file(path: str, parse, *args):
    """parse(text of the file at path, *args), with the path prefixed to a ValueError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _nonblank(text: str, parse_line, what: str) -> tuple[list[int], list]:
    """parse_lines(text, parse_line), which must find at least one line."""
    numbered = parse_lines(text, parse_line)
    if not numbered[0]:
        raise ValueError(f"no {what} found")
    return numbered


def _stripped_lines(text: str, what: str) -> list[str]:
    """The non-blank lines, stripped: a label file."""
    return _nonblank(text, str.strip, what)[1]


def _wav_paths(text: str) -> list[str]:
    """A wav list's paths, sorted; a path is its id, so it is listed once."""
    line_nos, paths = _nonblank(text, str.strip, "wav paths")
    unique_ids(line_nos, paths)
    return sorted(paths)


def _parse_vector(line: str) -> np.ndarray:
    try:  # one small array per row: a list of floats per row costs ~3x the memory
        return np.array([float(x) for x in line.split()])
    except ValueError:
        raise ValueError("not a numeric vector") from None


def _decode_vectors(text: str) -> tuple[list[int], np.ndarray] | None:
    """The line numbers and array of `text` when np.loadtxt reads each non-blank
    line as one row of equal width; None where it cannot (ragged rows, `1_0`,
    non-ASCII digits, ...), which the per-line path then reads or names."""
    line_nos, lines = numbered_lines(text)
    if not line_nos:  # loadtxt warns on input without data
        return None
    try:
        arr = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return (line_nos, arr) if len(arr) == len(line_nos) else None


def _vectors_by_line(text: str) -> tuple[list[int], np.ndarray]:
    """The line numbers and array of `text`, read by _parse_vector line by line."""
    line_nos, rows = _nonblank(text, _parse_vector, "vectors")
    odd = next((n for n, row in zip(line_nos, rows) if len(row) != len(rows[0])), None)
    if odd is not None:
        raise line_error(odd, "inconsistent vector dimensions")
    return line_nos, np.asarray(rows, dtype=np.float64)


def _parse_vectors(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Line-delimited vectors, space-separated decimals: their line numbers and array."""
    line_nos, arr = _decode_vectors(text) or _vectors_by_line(text)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise line_error(line_nos[int(np.argmin(finite))], "non-finite value")
    return np.array(line_nos), arr  # an int array: a tuple of ints is ~4x the memory


def _parse_vad_points(text: str) -> tuple[np.ndarray, np.ndarray]:
    """A VAD file: its line numbers and (n, 3) array of points in the unit cube."""
    line_nos, arr = _parse_vectors(text)
    if arr.shape[1] != 3:
        raise ValueError(f"expected 3 values per line, got {arr.shape[1]}")
    try:
        check_in_cube(arr)
    except RowError as exc:
        raise line_error(line_nos[exc.row], exc) from exc
    return line_nos, arr


def _row_fault(exc: RowError, *inputs: tuple[str, np.ndarray]) -> ValueError:
    """exc, raised over the arrays read from `inputs` (path, line numbers),
    as the error naming the file and line of the faulty row."""
    path, line_nos = inputs[exc.arg]
    return ValueError(f"{path}: {line_error(line_nos[exc.row], exc)}")


def _vector_files_metric(metric, path_a: str, path_b: str):
    """metric(a, b) over the same-shape vector arrays of two files; a RowError
    names its file and line."""
    (a_lines, a), (b_lines, b) = (_parse_file(path, _parse_vectors) for path in (path_a, path_b))
    if a.shape != b.shape:
        raise ValueError(f"embedding shape mismatch: {a.shape} vs {b.shape}")
    try:
        return metric(a, b)
    except RowError as exc:
        raise _row_fault(exc, (path_a, a_lines), (path_b, b_lines)) from exc


def _parse_intensity(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        return intensity_label_to_value(raw)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"intensity {value} outside [0, 1]")
    return value


def _tsv(rows) -> str:
    """One `name<TAB>repr(value)` line per (name, value) row."""
    return "".join(f"{name}\t{value!r}\n" for name, value in rows)


def _f0_config(args) -> F0Config:
    return F0Config(f_min=args.f_min, f_max=args.f_max, window=args.window,
                    hop=args.hop, aperiodicity_threshold=args.threshold)


# ---------------------------------------------------------------------------
# subcommand handlers: compute fully, then return the text to write
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> str:
    manifest = _parse_file(args.manifest, parse_manifest, args.neutral_label)
    return model_to_json(fit_easv_model(manifest))


def _cmd_extract(args) -> str:
    model = _parse_file(args.model, model_from_json)
    manifest = _parse_file(args.manifest, parse_manifest, model.neutral_label)
    easvs = extract_easv_set(manifest, model)
    return easv_set_to_jsonl(easvs)


def _cmd_control_vec(args) -> str:
    octant = StyleOctant.from_tag(args.octant)
    easv = make_control_vector(args.emotion, octant, _parse_intensity(args.intensity))
    obj = {"emotion": args.emotion, "octant": octant.tag, "r_iqr": float(easv.r_iqr[0]),
           "theta": float(easv.theta[0]), "phi": float(easv.phi[0])}
    return json.dumps(obj) + "\n"


def _cmd_svas(args) -> str:
    synth_lines, synth = _parse_file(args.synth, _parse_vad_points)
    ref_lines, ref = _parse_file(args.ref, _parse_vad_points)
    if args.center is not None:
        try:
            parts = [float(x) for x in args.center.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3:
            raise ValueError(f"--center expects 'v,a,d', got {args.center!r}")
        center = Centroid(point=tuple(parts))
    else:
        manifest = _parse_file(args.manifest, parse_manifest, args.neutral_label)
        neutrals = manifest.class_rows().get(manifest.neutral_label)
        if neutrals is None:
            raise ValueError("no neutral records in manifest to derive a center from")
        center = neutral_center(manifest.vad[neutrals])
    try:
        scores = svas(synth, ref, center)
    except RowError as exc:
        raise _row_fault(exc, (args.synth, synth_lines), (args.ref, ref_lines)) from exc
    return _tsv([*enumerate(scores.tolist()), ("mean", float(np.mean(scores)))])


# the input flags of `metrics`, each given with its pair or not at all
_METRIC_PAIRS = (("emb_a", "emb_b"), ("speaker_emb", "emotion_emb"),
                 ("pred_labels", "ref_labels"), ("track_a", "track_b"))


def _cmd_metrics(args) -> str:
    for a, b in _METRIC_PAIRS:
        if (getattr(args, a) is None) != (getattr(args, b) is None):
            flag_a, flag_b = ("--" + dest.replace("_", "-") for dest in (a, b))
            raise ValueError(f"{flag_a} and {flag_b} must be given together")

    results: list[tuple[str, float]] = []
    if args.emb_a is not None:
        values = _vector_files_metric(eecs, args.emb_a, args.emb_b)
        results.append(("eecs", float(np.mean(values))))
    if args.speaker_emb is not None:
        results.append(("orthogonality_loss", _vector_files_metric(
            orthogonality_loss, args.speaker_emb, args.emotion_emb)))
    if args.pred_labels is not None:
        results.append(("eca", eca(_parse_file(args.pred_labels, _stripped_lines, "labels"),
                                   _parse_file(args.ref_labels, _stripped_lines, "labels"))))
    if args.track_a is not None:
        track_a = _parse_file(args.track_a, track_from_text)
        track_b = _parse_file(args.track_b, track_from_text)
        track_a, track_b = align_tracks(track_a, track_b)
        results.append(("rmse_f0", rmse_f0(track_a, track_b)))
        results.append(("rmse_period", rmse_period(track_a, track_b)))
        results.append(("f1_vuv", f1_vuv(track_a, track_b)))
    if not results:
        raise ValueError("no metric inputs supplied; see `metrics --help`")
    return _tsv(results)


def _cmd_prosody(args) -> str:
    cfg = _f0_config(args)
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    source = args.manifest if args.manifest is not None else args.wav_list
    if args.manifest is not None:
        manifest = _parse_file(args.manifest, parse_manifest)
        jobs_input = list(zip(manifest.ids, manifest.audio_paths))
        for rec_id, path in jobs_input:
            if path is None:
                raise ValueError(f"{args.manifest}: record '{rec_id}' has no audio_path")
    else:
        jobs_input = [(p, p) for p in _parse_file(args.wav_list, _wav_paths)]

    def work(item: tuple[str, str]) -> tuple[str, ProsodyStats]:
        rec_id, path = item
        try:
            return rec_id, utterance_prosody(read_wav(path), cfg)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{source}: {path}: {exc}") from exc

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        computed = list(pool.map(work, jobs_input))
    return prosody_set_to_jsonl(ProsodySet.from_stats(dict(computed)))


def _cmd_analyze(args) -> str:
    manifest = _parse_file(args.manifest, parse_manifest, args.neutral_label)
    easvs = _parse_file(args.easv, easv_set_from_jsonl)
    prosody = _parse_file(args.prosody, prosody_set_from_jsonl)
    report = build_report(easvs, prosody, manifest)
    return render_report(report, args.format)


def _parse_pair(line: str) -> tuple[float, float, bool]:
    parts = line.split()
    if len(parts) != 3:
        raise ValueError("expected 'r_low r_high judged'")
    flag = parts[2].lower()
    if flag not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("judged must be 0/1/true/false")
    try:
        r_low, r_high = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError("non-numeric radius") from None
    if not (math.isfinite(r_low) and math.isfinite(r_high)):
        raise ValueError("non-finite radius")
    return r_low, r_high, flag in ("1", "true", "yes")


def _cmd_pair_acc(args) -> str:
    pairs = _parse_file(args.pairs, _nonblank, _parse_pair, "pairs")[1]
    return _tsv([("pair_order_accuracy", pair_order_accuracy(pairs))])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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

    p = sub.add_parser("fit", help="fit per-emotion centroids and radius bounds from a manifest")
    p.add_argument("--manifest", required=True, help="input manifest (one JSON object per line)")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("extract", help="extract spherical vectors for every manifest record")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="model JSON produced by fit")
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("control-vec",
                       help="build a control vector from emotion, octant, and intensity")
    p.add_argument("--emotion", required=True)
    p.add_argument("--octant", required=True, help="style octant tag, I..VIII")
    p.add_argument("--intensity", required=True,
                   help="number in [0, 1] or one of weak/medium/strong")
    p.set_defaults(handler=_cmd_control_vec)

    p = sub.add_parser("svas",
                       help="angle similarity between paired VAD files about a neutral center")
    p.add_argument("--synth", required=True, help="synthesized VAD file, 'v a d' per line")
    p.add_argument("--ref", required=True, help="reference VAD file, 'v a d' per line")
    center = p.add_mutually_exclusive_group(required=True)
    center.add_argument("--manifest", help="manifest whose neutral records define the center")
    center.add_argument("--center", help="explicit center as 'v,a,d'")
    p.set_defaults(handler=_cmd_svas)

    p = sub.add_parser("metrics",
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
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("prosody", help="per-utterance pitch/energy/duration stats from WAV files")
    audio = p.add_mutually_exclusive_group(required=True)
    audio.add_argument("--manifest", help="manifest with audio_path entries (ids key the output)")
    audio.add_argument("--wav-list", help="file with one wav path per line")
    p.add_argument("--jobs", type=int, default=1, help="worker threads for per-utterance work")
    _add_f0_flags(p)
    p.set_defaults(handler=_cmd_prosody)

    p = sub.add_parser("analyze",
                       help="style-by-intensity prosody report from EASV and prosody files")
    p.add_argument("--easv", required=True, help="EASV jsonl produced by extract")
    p.add_argument("--prosody", required=True, help="prosody jsonl produced by prosody")
    p.add_argument("--manifest", required=True)
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("pair-acc", help="intensity-ordering accuracy from a pairs file")
    p.add_argument("--pairs", required=True,
                   help="file with 'r_low r_high judged' per line; judged is whether "
                        "the rater picked the second sample as stronger")
    p.set_defaults(handler=_cmd_pair_acc)

    for name, p in sub.choices.items():
        p.add_argument("--out", help="file the result replaces whole (stdout when omitted)")
        if name in ("fit", "svas", "analyze"):
            p.add_argument("--neutral-label", default="neutral",
                           help="label of the neutral class")
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
        _emit(args.handler(args), args.out)
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
