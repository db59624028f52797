"""The CLI's own handlers run in-process, with a span around each layer call.

Each stage calls `vadsphere.cli.run` with the arguments the CLI chain gives
its processes, so the program's own code runs and the stage span is
comparable with the processes' wall time: `cli.overhead_s.<stage>` is what
separate processes add on top (interpreter start-up beyond the set-up probe,
cold caches). Nothing in `src/` is changed: the layers are observed by
wrapping the module attributes the handlers look them up through, for the
duration of a traced stage only.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from vadsphere import _kernels, cli, pipeline, prosody
from vadsphere.analysis import FEATURES
from vadsphere.centroid import SolverConfig
from vadsphere.geometry import shift, to_spherical
from vadsphere.manifest import parse_manifest, read_wav
from vadsphere.pipeline import model_from_json
from vadsphere.prosody import F0Config

from spans import Tracer
from stages import STAGES, Outputs, stage_commands
from workloads import Inputs


def _rc_missing(report) -> int:
    """(emotion, octant, feature) keys of the populated groups without an Rc."""
    groups = {(emotion, octant) for emotion, octant, _ in report.cells}
    return len(groups) * len(FEATURES) - len(report.rc)


# (module, attribute, span name, counts from (args, result) or None)
SPANNED = (
    (cli, "parse_manifest", "manifest.parse", lambda a, r: {"records": len(r)}),
    (cli, "read_wav", "manifest.read_wav", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    (cli, "fit_easv_model", "pipeline.fit", None),
    (cli, "model_to_json", "pipeline.serialize", None),
    (cli, "easv_set_to_jsonl", "pipeline.serialize", None),
    (cli, "model_from_json", "pipeline.load", None),
    (cli, "easv_set_from_jsonl", "pipeline.load", None),
    (cli, "extract_easv_set", "pipeline.extract", lambda a, r: {"records": len(r)}),
    (cli, "utterance_prosody", "prosody.utterance",
     lambda a, r: {"null_pitch": int(r.pitch_mean_hz is None)}),
    (prosody, "estimate_f0", "prosody.f0",
     lambda a, r: {"frames": len(r), "voiced": int(r.voiced.sum())}),
    (prosody, "frame_energy", "prosody.energy", None),
    (cli, "build_report", "analysis.build",
     lambda a, r: {"cells": len(r.cells), "rc_missing": _rc_missing(r)}),
    (cli, "render_report", "analysis.render", None),
    (cli, "orthogonality_loss", "metrics.orthogonality", None),
    (cli, "eca", "metrics.eca", None),
    (cli, "pair_order_accuracy", "metrics.pair_acc", None),
    (_kernels, "grid_objective_values", "kernels.grid_scan",
     lambda a, r: {"lattice_points": a[0].size ** 3}),
)
# called once per pair: a running sum each instead of a span per call
SUMMED = (
    (cli, "svas", "metrics.svas"),
    (cli, "eecs", "metrics.eecs"),
)


def _spanned(tr: Tracer, name: str, fn, counts):
    def wrapper(*args, **kwargs):
        with tr.span(name) as span:
            result = fn(*args, **kwargs)
            if counts is not None:
                span.counts.update(counts(args, result))
        return result
    return wrapper


def _summed(tr: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tr.add(name, time.perf_counter() - start)
    return wrapper


@contextmanager
def instrumented(tr: Tracer):
    """Wrap every layer call the handlers make; count objective calls per solve."""
    if not tr.enabled:
        yield
        return
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def solve(fn):
        def wrapper(targets, *args, **kwargs):
            with tr.span("centroid.solve") as span:
                before = calls[0]
                result = fn(targets, *args, **kwargs)
                span.counts.update(points=len(targets), evaluations=calls[0] - before)
            return result
        return wrapper

    patches = [(m, attr, _spanned(tr, name, getattr(m, attr), counts))
               for m, attr, name, counts in SPANNED]
    patches += [(m, attr, _summed(tr, name, getattr(m, attr))) for m, attr, name in SUMMED]
    patches += [(pipeline, "solve_centroid", solve(pipeline.solve_centroid)),
                (_kernels, "distance_ratio", counted(_kernels.distance_ratio))]
    saved = [(m, attr, getattr(m, attr)) for m, attr, _ in patches]
    for m, attr, wrapper in patches:
        setattr(m, attr, wrapper)
    try:
        yield
    finally:
        for m, attr, fn in saved:
            setattr(m, attr, fn)


def run_stage(tr: Tracer, inp: Inputs, out: Outputs, jobs: int, stage: str) -> list[int]:
    """One stage's subcommands through `cli.run`; returns their exit codes."""
    with instrumented(tr), tr.stage(stage):
        return [cli.run(args) for name, args in stage_commands(inp, out, out, jobs)
                if name == stage]


def run_chains(rounds: list[list[tuple[Tracer, Outputs]]], inp: Inputs,
               jobs: int) -> list[int]:
    """Every stage in-process for every (tracer, outputs) pair of every round.

    Within a stage the runs of a round take turns, in reverse order every
    other round, so a traced and an untraced run of the same stage are
    measured back to back and neither always goes first.
    """
    codes = []
    for stage in STAGES:
        for i, runs in enumerate(rounds):
            for tr, out in (runs if i % 2 == 0 else runs[::-1]):
                codes += run_stage(tr, inp, out, jobs, stage)
    return codes


def _median_call(fn, min_calls: int, budget_s: float) -> float:
    """Median wall time of one call, over at least `min_calls` calls."""
    times: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_calls or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_timings(inp: Inputs, model_path: Path) -> dict[str, float]:
    """The public `_kernels` functions at this workload's shapes, plus the
    per-record geometry path extraction takes."""
    manifest = parse_manifest(inp.manifest)
    model = model_from_json(model_path.read_text(encoding="utf-8"))
    neutrals = np.array([r.vad.as_tuple() for r in manifest.neutral_records()])
    largest = max(model.emotions(), key=lambda e: len(manifest.class_records(e)))
    targets = np.array([r.vad.as_tuple() for r in manifest.class_records(largest)])
    m = targets.mean(axis=0)
    eps = SolverConfig.denominator_epsilon
    ratio_s = _median_call(lambda: _kernels.distance_ratio(m, targets, neutrals, eps),
                           50, 0.3)

    cfg = F0Config()
    utterances = sorted(inp.utterances.values(), key=lambda u: u.duration_s)
    audio = read_wav(utterances[len(utterances) // 2].path)
    tau_max = int(np.ceil(audio.sample_rate / cfg.f_min))
    frames = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(
        audio.samples, cfg.window + tau_max)[::cfg.hop])
    yin_s = _median_call(lambda: _kernels.yin_difference(frames, cfg.window, tau_max), 10, 0.3)

    records = [r for r in manifest.records if r.emotion in model.centroids]
    start = time.perf_counter()
    for r in records:
        to_spherical(shift(r.vad, model.centroids[r.emotion]))
    spherical_s = time.perf_counter() - start
    return {
        "kernels.distance_ratio_us": ratio_s * 1e6,
        "kernels.yin_difference_ms": yin_s * 1e3,
        "kernels.using_numba": int(_kernels.USING_NUMBA),
        "geometry.spherical_us_per_record": spherical_s / len(records) * 1e6,
    }
