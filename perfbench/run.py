#!/usr/bin/env python3
"""Pipeline benchmark for vadsphere: seeded inputs through the real CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vad-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list        # every metric, its unit, what it should move

Each run generates the workload's inputs from the seed and runs the CLI
chain (fit, extract, prosody, analyze, eval; one process at a time) once.
Until `--seconds` is used up it then runs single stages again, and the
no-work invocation that measures set-up time: each a second time first,
then always the one with the least measured time so far, so short stages
get more samples. Every output is checked, repeated ones for byte
equality. With `--trace 0` it reports the end-to-end metrics of
BENCHMARK.json, each time the median of its samples. With `--trace 1` it
runs every stage twice through the CLI, then the CLI's handlers in-process
(traced.py) in two rounds of an untraced and a traced chain, and reports the
per-layer metrics, span figures as medians over the rounds; the in-process
outputs must equal the CLI's byte for byte. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 when every check passed, 1 when a check failed (the result
is still printed), 2 when the benchmark could not run (nothing printed).
Inputs and outputs live under `.perfbench_work/` in the checkout and are
removed at the end; the spans and the full result stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stages import (STAGES, Launcher, Outputs, nproc, pin_threads, run_chain, run_stage,
                    setup_probe, stage_commands)

WORK_DIR = ".perfbench_work"
SETUP_PROBES = 3
TRACE_ROUNDS = 2  # in-process chains per mode with --trace 1, in ABBA order


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement time; the whole chain always runs once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every metric and exit")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every input size (the harness's own tests use small ones)")
    p.add_argument("--corrupt-easv", action="store_true",
                   help="overwrite one neutral EASV line before the checks "
                        "(the harness's own tests use it to see a check fail)")
    return p


def _spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} not found; run from the root of a checkout")
    return json.loads(path.read_text(encoding="utf-8"))


def print_catalog(spec: dict) -> None:
    from catalog import MOVES

    print("end-to-end metrics (trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<34} {m['unit']:<8} {m['better']:<7} bound {m['bound']}")
    print("per-layer metrics (trace 1), and the end-to-end metric each should move:")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<34} {m['unit']:<8} {MOVES.get(m['name'], '?')}")
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<16} {w['why']}")


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(root: Path, args, threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {"git_sha": _git_sha(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": nproc(),
            "threads": threads, "prosody_jobs": nproc(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale}


def _stage_walls(steps) -> dict[str, float]:
    return {stage: sum(s.wall_s for s in steps if s.stage == stage) for stage in STAGES}


def end_to_end(samples: dict[str, list[float]], steps, inp,
               fit_objective: float) -> dict[str, float]:
    """Each time is the median of its samples; pipeline_s adds the stages'."""
    stage = {name: statistics.median(values) for name, values in samples.items()}
    pipeline_s = sum(stage[name] for name in STAGES)
    return {
        "setup_s": stage["setup"],
        "pipeline_s": pipeline_s,
        "records_per_s": inp.n_records / pipeline_s,
        **{f"{name}_s": stage[name] for name in STAGES},
        "audio_x_realtime": inp.audio_seconds / stage["prosody"],
        "peak_rss_mb": max(s.max_rss_mb for s in steps),
        "fit_objective": fit_objective,
    }


def span_metrics(tr) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced in-process chain."""
    solves = [s.duration for s in tr.named("centroid.solve")]
    utterances = sorted(s.duration for s in tr.named("prosody.utterance"))
    deciles = statistics.quantiles(utterances, n=10, method="inclusive")
    frames = tr.count("prosody.f0", "frames")
    return {
        "manifest.parse_s": tr.total("manifest.parse"),
        "manifest.parse_us_per_record": tr.total("manifest.parse")
        / tr.count("manifest.parse", "records") * 1e6,
        "manifest.read_wav_s": tr.total("manifest.read_wav"),
        "manifest.audio_mb": tr.count("manifest.read_wav", "bytes") / 1e6,
        "centroid.solve_s": sum(solves),
        "centroid.solve_max_s": max(solves),
        "centroid.solve_ms_per_class": sum(solves) / len(solves) * 1e3,
        "centroid.evaluations": tr.count("centroid.solve", "evaluations"),
        "pipeline.fit_self_s": tr.self_total("pipeline.fit"),
        "pipeline.extract_s": tr.total("pipeline.extract"),
        "pipeline.serialize_s": tr.total("pipeline.serialize"),
        "pipeline.load_s": tr.total("pipeline.load"),
        "prosody.utterance_ms_p50": statistics.median(utterances) * 1e3,
        "prosody.utterance_ms_p90": deciles[8] * 1e3,
        "prosody.f0_s": tr.total("prosody.f0"),
        "prosody.energy_s": tr.total("prosody.energy"),
        "prosody.frames": frames,
        "prosody.voiced_frac": tr.count("prosody.f0", "voiced") / frames,
        "prosody.null_pitch_utts": tr.count("prosody.utterance", "null_pitch"),
        "analysis.build_s": tr.total("analysis.build"),
        "analysis.render_s": tr.total("analysis.render"),
        "analysis.cells": tr.count("analysis.build", "cells"),
        "analysis.rc_missing": tr.count("analysis.build", "rc_missing"),
        "metrics.svas_s": tr.total("metrics.svas"),
        "metrics.eecs_s": tr.total("metrics.eecs"),
        "metrics.orthogonality_s": tr.total("metrics.orthogonality"),
        "metrics.eca_s": tr.total("metrics.eca"),
        "metrics.pair_acc_s": tr.total("metrics.pair_acc"),
    }


def _stage_spans(tracer) -> dict[str, float]:
    return {s.name: s.duration for s in tracer.spans if s.name in STAGES}


def per_layer(rounds, cli_medians, procs, setup_s, inp, out) -> dict[str, float]:
    """Per-layer metrics; span figures are medians over the rounds.

    `rounds` holds (untraced, traced) tracer pairs of in-process chains;
    `cli_medians` the median CLI wall time of each stage, made of `procs`
    processes; `out` the CLI chain's outputs.
    """
    from checks import pitch_errors

    def median(values):
        return statistics.median(list(values))

    traced = [span_metrics(tr) for _, tr in rounds]
    metrics = {name: median(m[name] for m in traced) for name in traced[0]}
    easvs = [json.loads(line) for line in out.easv.read_text(encoding="utf-8").splitlines()]
    emotional = [e["r_iqr"] for e in easvs if e["emotion"] != "neutral"]
    errors = pitch_errors(inp, out.prosody)
    metrics.update({
        "cli.out_bytes": sum(p.stat().st_size for p in out.files()),
        "pipeline.clamped_frac": sum(r in (0.0, 1.0) for r in emotional) / len(emotional),
        "prosody.pitch_mae_hz": sum(errors) / len(errors),
    })
    untraced = [_stage_spans(tu) for tu, _ in rounds]
    for stage in STAGES:
        metrics[f"cli.overhead_s.{stage}"] = (cli_medians[stage] - procs[stage] * setup_s
                                              - median(u[stage] for u in untraced))
    metrics["trace.overhead_frac"] = median(
        sum(_stage_spans(tr).values()) / sum(_stage_spans(tu).values()) - 1.0
        for tu, tr in rounds)
    return metrics


def measure(args, root: Path, launcher: Launcher, run_dir: Path):
    """Generate, run, check; returns (checker, metrics, extra facts)."""
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.scale != 1.0:
        w = w.scaled(args.scale)
    inp = workloads.generate(w, args.seed, run_dir / "inputs")
    jobs = nproc()
    ck = checks.Checker()

    # One whole chain, then single stages again (setup probes included).
    # With --trace 0, until --seconds is used up: first every stage a second
    # time, then always the one with the least measured time so far, so that
    # short stages get more samples. With --trace 1, every stage once more.
    start = time.perf_counter()
    steps = [setup_probe(launcher, run_dir) for _ in range(SETUP_PROBES)]
    first = Outputs.under(run_dir / "chain")
    chain = run_chain(launcher, inp, first, jobs)
    steps += chain
    samples = {"setup": [s.wall_s for s in steps[:SETUP_PROBES]]}
    samples.update({stage: [wall] for stage, wall in _stage_walls(chain).items()})
    complete = len(chain) == len(stage_commands(inp, first, first, jobs))
    repeats: list[Outputs] = []

    def again(stage: str) -> bool:
        if stage == "setup":
            ran = [setup_probe(launcher, run_dir)]
        else:
            repeats.append(Outputs.under(run_dir / f"repeat{len(repeats)}"))
            ran = run_stage(launcher, inp, first, repeats[-1], jobs, stage)
        steps.extend(ran)
        samples[stage].append(sum(s.wall_s for s in ran))
        return not any(s.exit_code for s in ran)

    if complete and args.trace:
        complete = all(again(stage) for stage in STAGES)
    while complete and not args.trace:
        remaining = args.seconds - (time.perf_counter() - start)
        fits = [k for k, v in samples.items() if statistics.median(v) <= remaining]
        if not fits or not again(min(fits, key=lambda k: (len(samples[k]) > 1,
                                                          sum(samples[k])))):
            break

    if args.corrupt_easv:
        lines = first.easv.read_text(encoding="utf-8").splitlines()
        i = next(i for i, line in enumerate(lines) if '"neutral"' in line)
        lines[i] = lines[i].replace('"r_iqr": 0.0', '"r_iqr": 0.5')
        first.easv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    checks.check_exits(ck, steps)
    ck.check(complete, f"chain stopped after {len(chain)} processes")
    facts = {"samples_s": samples}
    if not complete:
        return ck, None, facts
    refs = checks.references(inp)
    checks.check_outputs(ck, inp, first, refs)
    checks.check_repeatable(ck, first, repeats)

    if not args.trace:
        oracle = checks.check_oracle(ck, inp, first.model)
        fitted = checks.objectives(first.model)
        metrics = end_to_end(samples, steps, inp, sum(fitted.values()) / len(fitted))
        return ck, metrics, {**facts, "oracle_margins": oracle.margins}

    import traced
    from spans import Tracer

    rounds = [[(Tracer(enabled=False), Outputs.under(run_dir / f"inproc{i}-untraced")),
               (Tracer(enabled=True), Outputs.under(run_dir / f"inproc{i}-traced"))]
              for i in range(TRACE_ROUNDS)]
    codes = traced.run_chains(rounds, inp, jobs)
    ck.check(codes == [0] * len(codes), f"in-process CLI exit codes {codes}")
    for runs in rounds:
        for _, out in runs:
            for path, want in zip(out.files(), first.files()):
                ck.check(checks.digest(path) == checks.digest(want),
                         f"in-process {path.name} differs from the CLI's")
    oracle_tracer = Tracer(enabled=True)
    with traced.instrumented(oracle_tracer), oracle_tracer.stage("oracle"):
        oracle = checks.check_oracle(ck, inp, first.model)
    procs = {stage: sum(1 for s in chain if s.stage == stage) for stage in STAGES}
    metrics = per_layer([(tu, tr) for (tu, _), (tr, _) in rounds],
                        {stage: statistics.median(samples[stage]) for stage in STAGES},
                        procs, statistics.median(samples["setup"]), inp, first)
    metrics["centroid.oracle_margin_min"] = min(oracle.margins.values())
    metrics["kernels.grid_scan_s"] = oracle_tracer.total("kernels.grid_scan")
    metrics.update(traced.kernel_timings(inp, first.model))
    for i, runs in enumerate(rounds):
        runs[1][0].write(root / WORK_DIR / f"spans-{args.workload}-s{args.seed}-r{i}.json")
    # differences of two measured times: below zero only by noise
    negative = sorted(name for name, value in metrics.items()
                      if "overhead" in name and value < 0)
    return ck, metrics, {**facts, "trace_rounds": TRACE_ROUNDS, "cli_samples_per_stage": 2,
                         "negative_overheads": negative}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    try:
        spec = _spec(root)
        if args.list:
            print_catalog(spec)
            return 0
        if args.workload is None:
            raise BenchmarkError("--workload is required")
        if not (root / "src" / "vadsphere" / "__init__.py").is_file():
            raise BenchmarkError("src/vadsphere not found; run from the root of a checkout")
        threads = pin_threads(os.environ)  # before numpy is imported here
        sys.path.insert(0, str(root / "src"))
        run_dir = root / WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            with Launcher(root) as launcher:
                ck, metrics, facts = measure(args, root, launcher, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    result = {"correct": ck.failed == 0, "attempted": ck.attempted, "failed": ck.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()} if metrics else {}}
    prov = provenance(root, args, threads)
    for failure in ck.failures:
        print(f"FAILED {failure}")
    for name in facts.get("negative_overheads", []):
        print(f"NOTE {name} is below zero: the difference is within the noise")
    for name, entry in result["metrics"].items():
        print(f"{name:<34} {entry['value']:>16.6g} {entry['unit']}")
    print(f"fail_frac {ck.failed / ck.attempted} ({ck.failed} of {ck.attempted} checks)")
    print(f"provenance {json.dumps({**prov, **facts})}")
    (root / WORK_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"provenance": {**prov, **facts}, **result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
