"""The CLI chain: one `python -m vadsphere <subcommand>` process per step.

Each workload runs the same five stages in a closed loop, one process at a
time: fit, extract, prosody, analyze, and eval (svas, metrics and pair-acc,
three processes). Every process is timed from spawn to exit, and its peak
resident set comes from `os.wait4`, both taken by the small launcher
process (see launcher.py).

This module imports nothing heavy, so the benchmark can start the launcher
before it loads numpy or generates inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from workloads import Inputs

STAGES = ("fit", "extract", "prosody", "analyze", "eval")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads(env) -> dict[str, str]:
    """Pin BLAS/OpenMP threads in `env` to at most nproc; returns the values."""
    for var in THREAD_VARS:
        env[var] = str(min(nproc(), 2))
    return {var: env[var] for var in THREAD_VARS}


def child_env(root: Path) -> dict[str, str]:
    """The environment of every CLI process: the checkout's `src` on the path,
    BLAS/OpenMP threads pinned, default logging."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("VADSPHERE_LOG", None)
    pin_threads(env)
    return env


@dataclass
class Step:
    """One finished CLI process."""

    stage: str
    args: list[str]
    wall_s: float
    exit_code: int
    max_rss_mb: float
    stderr: str


class Launcher:
    """Client of launcher.py; use as a context manager so the helper exits."""

    def __init__(self, root: Path) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=root, env=child_env(root), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def run(self, args: list[str], stage: str, log_dir: Path) -> Step:
        """Run `python -m vadsphere <args>` to completion."""
        err_path = log_dir / f"{stage}.{args[0]}.stderr"
        argv = [sys.executable, "-m", "vadsphere", *args]
        self._proc.stdin.write(json.dumps({"argv": argv, "stderr": str(err_path)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited unexpectedly")
        result = json.loads(reply)
        return Step(stage=stage, args=args, wall_s=result["wall_s"],
                    exit_code=result["exit_code"],
                    max_rss_mb=result["max_rss_kb"] / 1024.0,
                    stderr=err_path.read_text(encoding="utf-8", errors="replace"))


@dataclass(frozen=True)
class Outputs:
    """Where one chain writes its results."""

    model: Path
    easv: Path
    prosody: Path
    report: Path
    svas: Path
    metrics: Path
    pair_acc: Path

    @classmethod
    def under(cls, out_dir: Path) -> "Outputs":
        out_dir.mkdir(parents=True, exist_ok=True)
        return cls(model=out_dir / "model.json", easv=out_dir / "easv.jsonl",
                   prosody=out_dir / "prosody.jsonl", report=out_dir / "report.md",
                   svas=out_dir / "svas.tsv", metrics=out_dir / "metrics.tsv",
                   pair_acc=out_dir / "pair_acc.tsv")

    def files(self) -> list[Path]:
        return [self.model, self.easv, self.prosody, self.report, self.svas,
                self.metrics, self.pair_acc]


def stage_commands(inp: Inputs, src: Outputs, dst: Outputs,
                   jobs: int) -> list[tuple[str, list[str]]]:
    """(stage, subcommand args) for every process of the chain, in order.

    Each stage reads what earlier stages wrote from `src` and writes its
    own results to `dst`; for a whole chain both are the same.
    """
    m = str(inp.manifest)
    audio = ["--manifest", m] if inp.wav_list is None else ["--wav-list", str(inp.wav_list)]
    return [
        ("fit", ["fit", "--manifest", m, "--out", str(dst.model)]),
        ("extract", ["extract", "--manifest", m, "--model", str(src.model),
                     "--out", str(dst.easv)]),
        ("prosody", ["prosody", *audio, "--jobs", str(jobs), "--out", str(dst.prosody)]),
        ("analyze", ["analyze", "--easv", str(src.easv), "--prosody",
                     str(inp.prosody_for_analyze or src.prosody), "--manifest", m,
                     "--out", str(dst.report)]),
        ("eval", ["svas", "--synth", str(inp.svas_synth), "--ref", str(inp.svas_ref),
                  "--manifest", m, "--out", str(dst.svas)]),
        ("eval", ["metrics", "--emb-a", str(inp.emb_a), "--emb-b", str(inp.emb_b),
                  "--speaker-emb", str(inp.speaker_emb),
                  "--emotion-emb", str(inp.emotion_emb),
                  "--pred-labels", str(inp.pred_labels), "--ref-labels", str(inp.ref_labels),
                  "--track-a", str(inp.track_a), "--track-b", str(inp.track_b),
                  "--out", str(dst.metrics)]),
        ("eval", ["pair-acc", "--pairs", str(inp.pairs), "--out", str(dst.pair_acc)]),
    ]


def run_chain(launcher: Launcher, inp: Inputs, out: Outputs, jobs: int) -> list[Step]:
    """Run the whole chain; stop at the first process that exits non-zero."""
    steps = []
    for stage, args in stage_commands(inp, out, out, jobs):
        steps.append(launcher.run(args, stage, out.model.parent))
        if steps[-1].exit_code != 0:
            break
    return steps


def run_stage(launcher: Launcher, inp: Inputs, src: Outputs, dst: Outputs, jobs: int,
              stage: str) -> list[Step]:
    """Run one stage again, on the upstream results of an earlier chain."""
    return [launcher.run(args, stage, dst.model.parent)
            for name, args in stage_commands(inp, src, dst, jobs) if name == stage]


def setup_probe(launcher: Launcher, log_dir: Path) -> Step:
    """A no-work invocation: interpreter start plus the package's imports."""
    return launcher.run(["control-vec", "--emotion", "happy", "--octant", "I",
                         "--intensity", "strong"], "setup", log_dir)
