"""Smoke test of the benchmark harness itself, at toy input sizes.

    python3 -m pytest perfbench/test_harness.py -q

Runs every workload with and without tracing and checks that every metric
BENCHMARK.json names is reported and no check failed; then corrupts one
EASV line and checks that the failure is counted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# toy inputs; long enough for a few repeated stages after the first chain
TOY = ["--seconds", "12", "--scale", "0.01"]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_no_check_fails(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3", "--trace", str(trace), *TOY)
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    assert f"fail_frac 0.0 (0 of {result['attempted']} checks)" in lines


def test_corrupted_easv_raises_fail_frac():
    code, lines = bench("--workload", "many-emotions", "--seed", "3", "--trace", "0",
                        "--corrupt-easv", *TOY)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAILED extract: neutral EASV") for line in lines)


def test_same_seed_same_inputs(tmp_path):
    sys.path.insert(0, str(HERE))
    import workloads

    w = workloads.WORKLOADS["audio-prosody"].scaled(0.01)
    a = workloads.generate(w, 7, tmp_path / "a")
    b = workloads.generate(w, 7, tmp_path / "b")
    for path_a in sorted(p for p in a.workdir.rglob("*") if p.is_file()):
        path_b = b.workdir / path_a.relative_to(a.workdir)
        text_a = path_a.read_bytes().replace(bytes(tmp_path / "a"), b"")
        assert text_a == path_b.read_bytes().replace(bytes(tmp_path / "b"), b""), path_a.name


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0",
                        *TOY, cwd=tmp_path)
    assert code != 0 and lines == []


def test_every_per_layer_metric_says_what_it_should_move():
    sys.path.insert(0, str(HERE))
    from catalog import MOVES

    assert sorted(MOVES) == sorted(m["name"] for m in SPEC["per_layer"])
    code, lines = bench("--list")
    assert code == 0
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.split()[:2] == [m["name"], m["unit"]] for line in lines), m
