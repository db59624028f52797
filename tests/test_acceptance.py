"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test emits `[acceptance] <criterion>: PASS|FAIL`; the lines are printed
inline (visible with -s) and echoed in the terminal summary of every run.
"""

import json
import math
import time

import numpy as np
import pytest

from vadsphere import (
    AudioBuffer,
    VadPoint,
    eecs,
    estimate_f0,
    f1_vuv,
    grid_search_centroid,
    intensity_label_to_value,
    iqr_bounds,
    normalize_radius,
    orthogonality_loss,
    pair_order_accuracy,
    rmse_f0,
    solve_centroid,
    svas,
    to_cartesian,
    to_spherical,
)
from vadsphere.cli import run
from vadsphere.geometry import Centroid

from conftest import (
    ACCEPTANCE_LINES,
    random_solver_instance,
    serialize_manifest,
    sine_samples,
    synthetic_manifest,
)
from test_analysis import build_synthetic_inputs


class _criterion:
    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        line = f"[acceptance] {self.name}: {status}"
        print(line)
        ACCEPTANCE_LINES.append(line)
        return False


def test_algorithm_end_to_end(tmp_path):
    with _criterion("end-to-end fit+extract on 4x200 synthetic manifest"):
        manifest_path = tmp_path / "manifest.jsonl"
        manifest_path.write_text(
            serialize_manifest(synthetic_manifest(per_class=200, seed=2024)),
            encoding="utf-8")
        model_a = tmp_path / "model_a.json"
        easv_a = tmp_path / "easv_a.jsonl"

        start = time.perf_counter()
        assert run(["fit", "--manifest", str(manifest_path),
                    "--out", str(model_a)]) == 0
        assert run(["extract", "--manifest", str(manifest_path),
                    "--model", str(model_a), "--out", str(easv_a)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"fit+extract took {elapsed:.2f}s"

        rows = [json.loads(line) for line in easv_a.read_text().splitlines()]
        assert len(rows) == 800
        for row in rows:
            assert 0.0 <= row["r_iqr"] <= 1.0
            if row["emotion"] == "neutral":
                assert (row["r_iqr"], row["theta"], row["phi"]) == (0.0, 0.0, 0.0)

        model_b = tmp_path / "model_b.json"
        easv_b = tmp_path / "easv_b.jsonl"
        assert run(["fit", "--manifest", str(manifest_path),
                    "--out", str(model_b)]) == 0
        assert run(["extract", "--manifest", str(manifest_path),
                    "--model", str(model_b), "--out", str(easv_b)]) == 0
        assert model_a.read_bytes() == model_b.read_bytes()
        assert easv_a.read_bytes() == easv_b.read_bytes()


def test_centroid_oracle_equivalence():
    with _criterion("solver objective >= 0.01-grid objective - 1e-3 on 10 instances"):
        rng = np.random.default_rng(20240809)
        for i in range(10):
            targets, neutrals = random_solver_instance(rng, n=200)
            sol = solve_centroid(targets, neutrals)
            oracle = grid_search_centroid(targets, neutrals, step=0.01)
            assert sol.objective >= oracle.objective - 1e-3, (
                f"instance {i}: solver {sol.objective} < grid {oracle.objective}")


def test_geometry_round_trip_10k():
    with _criterion("spherical round-trip of 10,000 random vectors within 1e-9"):
        rng = np.random.default_rng(77)
        rows = []
        for _ in range(10_000):
            r = rng.uniform(1e-6, 2.0)
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            if phi <= -math.pi:
                phi = math.pi
            rows.append((r, theta, phi))
        r, theta, phi = np.array(rows).T
        back = to_spherical(to_cartesian(rows))
        assert np.all(np.abs(back[:, 0] - r) < 1e-9)
        assert np.all(np.abs(back[:, 1] - theta) < 1e-9)
        phi_delta = np.abs((back[:, 2] - phi + math.pi) % (2.0 * math.pi) - math.pi)
        assert np.all(phi_delta < 1e-9)


def test_orthogonality_loss_checks():
    with _criterion("orthogonality loss: orthogonal, parallel, oracle, rescaling"):
        s = np.tile([1.0, 0.0, 0.0], (3, 1))
        e = np.tile([0.0, 1.0, 0.0], (3, 1))
        assert orthogonality_loss(s, e) < 1e-12

        rows = np.tile([1.0, 0.0], (4, 1))
        assert orthogonality_loss(rows, rows) == 16.0

        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2))
        brute = sum((float(np.dot(a[i], b[j])) ** 2
                     / (float(np.dot(a[i], a[i])) * float(np.dot(b[j], b[j]))))
                    for i in range(3) for j in range(3))
        assert abs(orthogonality_loss(a, b) - brute) < 1e-12

        scaled = orthogonality_loss(a * rng.uniform(0.5, 2.0, (3, 1)),
                                    b * rng.uniform(0.5, 2.0, (3, 1)))
        assert abs(scaled - orthogonality_loss(a, b)) < 1e-12


def test_svas_checks():
    with _criterion("svas self-similarity and (1,1)/(1,0) closed form"):
        center = Centroid((0.5, 0.5, 0.5))
        p = VadPoint(0.8, 0.7, 0.6)
        assert abs(svas([p], [p], center)[0] - 1.0) < 1e-12
        value = eecs([[1.0, 1.0]], [[1.0, 0.0]])[0]  # the cosine of two angle vectors
        assert value == pytest.approx(0.7071, abs=1e-4)


def test_table_harness_oracle():
    with _criterion("analysis harness: exact counts, means, partition, Rc/AVG"):
        manifest, easvs, prosody, expected = build_synthetic_inputs()
        from vadsphere import ProsodySet, build_report
        report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)

        assert set(report.cells) == set(expected)
        for key, ids in expected.items():
            cell = report.cells[key]
            assert cell.count == len(ids)
            assert abs(cell.pitch_mean
                       - np.mean([prosody[i].pitch_mean_hz for i in ids])) < 1e-9
            assert abs(cell.energy_mean
                       - np.mean([prosody[i].energy_mean for i in ids])) < 1e-9
            assert abs(cell.duration_mean
                       - np.mean([prosody[i].duration_s for i in ids])) < 1e-9

        non_neutral = sum(1 for e in easvs.emotions if e != "neutral")
        assert sum(c.count for c in report.cells.values()) == non_neutral

        feature_of = {"pitch": "pitch_mean", "energy": "energy_mean",
                      "duration": "duration_mean"}
        for (emotion, octant, feature), rc_value in report.rc.items():
            means = [getattr(cell, feature_of[feature])
                     for key, cell in report.cells.items()
                     if key[0] == emotion and key[1] == octant]
            assert abs(min(means) + rc_value - max(means)) < 1e-9
        for (emotion, octant, feature), avg_value in report.avg.items():
            cells = [cell for key, cell in report.cells.items()
                     if key[0] == emotion and key[1] == octant]
            weighted = sum(getattr(c, feature_of[feature]) * c.count
                           for c in cells) / sum(c.count for c in cells)
            assert abs(avg_value - weighted) < 1e-9


def test_pitch_sweep_silence_and_self_metrics():
    with _criterion("pitch sweep < 2 Hz, silence unvoiced, self rmse/F1"):
        sr = 22050
        for freq in (80.0, 110.0, 220.0, 330.0, 400.0):
            audio = AudioBuffer(samples=sine_samples(freq, 1.0, sr), sample_rate=sr)
            track = estimate_f0(audio)
            assert track.voiced.any(), f"{freq} Hz tone produced no voiced frame"
            err = np.abs(track.f0_hz[track.voiced] - freq).mean()
            assert err < 2.0, f"{freq} Hz: mean abs error {err:.3f}"
            assert rmse_f0(track, track) == 0.0
            assert f1_vuv(track, track) == 1.0

        silence = AudioBuffer(samples=np.zeros(2 * sr), sample_rate=sr)
        track = estimate_f0(silence)
        assert not track.voiced.any()


def test_intensity_convention_and_pair_ordering():
    with _criterion("weak/medium/strong = 0.1/0.5/0.9 and pair ordering"):
        assert intensity_label_to_value("weak") == 0.1
        assert intensity_label_to_value("medium") == 0.5
        assert intensity_label_to_value("strong") == 0.9
        weak, medium, strong = 0.1, 0.5, 0.9
        pairs = [(weak, medium, True), (medium, strong, True), (weak, strong, True)]
        assert pair_order_accuracy(pairs) == 1.0


def test_normalize_radius_monotonicity_1000():
    with _criterion("normalize_radius non-decreasing over 1,000 random draws"):
        rng = np.random.default_rng(4242)
        checked = 0
        while checked < 1000:
            bounds = iqr_bounds(rng.uniform(0.0, 2.0, size=8))
            if bounds.degenerate:
                continue
            r1, r2 = np.sort(rng.uniform(-3.0, 5.0, size=2))
            assert normalize_radius(r1, bounds) <= normalize_radius(r2, bounds)
            checked += 1
