"""Acceptance criteria, one test per criterion, each printing a PASS line."""
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import microreg
from microreg import (correlation_matrix, chain_probability, cyclic_shift,
                      estimate_rotation, estimate_rotation_pruned,
                      greedy_sequence, ncc, normalize, rotate,
                      rotation_score_curve, to_polar, to_probability)
from microreg.cli import align_frame, load_reference, main, prepare_polar
from microreg.image import circular_crop, load_pgm, save_pgm
from microreg.polar import PolarImage
from microreg.sequencer import (load_probability_csv, load_square_csv,
                                matrix_to_csv)
from microreg.synthgen import FilamentSpec, synth_filament

from conftest import (TABLE1, assert_same_as_doubled_grid, asym_scene,
                      growth_series)

ANGLES = (0.0, 15.5, 30.0, 123.5, 270.0)


def angular_error(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def test_criterion_1_ncc_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        a = rng.normal(size=int(rng.integers(2, 50)))
        assert abs(ncc(a, a) - 1.0) <= 1e-12
        assert abs(ncc(a, -a) + 1.0) <= 1e-12
    assert abs(ncc([1, 0, 0, 0], [0, 1, 0, 0]) + 1 / 3) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: NCC correctness ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_intensity_invariance():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        s = int(rng.integers(6, 25))
        r = int(rng.integers(3, 11))
        valid = rng.random((s, r)) < 0.9
        valid[:, 0] = True
        ref = PolarImage(rng.standard_normal((s, r)), valid, float(r))
        cand_vals = rng.standard_normal((s, r))
        cand = PolarImage(cand_vals, valid, float(r))
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        scaled = PolarImage(a * cand_vals + b, valid, float(r))
        diff = np.abs(rotation_score_curve(ref, cand)
                      - rotation_score_curve(ref, scaled)).max()
        worst = max(worst, diff)
    assert worst <= 1e-9
    print(f"PASS criterion 2: intensity invariance (worst diff {worst:.2e})")


def test_criterion_3_rotation_recovery_paper_grid():
    worst = {0.0: 0.0, 0.1: 0.0}
    slowest = 0.0
    for noise, tol in ((0.0, 1.0), (0.1, 1.5)):
        for i in range(20):
            angle = ANGLES[i % len(ANGLES)]
            ref = asym_scene(noise_sigma=noise, seed=1000 + 2 * i)
            cand = rotate(asym_scene(noise_sigma=noise, seed=1001 + 2 * i),
                          angle)
            start = time.perf_counter()
            est = estimate_rotation(prepare_polar(ref, 720, 200),
                                    prepare_polar(cand, 720, 200))
            slowest = max(slowest, time.perf_counter() - start)
            err = angular_error(est.angle_deg, angle)
            worst[noise] = max(worst[noise], err)
            assert err <= tol, (noise, angle, est.angle_deg)
    assert slowest < 2.0
    print(f"PASS criterion 3: rotation recovery at 720x200 "
          f"(worst noiseless {worst[0.0]:.2f} deg, "
          f"noisy {worst[0.1]:.2f} deg, slowest pair {slowest:.2f} s)")


def test_criterion_4_pruned_search_exactness():
    rng = np.random.default_rng(104)
    cases = []
    for _ in range(200):
        s = int(rng.integers(8, 65))
        r = int(rng.integers(4, 33))
        ones = np.ones((s, r), bool)
        cases.append((PolarImage(rng.standard_normal((s, r)), ones, float(r)),
                      PolarImage(rng.standard_normal((s, r)), ones, float(r))))
    for i in range(5):
        ref = asym_scene(seed=500 + i)
        cand = rotate(asym_scene(seed=600 + i), ANGLES[i])
        cases.append((prepare_polar(ref, 720, 200),
                      prepare_polar(cand, 720, 200)))
    strictly_smaller = 0
    for ref, cand in cases:
        exact = estimate_rotation(ref, cand)
        pruned = estimate_rotation_pruned(ref, cand)
        assert pruned.shift == exact.shift
        assert abs(pruned.peak_ncc - exact.peak_ncc) <= 1e-12
        assert pruned.op_counts.evaluated <= pruned.op_counts.exhaustive
        assert_same_as_doubled_grid(pruned, ref, cand)
        strictly_smaller += (pruned.op_counts.evaluated
                             < pruned.op_counts.exhaustive)
    assert strictly_smaller >= 0.9 * len(cases)
    print(f"PASS criterion 4: pruned search exactness "
          f"({strictly_smaller}/{len(cases)} strictly fewer ops)")


def test_criterion_5_table1_reproduction(tmp_path):
    csv_path = tmp_path / "table1.csv"
    matrix_to_csv(TABLE1, csv_path)
    table = load_probability_csv(csv_path)

    plan = greedy_sequence(table, start=0, length=2)
    assert plan.frames == [0, 1]
    assert plan.step_probs[0] == 0.8
    plan = greedy_sequence(table, start=2, length=2)
    assert plan.frames == [2, 3]
    assert plan.step_probs[0] == 0.6
    assert abs(chain_probability(table, [0, 1, 3])
               - np.log(0.56)) <= 1e-12
    print("PASS criterion 5: Table 1 reproduction")


def test_criterion_6_matrix_structure():
    imgs = [asym_scene(base_deg=a, size=128) for a in (0.0, 7.0, 20.0, 95.0)]
    c = correlation_matrix(imgs, crop_size=64)
    assert np.abs(c.values - c.values.T).max() <= 1e-12
    assert np.abs(np.diag(c.values) - 1.0).max() <= 1e-12
    p = to_probability(c)
    assert p.p.min() >= 0.0 and p.p.max() <= 1.0
    assert np.array_equal(np.argmax(c.values, axis=1), np.argmax(p.p, axis=1))
    print("PASS criterion 6: correlation matrix structure")


def test_criterion_7_polar_shift_correspondence():
    f = synth_filament(FilamentSpec(size=256))
    cx = cy = 127.5
    radius = 120.0
    base = to_polar(normalize(circular_crop(f, cx, cy, radius)), 119.5, 119.5,
                    720, 200, max_radius=110.0)

    def unit(v):
        return (v - v.mean()) / v.std()

    maes = {}
    for k in (1, 40, 360):
        g = rotate(f, k * 0.5)
        moved = to_polar(normalize(circular_crop(g, cx, cy, radius)),
                         119.5, 119.5, 720, 200, max_radius=110.0)
        shifted = cyclic_shift(base, k)
        both = moved.valid & shifted.valid
        mae = np.abs(unit(moved.values[both])
                     - unit(shifted.values[both])).mean()
        assert mae <= 0.05, (k, mae)
        maes[k] = mae
    print(f"PASS criterion 7: polar/shift correspondence "
          f"(MAE {max(maes.values()):.4f} worst)")


def cli_env():
    """Environment for CLI subprocesses that imports this process's microreg.

    The children run in a temporary directory, where a relative PYTHONPATH
    (such as ``src``) points nowhere, so the directory holding the imported
    package goes first, as an absolute path; inherited entries follow it.
    """
    package_root = str(Path(microreg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_pipeline(workdir):
    env_args = dict(cwd=workdir, check=True, capture_output=True,
                    env=cli_env())
    cli = [sys.executable, "-m", "microreg.cli"]
    (workdir / "frames").mkdir()
    for i, angle in enumerate((0.0, 40.0, 310.0)):
        subprocess.run(cli + [
            "synth", "--size", "96", "--half-length", "28", "--angle",
            str(angle), "--noise", "0.05", "--seed", str(i),
            "--out", f"frames/f{i}.pgm"], **env_args)
    subprocess.run(cli + [
        "align", "--ref", "frames/f0.pgm", "--cand", "frames/f1.pgm",
        "--angular", "120", "--radial", "32",
        "--out", "aligned_f1.pgm", "--curve", "curve.csv",
        "--report", "report.json"], **env_args)
    subprocess.run(cli + [
        "matrix", "--inputs", "frames", "--crop", "32",
        "--angular", "120", "--radial", "32", "--aligned-dir", "aligned",
        "--matrix-out", "matrix.csv", "--prob-out", "probability.csv"],
        **env_args)
    subprocess.run(cli + [
        "sequence", "--matrix", "probability.csv", "--start", "0",
        "--length", "5", "--plan", "plan.json", "--frames", "frames.txt",
        "--images", "aligned"], **env_args)
    return sorted(p for p in workdir.rglob("*") if p.is_file())


def test_criterion_8_pipeline_determinism(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    try:
        files_a = run_pipeline(run_a)
        files_b = run_pipeline(run_b)
    except subprocess.CalledProcessError as err:
        pytest.fail(f"CLI step failed with exit status {err.returncode}: "
                    f"{shlex.join(err.cmd)}\n"
                    f"{err.stderr.decode(errors='replace')}")
    rel_a = [p.relative_to(run_a) for p in files_a]
    rel_b = [p.relative_to(run_b) for p in files_b]
    assert rel_a == rel_b
    for rel in rel_a:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
    print(f"PASS criterion 8: pipeline determinism "
          f"({len(rel_a)} byte-identical outputs)")


def test_exit_status_crosses_the_process_boundary(tmp_path):
    # main's return value becomes the exit status of the process
    cli = [sys.executable, "-m", "microreg.cli"]
    usage = subprocess.run(cli, cwd=tmp_path, capture_output=True,
                           env=cli_env())
    assert usage.returncode == 1
    assert usage.stderr.startswith(b"usage error: "), usage.stderr
    data = subprocess.run(cli + ["polar", "--input", "missing.pgm",
                                 "--out", "p.csv"],
                          cwd=tmp_path, capture_output=True, env=cli_env())
    assert data.returncode == 2
    assert data.stderr.startswith(b"error: ") \
        and data.stderr.count(b"\n") == 1, data.stderr
    assert b"missing.pgm" in data.stderr
    assert not list(tmp_path.iterdir())


def test_align_bytes_do_not_depend_on_blas_threads(tmp_path):
    # every sum behind a score curve is an np.einsum, which calls no BLAS
    # routine: a BLAS dot product splits its sum across threads, and rounded
    # curve.csv and report.json differently at 1 and 2 threads
    for k, angle in enumerate((0.0, 33.0)):
        save_pgm(synth_filament(FilamentSpec(
            size=256, orientation_deg=angle, noise_sigma=0.3, seed=k)),
            tmp_path / f"f{k}.pgm")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(cli_env(), OPENBLAS_NUM_THREADS=threads)
        for search in ("exhaustive", "pruned"):
            run = tmp_path / f"{search}{threads}"
            run.mkdir()
            subprocess.run([
                sys.executable, "-m", "microreg.cli", "align",
                "--ref", "../f0.pgm", "--cand", "../f1.pgm",
                "--out", "aligned.pgm", "--curve", "curve.csv",
                "--report", "report.json",
                *(["--pruned"] if search == "pruned" else [])],
                cwd=run, check=True, capture_output=True, env=env)
            outputs[search, threads] = {
                p.name: p.read_bytes() for p in sorted(run.iterdir())}
    for search in ("exhaustive", "pruned"):
        assert len(outputs[search, "1"]) == 4
        assert outputs[search, "1"] == outputs[search, "2"], search


def kendall_tau(order):
    """Kendall tau between a sequence of distinct frame indices and time."""
    m = len(order)
    signs = [np.sign(order[b] - order[a])
             for a in range(m) for b in range(a + 1, m)]
    return float(sum(signs)) / len(signs)


def test_growth_series_known_order(tmp_path):
    # the paper's claim end to end: frames of a growing filament at random
    # angles, aligned and correlated by matrix, then ordered by the greedy
    # rule. Bounds from a sweep of seeds 1-20 at sigma 0.1 (CHANGES.md):
    # worst angle error 0.46-1.57 deg, adjacency 0.81-1.00.
    start = time.perf_counter()
    images, angles = growth_series(noise_sigma=0.1, seed=1)
    n = len(images)
    (tmp_path / "frames").mkdir()
    for t, img in enumerate(images):
        save_pgm(img, tmp_path / "frames" / f"f{t:02d}.pgm")
    grid = ["--angular", "720", "--radial", "200"]
    assert main(["matrix", "--inputs", str(tmp_path / "frames"),
                 "--crop", "96", *grid,
                 "--aligned-dir", str(tmp_path / "aligned"),
                 "--matrix-out", str(tmp_path / "matrix.csv"),
                 "--prob-out", str(tmp_path / "probability.csv")]) == 0

    # matrix records no angles, so the same estimates are taken again
    paths = sorted((tmp_path / "frames").glob("*.pgm"))
    ref = load_reference(paths[0], 720, 200)
    worst = max(angular_error(align_frame(
        ref, load_pgm(path), estimate_rotation)[0].angle_deg,
        angles[t] - angles[0]) for t, path in enumerate(paths[1:], 1))

    c = load_square_csv(tmp_path / "matrix.csv")
    np.fill_diagonal(c, -np.inf)
    adjacent = np.mean(np.abs(c.argmax(axis=1) - np.arange(n)) == 1)

    # the paper's rule ends in a two-frame cycle within n - 2 steps
    frames = greedy_sequence(load_probability_csv(
        tmp_path / "probability.csv"), start=0, length=2 * n + 3).frames
    entry = next(t for t in range(len(frames) - 2)
                 if frames[t + 2] == frames[t])
    visits = list(dict.fromkeys(frames))
    elapsed = time.perf_counter() - start
    assert worst <= 2.0, worst
    assert adjacent >= 0.75, adjacent
    print(f"PASS growth series: worst angle error {worst:.2f} deg, "
          f"nearest neighbour adjacent in time {adjacent:.3f}, greedy "
          f"cycle entry step {entry}, {len(visits)} of {n} frames visited, "
          f"first-visit Kendall tau {kendall_tau(visits):+.2f} "
          f"({elapsed:.1f} s)")
