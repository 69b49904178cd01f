"""Smoke test of the benchmark itself: python3 -m pytest bench/test_bench.py

Runs every workload at a tiny size with tracing off and on, and feeds the
correctness checks deliberately wrong answers.
"""
import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from microreg import matrix_to_csv, save_pgm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Frames(size=48, angular=120, radial=12, noise=0.05)


@pytest.fixture
def tiny_shapes(monkeypatch):
    shapes = {name: dataclasses.replace(
        shape, pairs=TINY, aligns=2, pruned=min(shape.pruned, 1),
        stack=shape.stack and TINY, stack_n=min(shape.stack_n, 6), crop=24,
        sequences=min(shape.sequences, 2), seq_length=8, max_rounds=1)
        for name, shape in workloads.SHAPES.items()}
    monkeypatch.setattr(workloads, "SHAPES", shapes)


def bench(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(list(argv))
    return rc, out.getvalue().strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean_and_emits_declared_metrics(tiny_shapes, workload,
                                                        trace):
    rc, lines = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace))
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    meta = json.loads(lines[-2])["meta"]
    assert meta["seed"] == 7 and meta["workload"] == workload
    for key in ("git_sha", "python", "numpy", "blas", "blas_threads", "nproc"):
        assert key in meta


def test_same_seed_same_inputs(tmp_path, tiny_shapes):
    a = workloads.build("matrix-stack", 3, tmp_path / "a")
    b = workloads.build("matrix-stack", 3, tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*.pgm"))
    assert files_a
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    assert [r.argv for r in a[0]] == [[x.replace(b_dir, a_dir) for x in r.argv]
                                      for r in b[0]]


def test_unknown_workload_and_missing_sources_fail_without_result(tmp_path):
    rc, lines = bench("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert rc != 0 and not lines
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "align-pairs", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


# ---- the checks reject wrong answers ---------------------------------------

def write_report(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


def align_out(tmp_path, name, **report):
    (tmp_path / f"{name}.pgm").write_bytes(b"")
    (tmp_path / f"{name}.csv").write_text("shift,score\n")
    return {"out": str(tmp_path / f"{name}.pgm"),
            "curve": str(tmp_path / f"{name}.csv"),
            "report": write_report(tmp_path / f"{name}.json", **report)}


def test_align_check_rejects_a_wrong_angle(tmp_path):
    expect = {"angle_deg": 30.0, "step_deg": 0.5}
    for ok in (30.0, 29.5, 30.5):
        checks.check_align(align_out(tmp_path, "a", angle_deg=ok), expect)
    checks.check_align(align_out(tmp_path, "a", angle_deg=0.25),
                       {"angle_deg": 359.75, "step_deg": 0.5})
    for wrong in (31.0, 210.0):
        with pytest.raises(checks.CheckFailed):
            checks.check_align(align_out(tmp_path, "a", angle_deg=wrong),
                               expect)


def test_pruned_check_rejects_a_different_shift_or_peak(tmp_path):
    expect = {"angle_deg": 30.0, "step_deg": 0.5,
              "exhaustive_report": write_report(
                  tmp_path / "full.json", angle_deg=30.0, shift=60,
                  peak_ncc=0.75)}
    counts = {"evaluated": 10, "exhaustive": 20}
    checks.check_pruned(align_out(tmp_path, "p", angle_deg=30.0, shift=60,
                                  peak_ncc=0.75 + 1e-12, op_counts=counts),
                        expect)
    for wrong in ({"angle_deg": 30.5, "shift": 61, "peak_ncc": 0.75},
                  {"angle_deg": 30.0, "shift": 60, "peak_ncc": 0.7501}):
        with pytest.raises(checks.CheckFailed):
            checks.check_pruned(align_out(tmp_path, "p", op_counts=counts,
                                          **wrong), expect)


def test_matrix_check_rejects_a_misaligned_frame(tmp_path):
    size, step, base = 64, 1.0, 40.0
    stack = tmp_path / "stack"
    aligned = tmp_path / "aligned"
    stack.mkdir()
    aligned.mkdir()
    frames = []
    for j in range(3):
        path = stack / f"f{j}.pgm"
        save_pgm(workloads.render_scene(size, base, 10.0 * j, 0.1, j), path)
        frames.append({"path": str(path), "angle_deg": 10.0 * j})
    m = np.full((3, 3), 0.5)
    np.fill_diagonal(m, 1.0)
    out = {"aligned": str(aligned), "matrix": str(tmp_path / "m.csv"),
           "prob": str(tmp_path / "p.csv")}
    matrix_to_csv(m, Path(out["matrix"]))
    matrix_to_csv((m + 1) / 2, Path(out["prob"]))
    expect = {"frames": frames, "base_deg": base, "size": size,
              "step_deg": step}

    def align_frames(errors):
        for j, err in enumerate(errors):
            save_pgm(workloads.render_scene(size, base, err, 0.1, 50 + j),
                     aligned / f"f{j}.pgm")

    align_frames([0.0, 0.0, step])          # within one step: accepted
    checks.check_matrix(out, expect)
    for wrong in (180.0, 4 * step, -30.0):
        align_frames([0.0, 0.0, wrong])
        with pytest.raises(checks.CheckFailed):
            checks.check_matrix(out, expect)
    align_frames([0.0, 0.0, 0.0])
    m[0, 1] = 0.4                            # not symmetric
    matrix_to_csv(m, Path(out["matrix"]))
    with pytest.raises(checks.CheckFailed):
        checks.check_matrix(out, expect)


def test_sequence_check_rejects_a_wrong_plan(tmp_path):
    p = np.array([[1.0, 0.8, 0.4, 0.6],
                  [0.8, 1.0, 0.5, 0.7],
                  [0.4, 0.5, 1.0, 0.6],
                  [0.6, 0.7, 0.6, 1.0]])
    table = tmp_path / "p.csv"
    matrix_to_csv(p, table)
    out = {"plan": str(tmp_path / "plan.json"),
           "frames": str(tmp_path / "frames.txt"), "table": str(table)}
    expect = {"start": 0, "length": 4}

    def plan(frames, probs):
        write_report(Path(out["plan"]), frames=frames, step_probs=probs,
                     log_chain_prob=0.0)
        Path(out["frames"]).write_text("".join(f"f{i}\n" for i in frames))

    plan([0, 1, 0, 1], [0.8, 0.8, 0.8])      # greedy: 0->1->0->1
    checks.check_sequence(out, expect)
    for frames, probs in (([0, 3, 1, 0], [0.6, 0.7, 0.8]),   # not argmax
                          ([0, 1, 0, 1], [0.8, 0.7, 0.8]),   # wrong prob
                          ([1, 0, 1, 0], [0.8, 0.8, 0.8])):  # wrong start
        plan(frames, probs)
        with pytest.raises(checks.CheckFailed):
            checks.check_sequence(out, expect)
