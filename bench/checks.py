"""Correctness checks for every benchmark request.

Each check reads the files the CLI wrote, with parsers of its own rather
than the program's, and raises CheckFailed on a wrong answer. None depends
on the order of a float summation inside the program: angles are compared in
whole angular steps, the pruned peak to 1e-9, table properties to 1e-12 and
sequence steps by exact argmax over the table the program itself read, so
rewrites of the NCC kernels (FFT, Gram matrices) still pass.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import render_scene

# An aligned frame is compared with noiseless renders of the reference scene
# over the pixels where they carry signal. Aligned within one angular step it
# correlates with the true orientation above this floor (about 0.9 at the
# benchmark's noise) and better than with the rivals RIVAL_STEPS steps away
# or turned 180 degrees, the ambiguity of a lone filament.
ALIGN_NCC_FLOOR = 0.6
RIVAL_STEPS = 4
PRUNED_PEAK_TOL = 1e-9
TABLE_TOL = 1e-12


class CheckFailed(Exception):
    pass


def read_pgm(path) -> np.ndarray:
    """Pixels of a binary 8-bit P5 file as written by ``microreg.save_pgm``."""
    data = Path(path).read_bytes()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or maxval != b"255":
        raise CheckFailed(f"{path}: not an 8-bit P5 PGM")
    w, h = int(w), int(h)
    return np.frombuffer(data[-w * h:], dtype=np.uint8).reshape(h, w).astype(
        np.float64)


def read_table(path) -> np.ndarray:
    """Square CSV with a header row of column indices."""
    t = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if t.shape[0] != t.shape[1]:
        raise CheckFailed(f"{path}: {t.shape} table is not square")
    return t


def _angle_error(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def check_align(out: dict, expect: dict) -> None:
    """The reported angle is within one angular step of the true angle."""
    report = json.loads(Path(out["report"]).read_text())
    err = _angle_error(report["angle_deg"], expect["angle_deg"])
    if err > expect["step_deg"] + 1e-9:
        raise CheckFailed(f"angle {report['angle_deg']} is {err:.3f} deg from "
                          f"the true {expect['angle_deg']}")
    if not Path(out["out"]).is_file() or not Path(out["curve"]).is_file():
        raise CheckFailed("align wrote no aligned image or curve")


def check_pruned(out: dict, expect: dict) -> None:
    """Same shift as the exhaustive search of the same pair, same peak."""
    check_align(out, expect)
    report = json.loads(Path(out["report"]).read_text())
    full = json.loads(Path(expect["exhaustive_report"]).read_text())
    if report["shift"] != full["shift"]:
        raise CheckFailed(f"pruned shift {report['shift']} != exhaustive "
                          f"{full['shift']}")
    if abs(report["peak_ncc"] - full["peak_ncc"]) > PRUNED_PEAK_TOL:
        raise CheckFailed(f"pruned peak {report['peak_ncc']!r} != exhaustive "
                          f"{full['peak_ncc']!r}")
    counts = report.get("op_counts") or {}
    if not 0 < counts.get("evaluated", 0) <= counts.get("exhaustive", 0):
        raise CheckFailed(f"bad op counts {counts}")


def stack_templates(expect: dict):
    """Noiseless renders of the reference scene at the true orientation and at
    the rivals a wrong alignment lands on, with the mask where they carry
    signal. Row 0 is the truth."""
    step, size, base = expect["step_deg"], expect["size"], expect["base_deg"]
    angles = (0.0, RIVAL_STEPS * step, -RIVAL_STEPS * step, 180.0)
    t = np.stack([render_scene(size, base, a, 0.0, 0).pixels for a in angles])
    mask = (t > 0.05 * t.max()).any(axis=0)
    return t[:, mask], mask


def aligned_scores(aligned: np.ndarray, templates: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
    """NCC of an aligned frame with each template over the signal mask."""
    z = lambda v: (v - v.mean(axis=-1, keepdims=True)) / v.std(
        axis=-1, keepdims=True)
    return z(templates) @ z(aligned[mask]) / mask.sum()


def check_matrix(out: dict, expect: dict) -> None:
    """Symmetric unit-diagonal table in [-1, 1], probabilities (m+1)/2, and
    every aligned frame correlating with the true reference orientation
    above the floor and better than with a rival orientation."""
    frames = expect["frames"]
    m = read_table(out["matrix"])
    if m.shape[0] != len(frames):
        raise CheckFailed(f"matrix is {m.shape[0]}x{m.shape[0]} for "
                          f"{len(frames)} frames")
    if np.abs(m - m.T).max() > TABLE_TOL:
        raise CheckFailed("matrix is not symmetric")
    if np.abs(np.diag(m) - 1.0).max() > TABLE_TOL:
        raise CheckFailed("matrix diagonal is not 1")
    if np.abs(m).max() > 1.0:
        raise CheckFailed("matrix entry outside [-1, 1]")
    p = read_table(out["prob"])
    if p.shape != m.shape or np.abs(p - (m + 1.0) / 2.0).max() > TABLE_TOL:
        raise CheckFailed("probability table is not (matrix + 1) / 2")
    templates, mask = stack_templates(expect)
    for f in frames[1:]:
        name = Path(f["path"]).name
        r = aligned_scores(read_pgm(Path(out["aligned"]) / name), templates,
                           mask)
        if not r[0] > ALIGN_NCC_FLOOR:
            raise CheckFailed(f"{name}: aligned NCC {r[0]:.3f} <= "
                              f"{ALIGN_NCC_FLOOR}")
        if not r[0] > r[1:].max():
            raise CheckFailed(f"{name}: aligned NCC {r[0]:.3f} is below a "
                              f"rival orientation's {r[1:].max():.3f}")


def check_sequence(out: dict, expect: dict) -> None:
    """Every step is the greedy argmax of the table row without the current
    frame (ties to the smallest index) and step_probs are table entries."""
    plan = json.loads(Path(out["plan"]).read_text())
    table = read_table(out["table"])
    frames, probs = plan["frames"], plan["step_probs"]
    if frames[:1] != [expect["start"]] or len(frames) != expect["length"]:
        raise CheckFailed(f"plan starts {frames[:1]} with {len(frames)} "
                          f"frames, want [{expect['start']}] and "
                          f"{expect['length']}")
    if len(probs) != len(frames) - 1:
        raise CheckFailed("step_probs length mismatch")
    for t, (cur, nxt) in enumerate(zip(frames, frames[1:])):
        row = table[cur].copy()
        row[cur] = -np.inf
        want = int(np.argmax(row))
        if nxt != want:
            raise CheckFailed(f"step {t}: {cur}->{nxt}, greedy gives {want}")
        if probs[t] != table[cur, nxt]:
            raise CheckFailed(f"step {t}: prob {probs[t]!r} != table "
                              f"{table[cur, nxt]!r}")
    lines = Path(out["frames"]).read_text().splitlines()
    if len(lines) != len(frames):
        raise CheckFailed(f"frames file has {len(lines)} lines, plan "
                          f"{len(frames)}")


CHECKS = {"align": check_align, "pruned": check_pruned,
          "matrix": check_matrix, "sequence": check_sequence}
