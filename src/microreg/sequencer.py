"""Pairwise center-crop correlation, probability scaling, and frame sequencing."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .correlation import _centered, _masked_ncc, ncc
# normalize stays imported: bench/tracing.py wraps microreg.sequencer.normalize
from .image import Image, center_crop, normalize  # noqa: F401


def _check_unit_table(values, name: str, lo: float) -> np.ndarray:
    """Vet a square, symmetric, unit-diagonal table with entries in [lo, 1]."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 2:
        raise ValueError(f"{name} must be a square matrix of size >= 2")
    bad = np.argwhere(~np.isfinite(v))
    if bad.size:  # NaN would pass every comparison below
        i, j = bad[0]
        raise ValueError(f"{name} entry ({i}, {j}) must be finite, "
                         f"got {float(v[i, j])!r}")
    if np.abs(v - v.T).max() > 1e-12:
        raise ValueError(f"{name} must be symmetric")
    if np.abs(np.diag(v) - 1.0).max() > 1e-12:
        raise ValueError(f"{name} diagonal must be 1")
    if v.min() < lo or v.max() > 1.0:
        raise ValueError(f"{name} entries must lie in [{lo:g}, 1]")
    return v


@dataclass
class CorrelationMatrix:
    """Symmetric n x n matrix of center-crop NCC values with unit diagonal."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _check_unit_table(self.values, "correlation matrix", -1.0)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class ProbabilityTable:
    """Symmetric table of transition probabilities in [0, 1], unit diagonal."""

    p: np.ndarray

    def __post_init__(self):
        self.p = _check_unit_table(self.p, "probability table", 0.0)

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass
class SequencePlan:
    """Ordered frame indices with per-step probabilities and chain log-prob."""

    frames: list[int]
    step_probs: list[float]
    log_chain_prob: float

    def to_json_dict(self) -> dict:
        return {
            "frames": list(self.frames),
            "step_probs": list(self.step_probs),
            "log_chain_prob": self.log_chain_prob,
        }


@dataclass
class MonotonicityViolation:
    """Adjacent pair in the diagnostic chain that breaks the ordering."""

    position: int      # index into frames of the earlier (offending) frame
    expected_ge: float  # probability the earlier frame must not exceed
    actual: float       # probability observed for the earlier frame

    def to_json_dict(self) -> dict:
        return {"position": self.position,
                "expected_ge": self.expected_ge,
                "actual": self.actual}


def correlation_matrix(images: list[Image], crop_size: int) -> CorrelationMatrix:
    """NCC of the center crops for every image pair.

    The crops are taken from the frames as given: NCC re-centers and
    re-scales every overlap, so no intensity normalization comes first.
    Each pair correlates over the pixels valid in both crops. With V the
    frames x pixels validity and A the crops centered on their valid means and
    zeroed outside V, every pair's overlap sums are entries of the Gram
    products V Vt, A Vt, A^2 Vt and A At. The rare pair whose overlap is too
    ill-conditioned for one-pass sums is recomputed with the two-pass ncc of
    its re-cropped overlap. The diagonal is exactly 1.
    """
    m = len(images)
    if m < 2:
        raise ValueError("need at least 2 images")
    for idx, img in enumerate(images):
        try:
            crop = center_crop(img, crop_size)
        except ValueError as exc:
            raise ValueError(f"image {idx}: {exc}") from exc
        if idx == 0:  # center_crop has vetted crop_size by now
            v = np.empty((m, crop.pixels.size))
            a = np.empty_like(v)
        valid = crop.valid()
        v[idx] = valid.ravel()
        a[idx] = _centered(crop.pixels, valid).ravel()
    i, j = np.triu_indices(m, 1)
    n = (v @ v.T)[i, j]
    sab = (a @ a.T)[i, j]
    sums = a @ v.T
    sqsums = np.square(a, out=a) @ v.T  # squared in place: a is not used again

    def exact(t):
        ci, cj = (center_crop(images[k], crop_size) for k in (i[t], j[t]))
        both = ci.valid() & cj.valid()
        return ncc(ci.pixels[both], cj.pixels[both])

    upper = _masked_ncc(n, sums[i, j], sums[j, i], sqsums[i, j], sqsums[j, i],
                        sab, lambda t: f"pair ({i[t]}, {j[t]})", exact)
    values = np.eye(m)
    values[i, j] = values[j, i] = upper
    return CorrelationMatrix(values)


def to_probability(c: CorrelationMatrix) -> ProbabilityTable:
    """Affine rescale of NCC values onto probabilities: p = (ncc + 1) / 2."""
    return ProbabilityTable((c.values + 1.0) / 2.0)


def _check_index(n: int, idx: int) -> None:
    if not 0 <= idx < n:
        raise ValueError(f"index {idx} out of range for {n} frames")


def greedy_sequence(p: ProbabilityTable, start: int, length: int) -> SequencePlan:
    """Repeatedly pick the most probable successor (excluding the current frame).

    Revisits are allowed; ties break toward the smallest index.
    """
    _check_index(p.n, start)
    if length < 1:
        raise ValueError("length must be >= 1")
    frames = [start]
    step_probs = []
    for _ in range(length - 1):
        cur = frames[-1]
        row = p.p[cur].copy()
        row[cur] = -np.inf  # no immediate repeat
        nxt = int(np.argmax(row))
        frames.append(nxt)
        step_probs.append(float(p.p[cur, nxt]))
    return SequencePlan(frames, step_probs, _log_sum(step_probs))


def _log_sum(probs) -> float:
    total = 0.0
    for q in probs:
        if q == 0.0:
            return -math.inf
        total += math.log(q)
    return total


def chain_probability(p: ProbabilityTable, frames: list[int]) -> float:
    """Log probability of a frame sequence under the first-order chain model.

    The two-neighbor dependence collapses to a product of pairwise transition
    probabilities; returns sum of log p[f_{t-1}][f_t], -inf if any factor is 0.
    """
    if len(frames) < 1:
        raise ValueError("frames must not be empty")
    for f in frames:
        _check_index(p.n, f)
    for prev, cur in zip(frames, frames[1:]):
        if prev == cur:
            raise ValueError("immediate repeats are not allowed")
    return _log_sum(p.p[prev, cur] for prev, cur in zip(frames, frames[1:]))


def check_monotonicity(p: ProbabilityTable,
                       frames: list[int]) -> list[MonotonicityViolation]:
    """Diagnostic: transition probability to the final frame should decay
    as we walk back through the sequence.

    With final frame f, requires p[f][frames[-2]] >= p[f][frames[-3]] >= ...
    >= p[f][frames[0]]. Returns the adjacent pairs that break the chain.
    """
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    for f in frames:
        _check_index(p.n, f)
    last = frames[-1]
    violations = []
    for t in range(len(frames) - 2, 0, -1):
        nearer = p.p[last, frames[t]]
        farther = p.p[last, frames[t - 1]]
        if farther > nearer:
            violations.append(MonotonicityViolation(
                position=t - 1, expected_ge=float(nearer), actual=float(farther)))
    return violations


def matrix_to_csv(values: np.ndarray, path) -> None:
    """Write a square matrix as CSV with a header row of column indices."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(str(i) for i in range(n)) + "\n")
        for row in values:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def load_square_csv(path) -> np.ndarray:
    """Read a square matrix CSV written by matrix_to_csv (header row of indices)."""
    with open(path, "r", encoding="ascii", newline="") as f:
        rows = [row for row in csv.reader(f) if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: empty matrix CSV")
    n = len(rows[0])
    if len(rows) != n + 1 or any(len(r) != n for r in rows[1:]):
        raise ValueError(f"{path}: matrix CSV is not square")
    try:
        return np.array([[float(v) for v in r] for r in rows[1:]])
    except ValueError:
        raise ValueError(f"{path}: non-numeric matrix entry") from None


def load_probability_csv(path) -> ProbabilityTable:
    return ProbabilityTable(load_square_csv(path))
