"""Pairwise center-crop correlation, probability scaling, and frame sequencing."""
from __future__ import annotations

import itertools
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
    if np.abs(asym := v - v.T, out=asym).max() > 1e-12:  # one temporary
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


@dataclass
class MonotonicityViolation:
    """Adjacent pair in the diagnostic chain that breaks the ordering."""

    position: int      # index into frames of the earlier (offending) frame
    expected_ge: float  # probability the earlier frame must not exceed
    actual: float       # probability observed for the earlier frame


class CropRows:
    """The center crops of n frames, packed as rows for correlation_matrix.

    Row k of pixels (float64) and of valid (bool) is crop k in C order, the
    order of a crop's ravel(). len() is n. The rows are allocated when the
    first crop is put, so a crop size no frame can give allocates nothing.
    correlation_matrix takes the rows out of the stack and frees them before
    it returns: a fully valid stack's rows are centered in place and freed
    as soon as their Gram product exists.
    """

    def __init__(self, n: int, size: int):
        self.size = size
        self._n = n
        self.pixels = self.valid = None

    def __len__(self) -> int:
        return self._n

    def put(self, k: int, img: Image) -> None:
        """Row k becomes img's center crop."""
        crop = center_crop(img, self.size)
        if self.pixels is None:
            self.pixels = np.empty((self._n, crop.pixels.size))
            self.valid = np.empty(self.pixels.shape, dtype=bool)
        self.pixels[k] = crop.pixels.ravel()
        self.valid[k] = crop.mask.ravel()


def correlation_matrix(images, crop_size: int) -> CorrelationMatrix:
    """NCC of the center crops for every image pair.

    images is a list of frames, or a CropRows of their crops, which the call
    uses up. The crops are taken from the frames as given: NCC re-centers and
    re-scales every overlap, so no intensity normalization comes first.
    Each pair correlates over the pixels valid in both crops. With V the
    frames x pixels validity and A the crops centered on their valid means and
    zeroed outside V, every pair's overlap sums are entries of the Gram
    products V Vt, A Vt, A^2 Vt and A At. When every crop is fully valid,
    every overlap is the whole crop of p pixels: V Vt is p, the centered rows
    sum to 0, and A At alone gives the rest; the rows are centered in place
    and dropped once A At exists. The rare pair whose overlap is
    too ill-conditioned for one-pass sums is recomputed with the two-pass ncc
    of its overlap in the raw rows. The diagonal is exactly 1.
    """
    m = len(images)
    if m < 2:
        raise ValueError("need at least 2 images")
    if not isinstance(images, CropRows):
        rows = CropRows(m, crop_size)
        for idx, img in enumerate(images):
            try:
                rows.put(idx, img)
            except ValueError as exc:
                raise ValueError(f"image {idx}: {exc}") from exc
        images = rows
    pixels, valid = images.pixels, images.valid
    images.pixels = images.valid = None  # held below only as long as needed
    i, j = np.triu_indices(m, 1)
    if valid.all():
        del valid
        # in place, with the bits _centered gives each row
        pixels -= pixels.mean(axis=1, keepdims=True)
        g = pixels @ pixels.T
        n = np.full(i.size, float(pixels.shape[1]))
        del pixels
        d = np.diag(g)
        sums = (n, 0.0, 0.0, d[i], d[j], g[i, j])
        del g, d
        exact = None  # a fully valid overlap's kappa is 1: never called
    else:
        a = np.empty(pixels.shape)
        for k in range(m):
            a[k] = _centered(pixels[k], valid[k])
        v = valid.astype(np.float64)
        n = (v @ v.T)[i, j]
        sab = (a @ a.T)[i, j]
        s = a @ v.T
        ss = np.square(a, out=a) @ v.T  # squared in place: a is not used again
        sums = (n, s[i, j], s[j, i], ss[i, j], ss[j, i], sab)
        del a, v, s, ss

        def exact(t):  # the raw rows, in the order of a crop's boolean index
            both = valid[i[t]] & valid[j[t]]
            return ncc(pixels[i[t]][both], pixels[j[t]][both])

    upper = _masked_ncc(*sums, lambda t: f"pair ({i[t]}, {j[t]})", exact)
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

    Each frame's successor is fixed, so the chain is a walk on one successor
    table. Revisits are allowed; ties break toward the smallest index.
    """
    _check_index(p.n, start)
    if length < 1:
        raise ValueError("length must be >= 1")
    others = p.p.copy()
    np.fill_diagonal(others, -np.inf)  # no immediate repeat
    successor = others.argmax(axis=1).tolist()
    frames = [start]
    for _ in range(length - 1):
        frames.append(successor[frames[-1]])
    step_probs = p.p[frames[:-1], frames[1:]].tolist()
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
    return _log_sum(p.p[frames[:-1], frames[1:]].tolist())


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
    q = p.p[frames[-1], frames[:-1]]  # q[t]: to the last frame from frames[t]
    return [MonotonicityViolation(t, float(q[t + 1]), float(q[t]))
            for t in np.flatnonzero(q[:-1] > q[1:])[::-1].tolist()]


def matrix_to_csv(values: np.ndarray, path) -> None:
    """Write a square matrix as CSV with a header row of column indices.

    Each entry is its shortest round-trip repr, so load_square_csv reads
    back the same bits. A cell left of the diagonal reuses the text of its
    mirror cell when the two hold the same bits, so a symmetric table is
    formatted once per pair.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    bits = values.view(np.int64)
    left = [[] for _ in range(n)]  # row k's cells j < k, from row j's text
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(map(str, range(n))) + "\n")
        for i in range(n):
            row = values[i].tolist()
            cells, left[i] = left[i], None
            for j in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
                cells[j] = repr(row[j])
            right = list(map(repr, row[i:]))
            for pending, cell in zip(left[i + 1:], right[1:]):
                pending.append(cell)
            f.write(",".join(cells + right) + "\n")


def load_square_csv(path) -> np.ndarray:
    """Read a square matrix CSV written by matrix_to_csv (header row of indices).

    One streaming pass: blank lines are skipped, the header's cells are
    counted, not read, and np.loadtxt parses the other lines as they are
    read, so no copy of the file's text is held. With comments=None a '#' in
    a cell is an error, not the start of a comment. Only a table that fails
    to parse is read again, to say why.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = (line for line in f if line != "\n")
            n = next(lines, "").count(",") + 1
            first = next(lines, None)
            values = None if first is None else np.loadtxt(
                itertools.chain([first], lines), delimiter=",", ndmin=2,
                comments=None)
    except ValueError:  # a UnicodeDecodeError is one too
        raise ValueError(f"{path}: {_table_fault(path)}") from None
    if values is None:
        raise ValueError(f"{path}: empty matrix CSV")
    if values.shape != (n, n):
        raise ValueError(f"{path}: matrix CSV is not square")
    return values


def _table_fault(path) -> str:
    """Why load_square_csv could not parse the table at path.

    The file is read whole, so a non-ASCII byte is reported at its offset in
    the file. np.loadtxt raises the same error for a ragged row and a
    non-number, so the cells are counted to tell the two apart.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        return f"not an ASCII CSV ({exc.reason} at byte {exc.start})"
    header, *rows = [row for row in text.split("\n") if row] or [""]
    n = header.count(",") + 1
    if len(rows) != n or any(row.count(",") != n - 1 for row in rows):
        return "matrix CSV is not square"
    return "non-numeric matrix entry"


def load_probability_csv(path) -> ProbabilityTable:
    return ProbabilityTable(load_square_csv(path))
