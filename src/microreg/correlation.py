"""Normalized cross-correlation, rotation-score curves, and pruned search."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polar import PolarImage

_EXCURSION = 1e-6  # raw |NCC| beyond 1 + this is a bug, not rounding


class DegenerateOverlapError(ValueError):
    """Raised when a valid overlap is too small or has no variance."""


@dataclass
class NccCurve:
    """Per-shift NCC scores over all cyclic shifts of the candidate."""

    scores: np.ndarray
    sample_counts: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.sample_counts = np.asarray(self.sample_counts, dtype=np.int64)
        if self.scores.ndim != 1 or self.scores.size == 0:
            raise ValueError("scores must be a non-empty 1-D array")
        if self.sample_counts.shape != self.scores.shape:
            raise ValueError("sample_counts shape must match scores")
        if np.abs(self.scores).max() > 1 + 1e-9:
            raise ValueError("scores must lie in [-1, 1]")

    @property
    def shifts(self) -> int:
        return self.scores.shape[0]


@dataclass
class OpCounts:
    """Multiply-accumulate counts for the pruned vs. exhaustive search."""

    evaluated: int
    exhaustive: int


@dataclass
class RotationEstimate:
    """Argmax of an NccCurve converted to degrees."""

    shift: int
    angle_deg: float
    peak_ncc: float
    curve: NccCurve
    op_counts: OpCounts | None = None


def _clamp(x):
    x = np.asarray(x, dtype=np.float64)
    bad = np.abs(x) > 1 + _EXCURSION
    if bad.any():
        raise RuntimeError("NCC excursion beyond rounding tolerance: "
                           f"{float(x[bad][0])!r}")
    return np.clip(x, -1.0, 1.0)


def _masked_ncc(n, sa, sb, saa, sbb, sab, where):
    """NCC of each entry of 1-D arrays of sums over masked overlaps.

    n is the overlap size, sa and sb the sums of each side, saa and sbb their
    sums of squares, sab the sum of products. where(i) names entry i in the
    error raised when an overlap has fewer than 2 samples or no variance.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        var_a = saa - sa * sa / n
        var_b = sbb - sb * sb / n
        # relative floor absorbs the float residue of constant overlaps
        flat = ((var_a <= n * (1e-12 * np.maximum(1.0, np.abs(sa / n))) ** 2)
                | (var_b <= n * (1e-12 * np.maximum(1.0, np.abs(sb / n))) ** 2))
        few = n < 2
        bad = np.flatnonzero(few | flat)
        if bad.size:
            i = bad[0]
            if few[i]:
                raise DegenerateOverlapError(
                    f"overlap of {int(n[i])} samples at {where(i)}")
            raise DegenerateOverlapError(f"zero variance overlap at {where(i)}")
        return _clamp((sab - sa * sb / n) / np.sqrt(var_a * var_b))


def ncc(a, b) -> float:
    """Normalized cross-correlation of two sample vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("sample vectors must have equal length")
    if a.size < 2:
        raise ValueError("need at least 2 samples")
    ma = a.mean()
    mb = b.mean()
    da = a - ma
    db = b - mb
    ssa = float(np.dot(da, da))
    ssb = float(np.dot(db, db))
    # relative floor absorbs the float residue of constant inputs
    if (ssa <= a.size * (1e-12 * max(1.0, abs(ma))) ** 2
            or ssb <= b.size * (1e-12 * max(1.0, abs(mb))) ** 2):
        raise DegenerateOverlapError("zero variance in input samples")
    return float(_clamp(float(np.dot(da, db)) / np.sqrt(ssa * ssb)))


def _check_grids(ref: PolarImage, cand: PolarImage):
    if (ref.angular_samples != cand.angular_samples
            or ref.radial_samples != cand.radial_samples):
        raise ValueError(
            f"polar grid mismatch: {ref.angular_samples}x{ref.radial_samples} "
            f"vs {cand.angular_samples}x{cand.radial_samples}")


def _centered(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    # valid samples shifted to zero mean, zero elsewhere: NCC ignores the
    # offset, and removing it spares the one-pass variances its cancellation
    mean = values[valid].mean() if valid.any() else 0.0
    return np.where(valid, values - mean, 0.0)


def _polar_layers(p: PolarImage) -> np.ndarray:
    a = _centered(p.values, p.valid)
    return np.stack([p.valid.astype(np.float64), a, a * a])


def rotation_score_curve(ref: PolarImage, cand: PolarImage) -> NccCurve:
    """NCC against every cyclic shift of the candidate.

    scores[k] pairs ref angle row i with candidate angle row (i + k) mod S,
    so a candidate rotated by +angle peaks at the matching positive shift.
    Means and variances are recomputed over the mutual valid overlap of each
    shift; invalid samples never enter the sums. The six per-shift overlap
    sums are circular cross-correlations along the angle axis, summed over the
    radii: each comes from one product of rfft spectra and one irfft (the
    masked NCC of Padfield, IEEE TIP 2012), O(S R log S) for the whole curve.
    """
    _check_grids(ref, cand)
    s = ref.angular_samples
    fr = np.fft.rfft(_polar_layers(ref), axis=1).conj()
    fc = np.fft.rfft(_polar_layers(cand), axis=1)
    # (ref layer, cand layer) for n, sr, sc, srr, scc, src
    pairs = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))
    spectra = np.stack([np.einsum("kj,kj->k", fr[a], fc[b]) for a, b in pairs])
    n, sr, sc, srr, scc, src = np.fft.irfft(spectra, n=s, axis=1)
    n = np.rint(n)
    scores = _masked_ncc(n, sr, sc, srr, scc, src, "shift {}".format)
    return NccCurve(scores, n.astype(np.int64))


def estimate_rotation(ref: PolarImage, cand: PolarImage) -> RotationEstimate:
    """Best rotation angle: smallest shift attaining the maximum NCC."""
    curve = rotation_score_curve(ref, cand)
    shift = int(np.argmax(curve.scores))
    return RotationEstimate(
        shift=shift,
        angle_deg=shift * ref.angular_step_deg,
        peak_ncc=float(curve.scores[shift]),
        curve=curve,
    )


def estimate_rotation_pruned(ref: PolarImage, cand: PolarImage) -> RotationEstimate:
    """Rotation estimate with Cauchy-Schwarz early abandoning.

    Requires fully valid grids, so centering each grid once and scaling it to
    unit norm reduces NCC to a plain dot product. Terms are consumed
    radial-major (all radii of angle row 0, then row 1, ...); after each row
    the partial dot product plus sqrt(remaining ref energy * remaining
    candidate energy) upper bounds the final score, and the shift is abandoned
    once that bound falls to or below the best complete score so far. Returns
    the same (shift, angle, peak) as estimate_rotation; curve entries of
    abandoned shifts hold the bound at abandonment, not the exact score.
    """
    _check_grids(ref, cand)
    if not (ref.valid.all() and cand.valid.all()):
        raise ValueError("pruned search requires fully valid polar grids")
    s = ref.angular_samples
    r = ref.radial_samples
    a, b = (_centered(p.values, p.valid) for p in (ref, cand))
    ea, eb = np.vdot(a, a), np.vdot(b, b)
    # the zero-variance floor of _masked_ncc for centered samples
    if min(ea, eb) <= s * r * 1e-24:
        raise DegenerateOverlapError("zero variance polar grid")
    a, b = a / np.sqrt(ea), b / np.sqrt(eb)

    ea_row = (a * a).sum(axis=1)
    eb_row = (b * b).sum(axis=1)
    # suffix_a[t] = energy of ref rows t..S-1
    suffix_a = np.concatenate([np.cumsum(ea_row[::-1])[::-1], [0.0]])
    suffix_a = np.maximum(suffix_a, 0.0)

    scores = np.empty(s, dtype=np.float64)
    counts = np.full(s, s * r, dtype=np.int64)
    best = -np.inf
    best_shift = -1
    evaluated = 0
    for k in range(s):
        rolled = np.roll(eb_row, -k)
        suffix_b = np.concatenate([np.cumsum(rolled[::-1])[::-1], [0.0]])
        suffix_b = np.maximum(suffix_b, 0.0)
        # Neumaier-compensated accumulation of the per-row dot products
        partial = 0.0
        comp = 0.0
        abandoned = False
        for t in range(s):
            term = float(np.dot(a[t], b[(t + k) % s]))
            evaluated += r
            tmp = partial + term
            if abs(partial) >= abs(term):
                comp += (partial - tmp) + term
            else:
                comp += (term - tmp) + partial
            partial = tmp
            bound = (partial + comp) + np.sqrt(suffix_a[t + 1] * suffix_b[t + 1])
            if bound <= best:
                scores[k] = bound
                abandoned = True
                break
        if not abandoned:
            score = float(_clamp(partial + comp))
            scores[k] = score
            if score > best:
                best = score
                best_shift = k
    curve = NccCurve(scores, counts)
    return RotationEstimate(
        shift=best_shift,
        angle_deg=best_shift * ref.angular_step_deg,
        peak_ncc=best,
        curve=curve,
        op_counts=OpCounts(evaluated=evaluated, exhaustive=s * s * r),
    )
