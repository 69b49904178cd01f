"""Normalized cross-correlation, rotation-score curves, and pruned search."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polar import PolarImage, cyclic_shift

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


def _flat(ss, n, mean):
    """True where ss, the sum of squared deviations of n samples about mean,
    is float residue of a constant rather than variance: the floor is
    relative to the mean's magnitude (and absolute below 1)."""
    return ss <= n * (1e-12 * np.maximum(1.0, np.abs(mean))) ** 2


def _masked_ncc(n, sa, sb, saa, sbb, sab, where, exact):
    """NCC of each entry of 1-D arrays of sums over masked overlaps.

    n is the overlap size, sa and sb the sums of each side, saa and sbb their
    sums of squares, sab the sum of products. n and sab are arrays; a sum
    that is the same for every entry may be a scalar, which broadcasts.
    where(i) names entry i in the error raised when an overlap has fewer
    than 2 samples or no variance.
    exact(i) is the two-pass ncc of entry i's overlap. It replaces entries
    whose one-pass variances are ill-conditioned: saa - sa^2/n cancels when an
    overlap's mean is far from zero against its spread, and its relative error
    grows as eps * kappa with kappa = saa / var_a (Chan, Golub & LeVeque 1983).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        var_a = saa - sa * sa / n
        var_b = sbb - sb * sb / n
        flat = _flat(var_a, n, sa / n) | _flat(var_b, n, sb / n)
        few = n < 2
        bad = np.flatnonzero(few | flat)
        if bad.size:
            i = bad[0]
            if few[i]:
                raise DegenerateOverlapError(
                    f"overlap of {int(n[i])} samples at {where(i)}")
            raise DegenerateOverlapError(f"zero variance overlap at {where(i)}")
        scores = _clamp((sab - sa * sb / n) / np.sqrt(var_a * var_b))
        kappa = np.maximum(saa / var_a, sbb / var_b)
    for i in np.flatnonzero(8 * np.finfo(np.float64).eps * kappa > 1e-14):
        try:
            scores[i] = exact(i)
        except DegenerateOverlapError:
            raise DegenerateOverlapError(
                f"zero variance overlap at {where(i)}") from None
    return scores


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
    if _flat(ssa, a.size, ma) or _flat(ssb, b.size, mb):
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


def _unit_grid(p: PolarImage) -> np.ndarray:
    """Valid samples centered and scaled to unit norm, zero elsewhere."""
    a = _centered(p.values, p.valid)
    energy = np.vdot(a, a)
    if _flat(energy, p.valid.sum(), 0.0):  # centered: the mean is 0
        raise DegenerateOverlapError("zero variance polar grid")
    return a / np.sqrt(energy)


class Reference(NamedTuple):
    """A reference grid prepared once to score many candidates against.

    unit is the grid's _unit_grid and spectrum the conjugate rfft of unit
    along the angle axis.
    """

    grid: PolarImage
    unit: np.ndarray
    spectrum: np.ndarray


def prepare_reference(ref: PolarImage) -> Reference:
    """Center, scale and transform a reference grid once.

    A grid whose valid samples have no variance raises
    DegenerateOverlapError, before any candidate is scored.
    """
    unit = _unit_grid(ref)
    return Reference(ref, unit, np.fft.rfft(unit, axis=0).conj())


def _grid(ref: PolarImage | Reference) -> PolarImage:
    return ref.grid if isinstance(ref, Reference) else ref


def _polar_layers(p: PolarImage) -> np.ndarray:
    a = _centered(p.values, p.valid)
    return np.stack([p.valid.astype(np.float64), a, a * a])


def _overlap_sums(ref: PolarImage, cand: PolarImage):
    """Per-shift (n, sr, sc, srr, scc, src) over the mutual valid overlaps:
    six circular cross-correlations along the angle axis, summed over the
    radii, each one product of rfft spectra and one irfft."""
    s = ref.angular_samples
    fr = np.fft.rfft(_polar_layers(ref), axis=1).conj()
    fc = np.fft.rfft(_polar_layers(cand), axis=1)
    # (ref layer, cand layer) for n, sr, sc, srr, scc, src
    pairs = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))
    spectra = np.stack([np.einsum("kj,kj->k", fr[a], fc[b]) for a, b in pairs])
    n, sr, sc, srr, scc, src = np.fft.irfft(spectra, n=s, axis=1)
    return np.rint(n), sr, sc, srr, scc, src


def _full_sums(ref: Reference, cand: PolarImage):
    """The same sums when both grids are fully valid. Every overlap is then
    the whole grid, so only src varies with the shift: n = S R, sr = sc = 0
    after centering, srr = 1 for the unit reference grid, and scc is the
    candidate's energy. The candidate is centered but not scaled, so a flat
    one reaches the degeneracy rules of _masked_ncc."""
    s = ref.grid.angular_samples
    b = _centered(cand.values, cand.valid)
    fc = np.fft.rfft(b, axis=0)
    src = np.fft.irfft(np.einsum("kj,kj->k", ref.spectrum, fc), n=s)
    return np.full(s, float(b.size)), 0.0, 0.0, 1.0, np.vdot(b, b), src


def rotation_score_curve(ref: PolarImage | Reference,
                         cand: PolarImage) -> NccCurve:
    """NCC against every cyclic shift of the candidate.

    scores[k] pairs ref angle row i with candidate angle row (i + k) mod S,
    so a candidate rotated by +angle peaks at the matching positive shift.
    Means and variances are recomputed over the mutual valid overlap of each
    shift; invalid samples never enter the sums. The six per-shift overlap
    sums are circular cross-correlations along the angle axis, summed over the
    radii: each comes from one product of rfft spectra and one irfft (the
    masked NCC of Padfield, IEEE TIP 2012), O(S R log S) for the whole curve.
    When both grids are fully valid, five of the sums are constants and the
    curve takes one spectrum per candidate against the reference's, which a
    Reference from prepare_reference keeps across calls. The rare shift whose
    overlap is too ill-conditioned for one-pass sums is recomputed with the
    two-pass ncc over the rolled candidate.
    """
    grid = _grid(ref)
    _check_grids(grid, cand)
    if grid.valid.all() and cand.valid.all():
        if not isinstance(ref, Reference):
            ref = prepare_reference(ref)
        sums = _full_sums(ref, cand)
    else:
        sums = _overlap_sums(grid, cand)

    def exact(k):
        rolled = cyclic_shift(cand, -k)
        both = grid.valid & rolled.valid
        return ncc(grid.values[both], rolled.values[both])

    scores = _masked_ncc(*sums, "shift {}".format, exact)
    return NccCurve(scores, sums[0].astype(np.int64))


def estimate_rotation(ref: PolarImage | Reference,
                      cand: PolarImage) -> RotationEstimate:
    """Best rotation angle: smallest shift attaining the maximum NCC."""
    curve = rotation_score_curve(ref, cand)
    shift = int(np.argmax(curve.scores))
    return RotationEstimate(
        shift=shift,
        angle_deg=shift * cand.angular_step_deg,
        peak_ncc=float(curve.scores[shift]),
        curve=curve,
    )


def estimate_rotation_pruned(ref: PolarImage | Reference,
                             cand: PolarImage) -> RotationEstimate:
    """Rotation estimate by successive elimination with Cauchy-Schwarz bounds.

    Requires fully valid grids, so centering each grid once and scaling it to
    unit norm reduces NCC to a plain dot product. One pass over the angle rows
    advances every live shift together: after row t each live shift has its
    partial dot product, and partial + sqrt(remaining ref energy * remaining
    candidate energy) upper bounds its final score. The live shift with the
    largest partial is finished exactly whenever its partial exceeds the best
    complete score, which raises that score early; then every live shift whose
    bound is at or below it is dropped (Li & Salari, IEEE TIP 1995). Returns
    the same (shift, angle, peak) as estimate_rotation; curve entries of
    dropped shifts hold the bound at the row they were dropped, not the exact
    score.
    """
    grid = _grid(ref)
    _check_grids(grid, cand)
    if not (grid.valid.all() and cand.valid.all()):
        raise ValueError("pruned search requires fully valid polar grids")
    s = grid.angular_samples
    r = grid.radial_samples
    a = ref.unit if isinstance(ref, Reference) else _unit_grid(ref)
    # row k + t of the doubled candidate is row (k + t) mod S, the one that
    # shift k pairs with ref row t
    b = np.tile(_unit_grid(cand), (2, 1))
    # rest_a[t]: energy of ref rows t+1..S-1; shift k's candidate rows after
    # row t hold cum_b[k + S] - cum_b[k + t + 1]
    rest_a = np.append(np.cumsum((a * a).sum(axis=1)[:0:-1])[::-1], 0.0)
    cum_b = np.concatenate([[0.0], np.cumsum((b * b).sum(axis=1))])

    scores = np.empty(s, dtype=np.float64)
    partial = np.zeros(s, dtype=np.float64)
    finished = np.zeros(s, dtype=bool)
    live = np.arange(s)
    best = -np.inf
    evaluated = 0
    for t in range(s):
        if not live.size:
            break
        partial[live] += b[live + t] @ a[t]
        evaluated += live.size * r
        lead = live[np.argmax(partial[live])]
        if partial[lead] > best:
            scores[lead] = partial[lead] + np.vdot(a[t + 1:],
                                                   b[lead + t + 1:lead + s])
            evaluated += (s - 1 - t) * r
            finished[lead] = True
            best = max(best, scores[lead])
            live = live[live != lead]
        # after the last row the bound is the exact score, and the leader
        # just finished is at least as high, so no shift stays live
        bound = partial[live] + np.sqrt(rest_a[t] * np.maximum(
            cum_b[live + s] - cum_b[live + t + 1], 0.0))
        out = bound <= best
        scores[live[out]] = bound[out]
        live = live[~out]
    curve = NccCurve(_clamp(scores), np.full(s, s * r, dtype=np.int64))
    shift = int(np.argmax(np.where(finished, curve.scores, -np.inf)))
    return RotationEstimate(
        shift=shift,
        angle_deg=shift * cand.angular_step_deg,
        peak_ncc=float(curve.scores[shift]),
        curve=curve,
        op_counts=OpCounts(evaluated=evaluated, exhaustive=s * s * r),
    )
