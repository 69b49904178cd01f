"""Normalized cross-correlation, rotation-score curves, and pruned search."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polar import PolarImage, cyclic_shift

_EXCURSION = 1e-6  # raw |NCC| beyond 1 + this is a bug, not rounding
# Every dot product and energy below is an np.einsum: without optimize it calls
# no BLAS routine, so its sum, and every curve, does not depend on the BLAS
# thread count.


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
    """NCC of each entry of sums over masked overlaps.

    n is the overlap size, sa and sb the sums of each side, saa and sbb their
    sums of squares, sab the sum of products: 1-D arrays, or scalars that
    broadcast to one entry per overlap (a fully valid table passes the side
    sums as 0.0). where(i) names entry i in the error raised when an overlap
    has fewer than 2 samples or no variance.
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
    ssa = float(np.einsum("i,i->", da, da))
    ssb = float(np.einsum("i,i->", db, db))
    if _flat(ssa, a.size, ma) or _flat(ssb, b.size, mb):
        raise DegenerateOverlapError("zero variance in input samples")
    return float(_clamp(float(np.einsum("i,i->", da, db))
                        / np.sqrt(ssa * ssb)))


def _check_grids(ref: PolarImage, cand: PolarImage):
    if (ref.angular_samples != cand.angular_samples
            or ref.radial_samples != cand.radial_samples):
        raise ValueError(
            f"polar grid mismatch: {ref.angular_samples}x{ref.radial_samples} "
            f"vs {cand.angular_samples}x{cand.radial_samples}")


def _centered(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    # valid samples shifted to zero mean, zero elsewhere: NCC ignores the
    # offset, and removing it spares the one-pass variances its cancellation
    if valid.size and valid.all():
        # ravel() is C order, as the gather is, so the mean has the same bits
        return values - values.ravel().mean()
    mean = values[valid].mean() if valid.any() else 0.0
    return np.where(valid, values - mean, 0.0)


def _unit_grid(p: PolarImage) -> np.ndarray:
    """Valid samples centered and scaled to unit norm, zero elsewhere."""
    a = _centered(p.values, p.valid)
    energy = np.einsum("ij,ij->", a, a)
    if _flat(energy, p.valid.sum(), 0.0):  # centered: the mean is 0
        raise DegenerateOverlapError("zero variance polar grid")
    a /= np.sqrt(energy)  # a is _centered's own array
    return a


@dataclass(init=False)
class Reference(PolarImage):
    """A polar grid prepared once to score many candidates against.

    spectrum is the conjugate rfft, along the angle axis, of the grid's
    _unit_grid; the unit grid itself is not kept. Reference(grid, spectrum)
    shares the grid's arrays, fully valid or masked, and does not check them
    again: a PolarImage's checks ran when it was made.
    """

    spectrum: np.ndarray

    def __init__(self, grid: PolarImage, spectrum: np.ndarray):
        vars(self).update(vars(grid), spectrum=spectrum)


def prepare_reference(ref: PolarImage) -> Reference:
    """Center, scale and transform a reference grid once.

    The result shares the grid's arrays. A grid whose valid samples have no
    variance raises DegenerateOverlapError, before any candidate is scored.
    """
    # unit is freed on return, after the conjugate is made: freed before it,
    # glibc trims the heap, and warm align and matrix requests on a stack of
    # frames then re-fault 1,000-2,400 pages each
    unit = _unit_grid(ref)
    return Reference(ref, np.fft.rfft(unit, axis=0).conj())


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


def _full_scores(ref: Reference, cand: PolarImage) -> np.ndarray:
    """The curve when both grids are fully valid. Every overlap is then the
    whole grid, so the NCC at each shift is the unit reference's circular
    correlation with the centered candidate, over the candidate's norm. A
    flat candidate fails as a zero-variance overlap at shift 0."""
    b = _centered(cand.values, cand.valid)
    sbb = np.einsum("ij,ij->", b, b)
    if _flat(sbb, b.size, 0.0):  # centered: the mean is 0
        raise DegenerateOverlapError("zero variance overlap at shift 0")
    fc = np.fft.rfft(b, axis=0)
    src = np.fft.irfft(np.einsum("kj,kj->k", ref.spectrum, fc),
                       n=ref.angular_samples)
    return _clamp(src / np.sqrt(sbb))


def rotation_score_curve(ref: PolarImage, cand: PolarImage) -> NccCurve:
    """NCC against every cyclic shift of the candidate.

    scores[k] pairs ref angle row i with candidate angle row (i + k) mod S,
    so a candidate rotated by +angle peaks at the matching positive shift.
    Means and variances are recomputed over the mutual valid overlap of each
    shift; invalid samples never enter the sums. The six per-shift overlap
    sums are circular cross-correlations along the angle axis, summed over the
    radii: each comes from one product of rfft spectra and one irfft (the
    masked NCC of Padfield, IEEE TIP 2012), O(S R log S) for the whole curve.
    When both grids are fully valid, every overlap is the whole grid and the
    curve takes one spectrum per candidate against the reference's, which a
    Reference from prepare_reference keeps across calls. On masked grids, the
    rare shift whose overlap is too ill-conditioned for one-pass sums is
    recomputed with the two-pass ncc over the rolled candidate.
    """
    _check_grids(ref, cand)
    if ref.valid.all() and cand.valid.all():
        if not isinstance(ref, Reference):
            ref = prepare_reference(ref)
        return NccCurve(_full_scores(ref, cand),
                        np.full(ref.angular_samples, ref.valid.size))
    sums = _overlap_sums(ref, cand)

    def exact(k):
        rolled = cyclic_shift(cand, -k)
        both = ref.valid & rolled.valid
        return ncc(ref.values[both], rolled.values[both])

    scores = _masked_ncc(*sums, "shift {}".format, exact)
    return NccCurve(scores, sums[0].astype(np.int64))


def _estimate(curve, shift, cand, op_counts=None) -> RotationEstimate:
    """The estimate both searches return: shift in degrees, score at shift."""
    return RotationEstimate(shift, shift * cand.angular_step_deg,
                            float(curve.scores[shift]), curve, op_counts)


def estimate_rotation(ref: PolarImage, cand: PolarImage) -> RotationEstimate:
    """Best rotation angle: smallest shift attaining the maximum NCC."""
    curve = rotation_score_curve(ref, cand)
    return _estimate(curve, int(np.argmax(curve.scores)), cand)


def estimate_rotation_pruned(ref: PolarImage,
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
    _check_grids(ref, cand)
    if not (ref.valid.all() and cand.valid.all()):
        raise ValueError("pruned search requires fully valid polar grids")
    s = ref.angular_samples
    r = ref.radial_samples
    a = _unit_grid(ref)
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
        partial[live] += np.einsum("ij,j->i", b[live + t], a[t])
        evaluated += live.size * r
        lead = live[np.argmax(partial[live])]
        if partial[lead] > best:
            scores[lead] = partial[lead] + np.einsum(
                "ij,ij->", a[t + 1:], b[lead + t + 1:lead + s])
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
    return _estimate(curve, shift, cand,
                     OpCounts(evaluated=evaluated, exhaustive=s * s * r))
