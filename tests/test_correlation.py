import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreg import (DegenerateOverlapError, cyclic_shift, estimate_rotation,
                      estimate_rotation_pruned, ncc, prepare_reference,
                      rotate, rotation_score_curve)
from microreg.correlation import (NccCurve, _centered, _masked_ncc,
                                 _overlap_sums)
from microreg.polar import PolarImage

from conftest import asym_scene, dyadic, exact_affine, polar_pipeline

ANGLES = (0.0, 15.5, 30.0, 123.5, 270.0)


def full_grid(rng, s=16, r=8):
    return PolarImage(rng.standard_normal((s, r)), np.ones((s, r), bool), float(r))


def masked_grid(rng, s=16, r=8, keep=0.8):
    valid = rng.random((s, r)) < keep
    valid[:, 0] = True  # keep every shift's overlap usable
    return PolarImage(rng.standard_normal((s, r)), valid, float(r))


class TestNcc:
    def test_self_correlation(self):
        a = [1.0, 2.0, 5.0, 3.0]
        assert ncc(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_positive_linear_map_invariance(self):
        assert ncc([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        assert ncc([1, 0, 0, 0], [0, 1, 0, 0]) == pytest.approx(-1 / 3, abs=1e-12)

    def test_anticorrelation(self):
        a = np.array([1.0, 2.0, 7.0])
        assert ncc(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=20)
            b = rng.normal(size=20)
            assert abs(ncc(a, b) - ncc(b, a)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ncc([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            ncc([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(DegenerateOverlapError):
            ncc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestCentered:
    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40),
           layout=st.sampled_from(("C", "sliced", "transposed")),
           scale_exp=st.integers(-300, 300), offset=st.floats(-1e6, 1e6),
           seed=st.integers(0, 2**32 - 1))
    def test_fully_valid_grid_matches_the_gathered_mean(
            self, h, w, layout, scale_exp, offset, seed):
        # a fully valid grid skips the gather and the where, bit for bit;
        # past 128 samples numpy sums pairwise, so the order must match too
        values = np.random.default_rng(seed).standard_normal((h, w))
        values = values * 10.0 ** scale_exp + offset
        if layout == "sliced":
            values = values[::2, ::-1]
        elif layout == "transposed":
            values = values.T
        valid = np.ones(values.shape, dtype=bool)
        expected = np.where(valid, values - values[valid].mean(), 0.0)
        actual = _centered(values, valid)
        assert actual.shape == expected.shape
        assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestRotationScoreCurve:
    def test_self_match_peaks_at_zero(self):
        rng = np.random.default_rng(1)
        p = masked_grid(rng)
        curve = rotation_score_curve(p, p)
        assert curve.scores[0] == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(curve.scores) == 0

    def test_exact_shift_recovered(self):
        rng = np.random.default_rng(2)
        p = full_grid(rng)
        curve = rotation_score_curve(p, cyclic_shift(p, 7))
        assert np.argmax(curve.scores) == 7
        assert curve.scores[7] == pytest.approx(1.0, abs=1e-12)

    def test_scores_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            curve = rotation_score_curve(masked_grid(rng), masked_grid(rng))
            assert np.abs(curve.scores).max() <= 1 + 1e-9

    def test_affine_intensity_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ref = masked_grid(rng)
            cand = masked_grid(rng)
            a = rng.uniform(0.1, 10)
            b = rng.uniform(-5, 5)
            scaled = PolarImage(a * cand.values + b, cand.valid, cand.max_radius)
            base = rotation_score_curve(ref, cand).scores
            assert np.abs(rotation_score_curve(ref, scaled).scores
                          - base).max() <= 1e-9

    def test_shift_consistency(self):
        rng = np.random.default_rng(5)
        ref = full_grid(rng)
        cand = full_grid(rng)
        k0 = int(np.argmax(rotation_score_curve(ref, cand).scores))
        for m in (1, 5, 11):
            km = int(np.argmax(rotation_score_curve(
                ref, cyclic_shift(cand, m)).scores))
            assert km == (k0 + m) % ref.angular_samples

    def test_grid_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="mismatch"):
            rotation_score_curve(full_grid(rng, 16, 8), full_grid(rng, 16, 9))

    def test_degenerate_overlap_reports_shift(self):
        values = np.ones((4, 3))
        values[0, 0] = 2.0  # variance only in row 0
        valid = np.ones((4, 3), bool)
        p = PolarImage(values, valid, 3.0)
        q = PolarImage(np.ones((4, 3)), valid, 3.0)
        with pytest.raises(DegenerateOverlapError, match="shift"):
            rotation_score_curve(p, q)


def brute_force_curve(ref, cand):
    """Two-pass ncc over the mutual valid overlap of each rolled candidate."""
    scores = []
    for k in range(ref.angular_samples):
        values = np.roll(cand.values, -k, axis=0)
        both = ref.valid & np.roll(cand.valid, -k, axis=0)
        scores.append(ncc(ref.values[both], values[both]))
    return np.array(scores)


def offset_scaled_grid(rng, s, r):
    # a large offset against the spread is the worst case for one-pass sums
    valid = rng.random((s, r)) < rng.uniform(0.3, 1.0)
    valid[:, 0] = True
    values = (rng.uniform(-50, 50)
              + 10 ** rng.uniform(-2, 2) * rng.standard_normal((s, r)))
    return PolarImage(values, valid, float(r))


class TestScoreCurveOracle:
    def test_matches_brute_force_on_offset_scaled_masked_grids(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            s = int(rng.integers(4, 65))
            r = int(rng.integers(2, 33))
            ref = offset_scaled_grid(rng, s, r)
            cand = offset_scaled_grid(rng, s, r)
            curve = rotation_score_curve(ref, cand)
            assert np.abs(curve.scores
                          - brute_force_curve(ref, cand)).max() <= 1e-12
            expected_counts = [(ref.valid & np.roll(cand.valid, -k, axis=0)).sum()
                               for k in range(s)]
            assert np.array_equal(curve.sample_counts, expected_counts)

    @pytest.mark.parametrize("i", range(len(ANGLES)))
    def test_matches_brute_force_on_paper_grid_scenes(self, i):
        # the 720x200 scene pairs of criterion 4
        ref = polar_pipeline(asym_scene(seed=500 + i), 720, 200)
        cand = polar_pipeline(rotate(asym_scene(seed=600 + i), ANGLES[i]),
                              720, 200)
        scores = rotation_score_curve(ref, cand).scores
        expected = brute_force_curve(ref, cand)
        assert np.abs(scores - expected).max() <= 1e-12
        assert np.argmax(scores) == np.argmax(expected)

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(2, 40), r=st.integers(1, 12),
           keep=st.floats(0.3, 1.0), k=st.integers(-100, 100),
           seed=st.integers(0, 2**32 - 1))
    def test_shift_equivariance_under_random_masks(self, s, r, keep, k, seed):
        rng = np.random.default_rng(seed)
        ref = masked_grid(rng, s, r, keep)
        cand = masked_grid(rng, s, r, keep)
        base = rotation_score_curve(ref, cand)
        shifted = rotation_score_curve(ref, cyclic_shift(cand, k))
        assert np.abs(shifted.scores - np.roll(base.scores, k)).max() <= 1e-12
        assert np.array_equal(shifted.sample_counts,
                              np.roll(base.sample_counts, k))

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(2, 40), r=st.integers(1, 12),
           keep=st.floats(0.3, 1.0),
           scale_exps=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
           offsets=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           seed=st.integers(0, 2**32 - 1))
    def test_affine_intensity_invariance_under_random_masks(
            self, s, r, keep, scale_exps, offsets, seed):
        # the offsets and spreads of offset_scaled_grid, as exact maps
        rng = np.random.default_rng(seed)
        grids = [masked_grid(rng, s, r, keep) for _ in range(2)]
        grids = [PolarImage(dyadic(g.values), g.valid, g.max_radius)
                 for g in grids]
        moved = [PolarImage(exact_affine(g.values, e, b), g.valid, g.max_radius)
                 for g, e, b in zip(grids, scale_exps, offsets)]
        base = rotation_score_curve(*grids)
        curve = rotation_score_curve(*moved)
        assert np.abs(curve.scores - base.scores).max() <= 1e-12
        assert np.array_equal(curve.sample_counts, base.sample_counts)


def six_spectrum_scores(ref, cand):
    """The masked-overlap curve, forced on grids of any validity."""
    return _masked_ncc(*_overlap_sums(ref, cand), "shift {}".format,
                       lambda k: brute_force_curve(ref, cand)[k])


def constant_sums_scores(ref, cand):
    """The fully valid curve as the masked NCC formula of its constant sums:
    n = S R, zero sums after centering, unit reference energy, the centered
    candidate's energy, and the one-spectrum correlation. Its kappa is 1, so
    no entry falls back to a two-pass recompute."""
    s, r = ref.values.shape
    b = _centered(cand.values, cand.valid)
    fc = np.fft.rfft(b, axis=0)
    src = np.fft.irfft(np.einsum("kj,kj->k", prepare_reference(ref).spectrum,
                                 fc), n=s)
    return _masked_ncc(np.full(s, float(s * r)), 0.0, 0.0, 1.0,
                       np.einsum("ij,ij->", b, b), src, "shift {}".format, None)


class TestOneSpectrumCurve:
    @settings(max_examples=150, deadline=None)
    @given(s=st.integers(2, 64), r=st.integers(1, 24),
           offsets=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           scale_exps=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
           kind=st.sampled_from(["random", "shifted"]), k=st.integers(0, 63),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_six_spectrum_curve_on_full_grids(
            self, s, r, offsets, scale_exps, kind, k, seed):
        rng = np.random.default_rng(seed)
        full = np.ones((s, r), dtype=bool)
        values = [offset + 10 ** e * rng.standard_normal((s, r))
                  for offset, e in zip(offsets, scale_exps)]
        if kind == "shifted":
            values[1] = (np.roll(values[0], k, axis=0) * 10 ** scale_exps[1]
                         + 0.1 * rng.standard_normal((s, r)))
        ref, cand = (PolarImage(v, full, float(r)) for v in values)
        expected = six_spectrum_scores(ref, cand)
        constant_sums = constant_sums_scores(ref, cand)
        for reference in (ref, prepare_reference(ref)):
            curve = rotation_score_curve(reference, cand)
            assert np.array_equal(curve.scores, constant_sums)
            assert np.abs(curve.scores - expected).max() <= 1e-12
            assert np.argmax(curve.scores) == np.argmax(expected)
            assert np.array_equal(curve.sample_counts, np.full(s, s * r))

    @pytest.mark.parametrize("i", range(len(ANGLES)))
    def test_matches_six_spectrum_curve_on_paper_grid_scenes(self, i):
        ref = polar_pipeline(asym_scene(noise_sigma=0.3, seed=500 + i),
                             720, 200)
        cand = polar_pipeline(rotate(asym_scene(noise_sigma=0.3, seed=600 + i),
                                     ANGLES[i]), 720, 200)
        constant_sums = constant_sums_scores(ref, cand)
        for reference in (ref, prepare_reference(ref)):
            scores = rotation_score_curve(reference, cand).scores
            assert np.array_equal(scores, constant_sums)
        expected = six_spectrum_scores(ref, cand)
        assert np.abs(scores - expected).max() <= 1e-12
        assert np.argmax(scores) == np.argmax(expected)

    def test_masked_candidate_against_prepared_reference(self):
        # a prepared reference still scores masked candidates over overlaps
        rng = np.random.default_rng(16)
        ref = full_grid(rng)
        cand = masked_grid(rng)
        scores = rotation_score_curve(prepare_reference(ref), cand).scores
        assert np.abs(scores - brute_force_curve(ref, cand)).max() <= 1e-12

    def test_flat_reference_fails_when_prepared(self):
        flat = PolarImage(np.full((8, 4), 3.0), np.ones((8, 4), bool), 4.0)
        with pytest.raises(DegenerateOverlapError, match="zero variance"):
            prepare_reference(flat)

    def test_flat_candidate_reports_shift(self):
        rng = np.random.default_rng(17)
        flat = PolarImage(np.full((8, 4), 3.0), np.ones((8, 4), bool), 4.0)
        with pytest.raises(DegenerateOverlapError,
                           match="zero variance overlap at shift 0"):
            rotation_score_curve(prepare_reference(full_grid(rng, 8, 4)), flat)


def scorer_outcome(search, ref, cand):
    """What a scorer gives, as exact bits, or the error it raises."""
    try:
        est = search(ref, cand)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(est, NccCurve):
        curve, decision = est, ()
    else:
        curve = est.curve
        decision = (est.shift, repr(est.angle_deg), repr(est.peak_ncc),
                    est.op_counts)
    return curve.scores.tobytes(), curve.sample_counts.tobytes(), *decision


class TestPreparedReference:
    @settings(max_examples=150, deadline=None)
    @given(s=st.integers(2, 48), r=st.integers(1, 12),
           masked=st.tuples(st.booleans(), st.booleans()),
           offsets=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           seed=st.integers(0, 2**32 - 1))
    def test_scorers_give_the_same_bits_for_a_prepared_reference(
            self, s, r, masked, offsets, seed):
        rng = np.random.default_rng(seed)
        grids = [masked_grid(rng, s, r) if m else full_grid(rng, s, r)
                 for m in masked]
        ref, cand = (PolarImage(g.values + offset, g.valid, g.max_radius)
                     for g, offset in zip(grids, offsets))
        prepared = prepare_reference(ref)
        for search in (rotation_score_curve, estimate_rotation,
                       estimate_rotation_pruned):
            assert (scorer_outcome(search, prepared, cand)
                    == scorer_outcome(search, ref, cand))

    def test_is_a_polar_grid_that_shares_a_full_grid(self):
        rng = np.random.default_rng(18)
        full = full_grid(rng, 24, 8)
        prepared = prepare_reference(full)
        assert isinstance(prepared, PolarImage)
        assert prepared.values is full.values and prepared.valid is full.valid
        assert prepared.max_radius == full.max_radius
        masked = masked_grid(rng, 24, 8)
        prepared = prepare_reference(masked)
        assert isinstance(prepared, PolarImage)
        assert prepared.values is masked.values
        assert prepared.valid is masked.valid


class TestEstimateRotation:
    def test_identity(self):
        rng = np.random.default_rng(7)
        p = full_grid(rng)
        est = estimate_rotation(p, p)
        assert est.shift == 0
        assert est.angle_deg == 0.0
        assert est.peak_ncc == pytest.approx(1.0, abs=1e-12)
        assert est.peak_ncc == est.curve.scores[est.shift]

    def test_angle_from_shift(self):
        rng = np.random.default_rng(8)
        p = full_grid(rng, s=24)
        est = estimate_rotation(p, cyclic_shift(p, 10))
        assert est.shift == 10
        assert est.angle_deg == pytest.approx(150.0)

    def test_recovers_scene_rotation(self):
        ref = polar_pipeline(asym_scene(), angular=720, radial=100)
        cand = polar_pipeline(rotate(asym_scene(), 30.0), angular=720, radial=100)
        est = estimate_rotation(ref, cand)
        assert abs(est.angle_deg - 30.0) <= 1.0
        assert est.peak_ncc >= 0.9

    def test_recovers_scene_rotation_noisy(self):
        ref = polar_pipeline(asym_scene(noise_sigma=0.1, seed=11),
                             angular=720, radial=100)
        cand = polar_pipeline(rotate(asym_scene(noise_sigma=0.1, seed=12), 30.0),
                              angular=720, radial=100)
        est = estimate_rotation(ref, cand)
        assert abs(est.angle_deg - 30.0) <= 1.5


class TestEstimateRotationPruned:
    def test_matches_exhaustive_on_random_grids(self):
        rng = np.random.default_rng(9)
        smaller = 0
        for _ in range(30):
            s = int(rng.integers(8, 65))
            r = int(rng.integers(4, 33))
            a = full_grid(rng, s, r)
            b = full_grid(rng, s, r)
            exact = estimate_rotation(a, b)
            pruned = estimate_rotation_pruned(a, b)
            assert pruned.shift == exact.shift
            assert pruned.angle_deg == exact.angle_deg
            assert abs(pruned.peak_ncc - exact.peak_ncc) <= 1e-12
            assert pruned.op_counts.evaluated <= pruned.op_counts.exhaustive
            smaller += pruned.op_counts.evaluated < pruned.op_counts.exhaustive
        assert smaller >= 27

    def test_self_match_prunes_aggressively(self):
        rng = np.random.default_rng(10)
        p = full_grid(rng, 32, 16)
        est = estimate_rotation_pruned(p, p)
        assert est.shift == 0
        assert est.op_counts.evaluated < est.op_counts.exhaustive // 2

    def test_curve_peak_invariant_holds(self):
        rng = np.random.default_rng(11)
        a = full_grid(rng, 24, 8)
        b = full_grid(rng, 24, 8)
        est = estimate_rotation_pruned(a, b)
        assert est.peak_ncc == est.curve.scores[est.shift]
        assert est.peak_ncc == est.curve.scores.max()

    def test_rejects_invalid_samples(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="fully valid"):
            estimate_rotation_pruned(masked_grid(rng), full_grid(rng))

    def test_degenerate_grid(self):
        flat = PolarImage(np.ones((8, 4)), np.ones((8, 4), bool), 4.0)
        rng = np.random.default_rng(13)
        with pytest.raises(DegenerateOverlapError):
            estimate_rotation_pruned(flat, full_grid(rng, 8, 4))

    @settings(max_examples=150, deadline=None)
    @given(s=st.integers(2, 40), r=st.integers(1, 12),
           kind=st.sampled_from(["random", "self", "shifted"]),
           k=st.integers(0, 39), noise=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_oracle_is_exhaustive_search(self, s, r, kind, k, noise, seed):
        rng = np.random.default_rng(seed)
        ref = full_grid(rng, s, r)
        if kind == "random":
            cand = full_grid(rng, s, r)
        elif kind == "self":
            cand = ref
        else:
            cand = PolarImage(cyclic_shift(ref, k).values
                              + noise * rng.standard_normal((s, r)),
                              ref.valid, ref.max_radius)
        exact = estimate_rotation(ref, cand)
        pruned = estimate_rotation_pruned(ref, cand)
        assert pruned.shift == exact.shift
        assert abs(pruned.peak_ncc - exact.peak_ncc) <= 1e-12
        assert pruned.op_counts.evaluated <= pruned.op_counts.exhaustive
        assert pruned.peak_ncc == pruned.curve.scores.max()
        # entries of dropped shifts are upper bounds of their exact scores
        assert (pruned.curve.scores >= exact.curve.scores - 1e-12).all()
