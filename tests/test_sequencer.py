import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreg import (DegenerateOverlapError, Image, ProbabilityTable,
                      center_crop, chain_probability, check_monotonicity,
                      correlation_matrix, greedy_sequence,
                      load_probability_csv, matrix_to_csv, ncc, normalize,
                      rotate, to_probability)
from microreg.sequencer import CorrelationMatrix, load_square_csv

from conftest import TABLE1, asym_scene, dyadic, exact_affine


class TestCorrelationMatrix:
    def test_identical_images(self):
        rng = np.random.default_rng(0)
        img = Image(rng.normal(size=(16, 16)))
        c = correlation_matrix([img, Image(img.pixels.copy())], crop_size=8)
        assert np.allclose(c.values, 1.0, atol=1e-12)

    def test_negated_image_anticorrelates(self):
        rng = np.random.default_rng(1)
        img = Image(rng.normal(size=(16, 16)))
        c = correlation_matrix([img, Image(-img.pixels)], crop_size=8)
        assert c.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_structure_on_scenes(self):
        imgs = [asym_scene(base_deg=a, size=64) for a in (0.0, 8.0, 25.0)]
        c = correlation_matrix(imgs, crop_size=32)
        assert np.abs(c.values - c.values.T).max() <= 1e-12
        assert np.array_equal(np.diag(c.values), np.ones(3))
        assert np.abs(c.values).max() <= 1.0

    def test_needs_two_images(self):
        with pytest.raises(ValueError, match="at least 2"):
            correlation_matrix([Image(np.ones((4, 4)))], crop_size=2)

    def test_degenerate_crop_reports_index(self):
        rng = np.random.default_rng(2)
        good = Image(rng.normal(size=(16, 16)))
        # variance lives only outside the center crop
        flat_center = rng.normal(size=(16, 16))
        flat_center[4:12, 4:12] = 0.0
        with pytest.raises((ValueError, DegenerateOverlapError), match=r"\d"):
            correlation_matrix([good, Image(flat_center)], crop_size=8)


    def test_matches_pairwise_ncc_on_rotated_frames(self):
        # rotated frames mask different corners, so each pair has its own
        # overlap; a 56 crop of a 64 frame keeps those corners in play
        imgs = [rotate(asym_scene(base_deg=b, size=64), a) for b, a in
                ((0.0, 0.0), (10.0, 12.0), (40.0, 30.0), (75.0, 57.0),
                 (120.0, 100.0), (170.0, 200.0))]
        crops = [center_crop(normalize(img), 56) for img in imgs]
        assert len({crop.valid().tobytes() for crop in crops}) == len(crops)
        c = correlation_matrix(imgs, crop_size=56)
        for i in range(len(imgs)):
            assert c.values[i, i] == 1.0
            for j in range(len(imgs)):
                if i != j:
                    both = crops[i].valid() & crops[j].valid()
                    expected = ncc(crops[i].pixels[both], crops[j].pixels[both])
                    assert abs(c.values[i, j] - expected) <= 1e-12

    def test_zero_variance_pair_is_named(self):
        rng = np.random.default_rng(5)
        flat_center = rng.normal(size=(16, 16))
        flat_center[4:12, 4:12] = 0.0
        imgs = [Image(rng.normal(size=(16, 16))),
                Image(rng.normal(size=(16, 16))), Image(flat_center)]
        with pytest.raises(DegenerateOverlapError,
                           match=r"zero variance overlap at pair \(0, 2\)"):
            correlation_matrix(imgs, crop_size=8)

    def test_empty_overlap_pair_is_named(self):
        rng = np.random.default_rng(6)
        left = np.zeros((8, 8), bool)
        left[:, :4] = True
        imgs = [Image(rng.normal(size=(8, 8))),
                Image(rng.normal(size=(8, 8)), left),
                Image(rng.normal(size=(8, 8)), ~left)]
        with pytest.raises(DegenerateOverlapError,
                           match=r"overlap of 0 samples at pair \(1, 2\)"):
            correlation_matrix(imgs, crop_size=8)

    @settings(max_examples=60, deadline=None)
    @given(maps=st.lists(st.tuples(st.integers(-6, 6), st.floats(-50, 50)),
                         min_size=2, max_size=6),
           size=st.integers(2, 16), keep=st.floats(0.3, 1.0),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_affine_intensity_invariance_on_masked_frames(
            self, maps, size, keep, data, seed):
        # each frame gets its own scale 2**-6..2**6 and offset up to +-50
        crop = data.draw(st.integers(2, size))
        assert affine_invariance_error(maps, size, keep, crop, seed) <= 1e-12

    def test_affine_intensity_invariance_on_two_pixel_overlaps(self):
        # a falsifying example of the property above: overlaps of 2 pixels
        # whose NCC is exactly +-1, one frame offset by +2
        maps = [(0, 0.0)] * 4 + [(0, 2.0)]
        assert affine_invariance_error(maps, 3, 0.5, 2, 3) <= 1e-12


def affine_invariance_error(maps, size, keep, crop, seed):
    """Largest change of the matrix when frame i is mapped exactly by maps[i]."""
    top = (size - crop) // 2
    rng = np.random.default_rng(seed)
    frames = []
    for _ in maps:
        mask = rng.random((size, size)) < keep
        mask[top, top:top + crop] = True  # one crop row valid in all
        frames.append(Image(dyadic(rng.standard_normal((size, size))), mask))
    moved = [Image(exact_affine(f.pixels, e, b), f.mask)
             for f, (e, b) in zip(frames, maps)]
    base = correlation_matrix(frames, crop).values
    return np.abs(correlation_matrix(moved, crop).values - base).max()


class TestTableValidation:
    @pytest.mark.parametrize("table", [CorrelationMatrix, ProbabilityTable])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, table, bad):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(ValueError, match=r"entry \(0, 2\) must be finite"):
            table(values)

    @pytest.mark.parametrize("table", [CorrelationMatrix, ProbabilityTable])
    @pytest.mark.parametrize("values, message", [
        (np.eye(2)[:1], "square"),
        (np.eye(1), "square"),
        (np.array([[1.0, 0.5], [0.4, 1.0]]), "symmetric"),
        (np.array([[1.0, 0.5], [0.5, 0.9]]), "diagonal"),
        (np.array([[1.0, 1.5], [1.5, 1.0]]), "lie in"),
    ])
    def test_malformed_table_rejected(self, table, values, message):
        with pytest.raises(ValueError, match=message):
            table(values)

    def test_ranges_differ(self):
        values = np.array([[1.0, -0.5], [-0.5, 1.0]])
        assert CorrelationMatrix(values).n == 2
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            ProbabilityTable(values)


class TestToProbability:
    def test_endpoints_and_midpoint(self):
        c = CorrelationMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        p = to_probability(c)
        assert p.p[0, 1] == 0.0
        assert p.p[0, 0] == 1.0
        c = CorrelationMatrix(np.array([[1.0, 0.6], [0.6, 1.0]]))
        assert to_probability(c).p[0, 1] == pytest.approx(0.8, abs=1e-15)

    def test_argmax_rows_preserved(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, size=(5, 5))
        vals = (a + a.T) / 2
        np.fill_diagonal(vals, 1.0)
        c = CorrelationMatrix(vals)
        p = to_probability(c)
        assert np.array_equal(np.argmax(c.values, axis=1),
                              np.argmax(p.p, axis=1))


class TestGreedySequence:
    def test_table1_from_first_frame(self, table1):
        plan = greedy_sequence(table1, start=0, length=2)
        assert plan.frames == [0, 1]
        assert plan.step_probs == [0.8]

    def test_table1_from_third_frame(self, table1):
        plan = greedy_sequence(table1, start=2, length=2)
        assert plan.frames == [2, 3]
        assert plan.step_probs == [0.6]

    def test_single_frame(self, table1):
        plan = greedy_sequence(table1, start=1, length=1)
        assert plan.frames == [1]
        assert plan.step_probs == []
        assert plan.log_chain_prob == 0.0

    def test_revisits_allowed_but_not_immediate(self, table1):
        plan = greedy_sequence(table1, start=0, length=5)
        assert plan.frames[:3] == [0, 1, 0]
        for prev, cur in zip(plan.frames, plan.frames[1:]):
            assert prev != cur

    def test_stored_log_prob_matches_chain_probability(self, table1):
        plan = greedy_sequence(table1, start=0, length=6)
        assert chain_probability(table1, plan.frames) == plan.log_chain_prob

    def test_deterministic(self, table1):
        a = greedy_sequence(table1, start=3, length=7)
        b = greedy_sequence(table1, start=3, length=7)
        assert a.frames == b.frames and a.step_probs == b.step_probs

    def test_chain_prob_bounded_by_min_step(self, table1):
        plan = greedy_sequence(table1, start=0, length=6)
        assert math.exp(plan.log_chain_prob) <= min(plan.step_probs) + 1e-15

    def test_bad_start(self, table1):
        with pytest.raises(ValueError, match="out of range"):
            greedy_sequence(table1, start=4, length=2)


class TestChainProbability:
    def test_table1_sequence(self, table1):
        lp = chain_probability(table1, [0, 1, 3])
        assert lp == pytest.approx(math.log(0.56), abs=1e-12)

    def test_single_frame_is_zero(self, table1):
        assert chain_probability(table1, [2]) == 0.0

    def test_zero_probability_step(self):
        p = ProbabilityTable(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert chain_probability(p, [0, 1]) == -math.inf

    def test_immediate_repeat_rejected(self, table1):
        with pytest.raises(ValueError, match="repeat"):
            chain_probability(table1, [0, 0])

    def test_invalid_index(self, table1):
        with pytest.raises(ValueError, match="out of range"):
            chain_probability(table1, [0, 9])


class TestCheckMonotonicity:
    def test_no_violation_forward(self, table1):
        assert check_monotonicity(table1, [0, 1, 2]) == []

    def test_no_violation_backward(self, table1):
        assert check_monotonicity(table1, [2, 1, 0]) == []

    def test_violation_reported(self, table1):
        violations = check_monotonicity(table1, [1, 0, 3])
        assert len(violations) == 1
        v = violations[0]
        assert v.position == 0
        assert v.actual == pytest.approx(0.7)
        assert v.expected_ge == pytest.approx(0.6)
        assert v.to_json_dict() == {"position": 0, "expected_ge": 0.6,
                                    "actual": 0.7}

    def test_too_few_frames(self, table1):
        with pytest.raises(ValueError, match="at least 2"):
            check_monotonicity(table1, [0])


class TestCsvRoundTrip:
    def test_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, size=(4, 4))
        path = tmp_path / "m.csv"
        matrix_to_csv(a, path)
        assert np.array_equal(load_square_csv(path), a)

    def test_probability_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        matrix_to_csv(TABLE1, path)
        table = load_probability_csv(path)
        assert np.array_equal(table.p, TABLE1)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1.0,0.5\n")
        with pytest.raises(ValueError, match="square"):
            load_square_csv(path)
