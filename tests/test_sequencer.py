import importlib.util
import math
import re
import sys
import warnings
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreg import (DegenerateOverlapError, Image, ProbabilityTable,
                      center_crop, chain_probability, check_monotonicity,
                      correlation_matrix, greedy_sequence,
                      load_probability_csv, matrix_to_csv, ncc, normalize,
                      rotate, to_probability)
from microreg.cli import main
from microreg.correlation import _centered, _masked_ncc
from microreg.sequencer import CorrelationMatrix, CropRows, load_square_csv

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

    def test_frames_of_the_crop_shape_give_the_same_table(self):
        # a frame of the crop's shape is its own center crop
        rng = np.random.default_rng(3)
        frames = [Image(rng.normal(size=(24, 20))) for _ in range(4)]
        mask = np.ones((24, 20), dtype=bool)
        mask[10:13, 8:10] = False
        frames.append(Image(rng.normal(size=(24, 20)), mask))
        expected = correlation_matrix(frames, crop_size=12).values
        crops = [center_crop(f, 12) for f in frames]
        assert np.array_equal(correlation_matrix(crops, 12).values, expected)

    def test_packed_rows_match_the_list_form(self, stack, monkeypatch):
        frames, crop, fallbacks = stack
        calls = []

        def counted(a, b):
            calls.append(1)
            return ncc(a, b)

        monkeypatch.setattr("microreg.sequencer.ncc", counted)
        expected = correlation_matrix(frames, crop).values
        assert len(calls) == fallbacks
        rows = CropRows(len(frames), crop)
        for k, frame in enumerate(frames):
            rows.put(k, frame)
        got = correlation_matrix(rows, crop).values
        assert len(calls) == 2 * fallbacks
        assert np.array_equal(got, expected)
        assert rows.pixels is None and len(rows) == len(frames)

    def test_rows_centered_in_place_have_the_bits_of_centered(self):
        # a fully valid stack is centered by one whole-stack expression; the
        # shapes are sequence-many's and matrix-stack's stacks of 40^2 and
        # 64^2 crops: row 0 is a scene crop and row 1 has a mean of 1e8
        rng = np.random.default_rng(7)
        for side, m in ((40, 300), (64, 32)):
            stack = rng.normal(rng.uniform(-50.0, 50.0, (m, 1)), 3.0,
                               (m, side * side))
            stack[0] = center_crop(asym_scene(size=64), side).pixels.ravel()
            stack[1] += 1e8
            rows = stack.copy()
            rows -= rows.mean(axis=1, keepdims=True)
            valid = np.ones(side * side, dtype=bool)
            expected = np.array([_centered(row, valid) for row in stack])
            assert rows.tobytes() == expected.tobytes(), side

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
        # a crop the frame cannot give, named by the frame's index
        with pytest.raises(ValueError, match="^image 1: crop size 6 out of "
                                             "range for 4x4 image$"):
            correlation_matrix([good, Image(np.ones((4, 4)))], crop_size=6)


    def test_matches_pairwise_ncc_on_rotated_frames(self):
        # rotated frames mask different corners, so each pair has its own
        # overlap; a 56 crop of a 64 frame keeps those corners in play
        imgs = [rotate(asym_scene(base_deg=b, size=64), a) for b, a in
                ((0.0, 0.0), (10.0, 12.0), (40.0, 30.0), (75.0, 57.0),
                 (120.0, 100.0), (170.0, 200.0))]
        crops = [center_crop(normalize(img), 56) for img in imgs]
        assert len({crop.mask.tobytes() for crop in crops}) == len(crops)
        c = correlation_matrix(imgs, crop_size=56)
        for i in range(len(imgs)):
            assert c.values[i, i] == 1.0
            for j in range(len(imgs)):
                if i != j:
                    both = crops[i].mask & crops[j].mask
                    expected = ncc(crops[i].pixels[both], crops[j].pixels[both])
                    assert abs(c.values[i, j] - expected) <= 1e-12

    def test_crop_of_one_pixel_reports_first_pair(self):
        rng = np.random.default_rng(7)
        imgs = [Image(rng.normal(size=(8, 8))) for _ in range(3)]
        with pytest.raises(DegenerateOverlapError,
                           match=r"^overlap of 1 samples at pair \(0, 1\)$"):
            correlation_matrix(imgs, crop_size=1)

    @settings(max_examples=100, deadline=None)
    @given(maps=st.lists(st.tuples(st.floats(-2, 2), st.floats(-50, 50)),
                         min_size=2, max_size=8),
           size=st.integers(2, 16), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_fully_valid_stack_matches_four_products(self, maps, size, data,
                                                     seed):
        # each frame gets its own scale 10**-2..10**2 and offset up to +-50
        crop = data.draw(st.integers(2, size))
        rng = np.random.default_rng(seed)
        imgs = [Image(10.0 ** e * rng.standard_normal((size, size)) + b)
                for e, b in maps]
        got = correlation_matrix(imgs, crop).values
        assert np.abs(got - four_product_matrix(imgs, crop)).max() <= 1e-15

    @pytest.mark.parametrize("name", ["matrix-stack", "sequence-many"])
    def test_workload_frames_match_four_products(self, name):
        # the frames each workload's matrix request correlates: rendered at
        # a grid angle and rotated back, every center crop fully valid
        workloads = bench_workloads()
        shape = workloads.SHAPES[name]
        kind, rng = shape.stack, np.random.default_rng(3)
        imgs = []
        for seed, k in enumerate(rng.integers(0, kind.angular, shape.stack_n)):
            angle = k * 360.0 / kind.angular
            imgs.append(rotate(workloads.render_scene(
                kind.size, 20.0, angle, kind.noise, seed), -angle))
        assert all(center_crop(img, shape.crop).mask.all() for img in imgs)
        got = correlation_matrix(imgs, shape.crop).values
        assert np.abs(got - four_product_matrix(imgs, shape.crop)).max() <= 1e-15

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


@pytest.fixture(params=["fully valid", "rotated", "fallback"])
def stack(request):
    """(frames, crop, two-pass recomputes) of a stack: fully valid crops,
    crops of rotated frames with their own masked corners, and a masked
    stack whose pair (0, 1) overlaps on the left half of frame 0 only:
    there frame 0's centered values sit near +50 with unit spread, too
    ill-conditioned for one-pass sums."""
    rng = np.random.default_rng(4)
    if request.param == "fully valid":
        return [Image(rng.normal(3.0, 2.0, (24, 20))) for _ in range(5)], 12, 0
    if request.param == "rotated":
        return [rotate(asym_scene(base_deg=b, size=64), a) for b, a in
                ((0.0, 0.0), (10.0, 12.0), (40.0, 30.0), (75.0, 57.0))], 56, 0
    step = rng.standard_normal((8, 8))
    step[:, :4] += 100.0
    left = np.zeros((8, 8), bool)
    left[:, :4] = True
    return [Image(step), Image(rng.standard_normal((8, 8)), left),
            Image(rng.standard_normal((8, 8)))], 8, 1


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


def four_product_matrix(images, crop_size):
    """Reference matrix: the overlap sums of every pair from the four Gram
    products V Vt, A Vt, A^2 Vt and A At, whatever the crops' masks."""
    crops = [center_crop(img, crop_size) for img in images]
    v = np.array([c.mask.ravel() for c in crops], dtype=np.float64)
    a = np.array([_centered(c.pixels, c.mask).ravel() for c in crops])
    i, j = np.triu_indices(len(images), 1)
    sums, sqsums = a @ v.T, np.square(a) @ v.T

    def exact(t):
        both = crops[i[t]].mask & crops[j[t]].mask
        return ncc(crops[i[t]].pixels[both], crops[j[t]].pixels[both])

    upper = _masked_ncc((v @ v.T)[i, j], sums[i, j], sums[j, i], sqsums[i, j],
                        sqsums[j, i], (a @ a.T)[i, j], str, exact)
    values = np.eye(len(images))
    values[i, j] = values[j, i] = upper
    return values


def bench_workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


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

    def test_zero_length(self, table1):
        with pytest.raises(ValueError, match="length must be >= 1"):
            greedy_sequence(table1, start=0, length=0)


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

    def test_empty_sequence_rejected(self, table1):
        with pytest.raises(ValueError, match="must not be empty"):
            chain_probability(table1, [])


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
        assert asdict(v) == {"position": 0, "expected_ge": 0.6,
                             "actual": 0.7}

    def test_too_few_frames(self, table1):
        with pytest.raises(ValueError, match="at least 2"):
            check_monotonicity(table1, [0])


def loop_log_sum(probs):
    total = 0.0
    for q in probs:
        if q == 0.0:
            return -math.inf
        total += math.log(q)
    return total


def loop_greedy_sequence(p, start, length):
    """Reference: the greedy chain as a scan of the current row at every step."""
    frames = [start]
    step_probs = []
    for _ in range(length - 1):
        cur = frames[-1]
        row = p.p[cur].copy()
        row[cur] = -np.inf  # no immediate repeat
        nxt = int(np.argmax(row))
        frames.append(nxt)
        step_probs.append(float(p.p[cur, nxt]))
    return frames, step_probs, loop_log_sum(step_probs)


def loop_monotonicity(p, frames):
    """Reference: the monotonicity diagnostic as one comparison per pair,
    walking back from the last frame."""
    last = frames[-1]
    violations = []
    for t in range(len(frames) - 2, 0, -1):
        nearer = p.p[last, frames[t]]
        farther = p.p[last, frames[t - 1]]
        if farther > nearer:
            violations.append((t - 1, float(nearer), float(farther)))
    return violations


@st.composite
def probability_tables(draw, exact=False):
    """Probability tables, often with ties. An exact table is symmetric bit
    for bit with a unit diagonal, as matrix writes it, and has few distinct
    values; otherwise the lower triangle and the diagonal may move by up to
    1e-12, which ProbabilityTable accepts."""
    n = draw(st.integers(2, 8))
    levels = draw(st.integers(1, 4))
    tied = st.integers(0, levels).map(lambda k: k / levels)
    cell = tied if exact else tied | st.floats(0.0, 1.0)
    upper = np.triu(np.array(draw(st.lists(
        cell, min_size=n * n, max_size=n * n))).reshape(n, n), 1)
    table = upper + upper.T
    np.fill_diagonal(table, 1.0)
    if not exact and draw(st.booleans()):
        jitter = draw(st.lists(st.floats(-9e-13, 9e-13), min_size=n * n,
                               max_size=n * n))
        table = np.clip(table + np.tril(np.reshape(jitter, (n, n))), 0.0, 1.0)
    return ProbabilityTable(table)


class TestLoopOracles:
    @settings(max_examples=200, deadline=None)
    @given(p=probability_tables())
    def test_greedy_matches_row_scan(self, p):
        for start in range(p.n):
            for length in range(1, 3 * p.n + 1):
                plan = greedy_sequence(p, start, length)
                frames, step_probs, log_prob = loop_greedy_sequence(
                    p, start, length)
                # repr tells int from np.int64 and -0.0 from 0.0
                assert repr(plan.frames) == repr(frames)
                assert repr(plan.step_probs) == repr(step_probs)
                assert repr(plan.log_chain_prob) == repr(log_prob)
                assert repr(chain_probability(p, frames)) == repr(log_prob)

    @settings(max_examples=200, deadline=None)
    @given(p=probability_tables(), data=st.data())
    def test_monotonicity_matches_pair_loop(self, p, data):
        walks = [greedy_sequence(p, start, 3 * p.n).frames
                 for start in range(p.n)]
        walks += data.draw(st.lists(st.lists(
            st.integers(0, p.n - 1), min_size=2, max_size=3 * p.n),
            max_size=5))
        for frames in walks:
            found = [astuple(v) for v in check_monotonicity(p, frames)]
            assert repr(found) == repr(loop_monotonicity(p, frames))

    @settings(max_examples=200, deadline=None)
    @given(p=probability_tables(), data=st.data())
    def test_chain_probability_matches_factor_loop(self, p, data):
        frames = [data.draw(st.integers(0, p.n - 1))]
        for step in data.draw(st.lists(st.integers(1, p.n - 1),
                                       max_size=3 * p.n)):
            frames.append((frames[-1] + step) % p.n)  # never a repeat
        expected = loop_log_sum(p.p[a, b] for a, b in zip(frames, frames[1:]))
        assert repr(chain_probability(p, frames)) == repr(expected)


class TestGreedyTwoFrameCycle:
    """The paper's rule on a table that is symmetric bit for bit.

    Step t + 1 leaves frame f_t + 1 for its most probable other frame, which
    is at least as probable as going back to f_t, so the step probabilities
    never fall. A cycle of three or more frames would then need all its
    steps equal, and ties go to the smallest index, so each frame of the
    cycle would be below the one before it, all the way round. The chain
    therefore ends in two frames that are each other's successor.
    """

    @settings(max_examples=200, deadline=None)
    @given(p=probability_tables(exact=True))
    def test_chain_ends_in_two_frame_cycle(self, p):
        n = p.n
        for start in range(n):
            plan = greedy_sequence(p, start, 2 * n + 3)
            frames = plan.frames
            assert plan.step_probs == sorted(plan.step_probs)
            entry = next((t for t in range(len(frames) - 2)
                          if frames[t + 2] == frames[t]), None)
            assert entry is not None and entry <= n - 2, frames
            assert all(frames[t + 2] == frames[t]
                       for t in range(entry, len(frames) - 2))
            assert len(set(frames)) == len(set(frames[:entry + 2])) \
                == entry + 2


def per_cell_matrix_to_csv(values, path):
    """Reference writer: one repr per cell, through a numpy scalar."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(str(i) for i in range(values.shape[0])) + "\n")
        for row in values:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


@st.composite
def square_floats(draw, **floats):
    """Square tables of any float, with subnormals, signed zeros and the
    sums whose shortest repr is long."""
    n = draw(st.integers(1, 6))
    cell = st.floats(**floats) | st.sampled_from(
        (5e-324, -5e-324, 2.2250738585072014e-308, 0.1 + 0.2, -0.0, 0.0))
    cells = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    table = np.array(cells, dtype=np.float64).reshape(n, n)
    if draw(st.booleans()):
        # the lower triangle mirrors the upper one bit for bit, except that
        # some zeros and NaNs change sign: 0.0 faces -0.0, NaN another NaN
        lower = np.tril_indices(n, -1)
        mirror = table.T[lower]
        flip = np.array(draw(st.lists(st.booleans(), min_size=mirror.size,
                                      max_size=mirror.size)), dtype=bool)
        flip &= (mirror == 0.0) | np.isnan(mirror)
        table[lower] = np.where(flip, -mirror, mirror)
    return table


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

    @pytest.mark.parametrize("text, message", [
        ("", "empty matrix CSV"),
        ("0,1\n", "empty matrix CSV"),
        ("0,1\n1.0,0.5\n0.5\n", "matrix CSV is not square"),  # ragged
        ("0,1,2\n1.0,0.5,1.0\n0.5,1.0,1.0\n", "matrix CSV is not square"),
        ("0,1\n1.0,x\n0.5,1.0\n", "non-numeric matrix entry"),
        ("0,1\n1.0,0.5#\n0.5,1.0\n", "non-numeric matrix entry"),
        ("0,1\n1.0,0.5\n#0.5,1.0\n", "non-numeric matrix entry"),
    ])
    def test_malformed_table_messages(self, tmp_path, text, message):
        # '#' starts no comment: it is a non-numeric cell like any other
        path = tmp_path / "bad.csv"
        path.write_text(text)
        pattern = f"^{re.escape(str(path))}: {message}$"
        with pytest.raises(ValueError, match=pattern):
            load_square_csv(path)

    def test_non_ascii_byte_is_reported_at_its_file_offset(self, tmp_path):
        # the table is read as a stream of lines: the offset of a byte past
        # the first read-ahead block is still the byte's offset in the file
        path = tmp_path / "m.csv"
        matrix_to_csv(np.random.default_rng(5).uniform(size=(80, 80)), path)
        data = bytearray(path.read_bytes())
        offset = 64 * 2 ** 10 + 123
        assert len(data) > offset + 1
        data[offset] = 0xE9
        path.write_bytes(bytes(data))
        message = (f"{path}: not an ASCII CSV (ordinal not in range(128) "
                   f"at byte {offset})")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_square_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n", "0,1\n", "\n0,1\n\n\n"])
    def test_empty_table_fails_with_one_line_and_no_warning(
            self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sequence", "--matrix", str(path), "--start", "0",
                       "--length", "2", "--plan", str(tmp_path / "plan.json"),
                       "--frames", str(tmp_path / "frames.txt")])
        assert rc == 2
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == f"error: {path}: empty matrix CSV\n"

    def test_blank_lines_and_crlf_are_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\r\n0,1\r\n1.0,0.5\r\n\r\n0.5,1.0\r\n\r\n")
        assert load_square_csv(path).tolist() == [[1.0, 0.5], [0.5, 1.0]]

    @settings(max_examples=200, deadline=None)
    @given(a=square_floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_is_bitwise(self, tmp_path_factory, a):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        matrix_to_csv(a, path)
        assert np.array_equal(load_square_csv(path).view(np.int64),
                              a.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(a=square_floats())
    def test_writer_matches_per_cell_writer(self, tmp_path_factory, a):
        base = tmp_path_factory.getbasetemp()
        matrix_to_csv(a, base / "rows.csv")
        per_cell_matrix_to_csv(a, base / "cells.csv")
        assert ((base / "rows.csv").read_bytes()
                == (base / "cells.csv").read_bytes())
