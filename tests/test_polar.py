import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreg import (FilamentSpec, Image, cyclic_shift, normalize, rotate,
                      synth_filament, to_polar)
from microreg.image import bilinear_sample
from microreg.polar import PolarImage, _polar_plan, polar_to_csv


@st.composite
def grids_with_validity(draw):
    s, r = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = s * r
    kept = draw(st.lists(st.floats(-1e3, 1e3) | st.just(-0.0),
                         min_size=cells, max_size=cells))
    dropped = draw(st.lists(st.floats(), min_size=cells, max_size=cells))
    valid = np.array(draw(st.lists(st.booleans(), min_size=cells,
                                   max_size=cells))).reshape(s, r)
    values = np.where(valid, np.reshape(kept, (s, r)),
                      np.reshape(dropped, (s, r)))
    return values, valid


class TestPolarImage:
    @settings(max_examples=200, deadline=None)
    @given(case=grids_with_validity())
    def test_invalid_samples_are_zero(self, case):
        values, valid = case
        p = PolarImage(values, valid, 1.0)
        assert p.valid.dtype == bool and p.valid.shape == values.shape
        assert np.array_equal(p.valid, valid)
        assert np.array_equal(p.values[valid].view(np.int64),
                              values[valid].view(np.int64))
        assert not p.values[~valid].view(np.int64).any()  # +0.0 bits


class TestToPolar:
    def test_constant_image_all_samples_constant(self):
        img = Image(np.full((21, 21), 3.5))
        p = to_polar(img, 10.0, 10.0, 8, 5, max_radius=8.0)
        assert p.valid.all()
        assert np.abs(p.values - 3.5).max() <= 1e-12

    def test_ramp_hand_values(self):
        # img(x, y) = x on a 5x5 grid, one radius sample at r = 1
        img = Image(np.tile(np.arange(5.0), (5, 1)))
        p = to_polar(img, 2.0, 2.0, 4, 1, max_radius=2.0)
        assert np.allclose(p.values[:, 0], [3.0, 2.0, 1.0, 2.0], atol=1e-12)

    def test_outer_ring_invalid_when_radius_exceeds_image(self):
        img = Image(np.ones((11, 11)))
        p = to_polar(img, 5.0, 5.0, 8, 10, max_radius=30.0)
        assert not p.valid[:, -1].any()
        assert p.valid[:, 0].all()

    def test_all_invalid_raises(self):
        img = Image(np.ones((11, 11)))
        with pytest.raises(ValueError, match="no valid polar samples"):
            to_polar(img, 500.0, 500.0, 8, 4, max_radius=5.0)

    def test_default_grid_shape(self):
        img = Image(np.ones((64, 64)))
        p = to_polar(img, 31.5, 31.5)
        assert p.angular_samples == 720
        assert p.radial_samples == 200
        assert p.max_radius == 31.0

    def test_radially_symmetric_rows_equal(self):
        # quarter-turn sampling of a symmetric image about an integer center
        ys, xs = np.mgrid[0:33, 0:33].astype(float)
        img = Image(np.exp(-((xs - 16) ** 2 + (ys - 16) ** 2) / 200.0))
        p = to_polar(img, 16.0, 16.0, 4, 10, max_radius=12.0)
        for i in range(1, 4):
            assert np.abs(p.values[i] - p.values[0]).max() <= 1e-6

    def test_validity_monotone_in_radius(self):
        rng = np.random.default_rng(0)
        img = Image(rng.normal(size=(15, 20)))
        p = to_polar(img, 4.0, 11.0, 24, 16, max_radius=18.0)
        for i in range(p.angular_samples):
            row = p.valid[i]
            first_bad = np.argmin(row) if not row.all() else len(row)
            assert not row[first_bad:].any() or row.all()


class TestCyclicShift:
    def grid(self):
        rng = np.random.default_rng(1)
        valid = rng.random((12, 5)) > 0.2
        valid[0] = True
        return PolarImage(rng.normal(size=(12, 5)), valid, 5.0)

    def test_zero_shift_identity(self):
        p = self.grid()
        q = cyclic_shift(p, 0)
        assert np.array_equal(q.values, p.values)
        assert np.array_equal(q.valid, p.valid)

    def test_full_period_identity(self):
        p = self.grid()
        q = cyclic_shift(p, 12)
        assert np.array_equal(q.values, p.values)

    def test_shift_composition(self):
        p = self.grid()
        once = cyclic_shift(cyclic_shift(p, 3), 4)
        combined = cyclic_shift(p, 7)
        assert np.array_equal(once.values, combined.values)
        assert np.array_equal(once.valid, combined.valid)

    def test_row_mapping(self):
        p = self.grid()
        q = cyclic_shift(p, 2)
        assert np.array_equal(q.values[2], p.values[0])
        assert np.array_equal(q.values[0], p.values[10])


def test_rotation_shift_correspondence():
    # the sign-convention contract between rotate and cyclic_shift
    f = synth_filament(FilamentSpec(size=128, half_length=38.0))
    s, k = 72, 9  # 5-degree steps, 45-degree rotation
    p_ref = to_polar(normalize(f), 63.5, 63.5, s, 40, max_radius=50.0)
    rotated = rotate(f, k * 360.0 / s)
    p_rot = to_polar(normalize(rotated), 63.5, 63.5, s, 40, max_radius=50.0)
    shifted = cyclic_shift(p_ref, k)
    both = p_rot.valid & shifted.valid

    def unit(v):
        return (v - v.mean()) / v.std()

    mae = np.abs(unit(p_rot.values[both]) - unit(shifted.values[both])).mean()
    assert mae <= 0.05


def test_polar_csv_export(tmp_path):
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    valid = np.array([[True, True], [True, False], [True, True]])
    out = tmp_path / "p.csv"
    polar_to_csv(PolarImage(values, valid, 2.0), out)
    lines = out.read_text().splitlines()
    assert lines == ["1.0,2.0", "3.0,", "5.0,6.0"]


def per_cell_csv(p):
    """Reference writer: one repr per valid cell, an empty cell elsewhere."""
    return "".join(",".join(repr(float(p.values[i, j])) if p.valid[i, j]
                            else "" for j in range(p.radial_samples)) + "\n"
                   for i in range(p.angular_samples))


@settings(max_examples=200, deadline=None)
@given(case=grids_with_validity())
def test_polar_csv_matches_per_cell_writer(tmp_path_factory, case):
    p = PolarImage(*case, 1.0)
    out = tmp_path_factory.getbasetemp() / "cells.csv"
    polar_to_csv(p, out)
    assert out.read_bytes() == per_cell_csv(p).encode("ascii")


def polar_oracle(img, cx, cy, s, r, max_radius):
    """to_polar's grid sampled afresh: bilinear_sample at each (t_i, r_j)."""
    thetas = np.deg2rad(np.arange(s) * (360.0 / s))
    radii = (np.arange(r) + 0.5) * (max_radius / r)
    xs = cx + radii[None, :] * np.cos(thetas)[:, None]
    ys = cy + radii[None, :] * np.sin(thetas)[:, None]
    values, valid = bilinear_sample(img.pixels, img.mask, xs, ys)
    return np.where(valid, values, 0.0), valid


def assert_same_bits(p, values, valid):
    assert np.array_equal(p.valid, valid)
    assert np.array_equal(p.values.view(np.int64), values.view(np.int64))


def test_shared_plans_match_fresh_sampling():
    # two shapes alternate, each full and masked: one plan serves each shape
    rng = np.random.default_rng(2)
    _polar_plan.cache_clear()
    for shape, masked in (((21, 21), False), ((15, 24), True),
                          ((21, 21), True), ((15, 24), False),
                          ((21, 21), False), ((15, 24), True)):
        mask = rng.random(shape) > 0.1 if masked else None
        img = Image(rng.normal(size=shape), mask)
        cx, cy = (shape[1] - 1) / 2.0, (shape[0] - 1) / 2.0
        p = to_polar(img, cx, cy, 16, 6, max_radius=6.0)
        assert_same_bits(p, *polar_oracle(img, cx, cy, 16, 6, 6.0))
        assert p.valid.all() != masked
    assert _polar_plan.cache_info().misses == 2


def test_shared_plan_takes_each_frame_mask():
    img = Image(np.arange(121.0).reshape(11, 11))
    mask = np.ones((11, 11), dtype=bool)
    mask[5, 6:] = False  # the ray at angle 0
    masked = Image(img.pixels, mask)
    for frame in (img, masked, img, masked):
        p = to_polar(frame, 5.0, 5.0, 8, 4, max_radius=4.0)
        assert_same_bits(p, *polar_oracle(frame, 5.0, 5.0, 8, 4, 4.0))
        if frame is img:
            assert p.valid.all()
        else:
            assert not p.valid[0].any()


def test_kept_plan_is_read_only():
    img = Image(np.ones((13, 13)))
    to_polar(img, 6.0, 6.0, 8, 4, max_radius=5.0)
    plan = _polar_plan((13, 13), 6.0, 6.0, 8, 4, 5.0)
    for a in (plan.base, plan.weights, plan.valid):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


@pytest.mark.parametrize("masked", [False, True])
def test_writing_a_result_leaves_the_next_alone(masked):
    rng = np.random.default_rng(3)
    mask = rng.random((17, 17)) > 0.2 if masked else None
    img = Image(rng.normal(size=(17, 17)), mask)
    first = to_polar(img, 8.0, 8.0, 12, 5, max_radius=7.0)
    values, valid = first.values.copy(), first.valid.copy()
    first.values[:] = 7.0
    first.valid[:] = ~first.valid
    assert_same_bits(to_polar(img, 8.0, 8.0, 12, 5, max_radius=7.0),
                     values, valid)
