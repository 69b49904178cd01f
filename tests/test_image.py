import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreg import (DegenerateImageError, Image, PgmFormatError, center_crop,
                      circular_crop, load_pgm, normalize, rotate,
                      rotation_matrix, save_pgm)
from microreg.image import apply_plan, bilinear_sample, sampling_plan


def write_pgm_bytes(path, header, payload):
    path.write_bytes(header + payload)


@st.composite
def pixels_and_masks(draw):
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pixels = draw(st.lists(st.floats(-1e3, 1e3) | st.just(-0.0),
                           min_size=h * w, max_size=h * w))
    mask = draw(st.none() | st.lists(
        st.booleans(), min_size=h * w, max_size=h * w).filter(any).map(
        lambda m: np.array(m).reshape(h, w)))
    return np.array(pixels).reshape(h, w), mask


class TestImage:
    @settings(max_examples=200, deadline=None)
    @given(case=pixels_and_masks())
    def test_mask_is_an_array_and_invalid_pixels_are_zero(self, case):
        pixels, mask = case
        img = Image(pixels, mask)
        assert img.mask.dtype == bool and img.mask.shape == pixels.shape
        keep = np.ones(pixels.shape, dtype=bool) if mask is None else mask
        assert np.array_equal(img.mask, keep)
        assert np.array_equal(img.pixels[keep].view(np.int64),
                              pixels[keep].view(np.int64))
        assert not img.pixels[~keep].view(np.int64).any()  # +0.0 bits


class TestLoadPgm:
    def test_raw_byte_mapping(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5 2 2 255\n", bytes([0, 128, 255, 64]))
        img = load_pgm(p)
        assert img.width == 2 and img.height == 2
        assert img.pixels.tolist() == [[0, 128], [255, 64]]
        assert img.mask.all()

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5\n# a comment\n2 1 255\n", bytes([7, 9]))
        assert load_pgm(p).pixels.tolist() == [[7, 9]]

    def test_ascii_p2_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(PgmFormatError, match="unsupported format"):
            load_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5 2 2 255\n", bytes([0, 1, 2]))
        with pytest.raises(PgmFormatError, match="truncated payload"):
            load_pgm(p)

    def test_wrong_maxval(self, tmp_path):
        # 1 to 65535 are valid PGM maxvals; 0 and anything above are not
        p = tmp_path / "a.pgm"
        for maxval in (b"0", b"65536", b"100000"):
            write_pgm_bytes(p, b"P5 2 2 " + maxval + b"\n", bytes(8))
            with pytest.raises(PgmFormatError, match="maxval"):
                load_pgm(p)

    @pytest.mark.parametrize("maxval, payload", [
        (100, bytes([0, 1, 101, 3])),
        (300, bytes([0, 0, 1, 45, 0, 2, 0, 3])),  # 0x012d = 301
    ])
    def test_sample_above_maxval_rejected(self, tmp_path, maxval, payload):
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5 2 2 %d\n" % maxval, payload)
        with pytest.raises(PgmFormatError, match=f"above maxval {maxval}"):
            load_pgm(p)

    def test_sixteen_bit_samples_are_big_endian(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5 2 2 65535\n",
                        bytes([0, 1, 1, 0, 255, 255, 0x12, 0x34]))
        assert load_pgm(p).pixels.tolist() == [[1, 256], [65535, 0x1234]]

    def test_truncated_sixteen_bit_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5 2 2 1000\n", bytes(7))
        with pytest.raises(PgmFormatError, match="expected 8 bytes, got 7"):
            load_pgm(p)

    @settings(max_examples=200, deadline=None)
    @given(maxval=st.integers(1, 65535), height=st.integers(1, 9),
           width=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_over_maxval_and_shape(self, tmp_path_factory, maxval,
                                              height, width, seed):
        rng = np.random.default_rng(seed)
        samples = rng.integers(0, maxval, size=(height, width),
                               endpoint=True)
        dtype = ">u1" if maxval < 256 else ">u2"
        p = tmp_path_factory.getbasetemp() / "maxval.pgm"
        write_pgm_bytes(p, b"P5\n%d %d\n%d\n" % (width, height, maxval),
                        samples.astype(dtype).tobytes())
        img = load_pgm(p)
        assert img.mask.all()
        assert np.array_equal(img.pixels, samples)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5 2")
        with pytest.raises(PgmFormatError, match="malformed header"):
            load_pgm(p)

    @pytest.mark.parametrize("header", [b"P5 1_6 1 255\n", b"P5 +16 1 255\n",
                                        b"P5 16 1 2_55\n"])
    def test_non_digit_numbers_rejected(self, tmp_path, header):
        # int() reads each of these as 16 or 255
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, header, bytes(16))
        with pytest.raises(PgmFormatError, match="non-numeric"):
            load_pgm(p)

    @settings(max_examples=200, deadline=None)
    @given(header=st.one_of(
        st.binary(max_size=40),
        st.text(alphabet="P5 \t\n#0123456789+-_.e", max_size=40).map(
            str.encode)), payload=st.binary(max_size=20))
    def test_fuzzed_header_fails_only_with_format_error(
            self, tmp_path_factory, header, payload):
        p = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        write_pgm_bytes(p, header, payload)
        try:
            img = load_pgm(p)
        except PgmFormatError:
            return
        assert img.pixels.size <= len(payload)


class TestSavePgm:
    def payload(self, path):
        data = path.read_bytes()
        return data[data.index(b"255\n") + 4:]

    def test_identity_rescale(self, tmp_path):
        p = tmp_path / "a.pgm"
        save_pgm(Image(np.array([[0.0, 255.0]])), p)
        assert self.payload(p) == bytes([0, 255])

    def test_linear_rescale(self, tmp_path):
        p = tmp_path / "a.pgm"
        save_pgm(Image(np.array([[-1.0, 1.0]])), p)
        assert self.payload(p) == bytes([0, 255])

    def test_constant_writes_zeros(self, tmp_path):
        p = tmp_path / "a.pgm"
        save_pgm(Image(np.full((2, 2), 5.0)), p)
        assert self.payload(p) == bytes(4)

    def test_masked_out_pixels_write_zero(self, tmp_path):
        p = tmp_path / "a.pgm"
        img = Image(np.array([[10.0, 20.0], [30.0, 99.0]]),
                    np.array([[True, True], [True, False]]))
        save_pgm(img, p)
        assert self.payload(p)[-1] == 0

    def test_round_trip_full_range_payload(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(7, 5)).astype(float)
        pixels[0, 0], pixels[0, 1] = 0.0, 255.0  # rescale is identity
        p = tmp_path / "a.pgm"
        save_pgm(Image(pixels), p)
        save_pgm(load_pgm(p), tmp_path / "b.pgm")
        assert (tmp_path / "b.pgm").read_bytes() == p.read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_span_beyond_float_range(self, tmp_path):
        # hi - lo overflows: the span is rescaled without forming it
        p = tmp_path / "a.pgm"
        save_pgm(Image(np.array([[-1.7e308, 0.0, 1.7e308]])), p)
        assert self.payload(p) == bytes([0, 128, 255])

    @pytest.mark.filterwarnings("error")
    def test_subnormal_span(self, tmp_path):
        # 255 / (hi - lo) overflows for a span this small
        p = tmp_path / "a.pgm"
        save_pgm(Image(np.array([[0.0, 5e-324, 1e-310]])), p)
        assert self.payload(p) == bytes([0, 0, 255])

    @settings(max_examples=200, deadline=None)
    @given(pixels=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
           scale_exp=st.integers(-300, 300))
    def test_bytes_match_direct_rescale(self, tmp_path_factory, pixels,
                                        scale_exp):
        # where (p - lo) * (255 / (hi - lo)) stays in the normal range, the
        # power-of-two rescale changes no byte
        pixels = np.array(pixels) * 2.0 ** scale_exp
        lo, hi = pixels.min(), pixels.max()
        if not hi - lo > 1e-290:
            return
        scaled = (pixels - lo) * (255.0 / (hi - lo))
        expected = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
        p = tmp_path_factory.getbasetemp() / "rescale.pgm"
        save_pgm(Image(pixels[None, :]), p)
        assert self.payload(p) == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(height=st.integers(1, 12), width=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip_of_8_bit_images(self, tmp_path_factory, height,
                                        width, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(height, width)).astype(float)
        pixels.flat[rng.permutation(pixels.size)[:2]] = 0.0, 255.0
        p = tmp_path_factory.getbasetemp() / "round_trip.pgm"
        save_pgm(Image(pixels), p)
        assert np.array_equal(load_pgm(p).pixels, pixels)


class TestNormalize:
    def test_two_pixel_example(self):
        out = normalize(Image(np.array([[1.0, 3.0]])))
        assert np.allclose(out.pixels, [[-1.0, 1.0]], atol=1e-12)

    def test_zero_mean_unit_population_std(self):
        rng = np.random.default_rng(1)
        out = normalize(Image(rng.normal(5, 3, (16, 16))))
        assert abs(out.pixels.mean()) <= 1e-10
        assert abs(out.pixels.std() - 1.0) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = normalize(Image(rng.normal(size=(8, 8))))
        twice = normalize(once)
        assert np.abs(twice.pixels - once.pixels).max() <= 1e-10

    def test_constant_raises(self):
        with pytest.raises(DegenerateImageError, match="zero variance"):
            normalize(Image(np.full((3, 3), 2.0)))

    def test_affine_intensity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            img = Image(rng.normal(size=(10, 10)))
            a = rng.uniform(0.1, 10)
            b = rng.uniform(-5, 5)
            scaled = Image(a * img.pixels + b)
            assert np.abs(normalize(scaled).pixels
                          - normalize(img).pixels).max() <= 1e-9

    def test_masked_pixels_excluded_and_zeroed(self):
        mask = np.array([[True, True], [True, False]])
        img = Image(np.array([[1.0, 3.0], [2.0, 1e6]]), mask)
        out = normalize(img)
        valid = out.pixels[mask]
        assert abs(valid.mean()) <= 1e-10
        assert abs(valid.std() - 1.0) <= 1e-10
        assert out.pixels[1, 1] == 0.0
        assert np.array_equal(out.mask, mask)


class TestCircularCrop:
    def test_disc_covers_image(self):
        img = Image(np.arange(16.0).reshape(4, 4))
        out = circular_crop(img, 1.5, 1.5, 10.0)
        assert out.mask.all()
        assert np.array_equal(out.pixels, img.pixels)

    def test_masked_in_count_matches_disc_area(self):
        img = Image(np.ones((100, 100)))
        out = circular_crop(img, 49.5, 49.5, 40.0)
        # independent oracle: count pixel centers inside the disc
        count = sum(1 for y in range(100) for x in range(100)
                    if (x - 49.5) ** 2 + (y - 49.5) ** 2 <= 40.0 ** 2)
        assert out.mask.sum() == count
        assert abs(count - np.pi * 40 ** 2) <= 0.01 * np.pi * 40 ** 2

    def test_corner_masked_out(self):
        img = Image(np.ones((100, 100)))
        out = circular_crop(img, 49.5, 49.5, 40.0)
        assert not out.mask[0, 0]

    def test_disc_outside_raises(self):
        img = Image(np.ones((10, 10)))
        with pytest.raises(ValueError, match="outside"):
            circular_crop(img, 100.0, 100.0, 3.0)


class TestCenterCrop:
    def test_full_window(self):
        img = Image(np.arange(9.0).reshape(3, 3))
        assert np.array_equal(center_crop(img, 3).pixels, img.pixels)

    def test_floor_biased_window(self):
        img = Image(np.arange(16.0).reshape(4, 4))
        out = center_crop(img, 2)
        assert np.array_equal(out.pixels, img.pixels[1:3, 1:3])

    def test_size_out_of_range(self):
        img = Image(np.ones((4, 4)))
        with pytest.raises(ValueError):
            center_crop(img, 0)
        with pytest.raises(ValueError):
            center_crop(img, 5)


def per_tap_bilinear_sample(pixels, mask, xs, ys):
    """Reference sampler: a bounds test, two clips and a masked gather per tap.

    Casting a NaN, infinite or far-out floor to int64 is undefined and warns;
    on x86 it gives INT64_MIN, which every bounds test rejects, so the sample
    comes out invalid. Call it under np.errstate.
    """
    h, w = pixels.shape
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0
    values = np.zeros(xs.shape, dtype=np.float64)
    valid = np.ones(xs.shape, dtype=bool)
    for dx, dy, wt in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xi = x0 + dx
        yi = y0 + dy
        inb = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        xc = np.clip(xi, 0, w - 1)
        yc = np.clip(yi, 0, h - 1)
        ok = inb if mask is None else inb & mask[yc, xc]
        values += np.where(ok, pixels[yc, xc], 0.0) * wt
        valid &= ok | (wt == 0)
    return values, valid


# the fraction of -1e-20 rounds to 1.0, which gives its floor taps weight 0
FAR = (-1e-20, 1e300, -1e300, np.inf, -np.inf, np.nan)


def coordinates(n):
    """Coordinates along an axis of n pixels: inside, on and beyond its edges,
    integers and their float neighbours, and far or non-finite values."""
    near_integers = st.tuples(st.integers(-3, n + 2), st.sampled_from(
        (-1, 0, 1))).map(lambda t: np.nextafter(float(t[0]), t[0] + t[1]))
    return st.one_of(st.floats(-3.0, n + 2.0), near_integers,
                     st.sampled_from(FAR))


@st.composite
def sampling_cases(draw):
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    # -0.0 among negative pixels is what tells a sum started at -0.0 apart
    pixel = st.floats(-1e3, 1e3) | st.sampled_from((-0.0, -1.0))
    pixels = np.array(draw(st.lists(pixel, min_size=h * w,
                                    max_size=h * w))).reshape(h, w)
    mask = draw(st.just(np.ones((h, w), dtype=bool)) | st.lists(
        st.booleans(), min_size=h * w, max_size=h * w).map(
        lambda m: np.array(m).reshape(h, w)))
    n = draw(st.integers(1, 16))
    xs = draw(st.lists(coordinates(w), min_size=n, max_size=n))
    ys = draw(st.lists(coordinates(h), min_size=n, max_size=n))
    return pixels, mask, np.array(xs), np.array(ys)


class TestBilinearSample:
    @settings(max_examples=300, deadline=None)
    @given(case=sampling_cases())
    def test_matches_per_tap_reference(self, case):
        with np.errstate(invalid="ignore", over="ignore"):
            expected, expected_valid = per_tap_bilinear_sample(*case)
        values, valid = bilinear_sample(*case)
        assert np.array_equal(valid, expected_valid)
        assert np.array_equal(values[valid].view(np.int64),
                              expected[valid].view(np.int64))

    @settings(max_examples=150, deadline=None)
    @given(case=sampling_cases(), seed=st.integers(0, 2**32 - 1))
    def test_one_plan_serves_every_image_of_its_shape(self, case, seed):
        # a plan holds no pixel or mask: the full-mask frame takes the plan's
        # validity, and a masked frame of the same shape its own
        pixels, mask, xs, ys = case
        plan = sampling_plan(pixels.shape, xs, ys)
        other = np.random.default_rng(seed).uniform(-1e3, 1e3, pixels.shape)
        full = np.ones(pixels.shape, dtype=bool)
        for frame, frame_mask in ((pixels, mask), (other, full),
                                  (pixels, full), (other, mask)):
            with np.errstate(invalid="ignore", over="ignore"):
                expected, expected_valid = per_tap_bilinear_sample(
                    frame, frame_mask, xs, ys)
            values, valid = apply_plan(plan, frame, frame_mask)
            assert np.array_equal(valid, expected_valid)
            assert np.array_equal(values[valid].view(np.int64),
                                  expected[valid].view(np.int64))

    def test_plan_rejects_another_shape(self):
        plan = sampling_plan((3, 4), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="does not match"):
            apply_plan(plan, np.zeros((4, 3)), np.ones((4, 3), dtype=bool))

    def test_non_finite_coordinates_are_invalid_without_warnings(self):
        pixels = np.arange(12.0).reshape(3, 4)
        xs = np.array([np.nan, np.inf, -np.inf, 1.0, 1.0, 1.0, 1e300, 1.5])
        ys = np.array([1.0, 1.0, 1.0, np.nan, np.inf, -np.inf, -1e300, 1.0])
        mask = np.ones(pixels.shape, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, valid = bilinear_sample(pixels, mask, xs, ys)
        assert valid.tolist() == [False] * 7 + [True]
        assert values[-1] == 5.5


def rotate90_oracle(pixels):
    """Index-permutation 90-degree rotation about the center of an odd square."""
    n = pixels.shape[0]
    c = (n - 1) // 2
    out = np.empty_like(pixels)
    for y in range(n):
        for x in range(n):
            xp = c - (y - c)
            yp = c + (x - c)
            out[yp, xp] = pixels[y, x]
    return out


def warp_affine(img, m):
    """Reference warp: inverse-map every output pixel through any affine m and
    sample the reference sampler there; out-of-support pixels are 0 and
    masked out."""
    minv = np.linalg.inv(m)
    ys, xs = np.mgrid[0:img.height, 0:img.width].astype(np.float64)
    sx = minv[0, 0] * xs + minv[0, 1] * ys + minv[0, 2]
    sy = minv[1, 0] * xs + minv[1, 1] * ys + minv[1, 2]
    values, valid = per_tap_bilinear_sample(img.pixels, img.mask, sx, sy)
    return Image(np.where(valid, values, 0.0), valid)


@st.composite
def masked_images(draw):
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pixels = draw(st.lists(st.floats(-1e3, 1e3), min_size=h * w,
                           max_size=h * w))
    mask = draw(st.none() | st.lists(
        st.booleans(), min_size=h * w, max_size=h * w).filter(any).map(
        lambda m: np.array(m).reshape(h, w)))
    return Image(np.array(pixels).reshape(h, w), mask)


class TestRotate:
    @settings(max_examples=300, deadline=None)
    @given(img=masked_images(), angle=st.sampled_from(
        (0.0, -0.0, 90.0, -90.0, 180.0, 270.0, 360.0, 1e6, -1e6))
        | st.floats(-720.0, 720.0))
    def test_matches_affine_warp_reference(self, img, angle):
        c = ((img.width - 1) / 2.0, (img.height - 1) / 2.0)
        try:
            expected = warp_affine(img, rotation_matrix(angle, *c))
        except ValueError:  # no output pixel keeps its support
            with pytest.raises(ValueError, match="at least one pixel"):
                rotate(img, angle)
            return
        out = rotate(img, angle)
        assert np.array_equal(out.mask, expected.mask)
        assert np.array_equal(out.pixels.view(np.int64),
                              expected.pixels.view(np.int64))

    def test_zero_angle_identity(self):
        img = Image(np.arange(9.0).reshape(3, 3))
        out = rotate(img, 0.0)
        assert np.array_equal(out.pixels, img.pixels)
        assert out.mask.all()

    def test_zero_angle_keeps_mask(self):
        img = Image(np.arange(9.0).reshape(3, 3),
                    np.arange(9).reshape(3, 3) % 2 == 0)
        out = rotate(img, 0.0)
        assert np.array_equal(out.mask, img.mask)
        assert np.array_equal(out.pixels[out.mask], img.pixels[out.mask])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_raises(self, angle):
        with pytest.raises(ValueError, match="angle_deg must be finite"):
            rotate(Image(np.ones((3, 3))), angle)

    def test_full_turn_near_identity(self):
        rng = np.random.default_rng(6)
        img = Image(rng.normal(size=(9, 9)))
        out = rotate(img, 360.0)
        ok = out.mask
        assert ok.sum() > 0
        assert np.abs(out.pixels[ok] - img.pixels[ok]).max() <= 1e-6

    def test_quarter_turn_matches_oracle(self):
        rng = np.random.default_rng(7)
        pixels = rng.normal(size=(7, 7))
        out = rotate(Image(pixels), 90.0)
        assert np.abs(out.pixels - rotate90_oracle(pixels)).max() <= 1e-9

    def test_positive_angle_turns_x_toward_y(self):
        # bright pixel on +x of center must move to +y (downward)
        pixels = np.zeros((7, 7))
        pixels[3, 5] = 1.0
        out = rotate(Image(pixels), 90.0)
        assert out.pixels[5, 3] == 1.0

    def test_round_trip_on_smooth_image(self):
        ys, xs = np.mgrid[0:32, 0:32].astype(float)
        smooth = Image(np.sin(xs / 6.0) + np.cos(ys / 5.0))
        back = rotate(rotate(smooth, 33.3), -33.3)
        ok = back.mask
        assert ok.sum() > 100
        assert np.abs(back.pixels[ok] - smooth.pixels[ok]).max() <= 5e-2
