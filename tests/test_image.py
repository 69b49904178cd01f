import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microreg import (DegenerateImageError, Image, PgmFormatError, center_crop,
                      circular_crop, load_pgm, normalize, rotate,
                      rotation_matrix, save_pgm)
from microreg import image
from microreg.image import apply_plan, bilinear_sample, sampling_plan


def write_pgm_bytes(path, header, payload):
    path.write_bytes(header + payload)


def scan_pgm_header(data):
    """Reference: the P5 header read byte by byte, with the checks and
    messages of image._read_pgm_header."""
    tokens = []
    pos = 0
    n = len(data)
    while len(tokens) < 4 and pos < n:
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            end = pos
            while end < n and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if len(tokens) < 4:
        raise PgmFormatError("malformed header: fewer than 4 header tokens")
    if tokens[0] != b"P5":
        raise PgmFormatError(
            f"unsupported format: magic {tokens[0]!r}, expected binary P5")
    if not all(t.isdigit() for t in tokens[1:4]):
        raise PgmFormatError("malformed header: non-numeric dimensions")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if width < 1 or height < 1:
        raise PgmFormatError("malformed header: non-positive dimensions")
    if not 1 <= maxval <= 65535:
        raise PgmFormatError(
            f"unsupported maxval {maxval}, expected 1 to 65535")
    return width, height, maxval, pos + 1


def header_outcome(read, data):
    try:
        return read(data)
    except PgmFormatError as exc:
        return str(exc)


# every ASCII whitespace byte, comments, the characters int() would accept
# beside digits, and a byte outside ASCII
FUZZ_HEADERS = st.one_of(
    st.binary(max_size=40),
    st.text(alphabet="P5 \t\n\r\x0b\x0c#0123456789+-_.e\xff",
            max_size=40).map(lambda s: s.encode("latin-1")))


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

    @settings(max_examples=100, deadline=None)
    @given(case=pixels_and_masks())
    def test_keeps_the_given_array_and_copies_only_to_zero(self, case):
        # the docstring's rule: an all-True mask keeps a float64 array as
        # given; any other mask zeroes a copy and leaves the array alone
        pixels, mask = case
        held = pixels.copy()
        img = Image(pixels, mask)
        if mask is None or mask.all():
            assert img.pixels is pixels
        else:
            assert not np.shares_memory(img.pixels, pixels)
        assert np.array_equal(pixels.view(np.int64), held.view(np.int64))


    @pytest.mark.parametrize("pixels, mask, message", [
        (np.ones(3), None, "non-empty 2-D"),
        (np.ones((0, 3)), None, "non-empty 2-D"),
        (np.array([[1.0, np.nan]]), None, "finite"),
        (np.array([[1.0, np.inf]]), None, "finite"),
        (np.ones((2, 2)), np.ones((2, 3), bool), "mask shape"),
        (np.ones((2, 2)), np.zeros((2, 2), bool), "at least one pixel"),
    ])
    def test_rejects_arrays_it_cannot_hold(self, pixels, mask, message):
        with pytest.raises(ValueError, match=message):
            Image(pixels, mask)


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
        for data, message in ((b"P5 2", "fewer than 4"),
                              (b"P5\n0 4\n255\n", "non-positive"),
                              (b"P5\n4 0\n255\n", "non-positive")):
            p.write_bytes(data)
            with pytest.raises(PgmFormatError,
                               match=f"malformed header: {message}"):
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
    @given(header=FUZZ_HEADERS, payload=st.binary(max_size=20))
    @example(header=b"P5 4 4 #ab", payload=b"")
    @example(header=b"P5 4 4 255#x\n", payload=bytes(16))
    def test_fuzzed_header_fails_only_with_format_error(
            self, tmp_path_factory, header, payload):
        p = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        write_pgm_bytes(p, header, payload)
        try:
            img = load_pgm(p)
        except PgmFormatError:
            return
        assert img.pixels.size <= len(payload)

    @settings(max_examples=1000, deadline=None)
    @given(data=FUZZ_HEADERS)
    # a comment that ends the file must not give back a token
    @example(data=b"P5 4 4 #ab")
    @example(data=b"P5 4 4 255#x\n")
    @example(data=b"P5\r\n# c\r\n4\t4 255\n")
    def test_header_matches_byte_scanner(self, data):
        assert header_outcome(image._read_pgm_header, data) \
            == header_outcome(scan_pgm_header, data)


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
        # a disc inside the image whose every pixel is masked out
        mask = np.ones((10, 10), dtype=bool)
        mask[3:8, 3:8] = False
        with pytest.raises(ValueError, match="outside"):
            circular_crop(Image(np.ones((10, 10)), mask), 5.0, 5.0, 1.5)

    @pytest.mark.parametrize("radius", (0.0, -1.0))
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            circular_crop(Image(np.ones((10, 10))), 5.0, 5.0, radius)

    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("radius", (2.0, 10.0))
    def test_crop_owns_its_arrays(self, masked, radius):
        # a kept crop must not pin the whole frame; radius 10 covers the
        # window, so the crop's mask is all True and nothing forces a copy
        mask = np.ones((6, 6), dtype=bool)
        mask[0, 0] = not masked
        img = Image(np.arange(36.0).reshape(6, 6), mask)
        out = circular_crop(img, 2.5, 2.5, radius)
        assert out.mask.all() == (radius == 10.0 and not masked)
        assert not np.shares_memory(out.pixels, img.pixels)
        assert not np.shares_memory(out.mask, img.mask)


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

    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("size", (2, 4))
    def test_crop_owns_its_arrays(self, masked, size):
        # a kept crop must not pin the whole frame, the full window included
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 1] = not masked
        img = Image(np.arange(16.0).reshape(4, 4), mask)
        out = center_crop(img, size)
        assert out.mask.all() == (not masked)
        assert not np.shares_memory(out.pixels, img.pixels)
        assert not np.shares_memory(out.mask, img.mask)


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
# w == 1: the subnormal x fraction times 0.5 rounds to 0, so the two
# right-hand taps, out of bounds, have weight 0 and the sample is valid
ONE_COLUMN_SUBNORMAL = (np.array([[2.0], [4.0]]), np.ones((2, 1), dtype=bool),
                        np.array([5e-324]), np.array([0.5]))


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
    @example(case=ONE_COLUMN_SUBNORMAL)
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

    @settings(max_examples=300, deadline=None)
    @given(case=sampling_cases())
    @example(case=ONE_COLUMN_SUBNORMAL)
    def test_plan_validity_from_bounds_matches_gathered_mask(self, case):
        pixels, _, xs, ys = case
        plan = sampling_plan(pixels.shape, xs, ys)
        # the gather rule: valid where every tap with nonzero weight reads a
        # pixel of the image, not of the zero border bilinear_sample pads
        h, w = pixels.shape
        inside = np.zeros((h + 3, w + 3), dtype=bool)
        inside[1:h + 1, 1:w + 1] = True
        gathered = np.ones(plan.base.shape, dtype=bool)
        for (dx, dy), wt in zip(((0, 0), (1, 0), (0, 1), (1, 1)), plan.weights):
            tap = plan.base + dx + dy * (w + 3)
            gathered &= inside.flat[tap] | (wt == 0)
        assert np.array_equal(plan.valid, gathered)

    @settings(max_examples=300, deadline=None)
    @given(case=sampling_cases())
    def test_every_tap_index_is_inside_the_padded_image(self, case):
        # take(mode="clip") would silently clamp an index that is not
        pixels, _, xs, ys = case
        h, w = pixels.shape
        plan = sampling_plan(pixels.shape, xs, ys)
        assert plan.base.min() >= 0
        assert plan.base.max() + w + 4 < (h + 3) * (w + 3)

    @settings(max_examples=150, deadline=None)
    @given(case=sampling_cases())
    def test_apply_leaves_the_plan_unchanged(self, case):
        # apply_plan weights and sums in place, in buffers of its own
        pixels, mask, xs, ys = case
        plan = sampling_plan(pixels.shape, xs, ys)
        held = (plan.base, plan.weights, plan.valid)
        before = [a.copy() for a in held]
        first, first_valid = apply_plan(plan, pixels, mask)
        second, second_valid = apply_plan(plan, pixels, mask)
        for a, b in zip(before, held):
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
        assert np.array_equal(first.view(np.int64), second.view(np.int64))
        assert np.array_equal(first_valid, second_valid)
        assert first_valid is not plan.valid
        assert not np.shares_memory(first_valid, plan.valid)


def plan_and_apply(pixels, mask, xs, ys):
    plan = sampling_plan(pixels.shape, xs, ys)
    return (plan.base, plan.weights, plan.valid,
            *apply_plan(plan, pixels, mask))


def assert_same_bits(expected, actual):
    for e, a in zip(expected, actual, strict=True):
        assert e.shape == a.shape and e.dtype == a.dtype
        assert e.tobytes() == a.tobytes()


def blocked(block, *case):
    """plan_and_apply with image._BLOCK set to block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(image, "_BLOCK", block)
        return plan_and_apply(*case)


class TestBlocks:
    """The sampler runs over blocks of image._BLOCK samples; the block size
    changes no bit of the plan or of what it samples."""

    @settings(max_examples=300, deadline=None)
    @given(case=sampling_cases(), block=st.sampled_from((1, 7, 64)),
           form=st.sampled_from(("drawn", "broadcast", "around the block")),
           offset=st.sampled_from((-1, 0, 1)))
    def test_block_size_changes_no_bit(self, case, block, form, offset):
        pixels, mask, xs, ys = case
        if form == "broadcast":
            # a 1-D row of x against a 2-D column of y, planned on the
            # (n, n) grid they span; the oracle gets the grid materialized
            ys = ys[:, None]
            full = [a.copy() for a in np.broadcast_arrays(xs, ys)]
        else:
            if form == "around the block":  # block - 1, block, block + 1
                xs, ys = (np.resize(a, block + offset) for a in (xs, ys))
            full = (xs, ys)
        expected = plan_and_apply(pixels, mask, *full)
        assert_same_bits(expected, blocked(block, pixels, mask, xs, ys))

    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_sizes_around_the_default_block(self, offset):
        n = image._BLOCK + offset
        rng = np.random.default_rng(offset + 1)
        pixels = rng.uniform(-1e3, 1e3, (9, 7))
        pixels[rng.random(pixels.shape) < 0.1] = -0.0
        mask = rng.random(pixels.shape) < 0.8
        xs = rng.uniform(-3.0, 9.0, n)
        ys = rng.uniform(-3.0, 11.0, n)
        xs[::97] = np.resize(FAR, xs[::97].size)
        ys[5::89] = np.resize(FAR, ys[5::89].size)
        for frame_mask in (mask, np.ones(pixels.shape, dtype=bool)):
            expected = plan_and_apply(pixels, frame_mask, xs, ys)
            assert_same_bits(expected, blocked(64, pixels, frame_mask, xs, ys))


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
