import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreg import (DegenerateImageError, Image, PgmFormatError, center_crop,
                      circular_crop, load_pgm, normalize, rotate,
                      rotation_matrix, save_pgm, warp_affine)


def write_pgm_bytes(path, header, payload):
    path.write_bytes(header + payload)


class TestLoadPgm:
    def test_raw_byte_mapping(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5 2 2 255\n", bytes([0, 128, 255, 64]))
        img = load_pgm(p)
        assert img.width == 2 and img.height == 2
        assert img.pixels.tolist() == [[0, 128], [255, 64]]
        assert img.mask is None

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
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5 2 2 100\n", bytes([0, 1, 2, 3]))
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(p)

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


class TestWarpAffine:
    def test_identity(self):
        img = Image(np.arange(9.0).reshape(3, 3),
                    np.arange(9).reshape(3, 3) % 2 == 0)
        out = warp_affine(img, np.eye(3))
        assert np.array_equal(out.pixels[out.mask], img.pixels[out.mask])
        assert np.array_equal(out.mask, img.mask)

    def test_translation_shifts_columns(self):
        ramp = Image(np.tile(np.arange(3.0), (3, 1)))
        m = np.array([[1.0, 0, 1], [0, 1, 0], [0, 0, 1]])
        out = warp_affine(ramp, m, fill=7.0)
        assert np.array_equal(out.pixels[:, 0], [7.0, 7.0, 7.0])
        assert not out.mask[:, 0].any()
        assert np.array_equal(out.pixels[:, 1:], ramp.pixels[:, :2])

    def test_quarter_turn_matches_permutation_oracle(self):
        rng = np.random.default_rng(4)
        pixels = rng.normal(size=(5, 5))
        m = rotation_matrix(90.0, 2.0, 2.0)
        out = warp_affine(Image(pixels), m)
        assert np.abs(out.pixels - rotate90_oracle(pixels)).max() <= 1e-9

    def test_integer_translation_matches_permutation(self):
        rng = np.random.default_rng(5)
        pixels = rng.normal(size=(6, 6))
        m = np.array([[1.0, 0, 2], [0, 1, -1], [0, 0, 1]])
        out = warp_affine(Image(pixels), m)
        ok = out.mask
        expected = np.roll(np.roll(pixels, 2, axis=1), -1, axis=0)
        assert np.abs(out.pixels[ok] - expected[ok]).max() <= 1e-9

    def test_singular_matrix_raises(self):
        m = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="singular"):
            warp_affine(Image(np.ones((3, 3))), m)

    def test_bad_bottom_row_raises(self):
        m = np.eye(3)
        m[2, 0] = 0.5
        with pytest.raises(ValueError, match="bottom row"):
            warp_affine(Image(np.ones((3, 3))), m)


class TestRotate:
    def test_zero_angle_identity(self):
        img = Image(np.arange(9.0).reshape(3, 3))
        out = rotate(img, 0.0)
        assert np.array_equal(out.pixels, img.pixels)
        assert out.mask.all()

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
