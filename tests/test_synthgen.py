import numpy as np
import pytest

from microreg import FilamentSpec, rotate, synth_filament

from conftest import asym_scene


class TestSpecValidation:
    def test_defaults_valid(self):
        FilamentSpec()

    @pytest.mark.parametrize("kwargs", [
        {"size": 8},
        {"half_length": 200.0},
        {"width_sigma": 0.0},
        {"noise_sigma": -0.1},
        {"noise_sigma": float("nan")},
        {"noise_sigma": float("inf")},
        {"orientation_deg": float("inf")},
        {"orientation_deg": float("nan")},
        {"half_length": float("nan")},
        {"half_length": float("-inf")},
        {"width_sigma": float("nan")},
        {"width_sigma": float("inf")},
        {"amplitude": float("inf")},
        {"background": float("nan")},
        {"half_length": -5.0},
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            FilamentSpec(**kwargs)


class TestSynthFilament:
    def test_no_signal_no_noise_is_background(self):
        img = synth_filament(FilamentSpec(size=16, half_length=4.0,
                                          amplitude=0.0, background=2.5))
        assert np.array_equal(img.pixels, np.full((16, 16), 2.5))

    def test_gaussian_cross_profile(self):
        # odd size puts a pixel exactly on the segment center
        spec = FilamentSpec(size=17, half_length=5.0, width_sigma=1.0,
                            amplitude=2.0, background=0.5)
        img = synth_filament(spec)
        assert img.pixels[8, 8] == pytest.approx(2.5, abs=1e-12)
        # 3 sigma off-axis
        assert img.pixels[11, 8] <= 0.5 + 0.012 * 2.0

    def test_seeded_determinism(self):
        spec = FilamentSpec(size=32, half_length=10.0, noise_sigma=0.3, seed=99)
        a = synth_filament(spec)
        b = synth_filament(spec)
        assert np.array_equal(a.pixels, b.pixels)

    def test_different_seeds_differ(self):
        a = synth_filament(FilamentSpec(size=32, half_length=10.0,
                                        noise_sigma=0.3, seed=1))
        b = synth_filament(FilamentSpec(size=32, half_length=10.0,
                                        noise_sigma=0.3, seed=2))
        assert not np.array_equal(a.pixels, b.pixels)

    def test_orientation_matches_image_rotation(self):
        base = synth_filament(FilamentSpec(size=129, half_length=40.0))
        oriented = synth_filament(FilamentSpec(size=129, half_length=40.0,
                                               orientation_deg=40.0))
        rotated = rotate(base, 40.0)
        ok = rotated.mask
        mae = np.abs(oriented.pixels[ok] - rotated.pixels[ok]).mean()
        assert mae <= 0.05  # amplitude is 1

    def test_half_turn_symmetry(self):
        a = synth_filament(FilamentSpec(size=64, half_length=20.0,
                                        orientation_deg=25.0))
        b = synth_filament(FilamentSpec(size=64, half_length=20.0,
                                        orientation_deg=205.0))
        assert np.abs(a.pixels - b.pixels).max() <= 1e-9


def test_asym_scene_takes_noise_below_160_px():
    # the noise-only layer has no filament, so no half length bounds its size
    clean = asym_scene(size=128)
    noisy = asym_scene(size=128, noise_sigma=0.1, seed=1)
    assert noisy.pixels.shape == (128, 128)
    assert abs(np.std(noisy.pixels - clean.pixels) - 0.1) <= 0.01
