"""Deterministic filament-style test image generator.

Stands in for real micrograph data: a bright oriented segment with a Gaussian
cross-profile on a flat background, plus optional seeded Gaussian noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import Image


@dataclass(frozen=True)
class FilamentSpec:
    """Parameters of a synthetic filament image.

    The segment runs through the image center at orientation_deg (measured
    from +x toward +y) with the given half_length; intensity falls off as a
    Gaussian of the distance to the segment.
    """

    size: int = 256
    orientation_deg: float = 0.0
    half_length: float = 80.0
    width_sigma: float = 2.0
    amplitude: float = 1.0
    background: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.size < 16:
            raise ValueError("size must be >= 16")
        for name in ("orientation_deg", "half_length", "width_sigma",
                     "amplitude", "background", "noise_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.half_length < self.size / 2:
            raise ValueError("half_length must be < size/2")
        if self.width_sigma <= 0:
            raise ValueError("width_sigma must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def synth_filament(spec: FilamentSpec) -> Image:
    """Render the filament image described by spec.

    Noise is reproducible bit-for-bit: a numpy Generator over the PCG64
    bit stream seeded with spec.seed makes a single standard_normal draw of
    shape (size, size), row-major, scaled by noise_sigma. Neither the
    algorithm nor the draw order may change silently; recorded expectations
    depend on them.
    """
    c = (spec.size - 1) / 2.0
    ys, xs = np.mgrid[0:spec.size, 0:spec.size].astype(np.float64)
    phi = np.deg2rad(spec.orientation_deg)
    ux, uy = np.cos(phi), np.sin(phi)
    # distance from each pixel center to the centered segment
    t = np.clip((xs - c) * ux + (ys - c) * uy,
                -spec.half_length, spec.half_length)
    d2 = (xs - c - t * ux) ** 2 + (ys - c - t * uy) ** 2
    pixels = spec.background + spec.amplitude * np.exp(
        -d2 / (2.0 * spec.width_sigma ** 2))
    if spec.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        pixels = pixels + spec.noise_sigma * rng.standard_normal(
            (spec.size, spec.size))
    return Image(pixels)
