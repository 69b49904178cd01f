"""Polar resampling: rotation in Cartesian space becomes cyclic row shift."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# bilinear_sample stays imported: bench/tracing.py wraps it here
from .image import (Image, apply_plan, bilinear_sample,  # noqa: F401
                    sampling_plan)


@dataclass
class PolarImage:
    """S x R polar grid, angle-major: values[i, j] samples angle i, radius j.

    Angle step is 360/S degrees; radii are linearly spaced with a half-step
    offset, r_j = (j + 0.5) * max_radius / R. valid is a boolean array of
    the same shape that flags samples whose bilinear support stayed in bounds
    and masked-in. Invalid samples hold 0.

    The arrays are taken as np.asarray takes them: a float64 values array
    with an all-True valid is kept as given, not copied. A valid that is not
    all True leaves the given array alone and stores a copy with the invalid
    samples set to 0.
    """

    values: np.ndarray
    valid: np.ndarray
    max_radius: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("values must be a non-empty 2-D array")
        if self.valid.shape != self.values.shape:
            raise ValueError("valid shape must match values")
        if self.max_radius <= 0:
            raise ValueError("max_radius must be positive")
        if not self.valid.all():  # copy only to zero the invalid samples
            self.values = np.where(self.valid, self.values, 0.0)
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite at valid samples")

    @property
    def angular_samples(self) -> int:
        return self.values.shape[0]

    @property
    def radial_samples(self) -> int:
        return self.values.shape[1]

    @property
    def angular_step_deg(self) -> float:
        return 360.0 / self.angular_samples


@functools.lru_cache(maxsize=2)  # a request samples one or two geometries
def _polar_plan(shape, cx, cy, angular_samples, radial_samples, max_radius):
    thetas = np.deg2rad(np.arange(angular_samples) * (360.0 / angular_samples))
    radii = (np.arange(radial_samples) + 0.5) * (max_radius / radial_samples)
    xs = cx + radii[None, :] * np.cos(thetas)[:, None]
    ys = cy + radii[None, :] * np.sin(thetas)[:, None]
    plan = sampling_plan(shape, xs, ys)
    for a in (plan.base, plan.weights, plan.valid):
        a.flags.writeable = False  # every caller of this geometry shares it
    return plan


def to_polar(img: Image, cx: float, cy: float,
             angular_samples: int = 720, radial_samples: int = 200,
             max_radius: float | None = None) -> PolarImage:
    """Resample an image onto an (angle, radius) grid around (cx, cy).

    Sample (i, j) is taken at (cx + r_j cos t_i, cy + r_j sin t_i) with
    t_i = i * (360/S) degrees. Defaults follow the operating grid of 720
    angles (0.5 degree steps) by 200 radii; max_radius defaults to
    min(width, height)/2 - 1. A center or max_radius that is not finite
    raises ValueError.

    The bilinear sampling plan depends only on the image shape, the center,
    the grid and max_radius, so the plan of each of the last two such
    geometries is kept for the life of the process, and every image of a
    kept geometry is sampled with one plan. A kept plan's arrays are
    read-only; the returned grid's arrays are the caller's own. A plan of
    720x200 holds 5.9 MB.
    """
    if angular_samples < 1 or radial_samples < 1:
        raise ValueError("angular_samples and radial_samples must be >= 1")
    if max_radius is None:
        max_radius = min(img.width, img.height) / 2.0 - 1.0
    if not np.isfinite([cx, cy]).all():
        raise ValueError(f"center ({cx}, {cy}) must be finite")
    if not 0 < max_radius < np.inf:  # NaN fails both tests
        raise ValueError(f"max_radius must be finite and > 0, got {max_radius}")
    plan = _polar_plan(img.pixels.shape, cx, cy, angular_samples,
                       radial_samples, max_radius)
    values, valid = apply_plan(plan, img.pixels, img.mask)
    if not valid.any():
        raise ValueError("no valid polar samples; check center and max_radius")
    return PolarImage(values, valid, max_radius)


def cyclic_shift(p: PolarImage, k: int) -> PolarImage:
    """Shift angle rows cyclically: output row i = input row (i - k) mod S."""
    k = int(k) % p.angular_samples
    return PolarImage(np.roll(p.values, k, axis=0),
                      np.roll(p.valid, k, axis=0),
                      p.max_radius)


def polar_to_csv(p: PolarImage, path) -> None:
    """Write S rows x R columns of samples; invalid samples as empty cells."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for values, valid in zip(p.values.tolist(), p.valid.tolist()):
            cells = map(repr, values)
            if not all(valid):
                cells = (c if ok else "" for c, ok in zip(cells, valid))
            f.write(",".join(cells) + "\n")
