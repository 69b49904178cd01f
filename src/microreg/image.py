"""Grayscale image container, binary PGM I/O, normalization, crops, and rotation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np


class PgmFormatError(ValueError):
    """Raised when a file cannot be parsed as binary P5 PGM."""


class DegenerateImageError(ValueError):
    """Raised when an operation needs intensity variance that is not there."""


@dataclass
class Image:
    """Grayscale raster.

    pixels is a (height, width) float64 array, row-major, x = column and
    y = row with the origin at the top-left; pixel centers sit at integer
    coordinates. mask is a boolean array in the same layout that flags the
    valid pixels; a mask of None at construction means all pixels are valid.
    Invalid pixels hold 0.
    """

    pixels: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if not np.isfinite(self.pixels).all():
            raise ValueError("pixels must be finite")
        if self.mask is None:
            self.mask = np.ones(self.pixels.shape, dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.pixels.shape:
            raise ValueError("mask shape must match pixels")
        if not self.mask.any():
            raise ValueError("mask must keep at least one pixel")
        self.pixels = np.where(self.mask, self.pixels, 0.0)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _read_pgm_header(data: bytes):
    """Return (width, height, maxval, payload_offset) for a P5 header.

    Whitespace-separated tokens; '#' starts a comment running to end of line.
    """
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
    # bytes.isdigit is ASCII only; int() would also take signs and underscores
    if not all(t.isdigit() for t in tokens[1:4]):
        raise PgmFormatError("malformed header: non-numeric dimensions")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if width < 1 or height < 1:
        raise PgmFormatError("malformed header: non-positive dimensions")
    if not 1 <= maxval <= 65535:
        raise PgmFormatError(
            f"unsupported maxval {maxval}, expected 1 to 65535")
    # exactly one whitespace byte separates the maxval from the payload
    return width, height, maxval, pos + 1


def load_pgm(path) -> Image:
    """Read a binary PGM file into an Image with values in [0, maxval].

    maxval may be 1 to 65535: samples are one byte below 256 and two
    big-endian bytes from 256 on. A sample above maxval is an error.
    """
    data = Path(path).read_bytes()
    width, height, maxval, offset = _read_pgm_header(data)
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    size = width * height * dtype.itemsize
    payload = data[offset:offset + size]
    if len(payload) < size:
        raise PgmFormatError(
            f"truncated payload: expected {size} bytes, got {len(payload)}")
    samples = np.frombuffer(payload, dtype=dtype)
    if maxval not in (255, 65535) and samples.max() > maxval:
        raise PgmFormatError(f"sample {samples.max()} above maxval {maxval}")
    return Image(samples.astype(np.float64).reshape(height, width))


def save_pgm(img: Image, path) -> None:
    """Write a binary 8-bit PGM, rescaling [min, max] of the valid pixels to [0, 255].

    Rounding is half-up. A constant image writes all zeros; masked-out pixels
    write 0.
    """
    vals = img.pixels[img.mask]
    lo, hi = vals.min(), vals.max()
    if hi > lo:
        # scaling by a power of two is exact and brings the larger magnitude
        # into [0.5, 1): hi - lo can then neither overflow nor leave the
        # normal range, and the bytes of any span that fits are unchanged
        _, e = np.frexp(max(abs(lo), abs(hi)))
        pixels, lo, hi = (np.ldexp(v, -e) for v in (img.pixels, lo, hi))
        scaled = (pixels - lo) * (255.0 / (hi - lo))
        bytes_ = np.floor(scaled + 0.5).astype(np.int64)
    else:
        bytes_ = np.zeros(img.pixels.shape, dtype=np.int64)
    bytes_ = np.clip(bytes_, 0, 255)
    bytes_[~img.mask] = 0
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + bytes_.astype(np.uint8).tobytes())


def normalize(img: Image) -> Image:
    """Shift and scale valid pixels to zero mean and unit population std.

    Masked-out pixels stay 0 and the mask is preserved. A (near-)constant
    valid region has no usable variance and raises DegenerateImageError.
    """
    vals = img.pixels[img.mask]
    mean = vals.mean()
    sigma = vals.std()  # population std
    if sigma <= 1e-12 * max(1.0, abs(mean)):
        raise DegenerateImageError("zero variance over valid pixels")
    return Image((img.pixels - mean) / sigma, img.mask.copy())


def circular_crop(img: Image, cx: float, cy: float, radius: float) -> Image:
    """Crop to the bounding square of the disc and mask pixels outside it.

    The mask keeps pixel centers with (x - cx)^2 + (y - cy)^2 <= radius^2,
    intersected with the input mask.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    x0 = max(0, math.ceil(cx - radius))
    x1 = min(img.width - 1, math.floor(cx + radius))
    y0 = max(0, math.ceil(cy - radius))
    y1 = min(img.height - 1, math.floor(cy + radius))
    if x0 > x1 or y0 > y1:
        raise ValueError("disc entirely outside image")
    sub = img.pixels[y0:y1 + 1, x0:x1 + 1]
    ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
    mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
    mask &= img.mask[y0:y1 + 1, x0:x1 + 1]
    if not mask.any():
        raise ValueError("disc entirely outside image")
    return Image(sub, mask)


def center_crop(img: Image, size: int) -> Image:
    """Extract the centered size x size window (floor-biased for odd margins)."""
    if size < 1 or size > min(img.width, img.height):
        raise ValueError(f"crop size {size} out of range for "
                         f"{img.width}x{img.height} image")
    x0 = (img.width - size) // 2
    y0 = (img.height - size) // 2
    return Image(img.pixels[y0:y0 + size, x0:x0 + size],
                 img.mask[y0:y0 + size, x0:x0 + size].copy())


class SamplingPlan(NamedTuple):
    """Where bilinear sampling reads for fixed coordinates on one image shape.

    base is the flat index of each sample's top-left tap in the image padded
    as bilinear_sample describes, fx and fy the fractions that weight its four
    taps, and valid the validity an all-True mask gives. Pixel values and
    masks do not enter the plan, so one plan serves every image of its shape.
    """

    shape: tuple[int, int]
    base: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    valid: np.ndarray


def _padded(a: np.ndarray) -> np.ndarray:
    # the border of bilinear_sample, flattened: zeros read as invalid taps
    h, w = a.shape
    out = np.zeros((h + 3, w + 3), dtype=a.dtype)
    out[1:h + 1, 1:w + 1] = a
    return out.ravel()


def _taps(shape, fx, fy):
    """Yield (flat offset, weight) of the four taps, in summation order."""
    gx, gy = 1 - fx, 1 - fy
    row = shape[1] + 3
    yield 0, gx * gy
    yield 1, fx * gy
    yield row, gx * fy
    yield row + 1, fx * fy


def _validity(mask, base, taps):
    # valid where every tap with nonzero weight is masked-in
    ok = _padded(mask)
    valid = np.ones(base.shape, dtype=bool)
    for offset, wt in taps:
        valid &= ok[offset:][base] | (wt == 0)
    return valid


def sampling_plan(shape, xs: np.ndarray, ys: np.ndarray) -> SamplingPlan:
    """Plan bilinear samples at float coordinates on an image of this shape."""
    h, w = shape
    x = np.fmin(np.fmax(xs, -1.0), w)  # fmax takes -1 over NaN
    y = np.fmin(np.fmax(ys, -1.0), h)
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = x - x0
    fy = y - y0
    base = ((y0 + 1) * (w + 3) + x0 + 1).astype(np.intp)
    valid = _validity(np.ones(shape, dtype=bool), base, _taps(shape, fx, fy))
    return SamplingPlan((h, w), base, fx, fy, valid)


def apply_plan(plan: SamplingPlan, pixels: np.ndarray, mask: np.ndarray):
    """Sample pixels at the plan's coordinates: (values, valid) as in
    bilinear_sample. An all-True mask takes the plan's validity; any other
    mask has its own computed."""
    if pixels.shape != plan.shape:
        raise ValueError(f"image shape {pixels.shape} does not match the "
                         f"sampling plan's {plan.shape}")
    flat = _padded(pixels)
    values = np.zeros(plan.base.shape, dtype=np.float64)
    for offset, wt in _taps(plan.shape, plan.fx, plan.fy):
        wt *= flat[offset:][plan.base]
        values += wt
    if mask.all():
        return values, plan.valid.copy()
    return values, _validity(mask, plan.base,
                             _taps(plan.shape, plan.fx, plan.fy))


def bilinear_sample(pixels: np.ndarray, mask: np.ndarray,
                    xs: np.ndarray, ys: np.ndarray):
    """Bilinear sampling at float coordinates with validity tracking.

    A sample is valid only if every tap with nonzero weight lies in bounds and
    is masked-in. The image is read through a border of invalid zero pixels,
    one wide on the left and top and two on the right and bottom, and each
    coordinate is clamped once to [-1, w] and [-1, h]:
    every tap then lands inside the padded image, and a sample out of range
    reads a border tap with nonzero weight. Infinite coordinates clamp to the
    border and NaN ones to -1, so they come out invalid too. Returns
    (values, valid); values at invalid samples are unspecified, and the
    Image and PolarImage constructors set them to 0. This is sampling_plan,
    then apply_plan; callers that sample many images of one shape at the
    same coordinates keep the plan.
    """
    return apply_plan(sampling_plan(pixels.shape, xs, ys), pixels, mask)


def rotation_matrix(angle_deg: float, cx: float, cy: float) -> np.ndarray:
    """Homogeneous rotation about (cx, cy); positive angles turn +x toward +y."""
    if not math.isfinite(angle_deg):
        raise ValueError(f"angle_deg must be finite, got {angle_deg!r}")
    t = math.radians(angle_deg)
    c, s = math.cos(t), math.sin(t)
    # snap float residue at axis-aligned angles so quarter turns stay exact
    c = 0.0 if abs(c) < 1e-15 else (math.copysign(1.0, c) if abs(abs(c) - 1.0) < 1e-15 else c)
    s = 0.0 if abs(s) < 1e-15 else (math.copysign(1.0, s) if abs(abs(s) - 1.0) < 1e-15 else s)
    return np.array([
        [c, -s, cx - c * cx + s * cy],
        [s, c, cy - s * cx - c * cy],
        [0.0, 0.0, 1.0],
    ])


def rotate(img: Image, angle_deg: float) -> Image:
    """Rotate about the image center ((w-1)/2, (h-1)/2) by inverse mapping.

    Each output pixel takes the bilinear sample at its source under the
    inverse rotation. Output pixels whose source support leaves the image or
    touches a masked-out pixel are 0 and masked out.
    """
    m = rotation_matrix(angle_deg, (img.width - 1) / 2.0, (img.height - 1) / 2.0)
    minv = np.linalg.inv(m)  # not R(-angle): that differs in the last ulp
    ys, xs = np.mgrid[0:img.height, 0:img.width].astype(np.float64)
    sx = minv[0, 0] * xs + minv[0, 1] * ys + minv[0, 2]
    sy = minv[1, 0] * xs + minv[1, 1] * ys + minv[1, 2]
    return Image(*bilinear_sample(img.pixels, img.mask, sx, sy))
