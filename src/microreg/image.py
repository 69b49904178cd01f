"""Grayscale image container, binary PGM I/O, normalization, crops, and rotation."""
from __future__ import annotations

import math
import re
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

    The arrays are taken as np.asarray takes them: a float64 pixels array
    with an all-True mask is kept as given, not copied, so the Image shares
    its memory. A mask that is not all True leaves the given array alone
    and stores a copy with the masked-out pixels set to 0.
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
        if not self.mask.all():  # copy only to zero the masked-out pixels
            self.pixels = np.where(self.mask, self.pixels, 0.0)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


# a header token, after any whitespace and '#' comments running to end of line
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


def _read_pgm_header(data: bytes):
    """Return (width, height, maxval, payload_offset) for a P5 header.

    Whitespace-separated tokens; '#' starts a comment running to end of line.
    """
    tokens = []
    pos = 0
    while len(tokens) < 4 and (m := _TOKEN.match(data, pos)):
        tokens.append(m[1])
        pos = m.end()
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
    # a copy, so the crop does not keep the whole frame alive
    sub = img.pixels[y0:y1 + 1, x0:x1 + 1].copy()
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
    # copies, so the crop does not keep the whole frame alive
    return Image(img.pixels[y0:y0 + size, x0:x0 + size].copy(),
                 img.mask[y0:y0 + size, x0:x0 + size].copy())


# samples per block of the sampler: a block's scratch arrays, about 0.6 MB
# together, stay in cache and are reused, not faulted in afresh per frame
_BLOCK = 16384


class SamplingPlan(NamedTuple):
    """Where bilinear sampling reads for fixed coordinates on one image shape.

    base is the flat index of each sample's top-left tap in the image padded
    as bilinear_sample describes, weights the (4, ...) tap weights in
    summation order (top-left, top-right, bottom-left, bottom-right), and
    valid the validity an all-True mask gives, which follows from bounds
    alone: every tap with nonzero weight lies inside the image. Pixel values
    and masks do not enter the plan, so one plan serves every image of its
    shape.
    """

    shape: tuple[int, int]
    base: np.ndarray
    weights: np.ndarray
    valid: np.ndarray


def _padded(a: np.ndarray) -> np.ndarray:
    # the border of bilinear_sample, flattened: zeros read as invalid taps
    h, w = a.shape
    out = np.zeros((h + 3, w + 3), dtype=a.dtype)
    out[1:h + 1, 1:w + 1] = a
    return out.ravel()


# the taps (dx, dy) from a sample's top-left one, in summation order
_TAPS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _offsets(shape):
    """Flat offsets of the four taps from base, in summation order."""
    row = shape[1] + 3
    return tuple(dx + dy * row for dx, dy in _TAPS)


def sampling_plan(shape, xs: np.ndarray, ys: np.ndarray) -> SamplingPlan:
    """Plan bilinear samples at float64 coordinates on an image of this shape.

    xs and ys broadcast against each other; the plan has their broadcast
    shape. The work runs over blocks of _BLOCK samples: the float work in a
    scratch array of one block, and each block's results go into the plan's
    arrays. A block's validity comes from its tap bounds, whether x0 + dx
    and y0 + dy lie in the image for each tap (dx, dy) that has nonzero
    weight.
    """
    h, w = shape
    xs, ys = np.broadcast_arrays(xs, ys)
    out_shape = xs.shape
    xs = xs.reshape(-1)
    ys = ys.reshape(-1)
    n = xs.size
    base = np.empty(n, dtype=np.intp)
    weights = np.empty((4, n))
    valid = np.ones(n, dtype=bool)
    scratch = np.empty((4, min(n, _BLOCK)))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        fx, fy, x0, y0 = scratch[:, :hi - lo]
        np.fmax(xs[lo:hi], -1.0, out=fx)  # fmax takes -1 over NaN
        np.fmax(ys[lo:hi], -1.0, out=fy)
        np.fmin(fx, w, out=fx)
        np.fmin(fy, h, out=fy)
        np.floor(fx, out=x0)
        np.floor(fy, out=y0)
        fx -= x0
        fy -= y0
        # tap (dx, dy) lies in the image iff in_x[dx] and in_y[dy]: x0 + dx
        # is in [0, w - 1] and y0 + dy in [0, h - 1]; the clamp keeps
        # x0 >= -1 and y0 >= -1
        in_x = ((x0 >= 0) & (x0 <= w - 1), x0 <= w - 2)
        in_y = ((y0 >= 0) & (y0 <= h - 1), y0 <= h - 2)
        y0 += 1
        y0 *= w + 3
        y0 += x0
        y0 += 1
        base[lo:hi] = y0
        # gx*gy, fx*gy, gx*fy, fx*fy with gx = 1 - fx and gy = 1 - fy, made
        # in the weights themselves (a product is the same either way round)
        wts = weights[:, lo:hi]
        gy = np.subtract(1, fy, out=wts[1])
        gx = np.subtract(1, fx, out=wts[2])
        np.multiply(gx, gy, out=wts[0])
        gy *= fx
        gx *= fy
        np.multiply(fx, fy, out=wts[3])
        for (dx, dy), wt in zip(_TAPS, wts):
            # a weight of 0 (a subnormal fraction can round one to 0) reads
            # no tap
            valid[lo:hi] &= (in_x[dx] & in_y[dy]) | (wt == 0)
    return SamplingPlan((h, w), base.reshape(out_shape),
                        weights.reshape((4,) + out_shape),
                        valid.reshape(out_shape))


def apply_plan(plan: SamplingPlan, pixels: np.ndarray, mask: np.ndarray):
    """Sample pixels at the plan's coordinates: (values, valid) as in
    bilinear_sample. An all-True mask takes a copy of the plan's validity;
    any other mask is padded as the pixels are, and the block loop that
    gathers a tap's values also ANDs that tap's mask into the validity."""
    if pixels.shape != plan.shape:
        raise ValueError(f"image shape {pixels.shape} does not match the "
                         f"sampling plan's {plan.shape}")
    flat = _padded(pixels)
    base = plan.base.reshape(-1)
    weights = plan.weights.reshape(4, -1)
    n = base.size
    values = np.zeros(n)  # the sum starts at +0.0
    ok = None if mask.all() else _padded(mask)
    valid = plan.valid.copy() if ok is None else np.ones(n, dtype=bool)
    scratch = np.empty(min(n, _BLOCK))
    offsets = _offsets(plan.shape)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        tap, index, total = scratch[:hi - lo], base[lo:hi], values[lo:hi]
        for offset, wt in zip(offsets, weights[:, lo:hi]):
            # the clamp keeps every index in range; mode="clip" only spares
            # the buffered copy of out that take makes under mode="raise"
            flat[offset:].take(index, out=tap, mode="clip")
            tap *= wt
            total += tap
            if ok is not None:  # every tap with nonzero weight masked-in
                valid[lo:hi] &= ok[offset:][index] | (wt == 0)
    return values.reshape(plan.base.shape), valid.reshape(plan.base.shape)


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
    then apply_plan. The plan holds each sample's base index, its four tap
    weights and the validity an all-True mask gives, found from the taps'
    bounds; apply_plan gathers and weights the taps, and checks a mask that
    is not all True tap by tap in the same pass. Callers that sample many
    images of one shape at the same coordinates keep the plan.
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
    xs = np.arange(img.width, dtype=np.float64)
    ys = np.arange(img.height, dtype=np.float64)[:, None]
    sx = minv[0, 0] * xs + minv[0, 1] * ys
    sx += minv[0, 2]
    sy = minv[1, 0] * xs + minv[1, 1] * ys
    sy += minv[1, 2]
    return Image(*bilinear_sample(img.pixels, img.mask, sx, sy))
