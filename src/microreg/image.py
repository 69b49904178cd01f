"""Grayscale image container, binary PGM I/O, normalization, crops, and warps."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PgmFormatError(ValueError):
    """Raised when a file cannot be parsed as binary 8-bit P5 PGM."""


class DegenerateImageError(ValueError):
    """Raised when an operation needs intensity variance that is not there."""


@dataclass
class Image:
    """Grayscale raster.

    pixels is a (height, width) float64 array, row-major, x = column and
    y = row with the origin at the top-left; pixel centers sit at integer
    coordinates. mask, when present, flags valid pixels in the same layout.
    """

    pixels: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if not np.isfinite(self.pixels).all():
            raise ValueError("pixels must be finite")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.pixels.shape:
                raise ValueError("mask shape must match pixels")
            if not self.mask.any():
                raise ValueError("mask must keep at least one pixel")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def valid(self) -> np.ndarray:
        """Boolean validity array; all-True when no mask is attached."""
        if self.mask is None:
            return np.ones(self.pixels.shape, dtype=bool)
        return self.mask


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
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval {maxval}, expected 255")
    # exactly one whitespace byte separates the maxval from the payload
    return width, height, maxval, pos + 1


def load_pgm(path) -> Image:
    """Read a binary 8-bit PGM file into an Image with values in [0, 255]."""
    data = Path(path).read_bytes()
    width, height, _, offset = _read_pgm_header(data)
    payload = data[offset:offset + width * height]
    if len(payload) < width * height:
        raise PgmFormatError(
            f"truncated payload: expected {width * height} bytes, got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    return Image(pixels.reshape(height, width))


def save_pgm(img: Image, path) -> None:
    """Write a binary 8-bit PGM, rescaling [min, max] of the valid pixels to [0, 255].

    Rounding is half-up. A constant image writes all zeros; masked-out pixels
    write 0.
    """
    valid = img.valid()
    vals = img.pixels[valid]
    lo, hi = vals.min(), vals.max()
    if hi > lo:
        scaled = (img.pixels - lo) * (255.0 / (hi - lo))
        bytes_ = np.floor(scaled + 0.5).astype(np.int64)
    else:
        bytes_ = np.zeros(img.pixels.shape, dtype=np.int64)
    bytes_ = np.clip(bytes_, 0, 255)
    bytes_[~valid] = 0
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + bytes_.astype(np.uint8).tobytes())


def normalize(img: Image) -> Image:
    """Shift and scale valid pixels to zero mean and unit population std.

    Masked-out pixels are set to 0 and the mask is preserved. A (near-)constant
    valid region has no usable variance and raises DegenerateImageError.
    """
    valid = img.valid()
    vals = img.pixels[valid]
    mean = vals.mean()
    sigma = vals.std()  # population std
    if sigma <= 1e-12 * max(1.0, abs(mean)):
        raise DegenerateImageError("zero variance over valid pixels")
    out = (img.pixels - mean) / sigma
    if img.mask is not None:
        out[~img.mask] = 0.0
    return Image(out, None if img.mask is None else img.mask.copy())


def circular_crop(img: Image, cx: float, cy: float, radius: float) -> Image:
    """Crop to the bounding square of the disc and mask pixels outside it.

    The mask keeps pixel centers with (x - cx)^2 + (y - cy)^2 <= radius^2,
    intersected with the input mask when one is present.
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
    if img.mask is not None:
        mask &= img.mask[y0:y1 + 1, x0:x1 + 1]
    if not mask.any():
        raise ValueError("disc entirely outside image")
    return Image(np.where(mask, sub, 0.0), mask)


def center_crop(img: Image, size: int) -> Image:
    """Extract the centered size x size window (floor-biased for odd margins)."""
    if size < 1 or size > min(img.width, img.height):
        raise ValueError(f"crop size {size} out of range for "
                         f"{img.width}x{img.height} image")
    x0 = (img.width - size) // 2
    y0 = (img.height - size) // 2
    pixels = img.pixels[y0:y0 + size, x0:x0 + size].copy()
    mask = None if img.mask is None else img.mask[y0:y0 + size, x0:x0 + size].copy()
    return Image(pixels, mask)


def bilinear_sample(pixels: np.ndarray, mask: np.ndarray | None,
                    xs: np.ndarray, ys: np.ndarray):
    """Bilinear sampling at float coordinates with validity tracking.

    A sample is valid only if every tap with nonzero weight lies in bounds and,
    when a mask is given, is masked-in. Returns (values, valid); values at
    invalid samples are unspecified and must be replaced by the caller.
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


def rotation_matrix(angle_deg: float, cx: float, cy: float) -> np.ndarray:
    """Homogeneous rotation about (cx, cy); positive angles turn +x toward +y."""
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


def _check_affine(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError("affine matrix must be 3x3")
    if not np.isfinite(m).all():
        raise ValueError("affine matrix must be finite")
    if not np.array_equal(m[2], [0.0, 0.0, 1.0]):
        raise ValueError("affine matrix bottom row must be (0, 0, 1)")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= 1e-12:
        raise ValueError("singular affine matrix")
    return m


def warp_affine(img: Image, m: np.ndarray, fill: float = 0.0) -> Image:
    """Apply a forward affine transform by inverse mapping with bilinear taps.

    Output pixels whose source support leaves the image or touches a
    masked-out pixel get `fill` and are masked out.
    """
    m = _check_affine(m)
    minv = np.linalg.inv(m)
    ys, xs = np.mgrid[0:img.height, 0:img.width].astype(np.float64)
    sx = minv[0, 0] * xs + minv[0, 1] * ys + minv[0, 2]
    sy = minv[1, 0] * xs + minv[1, 1] * ys + minv[1, 2]
    values, valid = bilinear_sample(img.pixels, img.mask, sx, sy)
    return Image(np.where(valid, values, fill), valid)


def rotate(img: Image, angle_deg: float) -> Image:
    """Rotate about the image center ((w-1)/2, (h-1)/2), fill 0."""
    m = rotation_matrix(angle_deg, (img.width - 1) / 2.0, (img.height - 1) / 2.0)
    return warp_affine(img, m, fill=0.0)
