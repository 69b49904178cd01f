import numpy as np
import pytest

from microreg import FilamentSpec, Image, synth_filament
from microreg.correlation import OpCounts, _clamp, _unit_grid

# the worked transition-probability table used across sequencing tests
TABLE1 = np.array([
    [1.0, 0.8, 0.4, 0.6],
    [0.8, 1.0, 0.5, 0.7],
    [0.4, 0.5, 1.0, 0.6],
])
TABLE1 = np.vstack([TABLE1, [0.6, 0.7, 0.6, 1.0]])


def asym_scene(base_deg=0.0, noise_sigma=0.0, seed=0, size=256):
    """Filament composite without the 180-degree ambiguity of a lone filament.

    A centered filament plus an off-center blob (a zero-length filament rolled
    away from the center) gives the scene a unique orientation.
    """
    main = synth_filament(FilamentSpec(
        size=size, orientation_deg=base_deg, half_length=0.3 * size))
    blob = synth_filament(FilamentSpec(
        size=size, half_length=1.0, width_sigma=size / 50.0, amplitude=0.9))
    dx, dy = round(size * 0.07), round(size * 0.12)
    pixels = main.pixels + np.roll(np.roll(blob.pixels, dy, axis=0), dx, axis=1)
    if noise_sigma > 0:
        noise = synth_filament(FilamentSpec(
            size=size, half_length=0.0, amplitude=0.0,
            noise_sigma=noise_sigma, seed=seed))
        pixels = pixels + noise.pixels
    return Image(pixels)


def growth_series(noise_sigma=0.0, seed=0, frames=16, size=128):
    """A filament that grows over time, each frame at a seeded random angle.

    Frame t's filament has half length 10 + 45 t / (frames - 1) px at 128 px
    (scaled with size). A blob at a fixed offset from the center turns with
    the frame, as in the benchmark's scene, so each frame has one orientation.
    Returns the frames in time order and their angles in degrees.
    """
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 360.0, frames)
    noise_seeds = rng.integers(0, 2**32, frames)
    halves = np.linspace(10.0, 55.0, frames) * size / 128
    c = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size]
    sigma = size / 50.0
    images = []
    for half, angle, noise_seed in zip(halves, angles, noise_seeds):
        pixels = synth_filament(FilamentSpec(
            size=size, orientation_deg=angle, half_length=half,
            noise_sigma=noise_sigma, seed=int(noise_seed))).pixels
        t = np.deg2rad(angle)
        dx, dy = 0.07 * size, 0.12 * size
        bx = c + np.cos(t) * dx - np.sin(t) * dy
        by = c + np.sin(t) * dx + np.cos(t) * dy
        images.append(Image(pixels + 0.9 * np.exp(
            -((xs - bx) ** 2 + (ys - by) ** 2) / (2.0 * sigma * sigma))))
    return images, angles.tolist()


def dyadic(x, bits=20):
    """x rounded to the 2**-bits grid."""
    return np.round(np.asarray(x, dtype=np.float64) * 2.0 ** bits) / 2.0 ** bits


def exact_affine(values, scale_exp, offset):
    """2**scale_exp * values + offset with no rounding in the map itself.

    For values on the 2**-20 grid (see dyadic), scale_exp in [-6, 6] and the
    offset rounded to the 2**-26 grid, every result fits in 53 bits, so an
    invariance test measures the rounding of the code under test alone. A
    general a * x + b rounds each sample by up to half an ulp of |b|; with
    b = 50 and a = 0.01 that alone moves an NCC over a few samples by ~1e-11.
    """
    return 2.0 ** scale_exp * values + dyadic(offset, 26)


def doubled_grid_pruned(ref, cand):
    """The pruned search as it read the candidate from a doubled copy of its
    unit grid, where row k + t is row (k + t) mod S: the reference for
    estimate_rotation_pruned, which reads the one unit grid modulo S."""
    s, r = ref.angular_samples, ref.radial_samples
    a = _unit_grid(ref)
    b = np.tile(_unit_grid(cand), (2, 1))
    rest_a = np.append(np.cumsum((a * a).sum(axis=1)[:0:-1])[::-1], 0.0)
    cum_b = np.concatenate([[0.0], np.cumsum((b * b).sum(axis=1))])
    scores = np.empty(s, dtype=np.float64)
    partial = np.zeros(s, dtype=np.float64)
    finished = np.zeros(s, dtype=bool)
    live = np.arange(s)
    best = -np.inf
    evaluated = 0
    for t in range(s):
        if not live.size:
            break
        partial[live] += np.einsum("ij,j->i", b[live + t], a[t])
        evaluated += live.size * r
        lead = live[np.argmax(partial[live])]
        if partial[lead] > best:
            scores[lead] = partial[lead] + np.einsum(
                "ij,ij->", a[t + 1:], b[lead + t + 1:lead + s])
            evaluated += (s - 1 - t) * r
            finished[lead] = True
            best = max(best, scores[lead])
            live = live[live != lead]
        bound = partial[live] + np.sqrt(rest_a[t] * np.maximum(
            cum_b[live + s] - cum_b[live + t + 1], 0.0))
        out = bound <= best
        scores[live[out]] = bound[out]
        live = live[~out]
    curve = _clamp(scores)
    shift = int(np.argmax(np.where(finished, curve, -np.inf)))
    return shift, curve, OpCounts(evaluated, s * s * r)


def assert_same_as_doubled_grid(est, ref, cand):
    """est, the pruned search of (ref, cand), has the doubled-grid loop's
    shift, curve bits, bound entries of dropped shifts included, and op
    counts."""
    shift, curve, counts = doubled_grid_pruned(ref, cand)
    assert est.shift == shift
    assert est.curve.tobytes() == curve.tobytes()
    assert est.op_counts == counts


@pytest.fixture
def table1():
    from microreg import ProbabilityTable
    return ProbabilityTable(TABLE1)
