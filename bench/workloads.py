"""Seeded inputs and request rounds for the three benchmark workloads.

Every workload is one closed-loop client that sends the next CLI request only
after the previous one returns, in repeating *rounds*. Every round includes
`align` requests on fresh 256^2 pairs at the paper's 720x200 grid, so the
align metrics mean the same request on every workload and differ only by what
else the process does; the rest of the round is the workload's own traffic.

Inputs are written before any timing starts and come only from the seed.
Scenes are rendered analytically at the true rotation (a synthgen filament
plus an off-center Gaussian blob, the same composition as the tests'
``asym_scene``), so the program under test never produces its own inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from microreg import FilamentSpec, Image, save_pgm, synth_filament


def render_scene(size: int, base_deg: float, angle_deg: float,
                 noise_sigma: float, seed: int) -> Image:
    """The asymmetric scene at orientation base_deg, rotated by angle_deg.

    Rotation is about ((size-1)/2, (size-1)/2) with positive angles turning
    +x toward +y, the convention of ``microreg.rotate``, so aligning this
    frame to the unrotated one must report ``angle_deg``. The blob breaks the
    180-degree symmetry of a lone filament.
    """
    c = (size - 1) / 2.0
    pixels = synth_filament(FilamentSpec(
        size=size, orientation_deg=base_deg + angle_deg,
        half_length=0.3 * size, noise_sigma=noise_sigma, seed=seed)).pixels
    t = math.radians(angle_deg)
    dx, dy = 0.07 * size, 0.12 * size
    bx = c + math.cos(t) * dx - math.sin(t) * dy
    by = c + math.sin(t) * dx + math.cos(t) * dy
    ys, xs = np.mgrid[0:size, 0:size]
    sigma = size / 50.0
    pixels = pixels + 0.9 * np.exp(
        -((xs - bx) ** 2 + (ys - by) ** 2) / (2.0 * sigma * sigma))
    return Image(pixels)


@dataclass
class Request:
    """One CLI call and what its correctness check needs to know."""

    kind: str              # "align", "pruned", "matrix" or "sequence"
    argv: list[str]
    out: dict              # output paths the check reads
    expect: dict           # generated truth the check compares against
    frames: int = 0        # candidate frames this request aligns


@dataclass(frozen=True)
class Frames:
    """How frames of one kind are rendered and aligned."""

    size: int          # side, pixels
    angular: int       # polar angle samples (CLI --angular)
    radial: int        # polar radii (CLI --radial)
    noise: float       # Gaussian noise sigma; the filament amplitude is 1


@dataclass(frozen=True)
class Shape:
    pairs: Frames          # frames of the align requests
    aligns: int            # align requests per round, each on a fresh pair
    pruned: int = 0        # of those pairs, how many are repeated --pruned
    stack: Frames | None = None   # frames of the round's matrix request
    stack_n: int = 0       # frames per matrix request
    crop: int = 64         # center crop of the correlation matrix (--crop)
    sequences: int = 0     # sequence requests per round on the matrix table
    seq_length: int = 0    # frames per sequence request
    max_rounds: int = 1    # rounds of inputs generated; a run stops after them


PAPER = Frames(size=256, angular=720, radial=200, noise=0.2)
# A round is: the matrix request, if any, then the sequence, align and
# --pruned requests interleaved evenly. Sizes are fixed per workload; only
# the seed varies between runs.
SHAPES = {
    # Independent pairs: every request resamples two frames and computes one
    # exhaustive score curve, and no input is read twice.
    "align-pairs": Shape(pairs=PAPER, aligns=12, pruned=2, max_rounds=16),
    # One reference reused across each stack of 256^2 frames, whose aligned
    # float64 copies are all held in memory.
    "matrix-stack": Shape(pairs=PAPER, aligns=6, stack=PAPER, stack_n=32,
                          max_rounds=10),
    # Hundreds of 64^2 frames on a coarse grid: the O(N^2) correlation
    # matrix, its CSV round trip and the sequence requests that re-read the
    # table dominate; polar resampling and score curves are cheap here.
    "sequence-many": Shape(pairs=PAPER, aligns=8,
                           stack=Frames(size=64, angular=180, radial=16,
                                        noise=0.1),
                           stack_n=300, crop=40, sequences=32, seq_length=600,
                           max_rounds=6),
}
# The pruned search's cost depends on the scene and on where the true shift
# lies in its scan order (0.8 to 1.2 s at 720x200 on a 2.1 GHz Xeon core), so
# every pruned pair has this scene orientation (degrees) and rotation (share
# of the circle), whose cost sits mid-range, and the seed draws only noise.
PRUNED_PAIR = (65.0, 0.7)


def build(name: str, seed: int, root: Path) -> list[list[Request]]:
    """Write every input of the workload under root; return its rounds."""
    shape = SHAPES[name]
    rng = np.random.Generator(np.random.PCG64(seed))
    noise_seeds = iter(range(seed * 1_000_000, (seed + 1) * 1_000_000))
    out_dir = root / "out"
    out_dir.mkdir(parents=True)

    def frame(kind: Frames, path: Path, base: float, k: int) -> dict:
        angle = k * 360.0 / kind.angular
        save_pgm(render_scene(kind.size, base, angle, kind.noise,
                              next(noise_seeds)), path)
        return {"path": str(path), "angle_deg": angle}

    def grid(kind: Frames) -> list[str]:
        return ["--angular", str(kind.angular), "--radial", str(kind.radial)]

    def align(ref: dict, cand: dict, tag: str, pruned: bool) -> Request:
        out = {k: str(out_dir / f"{tag}.{ext}")
               for k, ext in (("out", "pgm"), ("curve", "csv"),
                              ("report", "json"))}
        argv = ["align", "--ref", ref["path"], "--cand", cand["path"],
                "--out", out["out"], "--curve", out["curve"],
                "--report", out["report"], *grid(shape.pairs)]
        if pruned:
            argv.append("--pruned")
        return Request("pruned" if pruned else "align", argv, out,
                       {"angle_deg": cand["angle_deg"],
                        "step_deg": 360.0 / shape.pairs.angular}, frames=1)

    def matrix(stack_dir: Path, frames: list[dict], base: float,
               tag: str) -> Request:
        out = {"aligned": str(out_dir / f"{tag}-aligned"),
               "matrix": str(out_dir / f"{tag}-matrix.csv"),
               "prob": str(out_dir / f"{tag}-probability.csv")}
        argv = ["matrix", "--inputs", str(stack_dir), "--crop", str(shape.crop),
                "--aligned-dir", out["aligned"], "--matrix-out", out["matrix"],
                "--prob-out", out["prob"], *grid(shape.stack)]
        return Request("matrix", argv, out,
                       {"frames": frames, "base_deg": base,
                        "size": shape.stack.size,
                        "step_deg": 360.0 / shape.stack.angular},
                       frames=len(frames) - 1)

    def sequence(m: Request, tag: str) -> Request:
        start = int(rng.integers(0, shape.stack_n))
        out = {"plan": str(out_dir / f"{tag}-plan.json"),
               "frames": str(out_dir / f"{tag}-frames.txt"),
               "table": m.out["prob"]}
        argv = ["sequence", "--matrix", m.out["prob"], "--start", str(start),
                "--length", str(shape.seq_length), "--plan", out["plan"],
                "--frames", out["frames"], "--images", m.out["aligned"]]
        return Request("sequence", argv, out,
                       {"start": start, "length": shape.seq_length})

    rounds = []
    for r in range(shape.max_rounds):
        rd = root / f"round{r:02d}"
        rd.mkdir()
        head, seqs = [], []
        if shape.stack:
            stack_dir = rd / "stack"
            stack_dir.mkdir()
            base = float(rng.uniform(0.0, 360.0))
            frames = [frame(shape.stack, stack_dir / f"f{j:04d}.pgm", base,
                            int(rng.integers(0, shape.stack.angular)) if j
                            else 0)
                      for j in range(shape.stack_n)]
            head = [matrix(stack_dir, frames, base, f"r{r}-m")]
            seqs = [sequence(head[0], f"r{r}-s{i}")
                    for i in range(shape.sequences)]
        aligns, pairs = [], []
        for i in range(shape.aligns):
            if i < shape.pruned:
                b = PRUNED_PAIR[0]
                k = round(PRUNED_PAIR[1] * shape.pairs.angular)
            else:
                b = float(rng.uniform(0.0, 360.0))
                k = int(rng.integers(0, shape.pairs.angular))
            pair = (frame(shape.pairs, rd / f"a{i:02d}-ref.pgm", b, 0),
                    frame(shape.pairs, rd / f"a{i:02d}-cand.pgm", b, k))
            pairs.append(pair)
            aligns.append(align(*pair, f"r{r}-a{i}", pruned=False))
        pruned = []
        for i in range(shape.pruned):
            rep = align(*pairs[i], f"r{r}-a{i}-pruned", pruned=True)
            rep.expect["exhaustive_report"] = aligns[i].out["report"]
            pruned.append(rep)
        rounds.append(head + _interleave(seqs, aligns, pruned))
    return rounds


def _interleave(*kinds: list[Request]) -> list[Request]:
    """Merge request lists evenly, keeping each list's order, so that every
    kind samples the whole round. A pruned repeat thus still follows the
    exhaustive request on its pair."""
    keyed = [((j + 0.5) / len(reqs), n, req) for n, reqs in enumerate(kinds)
             for j, req in enumerate(reqs)]
    return [req for *_, req in sorted(keyed, key=lambda t: t[:2])]
