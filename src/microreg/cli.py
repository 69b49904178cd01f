"""Command-line front-end: synth | polar | align | matrix | sequence.

Exit codes: 0 success, 1 usage error, 2 data or processing error. Every
successful run writes a JSON run manifest listing the files it created.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .correlation import (estimate_rotation, estimate_rotation_pruned,
                          prepare_reference)
# circular_crop and normalize stay imported: bench/tracing.py wraps them here
from .image import (Image, circular_crop,  # noqa: F401
                    load_pgm, normalize, rotate, save_pgm)
from .polar import to_polar, polar_to_csv
from .sequencer import (CropRows, correlation_matrix, greedy_sequence,
                        load_probability_csv, matrix_to_csv, to_probability)
from .synthgen import FilamentSpec, synth_filament


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _write_manifest(path, command: str, parameters: dict, outputs: list) -> None:
    _write_json(path, {
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "outputs": [str(p) for p in outputs],
    })


@contextmanager
def _about(path):
    """Put the path of the file at fault in front of a ValueError."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _manifest_path(last_output) -> str:
    return f"{last_output}.manifest.json"


def _refuse_collisions(writes, reads) -> None:
    """Refuse a run that would write one path twice or write over a path it
    reads, before anything is written. writes and reads are (option, path)
    pairs, writes in the order they are written; the manifest, named after
    the last of them, is one more write. Each path is resolved once."""
    last, path = writes[-1]
    writes = [*writes, (f"the manifest of {last}", _manifest_path(path))]
    written = {}
    for k, (option, path) in enumerate(writes + reads):
        key = Path(path).resolve()
        if key in written:
            raise ValueError(f"{written[key]} and {option} name the same "
                             f"path {path}: the run would write over it")
        if k < len(writes):
            written[key] = option


def _check_grid(args) -> None:
    """Refuse a polar grid of S or R below 1 by its option, before any file
    is read."""
    for option in ("angular", "radial"):
        if getattr(args, option) < 1:
            raise ValueError(f"--{option} must be >= 1, got "
                             f"{getattr(args, option)}")


def prepare_polar(img: Image, angular: int, radial: int):
    """Align preprocessing: polar resample of the raw image about its center.

    max_radius = min(w, h)/2 - 3 keeps every bilinear tap well inside the
    largest centered disc, so the polar grid comes out fully valid (required
    by --pruned). Nothing is cropped or normalized first: the NCC of the
    score curve re-centers and re-scales every overlap itself. The center
    and radius depend on the frame shape alone, so every frame of a shape
    is sampled with the one plan that to_polar keeps for it; a process's
    first request builds that plan and holds it while it scores.
    """
    cx, cy = (img.width - 1) / 2.0, (img.height - 1) / 2.0
    return to_polar(img, cx, cy, angular, radial,
                    max_radius=min(img.width, img.height) / 2.0 - 3.0)


def load_reference(path, angular: int, radial: int):
    """The reference PGM at path, sampled by prepare_polar and prepared once
    to score every frame against. A file that cannot be read, or a flat
    reference, fails here with its path, before any frame is scored."""
    with _about(path):
        return prepare_reference(prepare_polar(load_pgm(path), angular, radial))


def align_frame(ref, img: Image, search):
    """One frame's alignment: (estimate, aligned image).

    The frame is sampled on the grid of the prepared reference ref, search
    (estimate_rotation or estimate_rotation_pruned) scores it against ref,
    and the frame is rotated back by the angle it finds. search has no
    default, and the other steps are looked up when called, because
    bench/tracing.py swaps this module's names at run time.
    """
    est = search(ref, prepare_polar(img, ref.angular_samples,
                                    ref.radial_samples))
    return est, rotate(img, -est.angle_deg)


def _frame_paths(directory) -> list[Path]:
    """The PGMs of directory, sorted: matrix's table index k and sequence's
    frame k both name entry k of this list."""
    return sorted(Path(directory).glob("*.pgm"))


# synth's options in manifest order, each with the FilamentSpec field it sets
_SYNTH_FIELDS = {"size": "size", "angle": "orientation_deg",
                 "half_length": "half_length", "width_sigma": "width_sigma",
                 "amplitude": "amplitude", "background": "background",
                 "noise": "noise_sigma", "seed": "seed"}


def cmd_synth(args):
    params = {option: getattr(args, option) for option in _SYNTH_FIELDS}
    spec = FilamentSpec(**{_SYNTH_FIELDS[o]: v for o, v in params.items()})
    save_pgm(synth_filament(spec), args.out)
    return {**params, "out": str(args.out)}, [args.out]


def cmd_polar(args):
    _check_grid(args)
    _refuse_collisions([("--out", args.out)], [("--input", args.input)])
    img = load_pgm(args.input)
    if args.center is not None:
        cx, cy = args.center
    else:
        cx, cy = (img.width - 1) / 2.0, (img.height - 1) / 2.0
    p = to_polar(img, cx, cy, args.angular, args.radial, args.max_radius)
    polar_to_csv(p, args.out)
    params = {"input": str(args.input), "angular": args.angular,
              "radial": args.radial, "center": [cx, cy],
              "max_radius": p.max_radius, "out": str(args.out)}
    return params, [args.out]


def cmd_align(args):
    _check_grid(args)
    cand_path = Path(args.cand)
    out_image = Path(args.out) if args.out else cand_path.with_name(
        cand_path.stem + "_aligned.pgm")
    out_curve = Path(args.curve) if args.curve else cand_path.with_name(
        cand_path.stem + "_curve.csv")
    out_report = Path(args.report) if args.report else cand_path.with_name(
        cand_path.stem + "_report.json")
    _refuse_collisions(
        [("--out", out_image), ("--curve", out_curve), ("--report", out_report)],
        [("--ref", args.ref), ("--cand", cand_path)])

    ref = load_reference(args.ref, args.angular, args.radial)
    with _about(args.cand):
        search = estimate_rotation_pruned if args.pruned else estimate_rotation
        est, aligned = align_frame(ref, load_pgm(args.cand), search)

    save_pgm(aligned, out_image)
    with open(out_curve, "w", encoding="ascii", newline="\n") as f:
        f.write("shift,score\n")
        for k, score in enumerate(est.curve):
            f.write(f"{k},{float(score)!r}\n")
    report = {"angle_deg": est.angle_deg, "peak_ncc": est.peak_ncc,
              "shift": est.shift}
    if est.op_counts is not None:
        report["op_counts"] = asdict(est.op_counts)
    _write_json(out_report, report)

    params = {"ref": str(args.ref), "cand": str(args.cand),
              "angular": args.angular, "radial": args.radial,
              "pruned": args.pruned}
    return params, [out_image, out_curve, out_report]


def cmd_matrix(args):
    _check_grid(args)
    in_dir = Path(args.inputs)
    aligned_dir = Path(args.aligned_dir)
    _refuse_collisions(
        [("--aligned-dir", aligned_dir), ("--matrix-out", args.matrix_out),
         ("--prob-out", args.prob_out)],
        [("--inputs", in_dir)] + ([("--ref", args.ref)] if args.ref else []))
    paths = _frame_paths(in_dir)
    if len(paths) < 2:
        raise ValueError(f"need at least 2 PGM files in {in_dir}")
    ref_path = Path(args.ref) if args.ref else paths[0]
    ref = load_reference(ref_path, args.angular, args.radial)

    aligned_dir.mkdir(parents=True, exist_ok=True)
    # all the matrix needs: each full frame is saved, then dropped, and
    # correlation_matrix frees the crops before the tables are written
    crops = CropRows(len(paths), args.crop)
    outputs = []
    for k, path in enumerate(paths):
        with _about(path):
            aligned = load_pgm(path)
            if path != ref_path:
                _, aligned = align_frame(ref, aligned, estimate_rotation)
            crops.put(k, aligned)
        out = aligned_dir / path.name
        save_pgm(aligned, out)
        outputs.append(out)

    c = correlation_matrix(crops, args.crop)
    matrix_to_csv(c.values, args.matrix_out)
    matrix_to_csv(to_probability(c).p, args.prob_out)
    outputs += [Path(args.matrix_out), Path(args.prob_out)]

    params = {"inputs": str(in_dir), "ref": str(ref_path), "crop": args.crop,
              "angular": args.angular, "radial": args.radial,
              "aligned_dir": str(aligned_dir),
              "matrix_out": str(args.matrix_out),
              "prob_out": str(args.prob_out)}
    return params, outputs


def cmd_sequence(args):
    _refuse_collisions([("--plan", args.plan), ("--frames", args.frames)],
                       [("--matrix", args.matrix)])
    table = load_probability_csv(args.matrix)
    plan = greedy_sequence(table, args.start, args.length)
    if args.images:  # checked before any file is written
        sources = [str(p) for p in _frame_paths(args.images)]
        if len(sources) != table.n:
            raise ValueError(
                f"{args.images} holds {len(sources)} PGMs, table has {table.n}")
    else:
        sources = [f"frame_{i}" for i in range(table.n)]

    record = asdict(plan)
    if record["log_chain_prob"] == -math.inf:  # a zero-probability step
        record["log_chain_prob"] = None  # JSON has no -Infinity
    _write_json(args.plan, record)
    f = None
    try:
        with open(args.frames, "wb") as f:  # names as the file system's bytes
            f.writelines(os.fsencode(sources[i]) + b"\n" for i in plan.frames)
    except BaseException:
        Path(args.plan).unlink()  # a failed run leaves no files behind
        if f is not None:  # opened, so truncated or partly written
            Path(args.frames).unlink()
        raise

    params = {"matrix": str(args.matrix), "start": args.start,
              "length": args.length, "plan": str(args.plan),
              "frames": str(args.frames),
              "images": str(args.images) if args.images else None}
    return params, [Path(args.plan), Path(args.frames)]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call: parsing reads it and leaves it unchanged."""
    parser = _Parser(prog="microreg",
                     description="Rotation registration and frame sequencing "
                                 "for grayscale micrograph-style images")
    sub = parser.add_subparsers(dest="command", required=True)
    grid = argparse.ArgumentParser(add_help=False)  # polar, align and matrix
    grid.add_argument("--angular", type=int, default=720)
    grid.add_argument("--radial", type=int, default=200)

    p = sub.add_parser("synth", help="write a synthetic filament PGM")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--angle", type=float, default=0.0)
    p.add_argument("--half-length", type=float, default=80.0)
    p.add_argument("--width-sigma", type=float, default=2.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--background", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("polar", parents=[grid],
                       help="write the polar grid of a PGM as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--center", type=float, nargs=2, metavar=("CX", "CY"))
    p.add_argument("--max-radius", type=float)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("align", parents=[grid], help="estimate and apply the "
                       "rotation aligning a candidate to a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--cand", required=True)
    p.add_argument("--out", help="rotated candidate PGM")
    p.add_argument("--curve", help="NCC curve CSV")
    p.add_argument("--report", help="JSON report")
    p.add_argument("--pruned", action="store_true",
                   help="bounded search by successive elimination: "
                        "reproduces the paper's op-count claim (criterion 4); "
                        "no faster than the exhaustive FFT curve on noiseless "
                        "scenes, slower on noisy ones")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("matrix", parents=[grid], help="align a directory of "
                       "PGMs and build the correlation/probability tables")
    p.add_argument("--inputs", required=True, help="directory of PGM files")
    p.add_argument("--ref", help="reference PGM (default: first sorted input)")
    p.add_argument("--crop", type=int, default=64)
    p.add_argument("--aligned-dir", default="aligned")
    p.add_argument("--matrix-out", default="matrix.csv")
    p.add_argument("--prob-out", default="probability.csv")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("sequence", help="greedy frame sequence from a "
                                        "probability CSV")
    p.add_argument("--matrix", required=True, help="probability CSV")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--plan", default="plan.json")
    p.add_argument("--frames", default="frames.txt")
    p.add_argument("--images", help="directory of PGMs backing the indices")
    p.set_defaults(func=cmd_sequence)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        params, outputs = args.func(args)
        _write_manifest(_manifest_path(outputs[-1]), args.command,
                        params, outputs)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
