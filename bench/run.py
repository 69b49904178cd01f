"""Benchmark of the microreg CLI: one closed-loop client, in process.

    python3 bench/run.py --workload align-pairs --seed 1 --seconds 35 --trace 0

Builds the workload's inputs from the seed, then sends its requests through
``microreg.cli.main(argv)`` one at a time for about ``--seconds`` seconds,
checks every output, and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they
are the per-layer ones, from spans recorded around each layer's calls. A
human-readable table of the same metrics goes to stderr, and a line of run
metadata (versions, BLAS, CPUs, seed) precedes the result on stdout.

The program is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"
SETUP_REPEATS = 11
IMPORT_PROBE = ("import time; t = time.perf_counter(); import microreg.cli; "
                "print(time.perf_counter() - t)")


def measure_setup_s() -> float:
    """Median wall time of ``import microreg.cli`` in fresh interpreters.

    Every CLI call pays this; the in-process requests do not. One untimed
    import first leaves bytecode and the page cache as a user would find them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def metadata(args) -> dict:
    import numpy as np

    sha = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Client:
    """Sends requests one at a time and records latency and check results."""

    def __init__(self, cli, checks):
        self.cli = cli
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.latency: dict[str, list[float]] = {}
        self.frames = 0            # candidate frames of align + matrix
        self.frames_s = 0.0        # wall time of those requests

    def send(self, req, tracer=None) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(req.argv)
            else:
                rc = tracer.call("cli.main", self.cli.main, (req.argv,))
        except Exception:
            traceback.print_exc()
            rc = None
        dt = time.perf_counter() - t0
        try:
            if rc != 0:
                raise self.checks.CheckFailed(f"exit code {rc}")
            self.checks.CHECKS[req.kind](req.out, req.expect)
        except Exception as exc:
            self.failed += 1
            print(f"FAILED {req.kind} {' '.join(req.argv)}: {exc}",
                  file=sys.stderr)
            return
        self.latency.setdefault(req.kind, []).append(dt)
        if req.kind in ("align", "matrix"):
            self.frames += req.frames
            self.frames_s += dt


def run_rounds(rounds, seconds: float, body) -> tuple[int, float]:
    """Run rounds until the next one would likely end after ``seconds``.

    Returns the rounds run and their wall time.
    """
    start = time.perf_counter()
    last = 0.0
    done = 0
    for reqs in rounds:
        if done and time.perf_counter() - start + last > seconds:
            break
        t0 = time.perf_counter()
        body(reqs)
        last = time.perf_counter() - t0
        done += 1
    return done, time.perf_counter() - start


def end_to_end(client: Client, setup_s: float) -> dict[str, float]:
    align_ms = [v * 1e3 for v in client.latency.get("align", [])]
    if not align_ms or not client.frames:
        raise RuntimeError("no successful align request")
    return {
        "setup_s": setup_s,
        "align_ms_p50": statistics.median(align_ms),
        "frames_per_s": client.frames / client.frames_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "microreg" / "cli.py").is_file():
        print(f"error: no microreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import microreg.cli as cli
    import checks
    import workloads
    from tracing import Tracer, layer_metrics

    if args.workload not in workloads.SHAPES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SHAPES)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        rounds = workloads.build(args.workload, args.seed, work)
        built_s = time.perf_counter() - t0
        client = Client(cli, checks)
        if not args.trace:
            ran = run_rounds(rounds, args.seconds,
                             lambda reqs: [client.send(r) for r in reqs])
            # after the requests, so the import probes do not disturb them
            metrics = end_to_end(client, measure_setup_s())
        else:
            tracer = Tracer()
            walls = [0.0, 0.0]   # untraced, traced
            counted = {"requests": 0, "frames": 0}

            def both_passes(reqs):
                # the same requests untraced, then traced: their wall time
                # ratio is the tracing overhead
                for traced in (False, True):
                    t0 = time.perf_counter()
                    if traced:
                        with tracer.installed():
                            for r in reqs:
                                tracer.request = counted["requests"]
                                counted["requests"] += 1
                                counted["frames"] += r.frames
                                client.send(r, tracer)
                    else:
                        for r in reqs:
                            client.send(r)
                    walls[traced] += time.perf_counter() - t0

            ran = run_rounds(rounds, args.seconds, both_passes)
            metrics = layer_metrics(tracer, counted["requests"],
                                    counted["frames"],
                                    100.0 * (walls[1] / walls[0] - 1.0))
            TRACES.mkdir(exist_ok=True)
            tracer.write(TRACES / f"spans-{args.workload}-s{args.seed}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": client.failed == 0, "attempted": client.attempted,
              "failed": client.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in declared}}
    for m in declared:
        print(f"{m['name']:42s} {metrics[m['name']]:>14.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{'error_rate':42s} {client.failed / client.attempted:>14.6g} "
          f"ratio  ({client.failed}/{client.attempted})", file=sys.stderr)
    for kind, secs in client.latency.items():
        print(f"{kind + ' latency':42s} p50 {statistics.median(secs) * 1e3:.6g}"
              f" ms, p90 {_percentile(secs, 90) * 1e3:.6g} ms, n={len(secs)}",
              file=sys.stderr)
    print(f"inputs built in {built_s:.1f} s; {ran[0]} rounds in "
          f"{ran[1]:.1f} s", file=sys.stderr)
    print(json.dumps({"meta": metadata(args)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
