"""Record benchmark points and print every recorded metric by name and unit.

    python3 bench/trajectory.py                      # print all points
    python3 bench/trajectory.py record NAME --seeds 1-10 [--seconds 30]

``record`` runs every workload of BENCHMARK.json once per seed untraced and
once traced (first seed), each run in its own process exactly as a driver
would, and writes bench/results/NAME.json with every run's result line and
metadata. Printing shows, per point and workload, the median and the
interquartile range as a share of the median of each metric over the runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    return {"meta": json.loads(lines[-2])["meta"],
            "result": json.loads(lines[-1])}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def record(name: str, seeds: list[int], seconds: int) -> Path:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, wl_seeds in ((0, seeds), (1, seeds[:1])):
            for seed in wl_seeds:
                run = run_once(wl, seed, seconds, trace)
                runs.append(run)
                r = run["result"]
                print(f"{wl} seed {seed} trace {trace}: {r['attempted']} "
                      f"attempted, {r['failed']} failed", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}.json"
    path.write_text(json.dumps({"name": name, "seconds": seconds,
                                "runs": runs}, indent=1) + "\n")
    return path


def show(path: Path) -> None:
    point = json.loads(path.read_text())
    meta = point["runs"][0]["meta"]
    print(f"== {point['name']}: git {meta['git_sha']}, python "
          f"{meta['python']}, numpy {meta['numpy']}, {meta['blas']} "
          f"({meta['blas_threads']} threads), nproc {meta['nproc']}, "
          f"{point['seconds']} s runs")
    groups: dict[tuple, list[dict]] = {}
    for run in point["runs"]:
        groups.setdefault((run["meta"]["workload"], run["meta"]["trace"]),
                          []).append(run)
    for (wl, trace), runs in groups.items():
        seeds = [r["meta"]["seed"] for r in runs]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"-- {wl}, {'traced' if trace else 'untraced'}, seeds {seeds}, "
              f"{failed}/{attempted} requests failed")
        for name, first in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            line = f"   {name:42s} {med:14.6g} {first['unit']:6s}"
            if len(values) >= 2 and med:
                q = statistics.quantiles(values, n=4)
                line += f" iqr/median {(q[2] - q[0]) / abs(med):.3f}"
            print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd")
    rec = sub.add_parser("record", help="run every workload and save a point")
    rec.add_argument("name")
    rec.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    rec.add_argument("--seconds", type=int, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args(argv)
    if args.cmd == "record":
        show(record(args.name, args.seeds, args.seconds))
    else:
        for path in sorted(RESULTS.glob("*.json")):
            show(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
