"""Spans around the calls into each microreg layer, recorded from outside.

The tracer swaps the public functions that the CLI, image, polar and
sequencer modules call for timing wrappers while a traced pass runs, and
restores them afterwards; nothing under ``src/`` changes. Each span records its name, the
request it belongs to, its parent span and its start and end. Spans stay in
memory until the run ends.

The workload is one closed-loop client, so no layer has a queue and nothing
waits for a layer: the trace reports busy time and work counts only.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import microreg.cli
import microreg.image
import microreg.polar
import microreg.sequencer

LAYERS = ("cli", "image", "polar", "correlation", "sequencer")


# (module, attribute, span name, counts): `counts` maps the call's arguments
# and result to counter increments and runs outside the span.
WRAPPED = [
    (microreg.cli, "load_pgm", "image.load_pgm",
     lambda a, r: {"image.load_pgm.bytes": r.pixels.size}),
    (microreg.cli, "save_pgm", "image.save_pgm",
     lambda a, r: {"image.save_pgm.bytes": a[0].pixels.size}),
    (microreg.cli, "circular_crop", "image.prep", None),
    (microreg.cli, "normalize", "image.prep", None),
    (microreg.cli, "rotate", "image.rotate", None),
    (microreg.cli, "to_polar", "polar.to_polar", None),
    (microreg.cli, "estimate_rotation", "correlation.score_curve", None),
    (microreg.cli, "estimate_rotation_pruned", "correlation.pruned",
     lambda a, r: {"correlation.pruned.evaluated": r.op_counts.evaluated,
                   "correlation.pruned.exhaustive": r.op_counts.exhaustive}),
    (microreg.cli, "correlation_matrix", "sequencer.correlation_matrix",
     lambda a, r: {"sequencer.pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
    (microreg.cli, "to_probability", "sequencer.to_probability", None),
    (microreg.cli, "matrix_to_csv", "sequencer.csv",
     lambda a, r: {"sequencer.csv.bytes": os.path.getsize(a[1])}),
    (microreg.cli, "load_probability_csv", "sequencer.csv",
     lambda a, r: {"sequencer.csv.bytes": os.path.getsize(a[0])}),
    (microreg.cli, "greedy_sequence", "sequencer.greedy_sequence", None),
    (microreg.polar, "bilinear_sample", "image.bilinear_sample",
     lambda a, r: {"image.bilinear_sample.samples": a[2].size}),
    (microreg.image, "bilinear_sample", "image.bilinear_sample",
     lambda a, r: {"image.bilinear_sample.samples": a[2].size}),
    (microreg.sequencer, "normalize", "image.prep", None),
    (microreg.sequencer, "center_crop", "image.prep", None),
    (microreg.sequencer, "ncc", "correlation.ncc", None),
]


class Tracer:
    """In-memory span log: rows of [name, request, parent, start_ns, end_ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self.request = -1

    def call(self, name: str, fn, args=(), kwargs=None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        row = [name, self.request, parent, 0, 0]
        self.spans.append(row)
        self._open.append(idx)
        row[3] = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            row[4] = time.perf_counter_ns()
            self._open.pop()

    def _wrapper(self, name, fn, counts):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if counts is not None:
                for counter, n in counts(args, result).items():
                    self.counts[counter] += int(n)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Route the wrapped functions through this tracer."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in WRAPPED]
        try:
            for mod, attr, name, counts in WRAPPED:
                setattr(mod, attr, self._wrapper(name, getattr(mod, attr),
                                                 counts))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def totals(self):
        """Per span name: (calls, total ns, self ns)."""
        child_ns = [0] * len(self.spans)
        for name, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0, 0])
        for (name, _, _, t0, t1), kids in zip(self.spans, child_ns):
            o = out[name]
            o[0] += 1
            o[1] += t1 - t0
            o[2] += t1 - t0 - kids
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write("name,request,parent,start_ns,end_ns\n")
            for row in self.spans:
                f.write(",".join(str(v) for v in row) + "\n")


def layer_metrics(tracer: Tracer, requests: int, frames: int,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics; times and counts are per end-to-end request."""
    tot = tracer.totals()

    def ms(name, which=1):
        return tot[name][which] / 1e6 / requests

    def calls(name):
        return tot[name][0]

    def per_req(counter):
        return tracer.counts[counter] / requests

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_ns) in tot.items():
        layer_self[name.split(".")[0]] += self_ns / 1e6 / requests
    pairs = tracer.counts["sequencer.pairs"]
    evaluated = tracer.counts["correlation.pruned.evaluated"]
    exhaustive = tracer.counts["correlation.pruned.exhaustive"]
    m = {
        "image.load_pgm.ms": ms("image.load_pgm"),
        "image.load_pgm.bytes": per_req("image.load_pgm.bytes"),
        "image.save_pgm.ms": ms("image.save_pgm"),
        "image.save_pgm.bytes": per_req("image.save_pgm.bytes"),
        "image.prep.ms": ms("image.prep"),
        "image.rotate.self_ms": ms("image.rotate", 2),
        "image.bilinear_sample.ms": ms("image.bilinear_sample"),
        "image.bilinear_sample.samples":
            per_req("image.bilinear_sample.samples"),
        "polar.to_polar.self_ms": ms("polar.to_polar", 2),
        "polar.to_polar.calls_per_frame":
            calls("polar.to_polar") / frames if frames else 0.0,
        "correlation.score_curve.ms": ms("correlation.score_curve"),
        "correlation.score_curve.calls_per_frame":
            calls("correlation.score_curve") / frames if frames else 0.0,
        "correlation.pruned.ms": ms("correlation.pruned"),
        "correlation.pruned.mac_ratio":
            evaluated / exhaustive if exhaustive else 0.0,
        "correlation.ncc.ms": ms("correlation.ncc"),
        "correlation.ncc.calls": calls("correlation.ncc") / requests,
        "sequencer.correlation_matrix.self_ms":
            ms("sequencer.correlation_matrix", 2),
        "sequencer.pairs": pairs / requests,
        "sequencer.ncc_calls_per_pair":
            calls("correlation.ncc") / pairs if pairs else 0.0,
        "sequencer.csv.ms": ms("sequencer.csv"),
        "sequencer.csv.bytes": per_req("sequencer.csv.bytes"),
        "sequencer.greedy_sequence.ms": ms("sequencer.greedy_sequence"),
        "trace.overhead_pct": overhead_pct,
    }
    m.update((f"{layer}.self_ms", v) for layer, v in layer_self.items())
    return m
