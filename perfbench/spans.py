"""In-memory span tracer for the traced benchmark run.

The tracer replaces the names the library calls through with wrappers that
record a span (name, start, end, parent, attributes), in the benchmark
process only, and puts the originals back afterwards.  A span's layer is the
part of its name before the first dot; a layer's self time is the time its
spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object, bool]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        sp = Span(name, time.perf_counter(), parent)
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        before(*args) returns the span's first attributes and
        after(span, result, *args) adds attributes from the result; each runs
        in a `trace.attrs` span of its own, so that its cost is not billed to
        a library layer.  A name the library no longer has is reported and
        skipped.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found, "
                  "its metrics read 0", file=sys.stderr)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if before is not None:
                with tracer.span("trace.attrs"):
                    attrs = before(*args, **kwargs)
            with tracer.span(name) as sp:
                sp.attrs.update(attrs)
                result = fn(*args, **kwargs)
            if after is not None:
                with tracer.span("trace.attrs"):
                    after(sp, result, *args, **kwargs)
            return result

        self._originals.append((owner, attr, fn, attr in vars(owner)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, fn, own in reversed(self._originals):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._originals.clear()


def _max_bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


def _cache_file_size(cache, key: str) -> int:
    path = os.path.join(cache.directory, key + ".json")
    return os.path.getsize(path) if os.path.exists(path) else 0


def install(tracer: Tracer, lib) -> None:
    """Wrap the library's layer entry points.

    Within one _run_pair, the seed-1 elimination of a degree comes first; a
    seed-2 witness elimination follows it only when seed 1 found new
    generators.  That call order tells the two apart.  The echelon_int call
    inside each elimination is wrapped too, for the size of the entries it
    returns: after fraction-free elimination, not as they went in.
    """
    cli, inv, gin, shape = lib.cli, lib.invariants, lib.gin, lib.shape
    state = {"witness_next": False}

    def pair_begins(*args, **kwargs):
        state["witness_next"] = False
        return {}

    def pair_done(sp, res, *args, **kwargs):
        sp.attrs["degrees"] = len(res.hf_table)

    def elim_begins(*args, **kwargs):
        return {"role": 2 if state["witness_next"] else 1}

    def elim_done(sp, result, *args, **kwargs):
        free = result[0]
        if sp.attrs["role"] == 1:
            state["witness_next"] = bool(free)
            sp.attrs["zero_kernel"] = not free
        else:
            state["witness_next"] = False

    def echelon_done(sp, result, *args, **kwargs):
        sp.attrs["bits"] = _max_bits(result[1])

    def rows_done(sp, rows, *args, **kwargs):
        sp.attrs["cells"] = len(rows) * (len(rows[0]) if rows else 0)

    def get_done(sp, hit, cache, key, *args, **kwargs):
        sp.attrs["hit"] = hit is not None
        sp.attrs["bytes"] = _cache_file_size(cache, key) if hit is not None else 0

    def put_done(sp, _, cache, key, *args, **kwargs):
        sp.attrs["bytes"] = _cache_file_size(cache, key)

    tracer.wrap(cli, "main", "cli.main")
    for owner in (cli, inv):
        for attr in ("verify_theorem", "custom_report"):
            tracer.wrap(owner, attr, "invariants." + attr)
        tracer.wrap(owner, "compute_gin", "gin.compute_gin")
    tracer.wrap(inv, "q_area_2d", "shape.area")
    tracer.wrap(inv, "avoids_interior", "shape.avoid")
    tracer.wrap(gin, "_run_pair", "gin.run_pair", before=pair_begins, after=pair_done)
    tracer.wrap(gin, "_validate", "gin.validate")
    tracer.wrap(gin, "_condition_rows", "scheme.rows", after=rows_done)
    tracer.wrap(gin, "_free_columns", "linalg.elim", before=elim_begins, after=elim_done)
    tracer.wrap(gin, "echelon_int", "linalg.echelon", after=echelon_done)
    tracer.wrap(gin.FileGinCache, "get", "cache.get", after=get_done)
    tracer.wrap(gin.FileGinCache, "put", "cache.put", after=put_done)
    tracer.wrap(shape, "q_volume_estimate", "shape.volume")
    tracer.wrap(shape, "lp_feasible", "lp.solve")


def self_times(tracer: Tracer) -> list[float]:
    own = [sp.seconds for sp in tracer.spans]
    for sp in tracer.spans:
        if sp.parent >= 0:
            own[sp.parent] -= sp.seconds
    return own


def check_spans(tracer: Tracer, own: list[float], pass_seconds: list[float]) -> None:
    """Raises unless the spans form one tree per traced pass and the layers'
    self times account for the passes' time as clocked outside the tracer.

    Every top-level span must be a `bench.pass`, one per clocked pass; every
    span must have ended and lie within its parent; no self time may be
    negative, which would mean child spans overlapped; and the self times
    must add up to the clocked time, less at most 1% (the tracer's own
    entry and exit of the pass span)."""
    roots = [sp for sp in tracer.spans if sp.parent < 0]
    if [sp.name for sp in roots] != ["bench.pass"] * len(pass_seconds):
        raise RuntimeError(f"{len(roots)} top-level spans for {len(pass_seconds)} clocked "
                           "passes, or one outside a bench.pass")
    for sp in tracer.spans:
        if sp.end == 0.0 or sp.end < sp.start:
            raise RuntimeError(f"span {sp.name} never ended")
        up = tracer.spans[sp.parent] if sp.parent >= 0 else None
        if up is not None and not up.start <= sp.start <= sp.end <= up.end:
            raise RuntimeError(f"span {sp.name} escapes its parent {up.name}")
    slack = 1e-6 * max(1.0, sum(pass_seconds))
    if min(own) < -slack:
        raise RuntimeError(f"negative self time {min(own)}: child spans overlap")
    total, clocked = sum(own), sum(pass_seconds)
    if not 0.99 * clocked <= total <= clocked + slack:
        raise RuntimeError(f"layer self times sum to {total}, the passes were clocked at {clocked}")


def layer_metrics(tracer: Tracer, pass_seconds: list[float],
                  untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of BENCHMARK.json, per traced pass, and a summary
    with the self time of every layer.  pass_seconds holds each traced
    pass's time, clocked outside the tracer; see check_spans.
    """
    own = self_times(tracer)
    check_spans(tracer, own, pass_seconds)
    by_name: dict[str, list[int]] = defaultdict(list)
    breakdown: dict[str, float] = defaultdict(float)
    for i, sp in enumerate(tracer.spans):
        by_name[sp.name].append(i)
        breakdown[sp.name.split(".")[0]] += own[i]
    per_pass = 1.0 / len(pass_seconds)

    def spans_of(name, **where):
        return [tracer.spans[i] for i in by_name[name]
                if all(tracer.spans[i].attrs.get(k) == v for k, v in where.items())]

    def self_of(*names):
        return per_pass * sum((own[i] for name in names for i in by_name[name]), 0.0)

    def dur(name, **where):
        return per_pass * sum((sp.seconds for sp in spans_of(name, **where)), 0.0)

    def count(spans, attr=None):
        return per_pass * sum(sp.attrs.get(attr, 0) if attr else 1 for sp in spans)

    pairs_per_gin = defaultdict(int)
    for sp in spans_of("gin.run_pair"):
        pairs_per_gin[sp.parent] += 1
    gets = spans_of("cache.get")
    elims = spans_of("linalg.elim")
    elim_ids = set(by_name["linalg.elim"])
    echelons = [sp for sp in spans_of("linalg.echelon") if sp.parent in elim_ids]
    traced_wall = statistics.median(pass_seconds)
    m = {
        "linalg.seed1_elim_s": (dur("linalg.elim", role=1), "s"),
        "linalg.seed2_elim_s": (dur("linalg.elim", role=2), "s"),
        "linalg.zero_kernel_elim_s": (dur("linalg.elim", role=1, zero_kernel=True), "s"),
        "linalg.elim_calls": (count(elims), "count"),
        "linalg.max_entry_bits": (max((sp.attrs["bits"] for sp in echelons), default=0), "bits"),
        "scheme.rows_s": (self_of("scheme.rows"), "s"),
        "scheme.matrix_cells": (count(spans_of("scheme.rows"), "cells"), "count"),
        "gin.self_s": (self_of("gin.compute_gin", "gin.run_pair"), "s"),
        "gin.validate_s": (self_of("gin.validate"), "s"),
        "gin.redraws": (per_pass * sum(c - 1 for c in pairs_per_gin.values()), "count"),
        "gin.degrees": (count(spans_of("gin.run_pair"), "degrees"), "count"),
        "cache.get_s": (self_of("cache.get"), "s"),
        "cache.put_s": (self_of("cache.put"), "s"),
        "cache.hits": (count(spans_of("cache.get", hit=True)), "count"),
        "cache.misses": (count(spans_of("cache.get", hit=False)), "count"),
        "cache.bytes_read": (count(gets, "bytes"), "B"),
        "cache.bytes_written": (count(spans_of("cache.put"), "bytes"), "B"),
        "shape.volume_s": (self_of("shape.volume"), "s"),
        "shape.area_s": (self_of("shape.area"), "s"),
        "shape.avoid_s": (self_of("shape.avoid"), "s"),
        "lp.solves": (count(spans_of("lp.solve")), "count"),
        "lp.solve_s": (self_of("lp.solve"), "s"),
        "invariants.self_s": (self_of("invariants.verify_theorem", "invariants.custom_report"), "s"),
        "cli.self_s": (self_of("cli.main"), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
    }
    gin_total = dur("gin.compute_gin")
    elim = m["linalg.seed1_elim_s"][0] + m["linalg.seed2_elim_s"][0]
    summary = {
        "passes": len(pass_seconds),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "layers_self_s_per_pass": {
            layer: per_pass * seconds
            for layer, seconds in sorted(breakdown.items(), key=lambda kv: -kv[1])
        },
        "compute_gin_s_per_pass": gin_total,
        "elim_share_of_compute_gin": elim / gin_total if gin_total else None,
    }
    return m, summary


def format_breakdown(summary: dict) -> str:
    layers = summary["layers_self_s_per_pass"]
    whole = sum(layers.values())
    lines = [f"self time by layer, per traced pass ({summary['passes']} passes, "
             f"{whole:.4f}s each on average):"]
    for layer, seconds in layers.items():
        lines.append(f"  {layer:<12} {seconds:9.4f}s  {100 * seconds / whole:6.2f}%")
    share = summary["elim_share_of_compute_gin"]
    if share is not None:
        lines.append(f"  seed-1 + seed-2 elimination: {100 * share:.1f}% of compute_gin "
                     f"({summary['compute_gin_s_per_pass']:.3f}s)")
    return "\n".join(lines)


def write(path, tracer: Tracer, summary: dict, metrics: dict) -> None:
    """Writes the summary, the metrics and the spans of the first traced
    pass as [name, start, end, parent, attributes], times relative to its
    start."""
    first = next((tracer.spans[:i] for i, sp in enumerate(tracer.spans) if i and sp.parent < 0),
                 tracer.spans)
    t0 = first[0].start if first else 0.0
    doc = {
        "summary": summary,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "first_pass_spans": [[sp.name, sp.start - t0, sp.end - t0, sp.parent, sp.attrs]
                             for sp in first],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
