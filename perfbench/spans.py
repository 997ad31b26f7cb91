"""In-memory span recorder and the layer wrappers of the traced run.

The traced run times calls into each layer's public functions from the
outside: :func:`install` replaces those functions (class attributes and
module-level names) with wrappers that open a span around the original
call, and :func:`uninstall` puts the originals back, so untraced passes
run the unmodified program.

A span key is ``<layer>.<what>`` (``disk.submit``).  For every key the
recorder keeps, in memory:

* ``calls``  - spans opened;
* ``total``  - inclusive seconds of the outermost span of that key
  (a nested span of the same key is not counted twice);
* ``self``   - seconds inside the key's spans minus the seconds inside
  their direct child spans.

Per-request spans (routing, submits, trace emission) are only
aggregated; coarse spans (cells, drains, merges, CTMC solves) are also
kept one by one in :attr:`SpanRecorder.spans`, as
``(key, start_s, end_s, depth)``, and :meth:`SpanRecorder.dump` writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

__all__ = ["SpanRecorder", "install", "uninstall", "layer_of"]

#: Keys whose spans are kept one by one (all others are only summed).
COARSE = frozenset({
    "experiments.cell", "sim.drain", "policies.layout", "disk.finalize",
    "press.score", "redundancy.ctmc", "experiments.shard_cell",
    "experiments.merge", "obs.trace_merge", "workload.gen",
})


def layer_of(key: str) -> str:
    """Layer name of a span key (the part before the first dot)."""
    return key.split(".", 1)[0]


class SpanRecorder:
    """Span stack plus per-key totals, all in memory."""

    def __init__(self) -> None:
        # per key: [calls, total_s, self_s, open_depth]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list[float]] = []

    def _stat(self, key: str) -> list:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = [0, 0.0, 0.0, 0]
        return stat

    def wrap(self, key: str, fn: Callable,
             count: Optional[Callable[[tuple, dict, Any], None]] = None,
             *, outer_only: bool = False) -> Callable:
        """``fn`` with every call timed as one span of ``key``.

        ``count(args, kwargs, result)`` runs after each call (after each
        outermost call of ``key`` when ``outer_only``), outside the span.
        """
        stat = self._stat(key)
        stack = self._stack
        keep = self.spans if key in COARSE else None
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                stat[3] -= 1
                if stack:
                    stack[-1][0] += dur
                stat[0] += 1
                stat[2] += dur - frame[0]
                if stat[3] == 0:
                    stat[1] += dur
                if keep is not None:
                    keep.append((key, t0, t1, len(stack)))
            if count is not None and not (outer_only and stat[3]):
                count(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, key: str, fn: Callable,
                        count: Optional[Callable[[Any], None]]) -> Callable:
        """Time each ``next()`` of a generator function as one span."""
        timed_next = self.wrap(key, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = timed_next(inner)
                except StopIteration:
                    return
                if count is not None:
                    count(item)
                yield item

        return wrapper

    # ------------------------------------------------------------------
    def self_by_layer(self) -> dict[str, float]:
        """Self seconds summed per layer."""
        out: dict[str, float] = {}
        for key, stat in self.stats.items():
            layer = layer_of(key)
            out[layer] = out.get(layer, 0.0) + stat[2]
        return out

    def calls(self, key: str) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def total(self, key: str) -> float:
        return self.stats[key][1] if key in self.stats else 0.0

    def self_s(self, key: str) -> float:
        return self.stats[key][2] if key in self.stats else 0.0

    def durations(self, key: str) -> list[float]:
        """Durations of the kept spans of one coarse key."""
        return [end - start for k, start, end, _ in self.spans if k == key]

    def dump(self, path: str) -> None:
        """Write the kept spans and the per-key totals as one JSON file."""
        doc = {
            "stats": {k: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                      for k, s in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": [{"key": k, "start_s": a, "end_s": b, "depth": d}
                      for k, a, b, d in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ----------------------------------------------------------------------
# the layer table: which public functions get which span key
# ----------------------------------------------------------------------
def _targets(rec: SpanRecorder) -> list[tuple[object, str, str, str, Optional[Callable]]]:
    """``(owner, attribute, key, kind, count)`` for every wrapped function.

    ``kind`` is ``"call"`` or ``"gen"`` (generator: each ``next()`` is a
    span).  Owners are classes or modules; module owners are the
    modules whose global name the caller looks up at call time.
    """
    import repro.experiments.parallel as parallel
    import repro.experiments.runner as runner
    import repro.experiments.shard as shard
    import repro.redundancy.ctmc as ctmc
    from repro.disk.array import DiskArray
    from repro.disk.drive import TwoSpeedDrive
    from repro.faults.injector import FaultInjector
    from repro.obs.bus import TraceBus
    from repro.obs.export import JsonlTraceWriter
    from repro.policies.base import Policy
    from repro.press.model import PRESSModel
    from repro.sim.engine import Simulator
    from repro.workload.stream import SyntheticStream
    from repro.workload.synthetic import WorldCupLikeWorkload

    counters = rec.counters

    def counting(name: str, amount: Callable[[tuple, dict, Any], int]):
        def count(args, kwargs, result):
            counters[name] += amount(args, kwargs, result)
        return count

    def chunk_count(chunk) -> None:
        counters["workload.requests"] += len(chunk)

    targets: list[tuple[object, str, str, str, Optional[Callable]]] = [
        (parallel, "cached_generate", "workload.gen", "call", None),
        (WorldCupLikeWorkload, "generate", "workload.gen", "call",
         counting("workload.requests", lambda a, k, r: len(r[1]))),
        (SyntheticStream, "chunks", "workload.gen", "gen", chunk_count),
        (Simulator, "run_until_drained", "sim.drain", "call", None),
        (TwoSpeedDrive, "submit", "disk.submit", "call", None),
        (TwoSpeedDrive, "request_speed", "disk.request_speed", "call", None),
        (DiskArray, "migrate_file", "disk.migrate", "call",
         counting("disk.migrations", lambda a, k, r: int(bool(r)))),
        (DiskArray, "finalize", "disk.finalize", "call", None),
        (PRESSModel, "evaluate_array", "press.score", "call",
         counting("press.disks_scored", lambda a, k, r: len(r[1]))),
        (PRESSModel, "rescore_factors", "press.score", "call",
         counting("press.disks_scored", lambda a, k, r: len(r[1]))),
        (PRESSModel, "disk_afr_batch", "press.score", "call",
         counting("press.disks_scored", lambda a, k, r: len(r))),
        (runner, "assess_scheme", "redundancy.ctmc", "call", None),
        (ctmc, "loss_probability", "redundancy.ctmc", "call",
         counting("redundancy.ctmc_calls", lambda a, k, r: 1)),
        (ctmc, "mttdl_years", "redundancy.ctmc", "call",
         counting("redundancy.ctmc_calls", lambda a, k, r: 1)),
        (FaultInjector, "submit_user_request", "faults.submit", "call", None),
        (shard, "run_shard_cell", "experiments.shard_cell", "call", None),
        (shard, "merge_shard_results", "experiments.merge", "call", None),
        (TraceBus, "emit", "obs.emit", "call", None),
        (JsonlTraceWriter, "__call__", "obs.encode", "call", None),
        (shard, "merge_trace_files", "obs.trace_merge", "call", None),
    ]
    # route / initial_layout of every Policy subclass that defines them
    pending, seen = list(Policy.__subclasses__()), set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "route" in vars(cls):
            targets.append((cls, "route", "policies.route", "call", None))
        if "initial_layout" in vars(cls):
            targets.append((cls, "initial_layout", "policies.layout", "call", None))
    return targets


def install(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap every layer function; returns the undo list for :func:`uninstall`."""
    undo: list[tuple[object, str, object]] = []
    for owner, attr, key, kind, count in _targets(rec):
        original = vars(owner)[attr]
        if kind == "gen":
            wrapped = rec._wrap_generator(key, original, count)
        else:
            wrapped = rec.wrap(key, original, count,
                               outer_only=layer_of(key) == "press")
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    """Put every original function back (reverse order of installation)."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
