"""Live sweep status: a crash-safe JSON feed folded from harness events.

``repro sweep --status-out status.json`` subscribes a
:class:`SweepStatusWriter` to the harness :class:`~repro.obs.bus.TraceBus`.
Every ``harness.*`` span event updates an in-memory rollup —
per-cell/per-shard progress, events/sec, peak RSS, an ETA — and the
writer atomically republishes the JSON document (tmp + ``os.replace``),
throttled to at most one write per ``min_interval_s`` of wall clock, so
a reader (``repro obs status status.json``, a dashboard, ``watch``)
never observes a torn file and the write amplification stays bounded
no matter how many shard ranges the sweep fans out.

The document is operational telemetry, not a result artifact: it
carries wall-clock durations and host RSS, so its bytes are *not*
deterministic — unlike every other file the obs layer writes.  Schema
(``version`` 1, DESIGN.md Sec. 13):

``state``
    ``"running"`` until the sweep's final publish flips it to ``"done"``.
``cells_total`` / ``cells_done`` / ``cells_running``
    Progress in cells (each shard range counts as one); restored
    checkpoint cells count as done.  ``cells_running`` lists in-flight
    cell labels.
``events_executed`` / ``events_per_sec``
    Summed simulated events of finished cells, and that sum over their
    summed wall-clock (the sweep's aggregate simulation throughput).
``elapsed_s`` / ``eta_s``
    Wall clock since the writer attached; naive remaining-time estimate
    ``elapsed / done * (total - done)`` (absent until one cell lands).
``rss_max_mb``
    Peak resident set of the sweep driver process so far.
``checkpoint_hits`` / ``retries`` / ``timeouts`` / ``salvaged`` /
``pool_respawns`` / ``checkpoint_publishes`` / ``merges``
    The harness fault/progress ledger, one counter per event type.
``cells``
    Per-cell detail: ``state`` (``running``/``done``/``retrying``/
    ``restored``), ``attempt``, and for finished cells ``events`` and
    ``wall_s``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Union

from repro.obs import events as ev
from repro.obs.events import TraceEvent
from repro.util.atomicio import atomic_write_text
from repro.util.validation import require

__all__ = ["SweepStatusWriter", "read_status", "format_status",
           "STATUS_VERSION"]

PathLike = Union[str, Path]

#: Schema version stamped into every status document.
STATUS_VERSION = 1


def _rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.  Normalize heuristically:
    # a sweep driver's peak RSS is far above 16 MiB either way.
    if peak_kib > 1 << 30:
        return peak_kib / (1 << 20)
    return peak_kib / 1024.0


class SweepStatusWriter:
    """Bus subscriber maintaining the live status file of one sweep.

    Subscribe it to the harness bus, then call :meth:`finish` after the
    sweep returns (or fails) so the file's final state is ``"done"``
    (respectively, the last ``"running"`` snapshot — which is exactly
    what a post-mortem wants to see).
    """

    def __init__(self, path: PathLike, *, min_interval_s: float = 0.5) -> None:
        require(min_interval_s >= 0.0,
                f"min_interval_s must be >= 0, got {min_interval_s}")
        self.path = Path(path)
        self._min_interval_s = float(min_interval_s)
        self._started = time.monotonic()
        self._last_publish: Optional[float] = None
        self._state = "running"
        self._cells_total: Optional[int] = None
        self._jobs: Optional[int] = None
        self._cells: dict[str, dict[str, object]] = {}
        self._counts = {"checkpoint_hits": 0, "retries": 0, "timeouts": 0,
                        "salvaged": 0, "pool_respawns": 0,
                        "checkpoint_publishes": 0, "merges": 0}
        self._events_executed = 0
        self._cell_wall_s = 0.0
        self.publishes = 0

    # ------------------------------------------------------------------
    # the subscriber interface
    # ------------------------------------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        data = event.data
        etype = event.type
        if etype == ev.HARNESS_SWEEP_START:
            self._cells_total = int(data.get("cells", 0)) or None
            jobs = data.get("jobs")
            self._jobs = int(jobs) if jobs is not None else None
        elif etype == ev.HARNESS_CELL_START:
            cell = str(data.get("cell"))
            self._cells[cell] = {"state": "running",
                                 "attempt": int(data.get("attempt", 0))}
        elif etype == ev.HARNESS_CELL_FINISH:
            cell = str(data.get("cell"))
            entry = self._cells.setdefault(cell, {"attempt": 0})
            entry["state"] = "done"
            events = data.get("events")
            wall_s = data.get("wall_s")
            if events is not None:
                entry["events"] = int(events)
                self._events_executed += int(events)
            if wall_s is not None:
                entry["wall_s"] = float(wall_s)
                self._cell_wall_s += float(wall_s)
        elif etype == ev.HARNESS_CHECKPOINT_HIT:
            cell = str(data.get("cell"))
            self._cells[cell] = {"state": "restored", "attempt": 0}
            self._counts["checkpoint_hits"] += 1
        elif etype == ev.HARNESS_CELL_RETRY:
            cell = str(data.get("cell"))
            entry = self._cells.setdefault(cell, {})
            entry["state"] = "retrying"
            entry["attempt"] = int(data.get("attempt", 0))
            self._counts["retries"] += 1
        elif etype == ev.HARNESS_CELL_TIMEOUT:
            self._counts["timeouts"] += 1
        elif etype == ev.HARNESS_CELL_SALVAGE:
            self._counts["salvaged"] += 1
        elif etype == ev.HARNESS_POOL_RESPAWN:
            self._counts["pool_respawns"] += 1
        elif etype == ev.HARNESS_CHECKPOINT_PUBLISH:
            self._counts["checkpoint_publishes"] += 1
        elif etype == ev.HARNESS_SHARD_MERGE:
            self._counts["merges"] += 1
        elif etype == ev.HARNESS_SWEEP_FINISH:
            self._state = "done"
            self.publish(force=True)
            return
        else:
            return  # not a harness event; nothing to fold
        self.publish()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """The current status document as plain data."""
        done = sum(1 for c in self._cells.values()
                   if c.get("state") in ("done", "restored"))
        running = sorted(name for name, c in self._cells.items()
                         if c.get("state") == "running")
        elapsed = time.monotonic() - self._started
        eta: Optional[float] = None
        if (self._state == "running" and self._cells_total
                and 0 < done < self._cells_total):
            eta = elapsed / done * (self._cells_total - done)
        events_per_sec: Optional[float] = None
        if self._cell_wall_s > 0.0:
            events_per_sec = self._events_executed / self._cell_wall_s
        return {
            "version": STATUS_VERSION,
            "state": self._state,
            "jobs": self._jobs,
            "cells_total": self._cells_total,
            "cells_done": done,
            "cells_running": running,
            "events_executed": self._events_executed,
            "events_per_sec": events_per_sec,
            "elapsed_s": round(elapsed, 3),
            "eta_s": None if eta is None else round(eta, 3),
            "rss_max_mb": _rss_mb(),
            **self._counts,
            "cells": {name: dict(cell)
                      for name, cell in sorted(self._cells.items())},
        }

    def publish(self, *, force: bool = False) -> bool:
        """Atomically republish the status file (throttled unless forced)."""
        now = time.monotonic()
        if (not force and self._last_publish is not None
                and now - self._last_publish < self._min_interval_s):
            return False
        self._last_publish = now
        text = json.dumps(self.snapshot(), indent=2, sort_keys=False) + "\n"
        atomic_write_text(self.path, text)
        self.publishes += 1
        return True

    def finish(self, *, state: str = "done") -> None:
        """Final forced publish; flips ``state`` (idempotent)."""
        self._state = state
        self.publish(force=True)


# ----------------------------------------------------------------------
# the reader side (`repro obs status <file>`)
# ----------------------------------------------------------------------
def read_status(path: PathLike) -> dict:
    """Load a status document, with actionable errors on bad input."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p}: not a JSON status document: {exc}") from exc
    if not isinstance(doc, dict) or "state" not in doc or "cells" not in doc:
        raise ValueError(f"{p}: not a sweep status document "
                         f"(missing 'state'/'cells' fields)")
    return doc


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    s = int(seconds)
    if s >= 3600:
        return f"{s // 3600}h{(s % 3600) // 60:02d}m"
    if s >= 60:
        return f"{s // 60}m{s % 60:02d}s"
    return f"{seconds:.1f}s"


def format_status(doc: dict) -> str:
    """Render a status document as the `repro obs status` text view."""
    total = doc.get("cells_total")
    done = doc.get("cells_done", 0)
    progress = f"{done}/{total}" if total else str(done)
    eps = doc.get("events_per_sec")
    lines = [
        f"sweep {doc.get('state', '?')}: {progress} cells"
        + (f", jobs={doc['jobs']}" if doc.get("jobs") else ""),
        f"  elapsed {_fmt_duration(doc.get('elapsed_s'))}"
        f"   eta {_fmt_duration(doc.get('eta_s'))}"
        f"   sim events {doc.get('events_executed', 0):,}"
        + (f" ({eps:,.0f}/s)" if eps else "")
        + (f"   rss {doc['rss_max_mb']:.0f} MiB"
           if doc.get("rss_max_mb") else ""),
    ]
    ledger = [(k, doc.get(k, 0)) for k in
              ("checkpoint_hits", "retries", "timeouts", "salvaged",
               "pool_respawns", "checkpoint_publishes", "merges")]
    eventful = [f"{k.replace('_', ' ')}={v}" for k, v in ledger if v]
    if eventful:
        lines.append("  harness: " + "  ".join(eventful))
    running = doc.get("cells_running") or []
    if running:
        lines.append("  running:")
        lines.extend(f"    {name}" for name in running)
    cells = doc.get("cells") or {}
    retrying = sorted(name for name, c in cells.items()
                      if c.get("state") == "retrying")
    if retrying:
        lines.append("  retrying:")
        lines.extend(f"    {name} (attempt {cells[name].get('attempt', '?')})"
                     for name in retrying)
    return "\n".join(lines)
