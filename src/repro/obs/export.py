"""Exporters: JSONL event traces and CSV/JSON time-series files.

Byte-determinism contract: everything written here is a pure function
of the simulation's seeded state — no wall-clock timestamps, no object
ids, keys sorted, floats via ``repr`` (shortest round-trip) — so two
runs of the same configuration produce byte-identical files.  The
acceptance tests diff whole files on this guarantee.

One encoder, :func:`record_line`, writes every trace line: the live
writer (via :func:`event_to_json`) and the shard merge
(:func:`repro.obs.federate.merge_trace_files`) both call it, so a merged
trace is byte-identical to a directly written one by construction.
"""

from __future__ import annotations

import csv
import io
import json
import os
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Union

from repro.obs.events import TraceEvent
from repro.util.atomicio import PARTIAL_SUFFIX, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sampler import TimeSeries

__all__ = ["JsonlTraceWriter", "event_to_json", "record_line", "read_trace",
           "write_timeseries", "timeseries_to_csv_text", "write_metrics_json"]

PathLike = Union[str, Path]


#: The one JSON encoder of trace lines: compact separators, NaN/Infinity
#: allowed, ASCII-escaped strings.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=True)

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: ``type(value)`` -> its JSON text, exactly as :data:`_ENCODER` writes
#: it; any other type (subclasses, containers) goes through the encoder.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    int: int.__repr__,
    float: _float_text,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _value: "null",
}

#: A line's ``%``-template and the getter of its payload values in
#: sorted key order.
_Template = tuple[str, Callable[[Mapping[str, object]], tuple[Any, ...]]]

#: ``(type, *payload keys)`` -> its template; bounded, since the key
#: sets of the registered events are few.
_TEMPLATES: dict[tuple[str, ...], _Template] = {}
_MAX_TEMPLATES = 1024
_LEAD_KEYS = frozenset({"seq", "t", "type"})


def _template(type_: str, keys: tuple[str, ...]) -> _Template:
    order = sorted(keys)

    def literal(name: str) -> str:
        return encode_basestring_ascii(name).replace("%", "%%")

    text = ('{"seq":%s,"t":%s,"type":' + literal(type_)
            + "".join(f",{literal(k)}:%s" for k in order) + "}")
    # itemgetter returns a bare value for one key; a 0/1-key payload's
    # values are already in sorted order
    values = itemgetter(*order) if len(order) > 1 else (
        lambda payload: tuple(payload.values()))
    return text, values


def record_line(seq: int, time_s: float, type_: str,
                payload: Mapping[str, object]) -> str:
    """One canonical single-line JSON trace record.

    ``seq``/``t``/``type`` lead, payload fields follow sorted — the
    bytes of ``json.dumps`` of that dict with compact separators and
    ``allow_nan=True``.  The key order and a ``%``-template are cached
    per ``(type, payload keys)``; scalars are formatted as ``json``
    formats them, and any other value goes through the same encoder.
    """
    key = (type_, *payload)
    entry = _TEMPLATES.get(key)
    if entry is None:
        if not _LEAD_KEYS.isdisjoint(payload):
            # a payload key overrides a lead field, as in the dict
            record: dict[str, object] = {"seq": seq, "t": time_s,
                                         "type": type_}
            for name in sorted(payload):
                record[name] = payload[name]
            return _ENCODER.encode(record)
        entry = _template(type_, key[1:])
        if len(_TEMPLATES) < _MAX_TEMPLATES:
            _TEMPLATES[key] = entry
    text, values = entry
    scalar, fallback = _SCALAR_TEXT.get, _ENCODER.encode
    return text % tuple([scalar(type(v), fallback)(v)
                         for v in (seq, time_s, *values(payload))])


def event_to_json(event: TraceEvent) -> str:
    """One event as a canonical single-line JSON record (:func:`record_line`)."""
    return record_line(*event)


class JsonlTraceWriter:
    """Bus subscriber streaming events to a JSONL file.

    Usable as a context manager; always :meth:`close` (or exit the
    ``with`` block) before reading the file — lines are buffered.

    Crash-safety: events stream into ``<path>.<pid>.tmp`` and the file
    is renamed onto ``path`` only by a successful :meth:`close`, so a
    reader can never observe a torn trace.  A run that dies mid-stream
    should call :meth:`abort`, which quarantines the partial file as
    ``<path>.partial`` for inspection (exiting the ``with`` block on an
    exception does this automatically).

    Examples
    --------
    >>> bus = TraceBus(); writer = JsonlTraceWriter(path)   # doctest: +SKIP
    >>> bus.subscribe(writer)                               # doctest: +SKIP
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp_path = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.tmp")
        self._file: io.TextIOWrapper | None = self._tmp_path.open(  # repro: allow[IO001] streams to a .tmp sibling; close() publishes with os.replace, abort() quarantines
            "w", encoding="utf-8", newline="\n")
        self.events_written = 0

    def __call__(self, event: TraceEvent) -> None:
        """The subscriber interface: serialize and buffer one event."""
        if self._file is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        self._file.write(event_to_json(event) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush, close, and atomically publish the trace (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None
            os.replace(self._tmp_path, self.path)

    def abort(self) -> None:
        """Close without publishing; quarantine the partial trace.

        Idempotent, and a no-op after a successful :meth:`close` — an
        already-published trace is complete and must stay in place.
        """
        if self._file is None:
            return
        self._file.close()
        self._file = None
        try:
            os.replace(self._tmp_path,
                       self.path.with_name(self.path.name + PARTIAL_SUFFIX))
        except OSError:  # best-effort: never mask the original failure
            pass

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def read_trace(path: PathLike) -> list[dict]:
    """Load a JSONL trace back into a list of dict records.

    Raises :class:`ValueError` naming the offending line on corrupt
    input, so CLI consumers get an actionable message instead of a raw
    ``JSONDecodeError``.
    """
    records: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON trace record: {exc}") from exc
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(
                    f"{path}:{lineno}: trace record missing 'type' field")
            records.append(record)
    return records


# ----------------------------------------------------------------------
# time-series
# ----------------------------------------------------------------------
def timeseries_to_csv_text(series: "TimeSeries") -> str:
    """Render a :class:`~repro.obs.sampler.TimeSeries` as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(series.columns)
    for row in series.rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_timeseries(series: "TimeSeries", path: PathLike) -> Path:
    """Write a time-series to ``path``: ``.json`` gets a structured JSON
    document, anything else (canonically ``.csv``) gets CSV.

    Atomic (tmp file + ``os.replace``): a killed process never leaves a
    truncated series where a plotting script expects a whole one."""
    target = Path(path)
    if target.suffix.lower() == ".json":
        doc = {"interval_s": series.interval_s,
               "columns": list(series.columns),
               "rows": [list(row) for row in series.rows]}
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    else:
        text = timeseries_to_csv_text(series)
    return atomic_write_text(target, text)


def write_metrics_json(registry: "MetricsRegistry", path: PathLike) -> Path:
    """Dump a metrics registry as deterministic, indented JSON (atomic)."""
    text = json.dumps(registry.as_dict(), indent=2, sort_keys=True) + "\n"
    return atomic_write_text(path, text)
