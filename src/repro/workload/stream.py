"""Constant-memory streaming workloads (chunked request generation).

Every sweep used to materialize its full request list before simulating —
two float64/int64 arrays per trace, ~16 bytes a request, which caps the
reachable scale long before the event kernel does.  This module converts
workload generation to *chunked iteration*: a stream yields
:class:`TraceChunk` blocks whose concatenation is bit-identical to the
materialized :class:`~repro.workload.trace.Trace`, while peak state is
one chunk plus the bounded popularity tables.

Two implementations of the :class:`RequestStream` protocol:

* :class:`SyntheticStream` — the chunked twin of
  :class:`~repro.workload.synthetic.WorldCupLikeWorkload`.  Bit-identity
  with the batch path rests on three properties, each pinned by a
  hypothesis test in ``tests/workload/test_stream.py``:

  1. *RNG prefix stability*: ``Generator.exponential``/``random`` drawn
     in consecutive slices produce the same values as one large draw, so
     chunked arrival/rank sampling consumes the identical bitstream.
     Bursty runs additionally clamp run lengths against the *global*
     request count (:func:`~repro.workload.arrival.onoff_bursty_gap_runs`).
  2. *cumsum carry*: ``np.cumsum`` accumulates sequentially, so adding
     the running total into the first gap of each chunk **before** the
     chunk-local cumsum reproduces the batch float-op grouping exactly.
  3. *RNG pre-pass*: the batch path draws all arrivals, then all ranks,
     from one generator.  The stream clones the seed and runs the
     arrival draws to exhaustion (discarding them) to position the rank
     generator, trading one cheap extra pass for O(chunk) memory; the
     positioned state is memoized per process, so streams of one
     workload opened again in that process skip it.

* :class:`WC98Stream` — the chunked twin of
  :func:`~repro.workload.wc98.wc98_to_trace` over the binary WorldCup98
  format, built on :func:`~repro.workload.wc98.iter_wc98_chunks`.  A
  first pass scans filter survivors for the count, start time, and the
  dense id/size tables (bounded by the distinct-object count); the
  second pass streams filtered chunks.  Timestamps must already be
  non-decreasing after filtering — the batch path's stable sort is the
  identity there, and a streaming reader cannot sort without
  materializing, so out-of-order input is an error rather than a silent
  divergence.

The frozen *spec* types (:class:`SyntheticStreamSpec`,
:class:`WC98StreamSpec`) are the picklable, digestible handles the
experiment layer passes around in place of realized arrays; the workload
cache keys on their canonical content (chunk size never enters the
digest — see ``repro.workload.cache``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Union, runtime_checkable

import numpy as np

from repro.util.rngtools import rng_from
from repro.util.validation import require
from repro.workload.arrival import onoff_bursty_gap_runs
from repro.workload.files import FileSet
from repro.workload.synthetic import SyntheticWorkloadConfig, WorldCupLikeWorkload
from repro.workload.trace import Trace
from repro.workload.wc98 import (DEFAULT_RECORDS_PER_CHUNK, METHOD_GET,
                                 iter_wc98_chunks)
from repro.workload.zipf import zipf_cdf

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "TraceChunk",
    "RequestStream",
    "SyntheticStream",
    "WC98Stream",
    "SyntheticStreamSpec",
    "WC98StreamSpec",
    "StreamSpec",
    "WorkloadLike",
    "open_stream",
    "materialize",
]

#: Requests per yielded chunk (~1 MB of trace arrays) — the default for
#: every streaming consumer; any value produces the same concatenated
#: trace, this one just balances numpy efficiency against peak RSS.
DEFAULT_CHUNK_SIZE = 65_536


@dataclass(frozen=True, slots=True)
class TraceChunk:
    """One block of a streamed trace: absolute times + dense file ids.

    Chunks carry *absolute* arrival times (the stream owns the cumsum
    carry), so consumers never need to re-base; concatenating the fields
    of every chunk reproduces ``Trace.times_s`` / ``Trace.file_ids``.
    """

    times_s: np.ndarray
    file_ids: np.ndarray

    def __len__(self) -> int:
        return self.times_s.size


@runtime_checkable
class RequestStream(Protocol):
    """Chunked generator protocol both workload sources implement.

    Contract: ``chunks()`` may yield blocks of *any* sizes (consumers
    must only rely on the concatenation), every yielded array is safe to
    read until the next iteration step, and iterating twice from a fresh
    ``chunks()`` call yields the identical sequence.
    """

    @property
    def fileset(self) -> FileSet: ...

    @property
    def n_requests(self) -> int: ...

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[TraceChunk]: ...


# ----------------------------------------------------------------------
# synthetic stream
# ----------------------------------------------------------------------
def _gap_runs(cfg: SyntheticWorkloadConfig, rng: np.random.Generator,
              chunk_size: int) -> Iterator[np.ndarray]:
    """Inter-arrival gaps in generation order, bounded-memory.

    Consumes ``rng`` exactly as the batch arrival samplers do (same
    draws, same order), which is what lets a second pass over this
    generator position the rank RNG.
    """
    n = cfg.n_requests
    if cfg.bursty:
        yield from onoff_bursty_gap_runs(n, cfg.mean_interarrival_s, seed=rng)
        return
    i = 0
    while i < n:
        take = min(chunk_size, n - i)
        yield rng.exponential(cfg.mean_interarrival_s, size=take)
        i += take


#: Rank-generator states already positioned by the pre-pass, most
#: recent last: ``(config, chunk_size, bit_generator.state)``.  A config
#: holds a dict, so entries are found by equality, not by hash.
_RANK_RNG_STATES: deque[tuple[SyntheticWorkloadConfig, int, dict]] = deque(maxlen=8)


def _positioned_rank_rng(cfg: SyntheticWorkloadConfig,
                         chunk_size: int) -> np.random.Generator:
    """The rank generator, positioned where the batch path's sits.

    The batch path draws all arrivals, then all ranks, from one
    generator; the stream replays the arrival draws (discarded) to get
    there.  That pre-pass costs as much as drawing the arrivals.  A
    shard range opens its stream once, but one process still opens the
    same workload again: the one-shard ranges of a journaled sweep, the
    cells of a sweep that share a workload, and every repeat of a
    benchmark cell.  So the positioned state is kept in a small
    in-process memo.
    """
    rng = rng_from(cfg.seed + 2)
    for known, size, state in _RANK_RNG_STATES:
        if size == chunk_size and known == cfg:
            rng.bit_generator.state = state
            return rng
    for _ in _gap_runs(cfg, rng, chunk_size):
        pass
    _RANK_RNG_STATES.append((cfg, chunk_size, rng.bit_generator.state))
    return rng


def _rechunk(runs: Iterable[np.ndarray], chunk_size: int) -> Iterator[np.ndarray]:
    """Reassemble arbitrarily-sized runs into owned ``chunk_size`` blocks."""
    buf: list[np.ndarray] = []
    have = 0
    for arr in runs:
        buf.append(arr)
        have += arr.size
        while have >= chunk_size:
            out = np.empty(chunk_size, dtype=np.float64)
            filled = 0
            while filled < chunk_size:
                head = buf[0]
                take = min(head.size, chunk_size - filled)
                out[filled:filled + take] = head[:take]
                if take == head.size:
                    buf.pop(0)
                else:
                    buf[0] = head[take:]
                filled += take
            have -= chunk_size
            yield out
    if have:
        out = np.empty(have, dtype=np.float64)
        filled = 0
        for head in buf:
            out[filled:filled + head.size] = head
            filled += head.size
        yield out


class SyntheticStream:
    """Chunked twin of :class:`WorldCupLikeWorkload` — bit-identical output.

    ``materialize(SyntheticStream(cfg))`` equals
    ``WorldCupLikeWorkload(cfg).generate()`` array-for-array for every
    config and every chunk size; peak per-request state is one chunk.
    The popularity tables (drift orders, Zipf CDF) are O(n_files *
    drift_segments) and built once per ``chunks()`` call.
    """

    def __init__(self, config: SyntheticWorkloadConfig) -> None:
        self.config = config
        self._workload = WorldCupLikeWorkload(config)
        self._fileset: FileSet | None = None

    @property
    def fileset(self) -> FileSet:
        if self._fileset is None:
            self._fileset = self._workload.build_fileset()
        return self._fileset

    @property
    def n_requests(self) -> int:
        return self.config.n_requests

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[TraceChunk]:
        require(chunk_size >= 1, f"chunk_size must be >= 1, got {chunk_size}")
        cfg = self.config
        fileset = self.fileset
        orders = self._workload.drifted_orders(fileset)
        bounds = np.linspace(0, cfg.n_requests, len(orders) + 1).astype(np.int64)
        cdf = zipf_cdf(len(fileset), cfg.zipf_alpha)

        rng_ranks = _positioned_rank_rng(cfg, chunk_size)
        rng_arrivals = rng_from(cfg.seed + 2)
        carry = 0.0
        start = 0
        for chunk_gaps in _rechunk(_gap_runs(cfg, rng_arrivals, chunk_size),
                                   chunk_size):
            n = chunk_gaps.size
            # fold the running total into the first gap *before* the
            # chunk-local cumsum: the accumulator then takes the same
            # float additions, in the same order, as one global cumsum
            chunk_gaps[0] += carry
            times = np.cumsum(chunk_gaps)
            carry = float(times[-1])

            u = rng_ranks.random(n)
            ranks = np.searchsorted(cdf, u, side="right").astype(np.int64)
            file_ids = np.empty(n, dtype=np.int64)
            pos = start
            while pos < start + n:
                seg = int(np.searchsorted(bounds, pos, side="right")) - 1
                hi = min(int(bounds[seg + 1]), start + n)
                sl = slice(pos - start, hi - start)
                file_ids[sl] = orders[seg][ranks[sl]]
                pos = hi
            start += n
            yield TraceChunk(times, file_ids)


# ----------------------------------------------------------------------
# WC98 stream
# ----------------------------------------------------------------------
class WC98Stream:
    """Chunked twin of :func:`wc98_to_trace` over a WC98 binary log.

    Construction performs the bounded scan pass (filter survivors
    counted, start time and the dense object-id/size tables collected);
    ``chunks()`` then streams filtered, re-based, densely-remapped
    blocks.  Requires post-filter timestamps to be non-decreasing (see
    the module docstring); matches the batch converter exactly on such
    files.
    """

    def __init__(self, path: str, *, methods: tuple[int, ...] = (METHOD_GET,),
                 min_size_bytes: int = 1,
                 records_per_chunk: int = DEFAULT_RECORDS_PER_CHUNK) -> None:
        require(min_size_bytes >= 0,
                f"min_size_bytes must be >= 0, got {min_size_bytes}")
        self.path = str(path)
        self.methods = tuple(methods)
        self.min_size_bytes = int(min_size_bytes)
        self._records_per_chunk = records_per_chunk
        self._scan()

    # ------------------------------------------------------------------
    def _keep_mask(self, arr: np.ndarray) -> np.ndarray:
        mask = np.isin(arr["method"].astype(np.int64),
                       np.array(self.methods, dtype=np.int64))
        return mask & (arr["size"].astype(np.int64) >= self.min_size_bytes)

    def _scan(self) -> None:
        size_by_id: dict[int, int] = {}
        n_total = 0
        n_kept = 0
        t0: int | None = None
        last_ts: int | None = None
        for arr in iter_wc98_chunks(self.path,
                                    records_per_chunk=self._records_per_chunk):
            n_total += arr.size
            kept = arr[self._keep_mask(arr)]
            if kept.size == 0:
                continue
            ts = kept["timestamp"].astype(np.int64)
            if ((last_ts is not None and int(ts[0]) < last_ts)
                    or bool(np.any(np.diff(ts) < 0))):
                raise ValueError(
                    f"WC98 streaming requires timestamps sorted non-decreasing "
                    f"after filtering; {self.path} is out of order near kept "
                    f"record {n_kept}")
            if t0 is None:
                t0 = int(ts[0])
            last_ts = int(ts[-1])
            ids = kept["object_id"].astype(np.int64)
            sizes = kept["size"].astype(np.int64)
            uniq, inv = np.unique(ids, return_inverse=True)
            chunk_max = np.zeros(uniq.size, dtype=np.int64)
            np.maximum.at(chunk_max, inv, sizes)
            for oid, size in zip(uniq.tolist(), chunk_max.tolist()):
                prev = size_by_id.get(oid)
                if prev is None or size > prev:
                    size_by_id[oid] = size
            n_kept += int(kept.size)
        require(n_total > 0, "no records to convert")
        require(n_kept > 0, "no records survive filtering")
        assert t0 is not None
        self._n_requests = n_kept
        self._t0 = t0
        self._unique_ids = np.array(sorted(size_by_id), dtype=np.int64)
        sizes_mb = np.array([float(size_by_id[int(i)]) for i in self._unique_ids],
                            dtype=np.float64)
        sizes_mb /= 1.0e6  # bytes -> MB, matching wc98_to_trace
        self._fileset = FileSet(sizes_mb)

    # ------------------------------------------------------------------
    @property
    def fileset(self) -> FileSet:
        return self._fileset

    @property
    def n_requests(self) -> int:
        return self._n_requests

    @property
    def t0(self) -> int:
        """Epoch second of the first kept record (trace time zero)."""
        return self._t0

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[TraceChunk]:
        require(chunk_size >= 1, f"chunk_size must be >= 1, got {chunk_size}")
        for arr in iter_wc98_chunks(self.path, records_per_chunk=chunk_size):
            kept = arr[self._keep_mask(arr)]
            if kept.size == 0:
                continue
            times = (kept["timestamp"].astype(np.int64)
                     - self._t0).astype(np.float64)
            dense = np.searchsorted(self._unique_ids,
                                    kept["object_id"].astype(np.int64))
            yield TraceChunk(times, dense.astype(np.int64))


# ----------------------------------------------------------------------
# specs: the picklable handles the experiment layer passes around
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SyntheticStreamSpec:
    """Streamed form of a synthetic workload config.

    Carries no realized arrays; ``open()`` builds the generator.  Its
    cache digest is defined to equal ``workload_key(config)`` so the
    streamed and materialized forms share one cache entry (they produce
    bit-identical traces).
    """

    config: SyntheticWorkloadConfig

    def open(self) -> SyntheticStream:
        return SyntheticStream(self.config)


@dataclass(frozen=True, slots=True)
class WC98StreamSpec:
    """Streamed form of a WC98 binary trace file."""

    path: str
    methods: tuple[int, ...] = (METHOD_GET,)
    min_size_bytes: int = 1

    def open(self) -> WC98Stream:
        return WC98Stream(self.path, methods=self.methods,
                          min_size_bytes=self.min_size_bytes)


StreamSpec = Union[SyntheticStreamSpec, WC98StreamSpec]
WorkloadLike = Union[SyntheticWorkloadConfig, SyntheticStreamSpec, WC98StreamSpec]


def open_stream(workload: Union[WorkloadLike, RequestStream]) -> RequestStream:
    """Coerce a config, spec, or already-open stream to a :class:`RequestStream`."""
    if isinstance(workload, SyntheticWorkloadConfig):
        return SyntheticStream(workload)
    if isinstance(workload, (SyntheticStreamSpec, WC98StreamSpec)):
        return workload.open()
    return workload


def materialize(workload: Union[WorkloadLike, RequestStream],
                chunk_size: int = DEFAULT_CHUNK_SIZE) -> tuple[FileSet, Trace]:
    """Drain a stream into a realized ``(FileSet, Trace)`` pair.

    The compatibility bridge for consumers that still need whole arrays
    (the workload cache's disk store, small runs, tests); by the stream
    contract the result is bit-identical to the batch generators.
    """
    stream = open_stream(workload)
    times: list[np.ndarray] = []
    ids: list[np.ndarray] = []
    for chunk in stream.chunks(chunk_size):
        times.append(chunk.times_s)
        ids.append(chunk.file_ids)
    times_all = (np.concatenate(times) if times
                 else np.empty(0, dtype=np.float64))
    ids_all = (np.concatenate(ids) if ids
               else np.empty(0, dtype=np.int64))
    return stream.fileset, Trace(times_all, ids_all)
