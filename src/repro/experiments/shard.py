"""Sharded array execution: split, stream, simulate, merge — bit-identically.

A 256-disk, ten-million-request cell is too big for one event loop to
turn around quickly, but the workload-skew policies this repo studies
are *disk-local*: once data is laid out, a drive's event sequence is
driven solely by the requests routed to it.  This module exploits that
by splitting an N-disk array into ``n_shards`` independent groups, each
simulated by its own event kernel over the *streamed* workload
(:mod:`repro.workload.stream` — no shard ever holds the full request
list), and then merging the per-shard partial results into one
:class:`~repro.experiments.metrics.SimulationResult`.

One stream pass per range
-------------------------
The fan-out unit is a contiguous range of one cell's shards
(:class:`ShardCellSpec`).  :func:`run_sharded_cells` gives each cell
one range of all its shards while the cells alone keep every worker
busy (``jobs <= len(cells)``, so always at ``jobs=1``), and one shard
per range otherwise, so the pool can balance uneven shards; journaled
sweeps also run one shard per range (resume granularity stays one
shard).  A worker opens the stream once for its range, splits every
chunk by owning shard (one ``shard_of_files`` lookup, then one mask
per shard) and pushes each slice into that shard's cell through the
runner's push-based feed, so the range's shards advance in lockstep
with one chunk resident at a time.  Generation is thus paid once per
range, not once per shard.

Determinism contract (DESIGN.md Sec. 12)
----------------------------------------
The merge reduces in a *fixed order* — shards by index, disks by global
id, power states by definition order — and closes every disk's open
ledgers (:mod:`repro.disk.ledger`) at the **global** end time in a
single accounting step.  Consequences, all enforced by the test suite:

* merged results are bit-identical across ``--jobs`` values (the shard
  fan-out order never enters the reduction);
* for shard-decomposable policies (the static family, whose round-robin
  size-ordered placement the ``"affinity"`` assignment reproduces
  shard-locally) a sharded run equals the ``n_shards=1`` run — and
  thereby the unsharded streamed run — bit-for-bit on every energy,
  thermal, PRESS, and counter field;
* response-time *sums* (hence the mean) reduce per-disk in global disk
  order, exactly associatively for the integer counters; the p95/p99
  come from a fixed log-spaced histogram (exact integer merge,
  quantized to ~0.9 % bin resolution — documented, deterministic).

One cell assembly
-----------------
A shard is built and drained by the same two pieces as an unsharded
cell (:mod:`repro.experiments.runner`: ``_build_cell`` and ``_Feed``),
so ``n_shards=1`` equals :func:`~repro.experiments.runner.run_simulation`
on every physical field for every policy.  Three things differ, all
passed in as data: the arrival source (the shard's slice of each
stream chunk), the completion sink (constant-memory per-disk sums plus
a fixed histogram, :class:`_ShardMetrics`), and the close step (open
ledgers captured for the merge instead of ``DiskArray.finalize``).

Policies with cross-disk coupling (MAID's cache zone, READ/PDC
migration) still *run* sharded — each shard gets its own policy
instance over its disk group — but that changes semantics (a per-shard
cache zone is not a per-array cache zone), so sharding them is a
modeling choice, not a transparent optimization.  Fault injection,
redundancy groups and kernel profiling are refused under sharding
(:func:`_require_shardable`): the fault schedule and the group
geometry are array-global, and a profile times one event loop.

Telemetry under sharding (DESIGN.md Sec. 13)
--------------------------------------------
A sharded cell with an :class:`~repro.obs.ObsConfig` runs one full
telemetry stack *per shard*: a :class:`~repro.obs.TraceBus` whose
``id_maps`` remap local disk/file ids to global ones at emission (and
whose ``tags`` stamp the shard index), streaming into an atomic
per-shard JSONL segment (:func:`~repro.obs.shard_segment_path`); a
:class:`~repro.obs.DiskSampler` writing rows and registry gauges under
global disk ids.  The merge then federates: a deterministic k-way trace
merge ordered by ``(time, shard, seq)`` with one synthesized global
``engine.start``/``engine.stop`` pair
(:func:`~repro.obs.merge_trace_files`), a typed registry merge
(:func:`~repro.obs.federate_registries`), and a sampler-tick *replay* —
each shard's open ledgers are advanced through the global tick instants
it drained before (:meth:`~repro.disk.ledger.OpenDiskLedger.advance`)
so the merged time-series and federated registry equal the unsharded
*sampled* run bit-for-bit for shard-decomposable policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Mapping,
    Optional,
    Sequence,
    Union,
    cast,
)

import numpy as np

from repro.disk.drive import Job, QueueDiscipline
from repro.disk.ledger import ClosedDiskLedger, OpenDiskLedger
from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams
from repro.experiments.metrics import SimulationResult
from repro.experiments.parallel import RunSpec, run_cells
from repro.experiments.runner import (
    _build_cell,
    _default_press,
    _Feed,
    make_policy,
)
from repro.faults import FaultConfig
from repro.obs import (
    ObsConfig,
    TimeSeries,
    federate_registries,
    merge_trace_files,
    shard_segment_path,
    write_timeseries,
)
from repro.obs import events as obs_events
from repro.press.model import DiskFactors, PRESSModel
from repro.redundancy.scheme import GroupScheme
from repro.util.units import SECONDS_PER_DAY
from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.stream import DEFAULT_CHUNK_SIZE, WorkloadLike, open_stream

if TYPE_CHECKING:
    from repro.experiments.resilience import (
        ResilienceConfig,
        ResilienceSummary,
        SweepCheckpoint,
    )
    from repro.obs import TraceBus

__all__ = [
    "ShardPlan",
    "ShardCellSpec",
    "ShardCellResult",
    "ShardRangeResult",
    "run_shard_cell",
    "merge_shard_results",
    "run_sharded",
    "run_sharded_cells",
    "N_RESPONSE_BINS",
    "response_bin",
    "response_bin_upper_s",
    "histogram_percentile_s",
]


# ----------------------------------------------------------------------
# response-time histogram (fixed bins => exactly associative merges)
# ----------------------------------------------------------------------
#: Log-spaced response-time bins covering 1 microsecond .. 100 seconds.
#: 256 bins/decade over 8 decades: adjacent bin edges differ by ~0.9 %,
#: which bounds the quantization of streamed percentiles.
N_RESPONSE_BINS = 2048
_LOG10_LO = -6.0
_LOG10_HI = 2.0
_BINS_PER_DECADE = N_RESPONSE_BINS / (_LOG10_HI - _LOG10_LO)


def response_bin(response_s: float) -> int:
    """Histogram bin of one response time (under/overflow clamp to the ends)."""
    if response_s <= 1e-6:
        return 0
    if response_s >= 1e2:
        return N_RESPONSE_BINS - 1
    idx = int((math.log10(response_s) - _LOG10_LO) * _BINS_PER_DECADE)
    # float round-off at an exact edge can land one past the end
    return min(idx, N_RESPONSE_BINS - 1)


def response_bin_upper_s(index: int) -> float:
    """Upper edge of one histogram bin, seconds."""
    return 10.0 ** (_LOG10_LO + (index + 1) / _BINS_PER_DECADE)


def histogram_percentile_s(counts: np.ndarray, q: float) -> float:
    """Percentile from a response histogram: upper edge of the covering bin.

    Deterministic and merge-order independent (the histogram is integer
    data); quantized to the bin resolution rather than interpolated.
    """
    require(0.0 <= q <= 100.0, f"q must be in [0, 100], got {q}")
    total = int(counts.sum())
    require(total > 0, "empty response histogram")
    target = math.ceil(q / 100.0 * total)
    target = max(target, 1)
    cum = np.cumsum(counts)
    index = int(np.searchsorted(cum, target))
    return response_bin_upper_s(index)


# ----------------------------------------------------------------------
# the plan: who owns which disks and which files
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Partition of an N-disk array into independent contiguous groups.

    Shard ``s`` owns global disks ``[s*D, (s+1)*D)`` with
    ``D = n_disks // n_shards``.  File assignment decides which shard
    *serves* each file:

    ``"affinity"``
        Files in size-rank order are dealt round-robin across the
        *global* disks, and each file follows its disk's shard.  This
        reproduces the static policies' ``placement[order] = rank %
        n_disks`` layout shard-locally: the k-th file (by size) of a
        shard lands on local disk ``k % D`` — the same physical disk the
        unsharded layout picks — which is what makes sharded static runs
        bit-identical to unsharded ones.

    ``"round-robin"``
        File id modulo ``n_shards``; ignores sizes.  A plain spreading
        rule for policies whose placement is not size-ranked (no
        unsharded-equality guarantee).
    """

    n_disks: int
    n_shards: int
    assignment: str = "affinity"

    def __post_init__(self) -> None:
        require(self.n_disks >= 1, f"n_disks must be >= 1, got {self.n_disks}")
        require(self.n_shards >= 1, f"n_shards must be >= 1, got {self.n_shards}")
        require(self.n_disks % self.n_shards == 0,
                f"n_shards ({self.n_shards}) must divide n_disks "
                f"({self.n_disks}) so every shard gets equal disks")
        require(self.assignment in ("affinity", "round-robin"),
                f"assignment must be 'affinity' or 'round-robin', "
                f"got {self.assignment!r}")

    @property
    def disks_per_shard(self) -> int:
        """Disks owned by each shard."""
        return self.n_disks // self.n_shards

    def disk_offset(self, shard_index: int) -> int:
        """First global disk id of one shard's contiguous group."""
        require(0 <= shard_index < self.n_shards,
                f"shard_index out of range: {shard_index}")
        return shard_index * self.disks_per_shard

    def shard_of_files(self, fileset: FileSet) -> np.ndarray:
        """Owning shard per file id (int64, aligned with the fileset)."""
        n_files = len(fileset)
        if self.assignment == "round-robin":
            return np.arange(n_files, dtype=np.int64) % self.n_shards
        # affinity: k-th file by size -> global disk k % n_disks -> its shard
        order = fileset.ids_sorted_by_size()
        shard_of = np.empty(n_files, dtype=np.int64)
        shard_of[order] = (np.arange(n_files, dtype=np.int64)
                           % self.n_disks) // self.disks_per_shard
        return shard_of


@dataclass(frozen=True, slots=True)
class ShardCellSpec:
    """The shard-specific half of a fan-out :class:`RunSpec`.

    Names a contiguous range of one cell's shards, ``index`` to
    ``index + count - 1``; one worker serves the whole range from a
    single pass over the stream (:func:`run_shard_cell`).
    """

    plan: ShardPlan
    #: First shard of the range.
    index: int
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Shards in the range.
    count: int = 1

    def __post_init__(self) -> None:
        require(self.count >= 1, f"count must be >= 1, got {self.count}")
        require(0 <= self.index and self.index + self.count <= self.plan.n_shards,
                f"shard range out of bounds: {self.index}..."
                f"{self.index + self.count - 1} of {self.plan.n_shards}")
        require(self.chunk_size >= 1,
                f"chunk_size must be >= 1, got {self.chunk_size}")

    @property
    def indices(self) -> range:
        """The shard indices of the range."""
        return range(self.index, self.index + self.count)


# ----------------------------------------------------------------------
# per-shard partial result
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardCellResult:
    """One shard's open partial result (picklable, checkpointable).

    Ledgers are *open* — accounted to each disk's last event, not to the
    shard's end — because the merge must perform the single final
    accounting step at the global end time (see :mod:`repro.disk.ledger`).
    Response sums are per *local* disk (completion order within a disk
    is shard-invariant); the histogram is shard-wide integer data.
    """

    shard_index: int
    plan: ShardPlan
    policy_name: str
    duration_s: float
    n_requests: int
    #: Per local disk, in local (== global, contiguous groups) order.
    ledgers: tuple[OpenDiskLedger, ...]
    response_sum_s: tuple[float, ...]
    wait_sum_s: tuple[float, ...]
    response_count: tuple[int, ...]
    #: Fixed-bin response histogram counts (length N_RESPONSE_BINS).
    response_hist: tuple[int, ...]
    events_executed: int
    #: Wall-clock seconds of this shard's event-loop drain.
    wall_clock_s: float = field(compare=False, default=0.0)
    policy_detail: dict[str, object] = field(default_factory=dict)
    #: Per-shard JSONL trace segment (``None`` when tracing was off).
    #: Events inside carry global disk/file ids and a ``shard`` tag.
    trace_segment: Optional[str] = None
    #: Data events written to the segment — the merge's expected count.
    trace_events: int = 0
    #: Sampler rows captured at the shard's local ticks, already under
    #: global disk ids (``()`` when sampling was off).  The merge
    #: synthesizes the rows for ticks past this shard's local end.
    sample_rows: tuple[tuple, ...] = ()
    #: The sampler cadence this shard ran with (``None`` = sampling off;
    #: the merge requires it to agree across shards).
    sample_interval_s: Optional[float] = None
    #: Registry snapshot at shard end (``None`` when sampling was off).
    metrics: Optional[dict[str, dict[str, object]]] = None
    #: ``(speed, phase, queue_depth)`` per local disk, frozen at the
    #: shard's end.  For shard-decomposable policies nothing moves a
    #: disk after its shard drains, so these are the values every
    #: synthesized post-end sample row reports.
    final_disk_state: tuple[tuple[str, str, int], ...] = ()


@dataclass(frozen=True, slots=True)
class ShardRangeResult:
    """The partial results of a range of two or more shards, by index.

    Carries the two figures the sweep harness logs for any cell.
    """

    shards: tuple[ShardCellResult, ...]

    @property
    def wall_clock_s(self) -> float:
        return sum(r.wall_clock_s for r in self.shards)

    @property
    def events_executed(self) -> int:
        return sum(r.events_executed for r in self.shards)


class _ShardMetrics:
    """Constant-memory response metrics for one shard's streamed dispatch.

    Replaces :class:`~repro.experiments.metrics.RequestMetrics` (which
    preallocates O(n) arrays) with per-disk float sums plus a fixed
    integer histogram, and owns the stream-aware stop condition: the
    run ends when dispatch has exhausted the stream *and* every
    dispatched request has completed.
    """

    def __init__(self, n_disks_local: int,
                 on_all_done: Callable[[], None]) -> None:
        self._resp_sum = [0.0] * n_disks_local
        self._wait_sum = [0.0] * n_disks_local
        self._count = [0] * n_disks_local
        self._hist = np.zeros(N_RESPONSE_BINS, dtype=np.int64)
        self.completed = 0
        self.dispatched = 0
        self.dispatch_done = False
        #: Called once the run is done (``None``: nothing to call).
        self.on_all_done: Optional[Callable[[], None]] = on_all_done

    def on_complete(self, job: Job) -> None:
        req = job.request
        if req is None:
            return
        disk = req.served_by
        response = req.completion_time - req.arrival_time
        self._resp_sum[disk] += response
        self._wait_sum[disk] += req.service_start - req.arrival_time
        self._count[disk] += 1
        self._hist[response_bin(response)] += 1
        self.completed += 1
        if (self.dispatch_done and self.completed >= self.dispatched
                and self.on_all_done is not None):
            self.on_all_done()

    def record_replayed(self, disk: int, indices: np.ndarray,
                        arrivals: Sequence[float], starts: Sequence[float],
                        completions: Sequence[float]) -> None:
        """Take one disk's jobs from the runner's exact replay.

        The sums run in the disk's service order, which is the order
        :meth:`on_complete` sees them in on the event path; the
        histogram is integer counts, so its order is free.
        """
        resp_sum, wait_sum = self._resp_sum[disk], self._wait_sum[disk]
        bins: list[int] = []
        add_bin = bins.append
        log10, top = math.log10, N_RESPONSE_BINS - 1
        for a, s, c in zip(arrivals, starts, completions):
            response = c - a
            resp_sum += response
            wait_sum += s - a
            # response_bin, inlined: this loop runs once per request
            if response <= 1e-6:
                add_bin(0)
            elif response >= 1e2:
                add_bin(top)
            else:
                index = int((log10(response) - _LOG10_LO) * _BINS_PER_DECADE)
                add_bin(index if index < top else top)
        self._resp_sum[disk], self._wait_sum[disk] = resp_sum, wait_sum
        self._count[disk] += len(bins)
        self._hist += np.bincount(bins, minlength=N_RESPONSE_BINS)
        self.completed += len(bins)

    def close_replay(self) -> None:
        """Every disk's replay is in (nothing is held back)."""

    def on_exhausted(self, dispatched: int) -> None:
        """The stream ran out after ``dispatched`` arrivals."""
        self.dispatched = dispatched
        self.dispatch_done = True

    @property
    def all_done(self) -> bool:
        return self.dispatch_done and self.completed >= self.dispatched

    def snapshot(self) -> tuple[tuple[float, ...], tuple[float, ...],
                                tuple[int, ...], tuple[int, ...]]:
        return (tuple(self._resp_sum), tuple(self._wait_sum),
                tuple(self._count), tuple(int(c) for c in self._hist.tolist()))


# ----------------------------------------------------------------------
# the shard worker
# ----------------------------------------------------------------------
def _require_shardable(faults: Optional[FaultConfig],
                       redundancy: Optional[GroupScheme],
                       obs: Optional[ObsConfig]) -> None:
    """Refuse the cell features a shard cannot reproduce on its own."""
    require(faults is None,
            "fault injection is not supported under sharding "
            "(the failure schedule is array-global: hazard budgets, "
            "degraded-mode redirects, and rebuild traffic couple disks "
            "across shard boundaries, so no shard can reproduce its "
            "slice independently; run the cell unsharded — drop "
            "--shards — to combine --faults with this workload)")
    require(redundancy is None,
            "redundancy groups are not supported under sharding "
            "(group geometry spans shard boundaries: reconstruct reads "
            "and rebuild fan-out touch disks in other shards; run the "
            "cell unsharded — drop --shards — to combine --redundancy "
            "with this workload)")
    require(obs is None or not obs.profile,
            "kernel profiling is not supported under sharding "
            "(profiles are per-kernel wall timings; profile the "
            "unsharded run instead)")


def run_shard_cell(spec: RunSpec) -> "ShardCellResult | ShardRangeResult":
    """Simulate one range of shards of one cell over one stream pass.

    Each shard is built with the same cell assembly as
    :func:`repro.experiments.runner.run_simulation` (``_build_cell``)
    and served by the same push-based feed (``_Feed``).  The stream is
    opened and generated once for the whole range: every chunk is split
    by owning shard (one lookup, then one mask per shard) and each
    slice is fed to its shard, so the range's shards advance in
    lockstep with one chunk resident at a time.  Three things differ from an unsharded
    cell: (a) arrivals are that slice of each chunk under shard-local
    file ids, (b) the completion sink is constant-memory (per-disk sums
    + a fixed histogram), and (c) the close step captures the drives'
    ledgers *open* instead of finalizing them, so the merge can close
    them at the global end time.

    A one-shard range returns its :class:`ShardCellResult`; a longer
    one returns a :class:`ShardRangeResult`.  Trace segments are
    published only once every shard of the range has been served and
    captured: if any shard fails before that, every segment of the
    range is set aside as ``<segment>.partial`` and none is published.
    """
    shard = spec.shard
    require(shard is not None, "run_shard_cell needs a spec with shard set")
    assert shard is not None  # for the type checker
    _require_shardable(spec.faults, spec.redundancy, spec.obs)
    plan = shard.plan
    require(spec.n_disks == plan.n_disks,
            f"spec.n_disks ({spec.n_disks}) != plan.n_disks ({plan.n_disks})")

    stream = open_stream(spec.workload)
    fileset = stream.fileset
    shard_of = plan.shard_of_files(fileset)
    # a file's local id is its position among its shard's files in
    # global id order.  Local ids preserving global id order make a
    # shard-local stable size sort equal the global sort restricted to
    # the shard — the keystone of the affinity assignment's
    # unsharded-equality proof.
    local_id = np.full(len(fileset), -1, dtype=np.int64)
    runs: list[_ShardRun] = []
    try:
        for s in shard.indices:
            my_files = np.flatnonzero(shard_of == s)
            local_id[my_files] = np.arange(my_files.size, dtype=np.int64)
            runs.append(_open_shard(spec, s, fileset, my_files))
        for chunk in stream.chunks(shard.chunk_size):
            owner = shard_of[chunk.file_ids]
            for run in runs:
                keep = owner == run.index
                run.feed.feed(chunk.times_s[keep],
                              local_id[chunk.file_ids[keep]])
        # a shard no request ever targets drains nothing: its disks
        # idle from t=0 to the global end, and the merge's ledger close
        # accounts all of it
        for run in runs:
            run.feed.finish()
        results = tuple(run.capture() for run in runs)
        # publish only once every shard of the range is captured
        for run in runs:
            run.publish()
    except BaseException:
        # no segment of a range that failed before publishing is kept
        for run in runs:
            run.feed.abort()
        raise
    return results[0] if len(results) == 1 else ShardRangeResult(results)


@dataclass(slots=True)
class _ShardRun:
    """One shard of a range: its cell, its feed and its trace segment."""

    index: int
    plan: ShardPlan
    feed: _Feed
    segment: Optional[str]

    def capture(self) -> ShardCellResult:
        """Stop the cell and capture its open partial result.

        The trace segment stays unpublished (:meth:`publish`).
        """
        cell = self.feed.cell
        duration = cell.sim.now
        # deliberately NO final sample_now(): the merge replays the global
        # ticks this shard drained before and closes the series at the
        # *global* end time
        cell.close(publish=False)
        # capture the ledgers OPEN (no array.finalize()): the final
        # accounting step belongs to the merge, at the global end time
        drives = cell.array.drives
        sampler, registry, writer = cell.sampler, cell.registry, cell.writer
        metrics = cast(_ShardMetrics, cell.sink)
        resp_sum, wait_sum, counts, hist = metrics.snapshot()
        return ShardCellResult(
            shard_index=self.index,
            plan=self.plan,
            policy_name=cell.policy.name,
            duration_s=duration,
            n_requests=metrics.completed,
            ledgers=tuple(drive.open_ledger() for drive in drives),
            response_sum_s=resp_sum,
            wait_sum_s=wait_sum,
            response_count=counts,
            response_hist=hist,
            events_executed=cell.sim.events_executed,
            wall_clock_s=self.feed.wall_clock_s,
            policy_detail=cell.policy.describe(),
            trace_segment=self.segment,
            trace_events=writer.events_written if writer is not None else 0,
            sample_rows=sampler.series().rows if sampler is not None else (),
            sample_interval_s=sampler.interval_s if sampler is not None else None,
            metrics=registry.as_dict() if registry is not None else None,
            final_disk_state=() if sampler is None else tuple(
                (drive.speed.name.lower(), drive.phase.value, drive.queue_length)
                for drive in drives),
        )

    def publish(self) -> None:
        """Publish the captured shard's trace segment."""
        if self.feed.cell.writer is not None:
            self.feed.cell.writer.close()


def _open_shard(spec: RunSpec, index: int, fileset: FileSet,
                my_files: np.ndarray) -> _ShardRun:
    """Build shard ``index``'s cell over the files it owns, ready to feed."""
    assert spec.shard is not None  # for the type checker
    plan = spec.shard.plan
    # A file-less shard can't even build its array (and policies act on
    # drives their fileset implies), so degenerate splits are rejected
    # rather than approximated.  Affinity assignment guarantees every
    # shard owns files whenever n_files >= n_disks.
    require(my_files.size > 0,
            f"shard {index} owns no files "
            f"({len(fileset)} files across {plan.n_shards} shards); "
            f"use fewer shards or more files")
    obs = spec.obs
    offset = plan.disk_offset(index)
    # The bus remaps local ids to global at emission — disk-carrying
    # fields shift by the shard's disk offset, file ids go through the
    # shard's local->global file table — and tags every event with the
    # shard index, so the segment needs no rewrite pass.
    segment: Optional[str] = None
    id_maps: Optional[dict[str, Callable[[int], int]]] = None
    if obs is not None and obs.trace_path is not None:
        segment = str(shard_segment_path(obs.trace_path, index))
        my_files_py = my_files.tolist()
        shift: Callable[[int], int] = lambda v, _o=offset: v + _o  # noqa: E731
        id_maps = {"disk": shift, "src": shift, "dst": shift,
                   "file": lambda v, _f=my_files_py: _f[v]}
    cell = _build_cell(
        make_policy(spec.policy, **dict(spec.policy_kwargs)),
        FileSet(fileset.sizes_mb[my_files]),
        n_disks=plan.disks_per_shard, disk_params=spec.disk_params,
        initial_speed=spec.initial_speed,
        queue_discipline=spec.queue_discipline, obs=obs,
        trace_path=segment, tags={"shard": index}, id_maps=id_maps,
        disk_offset=offset,
        make_sink=lambda stop: _ShardMetrics(plan.disks_per_shard,
                                             on_all_done=stop))
    return _ShardRun(index=index, plan=plan,
                     feed=_Feed(cell, cell.sink.on_exhausted), segment=segment)


# ----------------------------------------------------------------------
# the merge: fixed reduction order => bit-identical across --jobs
# ----------------------------------------------------------------------
def _sampler_ticks(interval_s: float, end_s: float) -> list[float]:
    """Global sampler tick instants strictly before ``end_s``.

    Reproduces :class:`~repro.sim.timers.PeriodicTask`'s cumulative
    schedule arithmetic (each tick schedules the next at ``now +
    period``) rather than ``k * period`` — the two differ in float
    round-off, and the replayed accounting edges must land on exactly
    the instants the unsharded sampler fired at.  A tick at exactly
    ``end_s`` never fires: the final completion (priority 0) stops the
    kernel before that instant's priority-90 sample dispatches.
    """
    ticks: list[float] = []
    t = 0.0
    while True:
        t = t + interval_s
        if t >= end_s:
            return ticks
        ticks.append(t)


def merge_shard_results(results: Sequence[ShardCellResult],
                        *, press: PRESSModel | None = None,
                        obs: Optional[ObsConfig] = None) -> SimulationResult:
    """Reduce per-shard partial results into one :class:`SimulationResult`.

    Reduction order is fixed — shards by index, disks by global id,
    power states by definition order — and every floating-point
    reduction mirrors the unsharded runner's expression shape, so the
    merged result is independent of how (and how parallel) the shards
    were executed, and equals the ``n_shards=1`` reduction of the same
    stream exactly.

    Telemetry federates here too (``obs`` names the merged artifact
    paths): per-shard trace segments k-way merge into ``obs.trace_path``
    with one synthesized global ``engine.start``/``engine.stop`` pair;
    when sampling was on, the shards' open ledgers are *replayed*
    through the global tick instants each shard drained before
    (:meth:`~repro.disk.ledger.OpenDiskLedger.advance`), synthesizing
    the sample rows the unsharded sampler would have written, and the
    registry snapshots federate typed (counters sum, gauges
    last-at-max-time, histograms bin-exact) with the sampler-owned
    entries rebuilt from the global final sample.  For
    shard-decomposable policies the merged time-series and registry
    equal the unsharded *sampled* run bit-for-bit.
    """
    require(len(results) >= 1, "need at least one shard result")
    plan = results[0].plan
    ordered = sorted(results, key=lambda r: r.shard_index)
    require(tuple(r.shard_index for r in ordered) == tuple(range(plan.n_shards)),
            f"need exactly one result per shard 0..{plan.n_shards - 1}, got "
            f"{sorted(r.shard_index for r in results)}")
    for r in ordered:
        require(r.plan == plan, "shard results were produced under different plans")
    model = press if press is not None else _default_press()

    completed = sum(r.n_requests for r in ordered)
    require(completed >= 1, "merged run served no requests (empty stream?)")

    # the global horizon: the completion time of the last request in any
    # shard — exactly sim.now of the equivalent unsharded run
    duration = max(r.duration_s for r in ordered)
    require(duration > 0.0, "merged duration must be positive")

    interval = ordered[0].sample_interval_s
    for r in ordered:
        require(r.sample_interval_s == interval,
                "shard results carry mixed sampler cadences")

    # close every disk's open ledgers at the global end, global disk order
    closed: list[ClosedDiskLedger] = []
    merged_series: Optional[TimeSeries] = None
    federated: Optional[dict[str, dict[str, object]]] = None
    if interval is None:
        for r in ordered:
            for ledger in r.ledgers:
                closed.append(ledger.close(duration))
    else:
        # Sampling splits the ledger accounting at every tick (the
        # sampler's documented last-ulp semantics), so to equal the
        # unsharded *sampled* run the merge replays the global ticks
        # each shard drained before: advance the open ledgers edge by
        # edge through the missed instants — synthesizing the rows the
        # unsharded sampler would have written, with speed/phase/queue
        # frozen at the shard's end (nothing moves a disk after its
        # shard drains under a shard-decomposable policy) — then close
        # at the global end for the final end-of-run sample row.
        ticks = _sampler_ticks(interval, duration)
        rows: list[tuple] = []
        final_gauges: list[tuple[int, float, float, int, float]] = []
        for r in ordered:
            rows.extend(r.sample_rows)
            base = plan.disk_offset(r.shard_index)
            require(len(r.final_disk_state) == len(r.ledgers),
                    f"shard {r.shard_index} result lacks its final disk state")
            for local, ledger in enumerate(r.ledgers):
                g = base + local
                speed, phase, queue = r.final_disk_state[local]
                for t in ticks:
                    if t < r.duration_s:
                        continue  # the shard itself sampled this tick
                    ledger = ledger.advance(t)
                    rows.append((t, g,
                                 min(ledger.active_time_s / t, 1.0) * 100.0,
                                 ledger.temp_c, speed, phase, queue,
                                 ledger.total_energy_j))
                c = ledger.close(duration)
                util = min(c.active_time_s / duration, 1.0) * 100.0
                # the unsharded runner's end-of-run sample_now() row
                rows.append((duration, g, util, c.temperature_c, speed,
                             phase, queue, c.total_energy_j))
                final_gauges.append((g, util, c.temperature_c, queue,
                                     c.total_energy_j))
                closed.append(c)
        rows.sort(key=lambda row: (row[0], row[1]))
        merged_series = TimeSeries(interval_s=interval, rows=tuple(rows))

        snapshots = [r.metrics if r.metrics is not None else {}
                     for r in ordered]
        federated = federate_registries(
            snapshots, at=[r.duration_s for r in ordered])
        # Sampler-owned entries must reflect the *global* final sample,
        # not any shard's local last tick: rebuild them exactly as the
        # unsharded sample_now() would have written them.
        for g, util, temp, queue, energy in sorted(final_gauges):
            federated[f"disk{g}.utilization_pct"] = {"type": "gauge",
                                                     "value": util}
            federated[f"disk{g}.temperature_c"] = {"type": "gauge",
                                                   "value": temp}
            federated[f"disk{g}.queue_depth"] = {"type": "gauge",
                                                 "value": float(queue)}
            federated[f"disk{g}.energy_j"] = {"type": "gauge",
                                              "value": energy}
        federated["array.energy_j"] = {
            "type": "gauge",
            "value": float(sum(c.total_energy_j for c in closed))}
        federated["sampler.ticks"] = {"type": "counter",
                                      "value": float(len(ticks) + 1)}
        federated = {name: federated[name] for name in sorted(federated)}

    if obs is not None and obs.metrics_path is not None:
        require(merged_series is not None,
                "obs.metrics_path set but shard results carry no samples")
        assert merged_series is not None
        write_timeseries(merged_series, obs.metrics_path)
    if obs is not None and obs.trace_path is not None:
        segments: list[str] = []
        for r in ordered:
            require(r.trace_segment is not None,
                    f"obs.trace_path set but shard {r.shard_index} "
                    f"carries no trace segment")
            segments.append(cast(str, r.trace_segment))
        data_events = sum(r.trace_events for r in ordered)
        lead = [(obs_events.ENGINE_START, 0.0,
                 {"policy": ordered[0].policy_name, "n_disks": plan.n_disks,
                  "n_requests": completed})]
        tail = [(obs_events.ENGINE_STOP, duration,
                 {"duration_s": duration, "events": data_events})]
        merged_count = merge_trace_files(segments, obs.trace_path,
                                         lead=lead, tail=tail)
        require(merged_count == data_events,
                f"trace merge saw {merged_count} data events but the "
                f"shards reported writing {data_events}")

    # ---- PRESS: same factor arithmetic as PRESSModel.factors_of
    temps = [c.mean_temperature_c() for c in closed]
    utils = [100.0 * min(c.active_time_s / duration, 1.0) for c in closed]
    freqs = [c.transitions_total * SECONDS_PER_DAY / duration for c in closed]
    afrs = model.disk_afr_batch(temps, utils, freqs)
    factors = tuple(
        DiskFactors(disk_id=i, mean_temperature_c=t, utilization_percent=u,
                    transitions_per_day=f, afr_percent=a)
        for i, (t, u, f, a) in enumerate(zip(temps, utils, freqs, afrs.tolist()))
    )
    array_afr = model.integrator.array_afr(f.afr_percent for f in factors)

    # ---- energy: per-disk state sums first (as EnergyMeter does), then
    # across disks in global order (as DiskArray.total_energy_j does)
    total_energy = sum(c.total_energy_j for c in closed)
    breakdown: dict[str, float] = {}
    for c in closed:
        for state, joules in c.breakdown().items():
            breakdown[state] = breakdown.get(state, 0.0) + joules

    # ---- response: per-disk sums in global disk order; exact-integer
    # histogram merge for the percentiles
    resp_total = 0.0
    for r in ordered:
        for disk_sum in r.response_sum_s:
            resp_total += disk_sum
    hist = np.zeros(N_RESPONSE_BINS, dtype=np.int64)
    for r in ordered:
        hist += np.asarray(r.response_hist, dtype=np.int64)
    mean_response = resp_total / completed
    p95 = histogram_percentile_s(hist, 95.0)
    p99 = histogram_percentile_s(hist, 99.0)

    detail: dict[str, object] = dict(ordered[0].policy_detail)
    detail["sharding"] = {
        "n_shards": plan.n_shards,
        "assignment": plan.assignment,
        "disks_per_shard": plan.disks_per_shard,
        "shard_durations_s": [r.duration_s for r in ordered],
        "shard_requests": [r.n_requests for r in ordered],
        "percentiles": "histogram",
    }

    return SimulationResult(
        policy_name=ordered[0].policy_name,
        n_disks=plan.n_disks,
        n_requests=completed,
        duration_s=duration,
        mean_response_s=mean_response,
        p95_response_s=p95,
        p99_response_s=p99,
        total_energy_j=total_energy,
        array_afr_percent=array_afr,
        per_disk=factors,
        total_transitions=sum(c.transitions_total for c in closed),
        internal_jobs=sum(c.internal_jobs_served for c in closed),
        energy_breakdown_j=breakdown,
        policy_detail=detail,
        faults=None,
        events_executed=sum(r.events_executed for r in ordered),
        wall_clock_s=sum(r.wall_clock_s for r in ordered),
        timeseries=merged_series,
        metrics=federated,
    )


# ----------------------------------------------------------------------
# the fan-out: one batch of shard ranges, one merge per cell
# ----------------------------------------------------------------------
def run_sharded_cells(cells: Sequence[RunSpec], *, n_shards: int,
                      assignment: str = "affinity",
                      chunk_size: int = DEFAULT_CHUNK_SIZE,
                      jobs: int = 1,
                      resilience: "Optional[ResilienceConfig]" = None,
                      checkpoint: "Union[SweepCheckpoint, str, None]" = None,
                      bus: "Optional[TraceBus]" = None,
                      ) -> tuple[list[SimulationResult],
                                 "Optional[ResilienceSummary]"]:
    """Run every cell sharded, returning one merged result per cell.

    Each cell (an ordinary :class:`RunSpec`) is served from a single
    stream pass, as one range of all its shards
    (:func:`run_shard_cell`), when there are no more workers than
    cells.  With more workers than cells, or with ``resilience`` or
    ``checkpoint``, every shard is its own range instead: the pool then
    balances the shards as they finish (contiguous ranges would inherit
    the affinity assignment's load gradient), and resume granularity is
    one shard.  ALL ranges of ALL cells go through one
    :func:`~repro.experiments.parallel.run_cells` batch (or one
    :func:`~repro.experiments.resilience.run_cells_resilient` batch),
    so ``jobs`` workers, retries/timeouts, one checkpoint file and one
    harness fault ledger cover them all.  The partials are then merged
    per cell in fixed reduction order, each merge emitting a
    ``harness.shard.merge`` span on the harness ``bus``.  The summary is
    ``None`` when neither ``resilience`` nor ``checkpoint`` was given.
    """
    require(jobs >= 1, f"jobs must be >= 1, got {jobs}")
    for cell in cells:
        _require_shardable(cell.faults, cell.redundancy, cell.obs)
    journaled = resilience is not None or checkpoint is not None
    # a whole cell per range while the cells keep every worker busy;
    # past that, single shards, which the pool balances as they finish
    whole = not journaled and jobs <= len(cells)
    specs = []
    for cell in cells:
        plan = ShardPlan(n_disks=cell.n_disks, n_shards=n_shards,
                         assignment=assignment)
        if whole:
            specs.append(replace(cell, shard=ShardCellSpec(
                plan, 0, chunk_size, n_shards)))
        else:
            specs += [replace(cell, shard=ShardCellSpec(plan, s, chunk_size))
                      for s in range(n_shards)]
    summary: "Optional[ResilienceSummary]" = None
    if journaled:
        from repro.experiments.resilience import run_cells_resilient

        raw, summary = run_cells_resilient(specs, jobs=jobs, config=resilience,
                                           checkpoint=checkpoint, bus=bus)
    else:
        raw = run_cells(specs, jobs=jobs)
    # one-shard ranges come back bare, longer ones as a ShardRangeResult
    outputs = cast("list[ShardCellResult | ShardRangeResult]", raw)
    partials = [part for result in outputs
                for part in (result.shards
                             if isinstance(result, ShardRangeResult)
                             else (result,))]
    merged = []
    for k, cell in enumerate(cells):
        merge_start = perf_counter()
        result = merge_shard_results(
            partials[k * n_shards:(k + 1) * n_shards],
            press=cell.press, obs=cell.obs)
        if bus is not None:
            # outside simulated time, like every harness event: t=0.0
            bus.emit(obs_events.HARNESS_SHARD_MERGE, 0.0,
                     policy=result.policy_name, n_disks=cell.n_disks,
                     shards=n_shards, wall_s=perf_counter() - merge_start)
        merged.append(result)
    return merged, summary


def run_sharded(policy: str, workload: WorkloadLike, *,
                n_disks: int, n_shards: int,
                assignment: str = "affinity",
                chunk_size: int = DEFAULT_CHUNK_SIZE,
                policy_kwargs: Optional[Mapping[str, object]] = None,
                disk_params: Optional[TwoSpeedDiskParams] = None,
                press: Optional[PRESSModel] = None,
                initial_speed: Optional[DiskSpeed] = None,
                queue_discipline: Optional[QueueDiscipline] = None,
                jobs: int = 1,
                resilience: "Optional[ResilienceConfig]" = None,
                checkpoint: "Union[SweepCheckpoint, str, None]" = None,
                bus: "Optional[TraceBus]" = None,
                obs: Optional[ObsConfig] = None,
                ) -> tuple[SimulationResult, "Optional[ResilienceSummary]"]:
    """Run one (policy, workload) cell sharded, returning the merged result.

    The one-cell form of :func:`run_sharded_cells`: ``jobs`` workers,
    checkpointing, retries/timeouts via ``resilience`` all apply
    per-shard.  Returns ``(SimulationResult, ResilienceSummary |
    None)``; the summary is ``None`` when neither ``resilience`` nor
    ``checkpoint`` was given.

    ``obs`` rides into every shard sub-cell (per-shard trace segments,
    samplers, registries — see the module docstring) and names the
    merged artifact paths; ``bus`` is the *harness* bus, which receives
    a ``harness.shard.merge`` span when the partials are reduced.
    """
    cell = RunSpec(
        policy=policy, n_disks=n_disks, workload=workload,
        policy_kwargs=dict(policy_kwargs) if policy_kwargs else {},
        disk_params=disk_params, press=press,
        initial_speed=initial_speed if initial_speed is not None else DiskSpeed.HIGH,
        queue_discipline=(queue_discipline if queue_discipline is not None
                          else QueueDiscipline.FCFS),
        obs=obs)
    merged, summary = run_sharded_cells(
        [cell], n_shards=n_shards, assignment=assignment,
        chunk_size=chunk_size, jobs=jobs, resilience=resilience,
        checkpoint=checkpoint, bus=bus)
    return merged[0], summary
