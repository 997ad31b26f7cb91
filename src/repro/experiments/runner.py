"""The trace-driven simulation runner (the paper's Sec. 5.1 methodology).

One call to :func:`run_simulation` evaluates one (policy, array size)
cell: it builds a fresh kernel + array, lets the policy lay data out,
streams the trace's arrivals through the policy's router, runs until the
last user request completes, then freezes metrics, energy, and the PRESS
reliability assessment into a :class:`SimulationResult`.

The build (:func:`_build_cell`) and the drain (:class:`_Feed`) are the
one cell assembly: the shard worker
(:func:`repro.experiments.shard.run_shard_cell`) runs the same two
pieces and differs only in its arrival source, completion sink and
close step.

The drain is push-based: arrivals arrive in blocks (``feed(times,
ids)``), then ``finish()`` runs the cell to its last completion.  The
unsharded runner feeds its whole trace as one block; a shard worker
feeds each of its shards the slice of every stream chunk it owns, so
one stream pass serves many cells.  Within a block arrivals are
streamed (each arrival event schedules the next) rather than
pre-loaded, so multi-million-request traces don't balloon the event
heap; between blocks the kernel stops and resumes without disturbing
a single event's order.  Cells whose disks never change speed and
serve FCFS with nothing observing the events (:func:`_replay_refusal`)
skip the heap altogether: every disk is replayed by the exact FCFS
recurrence (:func:`_replay_server`), bit-identical to the event loop.
End-of-run semantics: the measured horizon is the completion time
of the last user request; the policy is then shut down (periodic tasks
and timers cancelled) and any still-queued *internal* work is abandoned
— its already-elapsed disk time is accounted, matching how the paper's
"process of serving the entire request set" frames energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from repro.core.extensions import (
    ReplicatingREADConfig,
    ReplicatingREADPolicy,
    RotatingREADConfig,
    RotatingREADPolicy,
)
from repro.core.read_strategy import READConfig, READPolicy
from repro.disk.array import DiskArray
from repro.disk.drive import QueueDiscipline
from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams, cheetah_two_speed
from repro.experiments.metrics import RequestMetrics, SimulationResult
from repro.faults import FaultConfig, FaultInjector
from repro.obs import (
    DiskSampler,
    JsonlTraceWriter,
    KernelProfiler,
    MetricsRegistry,
    ObsConfig,
    TraceBus,
    write_timeseries,
)
from repro.obs import events as obs_events
from repro.policies.base import Policy
from repro.policies.maid import MAIDConfig, MAIDPolicy
from repro.policies.drpm import DRPMConfig, DRPMPolicy
from repro.policies.hibernator import HibernatorConfig, HibernatorPolicy
from repro.policies.pdc import PDCConfig, PDCPolicy
from repro.policies.static import StaticHighPolicy, StaticLowPolicy
from repro.policies.striped import StripedPolicyConfig, StripedStaticPolicy
from repro.press.model import PRESSModel
from repro.redundancy.ctmc import CtmcResult, assess_scheme
from repro.redundancy.groups import RedundancyGroups
from repro.redundancy.metrics import RedundancySummary, RedundancyTracker
from repro.redundancy.scheme import GroupScheme
from repro.sim.engine import Simulator, event_time_error
from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.request import Request
from repro.workload.cache import cached_generate
from repro.workload.synthetic import SyntheticWorkloadConfig
from repro.workload.trace import Trace

__all__ = ["ExperimentConfig", "make_policy", "run_simulation"]


@lru_cache(maxsize=1)
def _default_disk_params() -> TwoSpeedDiskParams:
    """Shared default device model (immutable, so one instance is safe)."""
    return cheetah_two_speed()


@lru_cache(maxsize=1)
def _default_press() -> PRESSModel:
    """Shared default PRESS model (stateless between evaluations)."""
    return PRESSModel()

PolicyFactory = Callable[[], Policy]

_POLICY_REGISTRY: dict[str, PolicyFactory] = {
    "read": READPolicy,
    "read-rotate": RotatingREADPolicy,
    "read-replicate": ReplicatingREADPolicy,
    "maid": MAIDPolicy,
    "pdc": PDCPolicy,
    "drpm": DRPMPolicy,
    "hibernator": HibernatorPolicy,
    "static-high": StaticHighPolicy,
    "static-low": StaticLowPolicy,
    "striped-static": StripedStaticPolicy,
}


def make_policy(name: str, **config_kwargs) -> Policy:
    """Instantiate a policy by registry name.

    Keyword arguments are forwarded into the policy's config dataclass
    (``READConfig``/``MAIDConfig``/``PDCConfig``); the static baselines
    accept none.
    """
    require(name in _POLICY_REGISTRY,
            f"unknown policy {name!r}; known: {sorted(_POLICY_REGISTRY)}")
    if not config_kwargs:
        return _POLICY_REGISTRY[name]()
    if name == "read":
        return READPolicy(READConfig(**config_kwargs))
    if name == "read-rotate":
        return RotatingREADPolicy(RotatingREADConfig(**config_kwargs))
    if name == "read-replicate":
        return ReplicatingREADPolicy(ReplicatingREADConfig(**config_kwargs))
    if name == "maid":
        return MAIDPolicy(MAIDConfig(**config_kwargs))
    if name == "pdc":
        return PDCPolicy(PDCConfig(**config_kwargs))
    if name == "drpm":
        return DRPMPolicy(DRPMConfig(**config_kwargs))
    if name == "hibernator":
        return HibernatorPolicy(HibernatorConfig(**config_kwargs))
    if name == "striped-static":
        return StripedStaticPolicy(StripedPolicyConfig(**config_kwargs))
    raise ValueError(f"policy {name!r} takes no configuration")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """A reusable bundle: workload + device + model for a family of runs."""

    workload: SyntheticWorkloadConfig = field(default_factory=SyntheticWorkloadConfig)
    disk_params: TwoSpeedDiskParams = field(default_factory=cheetah_two_speed)

    def with_heavy_load(self, compression: float = 8.0) -> "ExperimentConfig":
        """The paper's heavy condition: same stream, time-compressed."""
        return replace(self, workload=self.workload.heavy(compression))

    def generate(self) -> tuple[FileSet, Trace]:
        """Materialize the (deterministic) workload.

        Served through the process-wide content-keyed cache, so repeated
        sweeps over the same config share one materialization.
        """
        return cached_generate(self.workload)


#: One block of arrivals for :class:`_Feed`: absolute arrival times
#: (float64) and file ids (int64).
_Chunk = tuple[np.ndarray, np.ndarray]


@dataclass(slots=True)
class _Cell:
    """One assembled cell: kernel, telemetry, array and the bound policy."""

    sim: Simulator
    array: DiskArray
    policy: Policy
    #: The completion sink: ``RequestMetrics`` (unsharded) or the shard's
    #: constant-memory sums.  It owns the stop condition (``all_done``,
    #: calling its ``on_all_done``, ``sim.request_stop``, from the last
    #: completion), and takes a replay's jobs in bulk
    #: (``record_replayed`` per disk, then ``close_replay``).
    sink: Any
    bus: TraceBus | None
    writer: JsonlTraceWriter | None
    sampler: DiskSampler | None
    registry: MetricsRegistry | None
    profiler: KernelProfiler | None
    injector: FaultInjector | None

    def close(self, publish: bool = True) -> None:
        """Stop sampling, publish the trace (after the caller's close
        step), and break the cell's reference cycles.

        ``publish=False`` leaves the trace writer open for the caller to
        publish or abort (a shard range publishes only once every shard
        is captured).

        The kernel runs no further, so its pending events, the policy's
        drive hooks and completion callback, and the sink's stop
        callback are dropped: the finished cell is then freed by
        reference counting, not left for a full GC pass.
        """
        if self.sampler is not None:
            self.sampler.shutdown()
        if self.writer is not None and publish:
            self.writer.close()
        self.sim.discard_pending()
        self.array.set_idle_handler(None)
        self.array.set_busy_handler(None)
        self.policy.completion_callback = None
        self.sink.on_all_done = None


def _build_cell(policy: Policy, fileset: FileSet, *, n_disks: int,
                disk_params: TwoSpeedDiskParams | None,
                initial_speed: DiskSpeed, queue_discipline: QueueDiscipline,
                obs: ObsConfig | None, trace_path: str | None,
                make_sink: Callable[[Callable[[], None]], Any],
                tags: Mapping[str, object] | None = None,
                id_maps: Mapping[str, Callable[[int], int]] | None = None,
                disk_offset: int = 0,
                faults: FaultConfig | None = None,
                press: PRESSModel | None = None,
                groups: RedundancyGroups | None = None) -> _Cell:
    """Build one cell and lay its data out, ready to feed (:class:`_Feed`).

    The one assembly behind :func:`run_simulation` and the shard worker
    (:func:`repro.experiments.shard.run_shard_cell`).  What differs
    between them arrives as data: the trace file (the whole trace, or
    one shard's segment) with the bus ``tags``/``id_maps`` that stamp
    shard events under global ids, the sampler's ``disk_offset``, and
    ``make_sink``, which receives ``sim.request_stop`` and returns the
    completion sink.
    """
    params = disk_params if disk_params is not None else _default_disk_params()
    sim = Simulator()
    # Telemetry attaches before anything observes sim.trace: drives cache
    # the bus at construction, policies at bind, the injector at init.
    bus: TraceBus | None = None
    writer: JsonlTraceWriter | None = None
    if trace_path is not None:
        bus = TraceBus(tags=tags, id_maps=id_maps)
        writer = JsonlTraceWriter(trace_path)
        bus.subscribe(writer)
        sim.trace = bus
    profiler: KernelProfiler | None = None
    if obs is not None and obs.profile:
        profiler = KernelProfiler()
        sim.set_profiler(profiler)
    array = DiskArray(sim, params, n_disks, fileset, initial_speed=initial_speed,
                      queue_discipline=queue_discipline)
    registry: MetricsRegistry | None = None
    sampler: DiskSampler | None = None
    if obs is not None and obs.wants_sampler:
        registry = MetricsRegistry()
        sampler = DiskSampler(sim, array, obs.effective_sample_interval_s,
                              registry=registry, disk_offset=disk_offset)
        sampler.install()
    sink = make_sink(sim.request_stop)

    policy.bind(sim, array, fileset)
    injector: FaultInjector | None = None
    if faults is None:
        policy.completion_callback = sink.on_complete
    else:
        injector = FaultInjector(sim, array, policy,
                                 press if press is not None else _default_press(),
                                 faults, on_success=sink.on_complete,
                                 on_permanent_failure=sink.on_failed,
                                 redundancy=groups)
        injector.install()
        policy.completion_callback = injector.on_user_job_complete
    policy.initial_layout()
    return _Cell(sim=sim, array=array, policy=policy, sink=sink, bus=bus,
                 writer=writer, sampler=sampler, registry=registry,
                 profiler=profiler, injector=injector)


def _replay_refusal(cell: _Cell) -> str | None:
    """Why ``cell`` must run on the event heap, or ``None`` if it may replay.

    A cell replays (:func:`_replay`) only when every disk serves whole
    user requests FCFS at one fixed speed and nothing observes the
    individual events.  Redundancy without faults leaves the run itself
    untouched, so it does not refuse.
    """
    if type(cell.policy) not in (StaticHighPolicy, StaticLowPolicy):
        return (f"policy {cell.policy.name!r} is not a fixed-speed "
                f"whole-request policy (static-high or static-low)")
    if any(drive.queue_discipline is not QueueDiscipline.FCFS
           for drive in cell.array.drives):
        return "the queue discipline is not FCFS"
    if cell.injector is not None:
        return "fault injection fails, retries and rebuilds jobs"
    if cell.bus is not None:
        return "tracing records every event"
    if cell.sampler is not None:
        return "sampling splits the accounting at every tick"
    if cell.profiler is not None:
        return "profiling times every event dispatch"
    return None


class _Server(NamedTuple):
    """One serving strategy of :class:`_Feed`: per-block ``feed``, then
    ``finish`` (run what is still in flight), and ``release`` (drop the
    strategy's own references; called once, whatever happened)."""

    feed: Callable[[np.ndarray, np.ndarray], None]
    finish: Callable[[], None]
    release: Callable[[], None]


def _replay_server(cell: _Cell) -> _Server:
    """Serve every fed arrival by the exact FCFS recurrence.

    The off-heap twin of :func:`_event_server` for the cells
    :func:`_replay_refusal` accepts: each block is split by disk, each
    disk replays its arrivals (:meth:`TwoSpeedDrive.replay_fcfs
    <repro.disk.drive.TwoSpeedDrive.replay_fcfs>`), and the sink takes
    the jobs in bulk.  Arrival times are checked as scheduling them
    would, with the same error.  ``finish`` leaves the kernel's clock
    and event count where the event path leaves them: at the last
    completion, after one arrival and one completion event per request.
    """
    sim, sink, array = cell.sim, cell.sink, cell.array
    drives = array.drives
    disk_of_file = array.placement
    sizes_mb = array.fileset.sizes_mb
    disk_edges = np.arange(len(drives) + 1)
    # each arrival event is scheduled while its predecessor fires
    previous = end = sim.now
    total = 0

    def feed(times: np.ndarray, ids: np.ndarray) -> None:
        nonlocal previous, end, total
        if not (times[0] >= previous and np.isfinite(times[-1])
                and bool(np.all(times[1:] >= times[:-1]))):
            for t in times.tolist():
                if not (t >= previous) or t == math.inf:
                    raise event_time_error(t, previous)
                previous = t
        previous = float(times[-1])
        disks = disk_of_file[ids]
        order = np.argsort(disks, kind="stable")
        bounds = np.searchsorted(disks[order], disk_edges).tolist()
        arrivals = times[order]
        sizes = sizes_mb[ids[order]]
        for disk, drive in enumerate(drives):
            lo, hi = bounds[disk], bounds[disk + 1]
            if lo == hi:
                continue
            mine = arrivals[lo:hi].tolist()
            starts, completions = drive.replay_fcfs(mine, sizes[lo:hi].tolist())
            sink.record_replayed(disk, order[lo:hi] + total, mine, starts,
                                 completions)
            end = max(end, completions[-1])
        total += times.size

    def finish() -> None:
        sink.close_replay()
        sim.record_replay(end, 2 * total)

    return _Server(feed, finish, lambda: None)


def _event_server(cell: _Cell) -> _Server:
    """Stream every fed arrival through the event heap, resumably.

    Arrivals are streamed (each arrival event schedules the next, at
    ``priority=-1`` so loads land before same-instant model work)
    rather than pre-loaded.  When a block's last arrival has been
    routed the kernel stops; the next ``feed`` schedules that block's
    first arrival exactly where the previous one would have, so every
    event keeps the sequence number an unbroken stream gives it.
    ``finish`` runs the kernel until the sink stops it from the last
    completion — policies' periodic tasks keep the queue non-empty, so
    completion, not queue exhaustion, is the stop condition.
    """
    sim, sink = cell.sim, cell.sink
    sizes = cell.array.fileset.sizes_mb.tolist()
    route = cell.policy.route
    schedule_at = sim.schedule_at
    request_stop = sim.request_stop
    new_request = Request.from_validated
    times: list[float] = []
    ids: list[int] = []
    i = n = 0

    def dispatch_next() -> None:
        nonlocal i
        fid = ids[i]
        route(new_request(sim.now, fid, sizes[fid]))
        i += 1
        if i < n:
            schedule_at(times[i], dispatch_next, priority=-1)
        else:
            request_stop()  # the block is spent: wait for the next feed

    def feed(block_times: np.ndarray, block_ids: np.ndarray) -> None:
        nonlocal times, ids, i, n
        times, ids = block_times.tolist(), block_ids.tolist()
        i, n = 0, len(times)
        schedule_at(times[0], dispatch_next, priority=-1)
        sim.run_until_drained()

    def finish() -> None:
        # the last arrival may already have ended the run (a request
        # that fails permanently inside route): the kernel's periodic
        # tasks would keep a restarted run going past the horizon
        if not sink.all_done:
            sim.run_until_drained()

    def release() -> None:
        # dispatch_next names itself, so its closure is a cycle that only
        # a full GC pass frees: clear that cell, and reference counting
        # frees both closures and the arrival lists they hold
        nonlocal dispatch_next
        del dispatch_next

    return _Server(feed, finish, release)


class _Feed:
    """Push-based drain of one cell: ``feed`` each block, then ``finish``.

    Every cell is served this way.  The unsharded runner feeds its whole
    trace as one block (:func:`_drain`); a shard range feeds each of its
    shards the slice of every stream chunk that the shard owns, so the
    shards advance in lockstep with one chunk resident at a time.
    Cells that :func:`_replay_refusal` accepts are served by the exact
    replay (:func:`_replay_server`), all others on the event heap
    (:func:`_event_server`); both reach the same results.

    ``wall_clock_s`` sums the seconds spent serving, so it excludes
    whatever produced the blocks.  On any exception the trace is set
    aside as ``<path>.partial``; :meth:`abort` does the same for a cell
    whose *sibling* failed.
    """

    def __init__(self, cell: _Cell,
                 on_exhausted: Callable[[int], None] | None = None) -> None:
        self.cell = cell
        #: Receives the number of arrivals fed, once, from :meth:`finish`.
        self.on_exhausted = on_exhausted
        self.total = 0
        self.wall_clock_s = 0.0
        make = _replay_server if _replay_refusal(cell) is None else _event_server
        self._server: _Server | None = make(cell)

    def feed(self, times: np.ndarray, ids: np.ndarray) -> None:
        """Serve one block of arrivals (times non-decreasing, ids local)."""
        if not times.size:
            return
        server = self._server
        assert server is not None, "feed() after finish() or abort()"
        start = perf_counter()
        try:
            server.feed(times, ids)
        except BaseException:
            self.abort()
            raise
        self.total += times.size
        self.wall_clock_s += perf_counter() - start

    def finish(self) -> float:
        """Run the cell to its last completion, then stop the policy.

        A cell that was fed no arrival at all runs nothing (a shard no
        request targets).  On success the policy (and fault injector)
        are shut down, at the horizon.  Returns :attr:`wall_clock_s`.
        """
        server = self._server
        assert server is not None, "finish() after finish() or abort()"
        sink = self.cell.sink
        try:
            if self.on_exhausted is not None:
                self.on_exhausted(self.total)
            if self.total:
                start = perf_counter()
                server.finish()
                self.wall_clock_s += perf_counter() - start
                if not sink.all_done:
                    raise RuntimeError(f"event queue drained with "
                                       f"{sink.completed}/{self.total} "
                                       f"requests done")
        except BaseException:
            self.abort()
            raise
        self._release()
        if self.cell.injector is not None:
            self.cell.injector.shutdown()
        self.cell.policy.shutdown()
        return self.wall_clock_s

    def abort(self) -> None:
        """Give up on the cell: set its trace aside as ``<path>.partial``.

        A dying run must not leave a half-written trace where a whole
        one is expected.  Idempotent.
        """
        self._release()
        if self.cell.writer is not None:
            self.cell.writer.abort()

    def _release(self) -> None:
        if self._server is not None:
            self._server.release()
            self._server = None


def _drain(cell: _Cell, chunks: Iterable[_Chunk],
           on_exhausted: Callable[[int], None] | None = None) -> float:
    """Feed every block of ``chunks`` to ``cell``, then finish it.

    A materialized trace is a single block.  Returns the wall-clock
    seconds spent serving (see :class:`_Feed`).
    """
    feed = _Feed(cell, on_exhausted)
    try:
        for times, ids in chunks:
            feed.feed(times, ids)
    except BaseException:
        feed.abort()
        raise
    return feed.finish()


def run_simulation(policy: Policy, fileset: FileSet, trace: Trace, *,
                   n_disks: int, disk_params: TwoSpeedDiskParams | None = None,
                   press: PRESSModel | None = None,
                   initial_speed: DiskSpeed = DiskSpeed.HIGH,
                   queue_discipline: QueueDiscipline = QueueDiscipline.FCFS,
                   faults: FaultConfig | None = None,
                   obs: ObsConfig | None = None,
                   redundancy: GroupScheme | None = None) -> SimulationResult:
    """Run one policy over one trace on an ``n_disks`` array.

    The same (fileset, trace) pair should be passed to every competing
    policy — that is the paper's fairness protocol (Sec. 3.5: "all
    algorithms are evaluated ... under the same conditions").

    ``faults`` enables in-simulation fault injection (see
    :mod:`repro.faults`); ``None`` keeps the fault-free fast path, whose
    results are bit-identical to runs predating the fault subsystem.

    ``obs`` enables the telemetry layer (see :mod:`repro.obs`): event
    tracing to JSONL, periodic per-disk sampling, and kernel profiling.
    ``None`` (and the all-off ``ObsConfig()``) attach nothing, keeping
    the hot path and the results bit-identical to an untraced run.

    ``redundancy`` attaches a :class:`~repro.redundancy.scheme.GroupScheme`
    layout (``n_disks`` must be a multiple of its group size).  With
    faults on, the group geometry drives degraded reads, the data-loss
    census, rebuild fan-out, and (when ``domain_outage_per_year`` is
    set) correlated domain failures; with faults off the run itself is
    untouched and only the CTMC reliability assessment is computed from
    the run's PRESS factors.  ``None`` and the ``"none"`` scheme keep
    every path bit-identical to a redundancy-free run.
    """
    require(len(trace) >= 1, "trace must contain at least one request")
    model = press if press is not None else _default_press()
    scheme = (None if redundancy is None or not redundancy.is_redundant
              else redundancy)
    groups = (None if scheme is None
              else RedundancyGroups(scheme, n_disks))
    n = len(trace)
    cell = _build_cell(
        policy, fileset, n_disks=n_disks, disk_params=disk_params,
        initial_speed=initial_speed, queue_discipline=queue_discipline,
        obs=obs, trace_path=obs.trace_path if obs is not None else None,
        make_sink=lambda stop: RequestMetrics(expected=n, on_all_done=stop),
        faults=faults, press=model, groups=groups)
    sim, array, metrics, bus = cell.sim, cell.array, cell.sink, cell.bus
    injector, sampler, registry = cell.injector, cell.sampler, cell.registry

    if bus is not None:
        bus.emit(obs_events.ENGINE_START, sim.now, policy=policy.name,
                 n_disks=n_disks, n_requests=n)
    wall_clock_s = _drain(cell, [(trace.times_s, trace.file_ids)])
    duration = sim.now
    array.finalize()
    if sampler is not None:
        sampler.sample_now()  # close the series with the final state
    if bus is not None:
        bus.emit(obs_events.ENGINE_STOP, duration,
                 events=sim.events_executed, duration_s=duration)
    cell.close()

    timeseries = None
    if sampler is not None:
        timeseries = sampler.series()
        if obs is not None and obs.metrics_path is not None:
            write_timeseries(timeseries, obs.metrics_path)
    metrics_snapshot = registry.as_dict() if registry is not None else None
    profile = (cell.profiler.summary(wall_clock_s=wall_clock_s)
               if cell.profiler is not None else None)

    afr, factors = model.evaluate_array(array, duration)

    redundancy_summary: RedundancySummary | None = None
    if scheme is not None and groups is not None:
        measured_s = (injector.rtracker.mean_rebuild_s()
                      if injector is not None and injector.rtracker is not None
                      else None)
        if measured_s is not None:
            rebuild_hours = max(measured_s / 3600.0, 1e-3)
        else:
            # no rebuild completed (or faults off): estimate operator
            # delay + a full-capacity copy stream at high speed
            delay_s = (faults.repair_delay_s if faults is not None
                       else FaultConfig().repair_delay_s)
            used = max((float(m) for m in array.used_mb), default=0.0)
            transfer = array.params.mode(DiskSpeed.HIGH).transfer_mb_s
            rebuild_hours = max((delay_s + used / transfer) / 3600.0, 1e-3)
        ctmc: CtmcResult | None = assess_scheme(
            scheme, [f.afr_percent for f in factors],
            rebuild_hours=rebuild_hours)
        if injector is not None:
            redundancy_summary = injector.redundancy_summary(ctmc)
        else:
            redundancy_summary = RedundancyTracker().summarize(
                scheme=scheme.name, n_groups=groups.n_groups,
                final_states=("healthy",) * groups.n_groups, ctmc=ctmc)

    breakdown: dict[str, float] = {}
    for drive in array.drives:
        for state, joules in drive.energy.breakdown().items():
            breakdown[state] = breakdown.get(state, 0.0) + joules

    # under heavy fault injection every request can fail; response-time
    # stats are then undefined rather than an error
    no_served = metrics.completed == 0

    return SimulationResult(
        policy_name=policy.name,
        n_disks=n_disks,
        n_requests=n,
        duration_s=duration,
        mean_response_s=float("nan") if no_served else metrics.mean_response_s(),
        p95_response_s=float("nan") if no_served else metrics.percentile_response_s(95.0),
        p99_response_s=float("nan") if no_served else metrics.percentile_response_s(99.0),
        total_energy_j=array.total_energy_j(),
        array_afr_percent=afr,
        per_disk=tuple(factors),
        total_transitions=sum(d.stats.speed_transitions_total for d in array.drives),
        internal_jobs=sum(d.stats.internal_jobs_served for d in array.drives),
        energy_breakdown_j=breakdown,
        policy_detail=policy.describe(),
        faults=(None if injector is None else
                injector.tracker.summarize(n_disks=n_disks, duration_s=duration)),
        events_executed=sim.events_executed,
        wall_clock_s=wall_clock_s,
        timeseries=timeseries,
        profile=profile,
        metrics=metrics_snapshot,
        redundancy=redundancy_summary,
    )
