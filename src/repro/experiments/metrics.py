"""Metrics collection and the per-run result record.

The paper's three metrics (Sec. 5.1): mean response time over all file
access requests, energy consumed serving the whole request set, and the
array AFR from PRESS.  ``RequestMetrics`` gathers the first on the
completion path; the rest are computed from the array and model at the
end of the run and frozen into a :class:`SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Callable, Sequence

import numpy as np

from repro.disk.drive import Job
from repro.faults.metrics import FaultSummary
from repro.obs.profiler import ProfileSummary
from repro.redundancy.metrics import RedundancySummary
from repro.obs.sampler import TimeSeries
from repro.press.model import DiskFactors
from repro.util.validation import require

__all__ = ["RequestMetrics", "SimulationResult"]


class RequestMetrics:
    """Accumulates per-request response times (user requests only).

    Used as the runner's job-completion callback; internal jobs
    (migrations, cache copies) are ignored here by construction — they
    never carry a ``request``.
    """

    def __init__(self, expected: int,
                 on_all_done: "Callable[[], None] | None" = None) -> None:
        require(expected >= 0, f"expected must be >= 0, got {expected}")
        self._expected = expected
        self._response_times = np.empty(expected, dtype=np.float64)
        self._waits = np.empty(expected, dtype=np.float64)
        self._count = 0
        self._failed = 0
        #: Called once every request terminated (``None``: nothing to call).
        self.on_all_done = on_all_done
        #: Replayed jobs awaiting :meth:`close_replay`, per disk in
        #: service order: ``(arrival indices, A, S, C)`` arrays.
        self._replayed: dict[int, list[tuple[np.ndarray, ...]]] = {}

    # ------------------------------------------------------------------
    def on_complete(self, job: Job) -> None:
        """Job-completion callback; records user-request response times."""
        req = job.request
        if req is None:
            return
        count = self._count
        if count + self._failed >= self._expected:
            raise ValueError("more completions than expected requests")
        self._response_times[count] = req.completion_time - req.arrival_time
        self._waits[count] = req.service_start - req.arrival_time
        self._count = count + 1
        if count + 1 + self._failed >= self._expected and self.on_all_done is not None:
            self.on_all_done()

    def on_failed(self, job: Job) -> None:
        """A user request was failed permanently (fault injection).

        Failed requests count toward the expected total — the run's stop
        condition is "every request terminated", not "every request
        served" — but contribute nothing to the response-time arrays.
        """
        if job.request is None:
            return
        if self._count + self._failed >= self._expected:
            raise ValueError("more terminations than expected requests")
        self._failed += 1
        if self._count + self._failed >= self._expected and self.on_all_done is not None:
            self.on_all_done()

    def record_replayed(self, disk: int, indices: np.ndarray,
                        arrivals: Sequence[float], starts: Sequence[float],
                        completions: Sequence[float]) -> None:
        """Take one disk's jobs from the runner's exact replay.

        ``indices`` are the jobs' positions in the arrival stream and
        the other three their arrival, start and completion times, in
        the disk's service order; calls for one disk continue each
        other.  Nothing is recorded until :meth:`close_replay`, which
        needs every disk's jobs to recover the completion order.
        """
        self._replayed.setdefault(disk, []).append(
            (np.asarray(indices, dtype=np.int64),
             np.array(arrivals, dtype=np.float64),
             np.array(starts, dtype=np.float64),
             np.array(completions, dtype=np.float64)))

    def close_replay(self) -> None:
        """Record the replayed jobs in the event path's completion order.

        :meth:`mean_response_s` sums in recording order, so the replay
        must record responses in the order the event loop would have
        fired the completions (see :func:`_completion_order`).
        """
        if not self._replayed:
            return
        per_disk = [[np.concatenate(column) for column in zip(*parts)]
                    for _, parts in sorted(self._replayed.items())]
        self._replayed = {}
        firsts = np.cumsum([0] + [disk[0].size for disk in per_disk])[:-1]
        index, arrival, start, completion = (
            np.concatenate(column) for column in zip(*per_disk))
        count = self._count
        if count + self._failed + index.size > self._expected:
            raise ValueError("more completions than expected requests")
        order = _completion_order(index, arrival, completion, firsts)
        end = count + index.size
        self._response_times[count:end] = (completion - arrival)[order]
        self._waits[count:end] = (start - arrival)[order]
        self._count = end

    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """User requests completed (served) so far."""
        return self._count

    @property
    def failed(self) -> int:
        """User requests permanently failed so far."""
        return self._failed

    @property
    def all_done(self) -> bool:
        """Whether every expected request has terminated (served or failed)."""
        return self._count + self._failed >= self._expected

    @property
    def response_times_s(self) -> np.ndarray:
        """Response times of completed requests (copy-free slice)."""
        return self._response_times[:self._count]

    @property
    def waiting_times_s(self) -> np.ndarray:
        """Queueing delays of completed requests."""
        return self._waits[:self._count]

    def mean_response_s(self) -> float:
        """The paper's headline performance metric."""
        require(self._count > 0, "no completed requests")
        return float(self.response_times_s.mean())

    def percentile_response_s(self, q: float) -> float:
        """Response-time percentile (q in [0, 100])."""
        require(self._count > 0, "no completed requests")
        return float(np.percentile(self.response_times_s, q))


def _completion_order(index: np.ndarray, arrival: np.ndarray,
                      completion: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """The order in which the event loop fires these replayed completions.

    Jobs are laid out disk by disk in service order; ``firsts`` marks
    where each disk begins.  Events fire in ``(time, priority, seq)``
    order, and ``seq`` follows the firing order of the event that
    scheduled them, so completions sort by time and an equal-time tie
    goes to the job whose *dispatching* event fired first.  That event
    is the job's own arrival ``(A, -1, index)`` when the disk was idle,
    or its predecessor's completion ``(C_prev, 0, ...)`` when it queued
    (``A <= C_prev``: an arrival at exactly ``C_prev`` fires first and
    queues), which is compared the same way, recursively.
    """
    queued = np.zeros(index.size, dtype=bool)
    queued[1:] = arrival[1:] <= completion[:-1]
    queued[firsts] = False
    order = np.argsort(completion, kind="stable")
    ordered = completion[order]
    ties = np.flatnonzero(ordered[1:] == ordered[:-1]).tolist()
    if not ties:
        return order
    a_list, c_list = arrival.tolist(), completion.tolist()
    q_list, i_list = queued.tolist(), index.tolist()

    def fires_first(p: int, q: int) -> int:
        # completions p and q fire at one instant: compare their
        # dispatching events, walking back through queued predecessors
        while True:
            qp, qq = q_list[p], q_list[q]
            tp = c_list[p - 1] if qp else a_list[p]
            tq = c_list[q - 1] if qq else a_list[q]
            if tp != tq:
                return -1 if tp < tq else 1
            if qp != qq:
                return 1 if qp else -1  # arrivals (-1) before completions (0)
            if not qp:
                return i_list[p] - i_list[q]
            p, q = p - 1, q - 1

    key = cmp_to_key(fires_first)
    k = 0
    while k < len(ties):
        lo = hi = ties[k]
        while k < len(ties) and ties[k] == hi:
            hi += 1
            k += 1
        order[lo:hi + 1] = sorted(order[lo:hi + 1].tolist(), key=key)
    return order


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Everything one simulation cell reports (one point of Fig. 7)."""

    policy_name: str
    n_disks: int
    n_requests: int
    duration_s: float
    mean_response_s: float
    p95_response_s: float
    p99_response_s: float
    total_energy_j: float
    #: Array AFR (percent) = max over per-disk PRESS AFRs (Sec. 3.5).
    array_afr_percent: float
    per_disk: tuple[DiskFactors, ...]
    total_transitions: int
    internal_jobs: int
    energy_breakdown_j: dict[str, float] = field(default_factory=dict)
    policy_detail: dict[str, object] = field(default_factory=dict)
    #: Realized-reliability outcome; ``None`` when fault injection is off.
    faults: FaultSummary | None = None
    #: Kernel events the run executed (0 for results predating telemetry).
    events_executed: int = 0
    #: Wall-clock seconds of the event-loop drain (0.0 for legacy
    #: results): timed by the shared dispatch loop on both paths, so it
    #: excludes set-up (workload, array, layout) and end-of-run scoring,
    #: though a streamed shard generates its later chunks inside it; a
    #: merged sharded result sums its shards' drains.  Measurement
    #: noise, not simulation output — excluded from equality so
    #: serial/parallel sweeps still compare bit-for-bit.
    wall_clock_s: float = field(default=0.0, compare=False)
    #: Per-disk sampled telemetry; ``None`` unless sampling was enabled.
    timeseries: TimeSeries | None = None
    #: Kernel profiling summary; ``None`` unless profiling was enabled
    #: (wall timings inside, so excluded from equality like wall_clock_s).
    profile: ProfileSummary | None = field(default=None, compare=False)
    #: Frozen metrics-registry snapshot (``MetricsRegistry.as_dict()``
    #: shapes); ``None`` unless sampling was enabled.  For a merged
    #: sharded cell this is the *federated* registry, equal to the
    #: unsharded run's for shard-decomposable policies — so it is part
    #: of equality, like ``timeseries``.
    metrics: dict[str, dict[str, object]] | None = None
    #: Redundancy-group outcome + CTMC reliability; ``None`` unless a
    #: ``--redundancy`` scheme was active.
    redundancy: RedundancySummary | None = None

    @property
    def energy_kwh(self) -> float:
        """Total energy in kWh (for the cost model)."""
        return self.total_energy_j / 3.6e6

    @property
    def events_per_sec(self) -> float:
        """Simulation throughput (kernel events per wall-clock second)."""
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.events_executed / self.wall_clock_s

    @property
    def worst_disk(self) -> DiskFactors:
        """The disk that set the array AFR."""
        return max(self.per_disk, key=lambda f: f.afr_percent)

    def summary_row(self) -> dict[str, object]:
        """Flat dict for tabular reporting."""
        row: dict[str, object] = {
            "policy": self.policy_name,
            "disks": self.n_disks,
            "AFR_%": round(self.array_afr_percent, 3),
            "energy_kJ": round(self.total_energy_j / 1e3, 1),
            "mean_resp_ms": round(self.mean_response_s * 1e3, 2),
            "p95_resp_ms": round(self.p95_response_s * 1e3, 2),
            "transitions": self.total_transitions,
            "events": self.events_executed,
            "wall_s": round(self.wall_clock_s, 2),
            "events_per_s": round(self.events_per_sec),
        }
        if self.faults is not None:
            row.update(self.faults.summary_row())
        if self.redundancy is not None:
            row.update(self.redundancy.summary_row())
        return row
