"""Parallel sweep execution: picklable cell specs + a process-pool runner.

A *cell* is one (policy, configuration, array size, workload) simulation
— the unit the figures and sweeps iterate over.  :class:`RunSpec` captures
everything a cell needs as plain picklable data, and :func:`run_cells`
fans a batch of cells over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Design notes
------------
* ``jobs=1`` runs in-process with no executor, so the serial path stays
  trivially debuggable (breakpoints, profilers, exception locals).
* Results are returned in input order regardless of completion order,
  and every cell is seeded solely by its spec — parallel and serial
  execution are bit-identical (asserted by the test suite).
* Workloads are materialized in the parent *before* the pool forks, so
  workers inherit the cached arrays copy-on-write instead of each
  regenerating them (on spawn platforms they fall back to their own
  on-disk/in-process cache).
* A worker failure is re-raised in the parent as
  :class:`CellExecutionError` carrying the failing spec, so a sweep
  error message names the exact cell instead of a bare traceback from
  an anonymous subprocess.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, cast

from repro.disk.drive import QueueDiscipline
from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams
from repro.experiments.metrics import SimulationResult
from repro.experiments.runner import make_policy, run_simulation
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.obs.log import get_logger
from repro.press.model import PRESSModel
from repro.redundancy.scheme import GroupScheme
from repro.util.validation import require
from repro.workload.cache import cached_generate, workload_key
from repro.workload.stream import WorkloadLike

if TYPE_CHECKING:
    from repro.experiments.shard import ShardCellSpec

__all__ = ["CellExecutionError", "RunSpec", "run_cell", "run_cells"]

#: Sweep progress channel; silent unless the embedding application (or
#: the CLI via ``setup_logging``) installs a handler on ``repro``.
_log = get_logger("sweep")


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell as pure, picklable data.

    Attributes
    ----------
    policy:
        Registry name understood by
        :func:`repro.experiments.runner.make_policy` (e.g. ``"read"``).
    policy_kwargs:
        Keyword arguments forwarded into the policy's config dataclass.
    n_disks:
        Array size for this cell.
    workload:
        Full workload description; materialized through the content-keyed
        cache, so identical configs across specs share one generation.
    disk_params / press:
        Device model and reliability model (``None`` = module defaults).
    initial_speed / queue_discipline:
        Forwarded to :func:`~repro.experiments.runner.run_simulation`.
    faults:
        Fault-injection configuration (``None`` = injection off).  The
        config is frozen plain data and the resulting
        :class:`~repro.faults.FaultSummary` is picklable, so fault cells
        fan out over the process pool like any other.
    obs:
        Telemetry configuration (``None`` = everything off).  Frozen
        plain data; the cell materializes its own bus/sampler/profiler,
        and the resulting time-series/profile summaries are picklable
        tuples, so telemetry survives the pool boundary.  File-writing
        options (``trace_path``/``metrics_path``) make sense only on
        single-cell specs — parallel cells would race on one path.
    """

    policy: str
    n_disks: int
    workload: WorkloadLike
    policy_kwargs: Mapping[str, object] = field(default_factory=dict)
    disk_params: Optional[TwoSpeedDiskParams] = None
    press: Optional[PRESSModel] = None
    initial_speed: DiskSpeed = DiskSpeed.HIGH
    queue_discipline: QueueDiscipline = QueueDiscipline.FCFS
    faults: Optional[FaultConfig] = None
    obs: Optional[ObsConfig] = None
    #: Set on the sub-cells :func:`~repro.experiments.shard
    #: .run_sharded_cells` fans out: the cell then runs the shared cell
    #: assembly over a contiguous range of the array's shards, from one
    #: pass over the *streamed* workload, and returns a
    #: ``ShardCellResult`` (one shard) or ``ShardRangeResult`` (open
    #: ledgers the shard merge closes), not a ``SimulationResult``.
    #: ``None`` = ordinary cell.
    shard: "Optional[ShardCellSpec]" = None
    #: Redundancy-group scheme (``None`` = no layout; see
    #: :mod:`repro.redundancy`).  Frozen plain data, pickles across the
    #: pool like the rest of the spec.
    redundancy: Optional[GroupScheme] = None

    def label(self) -> str:
        """Compact human-readable cell name for errors and progress."""
        kwargs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.policy_kwargs.items()))
        suffix = f" [{kwargs}]" if kwargs else ""
        shard = self.shard
        if shard is not None:
            first = shard.index + 1
            span = (f"shard {first}" if shard.count == 1
                    else f"shards {first}-{first + shard.count - 1}")
            suffix += f" [{span}/{shard.plan.n_shards}]"
        return f"{self.policy} x {self.n_disks} disks{suffix}"


class CellExecutionError(RuntimeError):
    """A cell failed; carries the spec so sweeps can name the culprit."""

    def __init__(self, spec: RunSpec, cause: BaseException) -> None:
        super().__init__(f"cell {spec.label()} failed: {cause!r}")
        self.spec = spec
        self.cause = cause


def run_cell(spec: RunSpec) -> SimulationResult:
    """Execute one cell in the current process.

    Shard sub-cells (``spec.shard`` set) stream their workload and
    return a ``ShardCellResult`` or, for a range of several shards, a
    ``ShardRangeResult`` — open partial results that only the shard
    merge (:func:`repro.experiments.shard.merge_shard_results`) can
    consume.
    The cast below keeps the common signature; only the shard fan-out
    (:func:`~repro.experiments.shard.run_sharded_cells`) builds such
    specs, and it knows the real type of what comes back.
    """
    if spec.shard is not None:
        from repro.experiments.shard import run_shard_cell

        return cast(SimulationResult, run_shard_cell(spec))
    fileset, trace = cached_generate(spec.workload)
    policy = make_policy(spec.policy, **dict(spec.policy_kwargs))
    return run_simulation(policy, fileset, trace, n_disks=spec.n_disks,
                          disk_params=spec.disk_params, press=spec.press,
                          initial_speed=spec.initial_speed,
                          queue_discipline=spec.queue_discipline,
                          faults=spec.faults, obs=spec.obs,
                          redundancy=spec.redundancy)


def run_cells(specs: Iterable[RunSpec], *, jobs: int = 1,
              resilience=None, checkpoint=None,
              bus=None) -> list[SimulationResult]:
    """Execute cells, returning results in input order.

    ``jobs=1`` (default) runs serially in-process; ``jobs>1`` fans out
    over a process pool.  Both paths produce identical results — specs
    carry all the state a cell reads, so placement does not matter.

    ``resilience`` (a :class:`~repro.experiments.resilience
    .ResilienceConfig`) and/or ``checkpoint`` (a path or
    :class:`~repro.experiments.resilience.SweepCheckpoint`) switch to
    the fault-domain engine: per-cell retries/timeouts, pool respawn,
    checkpointed resume, SIGINT drain.  Results are identical either
    way; callers that also want the
    :class:`~repro.experiments.resilience.ResilienceSummary` should use
    :func:`~repro.experiments.resilience.run_cells_resilient` directly.
    ``bus`` (with ``resilience``/``checkpoint``) receives ``harness.*``
    trace events.  With all three unset this function is byte-for-byte
    the pre-resilience fast path.
    """
    if resilience is not None or checkpoint is not None:
        from repro.experiments.resilience import run_cells_resilient

        results, _summary = run_cells_resilient(
            specs, jobs=jobs, config=resilience, checkpoint=checkpoint,
            bus=bus)
        return results
    spec_list = list(specs)
    require(jobs >= 1, f"jobs must be >= 1, got {jobs}")
    for i, spec in enumerate(spec_list):
        require(isinstance(spec, RunSpec), f"specs[{i}] is not a RunSpec: {spec!r}")

    total = len(spec_list)
    if jobs == 1 or total <= 1:
        results = []
        for i, spec in enumerate(spec_list, start=1):
            _log.info("cell %d/%d started: %s", i, total, spec.label())
            try:
                results.append(run_cell(spec))
            except Exception as exc:
                raise CellExecutionError(spec, exc) from exc
            _log.info("cell %d/%d finished: %s (%.2fs)",
                      i, total, spec.label(), results[-1].wall_clock_s)
        return results

    # Materialize every distinct workload once in the parent: under the
    # fork start method the workers then share the arrays copy-on-write.
    # Shard sub-cells are excluded — they exist precisely to *stream*
    # their workload, and materializing it here would defeat the
    # constant-memory contract.
    distinct = {workload_key(s.workload): s.workload
                for s in spec_list if s.shard is None}
    for workload in distinct.values():
        cached_generate(workload)

    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=multiprocessing.get_context()) as pool:
        futures = []
        for i, spec in enumerate(spec_list, start=1):
            _log.info("cell %d/%d started: %s", i, total, spec.label())
            futures.append(pool.submit(run_cell, spec))
        results = []
        for i, (spec, future) in enumerate(zip(spec_list, futures), start=1):
            try:
                results.append(future.result())
            except Exception as exc:
                raise CellExecutionError(spec, exc) from exc
            _log.info("cell %d/%d finished: %s (%.2fs)",
                      i, total, spec.label(), results[-1].wall_clock_s)
    return results
