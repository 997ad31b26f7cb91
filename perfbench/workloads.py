"""The benchmark's four workloads: their cells, sizes, and stressed layers.

Every workload is built from the benchmark seed alone; the program only
ever receives the resulting ``SyntheticWorkloadConfig``/``RunSpec``
values.  A *cell* is one call into a public entry point:
``run_cells([spec])`` for an unsharded cell, ``run_sharded(...)`` for a
sharded one.  ``README.md`` in this directory says why each workload was
chosen and which open ROADMAP item it judges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["Cell", "Workload", "WORKLOADS", "SCALES"]

#: Fault spec of the redundancy workload (fixed: the seed varies the trace).
FAULTS_SPEC = "seed=3,accel=2e5"

#: Request counts per scale.  ``full`` is what the benchmark measures;
#: ``tiny`` only proves that every workload runs and reports every metric.
SCALES: dict[str, dict[str, int]] = {
    "full": {"fig7": 2_500, "redundancy": 20_000, "scale": 200_000,
             "trace": 30_000},
    "tiny": {"fig7": 300, "redundancy": 1_500, "scale": 6_000,
             "trace": 2_000},
}


@dataclass(frozen=True)
class Cell:
    """One call into a public entry point, with what its output must show."""

    label: str
    #: User requests the cell's workload holds.
    n_requests: int
    #: ``run(jobs)`` executes the cell and returns its ``SimulationResult``.
    run: Callable[[int], Any]
    #: Whether ``run`` goes through ``run_sharded`` (``jobs`` applies).
    sharded: bool
    #: Pool size of the untraced measuring passes.
    jobs: int = 1
    #: The merged JSONL trace the cell writes (``None`` when tracing is off).
    trace_path: Optional[str] = None
    #: The workload to materialize during set-up (unsharded cells only).
    materialize: Any = None


@dataclass(frozen=True)
class Workload:
    """A named set of cells plus the layers its traced run should show on top."""

    name: str
    #: Layers one of which must hold the largest self-time share.
    stressed: tuple[str, ...]
    build: Callable[[int, str, str], list[Cell]]


def _base(seed: int, n_requests: int):
    from repro.workload.synthetic import SyntheticWorkloadConfig

    # the CLI's default population; bursty ON/OFF arrivals at the WC98
    # mean gap of 58.4 ms (the config default)
    return SyntheticWorkloadConfig(n_files=2_000, n_requests=n_requests,
                                   bursty=True, seed=seed)


def _unsharded(spec, suffix: str) -> Cell:
    from repro.experiments.parallel import run_cells

    def run(jobs: int):
        return run_cells([spec], jobs=1)[0]

    return Cell(label=spec.label() + suffix,
                n_requests=spec.workload.n_requests, run=run,
                sharded=False, materialize=spec.workload)


def _fig7(seed: int, scale: str, workdir: str) -> list[Cell]:
    from repro.experiments.parallel import RunSpec

    light = _base(seed, SCALES[scale]["fig7"])
    heavy = light.heavy(8.0)
    return [_unsharded(RunSpec(policy=p, n_disks=d, workload=w), suffix)
            for p in ("read", "maid", "pdc")
            for d in (8, 32)
            for w, suffix in ((light, " light"), (heavy, " heavy"))]


def _redundancy(seed: int, scale: str, workdir: str) -> list[Cell]:
    from repro.experiments.parallel import RunSpec
    from repro.faults import parse_faults_spec
    from repro.redundancy import parse_redundancy_spec

    workload = _base(seed, SCALES[scale]["redundancy"])
    faults = parse_faults_spec(FAULTS_SPEC)
    return [_unsharded(RunSpec(policy="read", n_disks=8, workload=workload,
                               faults=faults,
                               redundancy=parse_redundancy_spec(scheme)),
                       f" {scheme}")
            for scheme in ("block4-2", "mirror2")]


def _sharded(seed: int, n_requests: int, trace_path: Optional[str],
             jobs: int) -> Cell:
    from repro.experiments.shard import run_sharded
    from repro.obs import ObsConfig
    from repro.workload.stream import SyntheticStreamSpec

    workload = SyntheticStreamSpec(_base(seed, n_requests))
    obs = None if trace_path is None else ObsConfig(trace_path=trace_path)

    def run(jobs: int):
        merged, _summary = run_sharded("static-high", workload, n_disks=64,
                                       n_shards=8, jobs=jobs, obs=obs)
        return merged

    label = "static-high x 64 disks / 8 shards streamed"
    if trace_path is not None:
        label += " traced"
    return Cell(label=label, n_requests=n_requests, run=run, sharded=True,
                jobs=jobs, trace_path=trace_path)


def _scale(seed: int, scale: str, workdir: str) -> list[Cell]:
    return [_sharded(seed, SCALES[scale]["scale"], None, jobs=1)]


def _trace(seed: int, scale: str, workdir: str) -> list[Cell]:
    path = os.path.join(workdir, "trace-export", "trace.jsonl")
    return [_sharded(seed, SCALES[scale]["trace"], path, jobs=2)]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("fig7-sweep", ("sim", "disk", "policies"), _fig7),
    Workload("redundancy-faults", ("redundancy",), _redundancy),
    Workload("scale-stream", ("sim", "disk"), _scale),
    Workload("trace-export", ("obs",), _trace),
)}
