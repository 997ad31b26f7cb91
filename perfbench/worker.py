"""One measured process of the benchmark (started by ``run.py``).

Modes:

``setup``    time set-up only: ``import repro``, workload
             materialization and cell building, in this fresh process.
``measure``  set-up, then untraced passes over the workload's cells
             while another one fits in ``--seconds``; per-pass host
             times, the output check, ``sim_digest`` and peak RSS.
``trace``    set-up, then rounds of an untraced reference pass and a
             traced pass (span wrappers installed only around the latter)
             while another round fits in ``--seconds``; per-layer metrics.

Prints one JSON object as its last stdout line.  Run it through
``run.py``; it is not a user-facing command.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()  # set-up starts here: before ``import repro``

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Pool size of the traced run's pooled pass (``nproc`` of the host the
#: workloads were sized on).
JOBS = 2


def _import_repro() -> None:
    """Import the checkout's own ``repro`` (never an installed copy)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {src}")


# ----------------------------------------------------------------------
# output check and digest
# ----------------------------------------------------------------------
def _record_request_metrics() -> list:
    """List that receives each unsharded cell's ``RequestMetrics``.

    ``run_simulation`` builds exactly one ``RequestMetrics`` per cell; a
    subclass bound in its place appends the instance, so the check can
    read the simulated completed/failed counts at O(1) cost per cell,
    without touching the per-request path.
    """
    import repro.experiments.runner as runner

    seen: list = []

    class Recorded(runner.RequestMetrics):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            seen.append(self)

    runner.RequestMetrics = Recorded
    return seen


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


def _file_sha256(path: str) -> tuple[str, int, str, str]:
    """(sha256, bytes, first line, last line) of a JSONL trace."""
    h = hashlib.sha256()
    first = last = b""
    size = 0
    with open(path, "rb") as fh:
        for line in fh:
            h.update(line)
            size += len(line)
            if not first:
                first = line
            last = line
    return h.hexdigest(), size, first.decode(), last.decode()


def check_cell(cell, result, metrics) -> tuple[list[str], list[object], int]:
    """Output check of one cell: (breaches, digest fields, trace bytes)."""
    breaches: list[str] = []
    if result.n_requests != cell.n_requests:
        breaches.append(f"result.n_requests {result.n_requests} != "
                        f"{cell.n_requests}")
    failed = result.faults.requests_failed if result.faults is not None else 0
    if cell.sharded:
        completed = result.n_requests  # the merge sums shard completions
    elif metrics is None:
        breaches.append("no RequestMetrics captured for the cell")
        completed = -1
    else:
        completed = metrics.completed
        if metrics.failed != failed:
            breaches.append(f"metrics.failed {metrics.failed} != "
                            f"faults.requests_failed {failed}")
    if completed + failed != cell.n_requests:
        breaches.append(f"completed {completed} + failed {failed} != "
                        f"n_requests {cell.n_requests}")
    if not _finite_positive(result.total_energy_j):
        breaches.append(f"energy {result.total_energy_j!r}")
    if not _finite_positive(result.array_afr_percent):
        breaches.append(f"array AFR {result.array_afr_percent!r}")
    if result.events_executed <= 0:
        breaches.append(f"events_executed {result.events_executed}")
    if completed > 0 and not _finite_positive(result.mean_response_s):
        breaches.append(f"mean response {result.mean_response_s!r}")
    fields: list[object] = [
        cell.label, completed, failed, result.duration_s,
        result.total_energy_j, result.array_afr_percent,
        result.mean_response_s, result.p99_response_s,
        result.total_transitions, result.internal_jobs,
        result.events_executed,
    ]
    if result.faults is not None:
        f = result.faults
        fields += [f.failure_schedule, f.rebuilds_completed, f.requests_failed,
                   f.requests_retried, f.requests_redirected,
                   f.data_loss_events, f.files_lost]
    if result.redundancy is not None:
        r = result.redundancy
        fields += [r.reconstruct_reads, r.reconstruct_legs,
                   r.rebuild_read_legs, r.groups_lost_events,
                   r.state_changes]
        if r.ctmc is None:
            breaches.append("redundancy cell without a CTMC assessment")
        else:
            p = r.ctmc.p_loss_array
            if not (math.isfinite(p) and 0.0 <= p <= 1.0):
                breaches.append(f"p_loss_array {p!r}")
            fields += [p, r.ctmc.mttdl_array_years]
    trace_bytes = 0
    if cell.trace_path is not None:
        if not os.path.isfile(cell.trace_path):
            breaches.append("merged trace missing")
        else:
            sha, trace_bytes, first, last = _file_sha256(cell.trace_path)
            if ('"engine.start"' not in first
                    or '"engine.stop"' not in last):
                breaches.append("merged trace lacks engine.start/stop")
            fields.append(sha)
    return breaches, fields, trace_bytes


def _clear_trace(cell) -> None:
    if cell.trace_path is not None:
        shutil.rmtree(os.path.dirname(cell.trace_path), ignore_errors=True)


def run_pass(cells, completions: list, jobs: int | None = None,
             timed=None) -> dict:
    """Run every cell once; host times, output check and digest.

    ``jobs`` overrides each cell's own pool size.
    """
    digest = hashlib.sha256()
    cell_s: list[float] = []
    results: list[object] = []
    failed_cells = 0
    trace_bytes = 0
    for cell in cells:
        _clear_trace(cell)
        run = cell.run if timed is None else timed(cell.run)
        before = len(completions)
        t0 = perf_counter()
        try:
            result = run(cell.jobs if jobs is None else jobs)
        except Exception as exc:  # a raising cell is a failed cell, not a crash
            cell_s.append(perf_counter() - t0)
            print(f"cell {cell.label} raised {exc!r}", file=sys.stderr)
            failed_cells += 1
            digest.update(f"{cell.label} raised".encode())
            results.append(None)
            continue
        cell_s.append(perf_counter() - t0)
        captured = completions[before:]
        del completions[before:]
        metrics = captured[0] if len(captured) == 1 else None
        breaches, fields, nbytes = check_cell(cell, result, metrics)
        if breaches:
            print(f"cell {cell.label}: {'; '.join(breaches)}", file=sys.stderr)
            failed_cells += 1
        _clear_trace(cell)
        trace_bytes += nbytes
        digest.update(repr(fields).encode())
        results.append(result)
    return {
        "wall_s": sum(cell_s),
        "cell_s": cell_s,
        "requests": sum(c.n_requests for c in cells),
        "cells": len(cells),
        "failed_cells": failed_cells,
        "digest": digest.hexdigest()[:16],
        "trace_bytes": trace_bytes,
        "results": results,
    }


# ----------------------------------------------------------------------
# per-layer metrics from one traced pass
# ----------------------------------------------------------------------
def layer_metrics(rec, traced: dict, reference: dict,
                  pooled: dict | None) -> dict[str, float]:
    """Every per-layer metric of one round (see ``BENCHMARK.json``)."""
    ok = [r for r in reference["results"] if r is not None]
    events = sum(r.events_executed for r in ok)
    # SimulationResult.wall_clock_s is the drain (summed over shards)
    drain_wall = sum(r.wall_clock_s for r in ok)
    transitions = sum(r.total_transitions for r in ok)
    speed_requests = rec.calls("disk.request_speed")
    faults = [r.faults for r in ok if r.faults is not None]
    red = [r.redundancy for r in ok if r.redundancy is not None]
    fault_submits = rec.calls("faults.submit")
    served = sum(r.n_requests - r.faults.requests_failed
                 for r in ok if r.faults is not None)
    shard_cells = rec.durations("experiments.shard_cell")
    busy = 0.0
    if pooled is not None:
        ratios = [r.wall_clock_s / (JOBS * wall)
                  for r, wall in zip(pooled["results"], pooled["cell_s"])
                  if r is not None and wall > 0]
        busy = statistics.fmean(ratios) if ratios else 0.0
    c = rec.counters
    return {
        "workload.gen_s": rec.total("workload.gen"),
        "workload.requests": c["workload.requests"],
        "sim.drain_s": rec.total("sim.drain"),
        "sim.self_s": rec.self_s("sim.drain"),
        "sim.events": events,
        "sim.events_per_s": events / drain_wall if drain_wall > 0 else 0.0,
        "policies.route_calls": rec.calls("policies.route"),
        "policies.route_self_s": rec.self_s("policies.route"),
        "policies.layout_s": rec.total("policies.layout"),
        "disk.submit_calls": rec.calls("disk.submit"),
        "disk.submit_self_s": rec.self_s("disk.submit"),
        "disk.speed_requests": speed_requests,
        "disk.speed_transitions": transitions,
        "disk.transition_ratio": (transitions / speed_requests
                                  if speed_requests else 0.0),
        "disk.migrations": c["disk.migrations"],
        "disk.internal_jobs": sum(r.internal_jobs for r in ok),
        "disk.finalize_s": rec.total("disk.finalize"),
        "press.score_s": rec.total("press.score"),
        "press.disks_scored": c["press.disks_scored"],
        "redundancy.ctmc_s": rec.total("redundancy.ctmc"),
        "redundancy.ctmc_calls": c["redundancy.ctmc_calls"],
        "redundancy.reconstruct_reads": sum(r.reconstruct_reads for r in red),
        "redundancy.rebuild_read_legs": sum(r.rebuild_read_legs for r in red),
        "faults.submit_calls": fault_submits,
        "faults.submit_self_s": rec.self_s("faults.submit"),
        "faults.requests_failed": sum(f.requests_failed for f in faults),
        "faults.requests_retried": sum(f.requests_retried for f in faults),
        "faults.served_ratio": served / fault_submits if fault_submits else 0.0,
        "experiments.shard_cell_s_max": max(shard_cells, default=0.0),
        "experiments.shard_cell_s_mean": (statistics.fmean(shard_cells)
                                          if shard_cells else 0.0),
        "experiments.merge_s": rec.total("experiments.merge"),
        "experiments.pool_busy_ratio": busy,
        "obs.events_emitted": rec.calls("obs.emit"),
        "obs.emit_s": rec.self_s("obs.emit"),
        "obs.encode_s": rec.total("obs.encode"),
        "obs.trace_merge_s": rec.total("obs.trace_merge"),
        "obs.trace_bytes": traced["trace_bytes"],
        "bench.trace_overhead_s": traced["wall_s"] - reference["wall_s"],
    }


# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children (pool workers), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _host() -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


class Deadline:
    """Whether another pass of a given length fits in the run's seconds."""

    def __init__(self, seconds: float) -> None:
        self._end = perf_counter() + seconds

    def fits(self, last_s: float) -> bool:
        return perf_counter() + last_s <= self._end


def _public(passes: list[dict]) -> list[dict]:
    """Passes without their result objects, for the JSON line."""
    return [{k: v for k, v in p.items() if k != "results"} for p in passes]


def measure(cells, completions: list, deadline: Deadline) -> dict:
    """Untraced passes while they fit; at least one."""
    passes = [run_pass(cells, completions)]
    while deadline.fits(passes[-1]["wall_s"]):
        passes.append(run_pass(cells, completions))
    return {"passes": _public(passes), "peak_rss_mb": _peak_rss_mb()}


def trace(workload, cells, completions: list, deadline: Deadline,
          workdir: str) -> dict:
    """Rounds of reference (+ pooled) and traced passes while they fit."""
    import spans
    from repro.workload.cache import default_cache

    sharded = any(cell.sharded for cell in cells)
    passes: list[dict] = []
    rounds: list[dict] = []
    shares: list[dict] = []
    round_s = 0.0
    while not rounds or deadline.fits(round_s):
        round_start = perf_counter()
        # materialized workloads are generated inside both passes, so the
        # two passes do the same work and their difference is the overhead
        default_cache().clear()
        reference = run_pass(cells, completions, jobs=1)
        pooled = run_pass(cells, completions, jobs=JOBS) if sharded else None
        default_cache().clear()
        rec = spans.SpanRecorder()
        undo = spans.install(rec)
        try:
            traced = run_pass(cells, completions, jobs=1,
                              timed=lambda fn: rec.wrap("experiments.cell", fn))
        finally:
            spans.uninstall(undo)
        passes += [p for p in (reference, pooled, traced) if p is not None]
        rounds.append(layer_metrics(rec, traced, reference, pooled))
        shares.append({layer: s / traced["wall_s"]
                       for layer, s in sorted(rec.self_by_layer().items())})
        round_s = perf_counter() - round_start
    rec.dump(os.path.join(workdir, "spans.json"))
    return {
        "passes": _public(passes),
        "layers": {name: statistics.median(r[name] for r in rounds)
                   for name in rounds[0]},
        "self_share": {layer: statistics.median(s.get(layer, 0.0)
                                                for s in shares)
                       for layer in shares[-1]},
        "stressed": list(workload.stressed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    _import_repro()
    from repro.workload.cache import cached_generate

    workload = WORKLOADS[args.workload]
    cells = workload.build(args.seed, args.scale, args.workdir)
    for cell in cells:
        if cell.materialize is not None:
            cached_generate(cell.materialize)
    setup_s = perf_counter() - _T0
    out: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    completions = _record_request_metrics()
    deadline = Deadline(args.seconds)
    if args.mode == "measure":
        out.update(measure(cells, completions, deadline))
    else:
        out.update(trace(workload, cells, completions, deadline, args.workdir))
    out["host"] = _host()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
