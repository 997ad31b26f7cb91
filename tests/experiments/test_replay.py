"""Exact FCFS replay: fixed-speed cells skip the event heap, bit-identically.

A cell that :func:`repro.experiments.runner._replay_refusal` accepts is
served by the closed-form FCFS recurrence instead of the event loop.
These tests reach the event path for the same cell by patching the
refusal, and require every compared ``SimulationResult`` field —
``events_executed`` included — to come out identical, on the golden
static-high cell, a static-low cell, and random tie-heavy traces, both
unsharded and per shard.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.drive import QueueDiscipline
from repro.disk.parameters import DiskSpeed, cheetah_two_speed
from repro.experiments import runner
from repro.experiments.metrics import RequestMetrics
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import ExperimentConfig, make_policy, run_simulation
from repro.experiments.shard import (
    ShardCellSpec,
    ShardPlan,
    merge_shard_results,
    run_shard_cell,
)
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.redundancy import parse_redundancy_spec
from repro.sim.engine import SimulationError
from repro.workload.files import FileSet
from repro.workload.stream import TraceChunk
from repro.workload.synthetic import SyntheticWorkloadConfig
from repro.workload.trace import Trace

PARAMS = cheetah_two_speed()

#: The golden scenario of ``test_golden.py``.
GOLDEN = SyntheticWorkloadConfig(n_files=300, n_requests=12_000, seed=123,
                                 bursty=True, mean_interarrival_s=0.3)


def _compared(result) -> dict:
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result) if f.compare}


def _both(monkeypatch, run):
    """``run()`` replayed, then ``run()`` on the event heap."""
    replayed = run()
    with monkeypatch.context() as patch:
        patch.setattr(runner, "_replay_refusal", lambda cell: "forced")
        evented = run()
    return replayed, evented


def _recording_sinks(monkeypatch) -> list:
    """Every ``RequestMetrics`` the runner builds from now on, in order."""
    seen = []

    class Recorded(RequestMetrics):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self)

    monkeypatch.setattr(runner, "RequestMetrics", Recorded)
    return seen


def _assert_same_completion_order(sinks) -> None:
    replayed, evented = sinks
    np.testing.assert_array_equal(replayed.response_times_s,
                                  evented.response_times_s)
    np.testing.assert_array_equal(replayed.waiting_times_s,
                                  evented.waiting_times_s)


class TestReplayEqualsEventPath:
    def test_golden_static_high_cell(self, monkeypatch):
        fileset, trace = ExperimentConfig(workload=GOLDEN).generate()

        def run():
            return run_simulation(make_policy("static-high"), fileset, trace,
                                  n_disks=6, disk_params=PARAMS)

        replayed, evented = _both(monkeypatch, run)
        assert _compared(replayed) == _compared(evented)
        assert replayed.events_executed == 2 * GOLDEN.n_requests

    def test_static_low_heavy_cell(self, monkeypatch):
        workload = SyntheticWorkloadConfig(n_files=200, n_requests=3_000,
                                           seed=5).heavy(8.0)
        fileset, trace = ExperimentConfig(workload=workload).generate()

        def run():
            return run_simulation(make_policy("static-low"), fileset, trace,
                                  n_disks=4, disk_params=PARAMS)

        replayed, evented = _both(monkeypatch, run)
        assert _compared(replayed) == _compared(evented)

    def test_redundancy_without_faults_replays(self, monkeypatch):
        # the group layout only feeds the CTMC assessment at the close
        fileset, trace = ExperimentConfig(workload=GOLDEN).generate()
        sub = trace.head(2_000)

        def run():
            return run_simulation(make_policy("static-high"), fileset, sub,
                                  n_disks=4, disk_params=PARAMS,
                                  redundancy=parse_redundancy_spec("mirror2"))

        replayed, evented = _both(monkeypatch, run)
        assert replayed.redundancy is not None
        assert _compared(replayed) == _compared(evented)

    def test_low_initial_speed_is_pinned_before_replay(self, monkeypatch):
        fileset, trace = ExperimentConfig(workload=GOLDEN).generate()
        sub = trace.head(2_000)

        def run():
            return run_simulation(make_policy("static-high"), fileset, sub,
                                  n_disks=3, disk_params=PARAMS,
                                  initial_speed=DiskSpeed.LOW)

        replayed, evented = _both(monkeypatch, run)
        assert _compared(replayed) == _compared(evented)

    def test_responses_are_recorded_in_completion_order(self, monkeypatch):
        fileset, trace = ExperimentConfig(workload=GOLDEN).generate()
        sinks = _recording_sinks(monkeypatch)
        _both(monkeypatch, lambda: run_simulation(
            make_policy("static-high"), fileset, trace.head(3_000),
            n_disks=2, disk_params=PARAMS))
        _assert_same_completion_order(sinks)


    def test_fresh_disk_arrival_beats_queued_job_at_a_tie(self, monkeypatch):
        # disk 0 serves two jobs that arrived at t=0 (the second queued);
        # disk 1 first gets work at exactly disk 0's first completion.
        # Both then complete at 2 * service: disk 1's job was dispatched
        # by its arrival (priority -1), disk 0's by a completion
        # (priority 0), so disk 1's completion fires first.
        mode = PARAMS.mode(DiskSpeed.HIGH)
        service = mode.avg_seek_s + mode.avg_rot_latency_s + 1.0 / mode.transfer_mb_s
        fileset = FileSet(np.array([1.0, 1.0]))
        trace = Trace(np.array([0.0, 0.0, service]), np.array([0, 0, 1]))
        sinks = _recording_sinks(monkeypatch)
        _both(monkeypatch, lambda: run_simulation(
            make_policy("static-high"), fileset, trace, n_disks=2,
            disk_params=PARAMS))
        _assert_same_completion_order(sinks)
        assert sinks[0].response_times_s.tolist() == [
            service, service, 2 * service]


# ----------------------------------------------------------------------
# random tie-heavy traces
# ----------------------------------------------------------------------
class _ListStream:
    """A request stream over a fixed trace, in small chunks."""

    def __init__(self, fileset: FileSet, trace: Trace) -> None:
        self.fileset = fileset
        self._trace = trace

    @property
    def n_requests(self) -> int:
        return len(self._trace)

    def chunks(self, chunk_size: int):
        times, ids = self._trace.times_s, self._trace.file_ids
        for lo in range(0, times.size, chunk_size):
            yield TraceChunk(times[lo:lo + chunk_size], ids[lo:lo + chunk_size])


@st.composite
def tie_heavy_cells(draw):
    """(fileset, trace, n_disks): few sizes, arrivals on a coarse grid.

    Equal sizes on several disks and duplicate grid instants make equal
    completion times common; a grid in units of one service time also
    lands arrivals exactly on earlier completions, and t=0 is always
    reachable.
    """
    n_disks = draw(st.integers(1, 5))
    n_files = draw(st.integers(n_disks, 12))
    size = draw(st.sampled_from([0.25, 1.0, 3.0]))
    sizes = draw(st.lists(st.sampled_from([size, size, 2.0 * size]),
                          min_size=n_files, max_size=n_files))
    mode = PARAMS.mode(draw(st.sampled_from([DiskSpeed.HIGH, DiskSpeed.LOW])))
    service = mode.avg_seek_s + mode.avg_rot_latency_s + size / mode.transfer_mb_s
    unit = draw(st.sampled_from([1.0, 0.001, service]))
    ticks = sorted(draw(st.lists(st.integers(0, 12), min_size=1, max_size=40)))
    ids = draw(st.lists(st.integers(0, n_files - 1), min_size=len(ticks),
                        max_size=len(ticks)))
    trace = Trace(np.array(ticks, dtype=np.float64) * unit,
                  np.array(ids, dtype=np.int64))
    return FileSet(np.array(sizes, dtype=np.float64)), trace, n_disks


class TestReplayProperty:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cell=tie_heavy_cells(),
           policy=st.sampled_from(["static-high", "static-low"]))
    def test_unsharded(self, monkeypatch, cell, policy):
        fileset, trace, n_disks = cell
        with monkeypatch.context() as patch:
            sinks = _recording_sinks(patch)
            replayed, evented = _both(patch, lambda: run_simulation(
                make_policy(policy), fileset, trace, n_disks=n_disks,
                disk_params=PARAMS))
        assert _compared(replayed) == _compared(evented)
        # the mean is order-sensitive, but grid responses often sum
        # exactly: pin the recording order itself
        _assert_same_completion_order(sinks)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cell=tie_heavy_cells(), n_shards=st.sampled_from([1, 2, 4]),
           chunk_size=st.integers(1, 7))
    def test_per_shard(self, monkeypatch, cell, n_shards, chunk_size):
        fileset, trace, _ = cell
        plan = ShardPlan(n_disks=4, n_shards=n_shards)
        if len(fileset) < plan.n_disks:
            return  # affinity needs a file per disk
        stream = _ListStream(fileset, trace)

        def run():
            return [run_shard_cell(RunSpec(
                policy="static-high", n_disks=4, workload=stream,
                disk_params=PARAMS,
                shard=ShardCellSpec(plan, s, chunk_size)))
                for s in range(n_shards)]

        replayed, evented = _both(monkeypatch, run)
        assert replayed == evented
        assert merge_shard_results(replayed) == merge_shard_results(evented)


# ----------------------------------------------------------------------
# who replays, and arrival errors
# ----------------------------------------------------------------------
def _cell(policy="static-high", *, queue_discipline=QueueDiscipline.FCFS,
          faults=None, obs=None, trace_path=None):
    fileset = FileSet(np.array([1.0, 2.0, 3.0, 4.0]))
    return runner._build_cell(
        make_policy(policy), fileset, n_disks=2, disk_params=PARAMS,
        initial_speed=DiskSpeed.HIGH, queue_discipline=queue_discipline,
        obs=obs, trace_path=trace_path, faults=faults,
        make_sink=lambda stop: RequestMetrics(expected=4, on_all_done=stop))


class TestRefusals:
    def test_static_fcfs_cells_replay(self):
        assert runner._replay_refusal(_cell("static-high")) is None
        assert runner._replay_refusal(_cell("static-low")) is None

    @pytest.mark.parametrize(("make", "reason"), [
        (lambda tmp: _cell("read"),
         "policy 'read' is not a fixed-speed whole-request policy "
         "(static-high or static-low)"),
        (lambda tmp: _cell("striped-static"),
         "policy 'striped-static' is not a fixed-speed whole-request policy "
         "(static-high or static-low)"),
        (lambda tmp: _cell(queue_discipline=QueueDiscipline.SJF),
         "the queue discipline is not FCFS"),
        (lambda tmp: _cell(faults=FaultConfig(seed=1)),
         "fault injection fails, retries and rebuilds jobs"),
        (lambda tmp: _cell(trace_path=str(tmp / "t.jsonl")),
         "tracing records every event"),
        (lambda tmp: _cell(obs=ObsConfig(sample_interval_s=1.0)),
         "sampling splits the accounting at every tick"),
        (lambda tmp: _cell(obs=ObsConfig(profile=True)),
         "profiling times every event dispatch"),
    ], ids=["read", "striped-static", "sjf", "faults", "trace", "sampler",
            "profile"])
    def test_refusal_reasons(self, tmp_path, make, reason):
        cell = make(tmp_path)
        try:
            assert runner._replay_refusal(cell) == reason
        finally:
            cell.close()

    @pytest.mark.parametrize("obs", ["trace", "profile"])
    def test_refused_static_cell_matches_replay(self, tmp_path, obs):
        fileset, trace = ExperimentConfig(workload=GOLDEN).generate()
        sub = trace.head(2_000)
        config = (ObsConfig(trace_path=str(tmp_path / "t.jsonl"))
                  if obs == "trace" else ObsConfig(profile=True))
        refused = run_simulation(make_policy("static-high"), fileset, sub,
                                 n_disks=3, disk_params=PARAMS, obs=config)
        replayed = run_simulation(make_policy("static-high"), fileset, sub,
                                  n_disks=3, disk_params=PARAMS)
        assert _compared(refused) == _compared(replayed)


class TestArrivalErrors:
    @pytest.mark.parametrize(("times", "message"), [
        ([-1.0, 2.0], "cannot schedule into the past: event time -1.0 < now 0.0"),
        ([1.0, 0.5], "cannot schedule into the past: event time 0.5 < now 1.0"),
        ([1.0, float("nan")], "event time must be finite, got nan"),
        ([1.0, float("inf")], "event time must be finite, got inf"),
    ], ids=["negative", "past", "nan", "inf"])
    def test_same_error_on_both_paths(self, monkeypatch, times, message):
        chunk = (np.array(times), np.array([0, 1]))
        with pytest.raises(SimulationError) as replayed:
            runner._drain(_cell(), [chunk])
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_replay_refusal", lambda cell: "forced")
            with pytest.raises(SimulationError) as evented:
                runner._drain(_cell(), [chunk])
        assert str(replayed.value) == str(evented.value) == message

    def test_past_arrival_across_chunks(self):
        chunks = [(np.array([0.0, 2.0]), np.array([0, 1])),
                  (np.array([1.0]), np.array([2]))]
        with pytest.raises(SimulationError,
                           match="event time 1.0 < now 2.0"):
            runner._drain(_cell(), chunks)
