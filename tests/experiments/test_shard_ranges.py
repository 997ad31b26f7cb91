"""Shard ranges: one stream pass per range, and results that ignore the split.

:func:`repro.experiments.shard.run_sharded_cells` hands each worker a
contiguous range of one cell's shards, and the worker feeds every shard
of the range from a single pass over the stream.  These tests pin:

* how many passes a cell costs (one at ``jobs=1``, one per shard when
  the sweep is journaled);
* that the merged result — ``events_executed`` included — and the
  merged trace bytes are the same for every way of splitting the shards
  into ranges, on the replayed path (static-high FCFS) and on the event
  path (static-high SJF, read), with chunks small enough that blocks
  end mid-burst;
* how a batch of cells fans out: one range per cell, or one per shard
  when there are more workers than cells;
* that a failure inside a range, while serving or while closing,
  publishes none of its trace segments.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.experiments.shard as shard_module
from repro.disk.drive import QueueDiscipline
from repro.disk.parameters import DiskSpeed
from repro.experiments.parallel import CellExecutionError, RunSpec
from repro.experiments.runner import make_policy, run_simulation
from repro.experiments.shard import (
    ShardCellResult,
    ShardCellSpec,
    ShardPlan,
    ShardRangeResult,
    merge_shard_results,
    run_shard_cell,
    run_sharded,
)
from repro.obs import ObsConfig, shard_segment_path
from repro.workload.cache import cached_generate
from repro.workload.files import FileSet
from repro.workload.stream import SyntheticStreamSpec
from repro.workload.synthetic import SyntheticWorkloadConfig
from repro.workload.trace import Trace
from tests.experiments.test_replay import PARAMS, _ListStream, tie_heavy_cells

CFG = SyntheticWorkloadConfig(n_files=150, n_requests=2_000, seed=11,
                              bursty=True, mean_interarrival_s=0.02)
N_DISKS, N_SHARDS = 8, 4
#: Small enough that most blocks end inside a burst.
CHUNK = 97

#: (policy, queue discipline): the replayed path and two event paths.
CASES = {
    "static-high-fcfs": ("static-high", QueueDiscipline.FCFS),
    "static-high-sjf": ("static-high", QueueDiscipline.SJF),
    "read": ("read", QueueDiscipline.FCFS),
}


def _run(case, **kwargs):
    policy, discipline = CASES[case]
    merged, _ = run_sharded(policy, CFG, n_disks=N_DISKS, n_shards=N_SHARDS,
                            chunk_size=CHUNK, queue_discipline=discipline,
                            **kwargs)
    return merged


def _spec(first, count, *, policy="static-high", obs=None, chunk_size=CHUNK,
          discipline=QueueDiscipline.FCFS):
    plan = ShardPlan(n_disks=N_DISKS, n_shards=N_SHARDS)
    return RunSpec(policy=policy, n_disks=N_DISKS, workload=CFG, obs=obs,
                   queue_discipline=discipline,
                   shard=ShardCellSpec(plan, first, chunk_size, count))


@pytest.fixture
def stream_passes(monkeypatch):
    """Count the streams the shard workers open (in this process)."""
    opened: list[object] = []
    original = shard_module.open_stream

    def counting(workload):
        opened.append(workload)
        return original(workload)

    monkeypatch.setattr(shard_module, "open_stream", counting)
    return opened


class TestStreamPasses:
    def test_one_pass_per_cell_at_one_job(self, stream_passes):
        merged = _run("static-high-fcfs", jobs=1)
        assert len(stream_passes) == 1
        assert merged.n_requests == CFG.n_requests

    def test_one_pass_per_shard_when_journaled(self, stream_passes, tmp_path):
        _run("static-high-fcfs", checkpoint=str(tmp_path / "ckpt"))
        assert len(stream_passes) == N_SHARDS

    def test_the_pass_generates_the_stream_once(self, monkeypatch):
        from repro.workload.stream import SyntheticStream

        drawn: list[int] = []
        original = SyntheticStream.chunks

        def counting(self, chunk_size):
            for chunk in original(self, chunk_size):
                drawn.append(len(chunk))
                yield chunk

        monkeypatch.setattr(SyntheticStream, "chunks", counting)
        _run("read", jobs=1)
        assert sum(drawn) == CFG.n_requests


class TestRangesPerCell:
    @pytest.fixture
    def fanned_out(self, monkeypatch):
        """The shard ranges each batch fans out into (served serially)."""
        batches: list[list[tuple[int, int]]] = []
        original = shard_module.run_cells

        def serial(specs, jobs):
            batches.append([(spec.shard.index, spec.shard.count)
                            for spec in specs])
            return original(specs, jobs=1)

        monkeypatch.setattr(shard_module, "run_cells", serial)
        return batches

    @pytest.mark.parametrize("n_cells, jobs, ranges", [
        (1, 1, [(0, 4)]),
        (2, 2, [(0, 4)] * 2),
        (3, 2, [(0, 4)] * 3),
        (1, 2, [(0, 1), (1, 1), (2, 1), (3, 1)]),
        (2, 3, [(0, 1), (1, 1), (2, 1), (3, 1)] * 2),
    ])
    def test_whole_cells_unless_workers_would_idle(self, fanned_out,
                                                   n_cells, jobs, ranges):
        cells = [RunSpec(policy="static-high", n_disks=N_DISKS,
                         workload=dataclasses.replace(CFG, seed=seed))
                 for seed in range(n_cells)]
        merged, _ = shard_module.run_sharded_cells(
            cells, n_shards=N_SHARDS, chunk_size=CHUNK, jobs=jobs)
        assert fanned_out == [ranges]
        assert [r.n_requests for r in merged] == [CFG.n_requests] * n_cells


class TestPartitionIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_merge_ignores_jobs_and_journaling(self, case, tmp_path):
        base = _run(case, jobs=1)
        assert base.events_executed > 2 * CFG.n_requests - 1
        assert _run(case, jobs=2) == base
        assert _run(case, jobs=N_SHARDS) == base
        assert _run(case, checkpoint=str(tmp_path / "ckpt")) == base

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("split", [(4,), (2, 2), (1, 3), (3, 1),
                                       (1, 1, 1, 1)],
                             ids=lambda split: "+".join(map(str, split)))
    def test_every_contiguous_split_gives_the_same_partials(self, case, split):
        policy, discipline = CASES[case]
        partials: list[ShardCellResult] = []
        first = 0
        for count in split:
            raw = run_shard_cell(_spec(first, count, policy=policy,
                                       discipline=discipline))
            if count == 1:
                assert isinstance(raw, ShardCellResult)
                partials.append(raw)
            else:
                assert isinstance(raw, ShardRangeResult)
                assert [r.shard_index for r in raw.shards] == list(
                    range(first, first + count))
                assert raw.events_executed == sum(
                    r.events_executed for r in raw.shards)
                partials.extend(raw.shards)
            first += count
        whole = run_shard_cell(_spec(0, N_SHARDS, policy=policy,
                                     discipline=discipline))
        assert tuple(partials) == whole.shards
        assert merge_shard_results(partials) == merge_shard_results(whole.shards)

    @pytest.mark.parametrize("case", ["static-high-sjf", "read"])
    def test_event_path_resumes_where_an_unbroken_stream_would_be(self, case):
        # chunk boundaries stop and resume every shard's kernel; one
        # block per shard never does, and the merge must not tell them apart
        policy, discipline = CASES[case]
        whole, _ = run_sharded(policy, CFG, n_disks=N_DISKS, n_shards=N_SHARDS,
                               chunk_size=10**6, queue_discipline=discipline)
        assert _run(case) == whole

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_shard_in_small_blocks_equals_the_plain_runner(self, case):
        policy, discipline = CASES[case]
        fileset, trace = cached_generate(CFG)
        plain = run_simulation(make_policy(policy), fileset, trace,
                               n_disks=N_DISKS, queue_discipline=discipline)
        sharded, _ = run_sharded(policy, SyntheticStreamSpec(CFG),
                                 n_disks=N_DISKS, n_shards=1,
                                 chunk_size=CHUNK, queue_discipline=discipline)
        for f in ("n_requests", "duration_s", "total_energy_j",
                  "array_afr_percent", "per_disk", "total_transitions",
                  "internal_jobs", "energy_breakdown_j", "events_executed"):
            assert getattr(sharded, f) == getattr(plain, f), f
        assert sharded.mean_response_s == pytest.approx(plain.mean_response_s,
                                                        rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(cell=tie_heavy_cells(), chunk_size=st.integers(1, 7),
           policy=st.sampled_from(["static-high", "read"]))
    def test_resumed_arrivals_keep_their_place_among_ties(self, cell,
                                                          chunk_size, policy):
        # SJF on the event heap: an arrival that lands on a completion
        # instant must still be queued before that completion picks the
        # next job, whether or not a block boundary fell just before it
        fileset, trace, n_disks = cell
        # READ needs two disks and two files to rank
        assume(policy != "read" or min(n_disks, len(fileset)) >= 2)
        stream = _ListStream(fileset, trace)

        def run(size):
            return run_shard_cell(RunSpec(
                policy=policy, n_disks=n_disks, workload=stream,
                disk_params=PARAMS, queue_discipline=QueueDiscipline.SJF,
                shard=ShardCellSpec(ShardPlan(n_disks, 1), 0, size)))

        assert run(chunk_size) == run(len(trace))

    def test_resumed_arrival_is_queued_before_a_same_instant_completion(self):
        # one SJF disk: two long jobs at t=0, then a short one exactly when
        # the first completes.  It must be in the queue when that
        # completion picks the next job (arrivals run at priority -1),
        # also when a block boundary falls just before it.
        mode = PARAMS.mode(DiskSpeed.HIGH)
        service = mode.avg_seek_s + mode.avg_rot_latency_s + 2.0 / mode.transfer_mb_s
        stream = _ListStream(FileSet(np.array([2.0, 1.0])),
                             Trace(np.array([0.0, 0.0, service]),
                                   np.array([0, 0, 1])))

        def run(size):
            return run_shard_cell(RunSpec(
                policy="static-high", n_disks=1, workload=stream,
                disk_params=PARAMS, queue_discipline=QueueDiscipline.SJF,
                shard=ShardCellSpec(ShardPlan(1, 1), 0, size)))

        whole = run(3)
        assert run(2) == whole
        assert run(1) == whole

    def test_merged_trace_bytes_ignore_the_split(self, tmp_path):
        def traced(tag, **kwargs):
            path = tmp_path / tag / "trace.jsonl"
            _run("static-high-fcfs", obs=ObsConfig(trace_path=str(path)),
                 **kwargs)
            return path.read_bytes()

        base = traced("j1", jobs=1)
        assert base.count(b"\n") > 2 * CFG.n_requests
        assert traced("j2", jobs=2) == base
        assert traced("j4", jobs=N_SHARDS) == base
        assert traced("journaled", checkpoint=str(tmp_path / "ckpt")) == base


class TestRanges:
    def test_range_must_fit_the_plan(self):
        plan = ShardPlan(n_disks=N_DISKS, n_shards=N_SHARDS)
        with pytest.raises(ValueError, match="out of bounds"):
            ShardCellSpec(plan, 2, count=3)
        with pytest.raises(ValueError, match="count"):
            ShardCellSpec(plan, 0, count=0)

    def test_label_names_the_range(self):
        plan = ShardPlan(n_disks=64, n_shards=8)
        spec = RunSpec(policy="static-high", n_disks=64, workload=CFG)
        ranged = dataclasses.replace(spec, shard=ShardCellSpec(plan, 0, count=4))
        single = dataclasses.replace(spec, shard=ShardCellSpec(plan, 4))
        assert ranged.label() == "static-high x 64 disks [shards 1-4/8]"
        assert single.label() == "static-high x 64 disks [shard 5/8]"

    def test_a_failing_shard_publishes_no_segment_of_its_range(
            self, monkeypatch, tmp_path):
        sinks: list[object] = []
        original_init = shard_module._ShardMetrics.__init__
        original_complete = shard_module._ShardMetrics.on_complete

        def init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            sinks.append(self)

        def on_complete(self, job):
            if self is sinks[2] and self.completed == 5:
                raise RuntimeError("disk controller on fire")
            original_complete(self, job)

        monkeypatch.setattr(shard_module._ShardMetrics, "__init__", init)
        monkeypatch.setattr(shard_module._ShardMetrics, "on_complete",
                            on_complete)
        trace = tmp_path / "trace.jsonl"
        with pytest.raises(CellExecutionError,
                           match=r"\[shards 1-4/4\].*disk controller on fire"):
            _run("static-high-fcfs", obs=ObsConfig(trace_path=str(trace)))
        for s in range(N_SHARDS):
            segment = shard_segment_path(str(trace), s)
            assert not segment.exists(), segment
            assert segment.with_name(segment.name + ".partial").exists()
        assert not trace.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_a_shard_failing_to_close_publishes_no_segment_of_its_range(
            self, monkeypatch, tmp_path):
        # the shards before it are already captured: their segments must
        # still wait for the whole range
        original = shard_module._ShardRun.capture

        def capture(self):
            if self.index == 2:
                raise OSError("segment volume full")
            return original(self)

        monkeypatch.setattr(shard_module._ShardRun, "capture", capture)
        trace = tmp_path / "trace.jsonl"
        with pytest.raises(CellExecutionError, match="segment volume full"):
            _run("static-high-fcfs", obs=ObsConfig(trace_path=str(trace)))
        for s in range(N_SHARDS):
            segment = shard_segment_path(str(trace), s)
            assert not segment.exists(), segment
            assert segment.with_name(segment.name + ".partial").exists()
        assert not trace.exists()
