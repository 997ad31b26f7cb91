"""Simulation runner: fairness protocol, completeness, registry."""

import gc
import weakref

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.runner import ExperimentConfig, make_policy, run_simulation
from repro.faults import parse_faults_spec
from repro.redundancy import parse_redundancy_spec
from repro.policies.static import StaticHighPolicy
from repro.workload.synthetic import SyntheticWorkloadConfig


class TestMakePolicy:
    @pytest.mark.parametrize("name", ["read", "maid", "pdc", "static-high", "static-low"])
    def test_registry_names(self, name):
        assert make_policy(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("nope")

    def test_config_kwargs_forwarded(self):
        policy = make_policy("read", max_transitions_per_day=7)
        assert policy.config.max_transitions_per_day == 7

    def test_static_takes_no_config(self):
        with pytest.raises(ValueError):
            make_policy("static-high", foo=1)


class TestExperimentConfig:
    def test_generate_deterministic(self):
        cfg = ExperimentConfig(workload=SyntheticWorkloadConfig(
            n_files=50, n_requests=500, seed=1))
        fs1, t1 = cfg.generate()
        fs2, t2 = cfg.generate()
        np.testing.assert_array_equal(t1.file_ids, t2.file_ids)
        np.testing.assert_array_equal(fs1.sizes_mb, fs2.sizes_mb)

    def test_heavy_variant(self):
        cfg = ExperimentConfig(workload=SyntheticWorkloadConfig(n_requests=100))
        heavy = cfg.with_heavy_load(4.0)
        assert heavy.workload.n_requests == 400
        assert heavy.disk_params is cfg.disk_params


class TestRunSimulation:
    def test_all_requests_complete(self, small_workload, params):
        fileset, trace = small_workload
        sub = trace.head(1000)
        result = run_simulation(StaticHighPolicy(), fileset, sub, n_disks=4,
                                disk_params=params)
        assert result.n_requests == 1000
        assert result.duration_s >= sub.duration_s
        assert result.mean_response_s > 0
        assert result.p99_response_s >= result.p95_response_s >= result.mean_response_s * 0.5

    def test_finished_cell_frees_its_arrival_lists(self, small_workload, params):
        """The drain's self-rescheduling closure is a reference cycle; the
        per-cell arrival lists must not wait for a full GC pass, or a
        serial sweep's memory climbs cell by cell until one runs."""
        fileset, trace = small_workload
        sub = trace.head(1000)
        times = sub.times_s.tolist()
        gc.collect()
        gc.disable()
        try:
            run_simulation(make_policy("read"), fileset, sub, n_disks=4,
                           disk_params=params)
            leftover = [o for o in gc.get_objects()
                        if type(o) is list and o is not times and o == times]
        finally:
            gc.enable()
        assert leftover == []

    @pytest.mark.parametrize(
        ("policy", "faulty"),
        [("static-high", False), ("static-high", True), ("read", False),
         ("maid", False), ("pdc", False), ("drpm", False),
         ("hibernator", False)],
        ids=["plain", "faults+mirror2", "read", "maid", "pdc", "drpm",
             "hibernator"])
    def test_finished_cell_is_freed_by_reference_counting(
            self, small_workload, params, monkeypatch, policy, faulty):
        """Closing a cell unwires it (pending events, drive hooks, sink
        stop, fault domain) and the policy's shutdown drops its timer,
        periodic-task and budget callbacks, so with the cyclic GC off
        the finished cell's kernel is already gone.  Plain static-high
        replays off the event heap; the rest run on it."""
        kernels = []

        class RecordedSimulator(runner.Simulator):
            def __init__(self) -> None:
                super().__init__()
                kernels.append(weakref.ref(self))

        monkeypatch.setattr(runner, "Simulator", RecordedSimulator)
        fileset, trace = small_workload
        kwargs = ({"faults": parse_faults_spec("seed=3,accel=2e5"),
                   "redundancy": parse_redundancy_spec("mirror2")}
                  if faulty else {})
        gc.collect()
        gc.disable()
        try:
            result = run_simulation(make_policy(policy), fileset,
                                    trace.head(1000), n_disks=4,
                                    disk_params=params, **kwargs)
            alive = [ref() is not None for ref in kernels]
        finally:
            gc.enable()
        assert alive == [False]
        assert result.policy_detail["name"] == policy

    def test_deterministic_repeat(self, small_workload, params):
        fileset, trace = small_workload
        sub = trace.head(800)
        r1 = run_simulation(make_policy("read"), fileset, sub, n_disks=4,
                            disk_params=params)
        r2 = run_simulation(make_policy("read"), fileset, sub, n_disks=4,
                            disk_params=params)
        assert r1.mean_response_s == r2.mean_response_s
        assert r1.total_energy_j == r2.total_energy_j
        assert r1.array_afr_percent == r2.array_afr_percent

    def test_energy_breakdown_sums_to_total(self, small_workload, params):
        fileset, trace = small_workload
        result = run_simulation(make_policy("maid"), fileset, trace.head(1000),
                                n_disks=4, disk_params=params)
        assert sum(result.energy_breakdown_j.values()) == pytest.approx(
            result.total_energy_j)

    def test_per_disk_factors_present(self, small_workload, params):
        fileset, trace = small_workload
        result = run_simulation(make_policy("pdc"), fileset, trace.head(500),
                                n_disks=3, disk_params=params)
        assert len(result.per_disk) == 3
        assert result.array_afr_percent == pytest.approx(
            max(f.afr_percent for f in result.per_disk))

    def test_empty_trace_rejected(self, small_workload, params):
        fileset, trace = small_workload
        with pytest.raises(ValueError):
            run_simulation(StaticHighPolicy(), fileset, trace.head(0),
                           n_disks=2, disk_params=params)

    def test_power_on_energy_floor(self, small_workload, params):
        """Energy can never be below all-disks-idle-low for the duration."""
        fileset, trace = small_workload
        result = run_simulation(make_policy("pdc"), fileset, trace.head(1000),
                                n_disks=4, disk_params=params)
        floor = 4 * params.low.idle_w * result.duration_s
        assert result.total_energy_j >= floor - 1e-6
