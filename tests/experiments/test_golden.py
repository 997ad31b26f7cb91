"""Golden end-to-end regression snapshots.

A fixed-seed, fixed-workload comparison whose headline numbers are
pinned to the values produced at the time this test was written.  Any
behavioral drift anywhere in the stack — trace generation, queueing,
the energy/thermal ledgers, PRESS scoring, fault injection — moves one
of these numbers and fails loudly, which is exactly the point: the
qualitative ordering tests elsewhere would happily absorb a silent
5% shift.

Tolerances are tight (1e-9 relative) rather than exact-equality so the
snapshot survives benign float-summation differences across platforms
while still catching any real change.  If a deliberate change lands
(new integration order, different ledger granularity), regenerate the
constants with the recipe in each test's docstring and say so in the
commit message.
"""

import pytest

from repro.experiments.runner import ExperimentConfig, make_policy, run_simulation
from repro.faults import FaultConfig
from repro.redundancy import SCHEME_PRESETS
from repro.workload.synthetic import SyntheticWorkloadConfig

REL = 1e-9

#: The pinned scenario: bursty arrivals slow enough (0.3 s mean gap)
#: that idling policies actually cycle speeds, on a 6-disk array.
WORKLOAD = SyntheticWorkloadConfig(n_files=300, n_requests=12_000, seed=123,
                                   bursty=True, mean_interarrival_s=0.3)


@pytest.fixture(scope="module")
def workload():
    cfg = ExperimentConfig(workload=WORKLOAD)
    fileset, trace = cfg.generate()
    return cfg, fileset, trace


def _run(workload, policy, **kwargs):
    cfg, fileset, trace = workload
    return run_simulation(make_policy(policy), fileset, trace, n_disks=6,
                          disk_params=cfg.disk_params, **kwargs)


class TestFaultFreeSnapshot:
    """Two cells of the fault-free comparison, pinned.

    Regenerate with::

        r = run_simulation(make_policy(name), fileset, trace, n_disks=6)
        print(r.total_energy_j, r.array_afr_percent, r.mean_response_s, ...)
    """

    def test_pdc_cell(self, workload):
        r = _run(workload, "pdc")
        assert r.total_energy_j == pytest.approx(189637.55390271635, rel=REL)
        assert r.array_afr_percent == pytest.approx(48.29607502609301, rel=REL)
        assert r.mean_response_s == pytest.approx(0.08559092029231885, rel=REL)
        assert r.p95_response_s == pytest.approx(0.014992844677078664, rel=REL)
        assert r.p99_response_s == pytest.approx(4.008578951977422, rel=REL)
        assert r.total_transitions == 369
        assert r.faults is None

    def test_static_high_cell(self, workload):
        r = _run(workload, "static-high")
        assert r.total_energy_j == pytest.approx(214775.11340099556, rel=REL)
        assert r.array_afr_percent == pytest.approx(10.500139, rel=REL)
        assert r.mean_response_s == pytest.approx(0.008954224781555414, rel=REL)
        assert r.p95_response_s == pytest.approx(0.00970981319198927, rel=REL)
        assert r.p99_response_s == pytest.approx(0.014523795322306798, rel=REL)
        assert r.total_transitions == 0
        assert r.faults is None


class TestFaultInjectionSnapshot:
    """One fault-injected cell: the realized failure schedule and every
    derived reliability metric, pinned.  This is the determinism
    acceptance criterion made executable — same seed, same schedule,
    forever."""

    EXPECTED_SCHEDULE = (
        (0, 194.36058597409854), (1, 650.6190106528347),
        (3, 664.953992359861), (0, 1208.3414333100498),
        (4, 1582.3370958412338), (2, 1905.0888443981435),
        (1, 1956.9970089656258), (2, 2543.0147752856014),
        (5, 2971.5391882393014), (1, 3085.441331804838),
        (2, 3269.8865308458694), (0, 3310.541591207325),
    )

    @pytest.fixture(scope="class")
    def result(self, workload):
        return _run(workload, "read", faults=FaultConfig(seed=3, accel=2e5))

    def test_failure_schedule(self, result):
        sched = result.faults.failure_schedule
        assert [d for d, _ in sched] == [d for d, _ in self.EXPECTED_SCHEDULE]
        for (_, got), (_, want) in zip(sched, self.EXPECTED_SCHEDULE):
            assert got == pytest.approx(want, rel=REL)

    def test_reliability_metrics(self, result):
        f = result.faults
        assert f.rebuilds_completed == 8
        assert f.requests_failed == 4259
        assert f.requests_retried == 8523
        assert f.requests_redirected == 0
        assert f.data_loss_events == 12
        assert f.files_lost == 631
        assert f.availability == pytest.approx(0.7060143506652574, rel=REL)
        assert f.rebuild_energy_j == pytest.approx(8.77064511049366, rel=REL)
        assert f.downtime_s == pytest.approx(6181.9480085294745, rel=REL)

    def test_energy_under_faults(self, result):
        assert result.total_energy_j == pytest.approx(131957.592490413, rel=REL)

    def test_rerun_is_identical(self, workload, result):
        again = _run(workload, "read", faults=FaultConfig(seed=3, accel=2e5))
        assert again.faults == result.faults
        assert again.total_energy_j == result.total_energy_j
        assert again.mean_response_s == result.mean_response_s


class TestRedundancySnapshot:
    """One fault-injected ``block4-2`` cell (8 disks, one group), pinned.

    The accelerated hazard pierces the group repeatedly, so this single
    cell exercises every redundancy path: degraded k-leg reconstruction,
    rebuild read fan-out, the full health ladder down to LOST and back,
    and the CTMC assessment over measured rebuild times.  Regenerate
    with the same recipe as the other snapshots (run the cell, print the
    ``result.redundancy`` fields).
    """

    @pytest.fixture(scope="class")
    def result(self, workload):
        cfg, fileset, trace = workload
        return run_simulation(make_policy("read"), fileset, trace, n_disks=8,
                              disk_params=cfg.disk_params,
                              faults=FaultConfig(seed=3, accel=2e5),
                              redundancy=SCHEME_PRESETS["block4-2"])

    def test_reconstruction_counters(self, result):
        red = result.redundancy
        assert red.scheme == "block4-2"
        assert red.n_groups == 1
        assert red.reconstruct_reads == 1470
        assert red.reconstruct_legs == 8820  # k=6 legs per reconstruct
        assert red.rebuild_read_legs == 18
        assert red.domain_outages == 0

    def test_group_state_history(self, result):
        red = result.redundancy
        assert red.final_states == ("lost",)
        assert len(red.state_changes) == 15
        assert red.groups_lost_events == 4
        t, gid, old, new = red.state_changes[0]
        assert (gid, old, new) == (0, "healthy", "degraded")
        assert t == pytest.approx(194.36058597409857, rel=REL)
        t, gid, old, new = red.state_changes[-1]
        assert (gid, old, new) == (0, "critical", "lost")
        assert t == pytest.approx(3010.730722002629, rel=REL)

    def test_fault_metrics_under_redundancy(self, result):
        f = result.faults
        assert f.disk_failures == 17
        assert f.rebuilds_completed == 12
        assert f.requests_failed == 2504
        assert f.requests_retried == 5025
        assert f.requests_redirected == 1470
        assert f.data_loss_events == 12
        assert f.files_lost == 443
        assert f.availability == pytest.approx(0.6823270984241971, rel=REL)
        assert result.total_energy_j == pytest.approx(163524.3218158209, rel=REL)

    def test_ctmc_assessment(self, result):
        c = result.redundancy.ctmc
        assert c.scheme == "block4-2"
        assert (c.n_units, c.unit_size, c.tolerance) == (1, 8, 2)
        assert c.rebuild_hours == pytest.approx(0.16668084821047732, rel=REL)
        assert c.mttdl_array_years == pytest.approx(16913521454.521618, rel=1e-6)
        assert c.p_loss_array == pytest.approx(5.912260679525614e-11, rel=1e-6)

    def test_scheme_none_is_bit_identical_to_no_redundancy(self, workload):
        """``--redundancy none`` must not perturb anything: the run is
        the plain run, field for field, with no summary attached."""
        plain = _run(workload, "read")
        none_run = _run(workload, "read", redundancy=SCHEME_PRESETS["none"])
        assert none_run.redundancy is None
        assert none_run.total_energy_j == plain.total_energy_j
        assert none_run.mean_response_s == plain.mean_response_s
        assert none_run.p99_response_s == plain.p99_response_s
        assert none_run.array_afr_percent == plain.array_afr_percent
        assert none_run.total_transitions == plain.total_transitions

    def test_rerun_is_identical(self, workload, result):
        cfg, fileset, trace = workload
        again = run_simulation(make_policy("read"), fileset, trace, n_disks=8,
                               disk_params=cfg.disk_params,
                               faults=FaultConfig(seed=3, accel=2e5),
                               redundancy=SCHEME_PRESETS["block4-2"])
        assert again.redundancy == result.redundancy
        assert again.faults == result.faults
        assert again.total_energy_j == result.total_energy_j
