"""The READ policy — Fig. 6 of the paper, end to end.

Initial round (lines 1-7): from the configured skew parameter theta,
compute the popular/unpopular split (Eq. 4) and the hot/cold disk ratio
gamma (Eq. 5) using size-rank-estimated loads; configure hot disks high
/ cold disks low; deal files round-robin within their zones.

Epoch loop (lines 8-25): the Access Tracking Manager counts accesses
into the File Popularity Table; at each epoch boundary the File
Redistribution Daemon re-sorts files by observed counts, re-estimates
theta, re-splits, and migrates files whose class changed — at real I/O
cost.  Finally the transition-budget check (lines 20-24): any disk that
has spent half its daily budget S gets its idleness threshold H doubled,
and a disk at the full budget simply stops transitioning for the day.

Speed control: hot disks may sink to LOW after H idle seconds (budget
permitting) and any LOW disk spins up under the demand rule — both
directions debit the same budget, which is the mechanism that holds the
PRESS frequency factor down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.migration import plan_migrations
from repro.core.placement import ZoneLayout, compute_zone_layout, round_robin_zone_placement
from repro.core.popularity import estimate_file_loads, split_by_popularity, zone_load_ratio_gamma
from repro.disk.parameters import DiskSpeed
from repro.policies.base import Policy, SpeedControlConfig, SpeedController, TransitionBudget
from repro.policies.tracking import AccessTracker
from repro.sim.timers import PeriodicTask
from repro.util.validation import require, require_in_range, require_positive
from repro.workload.request import Request
from repro.workload.zipf import skew_theta, theta_from_counts

__all__ = ["READConfig", "READPolicy"]


@dataclass(frozen=True, slots=True)
class READConfig:
    """READ's inputs (the input list of Fig. 6).

    Attributes
    ----------
    epoch_s:
        Epoch length P.
    initial_theta:
        Skew parameter theta for the first placement round, before any
        accesses are observed.  Defaults to the 80/20 rule's theta.
    initial_zipf_alpha:
        Zipf exponent for the first round's load *estimates* (Eq. 5
        needs loads before any are measured).
    max_transitions_per_day:
        The cap S; the paper's experiments use S = 40 (Sec. 5.2).
    speed:
        Idleness threshold H and the spin-up demand rule.
    max_migrations_per_epoch:
        Optional FRD cost bound (None = unlimited).
    adaptive_threshold:
        Whether crossing S/2 doubles H (Fig. 6 line 22); switchable for
        the ablation bench.
    """

    epoch_s: float = 900.0
    initial_theta: float = skew_theta(80.0, 20.0)
    initial_zipf_alpha: float = 0.8
    max_transitions_per_day: int = 40
    #: READ's cold zone is a *slow service class*, not a sleeping tier:
    #: cold disks serve at low speed and only spin up under real backlog
    #: — that (plus the budget) is how READ keeps transitions rare.
    speed: SpeedControlConfig = SpeedControlConfig(
        idle_threshold_s=60.0, spin_up_queue_len=8, spin_up_wait_s=5.0)
    max_migrations_per_epoch: Optional[int] = None
    adaptive_threshold: bool = True

    def __post_init__(self) -> None:
        require_positive(self.epoch_s, "epoch_s")
        require_in_range(self.initial_theta, 1e-6, 1.0 - 1e-6, "initial_theta")
        require_in_range(self.initial_zipf_alpha, 0.0, 1.0, "initial_zipf_alpha")
        require(self.max_transitions_per_day >= 1,
                f"max_transitions_per_day must be >= 1, got {self.max_transitions_per_day}")
        if self.max_migrations_per_epoch is not None:
            require(self.max_migrations_per_epoch >= 0,
                    "max_migrations_per_epoch must be >= 0")


class READPolicy(Policy):
    """Reliability and Energy Aware Distribution (the paper's Sec. 4)."""

    name = "read"

    def __init__(self, config: READConfig | None = None) -> None:
        super().__init__()
        self.config = config or READConfig()
        self.layout: Optional[ZoneLayout] = None
        self._controller: Optional[SpeedController] = None
        self._budget: Optional[TransitionBudget] = None
        self._tracker: Optional[AccessTracker] = None
        self._epoch_task: Optional[PeriodicTask] = None
        self._theta = self.config.initial_theta
        self.migrations_performed = 0

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "epoch_s": self.config.epoch_s,
            "theta": self._theta,
            "n_hot": self.layout.n_hot if self.layout else None,
            "transition_cap_per_day": self.config.max_transitions_per_day,
            "idle_threshold_s": self.config.speed.idle_threshold_s,
            "adaptive_threshold": self.config.adaptive_threshold,
        }

    @property
    def theta(self) -> float:
        """Current skew-parameter estimate (re-fit each epoch)."""
        return self._theta

    # ------------------------------------------------------------------
    # initial round (Fig. 6 lines 1-7)
    # ------------------------------------------------------------------
    def initial_layout(self) -> None:
        array = self._require_bound()
        cfg = self.config
        sizes = self.fileset.sizes_mb

        # line 5: sort by size, non-decreasing == popularity estimate
        ranking = self.fileset.ids_sorted_by_size()
        split = split_by_popularity(ranking, cfg.initial_theta)
        loads = estimate_file_loads(sizes, ranking, zipf_alpha=cfg.initial_zipf_alpha)
        gamma = zone_load_ratio_gamma(split, loads)
        self.layout = compute_zone_layout(gamma, array.n_disks)

        # line 4: hot zone high speed, cold zone low speed (free, t=0)
        for disk_id in range(array.n_disks):
            target = DiskSpeed.HIGH if self.layout.is_hot(disk_id) else DiskSpeed.LOW
            if array.drive(disk_id).speed is not target:
                array.drive(disk_id).force_speed(target)

        # lines 6-7: round-robin deal within zones
        placement = round_robin_zone_placement(split, self.layout, sizes,
                                               array.params.capacity_mb)
        array.place_all(placement)

        # epoch machinery (lines 8-25)
        self._tracker = AccessTracker(len(self.fileset))
        self._budget = TransitionBudget(
            self.sim, cfg.max_transitions_per_day,
            on_half_spent=self._on_half_budget if cfg.adaptive_threshold else None,
        )
        self._controller = SpeedController(self.sim, array, cfg.speed,
                                           budget=self._budget)
        self._epoch_task = PeriodicTask(self.sim, cfg.epoch_s, self._on_epoch,
                                        priority=20)

    # ------------------------------------------------------------------
    # per-request path (ATM recording + routing)
    # ------------------------------------------------------------------
    def route(self, request: Request) -> None:
        # once per trace request — locals bound up front, misuse check first
        tracker = self._tracker
        controller = self._controller
        if tracker is None or controller is None:
            self._require_bound()  # raises PolicyError when unbound
            raise AssertionError("route() called before initial_layout()")
        fid = request.file_id
        tracker.record(fid)
        target = self.array.location_of(fid)
        controller.check_spin_up(target)
        self.submit(request, disk_id=target)

    def on_disk_idle(self, disk_id: int) -> None:
        if self._controller is not None:
            self._controller.on_disk_idle(disk_id)

    def on_disk_busy(self, disk_id: int) -> None:
        if self._controller is not None:
            self._controller.on_disk_busy(disk_id)

    def shutdown(self) -> None:
        if self._epoch_task is not None:
            self._epoch_task.stop()
        if self._controller is not None:
            self._controller.shutdown()
        if self._budget is not None:
            self._budget.close()

    # ------------------------------------------------------------------
    # budget adaptation (Fig. 6 lines 20-24)
    # ------------------------------------------------------------------
    def _on_half_budget(self, disk_id: int) -> None:
        assert self._controller is not None
        current = self._controller.idle_threshold(disk_id)
        self._controller.set_idle_threshold(disk_id, 2.0 * current)

    # ------------------------------------------------------------------
    # FRD epoch (Fig. 6 lines 9-19)
    # ------------------------------------------------------------------
    def _on_epoch(self, _tick: int) -> None:
        assert self._tracker is not None and self.layout is not None
        counts = self._tracker.roll_epoch()
        if counts.sum() == 0:
            return

        # line 11: re-estimate theta from observed accesses
        self._theta = float(np.clip(theta_from_counts(counts), 1e-6, 1.0 - 1e-6))
        ranking = self._tracker.popularity_ranking(counts=counts)
        split = split_by_popularity(ranking, self._theta)

        plan = plan_migrations(
            split, self.layout, self.array.placement,
            np.asarray(self.array.used_mb, dtype=np.float64),
            self.fileset.sizes_mb, self.array.params.capacity_mb,
            max_moves=self.config.max_migrations_per_epoch,
        )
        moved = 0
        for fid, dst in plan.moves:
            if self.array.migrate_file(fid, dst):
                moved += 1
        self.migrations_performed += moved
