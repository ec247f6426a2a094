"""The immutable product of a scheduling run, with validation and cost
accounting.

A :class:`Schedule` is a set of :class:`~repro.cloud.vm.VM` objects whose
placements cover every workflow task exactly once.  It knows how to
check its own feasibility (dependencies, transfers, per-VM serialization)
and how to price itself (BTU rent + banded cross-region egress).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from repro.cloud.platform import CloudPlatform
from repro.cloud.vm import VM
from repro.errors import InvalidScheduleError
from repro.workflows.dag import Workflow

_EPS = 1e-6


@dataclass(frozen=True)
class Schedule:
    """A complete task-to-VM mapping with concrete times."""

    workflow: Workflow
    platform: CloudPlatform
    vms: List[VM]
    algorithm: str = ""
    provisioning: str = ""
    _task_vm: Dict[str, VM] = field(default_factory=dict, repr=False)
    _task_placement: Dict[str, object] = field(default_factory=dict, repr=False)
    #: feasibility memo — placements are immutable, so one successful
    #: :meth:`validate` holds for the schedule's lifetime
    _checked: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._task_vm and self._task_placement:
            # pre-indexed by a fused kernel, which guarantees
            # exactly-once coverage by construction — skip the walk
            return
        mapping: Dict[str, VM] = {}
        placement: Dict[str, object] = {}
        for vm in self.vms:
            for p in vm.placements:
                if p.task_id in mapping:
                    raise InvalidScheduleError(
                        f"task {p.task_id!r} placed on both "
                        f"{mapping[p.task_id].name} and {vm.name}"
                    )
                mapping[p.task_id] = vm
                placement[p.task_id] = p
        missing = set(self.workflow.task_ids) - set(mapping)
        if missing:
            raise InvalidScheduleError(f"tasks never scheduled: {sorted(missing)}")
        extra = set(mapping) - set(self.workflow.task_ids)
        if extra:
            raise InvalidScheduleError(f"placements for unknown tasks: {sorted(extra)}")
        object.__setattr__(self, "_task_vm", mapping)
        object.__setattr__(self, "_task_placement", placement)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def vm_of(self, task_id: str) -> VM:
        try:
            return self._task_vm[task_id]
        except KeyError:
            raise InvalidScheduleError(f"unknown task {task_id!r}") from None

    def start(self, task_id: str) -> float:
        try:
            return self._task_placement[task_id].start
        except KeyError:
            raise InvalidScheduleError(f"unknown task {task_id!r}") from None

    def finish(self, task_id: str) -> float:
        try:
            return self._task_placement[task_id].end
        except KeyError:
            raise InvalidScheduleError(f"unknown task {task_id!r}") from None

    @property
    def label(self) -> str:
        if self.algorithm and self.provisioning:
            return f"{self.algorithm}+{self.provisioning}"
        return self.algorithm or self.provisioning or "schedule"

    # ------------------------------------------------------------------
    # metrics (makespan and costs are cached: the placements are final)
    # ------------------------------------------------------------------
    @cached_property
    def makespan(self) -> float:
        """Finish of the last task (workflows are released at t=0)."""
        return max(p.end for vm in self.vms for p in vm.placements)

    @property
    def vm_count(self) -> int:
        return len(self.vms)

    @property
    def total_btus(self) -> int:
        billing = self.platform.billing
        return sum(billing.btus(vm.uptime_seconds) for vm in self.vms)

    @cached_property
    def rent_cost(self) -> float:
        billing = self.platform.billing
        return sum(vm.cost(billing) for vm in self.vms)

    def check_constraints(self, constraints) -> tuple:
        """Violations of *constraints* (a
        :class:`~repro.core.constraints.Constraints`) against this plan's
        makespan/cost/VM count; empty tuple means the plan is feasible.
        Realized (fault-/market-replayed) outcomes can still differ —
        the autotuner judges those, not the static plan.
        """
        return constraints.check(
            makespan=self.makespan,
            cost=self.total_cost,
            vm_count=self.vm_count,
        )

    def transfer_volumes(self) -> List[Tuple[str, str, float]]:
        """Cross-region edges as ``(src_region, dst_region, gb)``, in
        deterministic (parent, child) order."""
        out = []
        for u, v, gb in sorted(self.workflow.edges()):
            src, dst = self.vm_of(u), self.vm_of(v)
            if src is not dst and src.region.name != dst.region.name and gb > 0:
                out.append((src.region.name, dst.region.name, gb))
        return out

    @cached_property
    def transfer_cost(self) -> float:
        """Banded egress cost over the schedule's cross-region volume.

        Volumes are accumulated per source region in deterministic edge
        order, so the free first GB is consumed consistently.
        """
        billing = self.platform.billing
        totals: Dict[str, float] = {}
        cost = 0.0
        for src_name, dst_name, gb in self.transfer_volumes():
            src = self.platform.region(src_name)
            dst = self.platform.region(dst_name)
            already = totals.get(src_name, 0.0)
            cost += billing.transfer_cost(gb, src, dst, monthly_total_gb=already)
            totals[src_name] = already + gb
        return cost

    @cached_property
    def total_cost(self) -> float:
        return self.rent_cost + self.transfer_cost

    @property
    def total_idle_seconds(self) -> float:
        """Paid-but-unused VM time summed over all VMs (paper Fig. 5)."""
        billing = self.platform.billing
        return sum(vm.idle_seconds(billing) for vm in self.vms)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "Schedule":
        """Check full feasibility; raises :class:`InvalidScheduleError`.

        Verifies (a) per-VM non-overlap (also enforced at placement
        time), (b) every task starts no earlier than each predecessor's
        finish plus the platform transfer time, (c) durations equal the
        task work divided by the hosting instance's speed-up.

        Memoized: the object is immutable, so a second call returns
        immediately (the fused kernels pre-validate vectorially and set
        the memo themselves).
        """
        if self._checked:
            return self
        for vm in self.vms:
            ordered = sorted(vm.placements, key=lambda p: p.start)
            for a, b in zip(ordered, ordered[1:]):
                if a.end > b.start + _EPS:
                    raise InvalidScheduleError(
                        f"{vm.name}: {a.task_id!r} and {b.task_id!r} overlap"
                    )
            for p in vm.placements:
                expect = self.platform.runtime(self.workflow.task(p.task_id), vm.itype)
                if abs(p.duration - expect) > _EPS * max(1.0, expect):
                    raise InvalidScheduleError(
                        f"{vm.name}: {p.task_id!r} runs {p.duration:.6f}s, "
                        f"expected {expect:.6f}s on {vm.itype.name}"
                    )
        for u, v, gb in self.workflow.edges():
            src, dst = self.vm_of(u), self.vm_of(v)
            dt = self.platform.transfer_time(
                gb,
                src.itype,
                dst.itype,
                same_vm=src is dst,
                src_region=src.region,
                dst_region=dst.region,
            )
            if self.start(v) + _EPS < self.finish(u) + dt:
                raise InvalidScheduleError(
                    f"dependency violated: {v!r} starts at {self.start(v):.3f} "
                    f"but {u!r} finishes at {self.finish(u):.3f} + "
                    f"transfer {dt:.3f}"
                )
        object.__setattr__(self, "_checked", True)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Schedule({self.label}, vms={self.vm_count}, "
            f"makespan={self.makespan:.0f}s, cost=${self.total_cost:.2f})"
        )
