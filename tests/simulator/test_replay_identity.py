"""Differential test: the recurrence replay observes exactly the DES.

:func:`repro.kernels.replay.replay_verify` stands in for the
discrete-event simulator on every no-fault verify, so its replayed
start and finish times must *equal* (``==``, not within tolerance) the
:class:`~repro.simulator.trace.SimulationResult` ``task_start`` /
``task_finish`` of the same schedule — on the paper's full grid, on
multi-region, cold-boot and subclassed-network plans — and it must
hand anything it cannot reproduce (tracing, metrics, markets) back to
the DES.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.network import NetworkModel
from repro.cloud.platform import CloudPlatform
from repro.core.allocation import HeftScheduler
from repro.core.allocation.locality import LocalityHeftScheduler, pin_regions
from repro.core.baseline import reference_schedule
from repro.errors import SimulationError
from repro.experiments.config import paper_strategies, paper_workflows
from repro.experiments.scenarios import paper_scenarios
from repro.kernels.replay import _replay_times, replay_verify
from repro.simulator.executor import simulate_schedule
from repro.workflows.dag import Workflow
from repro.workflows.task import Task
from tests.core.test_locality import _PINS, _two_branch_workflow

PLATFORM = CloudPlatform.ec2()


def assert_replay_is_des(schedule) -> None:
    """Replayed times equal the DES's observed times, bit for bit, and
    the replay verifies the plan the DES verifies."""
    des = simulate_schedule(schedule, check=True)
    ids, starts, finishes = _replay_times(schedule)
    assert dict(zip(ids, starts)) == des.task_start
    assert dict(zip(ids, finishes)) == des.task_finish
    assert replay_verify(schedule)


def _grid_schedules(seed: int):
    for scenario in paper_scenarios(PLATFORM):
        for wf_name, shape in paper_workflows().items():
            concrete = scenario.apply(shape, np.random.default_rng(seed))
            yield f"{scenario.name}/{wf_name}/reference", reference_schedule(
                concrete, PLATFORM
            )
            for spec in paper_strategies():
                yield f"{scenario.name}/{wf_name}/{spec.label}", spec.run(
                    concrete, PLATFORM
                )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paper_grid_replays_bit_identical(seed):
    """19 strategies x 4 shapes x 3 scenarios plus each cell's reference
    schedule; the grid includes mixed-flavor fleets (CPA-Eager, Gain)."""
    mixed = 0
    for label, sched in _grid_schedules(seed):
        sched.validate()
        try:
            assert_replay_is_des(sched)
        except AssertionError as exc:  # pragma: no cover - failure report
            raise AssertionError(f"{label}: {exc}") from None
        mixed += len({vm.itype.name for vm in sched.vms}) > 1
    assert mixed > 0  # the heterogeneous path was exercised


def test_multi_region_plan_replays_bit_identical():
    wf = pin_regions(_two_branch_workflow(), _PINS)
    for follow in (False, True):
        sched = LocalityHeftScheduler(follow_data=follow).schedule(wf, PLATFORM)
        assert len({vm.region.name for vm in sched.vms}) > 1
        assert_replay_is_des(sched)


def test_cold_boot_plans_replay_bit_identical():
    """Every paper strategy on every shape with cold boots: a VM's first
    task starts ``boot_seconds`` after it becomes ready."""
    cold = CloudPlatform.ec2(prebooted=False, boot_seconds=97.0)
    for wf in paper_workflows().values():
        for spec in paper_strategies():
            assert_replay_is_des(spec.run(wf, cold))


class _SlowLinks(NetworkModel):
    """A non-stock network: remote transfers take half again as long,
    and even a same-VM hand-off pays a small copy cost."""

    def transfer_time(self, size_gb, src, dst, same_vm=False, same_region=True):
        if same_vm:
            return 0.25
        return 1.5 * super().transfer_time(size_gb, src, dst, False, same_region)


def test_subclassed_network_replays_bit_identical():
    platform = CloudPlatform.ec2(network=_SlowLinks())
    for wf in paper_workflows().values():
        for policy in ("OneVMperTask", "StartParExceed"):
            assert_replay_is_des(HeftScheduler(policy).schedule(wf, platform))


# ----------------------------------------------------------------------
# failures the replay must report like the DES
# ----------------------------------------------------------------------
def test_queue_order_conflicting_with_dag_deadlocks():
    """A VM queue that runs a child before its parent can never make
    progress: both the replay and the DES report the deadlock."""
    wf = Workflow("pair")
    wf.add_task(Task("a", 100.0, "w"))
    wf.add_task(Task("b", 100.0, "w"))
    wf.add_dependency("a", "b", 0.0)
    sched = HeftScheduler("StartParExceed").schedule(wf.validate(), PLATFORM)
    (vm,) = sched.vms
    vm.placements.reverse()  # queue: b before a
    with pytest.raises(SimulationError, match="deadlock"):
        replay_verify(sched)
    with pytest.raises(SimulationError, match="deadlock"):
        simulate_schedule(sched, check=True)
