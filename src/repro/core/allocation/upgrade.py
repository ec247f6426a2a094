"""Shared machinery for the dynamic (VM-speed-upgrading) strategies.

CPA-Eager and Gain both start from HEFT + OneVMperTask on small
instances and then raise individual tasks' VM flavors.  Under
OneVMperTask every task owns its VM, so a configuration is fully
described by a ``task id -> InstanceType`` map; this module rebuilds the
concrete schedule and its cost for any such map.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.cloud.instance import InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.builder import ScheduleBuilder
from repro.core.schedule import Schedule
from repro.workflows.dag import Workflow


def one_vm_schedule(
    workflow: Workflow,
    platform: CloudPlatform,
    task_types: Mapping[str, InstanceType],
    region: Region | None = None,
    algorithm: str = "OneVM",
) -> Schedule:
    """Schedule with a dedicated VM per task, flavored by *task_types*.

    Timing under OneVMperTask is order-independent (each task starts as
    soon as its inputs arrive), so tasks are placed in topological order.
    """
    default = next(iter(task_types.values())) if task_types else platform.itype("small")
    builder = ScheduleBuilder(workflow, platform, default, region)
    for tid in workflow.topological_order():
        vm = builder.new_vm(task_types[tid])
        builder.place(tid, vm)
    return builder.build(algorithm=algorithm, provisioning="OneVMperTask")


def per_task_vm_cost(
    workflow: Workflow,
    platform: CloudPlatform,
    task_types: Mapping[str, InstanceType],
    region: Region | None = None,
) -> Dict[str, float]:
    """Rent cost of each task's dedicated VM.

    Under OneVMperTask a VM's uptime equals its task's execution time,
    so costs decompose exactly per task — the additivity Gain's matrix
    and the budget checks rely on.
    """
    reg = region or platform.default_region
    billing = platform.billing
    out: Dict[str, float] = {}
    for tid, itype in task_types.items():
        exec_s = platform.runtime(workflow.task(tid), itype)
        out[tid] = billing.vm_cost(exec_s, itype, reg)
    return out


def total_rent_cost(
    workflow: Workflow,
    platform: CloudPlatform,
    task_types: Mapping[str, InstanceType],
    region: Region | None = None,
) -> float:
    """Sum of :func:`per_task_vm_cost` over all tasks."""
    return sum(per_task_vm_cost(workflow, platform, task_types, region).values())


def try_upgrade(costs: Dict[str, float], tid: str, cost: float, budget: float) -> bool:
    """Give *tid* the rent *cost* in *costs* if the total stays within
    *budget*, else leave *costs* unchanged.  *costs* stays in
    ``task_ids`` order, so the sum adds the same floats, in the same
    order, as :func:`total_rent_cost` over the trial map."""
    old = costs[tid]
    costs[tid] = cost
    if sum(costs.values()) <= budget + 1e-9:
        return True
    costs[tid] = old
    return False
