"""CPA-Eager (paper Sect. III-B).

Starting from the OneVMperTask-small configuration, the strategy
"systematically increases the speed of VMs allocated to tasks lying on
the critical path", because the makespan is the sum of the execution
times along that path.  Upgrades proceed one catalog rung at a time on
the critical-path task with the longest current execution time, and a
candidate upgrade is committed only when the total rent stays within the
budget — ``budget_factor`` times the HEFT + OneVMperTask-small reference
cost (we read the paper's garbled budget sentence as 2x for CPA-Eager;
see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.cloud.instance import SMALL, InstanceType, next_faster
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import SchedulingAlgorithm, register_algorithm
from repro.core.allocation.upgrade import one_vm_schedule, per_task_vm_cost, try_upgrade
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.workflows.dag import Workflow


@register_algorithm
class CpaEagerScheduler(SchedulingAlgorithm):
    name = "CPA-Eager"
    heterogeneous = True

    def __init__(self, budget_factor: float = 2.0) -> None:
        if budget_factor < 1.0:
            raise SchedulingError(
                f"budget_factor must be >= 1 (got {budget_factor}): the "
                "starting configuration already costs 1x the reference"
            )
        self.budget_factor = budget_factor

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        workflow.validate()
        reg = region or platform.default_region
        task_types: Dict[str, InstanceType] = {
            tid: itype for tid in workflow.task_ids
        }
        # per-task runtime and rent, kept current as single tasks upgrade
        runtime = {
            tid: platform.runtime(workflow.task(tid), itype) for tid in task_types
        }
        costs = per_task_vm_cost(workflow, platform, task_types, reg)
        budget = self.budget_factor * sum(costs.values())
        blocked: Set[str] = set()
        # per-edge transfer time, kept current as single tasks upgrade:
        # an upgrade only re-prices the upgraded task's own edges
        data_gb = workflow.data_gb
        transfer: Dict[Tuple[str, str], float] = {
            (u, v): platform.transfer_time(gb, task_types[u], task_types[v])
            for u, v, gb in workflow.edges()
        }

        while True:
            cp, _length = workflow.critical_path(
                exec_time=runtime.__getitem__,
                transfer_time=lambda u, v: transfer[u, v],
            )
            candidates = [
                t
                for t in cp
                if t not in blocked and next_faster(task_types[t]) is not None
            ]
            if not candidates:
                break
            target = max(candidates, key=lambda t: (runtime[t], t))
            upgraded = next_faster(task_types[target])
            assert upgraded is not None
            exec_new = platform.runtime(workflow.task(target), upgraded)
            cost_new = platform.billing.vm_cost(exec_new, upgraded, reg)
            if try_upgrade(costs, target, cost_new, budget):
                task_types[target] = upgraded
                runtime[target] = exec_new
                for u in workflow.predecessors(target):
                    transfer[u, target] = platform.transfer_time(
                        data_gb(u, target), task_types[u], upgraded
                    )
                for v in workflow.successors(target):
                    transfer[target, v] = platform.transfer_time(
                        data_gb(target, v), upgraded, task_types[v]
                    )
            else:
                # Costs are additive per task under OneVMperTask and other
                # upgrades only spend more, so an unaffordable task stays
                # unaffordable: block it permanently.
                blocked.add(target)

        return one_vm_schedule(
            workflow, platform, task_types, region, algorithm=self.name
        ).validate()
