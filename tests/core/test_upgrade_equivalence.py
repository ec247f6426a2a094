"""The incremental CPA-Eager and Gain loops against their
full-recomputation oracles (tests/oracles/upgrade_reference.py): same
flavor per task, same placements, bit-equal makespan and cost."""

import pytest

from repro.core.allocation.cpa_eager import CpaEagerScheduler
from repro.core.allocation.gain import GainScheduler
from repro.experiments.scenarios import paper_scenarios
from repro.workflows.generators import (
    bag_of_tasks,
    cstem,
    mapreduce,
    montage,
    sequential,
)
from tests.oracles.upgrade_reference import cpa_eager_reference, gain_reference

PAIRS = [(CpaEagerScheduler, cpa_eager_reference), (GainScheduler, gain_reference)]
PAIR_IDS = ["cpa-eager", "gain"]
SHAPES = {
    "montage": montage,
    "cstem": cstem,
    "mapreduce": mapreduce,
    "sequential": sequential,
}
SCENARIOS = {s.name: s for s in paper_scenarios()}


def _signature(sched):
    return (
        sched.algorithm,
        sched.provisioning,
        [
            (vm.itype.name, vm.region.name,
             [(p.task_id, p.start, p.end) for p in vm.placements])
            for vm in sched.vms
        ],
    )


def assert_identical(fast, slow):
    wf = fast.workflow
    assert {t: fast.vm_of(t).itype.name for t in wf.task_ids} == {
        t: slow.vm_of(t).itype.name for t in wf.task_ids
    }
    assert _signature(fast) == _signature(slow)
    assert fast.makespan.hex() == slow.makespan.hex()
    assert fast.total_cost.hex() == slow.total_cost.hex()


def _check(pair, wf, platform, budget_factor=2.0, itype="small"):
    scheduler_cls, oracle = pair
    flavor = platform.itype(itype)
    fast = scheduler_cls(budget_factor=budget_factor).schedule(
        wf, platform, itype=flavor
    )
    slow = oracle(wf, platform, budget_factor=budget_factor, itype=flavor)
    assert_identical(fast, slow)
    return fast


@pytest.fixture(params=PAIRS, ids=PAIR_IDS)
def pair(request):
    return request.param


@pytest.fixture(params=["diamond", "chain3", *SHAPES])
def shape(request):
    if request.param in SHAPES:
        return SHAPES[request.param]()
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("itype", ["small", "medium"])
@pytest.mark.parametrize("budget_factor", [1.0, 1.5, 2.0, 4.0])
def test_shapes_budgets_and_start_flavors(pair, shape, platform, budget_factor, itype):
    _check(pair, shape, platform, budget_factor, itype)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_paper_scenarios(pair, platform, name, scenario, seed):
    wf = SCENARIOS[scenario].apply(SHAPES[name](), seed)
    _check(pair, wf, platform)


@pytest.mark.parametrize("budget_factor", [1.25, 1.5, 2.5, 3.0])
def test_equal_work_ties(pair, platform, budget_factor):
    """Every row of an equal-work bag has the same gains, so the task-id
    tie-break alone decides which tasks upgrade; these budgets stop the
    climb part-way up a rung."""
    wf = bag_of_tasks(n=12, work=1000.0)
    sched = _check(pair, wf, platform, budget_factor)
    flavors = {sched.vm_of(t).itype.name for t in wf.task_ids}
    assert len(flavors) > 1, "budget never split the bag: no tie was broken"
