"""Tests for the Schedule model: validation and cost accounting."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.cloud.vm import VM
from repro.core.schedule import Schedule
from repro.errors import InvalidScheduleError
from repro.workflows.dag import Workflow
from repro.workflows.task import Task


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


def _vm(platform, vm_id=0, itype="small", region=None):
    return VM(
        id=vm_id,
        itype=platform.itype(itype),
        region=region or platform.default_region,
    )


def _chain_schedule(chain3, platform, region=None):
    """X -> Y on one VM, Z on another, with correct hand-computed times."""
    v0 = _vm(platform, 0, region=region)
    v0.place("X", 0.0, 1000.0)
    v0.place("Y", 1000.0, 2000.0)
    v1 = _vm(platform, 1, region=region)
    lat = 0.5 if region is not None else 0.1
    z_start = 3000.0 + lat if region is None else 3000.0 + 0.1
    v1.place("Z", 3000.0 + 0.1, 500.0)
    return Schedule(workflow=chain3, platform=platform, vms=[v0, v1])


class TestStructure:
    def test_every_task_exactly_once(self, chain3, platform):
        v = _vm(platform)
        v.place("X", 0.0, 1000.0)
        with pytest.raises(InvalidScheduleError, match="never scheduled"):
            Schedule(workflow=chain3, platform=platform, vms=[v])

    def test_double_assignment_rejected(self, chain3, platform):
        v0, v1 = _vm(platform, 0), _vm(platform, 1)
        for v in (v0, v1):
            v.place("X", 0.0, 1000.0)
            v.place("Y", 1000.0, 2000.0)
        v0.place("Z", 3000.0, 500.0)
        with pytest.raises(InvalidScheduleError, match="placed on both"):
            Schedule(workflow=chain3, platform=platform, vms=[v0, v1])

    def test_unknown_task_rejected(self, chain3, platform):
        v = _vm(platform)
        for tid, s, d in (("X", 0, 1000), ("Y", 1000, 2000), ("Z", 3000, 500)):
            v.place(tid, float(s), float(d))
        v.place("ghost", 4000.0, 1.0)
        with pytest.raises(InvalidScheduleError, match="unknown"):
            Schedule(workflow=chain3, platform=platform, vms=[v])

    def test_lookups(self, chain3, platform):
        sched = _chain_schedule(chain3, platform)
        assert sched.vm_of("X").id == 0
        assert sched.start("Y") == 1000.0
        assert sched.finish("Z") == 3500.1
        with pytest.raises(InvalidScheduleError):
            sched.vm_of("nope")


class TestValidate:
    def test_valid_schedule_passes(self, chain3, platform):
        _chain_schedule(chain3, platform).validate()

    def test_dependency_violation_caught(self, chain3, platform):
        v = _vm(platform)
        v.place("Y", 0.0, 2000.0)  # Y before X!
        v.place("X", 2000.0, 1000.0)
        v.place("Z", 3000.0, 500.0)
        with pytest.raises(InvalidScheduleError, match="dependency"):
            Schedule(workflow=chain3, platform=platform, vms=[v]).validate()

    def test_transfer_time_enforced(self, diamond, platform):
        """B starting immediately after A on another VM is infeasible."""
        va, vb = _vm(platform, 0), _vm(platform, 1)
        va.place("A", 0.0, 600.0)
        vb.place("B", 600.0, 1200.0)  # misses the 4.1 s transfer
        va.place("C", 600.0, 900.0)
        vb.place("D", 2000.0, 300.0)
        with pytest.raises(InvalidScheduleError, match="dependency"):
            Schedule(workflow=diamond, platform=platform, vms=[va, vb]).validate()

    def test_wrong_duration_caught(self, chain3, platform):
        v = _vm(platform, itype="medium")
        v.place("X", 0.0, 1000.0)  # on medium it must be 625 s
        v.place("Y", 1000.0, 1250.0)
        v.place("Z", 2250.0, 312.5)
        with pytest.raises(InvalidScheduleError, match="runs"):
            Schedule(workflow=chain3, platform=platform, vms=[v]).validate()


class TestMetrics:
    def test_makespan(self, chain3, platform):
        assert _chain_schedule(chain3, platform).makespan == 3500.1

    def test_rent_cost(self, chain3, platform):
        sched = _chain_schedule(chain3, platform)
        # v0 uptime 3000 -> 1 BTU; v1 uptime 500 -> 1 BTU
        assert sched.rent_cost == pytest.approx(2 * 0.08)
        assert sched.total_btus == 2

    def test_idle(self, chain3, platform):
        sched = _chain_schedule(chain3, platform)
        # v0: 3600 paid - 3000 busy; v1: 3600 - 500
        assert sched.total_idle_seconds == pytest.approx(600.0 + 3100.0)

    def test_no_transfer_cost_single_region(self, chain3, platform):
        assert _chain_schedule(chain3, platform).transfer_cost == 0.0
        assert _chain_schedule(chain3, platform).transfer_volumes() == []

    def test_label(self, chain3, platform):
        sched = _chain_schedule(chain3, platform)
        assert sched.label == "schedule"


class TestCrossRegionTransferCost:
    def test_banded_egress(self, platform):
        wf = Workflow("xfer")
        wf.add_task(Task("src", 100.0))
        wf.add_task(Task("dst", 100.0))
        wf.add_dependency("src", "dst", 5.0)
        wf.validate()
        us = platform.region("us-east-virginia")
        eu = platform.region("eu-dublin")
        v0 = VM(id=0, itype=platform.itype("small"), region=us)
        v0.place("src", 0.0, 100.0)
        v1 = VM(id=1, itype=platform.itype("small"), region=eu)
        # 5 GB * 8 / 1 Gbps + 0.5 s inter-region latency
        v1.place("dst", 100.0 + 40.5, 100.0)
        sched = Schedule(workflow=wf, platform=platform, vms=[v0, v1]).validate()
        assert sched.transfer_volumes() == [("us-east-virginia", "eu-dublin", 5.0)]
        # first GB free, remaining 4 at $0.12
        assert sched.transfer_cost == pytest.approx(4 * 0.12)
        assert sched.total_cost == pytest.approx(sched.rent_cost + 0.48)


class TestAccountingMemo:
    """makespan/rent/transfer/total cost are computed once per schedule."""

    MEMOIZED = ("makespan", "rent_cost", "transfer_cost", "total_cost")

    @staticmethod
    def _cross_region(platform):
        wf = Workflow("xfer")
        wf.add_task(Task("src", 100.0))
        wf.add_task(Task("dst", 100.0))
        wf.add_dependency("src", "dst", 5.0)
        wf.validate()
        v0 = VM(id=0, itype=platform.itype("small"),
                region=platform.region("us-east-virginia"))
        v0.place("src", 0.0, 100.0)
        v1 = VM(id=1, itype=platform.itype("medium"),
                region=platform.region("eu-dublin"))
        v1.place("dst", 140.5, 62.5)
        return Schedule(workflow=wf, platform=platform, vms=[v0, v1])

    def test_memo_equals_fresh_recomputation(self, platform):
        sched = self._cross_region(platform)
        first = [getattr(sched, name) for name in self.MEMOIZED]
        assert all(name in vars(sched) for name in self.MEMOIZED)
        # a schedule over the same VMs starts with an empty memo
        fresh = Schedule(workflow=sched.workflow, platform=platform, vms=sched.vms)
        assert not any(name in vars(fresh) for name in self.MEMOIZED)
        assert [getattr(fresh, name) for name in self.MEMOIZED] == first
        billing = platform.billing
        assert sched.makespan == max(p.end for vm in sched.vms for p in vm.placements)
        assert sched.rent_cost == sum(vm.cost(billing) for vm in sched.vms)
        assert sched.total_cost == sched.rent_cost + sched.transfer_cost
        assert sched.transfer_cost > 0

    def test_memo_survives_pickle(self, platform):
        import pickle

        sched = self._cross_region(platform)
        values = [getattr(sched, name) for name in self.MEMOIZED]
        restored = pickle.loads(pickle.dumps(sched))
        assert all(name in vars(restored) for name in self.MEMOIZED)
        assert [getattr(restored, name) for name in self.MEMOIZED] == values

    def test_replace_and_eq_ignore_memo(self, platform):
        import dataclasses

        sched = self._cross_region(platform)
        untouched = dataclasses.replace(sched)
        assert sched.total_cost > 0  # fills sched's memo only
        relabeled = dataclasses.replace(sched, algorithm="x")
        assert not any(name in vars(relabeled) for name in self.MEMOIZED)
        assert relabeled.total_cost == sched.total_cost
        assert untouched == sched
        assert "total_cost" not in vars(untouched)
        assert relabeled != sched
