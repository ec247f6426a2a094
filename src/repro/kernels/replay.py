"""Recurrence replay for the no-fault verify.

``run_strategy(verify=True)`` and the sweep's reference check replay
every schedule purely to assert the observed timings equal the plan;
a discrete-event run's :class:`~repro.simulator.trace.SimulationResult`
would be discarded.  For that case the DES is a very expensive fixed
point: with no faults, the observed start of a task is exactly

    ``max(finish of its VM-queue predecessor,
          max over DAG predecessors (finish + transfer))``

plus the platform's ``boot_seconds`` when the task is the first on a
cold-booted VM (the DES's ``boot_complete`` time), so the whole replay
collapses to one Kahn sweep over the combined (queue + DAG) precedence
graph.  Every time is formed by the same single additions and ``max``
folds the DES's event clock performs, so the replayed times equal the
DES's ``task_start``/``task_finish`` bit for bit.  :func:`replay_verify`
runs that sweep and applies the same divergence tolerances as
:meth:`SimulationResult.check_against`.

Any no-fault plan replays — any size, mixed flavors and regions, cold
boots.  Per-edge costs come from the calls the DES makes
(``platform.transfer_time``/``platform.runtime``); a homogeneous
stock-model plan takes a vectorized precompute of the same arithmetic
instead.  Only what the recurrence cannot reproduce falls back to the
real DES (return ``False``):

* a tracer that would record spans, or an active metrics registry (the
  DES emits ``sim.*``/``executor.*`` counters the sweep cannot fake),
* a platform market (priced and interrupted through the DES's fault
  machinery).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cloud.platform import CloudPlatform
from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.kernels.columnar import get_columnar, remote_transfer_seconds
from repro.kernels.dispatch import platform_eligible
from repro.obs.metrics import current as current_metrics

__all__ = ["replay_verify"]

_EPS = 1e-6


def _eligible(schedule: Schedule, tracer) -> bool:
    if tracer is not None and getattr(tracer, "enabled", True):
        return False
    if current_metrics() is not None:
        return False
    if getattr(schedule.platform, "market", None) is not None:
        return False
    return bool(schedule.vms)


def _homogeneous_stock(schedule: Schedule) -> bool:
    """One flavor in one region on the stock models: the vectorized
    per-edge precompute reproduces the DES's model calls (and halves a
    100k-task replay against one ``transfer_time`` call per edge)."""
    platform = schedule.platform
    vms = schedule.vms
    it = vms[0].itype
    if type(platform) is not CloudPlatform or not platform_eligible(platform, it):
        return False
    region = vms[0].region.name
    return all(
        (vm.itype is it or vm.itype == it) and vm.region.name == region
        for vm in vms
    )


def _costs(schedule: Schedule, cd, tvm: List[int], pp: List[int], pi: List[int]):
    """``(runtime per task, delay per pred-CSR edge)``: a task's
    execution seconds on its VM and the seconds from a predecessor's
    finish to its input's arrival."""
    platform = schedule.platform
    vms = schedule.vms
    if _homogeneous_stock(schedule):
        it = vms[0].itype
        runt = (cd.works / it.speedup).tolist()
        # same-VM edges are free (``NetworkModel`` returns 0.0 and the
        # DES adds it: ``f + 0.0 == f``)
        owner = np.array(tvm, dtype=np.int64)
        same = owner[cd.pred_idx] == owner[cd.pred_dst]
        remote = remote_transfer_seconds(cd.pred_gb, platform, it)
        return runt, np.where(same, 0.0, remote).tolist()
    rt = platform.runtime
    tt = platform.transfer_time
    runt = [rt(task, vms[v].itype) for task, v in zip(schedule.workflow.tasks, tvm)]
    gb = cd.pred_gb.tolist()
    delay = [0.0] * len(gb)
    for t, v in enumerate(tvm):
        dst_vm = vms[v]
        d_it = dst_vm.itype
        d_region = dst_vm.region
        for e in range(pp[t], pp[t + 1]):
            src_vm = vms[tvm[pi[e]]]
            delay[e] = tt(
                gb[e],
                src_vm.itype,
                d_it,
                same_vm=src_vm is dst_vm,
                src_region=src_vm.region,
                dst_region=d_region,
            )
    return runt, delay


def _replay_times(schedule: Schedule) -> Tuple[List[str], List[float], List[float]]:
    """``(task ids, starts, finishes)`` the no-fault DES would observe
    for *schedule*, in workflow task order.  Raises
    :class:`SimulationError` when the VM queue orders conflict with the
    DAG (the DES deadlocks).
    """
    wf = schedule.workflow
    platform = schedule.platform
    cd = get_columnar(wf)
    n = cd.n
    index = cd.index

    # VM queues in placement order — the DES executes each VM's queue
    # front-to-back, so a task also waits on its queue predecessor
    tvm = [-1] * n
    qprev = [-1] * n
    qnext = [-1] * n
    for v, vm in enumerate(schedule.vms):
        prev = -1
        for p in vm.placements:
            t = index[p.task_id]
            tvm[t] = v
            if prev != -1:
                qnext[prev] = t
            qprev[t] = prev
            prev = t
    pp = cd.pred_ptr.tolist()
    pi = cd.pred_idx.tolist()
    runt, delay = _costs(schedule, cd, tvm, pp, pi)
    # a cold VM boots when its first task is ready (the DES's
    # ``boot_complete`` event), so that task starts boot seconds later
    boot = platform.boot_seconds if not platform.prebooted else 0.0

    sp = cd.succ_ptr.tolist()
    si = cd.succ_idx.tolist()
    indeg = [pp[t + 1] - pp[t] + (qprev[t] != -1) for t in range(n)]
    stack = [t for t in range(n) if indeg[t] == 0]
    got_s = [0.0] * n
    got_f = [0.0] * n
    done = 0
    while stack:
        t = stack.pop()
        q = qprev[t]
        best = got_f[q] if q != -1 else 0.0
        for e in range(pp[t], pp[t + 1]):
            cand = got_f[pi[e]] + delay[e]
            if cand > best:
                best = cand
        if q == -1 and boot > 0:
            best = best + boot
        got_s[t] = best
        got_f[t] = best + runt[t]
        done += 1
        nt = qnext[t]
        if nt != -1:
            indeg[nt] -= 1
            if indeg[nt] == 0:
                stack.append(nt)
        for e in range(sp[t], sp[t + 1]):
            s = si[e]
            indeg[s] -= 1
            if indeg[s] == 0:
                stack.append(s)
    if done != n:  # queue order conflicts with the DAG: deadlock
        missing = sorted(cd.ids[t] for t in range(n) if indeg[t] > 0)
        raise SimulationError(f"simulation deadlocked; never completed: {missing}")
    return cd.ids, got_s, got_f


def replay_verify(schedule: Schedule, tracer=None) -> bool:
    """Verify *schedule* by recurrence replay when eligible.

    Returns ``True`` after a successful verification (the times the DES
    would observe, checked against the plan with ``check_against``'s
    tolerances), ``False`` when the schedule needs the real DES.
    Raises :class:`SimulationError` on divergence, like the DES path.
    """
    if not _eligible(schedule, tracer):
        return False
    ids, got_s, got_f = _replay_times(schedule)
    plan = schedule._task_placement
    for tid, gs, gf in zip(ids, got_s, got_f):
        p = plan[tid]
        ps = p.start
        pf = p.end
        if gs == ps and gf == pf:
            continue  # the common case: the builder ran this recurrence
        if abs(gs - ps) > _EPS * max(1.0, ps):
            raise SimulationError(
                f"{tid!r}: simulated start {gs:.6f} != planned {ps:.6f}"
            )
        if abs(gf - pf) > _EPS * max(1.0, pf):
            raise SimulationError(
                f"{tid!r}: simulated finish {gf:.6f} != planned {pf:.6f}"
            )
    return True
