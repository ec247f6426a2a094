"""The four benchmark workloads.

Each workload is a ``setup()`` that builds what every timed unit reuses
and a ``unit(state, seed)`` that makes one user-facing call on the
inputs drawn from *seed* and returns a :class:`Unit`.  Library entry
points are looked up through their modules at call time (never bound
at import), so the traced run and the sensitivity self-test can wrap
them from outside.

Why each workload exists (see README.md for the layer map):

* ``paper-sweep`` -- the paper's own evaluation, small DAGs only, so
  placement stays on the indexed kernels; CPA-Eager/Gain upgrade loops
  and the DES verify dominate.
* ``large-dag`` -- a 100k-task Montage through the five stock policies
  (generation, columnar kernels, GC, memory) plus a 4,206-task Montage
  under the paper's Pareto runtimes, whose heterogeneity makes the
  AllPar* reuse pool defer and re-push candidates.
* ``waas-steady`` -- the multi-tenant service loop on the online
  executor, fleet indexes and event engine, offered an unsaturated
  open-loop load.
* ``tune-spot`` -- ``autotune`` under spot prices: the DES with
  markets, preemption and recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Dict, List


@dataclass
class Unit:
    """One timed call: its task count, the operations it attempted and
    how many of them did not return validated, verified results, and the
    simulated results it produced."""

    tasks: int
    ops: int
    failed: int
    #: simulated results the digest covers (JSON-able)
    results: object
    #: simulated outcomes recorded beside the run, never as metrics
    outcomes: Dict[str, object] = field(default_factory=dict)

    def digest(self) -> str:
        text = json.dumps(self.results, sort_keys=True, separators=(",", ":"))
        return sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], object]
    unit: Callable[[object, int], Unit]
    #: input seeds the committed reference covers
    pool: int
    #: median unit wall time at the baseline (2-vCPU Xeon VM), which
    #: turns a run's seconds into a fixed unit count
    unit_s: float

    def seeds(self, run_seed: int, seconds: float) -> List[int]:
        """Input seeds of a run: consecutive pool seeds from *run_seed*,
        as many units as fill *seconds* at the baseline speed.  The work
        is fixed by the arguments, so a slower program takes longer
        rather than doing less."""
        count = max(1, round(seconds / self.unit_s))
        return [(run_seed + k) % self.pool for k in range(count)]


# ---------------------------------------------------------------------------
# paper-sweep: run_sweep(seed=s, verify=True) over the default grid
# ---------------------------------------------------------------------------
def _sweep_setup():
    from repro.cloud.platform import CloudPlatform
    from repro.experiments import config, scenarios

    platform = CloudPlatform.ec2()
    return {
        "platform": platform,
        "workflows": config.paper_workflows(),
        "scenarios": scenarios.paper_scenarios(platform),
        "strategies": config.paper_strategies(),
    }


def _sweep_unit(st, seed: int) -> Unit:
    from repro.experiments import runner

    result = runner.run_sweep(seed=seed, verify=True, **st)
    rows = result.rows()
    sizes = {name: len(wf) for name, wf in st["workflows"].items()}
    # every strategy carries its cell's workflow through schedule,
    # validate, DES verify and the reference comparison
    tasks = sum(sizes[wf] for _sc, wf, _label, _m in rows)
    expected = (
        len(st["scenarios"]) * len(st["workflows"]) * len(st["strategies"])
    )
    return Unit(
        tasks=tasks,
        # one operation per strategy evaluation; a captured cell failure
        # leaves its strategies' rows missing
        ops=expected,
        failed=expected - len(rows),
        results={
            f"{sc}/{wf}/{label}": [m.makespan, m.cost] for sc, wf, label, m in rows
        },
        outcomes={
            "cost_usd": sum(m.cost for *_k, m in rows),
            "makespan_s": sum(m.makespan for *_k, m in rows),
        },
    )


# ---------------------------------------------------------------------------
# large-dag: montage(33332) and Pareto montage(1400) through five policies
# ---------------------------------------------------------------------------
#: montage(p) has 3p + 6 tasks
LARGE_PROJECTIONS = 33332  # 100,002 tasks, generator runtimes
PARETO_PROJECTIONS = 1400  # 4,206 tasks, paper Pareto runtimes

#: the paper's pairing: AllPar* needs level knowledge, the rest HEFT
FAMILIES = (
    ("AllParExceed", "level"),
    ("AllParNotExceed", "level"),
    ("StartParExceed", "heft"),
    ("StartParNotExceed", "heft"),
    ("OneVMperTask", "heft"),
)


def _large_setup():
    from repro.cloud.platform import CloudPlatform

    return CloudPlatform.ec2()


def _place_verify_evaluate(workflow, platform, results, part: str) -> None:
    """Schedule, validate, verify and evaluate *workflow* under every
    family; ``validate`` and either verify path raise on a bad plan."""
    from repro.core import metrics
    from repro.core.allocation import HeftScheduler, LevelScheduler
    from repro.core.provisioning import PROVISIONING_POLICIES
    from repro.kernels import replay
    from repro.simulator import executor

    for policy, kind in FAMILIES:
        cls = LevelScheduler if kind == "level" else HeftScheduler
        sched = cls(PROVISIONING_POLICIES[policy]()).schedule(workflow, platform)
        sched.validate()
        if not replay.replay_verify(sched):
            executor.simulate_schedule(sched, check=True)
        m = metrics.evaluate(sched)
        results[f"{part}/{policy}"] = [m.makespan, m.cost]


def _large_unit(platform, seed: int) -> Unit:
    from repro import workloads
    from repro.workflows import generators

    results: Dict[str, list] = {}
    big = generators.montage(LARGE_PROJECTIONS)
    _place_verify_evaluate(big, platform, results, "100k")
    n_big = len(big)
    del big
    pareto = workloads.apply_model(
        generators.montage(PARETO_PROJECTIONS), workloads.ParetoModel(), seed=seed
    )
    _place_verify_evaluate(pareto, platform, results, "pareto")
    return Unit(
        tasks=len(FAMILIES) * (n_big + len(pareto)),
        # one operation per (part, policy); any failure raises instead
        ops=len(results),
        failed=0,
        results=results,
        outcomes={
            "cost_usd": sum(c for _mk, c in results.values()),
            "makespan_s": sum(mk for mk, _c in results.values()),
        },
    )


# ---------------------------------------------------------------------------
# waas-steady: run_service, 1,000 workflows, 50 tenants, unsaturated
# ---------------------------------------------------------------------------
WAAS = dict(
    policy="StartParNotExceed",
    admission="fair",
    count=1000,
    tenants=50,
    # 600 s mean gap offers 6 wf/h, below what the fleet serves; at
    # 180 s the queue saturates and latency is queueing, not service
    mean_interarrival=600.0,
    max_concurrent=32,
)


def _waas_setup():
    from repro.cloud.platform import CloudPlatform

    return CloudPlatform.ec2()


def _waas_unit(platform, seed: int) -> Unit:
    from repro.experiments import service as service_experiment
    from repro.service import loop

    cell = service_experiment.ServiceCell(platform=platform, seed=seed, **WAAS)
    requests = service_experiment.build_requests(cell)
    result = loop.run_service(
        requests,
        platform,
        policy=cell.policy,
        admission=cell.admission,
        max_concurrent=cell.max_concurrent,
    )
    roll = result.rollup()
    last_arrival = max(r.arrival for r in requests)
    return Unit(
        tasks=sum(len(r.workflow) for r in requests),
        # one operation per submitted workflow
        ops=len(requests),
        failed=len(requests) - result.completed,
        results=roll,
        outcomes={
            "offered_wf_per_h": len(requests) / (last_arrival / 3600.0),
            "served_wf_per_h": result.throughput_per_hour,
            # 1,000 samples: at least ten lie beyond the 99th percentile
            "latency_p50_s": result.latency_p50,
            "latency_p99_s": result.latency_p99,
            "idle_fraction": 1.0 - result.utilization,
            "cost_usd": result.rent_cost,
        },
    )


# ---------------------------------------------------------------------------
# tune-spot: autotune under a deadline over the default 360-point space
# ---------------------------------------------------------------------------
TUNE_DEADLINE_S = 9000.0


def _tune_setup():
    from repro.cloud.platform import CloudPlatform
    from repro.core.constraints import Constraints
    from repro.tune.space import TuneSpace

    return {
        "platform": CloudPlatform.ec2(),
        "constraints": Constraints(deadline=TUNE_DEADLINE_S),
        "space": TuneSpace(),
    }


def _tune_unit(st, seed: int) -> Unit:
    from repro.tune import search

    result = search.autotune(
        st["constraints"],
        workflow_name="montage",
        platform=st["platform"],
        space=st["space"],
        seed=seed,
        # an infeasible search is an outcome, not a failure
        on_infeasible="return",
    )
    evals = sum(r.evaluated * r.fidelity for r in result.rungs)
    winner = result.winner
    # one operation per candidate evaluation.  A candidate whose spot VMs
    # are reclaimed until a task is lost (FaultError) is dropped by the
    # search: a simulated outcome, like an infeasible candidate.  Any
    # other captured error is a failed operation.
    lost = [f for f in result.failures if f.error.startswith("FaultError:")]
    return Unit(
        tasks=evals * len(result.workflow),
        ops=sum(r.evaluated for r in result.rungs),
        failed=len(result.failures) - len(lost),
        results=result.to_json(),
        outcomes={
            "candidate_seed_evals": evals,
            "evals_lost_to_preemption": len(lost),
            "evals_crashed": len(result.failures) - len(lost),
            "feasible": 1.0 if winner is not None else 0.0,
            "winner_cost_usd": winner.cost if winner is not None else None,
            "winner_makespan_s": winner.makespan if winner is not None else None,
        },
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-sweep", _sweep_setup, _sweep_unit, pool=64, unit_s=0.6),
        Workload("large-dag", _large_setup, _large_unit, pool=8, unit_s=19.0),
        Workload("waas-steady", _waas_setup, _waas_unit, pool=32, unit_s=1.2),
        Workload("tune-spot", _tune_setup, _tune_unit, pool=128, unit_s=0.2),
    )
}
