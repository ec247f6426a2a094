"""Profile one representative sweep cell under cProfile.

Runs the full evaluation of a single (scenario, workflow) grid cell —
the unit ``run_sweep`` fans out, with the schedule verify the
benchmark's paper sweep runs — and writes the top *N* functions by
cumulative time to a text report (``make profile`` puts it at
``artifacts/profile.txt``).  Use it to find the next hot spot before
and to prove the fix after an optimization PR.

``--columnar`` profiles the large-workflow columnar path instead: one
50k-task montage generation plus all five provisioning families through
the fused kernels (``make profile`` writes that report to
``artifacts/profile_columnar.txt``).

``--service`` profiles one seeded multi-tenant ``run_service`` cell —
the WaaS hot path the indexed fleet kernels serve (``make
profile-service`` writes that report to
``artifacts/profile_service.txt``).

Run directly::

    PYTHONPATH=src python benchmarks/profile_cell.py --out artifacts/profile.txt
    PYTHONPATH=src python benchmarks/profile_cell.py --columnar
    PYTHONPATH=src python benchmarks/profile_cell.py --service
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

import numpy as np

from repro.cloud.platform import CloudPlatform
from repro.experiments.config import paper_strategies, paper_workflows
from repro.experiments.parallel import SweepCell, run_cell
from repro.experiments.scenarios import paper_scenarios


def build_cell(scenario_index: int, workflow_index: int, seed: int) -> SweepCell:
    platform = CloudPlatform.ec2()
    scenarios = paper_scenarios(platform)
    workflows = paper_workflows()
    scenario = scenarios[scenario_index % len(scenarios)]
    wf_name, shape = list(workflows.items())[workflow_index % len(workflows)]
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return SweepCell(
        scenario=scenario,
        workflow_name=wf_name,
        shape=shape,
        strategies=paper_strategies(),
        platform=platform,
        seed=child,
        verify=True,
    )


def profile_columnar(projections: int, top: int) -> str:
    """Profile 50k-scale generation + all fused provisioning families."""
    from repro.core.allocation import HeftScheduler, LevelScheduler
    from repro.core.provisioning import PROVISIONING_POLICIES
    from repro.workflows.generators import montage

    platform = CloudPlatform.ec2()
    families = [
        ("AllParExceed", LevelScheduler),
        ("AllParNotExceed", LevelScheduler),
        ("StartParExceed", HeftScheduler),
        ("StartParNotExceed", HeftScheduler),
        ("OneVMperTask", HeftScheduler),
    ]
    profiler = cProfile.Profile()
    profiler.enable()
    for name, cls in families:
        wf = montage(projections)
        cls(PROVISIONING_POLICIES[name]()).schedule(wf, platform)
    profiler.disable()

    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(top)
    header = (
        f"columnar pipeline: montage({projections}) "
        f"({3 * projections + 6} tasks) x {len(families)} families\n"
        f"top {top} by cumulative time\n\n"
    )
    return header + buf.getvalue()


def profile_service(count: int, tenants: int, seed: int, top: int) -> str:
    """Profile one seeded multi-tenant ``run_service`` cell."""
    from repro.experiments.service import ServiceCell, build_requests
    from repro.service.loop import run_service

    cell = ServiceCell(
        platform=CloudPlatform.ec2(),
        policy="StartParNotExceed",
        admission="fair",
        count=count,
        tenants=tenants,
        mean_interarrival=180.0,
        seed=seed,
        max_concurrent=32,
    )
    requests = build_requests(cell)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_service(
        requests,
        cell.platform,
        policy=cell.policy,
        admission=cell.admission,
        max_concurrent=cell.max_concurrent,
    )
    profiler.disable()

    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(top)
    header = (
        f"service cell: {count} workflows / {tenants} tenants "
        f"({cell.policy}/{cell.admission}, seed {seed}); "
        f"{result.completed} completed, {result.vm_count} VMs rented\n"
        f"top {top} by cumulative time\n\n"
    )
    return header + buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", type=int, default=0, help="scenario index")
    parser.add_argument("--workflow", type=int, default=0, help="workflow index")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--top", type=int, default=25, help="rows in the report")
    parser.add_argument("--out", type=Path, default=None, help="report path (default stdout)")
    parser.add_argument(
        "--columnar",
        action="store_true",
        help="profile the 50k columnar fused pipeline instead of a sweep cell",
    )
    parser.add_argument(
        "--projections",
        type=int,
        default=16665,
        help="montage size for --columnar (default 16665 -> 50001 tasks)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="profile one multi-tenant run_service cell instead",
    )
    parser.add_argument(
        "--count", type=int, default=1000, help="workflows for --service"
    )
    parser.add_argument(
        "--tenants", type=int, default=50, help="tenants for --service"
    )
    args = parser.parse_args(argv)

    if args.columnar or args.service:
        if args.columnar:
            report = profile_columnar(args.projections, args.top)
        else:
            report = profile_service(args.count, args.tenants, args.seed, args.top)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(report)
            print(f"wrote {args.out}")
        else:
            print(report)
        return 0

    cell = build_cell(args.scenario, args.workflow, args.seed)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_cell(cell)
    profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(args.top)
    header = (
        f"cell {cell.scenario.name}/{cell.workflow_name} "
        f"({len(cell.strategies)} strategies, seed {args.seed}); "
        f"{len(result.metrics)} strategy rows\n"
        f"top {args.top} by cumulative time\n\n"
    )
    report = header + buf.getvalue()
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
