"""Command-line entry point: ``repro-experiments``.

Regenerates the paper's figures/tables as text, profiles workflows, and
draws schedules::

    repro-experiments all --seed 2013
    repro-experiments all --jobs 4
    repro-experiments figure4 --scenario best --quick
    repro-experiments table3 --out results.txt
    repro-experiments replicate --seeds 10 --jobs 4
    repro-experiments profile --workflow cybershake
    repro-experiments gantt --workflow montage --strategy AllParExceed-m
    repro-experiments faults --workflow montage --recovery replan --jobs 4
    repro-experiments tune --workflow montage --deadline 9000 --budget 15

``--jobs N`` fans the sweep's (scenario, workflow) cells — and
``replicate``'s seeds — out over N workers; the default (``--jobs 1``)
runs serially.  Results, and therefore every artifact byte, are
identical either way.

Observability: ``--trace`` (or ``--trace-out PATH``) records a Chrome
``trace_event`` file of the run, loadable in ``chrome://tracing`` or
Perfetto; any run with a file output also writes a run manifest
(``--manifest PATH`` overrides the destination, or forces one for
stdout runs) from which the exact invocation can be replayed.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

from repro.cloud.platform import CloudPlatform
from repro.experiments import figures, tables
from repro.experiments.config import paper_workflows, strategy
from repro.experiments.gantt import gantt
from repro.experiments.report import full_report
from repro.experiments.runner import run_sweep
from repro.experiments.scenarios import scenario
from repro.obs.manifest import build_manifest, default_manifest_path, write_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.util.tables import format_table
from repro.workflows.analysis import profile
from repro.workflows.generators import (
    bag_of_tasks,
    cstem,
    cybershake,
    epigenomics,
    fork_join,
    ligo,
    mapreduce,
    montage,
    sequential,
    sipht,
)

_SWEEP_ARTIFACTS = {"figure4", "figure5", "table3", "table4", "all", "export"}
_ARTIFACTS = [
    "all",
    "export",
    "replicate",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "faults",
    "pricing",
    "service",
    "tune",
    "profile",
    "gantt",
    "explain",
    "list",
]

_WORKFLOWS = {
    "montage": montage,
    "cstem": cstem,
    "mapreduce": mapreduce,
    "sequential": sequential,
    "fork_join": fork_join,
    "epigenomics": epigenomics,
    "cybershake": cybershake,
    "ligo": ligo,
    "sipht": sipht,
    "bag_of_tasks": bag_of_tasks,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's evaluation figures and tables.",
    )
    parser.add_argument("artifact", choices=_ARTIFACTS, nargs="?", default="all")
    parser.add_argument("--seed", type=int, default=2013, help="sweep RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers for sweep/replicate (default 1 = serial)",
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="execution backend (default: serial for --jobs 1, "
        "process pool otherwise)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=5,
        help="number of replication seeds for the replicate artifact",
    )
    parser.add_argument(
        "--scenario",
        choices=["pareto", "best", "worst"],
        default="pareto",
        help="scenario for figure4/figure5 rendering",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced sweep (Pareto scenario, Montage + Sequential only)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="replay every schedule and check it against its plan "
        "(no-fault replay with the discrete-event simulator's timings)",
    )
    parser.add_argument(
        "--workflow",
        choices=sorted(_WORKFLOWS),
        default="montage",
        help="workflow for the profile/gantt artifacts",
    )
    parser.add_argument(
        "--strategy",
        default="StartParNotExceed-s",
        help="Figure-4 strategy label for the gantt artifact",
    )
    parser.add_argument(
        "--fault-intensities",
        default="0,0.5,1,2",
        help="comma-separated intensity grid for the faults artifact",
    )
    parser.add_argument(
        "--fault-seeds",
        type=int,
        default=3,
        help="fault-sample replications per (strategy, intensity) cell",
    )
    parser.add_argument(
        "--recovery",
        choices=["retry", "resubmit", "replan"],
        default="retry",
        help="recovery policy for the faults artifact",
    )
    parser.add_argument(
        "--fault-task-prob",
        type=float,
        default=0.1,
        help="per-attempt transient task failure probability (base plan)",
    )
    parser.add_argument(
        "--fault-crash-mtbf",
        type=float,
        default=28800.0,
        help="mean VM uptime before a crash, seconds (base plan; 0 disables)",
    )
    parser.add_argument(
        "--fault-boot-prob",
        type=float,
        default=0.05,
        help="per-attempt VM boot failure probability (base plan)",
    )
    parser.add_argument(
        "--price-scenarios",
        default="on_demand,spot_calm,spot_spike,spot_volatile",
        help="comma-separated price scenarios for the pricing artifact",
    )
    parser.add_argument(
        "--boot-settings",
        default="prebooted,cold_start",
        help="comma-separated boot regimes for the pricing artifact",
    )
    parser.add_argument(
        "--price-seeds",
        type=int,
        default=3,
        help="market-sample replications per pricing grid cell",
    )
    parser.add_argument(
        "--arrivals",
        type=int,
        default=1000,
        help="workflow submissions for the service artifact",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=50,
        help="tenant population for the service artifact",
    )
    parser.add_argument(
        "--interarrival",
        type=float,
        default=180.0,
        help="mean seconds between submissions (service artifact)",
    )
    parser.add_argument(
        "--admission",
        choices=["fifo", "fair", "budget"],
        default="fifo",
        help="admission/queueing policy for the service artifact",
    )
    parser.add_argument(
        "--tenant-budget",
        type=float,
        default=0.0,
        help="per-tenant USD budget for the service artifact "
        "(0 = unconstrained)",
    )
    parser.add_argument(
        "--policy",
        default="StartParNotExceed",
        help="online provisioning policy for the service artifact",
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=32,
        help="concurrently executing workflows in the service "
        "(0 = unlimited)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="makespan bound in seconds for the tune artifact",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="cost bound in USD for the tune artifact",
    )
    parser.add_argument(
        "--max-vms",
        type=int,
        default=None,
        help="rented-VM cap for the tune artifact",
    )
    parser.add_argument(
        "--candidates",
        type=int,
        default=24,
        help="configurations sampled by the tune artifact's search",
    )
    parser.add_argument(
        "--eta",
        type=int,
        default=2,
        help="successive-halving cull factor for the tune artifact",
    )
    parser.add_argument(
        "--keep-final",
        type=int,
        default=4,
        help="survivors evaluated at top fidelity by the tune artifact",
    )
    parser.add_argument(
        "--tune-seed",
        type=int,
        default=0,
        help="search RNG seed for the tune artifact (--seed stays the "
        "workflow seed)",
    )
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    parser.add_argument(
        "--out-dir",
        default="artifacts",
        help="directory for the `export` artifact bundle",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a Chrome trace_event file of the run "
        "(chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="trace destination (implies --trace; default <out>.trace.json, "
        "or repro-trace.json for stdout runs)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        help="write the run manifest here (default: next to --out/--out-dir; "
        "stdout-only runs write one only when this is given)",
    )
    return parser


def _render_profile(workflow_name: str) -> str:
    p = profile(_WORKFLOWS[workflow_name]())
    rows = [
        ("tasks", p.tasks),
        ("edges", p.edges),
        ("levels", p.levels),
        ("max width", p.max_width),
        ("avg width", p.avg_width),
        ("serial fraction", p.serial_fraction),
        ("level-skip fraction", p.level_skip_fraction),
        ("runtime CV", p.runtime_cv),
        ("mean runtime s", p.mean_runtime),
        ("total work s", p.total_work),
        ("critical path s", p.critical_path_seconds),
        ("total data GB", p.total_data_gb),
        ("CCR", p.ccr),
        ("parallel efficiency", p.parallel_efficiency),
    ]
    return format_table(
        ["statistic", "value"],
        rows,
        float_fmt=".3f",
        title=f"Workflow profile — {p.name}",
    )


def _render_gantt(workflow_name: str, strategy_label: str, platform) -> str:
    wf = _WORKFLOWS[workflow_name]()
    sched = strategy(strategy_label).run(wf, platform)
    return gantt(sched)


def _manifest_config(args: argparse.Namespace) -> dict:
    """The resolved CLI configuration, as recorded in the manifest."""
    return {k: v for k, v in vars(args).items() if k != "artifact"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    trace_on = args.trace or args.trace_out is not None
    tracer = Tracer() if trace_on else None
    metrics = MetricsRegistry()
    platform = CloudPlatform.ec2()
    sweep = None
    outputs: list = []
    if args.artifact in _SWEEP_ARTIFACTS:
        if args.quick:
            wfs = paper_workflows()
            sweep = run_sweep(
                platform=platform,
                workflows={k: wfs[k] for k in ("montage", "sequential")},
                scenarios=[scenario("pareto", platform)],
                seed=args.seed,
                verify=args.verify,
                jobs=args.jobs,
                backend=args.backend,
                tracer=tracer,
                metrics=metrics,
            )
        else:
            sweep = run_sweep(
                platform=platform,
                seed=args.seed,
                verify=args.verify,
                jobs=args.jobs,
                backend=args.backend,
                tracer=tracer,
                metrics=metrics,
            )

    # The metrics registry is ambient for locally-computed artifacts so
    # builders/executors deep in the call tree feed it.  The parallel
    # fan-out artifacts (faults, replicate) are excluded: their workers
    # do not inherit the context, and a serial-only leak would break the
    # counters' backend-independence guarantee.
    ambient = args.artifact not in ("faults", "pricing", "replicate", "tune")
    with contextlib.ExitStack() as scope:
        if ambient:
            scope.enter_context(metrics.activate())
        if tracer is not None:
            scope.enter_context(
                tracer.span(f"artifact:{args.artifact}", cat="cli")
            )
        text = _run_artifact(args, platform, sweep, outputs)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        outputs.append(str(args.out))
    else:
        sys.stdout.write(text + "\n")

    if tracer is not None:
        trace_path = args.trace_out or (
            f"{args.out}.trace.json" if args.out else "repro-trace.json"
        )
        tracer.write_chrome(trace_path)
        outputs.append(str(trace_path))
        sys.stderr.write(f"trace: {trace_path}\n")

    manifest_path = None
    if args.manifest:
        manifest_path = Path(args.manifest)
    elif args.out:
        manifest_path = default_manifest_path(args.out)
    elif args.artifact == "export":
        manifest_path = default_manifest_path(args.out_dir)
    if manifest_path is not None:
        simulated = metrics.get("sim.simulated_seconds")
        manifest = build_manifest(
            artifact=args.artifact,
            config=_manifest_config(args),
            seed=args.seed,
            outputs=outputs,
            counters=metrics.as_dict(),
            wall_seconds=time.perf_counter() - t0,
            simulated_seconds=simulated if simulated else None,
        )
        write_manifest(manifest_path, manifest)
        sys.stderr.write(f"manifest: {manifest_path}\n")
    return 0


def _run_artifact(args, platform, sweep, outputs) -> str:
    """Produce one artifact's text; file side-outputs land in *outputs*."""
    if args.artifact == "export":
        from repro.experiments.export import export_all

        written = export_all(args.out_dir, sweep=sweep, seed=args.seed)
        outputs.extend(str(p) for p in written)
        return (
            "\n".join(str(p) for p in written)
            + f"\nwrote {len(written)} artifacts to {args.out_dir}"
        )
    if args.artifact == "replicate":
        from repro.experiments.replication import render_replication, replicate

        results = replicate(
            range(args.seed, args.seed + args.seeds),
            platform=platform,
            jobs=args.jobs,
            backend=args.backend,
        )
        text = render_replication(results)
    elif args.artifact == "all":
        text = full_report(sweep)
    elif args.artifact == "figure1":
        text = figures.render_figure1(platform)
    elif args.artifact == "figure2":
        text = figures.render_figure2()
    elif args.artifact == "figure3":
        text = figures.render_figure3(seed=args.seed)
    elif args.artifact == "figure4":
        text = figures.render_figure4(sweep, scenario="pareto" if args.quick else args.scenario)
    elif args.artifact == "figure5":
        text = figures.render_figure5(sweep, scenario="pareto" if args.quick else args.scenario)
    elif args.artifact == "table1":
        text = tables.render_table1()
    elif args.artifact == "table2":
        text = tables.render_table2(platform)
    elif args.artifact == "table3":
        text = tables.render_table3(sweep)
    elif args.artifact == "table4":
        text = tables.render_table4(sweep)
    elif args.artifact == "table5":
        text = tables.render_table5(platform)
    elif args.artifact == "faults":
        from repro.experiments.faults import render_fault_sweep, run_fault_sweep
        from repro.simulator.faults import FaultPlan

        base_plan = FaultPlan(
            task_fail_prob=args.fault_task_prob,
            vm_crash_rate=(
                1.0 / args.fault_crash_mtbf if args.fault_crash_mtbf > 0 else 0.0
            ),
            boot_fail_prob=args.fault_boot_prob,
        )
        intensities = [
            float(x) for x in args.fault_intensities.split(",") if x.strip()
        ]
        if args.quick:
            intensities = intensities[:2] or [0.0, 1.0]
        fault_sweep = run_fault_sweep(
            platform=platform,
            workflow=_WORKFLOWS[args.workflow](),
            workflow_name=args.workflow,
            base_plan=base_plan,
            intensities=intensities,
            fault_seeds=1 if args.quick else args.fault_seeds,
            recovery=args.recovery,
            jobs=args.jobs,
            backend=args.backend,
        )
        text = render_fault_sweep(fault_sweep)
    elif args.artifact == "pricing":
        from repro.experiments.pricing import (
            paper_boot_settings,
            render_pricing_sweep,
            run_pricing_sweep,
        )
        from repro.experiments.scenarios import price_scenario

        scenarios = [
            price_scenario(name)
            for name in args.price_scenarios.split(",")
            if name.strip()
        ]
        boot_map = {b.name: b for b in paper_boot_settings()}
        try:
            boots = [
                boot_map[name.strip()]
                for name in args.boot_settings.split(",")
                if name.strip()
            ]
        except KeyError as exc:
            raise SystemExit(
                f"unknown boot setting {exc.args[0]!r}; "
                f"known: {', '.join(sorted(boot_map))}"
            )
        if args.quick:
            scenarios = scenarios[:2]
        pricing_sweep = run_pricing_sweep(
            platform=platform,
            workflow=_WORKFLOWS[args.workflow](),
            workflow_name=args.workflow,
            scenarios=scenarios,
            boots=boots,
            seeds=1 if args.quick else args.price_seeds,
            jobs=args.jobs,
            backend=args.backend,
        )
        text = render_pricing_sweep(pricing_sweep)
    elif args.artifact == "service":
        from repro.core.constraints import Constraints
        from repro.experiments.service import (
            ServiceCell,
            build_requests,
            render_service,
        )
        from repro.service.loop import run_service

        # --tenant-budget is one spelling of the library-wide
        # Constraints object; the budget guard enforces it per tenant
        limits = (
            Constraints(budget=args.tenant_budget)
            if args.tenant_budget > 0
            else None
        )
        cell = ServiceCell(
            platform=platform,
            policy=args.policy,
            admission=args.admission,
            count=100 if args.quick else args.arrivals,
            tenants=10 if args.quick else args.tenants,
            mean_interarrival=args.interarrival,
            seed=args.seed,
            budget=limits.budget if limits is not None else float("inf"),
            max_concurrent=args.max_concurrent or None,
        )
        result = run_service(
            build_requests(cell),
            platform,
            policy=cell.policy,
            admission=cell.admission,
            constraints=limits if cell.admission == "budget" else None,
            max_concurrent=cell.max_concurrent,
        )
        text = render_service(
            result,
            title=(
                f"WaaS service — {cell.count} workflows, {cell.tenants} "
                f"tenants, policy={cell.policy}, admission={cell.admission}, "
                f"seed={cell.seed}"
            ),
        )
    elif args.artifact == "tune":
        from repro.core.constraints import Constraints
        from repro.tune import autotune

        limits = Constraints(
            deadline=args.deadline, budget=args.budget, max_vms=args.max_vms
        )
        tuned = autotune(
            constraints=limits,
            workflow_name=args.workflow,
            scenario=args.scenario,
            workflow_seed=args.seed,
            n_candidates=6 if args.quick else args.candidates,
            eta=args.eta,
            keep_final=args.keep_final,
            seed=args.tune_seed,
            jobs=args.jobs,
            backend=args.backend,
            on_infeasible="return",
        )
        text = tuned.summary()
    elif args.artifact == "profile":
        text = _render_profile(args.workflow)
    elif args.artifact == "gantt":
        text = _render_gantt(args.workflow, args.strategy, platform)
    elif args.artifact == "list":
        from repro.core.allocation.base import SCHEDULING_ALGORITHMS
        from repro.core.provisioning.base import PROVISIONING_POLICIES
        from repro.experiments.config import paper_strategies

        text = "\n".join(
            [
                "figure-4 strategies: "
                + ", ".join(s.label for s in paper_strategies()),
                "provisioning policies: "
                + ", ".join(sorted(PROVISIONING_POLICIES)),
                "scheduling algorithms: "
                + ", ".join(sorted(SCHEDULING_ALGORITHMS)),
                "workflows: " + ", ".join(sorted(_WORKFLOWS)),
            ]
        )
    else:  # explain
        from repro.core.explain import explain, render_explanation

        wf = _WORKFLOWS[args.workflow]()
        sched = strategy(args.strategy).run(wf, platform)
        text = render_explanation(explain(sched))
    return text


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
