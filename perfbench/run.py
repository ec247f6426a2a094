"""Repository benchmark: four workloads, five end-to-end metrics, and a
traced run that attributes each workload's time to the program's layers.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Every run starts fresh child processes (``PYTHONHASHSEED`` pinned, GC
on) and prints, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, and the spans go to
``perfbench/out/<workload>-seed<n>.trace.json``.  Simulated outcomes of
each untraced run are written beside it to
``perfbench/out/<workload>-seed<n>.outcomes.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402 - needs HERE on the path
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: extra set-up-only children per run; setup_s is the median over
#: these and the measuring child
SETUP_CHILDREN = 4
#: wall limit for all the children of one run, inside the 180 s a
#: whole run may take
RUN_BUDGET_S = 170


class ChildFailed(Exception):
    pass


def spawn(workload: str, *extra: str, deadline: float) -> dict:
    """Run one fresh child, killed at *deadline* (``time.time()``), and
    return its JSON report."""
    timeout = deadline - time.time()
    if timeout <= 0:
        raise ChildFailed(f"{workload}: no time left for another child")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    # string hashing orders sets and dicts, and with them the work done
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--t0", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child timed out after {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited {proc.returncode}")
    return json.loads(lines[-1])


def host_seconds(wall: float, sample_s: float) -> float:
    """*wall* on the reference host, given the mean host-speed sample
    time over it (hostspeed.py): the host's speed drifts by a quarter
    and more, the program's work does not."""
    return wall * hostspeed.REF_S / sample_s


def unit_host_s(unit: dict) -> float:
    return host_seconds(unit["wall"], unit["sample_s"])


def setup_host_s(child: dict) -> float:
    return host_seconds(child["setup_s"], child["setup_sample_s"])


def verdict(workload: str, units: list, reference: dict) -> dict:
    """Operations attempted and failed over all units, and whether every
    unit's simulated results equal the committed reference."""
    attempted = sum(u["ops"] for u in units)
    failed = sum(u["failed"] for u in units)
    expected = reference.get(workload, {})
    match = all(u["digest"] == expected.get(str(u["seed"])) for u in units)
    return {
        "attempted": attempted,
        "failed": failed,
        "success_rate": (attempted - failed) / attempted,
        "outputs_match": 1 if match else 0,
    }


def end_to_end(args, reference: dict, deadline: float) -> tuple:
    setups = [spawn(args.workload, "--setup-only", deadline=deadline)
              for _ in range(SETUP_CHILDREN)]
    run = spawn(args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), *delay_args(args),
                deadline=deadline)
    units = run["units"]
    v = verdict(args.workload, units, reference)
    metrics = {
        "setup_s": (statistics.median(map(setup_host_s, setups + [run])), "s"),
        # over the whole run: units differ in work per task, so a
        # median of per-unit rates jumps between them
        "tasks_per_s": (sum(u["tasks"] for u in units)
                        / sum(map(unit_host_s, units)), "tasks/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "success_rate": (v["success_rate"], "ratio"),
        "outputs_match": (v["outputs_match"], "bool"),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}.outcomes.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "units": units}, indent=1))
    return v, metrics


def traced(args, reference: dict, deadline: float) -> tuple:
    import layers

    work = ("--seed", str(args.seed), "--seconds", str(args.seconds),
            *delay_args(args))
    base = spawn(args.workload, *work, deadline=deadline)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    run = spawn(args.workload, *work, "--trace-out", str(trace_path),
                deadline=deadline)
    units = run["units"]
    v = verdict(args.workload, units, reference)
    # spans hold the sampler's time too, so coverage is over gross wall
    gross = sum(u["wall"] + u["sampling_s"] for u in units)
    values = dict(run["layers"])
    values["trace.coverage"] = run["attributed_s"] / gross
    values["trace.overhead"] = (sum(map(unit_host_s, units))
                                / sum(map(unit_host_s, base["units"])) - 1.0)
    metrics = {name: (values[name], unit) for name, unit in layers.per_layer_metrics()}
    return v, metrics


def delay_args(args) -> list:
    return ["--delay", args.delay] if args.delay else []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--delay", default="",
                    help="module:qualname=seconds spun before every call "
                         "(the sensitivity self-test)")
    args = ap.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"no reference digests at {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    try:
        measure = traced if args.trace else end_to_end
        v, metrics = measure(args, reference, time.time() + RUN_BUDGET_S)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": v["outputs_match"] == 1,
        "attempted": v["attempted"],
        "failed": v["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
