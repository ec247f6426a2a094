"""Sensitivity self-test: does ``tasks_per_s`` see a slower layer?

For each pair, one public function is wrapped with a fixed per-call
delay from the benchmark side.  ``tasks_per_s`` must then fall by more
than its bound on every workload that calls the function, and stay
within the bound on every workload that bypasses it.  Run from the
repository root (about ten minutes)::

    python3 perfbench/selftest.py

Exits 0 when every pair holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (target, per-call delay in seconds, workloads that must move,
#: workloads that must not).  Delays are sized from the traced call
#: counts (4 fused_level_schedule calls per ~19 s large-dag unit, 12
#: CPA-Eager calls per ~0.6 s sweep, ~22k reaps per ~1.1 s service run)
#: to add ~70% to the users' time, a ~40% fall in tasks_per_s.  A delay
#: is fixed work (hostspeed.spin) taking that long on the reference host.
PAIRS = [
    ("repro.kernels.provision:fused_level_schedule", 3.5,
     ["large-dag"], ["paper-sweep"]),
    ("repro.core.allocation.cpa_eager:CpaEagerScheduler.schedule", 0.04,
     ["paper-sweep"], ["large-dag"]),
    ("repro.service.fleet:FleetManager.reap", 0.00004,
     ["waas-steady"], ["paper-sweep", "large-dag", "tune-spot"]),
]
SEED = 7


def tasks_per_s(workload: str, seconds: int, delay: str = "") -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    if delay:
        cmd += ["--delay", delay]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    if not report["correct"]:
        raise SystemExit(f"{workload}: incorrect outputs under {delay or 'no delay'}")
    return report["metrics"]["tasks_per_s"]["value"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "tasks_per_s")
    ok = True
    for target, delay, users, bypass in PAIRS:
        for workload in users + bypass:
            # back to back: the host's speed drifts over minutes
            base = tasks_per_s(workload, seconds)
            rate = tasks_per_s(workload, seconds, f"{target}={delay}")
            change = rate / base - 1.0
            must_move = workload in users
            held = change < -bound if must_move else change >= -bound
            ok = ok and held
            print(f"{'ok  ' if held else 'FAIL'} {target.split(':')[1]} "
                  f"+{delay}s/call  {workload:12s} {change:+.1%} "
                  f"({'must fall more than' if must_move else 'must stay within'} "
                  f"{bound:.0%})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
