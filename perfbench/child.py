"""One fresh benchmark process: set up a workload, run timed units,
print one JSON line.  Started by run.py, never by hand.

Setup (``setup_s``) is the wall time from the parent's spawn to the
first timed unit: interpreter start, importing ``repro`` and building
what the units reuse.  The units are the workload's seeds for
``--seed``/``--seconds``, or exactly the ``--units`` seeds.

Wall times are reported net of the host-speed sampler's own time, each
with the mean sample time over it (see hostspeed.py); run.py scales
them to seconds on the reference host.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from hostspeed import HostSpeed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--units", default="", help="comma-separated input seeds")
    ap.add_argument("--t0", type=float, required=True, help="parent spawn time")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default="", help="traced run: Chrome trace path")
    ap.add_argument("--delay", default="", help="module:qualname=seconds")
    args = ap.parse_args(argv)
    speed = HostSpeed()
    speed.start()

    import layers
    import workloads

    import repro  # noqa: F401 - the import is part of set-up

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup()
    if args.delay:
        target, _, seconds = args.delay.rpartition("=")
        layers.inject_delay(target, float(seconds))
    tracer = None
    if args.trace_out:
        tracer = layers.LayerTracer()
        tracer.install()
    setup_s = time.time() - args.t0 - speed.busy_since(0)
    speed.lead()
    setup_speed = {"setup_s": setup_s, "setup_sample_s": speed.mean_since(0)}
    if args.setup_only:
        speed.stop()
        print(json.dumps(setup_speed))
        return 0

    if args.units:
        seeds = [int(s) for s in args.units.split(",")]
    else:
        seeds = wl.seeds(args.seed, args.seconds)
    units = []
    for seed in seeds:
        lead = speed.lead()
        start = speed.mark()
        t = time.perf_counter()
        try:
            unit = wl.unit(state, seed)
            gross = time.perf_counter() - t
            row = {"tasks": unit.tasks, "ops": unit.ops, "failed": unit.failed,
                   "digest": unit.digest(), "outcomes": unit.outcomes}
        except Exception:  # a failed unit is reported, not fatal
            gross = time.perf_counter() - t
            traceback.print_exc()
            # the whole call failed: one failed operation, no results
            row = {"tasks": 0, "ops": 1, "failed": 1, "digest": "",
                   "outcomes": {}}
        sampling = speed.busy_since(start)
        units.append({"seed": seed, "wall": gross - sampling,
                      "sampling_s": sampling,
                      "sample_s": speed.mean_since(lead), **row})
    speed.stop()

    out = {
        **setup_speed,
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.totals()
        out["attributed_s"] = tracer.attributed_s()
        out["dropped_spans"] = tracer.dropped
        tracer.write_chrome(args.trace_out, f"perfbench {args.workload}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
