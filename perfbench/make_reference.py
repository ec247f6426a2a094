"""Regenerate reference.json: the digest of every pooled input's
simulated results, per workload.  Run from the repository root after a
change that is meant to alter simulated results::

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main(names) -> int:
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    status = 0
    for name in names or workloads.WORKLOADS:
        pool = workloads.WORKLOADS[name].pool
        report = run.spawn(name, "--units", ",".join(map(str, range(pool))),
                           deadline=time.time() + 3600)
        bad = [u["seed"] for u in report["units"] if not u["digest"]]
        if bad:
            print(f"{name}: units raised for seeds {bad}", file=sys.stderr)
            status = 1
            continue
        failed = sum(u["failed"] for u in report["units"])
        if failed:
            print(f"{name}: {failed} failed operation(s) recorded in the "
                  "reference", file=sys.stderr)
        reference[name] = {str(u["seed"]): u["digest"] for u in report["units"]}
        print(f"{name}: {pool} digests", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
