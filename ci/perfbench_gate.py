#!/usr/bin/env python3
"""Gate perfbench's seeded runs on their deterministic metrics.

Usage:
  perfbench_gate.py BASELINE.json RESULT_DIR

For every workload named in BASELINE.json, reads RESULT_DIR/<workload>.json:
the last stdout line of

  python3 perfbench/run.py --workload <workload> --seed <seed> --seconds S
                           --trace 0

and fails (exit 1) when the run is not `correct`, when a metric listed
under "exact" differs from the baseline, or when a count listed under
"max" (the known-fault `failed` count) exceeds it. Simulated cycles and
virtual latencies do not depend on the run length or the host, so they
are compared exactly. Host metrics (setup_s, ops_per_s, peak_rss_mb) are
printed for the record and never gated: shared runners are too noisy for
them.

No third-party dependencies; stdlib json only.
"""

import json
import os
import sys

HOST_METRICS = ("setup_s", "ops_per_s", "peak_rss_mb")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    failures = []
    for workload, want in baseline["workloads"].items():
        path = os.path.join(argv[2], workload + ".json")
        try:
            with open(path) as f:
                got = json.loads(f.read().strip().splitlines()[-1])
        except (OSError, ValueError, IndexError) as e:
            failures.append(f"{workload}: no result in {path} ({e})")
            continue
        metrics = {k: v["value"] for k, v in got.get("metrics", {}).items()}
        if got.get("correct") is not True:
            failures.append(f"{workload}: run is not correct")
        for name in baseline["exact"]:
            if metrics.get(name) != want[name]:
                failures.append(f"{workload}: {name} {metrics.get(name)} "
                                f"!= baseline {want[name]}")
        for name in baseline["max"]:
            if got.get(name, float("inf")) > want[name]:
                failures.append(f"{workload}: {name} {got.get(name)} "
                                f"> baseline {want[name]}")
        host = ", ".join(f"{k} {metrics[k]:.4g}" for k in HOST_METRICS
                         if k in metrics)
        print(f"{workload}: failed {got.get('failed')}, "
              + ", ".join(f"{k} {metrics.get(k)}" for k in baseline["exact"])
              + f" (host, not gated: {host})")
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
