#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload (from
the repository root) and reports, per metric, the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound. Exits non-zero if a run fails its checks or a spread
(other than setup_s) reaches a third of its bound.

    python3 perfbench/spread.py                      # 10 seeds, every workload
    python3 perfbench/spread.py --seeds 5 --workloads whatif
    python3 perfbench/spread.py --held-out           # the held-out seed, once each

Seeds 1..N are the tuning seeds. HELD_OUT_SEED is kept out of tuning so
a later performance claim can be re-checked on inputs it was not fitted
to.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HELD_OUT_SEED = 9001
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed, trace=0):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{out.stderr[-2000:]}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    ap.add_argument("--held-out", action="store_true", help=f"run seed {HELD_OUT_SEED} once each")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = [HELD_OUT_SEED] if args.held_out else list(range(1, args.seeds + 1))
    steady = True
    for w in workloads:
        runs = [run(spec, w, s) for s in seeds]
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            line = f"{w:9} {m['name']:18} median {median:<12.6g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                ok = m["name"] == "setup_s" or spread < m["bound"] / 3
                steady &= ok
                line += f" spread {spread:7.2%} (bound {m['bound']:.0%}){'' if ok else '  <-- unsteady'}"
            print(line, flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
