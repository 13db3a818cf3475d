"""Run the benchmark on ten seeds and report each metric's spread.

    python3 bench/stability.py [--workloads solve_large,unprecond] [--out FILE] [--against FILE]

For every workload and end-to-end metric this prints the median of the
per-run values and the quartile spread (Q3 - Q1) / median, with
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json``; a spread at or above a third of the bound is flagged.
Run ``i`` uses seed ``FIRST_SEED + i``; ``TRACE_RUNS`` traced runs per
workload follow.  ``--out`` writes the medians, quartiles and per-run
values, the per-layer medians of the traced runs and the environment as
JSON, e.g. the committed baseline ``bench/baseline.json``.  ``--against``
reads such a file from an earlier set of runs and flags every median that
moved from it by more than the metric's bound, either way.  The exit code
is 0 only when nothing is flagged and no run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEED = 1
TRACE_RUNS = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path, help="--out file of an earlier set of runs")
    args = parser.parse_args(argv)
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": RUNS, "seconds": seconds, "first_seed": FIRST_SEED, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        values = {}
        failed = 0
        for i in range(RUNS):
            result, env = run_once(name, FIRST_SEED + i, seconds, 0)
            failed += result["failed"] + (not result["correct"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        rows = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flags = []
            if spread >= bounds[metric] / 3:
                flags.append("spread >= bound/3")
            line = f"{name:13s} {metric:12s} median {med:<14.6g} spread {spread:8.4f}"
            if name in earlier:
                before = earlier[name]["metrics"][metric]["median"]
                moved = med / before - 1.0 if before else 0.0
                line += f"  vs earlier {moved:+8.4f}"
                if abs(moved) > bounds[metric]:
                    flags.append("median moved > bound")
            steady &= not flags
            print(f"{line}  bound {bounds[metric]:.2f}" + "".join(f"  <-- {f}" for f in flags),
                  flush=True)
        per_layer = {}
        for i in range(TRACE_RUNS):
            result, env = run_once(name, FIRST_SEED + i, seconds, 1)
            failed += result["failed"] + (not result["correct"])
            for metric, m in result["metrics"].items():
                per_layer.setdefault(metric, []).append(m["value"])
        print(f"{name:13s} failed or incorrect runs: {failed}", flush=True)
        steady &= failed == 0
        report["workloads"][name] = {
            "metrics": rows, "failed_runs": failed,
            "per_layer": {k: statistics.median(v) for k, v in per_layer.items()}}
    report["env"] = env
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
