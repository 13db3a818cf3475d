"""taumres benchmark: one workload per call, result as the last line of stdout.

    python3 bench/run.py --workload solve_large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``harness.py``).  ``all`` runs
every workload in its own process, one after another.  Run from the
root of a source checkout: the library is imported from ``src/`` and
nowhere else.  Raw records (and, traced, the spans) are written to
``.bench_out/``.  ``--record-reference`` re-records ``reference.json``
from the current program; do that only on a commit known to be correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _print_result(record):
    result = record["result"]
    print(f"workload {record['workload']}  trace {record['trace']}  "
          f"seed {record['env']['seed']}  inputs {' '.join(record['input_order'])}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']!r:>24} {m['unit']}")
    speeds = [refs[k] / walls[k] for walls, refs in zip(record["input_walls_s"],
                                                         record["input_refs_s"]) for k in refs]
    speeds += [r / w for r, w in zip(record["setup_refs_s"], record["setup_walls_s"])]
    if speeds:
        print(f"  host speed (reference-speed s / wall s), median over timed spans: "
              f"{statistics.median(speeds):.3f}")
    print(f"  {'fail_frac':42s} {record['fail_frac']!r:>24} ratio"
          f"  ({result['failed']} of {result['attempted']} ops)")
    for msg in record["failures"][:10]:
        print("  FAIL " + msg.strip().replace("\n", "\n       "))
    if record["missing_bindings"]:
        print("  not traced (binding missing): " + ", ".join(record["missing_bindings"]))


def _run_all(args):
    import harness

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rpartition("\n")[0].rpartition("\n")[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # BLAS reads its thread count when numpy loads, so set it before the import.
    # One thread: the calibration kernel (see harness.py) measures the speed
    # of the CPU the benchmark's thread runs on, not that of a second one.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import taumres
    except ImportError as exc:
        print(f"cannot import taumres from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(taumres.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"taumres imported from {taumres.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.record_reference:
        harness.REFERENCE_PATH.write_text(
            json.dumps({name: harness.reference_values(wl) for name, wl in harness.WORKLOADS.items()},
                       indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)} or all")
    record = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), out_dir=OUT_DIR)
    _print_result(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
