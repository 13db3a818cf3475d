"""Workloads, correctness gate and metrics of the taumres benchmark.

Every workload is a closed loop in one process, one operation ("op") at
a time.  An op is one pass over the workload's fixed list of inputs (the
paper's alpha pairs); the seed fixes the order of that list.  Each op
gets a fresh set-up (operator assembly, preconditioner build, initial
sampling), timed apart from the op, so every op does the same work, lazy
kernels included.

The library is driven only through its public modules (``pde``, ``tau``,
``discretization``, ``toeplitz``, ``krylov``, ``spectrum``,
``transforms``).  Results are checked by the harness itself against the
seed reference values in ``reference.json``; see ``check``.

End-to-end metrics (untraced ops, times in reference-speed seconds):
    setup_s      one set-up pass over the op's inputs: the median over the
                 run of the mean pass of each slice of passes (SETUP_SLICES
                 slices before each op)
    op_s         one op, set-up excluded: the sum over the op's inputs of
                 the median over the run of that input's solve
    iter_ms      op_s / iters
    iters        MINRES iterations per op (verify_dense: the n dense
                 column applications of P^-1/2 Y A P^-1/2, its unit of work)
    peak_rss_mb  peak resident memory of the process
Reference-speed seconds: the speed of a shared host changes from one
second to the next (on a 2-vCPU Xeon VM a fixed interpreter loop took
from 110 to 210 ms within a minute, with no steal time reported, and an
unprecond solve 1.04 s or 2.19 s), and interpreter, FFT and dense matrix
work slow nearly alike.  So while an untraced slice of set-up passes or
a solve runs, a fixed calibration kernel (``calibrate``, numpy and
interpreter work that does not touch taumres) is timed before it, after
it and every CAL_EVERY_S in between, from a SIGALRM handler whose own
time is taken off the span.  BLAS runs on one thread (``run.py``), so the
kernel runs where the measured work runs.
The span's reference-speed time is the integral over its wall time of
CAL_REF_S / (calibration time), interpolated between samples
(``timed``): what it would take on a host that runs the kernel in
CAL_REF_S, about the fast state of the host above.  A change of the
program moves it as it moves the wall time.  The raw wall times are kept
in the run's record next to the reference-speed times.
fail_frac (failed ops / attempted ops) is printed and carried by the
``failed``/``attempted`` fields; it is 0 on a correct program, so it is
not a gated metric.

Per-layer metrics (traced run, ``<layer>.<function>.<stat>``):
    ms         median inclusive wall time per call, over set-up and op calls
    calls      calls per op
    share      time inside the function (children included, calls nested in
               the same function counted once) / traced op wall time
    self_ms    median self time per call (children excluded)
    self_share self time per op / traced op wall time
    per_dst    ms / transforms.dst1_multi.ms of the same run (the FFT-pass
               budget); 0 on a workload that makes no dst1_multi call
    layer.<layer>.self_share  self time of all of a layer's spans per op
    untraced.remainder_share  op time no traced function covers
    trace.overhead_share      (median traced - median untraced op) / median untraced op
The layer self shares plus the remainder add up to the traced op wall
time; a run where they do not is reported as incorrect.
"""

import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from taumres import discretization, krylov, pde, spectrum, tau
from tracing import LAYERS, Tracer, durations_ms, root_profiles, self_times

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SOLVE_TOL = 1e-8       # MINRES stopping tolerance of the paper's runners
RELRES_TOL = 1e-6      # recomputed ||b - A x|| / ||b||; the solve stops on the P-norm
ERR_FACTOR = 1.05      # err_inf may exceed the seed reference by at most 5%
UNPRECOND_DRIFT = 1e-6  # solution vs seed summary, relative to max |x_ref| (norm: to it)
MARCH_DRIFT = 1e-8     # the march's final u; loosening MINRES tol to 1e-7 moves it by 8e-8
EIG_TOL = 1e-8         # verify_dense extreme eigenvalues vs seed, relative

MIN_OPS = 3            # ops per run however short --seconds is
MIN_TRACED_OPS = 4     # traced runs: two untraced and two traced ops at least
SETUP_SLICES = 5       # before each op, time this many slices of set-up passes,
SETUP_SLICE_S = 0.05   # ... each of passes for this long ...
MAX_SETUPS = 40        # ... or this many passes; the op uses the last pass's states
CAL_LOOP = 6_000       # calibration kernel: interpreter loop iterations,
CAL_FFTS = 2           # ... FFT + vector passes over CAL_VEC,
CAL_MATMULS = 12       # ... and products CAL_MAT @ CAL_MAT
CAL_EVERY_S = 0.05     # calibration sample interval inside a timed span
CAL_REF_S = 0.0011     # calibration time that defines reference speed (see above);
                       # changing it rescales every time metric
_cal_rng = np.random.default_rng(0)
CAL_VEC = _cal_rng.standard_normal(16384)
CAL_MAT = _cal_rng.standard_normal((96, 96))
# Preallocated outputs: the kernel must not allocate, or its time would
# depend on the state of the allocator the workload leaves behind.
_cal_spec = np.empty(CAL_VEC.size // 2 + 1, dtype=complex)
_cal_vec_out = np.empty_like(CAL_VEC)
_cal_mat_out = np.empty_like(CAL_MAT)


@dataclass
class State:
    problem: object
    A: object
    P: object
    u0: object


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``setup(pair)`` builds a ``State``; ``op(state)`` runs the timed
    work; ``summary(state, outcome)`` computes the values ``check``
    compares with the seed reference.  With ``drift_tol`` the summary
    holds the solution's norm and a few entries, which may drift from the
    seed's by at most that much.
    """

    name: str
    inputs: tuple
    setup: object
    op: object
    summary: object
    drift_tol: float = None


def pair_key(pair):
    return f"{pair[0]},{pair[1]}"


def _setup(example, n1, precond):
    def setup(pair):
        problem = example(n1, pair)
        A = discretization.assemble_operator(problem.params, problem.grid, problem.nu)
        P = tau.build_preconditioner(problem.params, problem.grid, problem.nu) \
            if precond else None
        u0 = pde.sample_grid(problem.grid, problem.u0)
        return State(problem, A, P, u0)
    return setup


def grid_values(grid, fn, t):
    """fn on the interior grid, lexicographic order, from the harness's own coordinates."""
    axes = [grid.a[i] + grid.h[i] * np.arange(1, grid.n[i] + 1) for i in range(len(grid.n))]
    coords = np.meshgrid(*axes, indexing="ij", sparse=True)
    return np.broadcast_to(np.asarray(fn(*coords, t), dtype=float), grid.n).reshape(-1)


def _solution_summary(x, entries=False):
    out = {"finite": bool(np.all(np.isfinite(x)))}
    if entries:
        idx = [0, x.size // 3, x.size // 2, (2 * x.size) // 3, x.size - 1]
        out["norm"] = float(np.linalg.norm(x))
        out["max_abs"] = float(np.max(np.abs(x)))
        out["entries"] = {str(i): float(x[i]) for i in idx}
    return out


def first_step(name, example, n1, pairs, precond, maxit, drift_tol=None):
    """First time step solved once per input, the paper's protocol x0 = 1/sqrt(n)."""
    second = example is pde.example2_problem

    def op(s):
        n = s.problem.grid.size
        cfg = krylov.MinresConfig(tol=SOLVE_TOL, maxit=maxit, x0=np.full(n, 1.0 / math.sqrt(n)))
        if second:
            return pde.step_second_order(s.problem, s.A, s.P, s.u0, 0.0, cfg)
        return pde.step_first_order(s.problem, s.A, s.P, s.u0, s.problem.tau_step, cfg)

    def summary(s, outcome):
        x, rep = outcome
        prob = s.problem
        t = prob.tau_step
        if second:
            b = 2.0 * prob.nu * s.u0 - s.A.apply(s.u0) + grid_values(prob.grid, prob.source, 0.5 * t)
        else:
            b = prob.nu * s.u0 + grid_values(prob.grid, prob.source, t)
        out = {"iters": rep.iters, "converged": bool(rep.converged),
               "relres": float(np.linalg.norm(b - s.A.apply(x)) / np.linalg.norm(b))}
        out.update(_solution_summary(x, entries=drift_tol is not None))
        if prob.exact is not None:
            out["err_inf"] = float(np.max(np.abs(x - grid_values(prob.grid, prob.exact, t))))
        return out

    return Workload(name, tuple(pairs), _setup(example, n1, precond), op, summary, drift_tol)


def march(name, n1, pair):
    """Example 2 marched to T by ``run_steps``, tau preconditioner.

    ``run_steps`` assembles its own operator and preconditioner, so op_s
    includes one set-up (a few ms at this size) that setup_s also reports.
    """
    def op(s):
        return pde.run_steps(s.problem, preconditioner="tau")

    def summary(s, outcome):
        u, reports = outcome
        prob = s.problem
        out = {"iters": sum(r.iters for r in reports),
               "converged": all(r.converged for r in reports) and len(reports) == prob.M}
        out.update(_solution_summary(u, entries=True))
        out["err_inf"] = float(np.max(np.abs(u - grid_values(prob.grid, prob.exact, prob.T))))
        return out

    return Workload(name, (pair,), _setup(pde.example2_problem, n1, True), op, summary,
                    MARCH_DRIFT)


def dense_spectrum(name, n1, pair):
    """Dense preconditioned spectrum of the example-2 operator."""
    def setup(pair):
        problem = pde.example2_problem(n1, pair)
        A = discretization.assemble_operator(problem.params, problem.grid, problem.nu)
        P = tau.build_preconditioner(problem.params, problem.grid, problem.nu)
        return State(problem, A, P, None)

    def op(s):
        return spectrum.preconditioned_spectrum(s.A, s.P, s.problem.params)

    def summary(s, report):
        ev = report.eigenvalues
        return {"iters": int(s.A.n), "converged": ev.shape == (s.A.n,),
                "finite": bool(np.all(np.isfinite(ev))), "violations": int(report.violations),
                "ev_min": float(ev[0]), "ev_max": float(ev[-1])}

    return Workload(name, (pair,), setup, op, summary)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    first_step("solve_large", pde.example2_problem, 1023, ((1.1, 1.1), (1.9, 1.9)),
               precond=True, maxit=100),
    march("march_mid", 127, (1.5, 1.5)),
    first_step("unprecond", pde.example1_problem, 255, ((1.9, 1.1), (1.5, 1.1), (1.1, 1.1)),
               precond=False, maxit=1000, drift_tol=UNPRECOND_DRIFT),
    dense_spectrum("verify_dense", 63, (1.5, 1.9)),
)}


def check(summary, ref, drift_tol=None):
    """Failure messages for one input; empty when the result is correct."""
    fails = []
    if not summary["converged"]:
        fails.append("solve did not converge")
    if not summary["finite"]:
        fails.append("non-finite solution")
    if summary.get("relres", 0.0) > RELRES_TOL:
        fails.append(f"recomputed relres {summary['relres']:.3e} > {RELRES_TOL:g}")
    if "err_inf" in ref and not summary["err_inf"] <= ERR_FACTOR * ref["err_inf"]:
        fails.append(f"err_inf {summary['err_inf']:.6e} > {ERR_FACTOR} x seed {ref['err_inf']:.6e}")
    if drift_tol is not None:
        scale = drift_tol * ref["max_abs"]
        if not abs(summary["norm"] - ref["norm"]) <= drift_tol * ref["norm"]:
            fails.append(f"solution norm {summary['norm']!r} drifted from seed {ref['norm']!r}")
        for i, v in ref["entries"].items():
            if not abs(summary["entries"][i] - v) <= scale:
                fails.append(f"x[{i}] = {summary['entries'][i]!r} drifted from seed {v!r}")
    if summary.get("violations", 0) > 0:
        fails.append(f"{summary['violations']} eigenvalues outside the theorem interval")
    for key in ("ev_min", "ev_max"):
        if key in ref and not abs(summary[key] - ref[key]) <= EIG_TOL * abs(ref[key]):
            fails.append(f"{key} {summary[key]!r} differs from seed {ref[key]!r}")
    return fails


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    """Context recorded with every result; none of it is gated."""
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = ROOT / "src"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ[v] for v in sorted(os.environ) if v.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fft_backend": sorted(m for m in sys.modules if m.endswith(("fft", "pocketfft_umath"))),
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def calibrate():
    """Seconds of one pass of the fixed calibration kernel now.

    The kernel does interpreter, FFT and vector, and dense matrix work in
    about equal parts, as the workloads do in varying parts, and uses
    nothing of taumres, so no change of the program changes it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    for _ in range(CAL_FFTS):
        np.fft.rfft(CAL_VEC, out=_cal_spec)
        np.fft.irfft(_cal_spec, n=CAL_VEC.size, out=_cal_vec_out)
        np.multiply(CAL_VEC, 1.0001, out=_cal_vec_out)
        np.add(_cal_vec_out, CAL_VEC, out=_cal_vec_out)
    for _ in range(CAL_MATMULS):
        np.matmul(CAL_MAT, CAL_MAT, out=_cal_mat_out)
    return time.perf_counter() - t0


def timed(fn, *args):
    """Run ``fn(*args)`` with calibration samples; returns (result, wall s, reference-speed s).

    The wall time excludes the samples taken inside the span.  Samples
    are (time into the span, calibration time); the reference-speed time
    integrates CAL_REF_S / calibration time over the span, trapezoid rule.
    """
    samples = [(0.0, calibrate())]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t = time.perf_counter()
        samples.append((t - t0 - spent, calibrate()))
        spent += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, tick)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - spent
        signal.signal(signal.SIGALRM, previous)
    samples.append((wall, calibrate()))
    ref = sum((tb - ta) * 0.5 * (CAL_REF_S / ca + CAL_REF_S / cb)
              for (ta, ca), (tb, cb) in zip(samples, samples[1:]))
    return result, wall, ref


def _one_op(wl, states, tracer, refs):
    """Run one op; returns its record (wall times, iterations, failures).

    Each input is timed apart; an untraced input also in reference-speed
    seconds (``timed``), a traced one by wall time only.
    """
    install = tracer.install() if tracer else contextlib.nullcontext([])
    t0 = time.perf_counter()
    try:
        with install as missing:
            t0 = time.perf_counter()
            with tracer.root("op") if tracer else contextlib.nullcontext() as root:
                outcomes = []
                input_walls = {}
                input_refs = {}
                for s in states:
                    key = pair_key(s.problem.params.alpha)
                    if tracer:
                        t1 = time.perf_counter()
                        outcomes.append(wl.op(s))
                        input_walls[key] = time.perf_counter() - t1
                    else:
                        outcome, input_walls[key], input_refs[key] = timed(wl.op, s)
                        outcomes.append(outcome)
            wall = time.perf_counter() - t0
    except Exception:  # an op that raises is a failed op; the run goes on
        return {"wall": time.perf_counter() - t0, "input_walls": {}, "input_refs": {},
                "iters": None, "root": None, "failures": [traceback.format_exc(limit=3)],
                "missing": []}
    failures = []
    iters = 0
    for s, outcome in zip(states, outcomes):
        summary = wl.summary(s, outcome)
        iters += summary["iters"]
        key = pair_key(s.problem.params.alpha)
        failures += [f"{key}: {msg}" for msg in check(summary, refs[key], wl.drift_tol)]
    return {"wall": wall, "input_walls": input_walls, "input_refs": input_refs, "iters": iters,
            "root": root, "failures": failures, "missing": missing}


def measure(wl, refs, seed, seconds, trace):
    """Run the workload for ``seconds`` (at least MIN_OPS ops); returns the raw record.

    With ``trace`` the ops alternate untraced and traced, and the set-up
    passes are traced and timed by wall time only.
    """
    rng = np.random.default_rng(seed)
    inputs = [wl.inputs[i] for i in rng.permutation(len(wl.inputs))]
    tracer = Tracer() if trace else None
    setup_walls = []
    setup_refs = []

    def setup_slice():
        # Set-up passes for SETUP_SLICE_S or MAX_SETUPS passes; traced, each
        # pass is a span.
        begin = time.perf_counter()
        for count in range(1, MAX_SETUPS + 1):
            with tracer.traced("setup") if trace else contextlib.nullcontext():
                states = [wl.setup(p) for p in inputs]
            if time.perf_counter() - begin >= SETUP_SLICE_S:
                break
        return states, count

    def setup_passes():
        # Set-up samples spread over the whole run see the same machine
        # states as the ops.  Each sample is the mean pass of a slice.
        for _ in range(SETUP_SLICES):
            if trace:
                t0 = time.perf_counter()
                states, count = setup_slice()
                wall = time.perf_counter() - t0
            else:
                (states, count), wall, ref = timed(setup_slice)
                setup_refs.append(ref / count)
            setup_walls.append(wall / count)
        return states

    ops = []
    cycles = []
    begin = time.perf_counter()
    # Start another op only if a typical set-up + op cycle still ends within
    # ``seconds``, so a run lasts about ``seconds`` whatever the op length.
    min_ops = MIN_TRACED_OPS if trace else MIN_OPS
    while len(ops) < min_ops or \
            time.perf_counter() - begin + statistics.median(cycles) <= seconds:
        t0 = time.perf_counter()
        states = setup_passes()
        traced = trace and len(ops) % 2 == 1
        rec = _one_op(wl, states, tracer if traced else None, refs)
        rec["traced"] = traced
        ops.append(rec)
        del states
        cycles.append(time.perf_counter() - t0)
    return {"ops": ops, "setup_walls": setup_walls, "setup_refs": setup_refs, "tracer": tracer,
            "peak_rss_mb": peak_rss_mb(), "inputs": [pair_key(p) for p in inputs]}


def end_to_end_metrics(raw):
    plain = [op for op in raw["ops"] if not op["traced"]]
    keys = {key for op in plain for key in op["input_refs"]}
    op_s = sum(statistics.median(op["input_refs"][key] for op in plain if key in op["input_refs"])
               for key in keys)
    counted = [op["iters"] for op in plain if op["iters"] is not None]
    iters = statistics.median(counted) if counted else 0
    return {
        "setup_s": (statistics.median(raw["setup_refs"]), "s"),
        "op_s": (op_s, "s"),
        "iter_ms": (1e3 * op_s / iters if iters else 0.0, "ms"),
        "iters": (iters, "count"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


# Functions whose per-layer stats are reported, with the stats.
PER_LAYER = {
    "transforms.dst1_multi": ("ms", "calls"),
    "toeplitz.apply_symmetrized": ("ms", "calls", "share", "per_dst"),
    "toeplitz.apply": ("ms", "calls"),
    "toeplitz.Toeplitz1D.matvec": ("ms", "calls"),
    "tau.build_preconditioner": ("ms",),
    "tau.apply_inverse": ("ms", "calls", "share", "per_dst"),
    "tau.apply_inv_sqrt": ("ms", "calls"),
    "discretization.assemble_operator": ("ms",),
    "krylov.pminres": ("calls", "self_ms", "self_share"),
    "pde.sample_grid": ("ms", "calls", "share"),
    "pde.step_second_order": ("ms",),
    "spectrum.sym_eig": ("ms", "share"),
    "spectrum.preconditioned_spectrum": ("self_ms",),
}
UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "share": "ratio",
         "self_share": "ratio", "per_dst": "ratio"}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{fn}.{stat}", UNITS[stat]) for fn, stats in PER_LAYER.items() for stat in stats]
    names += [(f"layer.{layer}.self_share", "ratio") for layer in LAYERS]
    names += [("untraced.remainder_share", "ratio"), ("trace.overhead_share", "ratio")]
    return names


def per_layer_metrics(raw):
    """Per-layer metrics and layer-accounting failures from the traced ops."""
    spans = raw["tracer"].spans
    own = self_times(spans)
    profiles = root_profiles(spans, own)
    durations = durations_ms(spans)
    traced = [op for op in raw["ops"] if op["traced"] and op["root"] is not None]
    plain = [op for op in raw["ops"] if not op["traced"]]

    def per_op(fn):
        return statistics.median(fn(profiles[op["root"]]) for op in traced) if traced else 0.0

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    metrics = {}
    dst_ms = median_or_zero(durations.get("transforms.dst1_multi", []))
    for fn, stats in PER_LAYER.items():
        ms = median_or_zero(durations.get(fn, []))
        for stat in stats:
            if stat == "ms":
                value = ms
            elif stat == "calls":
                value = per_op(lambda p: p["calls"].get(fn, 0))
            elif stat == "share":
                value = per_op(lambda p: p["inclusive"].get(fn, 0.0) / p["wall"])
            elif stat == "self_share":
                value = per_op(lambda p: p["self"].get(fn, 0.0) / p["wall"])
            elif stat == "self_ms":
                value = 1e3 * median_or_zero(
                    [t for op in traced for t in profiles[op["root"]]["self_each"].get(fn, [])])
            else:  # per_dst
                value = ms / dst_ms if dst_ms else 0.0
            metrics[f"{fn}.{stat}"] = value
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = per_op(
            lambda p: p["layer_self"].get(layer, 0.0) / p["wall"])
    metrics["untraced.remainder_share"] = per_op(lambda p: p["remainder"] / p["wall"])
    traced_s = median_or_zero([sum(op["input_walls"].values()) for op in traced])
    plain_s = median_or_zero([sum(op["input_walls"].values()) for op in plain])
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s if plain_s else 0.0

    failures = []
    for op in traced:
        p = profiles[op["root"]]
        accounted = sum(p["layer_self"].values()) + p["remainder"]
        negative = [spans[i][0] for i, t in enumerate(own) if spans[i][4] == op["root"] and t < -1e-6]
        if negative:
            failures.append(f"negative self time in {sorted(set(negative))}")
        if abs(accounted - op["wall"]) > 1e-3 * op["wall"] + 1e-4:
            failures.append(f"layer self times + remainder = {accounted:.6f} s "
                            f"but the traced op took {op['wall']:.6f} s")
    return {name: (metrics[name], unit) for name, unit in per_layer_names()}, failures


def run(wl, seed, seconds, trace, refs=None, out_dir=None):
    """Measure workload ``wl``; returns its record, with the printed result under "result".

    ``refs`` defaults to the workload's seed values in ``reference.json``.
    """
    refs = json.loads(REFERENCE_PATH.read_text())[wl.name] if refs is None else refs
    raw = measure(wl, refs, seed, seconds, trace)
    ops = raw["ops"]
    failures = [msg for op in ops for msg in op["failures"]]
    failed = sum(1 for op in ops if op["failures"])
    if trace:
        metrics, accounting = per_layer_metrics(raw)
        failures += accounting
    else:
        metrics, accounting = end_to_end_metrics(raw), []
    result = {
        "correct": failed == 0 and not accounting,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name, "trace": int(trace), "env": environment(seed),
        "input_order": raw["inputs"], "failures": failures,
        "fail_frac": failed / len(ops),
        "op_walls_s": [op["wall"] for op in ops],
        "input_walls_s": [op["input_walls"] for op in ops],
        "input_refs_s": [op["input_refs"] for op in ops],
        "op_traced": [op["traced"] for op in ops],
        "setup_walls_s": raw["setup_walls"],
        "setup_refs_s": raw["setup_refs"],
        "missing_bindings": sorted({m for op in ops for m in op["missing"]}),
        "result": result,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
        body = dict(record, spans=raw["tracer"].spans if trace else [])
        path.write_text(json.dumps(body))
    return record


def reference_values(wl):
    """One op of ``wl`` summarised by the harness, keyed by input: the values ``check`` uses."""
    refs = {}
    for pair in wl.inputs:
        s = wl.setup(pair)
        summary = wl.summary(s, wl.op(s))
        summary.pop("converged")
        summary.pop("finite")
        refs[pair_key(pair)] = summary
    return refs
