"""Command-line front end for the experiments and spectrum exports.

Commands
--------
example1   first-order benchmark (iterations per preconditioner)
example2   second-order benchmark (iterations and first-step error vs exact solution)
solve      single first-step solve for one or more (alpha1, alpha2) pairs
spectrum   dense spectrum of the (preconditioned) symmetrized operator, CSV export
selftest   run the built-in oracle checks

Flags override values from an optional flat-JSON --config file, whose
keys are the long flag names; null leaves a key unset, and an unknown
key or a value of the wrong JSON type (a fractional or boolean count,
say) is a usage error.  Exit codes: 0 success, 2 a solve failed to
converge, 3 a spectrum violated its theorem interval, 4 I/O failure
(usage errors exit nonzero via argparse).
"""

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass

from .discretization import FIRST_ORDER, SECOND_ORDER
from .pde import (ALPHA_PAIRS, PRECONDITIONERS, example1_problem, example2_problem,
                  run_example1, run_example2, setup_operators)
from .spectrum import (export_spectrum_csv, preconditioned_spectrum,
                       unpreconditioned_spectrum)
from . import selftest as _selftest

__all__ = ["RunConfig", "parse_config", "run", "main"]

COMMANDS = ("example1", "example2", "solve", "spectrum", "selftest")
CSV_COLUMNS = ("alpha1", "alpha2", "n", "preconditioner", "iters", "converged",
               "relres", "err_inf", "wall_seconds")

_SCHEME_MAP = {"first": FIRST_ORDER, "second": SECOND_ORDER}


@dataclass(frozen=True)
class RunConfig:
    command: str
    n1: int = 31
    alphas: tuple = None
    scheme: str = None
    preconditioner: str = "tau"
    tol: float = 1e-8
    maxit: int = 100
    output_path: str = None
    jobs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.n1 < 1:
            raise ValueError(f"n1 must be at least 1, got {self.n1}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.maxit < 1:
            raise ValueError(f"maxit must be at least 1, got {self.maxit}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.preconditioner not in PRECONDITIONERS:
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}, "
                             f"expected one of {PRECONDITIONERS}")


def _parse_alpha_pairs(values):
    pairs = []
    for item in values:
        for chunk in str(item).replace(";", " ").split():
            nums = chunk.split(",")
            if len(nums) != 2:
                raise ValueError(f"alpha pair {chunk!r} must be 'a1,a2'")
            pair = (float(nums[0]), float(nums[1]))
            if not all(1.0 < a < 2.0 for a in pair):
                raise ValueError(f"fractional orders in {chunk!r} must lie in (1, 2)")
            pairs.append(pair)
    if not pairs:
        raise ValueError("no alpha pairs given")
    return tuple(pairs)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="taumres",
        description="Tau-preconditioned MINRES experiments for fractional diffusion.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--n1", type=int, default=None, help="interior points per direction")
    parser.add_argument("--alphas", action="append", default=None, metavar="A1,A2",
                        help="fractional-order pair, repeatable")
    parser.add_argument("--scheme", choices=tuple(_SCHEME_MAP), default=None)
    parser.add_argument("--precond", choices=PRECONDITIONERS, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--maxit", type=int, default=None)
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None, help="flat JSON file with flag defaults")
    return parser


# config-file keys and the JSON type each value must have; null means unset
_FILE_INT_KEYS = ("n1", "maxit", "jobs", "seed")
_FILE_STR_KEYS = ("scheme", "precond", "out")
_FILE_KEYS = _FILE_INT_KEYS + _FILE_STR_KEYS + ("tol", "alphas")


def _config_file_problem(values):
    """Why a config file's values cannot be used as given, or None."""
    unknown = sorted(set(values) - set(_FILE_KEYS))
    if unknown:
        return f"unknown key(s) {', '.join(map(repr, unknown))}; expected {', '.join(_FILE_KEYS)}"
    for key, value in values.items():
        if value is None:
            continue
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        integral = number and (isinstance(value, int) or value.is_integer())
        if key in _FILE_INT_KEYS and not integral:
            return f"{key} must be an integer, got {value!r}"
        if key == "tol" and not number:
            return f"tol must be a number, got {value!r}"
        if key in _FILE_STR_KEYS and not isinstance(value, str):
            return f"{key} must be a string, got {value!r}"
        if key == "alphas" and not (isinstance(value, str) or (
                isinstance(value, list) and all(isinstance(v, str) for v in value))):
            return f"alphas must be a string or a list of strings, got {value!r}"
    return None


def parse_config(argv):
    """Parse flags (and optional --config file; flags win) into a RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    fromfile = {}
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                fromfile = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {ns.config}: {exc}")
        if not isinstance(fromfile, dict):
            parser.error(f"config file {ns.config} must hold a flat JSON object")
        problem = _config_file_problem(fromfile)
        if problem:
            parser.error(f"config file {ns.config}: {problem}")
        fromfile = {key: value for key, value in fromfile.items() if value is not None}

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return fromfile.get(key, default)

    command = ns.command
    scheme_word = pick(ns.scheme, "scheme", None)
    if scheme_word is not None and scheme_word not in _SCHEME_MAP:
        parser.error(f"unknown scheme {scheme_word!r}, expected one of {tuple(_SCHEME_MAP)}")
    if command == "example1":
        if scheme_word == "second":
            parser.error("example1 is the first-order benchmark; --scheme second is contradictory")
        scheme = FIRST_ORDER
    elif command == "example2":
        if scheme_word == "first":
            parser.error("example2 is the second-order benchmark; --scheme first is contradictory")
        scheme = SECOND_ORDER
    else:
        scheme = _SCHEME_MAP.get(scheme_word, SECOND_ORDER)

    raw_alphas = ns.alphas if ns.alphas is not None else fromfile.get("alphas")
    if raw_alphas is None:
        alphas = ALPHA_PAIRS if command in ("example1", "example2") else ((1.5, 1.5),)
    else:
        if isinstance(raw_alphas, str):
            raw_alphas = [raw_alphas]
        try:
            alphas = _parse_alpha_pairs(raw_alphas)
        except ValueError as exc:
            parser.error(str(exc))

    try:
        return RunConfig(
            command=command,
            n1=int(pick(ns.n1, "n1", 31)),
            alphas=alphas,
            scheme=scheme,
            preconditioner=pick(ns.precond, "precond", "tau"),
            tol=float(pick(ns.tol, "tol", 1e-8)),
            maxit=int(pick(ns.maxit, "maxit", 100)),
            output_path=pick(ns.out, "out", None),
            jobs=int(pick(ns.jobs, "jobs", 1)),
            seed=int(pick(ns.seed, "seed", 0)),
        )
    except ValueError as exc:
        parser.error(str(exc))


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in CSV_COLUMNS) + "\n")


def _print_rows(rows):
    header = f"{'alpha1':>7} {'alpha2':>7} {'n':>8} {'precond':>9} {'iters':>6} " \
             f"{'conv':>5} {'relres':>10} {'err_inf':>10} {'wall_s':>8}"
    print(header)
    for r in rows:
        err = "-" if r["err_inf"] is None else f"{r['err_inf']:.2e}"
        print(f"{r['alpha1']:>7.2f} {r['alpha2']:>7.2f} {r['n']:>8d} "
              f"{r['preconditioner']:>9} {r['iters']:>6d} "
              f"{str(r['converged']).lower():>5} {r['relres']:>10.2e} {err:>10} "
              f"{r['wall_seconds']:>8.3f}")


def _experiment_rows(config):
    if config.command == "example1":
        runner = run_example1
        preconds = ("tau", "identity")
    elif config.command == "example2":
        runner = run_example2
        preconds = (config.preconditioner,)
    else:  # solve
        runner = run_example1 if config.scheme == FIRST_ORDER else run_example2
        preconds = (config.preconditioner,)

    cells = [((pair), pc) for pair in config.alphas for pc in preconds]

    def one(cell):
        pair, pc = cell
        return runner(config.n1, alphas=(pair,), preconditioners=(pc,),
                      tol=config.tol, maxit=config.maxit)[0]

    if config.jobs == 1:
        return [one(c) for c in cells]
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(one, cells))


def _spectrum_reports(config):
    problem_of = example1_problem if config.scheme == FIRST_ORDER else example2_problem
    reports = []
    for pair in config.alphas:
        problem = problem_of(config.n1, pair)
        A, P = setup_operators(problem, config.preconditioner)
        reports.append((pair, unpreconditioned_spectrum(A) if P is None
                        else preconditioned_spectrum(A, P, problem.params)))
    return reports


def run(config):
    """Execute the configured command; returns the process exit code."""
    try:
        if config.command == "selftest":
            ok = _selftest.run_selftest(seed=config.seed)
            return 0 if ok else 1

        if config.command == "spectrum":
            out = config.output_path or "spectrum.csv"
            reports = _spectrum_reports(config)
            print(f"{'alpha1':>7} {'alpha2':>7} {'n':>8} {'theorem':>18} "
                  f"{'eps*':>8} {'violations':>10}")
            violations = 0
            for pair, rep in reports:
                root, ext = os.path.splitext(out)
                path = out if len(reports) == 1 else f"{root}_{pair[0]}_{pair[1]}{ext}"
                export_spectrum_csv(rep, path)
                eps = "-" if rep.which_theorem == "none" else f"{rep.epsilon_star:.4f}"
                print(f"{pair[0]:>7.2f} {pair[1]:>7.2f} {rep.n:>8d} "
                      f"{rep.which_theorem:>18} {eps:>8} {rep.violations:>10d}")
                violations += rep.violations
            return 3 if violations > 0 else 0

        rows = _experiment_rows(config)
        _write_rows_csv(rows, config.output_path or "results.csv")
        _print_rows(rows)
        return 2 if any(not r["converged"] for r in rows) else 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main(argv=None):
    config = parse_config(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
