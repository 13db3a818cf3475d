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
import os
import sys
from dataclasses import dataclass

from .discretization import FIRST_ORDER, SECOND_ORDER
from .krylov import MinresConfig
from .pde import (ALPHA_PAIRS, PRECONDITIONERS, example1_problem, example2_problem,
                  first_step_row, setup_operators)
from .spectrum import (export_spectrum_csv, preconditioned_spectrum,
                       unpreconditioned_spectrum)
from . import selftest as _selftest

__all__ = ["RunConfig", "parse_config", "run", "main"]

COMMANDS = ("example1", "example2", "solve", "spectrum", "selftest")
CSV_COLUMNS = ("alpha1", "alpha2", "n", "preconditioner", "iters", "converged",
               "relres", "err_inf", "wall_seconds")

# CLI word -> scheme; example1 and example2 each run one scheme, the
# other commands default to second order
_SCHEMES = {"first": FIRST_ORDER, "second": SECOND_ORDER}
_COMMAND_SCHEME = {"example1": FIRST_ORDER, "example2": SECOND_ORDER}
_EXAMPLES = {FIRST_ORDER: example1_problem, SECOND_ORDER: example2_problem}


# the JSON kind a config-file value must have (json gives exact types, so
# a bool is no number); integers and numbers are also the flags' argparse types
_KINDS = {
    "an integer": lambda v: type(v) is int or (type(v) is float and v.is_integer()),
    "a number": lambda v: type(v) in (int, float),
    "a string": lambda v: isinstance(v, str),
    "a string or a list of strings": lambda v: isinstance(v, str) or (
        isinstance(v, list) and all(isinstance(s, str) for s in v)),
}
_TYPES = {"an integer": int, "a number": float}

# Every option once: its name is the flag, the config-file key and the
# RunConfig field; its JSON kind and parser settings; its default is on RunConfig
_OPTIONS = {
    "n1": ("an integer", {"help": "interior points per direction"}),
    "alphas": ("a string or a list of strings", {"action": "append", "metavar": "A1,A2",
                                                 "help": "fractional-order pair, repeatable"}),
    "scheme": ("a string", {"choices": tuple(_SCHEMES)}),
    "precond": ("a string", {"choices": PRECONDITIONERS}),
    "tol": ("a number", {}),
    "maxit": ("an integer", {}),
    "out": ("a string", {"help": "output CSV path"}),
    "jobs": ("an integer", {}),
    "seed": ("an integer", {}),
}


@dataclass(frozen=True)
class RunConfig:
    """One run; ``scheme`` and ``alphas`` left as None take the command's."""

    command: str
    n1: int = 31
    alphas: tuple = None
    scheme: str = None
    precond: str = "tau"
    tol: float = 1e-8
    maxit: int = 100
    out: str = None
    jobs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.n1 < 1:
            raise ValueError(f"n1 must be at least 1, got {self.n1}")
        MinresConfig(self.tol, self.maxit)
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        fixed = _COMMAND_SCHEME.get(self.command)
        if self.scheme is not None and fixed not in (None, self.scheme):
            raise ValueError(f"{self.command} runs the {fixed} scheme; "
                             f"scheme {self.scheme} is contradictory")
        object.__setattr__(self, "scheme", self.scheme or fixed or SECOND_ORDER)
        if self.alphas is None:
            object.__setattr__(self, "alphas", ALPHA_PAIRS if fixed else ((1.5, 1.5),))


def _parse_alpha_pairs(raw):
    """'a1,a2' pairs from a string or a list of strings, separated by spaces or semicolons."""
    pairs = []
    for chunk in " ".join([raw] if isinstance(raw, str) else raw).replace(";", " ").split():
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
    for name, (kind, settings) in _OPTIONS.items():
        parser.add_argument(f"--{name}", type=_TYPES.get(kind), default=None, **settings)
    parser.add_argument("--config", default=None, help="flat JSON file with flag defaults")
    return parser


def _config_file_values(parser, path):
    """The set values of a flat-JSON config file, typed like their flags; null means unset."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"config file {path} must hold a flat JSON object")
    unknown = sorted(set(values) - set(_OPTIONS))
    if unknown:
        parser.error(f"config file {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                     f"expected {', '.join(_OPTIONS)}")
    typed = {}
    for key, value in values.items():
        kind, settings = _OPTIONS[key]
        if value is None:
            continue
        if not _KINDS[kind](value):
            parser.error(f"config file {path}: {key} must be {kind}, got {value!r}")
        choices = settings.get("choices")
        if choices and value not in choices:
            parser.error(f"config file {path}: unknown {key} {value!r}, "
                         f"expected one of {choices}")
        typed[key] = _TYPES[kind](value) if kind in _TYPES else value
    return typed


def parse_config(argv):
    """Parse flags (and optional --config file; flags win) into a RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    values = {} if ns.config is None else _config_file_values(parser, ns.config)
    values.update((key, getattr(ns, key)) for key in _OPTIONS if getattr(ns, key) is not None)
    try:
        if "alphas" in values:
            values["alphas"] = _parse_alpha_pairs(values["alphas"])
        if "scheme" in values:
            values["scheme"] = _SCHEMES[values["scheme"]]
        return RunConfig(ns.command, **values)
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
    print(f"{'alpha1':>7} {'alpha2':>7} {'n':>8} {'precond':>9} {'iters':>6} "
          f"{'conv':>5} {'relres':>10} {'err_inf':>10} {'wall_s':>8}")
    for r in rows:
        err = "-" if r["err_inf"] is None else f"{r['err_inf']:.2e}"
        print(f"{r['alpha1']:>7.2f} {r['alpha2']:>7.2f} {r['n']:>8d} "
              f"{r['preconditioner']:>9} {r['iters']:>6d} "
              f"{str(r['converged']).lower():>5} {r['relres']:>10.2e} {err:>10} "
              f"{r['wall_seconds']:>8.3f}")


def _experiment_rows(config):
    problem_of = _EXAMPLES[config.scheme]
    # example1 compares every preconditioner
    preconds = PRECONDITIONERS if config.command == "example1" else (config.precond,)
    cells = [(pair, pc) for pair in config.alphas for pc in preconds]

    def one(cell):
        pair, pc = cell
        return first_step_row(problem_of(config.n1, pair), pc, config.tol, config.maxit)

    if config.jobs == 1:
        return [one(c) for c in cells]
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(one, cells))


def _spectrum_reports(config):
    problem_of = _EXAMPLES[config.scheme]
    for pair in config.alphas:
        problem = problem_of(config.n1, pair)
        A, P = setup_operators(problem, config.precond)
        yield pair, (unpreconditioned_spectrum(A) if P is None
                     else preconditioned_spectrum(A, P, problem.params))


def run(config):
    """Execute the configured command; returns the process exit code."""
    try:
        if config.command == "selftest":
            return 0 if _selftest.run_selftest(seed=config.seed) else 1

        if config.command == "spectrum":
            out = config.out or "spectrum.csv"
            root, ext = os.path.splitext(out)
            print(f"{'alpha1':>7} {'alpha2':>7} {'n':>8} {'theorem':>18} "
                  f"{'eps*':>8} {'violations':>10}")
            violations = 0
            for pair, rep in _spectrum_reports(config):
                path = out if len(config.alphas) == 1 else f"{root}_{pair[0]}_{pair[1]}{ext}"
                export_spectrum_csv(rep, path)
                eps = "-" if rep.which_theorem == "none" else f"{rep.epsilon_star:.4f}"
                print(f"{pair[0]:>7.2f} {pair[1]:>7.2f} {rep.n:>8d} "
                      f"{rep.which_theorem:>18} {eps:>8} {rep.violations:>10d}")
                violations += rep.violations
            return 3 if violations > 0 else 0

        rows = _experiment_rows(config)
        _write_rows_csv(rows, config.out or "results.csv")
        _print_rows(rows)
        return 2 if any(not r["converged"] for r in rows) else 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main(argv=None):
    return run(parse_config(argv))


if __name__ == "__main__":
    sys.exit(main())
