"""Command-line front end for the experiments and spectrum exports.

Commands
--------
example1   first-order benchmark (iterations per preconditioner)
example2   second-order benchmark (iterations and first-step error vs exact solution)
solve      single first-step solve for one or more (alpha1, alpha2) pairs
spectrum   dense spectrum of the (preconditioned) symmetrized operator, CSV export
selftest   run the five built-in checks on fixed random vectors

Each option is one ``RunConfig`` field, which carries its flag's parser
settings; its name is the flag and the config-file key.  Flags override
values from an optional flat-JSON --config file; null leaves a key unset,
and an unknown key is a usage error.  RunConfig checks every value once,
the scheme words "first" and "second" included, and refuses an option set
on a command that does not read it (``_COMMANDS``), from a flag, the file
or a library caller alike.  Exit codes: 0 success, 2 a usage error or a
solve that failed to converge, 3 a spectrum broke its theorem interval, 4 I/O failure.
"""

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import dataclass, field, fields

from .discretization import FIRST_ORDER, SECOND_ORDER, _SCHEMES, _check_alpha, _check_scheme
from .krylov import MinresConfig
from .pde import (ALPHA_PAIRS, PRECONDITIONERS, _check_preconditioner, example1_problem,
                  example2_problem, first_step_row, setup_operators)
from .spectrum import (DENSE_CAP, export_spectrum_csv, preconditioned_spectrum,
                       unpreconditioned_spectrum)
from .transforms import _count
from . import selftest as _selftest

__all__ = ["RunConfig", "parse_config", "run", "main"]

CSV_COLUMNS = ("alpha1", "alpha2", "n", "preconditioner", "iters", "converged",
               "relres", "err_inf", "wall_seconds")

_EXAMPLES = {FIRST_ORDER: example1_problem, SECOND_ORDER: example2_problem}


def _option(**flag):
    """A RunConfig option, unset by default; ``flag`` holds its argparse settings."""
    return field(default=None, metadata=flag)


@dataclass(frozen=True)
class RunConfig:
    """One run, from a flag, a file or a library caller alike: a set option the command
    does not read is refused, and each one it reads is defaulted, checked and stored converted."""

    command: str
    n1: int = _option(type=int, help="interior points per direction")
    alphas: tuple = _option(action="append", metavar="A1,A2", help="fractional-order pair, repeatable")
    scheme: str = _option(metavar="{" + ",".join(_SCHEMES) + "}")
    precond: str = _option(metavar="{" + ",".join(PRECONDITIONERS) + "}")
    tol: float = _option(type=float)
    maxit: int = _option(type=int)
    out: str = _option(help="output CSV path")
    jobs: int = _option(type=int)

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        reads, scheme = _COMMANDS[self.command]
        defaults = {"n1": 31, "alphas": ((1.5, 1.5),) if "scheme" in reads else ALPHA_PAIRS,
                    "scheme": scheme, "precond": "tau", "tol": MinresConfig.tol,
                    "maxit": MinresConfig.maxit, "jobs": 1}
        for name in _OPTIONS:
            if name not in reads and getattr(self, name) is not None:
                raise ValueError(f"{self.command} does not read {name}")
            if name in reads and getattr(self, name) is None:
                object.__setattr__(self, name, defaults.get(name))
        if not reads:
            return
        object.__setattr__(self, "n1", _count(self.n1, "n1"))
        if "tol" in reads:   # as are maxit and jobs
            minres = MinresConfig(self.tol, self.maxit)
            object.__setattr__(self, "tol", minres.tol)
            object.__setattr__(self, "maxit", minres.maxit)
            object.__setattr__(self, "jobs", _count(self.jobs, "jobs"))
        if self.precond is not None:
            _check_preconditioner(self.precond)
        if not (self.out is None or isinstance(self.out, str) and self.out):
            raise ValueError(f"out must be a non-empty path string, got {self.out!r}")
        if self.command == "spectrum" and self.n1 ** 2 > DENSE_CAP:
            raise ValueError(f"a dense spectrum needs n1**2 <= {DENSE_CAP}, got n1 = {self.n1}")
        if self.scheme is not None:
            _check_scheme(self.scheme)
        try:
            pairs = tuple((a1, a2) for a1, a2 in self.alphas)
        except (TypeError, ValueError):
            pairs = ()
        if not pairs:
            raise ValueError(f"alphas must be one or more (alpha1, alpha2) pairs, got {self.alphas!r}")
        object.__setattr__(self, "alphas", tuple((_check_alpha(a1), _check_alpha(a2))
                                                 for a1, a2 in pairs))


# every option once, in flag order: its name is the flag, the config-file key and the field
_OPTIONS = tuple(f.name for f in fields(RunConfig)[1:])

# command -> (the options it reads, the scheme it runs unless it reads one); an option
# set on a command that does not read it is refused, and the examples run all nine pairs
_COMMANDS = {
    "example1": (("n1", "alphas", "tol", "maxit", "out", "jobs"), FIRST_ORDER),
    "example2": (("n1", "alphas", "precond", "tol", "maxit", "out", "jobs"), SECOND_ORDER),
    "solve": (_OPTIONS, SECOND_ORDER),
    "spectrum": (("n1", "alphas", "scheme", "precond", "out"), SECOND_ORDER),
    "selftest": ((), None),
}
COMMANDS = tuple(_COMMANDS)


def _parse_alpha_pairs(raw):
    """'a1,a2' pairs from a string or a list of strings, separated by spaces or semicolons."""
    if not (isinstance(raw, str) or isinstance(raw, list) and all(isinstance(s, str) for s in raw)):
        raise ValueError(f"alphas must be a string or a list of strings, got {raw!r}")
    chunks = " ".join([raw] if isinstance(raw, str) else raw).replace(";", " ").split()
    return [[float(a) for a in chunk.split(",")] for chunk in chunks]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="taumres",
        description="Tau-preconditioned MINRES experiments for fractional diffusion.")
    parser.add_argument("command", choices=COMMANDS)
    for option in fields(RunConfig)[1:]:
        parser.add_argument(f"--{option.name}", default=None, **option.metadata)
    parser.add_argument("--config", default=None, help="flat JSON file with flag defaults")
    return parser


def _config_file_values(parser, path):
    """The set values of a flat-JSON config file, unchecked until RunConfig; null means unset."""
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
    return {key: value for key, value in values.items() if value is not None}


def parse_config(argv):
    """Parse flags (and optional --config file; flags win) into a RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    values = {} if ns.config is None else _config_file_values(parser, ns.config)
    values.update((key, getattr(ns, key)) for key in _OPTIONS if getattr(ns, key) is not None)
    try:
        if "alphas" in values:
            values["alphas"] = _parse_alpha_pairs(values["alphas"])
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
    problem_of = _EXAMPLES[config.scheme or _COMMANDS[config.command][1]]
    # a command that reads no precond (example1) compares every preconditioner
    preconds = PRECONDITIONERS if config.precond is None else (config.precond,)
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
            return 0 if _selftest.run_selftest() else 1

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
