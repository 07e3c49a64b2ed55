"""Command-line front end.

``run`` answers a parsed instance: it dispatches once on the type of the
problem block and returns a SolveReport, which ``Output.report`` prints.
``solve``, ``finite-ext``, ``hnn`` and ``amalgam`` each run a file whose
block they answer; ``bench`` runs every file of a directory.

Exit codes: 0 = solvable/true, 1 = unsolvable (certified), 2 = unknown or
limits exceeded, 3 = parse error (also a block the command does not answer,
a malformed ``--assign`` or one that misses or repeats a variable, a
malformed ``oracle`` line or transfer presentation, a letter outside the
alphabet, an unknown ``# mode``, a ``bench`` directory that is missing or
holds no ``*.gg`` file, a bad ``gen-mihailova`` argument and a usage error on
the command line), 4 = other error (including a failed internal check and any
unexpected exception).
``bench`` exits 4 when a file's exit code differs from its ``# expect-exit``
line.  ``--format machine`` prints line-oriented key=value output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import List, Optional, Tuple

from .errors import FormatError, GgError, InternalError, LimitsExceeded, ResourceExceeded
from .formats import (
    AmalgamProblem,
    ExtensionProblem,
    HnnProblem,
    Instance,
    KaProblem,
    MODES,
    build_amalgam,
    build_equation,
    build_extension,
    build_hnn,
    build_ka,
    parse_instance,
    scan_directives,
)
from .semilinear import format_semilinear
from .transfer import GraphGroupOracle, amalgam_knapsack, finite_ext_reduce, hnn_knapsack

EXIT_SOLVABLE = 0
EXIT_UNSOLVABLE = 1
EXIT_UNKNOWN = 2
EXIT_PARSE = 3
EXIT_ERROR = 4


class Output:
    def __init__(self, machine: bool):
        self.machine = machine

    def kv(self, key: str, value):
        if self.machine:
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")

    def report(self, report) -> int:
        """Print a SolveReport's status, witness, solution set, bound and note.

        Returns the report's exit code.
        """
        self.kv("status", report.status)
        if report.witness is not None:
            witness = ";".join(f"{k}={v}" for k, v in sorted(report.witness.items()))
            self.kv("witness", witness if witness else "trivial")
        if report.solution_set is not None:
            text = format_semilinear(report.solution_set)
            for line in text.splitlines() if text else ["empty"]:
                self.kv("solset", line)
        if report.bound_report:
            self.kv("bound", report.bound_report)
        if report.note:
            self.kv("note", report.note)
        return _status_exit(report.status)


def _status_exit(status: str) -> int:
    if status == "solvable":
        return EXIT_SOLVABLE
    if status == "unsolvable":
        return EXIT_UNSOLVABLE
    return EXIT_UNKNOWN


def _default_caps(args) -> tuple:
    """(expansion cap, search cap): both ``--cap``, else the defaults.

    A cap that is not a natural number raises FormatError.
    """
    if args.cap is None:
        return 10**6, 15
    if not args.cap.strip().isdecimal():
        raise FormatError(f"--cap takes a natural number, not {args.cap!r}")
    return int(args.cap), int(args.cap)


def _read(fh) -> str:
    """The text of an instance file opened by argparse; closes it (not stdin)."""
    if fh is sys.stdin:
        return fh.read()
    with fh:
        return fh.read()


def _solve_equation(e, mode: str, search_cap: int):
    from .semilinear import diophantine_solve
    from .solver import SolveReport, abelian_relaxation, solve_exact, solve_search

    if mode == "relax":
        solvable = diophantine_solve(abelian_relaxation(e)) is not None
        if solvable:
            return SolveReport("unknown", note="abelian relaxation only")
        return SolveReport("unsolvable", note="relaxation certificate")
    if mode == "search":
        return solve_search(e, cap=search_cap)
    rep = solve_exact(e)
    # fall back to the relaxation certificate for a definite negative
    if rep.status == "unknown" and diophantine_solve(abelian_relaxation(e)) is None:
        return SolveReport("unsolvable", note="beyond exact limits; relaxation certificate")
    return rep


def run(inst: Instance, mode: str, caps: Tuple[int, int]):
    """Answer the problem block of a parsed instance; returns a SolveReport.

    ``mode`` (exact, search or relax) applies to eq and knapsack blocks;
    ``caps`` is the pair (expansion cap, search cap).
    """
    from .solver import SolveReport

    expansion_cap, search_cap = caps
    problem = inst.problem
    if isinstance(problem, KaProblem):
        nfa, target = build_ka(inst)
        oracle = GraphGroupOracle(inst.require_alphabet(), search_cap)
        try:
            solvable = oracle.ka_membership(nfa, target)
        except LimitsExceeded as exc:
            return SolveReport("unknown", note=str(exc))
    elif isinstance(problem, ExtensionProblem):
        fe, v_words, u_words = build_extension(inst, search_cap)
        solvable = finite_ext_reduce(fe, v_words, u_words)
    elif isinstance(problem, HnnProblem):
        solvable = hnn_knapsack(build_hnn(inst, search_cap), problem.items, problem.target)
    elif isinstance(problem, AmalgamProblem):
        solvable = amalgam_knapsack(build_amalgam(inst, search_cap), problem.items, problem.target)
    else:
        return _solve_equation(build_equation(inst, expansion_cap), mode, search_cap)
    return SolveReport("solvable" if solvable else "unsolvable")


def cmd_run(args, out: Output) -> int:
    """solve, finite-ext, hnn and amalgam: run a file whose block the command answers."""
    text = _read(args.file)
    caps = _default_caps(args)
    inst = parse_instance(text)
    if inst.problem.command != args.command:
        raise FormatError(
            f"{args.command} does not answer {inst.problem.kind} blocks; "
            f"use {inst.problem.command}"
        )
    return out.report(run(inst, getattr(args, "mode", "exact"), caps))


def _parse_assign(text: str) -> dict:
    """``x=1,y=2`` as a dict; anything but name=natural pairs, each name once, is a FormatError."""
    sigma = {}
    for piece in text.split(","):
        if not piece:
            continue
        name, sep, value = (part.strip() for part in piece.partition("="))
        if not (sep and name and value.isdecimal()):
            raise FormatError(f"--assign takes name=natural pairs, not {piece!r}")
        if name in sigma:
            raise FormatError(f"--assign repeats variable {name!r}")
        sigma[name] = int(value)
    return sigma


def cmd_verify(args, out: Output) -> int:
    text = _read(args.file)
    expansion_cap, _ = _default_caps(args)
    e = build_equation(parse_instance(text), expansion_cap)
    sigma = _parse_assign(args.assign)
    for v in e.vars:
        if v not in sigma:
            raise FormatError(f"--assign misses variable {v!r}")
    from .solver import verify

    try:
        ok = verify(e, sigma, cap=expansion_cap)
    except ResourceExceeded as exc:
        out.kv("status", "unknown")
        out.kv("note", f"resource exceeded: {exc}")
        return EXIT_UNKNOWN
    out.kv("status", "solvable" if ok else "unsolvable")
    out.kv("verified", "true" if ok else "false")
    return EXIT_SOLVABLE if ok else EXIT_UNSOLVABLE


def cmd_bound(args, out: Output) -> int:
    text = _read(args.file)
    expansion_cap, _ = _default_caps(args)
    e = build_equation(parse_instance(text), expansion_cap)
    from .solver.equations import bound_report_string, preprocess

    out.kv("bound", bound_report_string(preprocess(e)))
    return EXIT_SOLVABLE


def cmd_bench(args, out: Output) -> int:
    """Run every ``*.gg`` file of a directory; exit 4 on any ``# expect-exit`` mismatch.

    Each file is parsed once and answered by ``run``, with the same
    error-to-exit mapping as a direct call, so a file that fails to parse or
    exceeds a cap gets the code that the command itself would return.  A
    file whose directives cannot be read counts as a mismatch.  A directory
    that is missing or holds no ``*.gg`` file is a FormatError.
    """
    import glob

    caps = _default_caps(args)
    paths = sorted(glob.glob(os.path.join(glob.escape(args.dir), "*.gg")))
    if not paths:
        problem = "holds no *.gg files" if os.path.isdir(args.dir) else "is not a directory"
        raise FormatError(f"bench: {args.dir!r} {problem}")
    results = []
    for path in paths:
        name = os.path.basename(path)
        started = time.monotonic()
        with open(path) as fh:
            text = fh.read()
        try:
            expected, mode_hint = scan_directives(text)
        except FormatError:
            expected, mode_hint = "unreadable", None
        mode = mode_hint or args.mode
        code = run_reporting(
            lambda: _status_exit(run(parse_instance(text), mode, caps).status),
            label=f"{name}: ",
        )
        elapsed = time.monotonic() - started
        results.append((name, code, expected, elapsed))
    mismatches = 0
    for name, code, expected, elapsed in results:
        line = f"exit={code} time={elapsed:.3f}s"
        if expected is not None and code != expected:
            mismatches += 1
            line += f" expected={expected}"
        out.kv(name, line)
    return EXIT_ERROR if mismatches else EXIT_SOLVABLE


def cmd_gen_mihailova(args, out: Output) -> int:
    """Print the instance; a bad argument is a FormatError that names it, so
    no instance is written that the parser or the solver would misread."""
    from .mihailova import gen_mihailova

    sigma = args.sigma.split(",")
    for a in sigma:
        if a.split() != [a] or "#" in a or a.endswith("'"):
            raise FormatError(f"--sigma: {a!r} is not a generator name")
        if sigma.count(a) > 1:
            raise FormatError(f"--sigma: generator {a!r} given twice")
    relators = [tuple(r.split()) for r in args.relators.split(",")] if args.relators else []
    word = tuple(args.word.split()) if args.word and args.word != "_" else ()
    for option, words in (("--relators", relators), ("--word", [word])):
        for a in (a for w in words for a in w):
            if (a[:-1] if a.endswith("'") else a) not in sigma:
                raise FormatError(f"{option}: letter {a!r} is not in --sigma")
    if args.rounds < 0:
        raise FormatError(f"--rounds takes a natural number, not {args.rounds}")
    text = gen_mihailova(sigma, relators, word, args.rounds)
    sys.stdout.write(text)
    return EXIT_SOLVABLE


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 3, since its own exit 2 means unknown here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    ``parse_args`` keeps no state between calls: each returns a fresh
    namespace.
    """
    parser = _Parser(
        prog="ggsolve",
        description="Knapsack and exponent equations over graph groups.",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--cap", default=None, help="expansion/search cap")
        p.add_argument("file", type=argparse.FileType("r"), help="instance file")

    p_solve = sub.add_parser("solve", help="solve an equation/knapsack/ka instance")
    p_solve.add_argument("--mode", choices=MODES, default="exact")
    add_common(p_solve)
    p_verify = sub.add_parser("verify", help="verify an assignment")
    p_verify.add_argument("--assign", default="", help="x=1,y=2")
    add_common(p_verify)
    p_bound = sub.add_parser("bound", help="print the heuristic exponent bound")
    add_common(p_bound)
    p_fe = sub.add_parser("finite-ext", help="finite-extension transfer instance")
    add_common(p_fe)
    p_hnn = sub.add_parser("hnn", help="HNN transfer instance")
    add_common(p_hnn)
    p_am = sub.add_parser("amalgam", help="amalgamated-product transfer instance")
    add_common(p_am)
    p_bench = sub.add_parser("bench", help="run a directory of instances")
    p_bench.add_argument("--mode", choices=MODES, default="exact")
    p_bench.add_argument("--cap", default=None)
    p_bench.add_argument("dir")
    p_gen = sub.add_parser("gen-mihailova", help="emit a Mihailova-style instance")
    p_gen.add_argument("--sigma", required=True, help="comma-separated generators")
    p_gen.add_argument("--relators", default="", help="comma-separated relator words")
    p_gen.add_argument("--word", required=True, help="the tested word (space tokens, _ = empty)")
    p_gen.add_argument("--rounds", type=int, default=4, help="product round cap")
    return parser


def run_reporting(command, *args, label: str = "") -> int:
    """Call a command and return its exit code; an error becomes its exit code.

    The error is reported on stderr, prefixed with ``label``.  An exception
    that is not a library error is a fault of the program: exit 4 with its
    traceback, never the exit 1 of an uncaught exception, which would read
    as "certified unsolvable".
    """
    try:
        return command(*args)
    except FormatError as exc:
        print(f"{label}parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (LimitsExceeded, ResourceExceeded) as exc:
        print(f"{label}limits: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except GgError as exc:
        kind = "internal error" if isinstance(exc, InternalError) else "error"
        print(f"{label}{kind}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"{label}internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    out = Output(machine=args.format == "machine")
    handlers = {
        "solve": cmd_run,
        "verify": cmd_verify,
        "bound": cmd_bound,
        "finite-ext": cmd_run,
        "hnn": cmd_run,
        "amalgam": cmd_run,
        "bench": cmd_bench,
        "gen-mihailova": cmd_gen_mihailova,
    }
    return run_reporting(handlers[args.command], args, out)


if __name__ == "__main__":
    sys.exit(main())
