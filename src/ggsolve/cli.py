"""Command-line front end.

Exit codes: 0 = solvable/true, 1 = unsolvable (certified), 2 = unknown or
limits exceeded, 3 = parse error, 4 = other error (including a failed
internal check).  ``bench`` exits 4 when a file's exit code differs from its
``# expect-exit`` line.  ``--format machine`` prints line-oriented key=value
output.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .errors import FormatError, GgError, InternalError, LimitsExceeded, ResourceExceeded
from .formats import build_equation, build_ka, build_oracle, parse_instance, scan_directives
from .semilinear import format_semilinear

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

    def solset(self, solset):
        if solset is None:
            return
        text = format_semilinear(solset)
        if not text:
            self.kv("solset", "empty")
            return
        for line in text.splitlines():
            if self.machine:
                print(f"solset={line}")
            else:
                print(f"solset: {line}")


def _status_exit(status: str) -> int:
    if status == "solvable":
        return EXIT_SOLVABLE
    if status == "unsolvable":
        return EXIT_UNSOLVABLE
    return EXIT_UNKNOWN


def _default_caps(args) -> tuple:
    env = os.environ.get("GG_KNAPSACK_CAP")
    expansion = args.cap if args.cap is not None else (int(env) if env else 10**6)
    search = args.cap if args.cap is not None else (int(env) if env else 15)
    return expansion, search


def cmd_solve(args, out: Output) -> int:
    expansion_cap, search_cap = _default_caps(args)
    inst = parse_instance(args.file.read(), expansion_cap)
    problem = inst.problem
    if problem["kind"] == "ka":
        from .transfer.oracles import GraphGroupOracle

        ka, target = build_ka(inst)
        oracle = GraphGroupOracle(inst.require_alphabet(), search_cap)
        try:
            member = oracle.ka_membership(ka.nfa, target)
        except LimitsExceeded as exc:
            out.kv("status", "unknown")
            out.kv("note", str(exc))
            return EXIT_UNKNOWN
        out.kv("status", "solvable" if member else "unsolvable")
        return EXIT_SOLVABLE if member else EXIT_UNSOLVABLE

    e = build_equation(inst, expansion_cap)
    from .semilinear import diophantine_solve
    from .solver import abelian_relaxation, solve_exact, solve_search
    from .solver.equations import bound_report_string

    if args.mode == "relax":
        solvable = diophantine_solve(abelian_relaxation(e)) is not None
        out.kv("status", "unknown" if solvable else "unsolvable")
        out.kv("note", "abelian relaxation only" if solvable else "relaxation certificate")
        return EXIT_UNKNOWN if solvable else EXIT_UNSOLVABLE
    if args.mode == "search":
        rep = solve_search(e, cap=search_cap)
    else:
        rep = solve_exact(e)
        if rep.status == "unknown" and args.mode == "exact":
            # fall back to the relaxation certificate for a definite negative
            if diophantine_solve(abelian_relaxation(e)) is None:
                out.kv("status", "unsolvable")
                out.kv("note", "beyond exact limits; relaxation certificate")
                return EXIT_UNSOLVABLE
    out.kv("status", rep.status)
    if rep.witness is not None:
        witness = ";".join(f"{k}={v}" for k, v in sorted(rep.witness.items()))
        out.kv("witness", witness if witness else "trivial")
    out.solset(rep.solution_set)
    if rep.bound_report:
        out.kv("bound", rep.bound_report)
    if rep.note:
        out.kv("note", rep.note)
    return _status_exit(rep.status)


def cmd_verify(args, out: Output) -> int:
    expansion_cap, _ = _default_caps(args)
    inst = parse_instance(args.file.read(), expansion_cap)
    e = build_equation(inst, expansion_cap)
    sigma = {}
    if args.assign:
        for piece in args.assign.split(","):
            if not piece:
                continue
            name, _, value = piece.partition("=")
            sigma[name.strip()] = int(value)
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
    expansion_cap, _ = _default_caps(args)
    inst = parse_instance(args.file.read(), expansion_cap)
    e = build_equation(inst, expansion_cap)
    from .solver.equations import bound_report_string, preprocess

    out.kv("bound", bound_report_string(preprocess(e)))
    return EXIT_SOLVABLE


def cmd_finite_ext(args, out: Output) -> int:
    expansion_cap, _ = _default_caps(args)
    inst = parse_instance(args.file.read(), expansion_cap)
    problem = inst.problem
    if problem["kind"] != "extension":
        raise FormatError("finite-ext needs an extension block")
    g_oracle = build_oracle(inst, problem["base"])
    from .transfer import FiniteExtension, finite_ext_reduce

    ext_letters = sorted({b for (_, b) in problem["table"]})
    ext_letters = tuple(
        dict.fromkeys(b[:-1] if b.endswith("'") else b for b in ext_letters)
    )
    fe = FiniteExtension(
        g_oracle, ext_letters, problem["cosets"], problem["one"], problem["table"]
    )
    v_words: List[tuple] = []
    u_words: List[tuple] = []
    pending: tuple = ()
    for spec in problem["items"]:
        if spec[0] == "const":
            pending = pending + tuple(spec[1])
        else:
            v_words.append(pending)
            pending = ()
            u_words.append(tuple(spec[1]))
    v_words.append(pending)
    solvable = finite_ext_reduce(fe, v_words, u_words, g_oracle)
    out.kv("status", "solvable" if solvable else "unsolvable")
    return EXIT_SOLVABLE if solvable else EXIT_UNSOLVABLE


def cmd_hnn(args, out: Output) -> int:
    expansion_cap, _ = _default_caps(args)
    inst = parse_instance(args.file.read(), expansion_cap)
    problem = inst.problem
    if problem["kind"] != "hnn":
        raise FormatError("hnn needs an hnn block")
    base = build_oracle(inst, problem["base"])
    from .transfer import HnnPresentation, hnn_knapsack

    h = HnnPresentation(
        base, problem["assoc+"], problem["assoc-"], problem["phi"], problem["stable"]
    )
    solvable = hnn_knapsack(h, problem["items"], problem["target"])
    out.kv("status", "solvable" if solvable else "unsolvable")
    return EXIT_SOLVABLE if solvable else EXIT_UNSOLVABLE


def cmd_amalgam(args, out: Output) -> int:
    expansion_cap, _ = _default_caps(args)
    inst = parse_instance(args.file.read(), expansion_cap)
    problem = inst.problem
    if problem["kind"] != "amalgam":
        raise FormatError("amalgam needs an amalgam block")
    left = build_oracle(inst, problem["left"])
    right = build_oracle(inst, problem["right"])
    from .transfer import AmalgamPresentation, amalgam_knapsack

    embed_left = {f: w[0] for f, w in problem["fmap"].items()}
    embed_right = {f: w[1] for f, w in problem["fmap"].items()}
    am = AmalgamPresentation(
        left,
        right,
        problem["felems"],
        problem["ftable"],
        problem["fid"],
        embed_left,
        embed_right,
    )
    solvable = amalgam_knapsack(am, problem["items"], problem["target"])
    out.kv("status", "solvable" if solvable else "unsolvable")
    return EXIT_SOLVABLE if solvable else EXIT_UNSOLVABLE


def _run_instance(text: str, mode: str, cap: Optional[int], out: Output) -> int:
    """Run an instance file with the command its problem block calls for."""
    sub = argparse.Namespace(file=_StringFile(text), mode=mode, cap=cap, assign=None)
    expansion_cap, _ = _default_caps(sub)
    kind = parse_instance(text, expansion_cap).problem["kind"]
    if kind in ("eq", "knapsack", "ka"):
        return cmd_solve(sub, out)
    if kind == "extension":
        return cmd_finite_ext(sub, out)
    if kind == "hnn":
        return cmd_hnn(sub, out)
    return cmd_amalgam(sub, out)


def cmd_bench(args, out: Output) -> int:
    """Run every ``*.gg`` file of a directory; exit 4 on any ``# expect-exit`` mismatch.

    Each file goes through the same error-to-exit mapping as a direct call,
    so a file that fails to parse or exceeds a cap gets the code that the
    command itself would return.  A file whose directives cannot be read
    counts as a mismatch.
    """
    import glob
    import io
    from contextlib import redirect_stdout

    pattern = os.path.join(args.dir, "*.gg")
    results = []
    for path in sorted(glob.glob(pattern)):
        name = os.path.basename(path)
        started = time.monotonic()
        with open(path) as fh:
            text = fh.read()
        try:
            expected, mode_hint = scan_directives(text)
        except FormatError:
            expected, mode_hint = "unreadable", None
        with redirect_stdout(io.StringIO()):
            code = run_reporting(
                _run_instance,
                text,
                mode_hint or args.mode,
                args.cap,
                Output(machine=True),
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


class _StringFile:
    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text


def cmd_gen_mihailova(args, out: Output) -> int:
    from .mihailova import gen_mihailova

    sigma = args.sigma.split(",")
    relators = [tuple(r.split()) for r in args.relators.split(",")] if args.relators else []
    word = tuple(args.word.split()) if args.word and args.word != "_" else ()
    text = gen_mihailova(sigma, relators, word, args.rounds)
    sys.stdout.write(text)
    return EXIT_SOLVABLE


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggsolve",
        description="Knapsack and exponent equations over graph groups.",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True):
        p.add_argument("--cap", type=int, default=None, help="expansion/search cap")
        if with_file:
            p.add_argument(
                "file", type=argparse.FileType("r"), help="instance file"
            )

    p_solve = sub.add_parser("solve", help="solve an equation/knapsack/ka instance")
    p_solve.add_argument("--mode", choices=("exact", "search", "relax"), default="exact")
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
    p_bench.add_argument("--mode", choices=("exact", "search", "relax"), default="exact")
    p_bench.add_argument("--cap", type=int, default=None)
    p_bench.add_argument("dir")
    p_gen = sub.add_parser("gen-mihailova", help="emit a Mihailova-style instance")
    p_gen.add_argument("--sigma", required=True, help="comma-separated generators")
    p_gen.add_argument("--relators", default="", help="comma-separated relator words")
    p_gen.add_argument("--word", required=True, help="the tested word (space tokens, _ = empty)")
    p_gen.add_argument("--rounds", type=int, default=4, help="product round cap")
    return parser


def run_reporting(command, *args, label: str = "") -> int:
    """Call a command and return its exit code; a library error becomes its exit code.

    The error is reported on stderr, prefixed with ``label``.
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    out = Output(machine=args.format == "machine")
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "bound": cmd_bound,
        "finite-ext": cmd_finite_ext,
        "hnn": cmd_hnn,
        "amalgam": cmd_amalgam,
        "bench": cmd_bench,
        "gen-mihailova": cmd_gen_mihailova,
    }
    return run_reporting(handlers[args.command], args, out)


if __name__ == "__main__":
    sys.exit(main())
