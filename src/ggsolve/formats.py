"""Instance file parsing and printing.

Line-oriented text format, ``#`` comments.  An instance holds one alphabet
block, optional SLP blocks and oracle definitions, and exactly one problem:

  gens a b c                alphabet (order = lexicographic order)
  indep a c                 independence pairs
  slp S                     SLP block header (start variable)
  rule S -> A A             productions; ``_`` for an empty right-hand side
  eq                        exponent equation: items follow
  const <word>              constant item (``_`` = empty word)
  pow <word> <var>          power item, variable = last token
  constS <Slp>              compressed constant
  powS <Slp> <var>          compressed power
  knapsack                  knapsack problem:
  item <word>               one power base per line
  target <word>             right-hand side
  ka                        knapsack-automaton membership:
  state <id> [initial] [final]
  edge <from> <letter|eps> <to>
  target <word>
  oracle <name> z <gen>                 base-group oracles for the
  oracle <name> free <gens...>          transfer problems
  oracle <name> finite-cyclic <n> <gen>
  oracle <name> product <left> <right>
  oracle <name> graph
  extension base <oracle> / cosets ... / onecoset c /
  coset <c> gen <b> -> <gword...> <c'>  finite-extension data + embedded eq
  hnn base <oracle> stable <t> / assoc +|- <word> / phi <w> -> <w>
  amalgam left <o> right <o> / felem f / fid f / ftable f g -> h /
  fmap <f> left <word> right <word>     amalgam data + embedded knapsack

Words are whitespace-separated letter tokens; inverses end in an apostrophe;
``_`` spells the empty word.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .automata import EPS, Nfa
from .errors import FormatError
from .groups import DoubledAlphabet, free_reduce
from .slp import Slp, expand_capped
from .traces import IndependenceAlphabet
from .transfer.kauto import plain_alphabet


def parse_word(tokens: Sequence[str]) -> tuple:
    if list(tokens) == ["_"]:
        return ()
    return tuple(tokens)


def format_word(word: Sequence[str]) -> str:
    return " ".join(word) if word else "_"


class Instance:
    """Parsed instance file."""

    def __init__(self):
        self.base_alphabet: Optional[IndependenceAlphabet] = None
        self.alphabet: Optional[DoubledAlphabet] = None
        self.slps: Dict[str, Slp] = {}
        self.oracles: Dict[str, dict] = {}
        self.problem: Optional[dict] = None
        self.expect_exit: Optional[int] = None
        self.mode_hint: Optional[str] = None

    def require_alphabet(self) -> DoubledAlphabet:
        if self.alphabet is None:
            raise FormatError("no alphabet block (gens ...) found")
        return self.alphabet


def _slp_word(inst: Instance, name: str, cap: int, line: int) -> tuple:
    if name not in inst.slps:
        raise FormatError(f"unknown SLP {name!r}", line)
    return expand_capped(inst.slps[name], cap)


def scan_directives(text: str) -> Tuple[Optional[int], Optional[str]]:
    """The ``# expect-exit N`` and ``# mode M`` comments of an instance file.

    Reads comments only, so it succeeds on files whose body does not parse;
    the last occurrence of each directive wins.  A directive without its
    argument, or a non-integer exit code, raises FormatError.
    """
    expect_exit: Optional[int] = None
    mode_hint: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" not in raw:
            continue
        comment = raw.split("#", 1)[1].strip()
        words = comment.split()
        if comment.startswith("expect-exit"):
            if len(words) < 2 or not words[1].isdigit():
                raise FormatError("expect-exit takes an exit code", lineno)
            expect_exit = int(words[1])
        if comment.startswith("mode "):
            mode_hint = words[1]
    return expect_exit, mode_hint


def parse_instance(text: str, expansion_cap: int = 10**6) -> Instance:
    inst = Instance()
    gens: List[str] = []
    indep: List[Tuple[str, str]] = []
    current_slp: Optional[str] = None
    slp_rules: Dict[str, Dict[str, tuple]] = {}
    slp_starts: Dict[str, str] = {}
    problem: Optional[dict] = None
    section: Optional[str] = None

    def alphabet_ready():
        if inst.alphabet is None:
            if not gens:
                raise FormatError("gens line must precede the problem block")
            inst.base_alphabet = IndependenceAlphabet(tuple(gens), indep)
            inst.alphabet = DoubledAlphabet(inst.base_alphabet)
        return inst.alphabet

    inst.expect_exit, inst.mode_hint = scan_directives(text)
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        try:
            if head == "gens":
                gens.extend(rest)
            elif head == "indep":
                if len(rest) != 2:
                    raise FormatError("indep takes exactly two letters", lineno)
                indep.append((rest[0], rest[1]))
            elif head == "slp":
                if len(rest) != 1:
                    raise FormatError("slp takes the start variable", lineno)
                current_slp = rest[0]
                slp_starts[current_slp] = rest[0]
                slp_rules.setdefault(current_slp, {})
                section = "slp"
            elif head == "rule":
                if current_slp is None:
                    raise FormatError("rule outside an slp block", lineno)
                if len(rest) < 2 or rest[1] != "->":
                    raise FormatError("rule syntax: rule Var -> tokens", lineno)
                body = parse_word(rest[2:]) if rest[2:] else ()
                slp_rules[current_slp][rest[0]] = body
            elif head == "eq":
                problem = {"kind": "eq", "items": [], "line": lineno}
                section = "eq"
            elif head == "const" and section == "eq":
                problem["items"].append(("const", parse_word(rest)))
            elif head == "pow" and section == "eq":
                if len(rest) < 2:
                    raise FormatError("pow takes a word and a variable", lineno)
                problem["items"].append(("pow", parse_word(rest[:-1]), rest[-1]))
            elif head == "constS" and section == "eq":
                problem["items"].append(("constS", rest[0], lineno))
            elif head == "powS" and section == "eq":
                if len(rest) != 2:
                    raise FormatError("powS takes an SLP name and a variable", lineno)
                problem["items"].append(("powS", rest[0], rest[1], lineno))
            elif head == "knapsack":
                problem = {"kind": "knapsack", "items": [], "target": (), "line": lineno}
                section = "knapsack"
            elif head == "item" and section == "knapsack":
                problem["items"].append(parse_word(rest))
            elif head == "ka":
                problem = {
                    "kind": "ka",
                    "states": [],
                    "edges": [],
                    "initial": None,
                    "finals": [],
                    "target": (),
                    "line": lineno,
                }
                section = "ka"
            elif head == "state" and section == "ka":
                name = rest[0]
                problem["states"].append(name)
                if "initial" in rest[1:]:
                    problem["initial"] = name
                if "final" in rest[1:]:
                    problem["finals"].append(name)
            elif head == "edge" and section == "ka":
                if len(rest) != 3:
                    raise FormatError("edge syntax: edge from letter to", lineno)
                label = None if rest[1] == "eps" else rest[1]
                problem["edges"].append((rest[0], label, rest[2]))
            elif head == "target" and section in ("knapsack", "ka"):
                problem["target"] = parse_word(rest)
            elif head == "oracle":
                if len(rest) < 2:
                    raise FormatError("oracle syntax: oracle name kind ...", lineno)
                inst.oracles[rest[0]] = {"kind": rest[1], "args": rest[2:], "line": lineno}
            elif head == "extension":
                if len(rest) != 2 or rest[0] != "base":
                    raise FormatError("extension syntax: extension base <oracle>", lineno)
                problem = {
                    "kind": "extension",
                    "base": rest[1],
                    "cosets": [],
                    "one": None,
                    "table": {},
                    "items": [],
                    "line": lineno,
                }
                section = "extension"
            elif head == "cosets" and section == "extension":
                problem["cosets"].extend(rest)
            elif head == "onecoset" and section == "extension":
                problem["one"] = rest[0]
            elif head == "coset" and section == "extension":
                # coset <c> gen <b> -> <gword...> <c'>
                if len(rest) < 5 or rest[1] != "gen" or rest[3] != "->":
                    raise FormatError(
                        "coset syntax: coset c gen b -> gword c'", lineno
                    )
                gword = parse_word(rest[4:-1]) if rest[4:-1] else ()
                problem["table"][(rest[0], rest[2])] = (gword, rest[-1])
            elif head == "eqH" and section == "extension":
                problem["items"] = []
                section = "extension-eq"
            elif head == "const" and section == "extension-eq":
                problem["items"].append(("const", parse_word(rest)))
            elif head == "pow" and section == "extension-eq":
                problem["items"].append(("pow", parse_word(rest[:-1]), rest[-1]))
            elif head == "hnn":
                if len(rest) != 4 or rest[0] != "base" or rest[2] != "stable":
                    raise FormatError("hnn syntax: hnn base <oracle> stable <t>", lineno)
                problem = {
                    "kind": "hnn",
                    "base": rest[1],
                    "stable": rest[3],
                    "assoc+": [],
                    "assoc-": [],
                    "phi": [],
                    "items": [],
                    "target": (),
                    "line": lineno,
                }
                section = "hnn"
            elif head == "assoc" and section == "hnn":
                if rest[0] not in ("+", "-"):
                    raise FormatError("assoc takes + or -", lineno)
                problem["assoc" + rest[0]].append(parse_word(rest[1:]))
            elif head == "phi" and section == "hnn":
                if "->" not in rest:
                    raise FormatError("phi syntax: phi word -> word", lineno)
                arrow = rest.index("->")
                problem["phi"].append(
                    (parse_word(rest[:arrow]), parse_word(rest[arrow + 1 :]))
                )
            elif head == "item" and section == "hnn":
                problem["items"].append(parse_word(rest))
            elif head == "target" and section == "hnn":
                problem["target"] = parse_word(rest)
            elif head == "amalgam":
                if len(rest) != 4 or rest[0] != "left" or rest[2] != "right":
                    raise FormatError(
                        "amalgam syntax: amalgam left <oracle> right <oracle>", lineno
                    )
                problem = {
                    "kind": "amalgam",
                    "left": rest[1],
                    "right": rest[3],
                    "felems": [],
                    "ftable": {},
                    "fid": None,
                    "fmap": {},
                    "items": [],
                    "target": (),
                    "line": lineno,
                }
                section = "amalgam"
            elif head == "felem" and section == "amalgam":
                problem["felems"].extend(rest)
            elif head == "fid" and section == "amalgam":
                problem["fid"] = rest[0]
            elif head == "ftable" and section == "amalgam":
                if len(rest) != 4 or rest[2] != "->":
                    raise FormatError("ftable syntax: ftable f g -> h", lineno)
                problem["ftable"][(rest[0], rest[1])] = rest[3]
            elif head == "fmap" and section == "amalgam":
                if "left" not in rest or "right" not in rest:
                    raise FormatError(
                        "fmap syntax: fmap f left word right word", lineno
                    )
                li = rest.index("left")
                ri = rest.index("right")
                problem["fmap"][rest[0]] = (
                    parse_word(rest[li + 1 : ri]),
                    parse_word(rest[ri + 1 :]),
                )
            elif head == "item" and section == "amalgam":
                problem["items"].append(parse_word(rest))
            elif head == "target" and section == "amalgam":
                problem["target"] = parse_word(rest)
            else:
                raise FormatError(f"unrecognized directive {head!r}", lineno)
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise FormatError(str(exc), lineno) from exc

    for name, rules in slp_rules.items():
        try:
            inst.slps[name] = Slp(rules, slp_starts[name])
        except Exception as exc:
            raise FormatError(f"bad SLP {name!r}: {exc}") from exc
    if problem is None:
        raise FormatError("no problem block found")
    inst.problem = problem
    if problem["kind"] in ("eq", "knapsack", "ka"):
        alphabet_ready()
    elif gens:
        alphabet_ready()
    return inst


def build_equation(inst: Instance, expansion_cap: int = 10**6):
    """ExponentEquation from an eq/knapsack problem block."""
    from .solver.equations import Const, ExponentEquation, Power

    alphabet = inst.require_alphabet()
    problem = inst.problem
    items = []
    if problem["kind"] == "eq":
        for spec in problem["items"]:
            if spec[0] == "const":
                items.append(Const(free_reduce(alphabet, spec[1])))
            elif spec[0] == "pow":
                items.append(Power(free_reduce(alphabet, spec[1]), spec[2]))
            elif spec[0] == "constS":
                word = _slp_word(inst, spec[1], expansion_cap, spec[2])
                items.append(Const(free_reduce(alphabet, word)))
            elif spec[0] == "powS":
                word = _slp_word(inst, spec[1], expansion_cap, spec[3])
                items.append(Power(free_reduce(alphabet, word), spec[2]))
        return ExponentEquation(alphabet, items)
    if problem["kind"] == "knapsack":
        from .solver.equations import knapsack_to_equation

        return knapsack_to_equation(alphabet, problem["items"], problem["target"])
    raise FormatError(f"problem kind {problem['kind']} is not an equation")


def build_ka(inst: Instance):
    """KnapsackAutomaton + target from a ka problem block."""
    from .transfer.kauto import KnapsackAutomaton

    alphabet = inst.require_alphabet()
    problem = inst.problem
    if problem["initial"] is None:
        raise FormatError("ka block needs an initial state", problem["line"])
    label_alphabet = plain_alphabet(alphabet.letters)
    nfa = Nfa(
        label_alphabet,
        problem["states"],
        problem["edges"],
        problem["initial"],
        problem["finals"],
    )
    return KnapsackAutomaton(nfa), problem["target"]


def build_oracle(inst: Instance, name: str):
    from .transfer.oracles import (
        FiniteGroupOracle,
        FreeGroupOracle,
        FreeProductOracle,
        GraphGroupOracle,
        ZOracle,
    )

    if name not in inst.oracles:
        raise FormatError(f"unknown oracle {name!r}")
    spec = inst.oracles[name]
    kind, args = spec["kind"], spec["args"]
    if kind == "z":
        return ZOracle(args[0] if args else "a")
    if kind == "free":
        return FreeGroupOracle(tuple(args))
    if kind == "finite-cyclic":
        return FiniteGroupOracle.cyclic(int(args[0]), args[1] if len(args) > 1 else "g")
    if kind == "product":
        return FreeProductOracle(build_oracle(inst, args[0]), build_oracle(inst, args[1]))
    if kind == "graph":
        return GraphGroupOracle(inst.require_alphabet())
    raise FormatError(f"unknown oracle kind {kind!r}", spec["line"])


def dump_automaton(nfa: Nfa) -> str:
    """Debug/golden format: sorted state and edge lines."""
    lines = []
    alpha = nfa.memorizing or {}
    for state in sorted(nfa.states, key=str):
        bits = [f"state {state}"]
        if state == nfa.initial:
            bits.append("initial")
        if state in nfa.finals:
            bits.append("final")
        if state in alpha:
            letters = ",".join(sorted(alpha[state]))
            bits.append(f"alpha={letters}")
        lines.append(" ".join(bits))
    for p, a, q in sorted(nfa.transitions, key=lambda e: (str(e[0]), str(e[1]), str(e[2]))):
        label = "eps" if a is EPS else a
        lines.append(f"edge {p} {label} {q}")
    return "\n".join(lines)


def parse_automaton(text: str, alphabet: IndependenceAlphabet) -> Nfa:
    states: List[str] = []
    edges = []
    initial = None
    finals = []
    alpha: Dict[str, frozenset] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "state":
            states.append(tokens[1])
            for extra in tokens[2:]:
                if extra == "initial":
                    initial = tokens[1]
                elif extra == "final":
                    finals.append(tokens[1])
                elif extra.startswith("alpha="):
                    letters = extra[len("alpha=") :]
                    alpha[tokens[1]] = frozenset(
                        x for x in letters.split(",") if x
                    )
                else:
                    raise FormatError(f"bad state attribute {extra!r}", lineno)
        elif tokens[0] == "edge":
            label = None if tokens[2] == "eps" else tokens[2]
            edges.append((tokens[1], label, tokens[3]))
        else:
            raise FormatError(f"bad automaton line {tokens[0]!r}", lineno)
    if initial is None:
        raise FormatError("automaton has no initial state")
    memorizing = alpha if len(alpha) == len(states) and states else None
    return Nfa(alphabet, states, edges, initial, finals, memorizing=memorizing)


def format_instance(inst: Instance) -> str:
    """Canonical text for a parsed instance; parse(format(inst)) == inst."""
    lines: List[str] = []
    if inst.expect_exit is not None:
        lines.append(f"# expect-exit {inst.expect_exit}")
    if inst.mode_hint is not None:
        lines.append(f"# mode {inst.mode_hint}")
    if inst.base_alphabet is not None:
        lines.append("gens " + " ".join(inst.base_alphabet.letters))
        for pair in sorted(tuple(sorted(p)) for p in inst.base_alphabet.independence):
            lines.append(f"indep {pair[0]} {pair[1]}")
    for name, slp in sorted(inst.slps.items()):
        lines.append(f"slp {slp.start}")
        for var, body in slp.rhs.items():
            lines.append(f"rule {var} -> {format_word(body)}")
    for name, spec in sorted(inst.oracles.items()):
        lines.append(f"oracle {name} {spec['kind']} " + " ".join(spec["args"]))
    p = inst.problem
    kind = p["kind"]
    if kind == "eq":
        lines.append("eq")
        for item in p["items"]:
            if item[0] == "const":
                lines.append("const " + format_word(item[1]))
            elif item[0] == "pow":
                lines.append(f"pow {format_word(item[1])} {item[2]}")
            elif item[0] == "constS":
                lines.append(f"constS {item[1]}")
            elif item[0] == "powS":
                lines.append(f"powS {item[1]} {item[2]}")
    elif kind == "knapsack":
        lines.append("knapsack")
        for word in p["items"]:
            lines.append("item " + format_word(word))
        lines.append("target " + format_word(p["target"]))
    elif kind == "ka":
        lines.append("ka")
        for state in p["states"]:
            bits = [f"state {state}"]
            if state == p["initial"]:
                bits.append("initial")
            if state in p["finals"]:
                bits.append("final")
            lines.append(" ".join(bits))
        for src, label, dst in p["edges"]:
            lines.append(f"edge {src} {'eps' if label is None else label} {dst}")
        lines.append("target " + format_word(p["target"]))
    elif kind == "extension":
        lines.append(f"extension base {p['base']}")
        lines.append("cosets " + " ".join(p["cosets"]))
        lines.append(f"onecoset {p['one']}")
        for (c, b), (gword, c2) in sorted(p["table"].items()):
            middle = (" ".join(gword) + " ") if gword else ""
            lines.append(f"coset {c} gen {b} -> {middle}{c2}")
        lines.append("eqH")
        for item in p["items"]:
            if item[0] == "const":
                lines.append("const " + format_word(item[1]))
            else:
                lines.append(f"pow {format_word(item[1])} {item[2]}")
    elif kind == "hnn":
        lines.append(f"hnn base {p['base']} stable {p['stable']}")
        for w in p["assoc+"]:
            lines.append("assoc + " + format_word(w))
        for w in p["assoc-"]:
            lines.append("assoc - " + format_word(w))
        for wp, wn in p["phi"]:
            lines.append(f"phi {format_word(wp)} -> {format_word(wn)}")
        for word in p["items"]:
            lines.append("item " + format_word(word))
        lines.append("target " + format_word(p["target"]))
    elif kind == "amalgam":
        lines.append(f"amalgam left {p['left']} right {p['right']}")
        lines.append("felem " + " ".join(p["felems"]))
        lines.append(f"fid {p['fid']}")
        for (f, g), h in sorted(p["ftable"].items()):
            lines.append(f"ftable {f} {g} -> {h}")
        for f, (lw, rw) in sorted(p["fmap"].items()):
            lines.append(f"fmap {f} left {format_word(lw)} right {format_word(rw)}")
        for word in p["items"]:
            lines.append("item " + format_word(word))
        lines.append("target " + format_word(p["target"]))
    return "\n".join(lines) + "\n"


def instances_structurally_equal(a: Instance, b: Instance) -> bool:
    def problem_key(inst):
        p = dict(inst.problem)
        p.pop("line", None)
        if p.get("kind") == "eq":
            # strip the line numbers kept for compressed-item error reporting
            p["items"] = [
                item[:2] if item[0] == "constS" else
                item[:3] if item[0] == "powS" else item
                for item in p["items"]
            ]
        return p

    return (
        a.base_alphabet == b.base_alphabet
        and {n: (s.rhs, s.start) for n, s in a.slps.items()}
        == {n: (s.rhs, s.start) for n, s in b.slps.items()}
        and {
            n: (o["kind"], tuple(o["args"])) for n, o in a.oracles.items()
        }
        == {n: (o["kind"], tuple(o["args"])) for n, o in b.oracles.items()}
        and problem_key(a) == problem_key(b)
    )
