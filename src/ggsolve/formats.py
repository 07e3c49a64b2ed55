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
``_`` spells the empty word.  Two comments are directives: ``# expect-exit N``
and ``# mode exact|search|relax``.

``parse_instance`` returns an ``Instance`` whose ``problem`` is one of six
dataclasses, one per block: ``EqProblem``, ``KnapsackProblem``, ``KaProblem``,
``ExtensionProblem``, ``HnnProblem`` and ``AmalgamProblem``.  Each names the
CLI command that answers it (``command``).  Line numbers are kept for error
messages but take no part in equality, so ``parse_instance(format_instance(i))
== i``.  The ``build_*`` functions turn a problem block into the objects the
solver and the transfer algorithms take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union, get_args

from .automata import EPS, Nfa, trim
from .errors import CertificateError, FormatError, ResourceExceeded, StructureError, TraceError
from .groups import INVERSE_MARK, DoubledAlphabet, free_reduce, inverse_letter, invert_word
from .slp import Slp, expand_capped, fold_power, is_variable_token, val_length
from .traces import IndependenceAlphabet

MODES = ("exact", "search", "relax")


def parse_word(tokens: Sequence[str]) -> tuple:
    if list(tokens) == ["_"]:
        return ()
    return tuple(tokens)


def format_word(word: Sequence[str]) -> str:
    return " ".join(word) if word else "_"


def _word_lines(head: str, words: Sequence[Sequence[str]]) -> List[str]:
    return [f"{head} {format_word(word)}" for word in words]


def _line():
    """A line number: reported in errors, ignored by ``==``."""
    return field(default=None, compare=False)


@dataclass
class EqItem:
    """An item of an ``eq`` or ``eqH`` block.

    The constant ``word``, or the power ``word^var`` when ``var`` is set.  In
    a compressed item (``constS``, ``powS``) ``slp`` names the SLP that spells
    the word.
    """

    word: tuple = ()
    var: Optional[str] = None
    slp: Optional[str] = None
    line: Optional[int] = _line()

    def text(self) -> str:
        if self.slp is not None:
            return f"constS {self.slp}" if self.var is None else f"powS {self.slp} {self.var}"
        if self.var is None:
            return "const " + format_word(self.word)
        return f"pow {format_word(self.word)} {self.var}"


@dataclass
class OracleSpec:
    """``oracle <name> <kind> <args...>``: a base group of a transfer problem."""

    kind: str
    args: Tuple[str, ...] = ()
    line: Optional[int] = _line()


@dataclass
class EqProblem:
    """``eq``: the exponent equation v0 u1^x1 v1 ... un^xn vn = 1."""

    kind: ClassVar[str] = "eq"
    command: ClassVar[str] = "solve"
    items: List[EqItem] = field(default_factory=list)
    line: Optional[int] = _line()

    def lines(self) -> List[str]:
        return ["eq"] + [item.text() for item in self.items]


@dataclass
class KnapsackProblem:
    """``knapsack``: is the target in u1^* ... un^*?"""

    kind: ClassVar[str] = "knapsack"
    command: ClassVar[str] = "solve"
    items: List[tuple] = field(default_factory=list)
    target: tuple = ()
    line: Optional[int] = _line()

    def lines(self) -> List[str]:
        return ["knapsack"] + _word_lines("item", self.items) + _word_lines("target", [self.target])


@dataclass
class KaProblem:
    """``ka``: is the target in the language of a knapsack automaton?"""

    kind: ClassVar[str] = "ka"
    command: ClassVar[str] = "solve"
    states: List[str] = field(default_factory=list)
    edges: List[Tuple[str, Optional[str], str]] = field(default_factory=list)
    initial: Optional[str] = None
    finals: List[str] = field(default_factory=list)
    target: tuple = ()
    line: Optional[int] = _line()

    def lines(self) -> List[str]:
        lines = ["ka"]
        for state in self.states:
            bits = [f"state {state}"]
            if state == self.initial:
                bits.append("initial")
            if state in self.finals:
                bits.append("final")
            lines.append(" ".join(bits))
        for src, label, dst in self.edges:
            lines.append(f"edge {src} {'eps' if label is None else label} {dst}")
        return lines + _word_lines("target", [self.target])


@dataclass
class ExtensionProblem:
    """``extension``: an exponent equation over a finite extension of a base group."""

    kind: ClassVar[str] = "extension"
    command: ClassVar[str] = "finite-ext"
    base: str = ""
    cosets: List[str] = field(default_factory=list)
    one: Optional[str] = None
    table: Dict[Tuple[str, str], Tuple[tuple, str]] = field(default_factory=dict)
    items: List[EqItem] = field(default_factory=list)
    line: Optional[int] = _line()

    def lines(self) -> List[str]:
        lines = [f"extension base {self.base}", "cosets " + " ".join(self.cosets)]
        lines.append(f"onecoset {self.one}")
        for (c, b), (gword, c2) in sorted(self.table.items()):
            middle = (" ".join(gword) + " ") if gword else ""
            lines.append(f"coset {c} gen {b} -> {middle}{c2}")
        return lines + ["eqH"] + [item.text() for item in self.items]


@dataclass
class HnnProblem:
    """``hnn``: knapsack over an HNN-extension of a base group."""

    kind: ClassVar[str] = "hnn"
    command: ClassVar[str] = "hnn"
    base: str = ""
    stable: str = "t"
    assoc_pos: List[tuple] = field(default_factory=list)
    assoc_neg: List[tuple] = field(default_factory=list)
    phi: List[Tuple[tuple, tuple]] = field(default_factory=list)
    items: List[tuple] = field(default_factory=list)
    target: tuple = ()
    line: Optional[int] = _line()

    def lines(self) -> List[str]:
        return [
            f"hnn base {self.base} stable {self.stable}",
            *_word_lines("assoc +", self.assoc_pos),
            *_word_lines("assoc -", self.assoc_neg),
            *(f"phi {format_word(wp)} -> {format_word(wn)}" for wp, wn in self.phi),
            *_word_lines("item", self.items),
            *_word_lines("target", [self.target]),
        ]


@dataclass
class AmalgamProblem:
    """``amalgam``: knapsack over an amalgamated product over a finite group F."""

    kind: ClassVar[str] = "amalgam"
    command: ClassVar[str] = "amalgam"
    left: str = ""
    right: str = ""
    felems: List[str] = field(default_factory=list)
    ftable: Dict[Tuple[str, str], str] = field(default_factory=dict)
    fid: Optional[str] = None
    fmap: Dict[str, Tuple[tuple, tuple]] = field(default_factory=dict)
    items: List[tuple] = field(default_factory=list)
    target: tuple = ()
    line: Optional[int] = _line()

    def lines(self) -> List[str]:
        lines = [f"amalgam left {self.left} right {self.right}", "felem " + " ".join(self.felems)]
        lines.append(f"fid {self.fid}")
        for (f, g), h in sorted(self.ftable.items()):
            lines.append(f"ftable {f} {g} -> {h}")
        for f, (lw, rw) in sorted(self.fmap.items()):
            lines.append(f"fmap {f} left {format_word(lw)} right {format_word(rw)}")
        return lines + _word_lines("item", self.items) + _word_lines("target", [self.target])


Problem = Union[EqProblem, KnapsackProblem, KaProblem, ExtensionProblem, HnnProblem, AmalgamProblem]
PROBLEM_KINDS = tuple(block.kind for block in get_args(Problem))


@dataclass
class Instance:
    """Parsed instance file."""

    problem: Problem
    base_alphabet: Optional[IndependenceAlphabet] = None
    slps: Dict[str, Slp] = field(default_factory=dict)
    oracles: Dict[str, OracleSpec] = field(default_factory=dict)
    expect_exit: Optional[int] = None
    mode_hint: Optional[str] = None
    alphabet: Optional[DoubledAlphabet] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        base = self.base_alphabet
        self.alphabet = None if base is None else DoubledAlphabet(base)

    def require_alphabet(self) -> DoubledAlphabet:
        if self.alphabet is None:
            raise FormatError("no alphabet block (gens ...) found")
        return self.alphabet


def scan_directives(text: str) -> Tuple[Optional[int], Optional[str]]:
    """The ``# expect-exit N`` and ``# mode M`` comments of an instance file.

    Reads comments only, so it succeeds on files whose body does not parse;
    the last occurrence of each directive wins.  A directive without its
    argument, a non-integer exit code, or a mode other than exact, search
    and relax raises FormatError.
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
            if words[1] not in MODES:
                raise FormatError(f"mode takes one of {', '.join(MODES)}", lineno)
            mode_hint = words[1]
    return expect_exit, mode_hint


def parse_instance(text: str) -> Instance:
    gens: List[str] = []
    indep: List[Tuple[str, str]] = []
    indep_lines: List[int] = []
    current_slp: Optional[str] = None
    slp_rules: Dict[str, Dict[str, tuple]] = {}
    oracles: Dict[str, OracleSpec] = {}
    problem = None
    section: Optional[str] = None
    heads_seen: set = set()

    expect_exit, mode_hint = scan_directives(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        try:
            if head in PROBLEM_KINDS and problem is not None:
                raise FormatError(f"second problem block {head!r} (one per file)", lineno)
            if head in ("target", "onecoset", "fid") and head in heads_seen:
                raise FormatError(f"second {head} line", lineno)
            heads_seen.add(head)
            if head == "gens":
                for letter in rest:
                    if letter in gens:
                        raise FormatError(f"letter {letter!r} declared twice", lineno)
                    if letter.endswith(INVERSE_MARK):
                        raise FormatError(f"letter {letter!r} ends in the inverse mark", lineno)
                    gens.append(letter)
            elif head == "indep":
                if len(rest) != 2 or rest[0] == rest[1]:
                    raise FormatError("indep takes two distinct letters", lineno)
                indep.append((rest[0], rest[1]))
                indep_lines.append(lineno)
            elif head == "slp":
                if len(rest) != 1:
                    raise FormatError("slp takes the start variable", lineno)
                current_slp = rest[0]
                slp_rules.setdefault(current_slp, {})
                section = "slp"
            elif head == "rule":
                if current_slp is None:
                    raise FormatError("rule outside an slp block", lineno)
                if len(rest) < 2 or rest[1] != "->":
                    raise FormatError("rule syntax: rule Var -> tokens", lineno)
                rules = slp_rules[current_slp]
                if rest[0] in rules:
                    raise FormatError(f"second rule for {rest[0]!r} in slp {current_slp!r}", lineno)
                rules[rest[0]] = parse_word(rest[2:]) if rest[2:] else ()
            elif head == "eq":
                problem = EqProblem(line=lineno)
                section = "eq"
            elif head == "const" and section in ("eq", "extension-eq"):
                problem.items.append(EqItem(parse_word(rest), line=lineno))
            elif head == "pow" and section in ("eq", "extension-eq"):
                if len(rest) < 2:
                    raise FormatError("pow takes a word and a variable", lineno)
                problem.items.append(EqItem(parse_word(rest[:-1]), rest[-1], line=lineno))
            elif head == "constS" and section == "eq":
                if len(rest) != 1:
                    raise FormatError("constS syntax: constS <slp>", lineno)
                problem.items.append(EqItem(slp=rest[0], line=lineno))
            elif head == "powS" and section == "eq":
                if len(rest) != 2:
                    raise FormatError("powS takes an SLP name and a variable", lineno)
                problem.items.append(EqItem(var=rest[1], slp=rest[0], line=lineno))
            elif head == "knapsack":
                problem = KnapsackProblem(line=lineno)
                section = "knapsack"
            elif head == "item" and section in ("knapsack", "hnn", "amalgam"):
                problem.items.append(parse_word(rest))
            elif head == "target" and section in ("knapsack", "ka", "hnn", "amalgam"):
                problem.target = parse_word(rest)
            elif head == "ka":
                problem = KaProblem(line=lineno)
                section = "ka"
            elif head == "state" and section == "ka":
                if not rest:
                    raise FormatError("state syntax: state <id> [initial] [final]", lineno)
                name = rest[0]
                problem.states.append(name)
                if "initial" in rest[1:]:
                    if problem.initial is not None:
                        raise FormatError(f"second initial state {name!r}", lineno)
                    problem.initial = name
                if "final" in rest[1:]:
                    problem.finals.append(name)
            elif head == "edge" and section == "ka":
                if len(rest) != 3:
                    raise FormatError("edge syntax: edge from letter to", lineno)
                label = None if rest[1] == "eps" else rest[1]
                problem.edges.append((rest[0], label, rest[2]))
            elif head == "oracle":
                if len(rest) < 2:
                    raise FormatError("oracle syntax: oracle name kind ...", lineno)
                if rest[0] in oracles:
                    raise FormatError(f"oracle {rest[0]!r} defined twice", lineno)
                oracles[rest[0]] = OracleSpec(rest[1], tuple(rest[2:]), lineno)
            elif head == "extension":
                if len(rest) != 2 or rest[0] != "base":
                    raise FormatError("extension syntax: extension base <oracle>", lineno)
                problem = ExtensionProblem(base=rest[1], line=lineno)
                section = "extension"
            elif head == "cosets" and section == "extension":
                for c in rest:
                    if c in problem.cosets:
                        raise FormatError(f"coset {c!r} listed twice", lineno)
                    problem.cosets.append(c)
            elif head == "onecoset" and section == "extension":
                if len(rest) != 1:
                    raise FormatError("onecoset syntax: onecoset <coset>", lineno)
                problem.one = rest[0]
            elif head == "coset" and section == "extension":
                # coset <c> gen <b> -> <gword...> <c'>
                if len(rest) < 5 or rest[1] != "gen" or rest[3] != "->":
                    raise FormatError(
                        "coset syntax: coset c gen b -> gword c'", lineno
                    )
                if (rest[0], rest[2]) in problem.table:
                    raise FormatError(f"second coset row for {rest[0]!r} gen {rest[2]!r}", lineno)
                gword = parse_word(rest[4:-1]) if rest[4:-1] else ()
                problem.table[(rest[0], rest[2])] = (gword, rest[-1])
            elif head == "eqH" and section == "extension":
                problem.items = []
                section = "extension-eq"
            elif head == "hnn":
                if len(rest) != 4 or rest[0] != "base" or rest[2] != "stable":
                    raise FormatError("hnn syntax: hnn base <oracle> stable <t>", lineno)
                problem = HnnProblem(base=rest[1], stable=rest[3], line=lineno)
                section = "hnn"
            elif head == "assoc" and section == "hnn":
                if not rest or rest[0] not in ("+", "-"):
                    raise FormatError("assoc takes + or -", lineno)
                assoc = problem.assoc_pos if rest[0] == "+" else problem.assoc_neg
                assoc.append(parse_word(rest[1:]))
            elif head == "phi" and section == "hnn":
                if "->" not in rest:
                    raise FormatError("phi syntax: phi word -> word", lineno)
                arrow = rest.index("->")
                problem.phi.append(
                    (parse_word(rest[:arrow]), parse_word(rest[arrow + 1 :]))
                )
            elif head == "amalgam":
                if len(rest) != 4 or rest[0] != "left" or rest[2] != "right":
                    raise FormatError(
                        "amalgam syntax: amalgam left <oracle> right <oracle>", lineno
                    )
                problem = AmalgamProblem(left=rest[1], right=rest[3], line=lineno)
                section = "amalgam"
            elif head == "felem" and section == "amalgam":
                problem.felems.extend(rest)
            elif head == "fid" and section == "amalgam":
                if len(rest) != 1:
                    raise FormatError("fid syntax: fid <felem>", lineno)
                problem.fid = rest[0]
            elif head == "ftable" and section == "amalgam":
                if len(rest) != 4 or rest[2] != "->":
                    raise FormatError("ftable syntax: ftable f g -> h", lineno)
                problem.ftable[(rest[0], rest[1])] = rest[3]
            elif head == "fmap" and section == "amalgam":
                if "left" not in rest or "right" not in rest:
                    raise FormatError(
                        "fmap syntax: fmap f left word right word", lineno
                    )
                li = rest.index("left")
                ri = rest.index("right")
                problem.fmap[rest[0]] = (
                    parse_word(rest[li + 1 : ri]),
                    parse_word(rest[ri + 1 :]),
                )
            else:
                raise FormatError(f"unrecognized directive {head!r}", lineno)
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise FormatError(str(exc), lineno) from exc

    slps: Dict[str, Slp] = {}
    for name, rules in slp_rules.items():
        try:
            slps[name] = Slp(rules, name)
        except Exception as exc:
            raise FormatError(f"bad SLP {name!r}: {exc}") from exc
    if problem is None:
        raise FormatError("no problem block found")
    for pair, line in zip(indep, indep_lines):
        _check_letters(gens, [pair], line, "indep")
    base_alphabet = IndependenceAlphabet(tuple(gens), indep) if gens else None
    return Instance(problem, base_alphabet, slps, oracles, expect_exit, mode_hint)


def _check_letters(letters, words, line, where: str) -> None:
    """FormatError for the first letter of ``words`` outside ``letters``.

    ``line`` is the line of the word, or of its block when the block keeps
    no line per word; ``where`` says which.
    """
    for word in words:
        for a in word:
            if a not in letters:
                message = f"{where}: letter {a!r} of {format_word(word)!r} is not in the alphabet"
                raise FormatError(message, line)


def build_equation(inst: Instance, expansion_cap: int = 10**6):
    """ExponentEquation from an eq/knapsack problem block.

    A ``constS`` whose SLP folds (``slp.fold_power``: iterated squaring of
    one word, say) stays a ``ConjugatePower``; any other SLP is expanded.
    Either way an SLP longer than ``expansion_cap`` raises ResourceExceeded.
    """
    from .solver.equations import Const, ExponentEquation, Power, chain_equation

    problem = inst.problem
    if not isinstance(problem, (EqProblem, KnapsackProblem)):
        raise FormatError(f"problem kind {problem.kind} is not an equation")
    alphabet = inst.require_alphabet()
    letters = set(alphabet.letters)
    if isinstance(problem, KnapsackProblem):
        _check_letters(letters, problem.items + [problem.target], problem.line, "knapsack block")
        v_words = [()] * len(problem.items) + [invert_word(problem.target)]
        return chain_equation(alphabet, v_words, problem.items)
    items = []
    for item in problem.items:
        word = item.word
        if item.slp is not None:
            if item.slp not in inst.slps:
                raise FormatError(f"unknown SLP {item.slp!r}", item.line)
            slp = inst.slps[item.slp]
            terminals = [[t for t in body if not is_variable_token(t)] for body in slp.rhs.values()]
            _check_letters(letters, terminals, item.line, f"SLP {item.slp!r}")
            total = val_length(slp)
            if total > expansion_cap:
                raise ResourceExceeded(total, expansion_cap)
            folded = fold_power(slp, alphabet) if item.var is None else None
            if folded is not None:
                items.append(Const(folded))
                continue
            word = expand_capped(slp, expansion_cap)
        else:
            _check_letters(letters, [word], item.line, "eq item")
        word = free_reduce(alphabet, word)
        items.append(Const(word) if item.var is None else Power(word, item.var))
    return ExponentEquation(alphabet, items)


def build_ka(inst: Instance):
    """The automaton (over the instance's alphabet) and the target of a ka block.

    The block must describe a knapsack automaton: its shape is certified
    here, and a failed certificate is a FormatError, as is an edge to an
    undeclared state.  The automaton comes out trimmed, as the transfer
    code's cuts and chains do.
    """
    from .transfer.kauto import ShapeInfo

    alphabet = inst.require_alphabet()
    problem = inst.problem
    if problem.initial is None:
        raise FormatError("ka block needs an initial state", problem.line)
    labels = [(a,) for _, a, _ in problem.edges if a is not EPS]
    _check_letters(set(alphabet.letters), labels + [problem.target], problem.line, "ka block")
    try:
        nfa = Nfa(alphabet, problem.states, problem.edges, problem.initial, problem.finals)
        ShapeInfo(nfa.states, nfa.transitions)
    except (StructureError, CertificateError) as exc:
        raise FormatError(f"ka block: {exc}", problem.line) from exc
    return trim(nfa), problem.target


def build_extension(inst: Instance, search_cap: int):
    """FiniteExtension and the words v0..vn, u1..un of an extension block.

    The ``eqH`` items spell v0 u1^x1 v1 ... un^xn vn = 1 with pairwise
    distinct variables: consecutive constants merge into one v word, and
    the extension letters are the coset table's generators without their
    inverses.  A coset table that fails validation is a FormatError.
    """
    from .transfer import FiniteExtension

    problem = inst.problem
    base = build_oracle(inst, problem.base, search_cap)
    g_words = [gword for gword, _ in problem.table.values()]
    _check_letters(set(base.letters), g_words, problem.line, "extension block, coset-table g-word")
    ext_letters = sorted({b for (_, b) in problem.table})
    ext_letters = tuple(
        dict.fromkeys(b[:-1] if b.endswith("'") else b for b in ext_letters)
    )
    try:
        fe = FiniteExtension(base, ext_letters, problem.cosets, problem.one, problem.table)
    except StructureError as exc:
        raise FormatError(f"extension block: {exc}", problem.line) from exc
    item_letters = {*ext_letters, *(inverse_letter(b) for b in ext_letters)}
    variables: set = set()
    v_words: List[tuple] = []
    u_words: List[tuple] = []
    pending: tuple = ()
    for item in problem.items:
        _check_letters(item_letters, [item.word], item.line, "eqH item")
        if item.var is None:
            pending = pending + item.word
        elif item.var in variables:
            # finite_ext_reduce treats every power as its own variable
            raise FormatError(f"eqH variable {item.var!r} repeats", item.line)
        else:
            variables.add(item.var)
            v_words.append(pending)
            pending = ()
            u_words.append(item.word)
    v_words.append(pending)
    return fe, v_words, u_words


def build_hnn(inst: Instance, search_cap: int):
    """HnnPresentation of an hnn block; a presentation that fails validation is a FormatError."""
    from .transfer import HnnPresentation

    p = inst.problem
    base = build_oracle(inst, p.base, search_cap)
    subgroup_words = p.assoc_pos + p.assoc_neg + [w for pair in p.phi for w in pair]
    _check_letters(set(base.letters), subgroup_words, p.line, "hnn block, base-group word")
    letters = {*base.letters, p.stable, inverse_letter(p.stable)}
    _check_letters(letters, p.items + [p.target], p.line, "hnn block")
    try:
        return HnnPresentation(base, p.assoc_pos, p.assoc_neg, p.phi, p.stable)
    except StructureError as exc:
        raise FormatError(f"hnn block: {exc}", p.line) from exc


def build_amalgam(inst: Instance, search_cap: int):
    """AmalgamPresentation of an amalgam block; ``fmap`` gives both embeddings of F.

    A presentation that fails validation is a FormatError.
    """
    from .transfer import AmalgamPresentation

    p = inst.problem
    left = build_oracle(inst, p.left, search_cap)
    right = build_oracle(inst, p.right, search_cap)
    embed_left = {f: w[0] for f, w in p.fmap.items()}
    embed_right = {f: w[1] for f, w in p.fmap.items()}
    _check_letters(set(left.letters), embed_left.values(), p.line, "amalgam block, left fmap")
    _check_letters(set(right.letters), embed_right.values(), p.line, "amalgam block, right fmap")
    _check_letters({*left.letters, *right.letters}, p.items + [p.target], p.line, "amalgam block")
    try:
        return AmalgamPresentation(left, right, p.felems, p.ftable, p.fid, embed_left, embed_right)
    except StructureError as exc:
        raise FormatError(f"amalgam block: {exc}", p.line) from exc


def build_oracle(inst: Instance, name: str, search_cap: int):
    """The oracle named ``name``; an oracle that fails construction, or a ``product``
    that is its own factor through a cycle of products, is a FormatError on its line,
    and an unknown name one on the line of the block or ``product`` naming it."""
    from .transfer.oracles import (
        FiniteGroupOracle,
        FreeGroupOracle,
        FreeProductOracle,
        GraphGroupOracle,
        ZOracle,
    )

    def build(name: str, within: tuple, line: Optional[int]):
        if name not in inst.oracles:
            raise FormatError(f"unknown oracle {name!r}", line)
        spec = inst.oracles[name]
        kind, args = spec.kind, spec.args
        if name in within:
            cycle = " -> ".join(within[within.index(name) :] + (name,))
            raise FormatError(f"product oracles form a cycle: {cycle}", spec.line)
        try:
            if kind == "z":
                return ZOracle(args[0] if args else "a")
            if kind == "free":
                return FreeGroupOracle(args)
            if kind == "finite-cyclic":
                if not args or not args[0].isdecimal() or int(args[0]) < 1:
                    raise FormatError("finite-cyclic takes an order of at least 1", spec.line)
                return FiniteGroupOracle(int(args[0]), args[1] if len(args) > 1 else "g")
            if kind == "product":
                if len(args) != 2:
                    raise FormatError("product takes exactly two factor oracles", spec.line)
                return FreeProductOracle(*(build(arg, within + (name,), spec.line) for arg in args))
            if kind == "graph":
                return GraphGroupOracle(inst.require_alphabet(), search_cap)
        except (StructureError, TraceError) as exc:
            raise FormatError(f"oracle {name}: {exc}", spec.line) from exc
        raise FormatError(f"unknown oracle kind {kind!r}", spec.line)

    return build(name, (), inst.problem.line)


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
        lines.append(f"oracle {name} {spec.kind} " + " ".join(spec.args))
    lines.extend(inst.problem.lines())
    return "\n".join(lines) + "\n"
