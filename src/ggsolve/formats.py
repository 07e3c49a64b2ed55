"""Instance file parsing and printing.

A line-oriented text format with ``#`` comments.  A file holds an alphabet
(``gens``, ``indep``), SLP blocks, oracle definitions and exactly one problem
block.  ``_GRAMMAR`` below is the grammar: one row per line head gives the
blocks the head may appear in, its argument shape, what it may not repeat and
the handler that records it.  A problem head appears once per file;
``target``, ``onecoset``, ``fid``, ``eqH`` and an initial ``state`` once per
block; a ``gens`` letter, an oracle name, a rule per variable of an SLP, a
coset, a ``coset`` row per (coset, generator), a ``state``, an ``felem``, an
``ftable`` row per (f, g) and an ``fmap`` row per f once each.  A line that
breaks the grammar is a FormatError naming the line and the head's syntax.

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

import re
from dataclasses import dataclass, field
from operator import itemgetter, setitem
from types import SimpleNamespace
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union, get_args

from .automata import EPS, Nfa, trim
from .errors import CertificateError, FormatError, ResourceExceeded, StructureError, TraceError
from .groups import INVERSE_MARK, DoubledAlphabet, free_reduce, inverse_letter, invert_word
from .slp import Slp, expand_capped, fold_power, is_variable_token, val_length
from .traces import IndependenceAlphabet

MODES = ("exact", "search", "relax")


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
        if self.one is not None:
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
        if self.fid is not None:
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

    Reads comments only, so it succeeds on files whose body does not parse.
    A directive without its argument, a non-integer exit code, a mode other
    than exact, search and relax, or a second occurrence of either directive
    raises FormatError.
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
            if expect_exit is not None:
                raise FormatError("second expect-exit directive", lineno)
            expect_exit = int(words[1])
        if comment.startswith("mode "):
            if words[1] not in MODES:
                raise FormatError(f"mode takes one of {', '.join(MODES)}", lineno)
            if mode_hint is not None:
                raise FormatError("second mode directive", lineno)
            mode_hint = words[1]
    return expect_exit, mode_hint


class _Shape:
    """An argument shape, compiled once to a regex from its syntax string.

    In ``coset <c> gen <b> -> [<gword...>] <c'>`` a bare token is a literal, ``+|-``
    a choice, ``<x>`` one argument, ``<x...>`` one or more (a run), ``[<x...>]``
    zero or more, ``[<x>]`` an optional argument and ``[x]`` an optional literal.
    """

    def __init__(self, prefix: str, shape: str = ""):
        head, tokens = prefix.split()[0], shape.split()
        self.usage, pattern = f"{head} syntax: {prefix} {shape}".rstrip(), ""
        for n, token in enumerate(tokens, start=1):
            inner = token.strip("[]")
            if inner.endswith("...>"):  # a run stops before the next token, or at the end
                run = rf"\s+(?P<run{n}>\S.*)" if n == len(tokens) else rf"\s+(?P<run{n}>\S.*?)"
                pattern += run if inner == token else f"(?:{run})?"
            elif inner.startswith("<"):
                pattern += r"\s+(\S+)" if inner == token else r"(?:\s+(\S+))?"
            elif "|" in token:
                pattern += r"\s+(" + "|".join(map(re.escape, token.split("|"))) + ")"
                self.usage = f"{head} takes {token.replace('|', ' or ')}; {self.usage}"
            else:
                literal = re.escape(inner)
                pattern += rf"\s+{literal}" if inner == token else rf"(?:\s+({literal}))?"
        self.pattern = re.compile(pattern + r"\s*")
        self.runs = [group - 1 for group in self.pattern.groupindex.values()]

    def match(self, args: str) -> Sequence:
        """A value per token but a bare literal: a string, a tuple for a run (``_`` is the
        empty run), None for an absent option.  Each argument follows whitespace."""
        found = self.pattern.fullmatch(args)
        if found is None:
            raise FormatError(self.usage)
        if not self.runs:
            return found.groups()
        values = list(found.groups())
        for i in self.runs:
            run = tuple(values[i].split()) if values[i] else ()
            values[i] = () if run == ("_",) else run
        return values


def _gens(r, letters: tuple) -> None:
    for letter in letters:
        if letter.endswith(INVERSE_MARK):
            raise FormatError(f"letter {letter!r} ends in the inverse mark")
    r.gens.extend(letters)


def _oracle(r, name: str, kind: str, args: tuple) -> None:
    if kind not in _ORACLE_KINDS:
        raise FormatError(f"unknown oracle kind {kind!r}")
    _ORACLE_KINDS[kind].match("".join(" " + arg for arg in args))
    r.oracles[name] = OracleSpec(kind, args, r.lineno)


def _state(r, name: str, initial, final) -> None:
    r.problem.states.append(name)
    if initial:
        r.problem.initial = name
    if final:
        r.problem.finals.append(name)


def _item(r, word: tuple = (), var=None, slp=None) -> None:
    r.problem.items.append(EqItem(word, var, slp, r.lineno))


_EQ, _ITEMS, _EXT, _AM = ("eq", "eqH"), ("knapsack", "hnn", "amalgam"), ("extension",), ("amalgam",)
# The instance format, one row per line head: the blocks the head may appear in
# (None: anywhere), its argument shape, handler(reader, *values), and claims.  A
# claim (message, *positions) takes the values at those positions once per file,
# or once per SLP in an slp block: with no positions the head appears once (per
# file, or per block, as a file has one problem block); a run claims each of its
# elements; an absent option claims nothing.  A head named as a block opens it.
_GRAMMAR = {
    "gens": (None, "<letters...>", _gens, ("letter {key!r} declared twice", 0)),
    "indep": (None, "<a> <b>", lambda r, a, b: r.indep.append(((a, b), r.lineno))),
    "oracle": (None, "<name> <kind> [<args...>]", _oracle, ("oracle {0!r} defined twice", 0)),
    "slp": (None, "<start>", lambda r, start: r.rules.setdefault(start, {})),
    "rule": (("slp",), "<var> -> <word...>", lambda r, v, w: setitem(r.rules[r.opened[0]], v, w),
             ("second rule for {0!r} in slp {block[0]!r}", 0)),
    **{head: (None, {"extension": "base <oracle>", "hnn": "base <oracle> stable <t>",
                     "amalgam": "left <oracle> right <oracle>"}.get(head, ""),
              lambda r, *v, block=block: setattr(r, "problem", block(*v, line=r.lineno)),
              ("second problem block {head!r} (one per file)",))
       for head, block in zip(PROBLEM_KINDS, get_args(Problem))},
    "const": (_EQ, "<word...>", _item),
    "pow": (_EQ, "<word...> <var>", _item),
    "constS": (("eq",), "<slp>", lambda r, slp: _item(r, slp=slp)),
    "powS": (("eq",), "<slp> <var>", lambda r, slp, var: _item(r, var=var, slp=slp)),
    "item": (_ITEMS, "<word...>", lambda r, w: r.problem.items.append(w)),
    "target": (("ka",) + _ITEMS, "<word...>", lambda r, w: setattr(r.problem, "target", w),
               ("second target line",)),
    "state": (("ka",), "<id> [initial] [final]", _state, ("state {0!r} declared twice", 0),
              ("second initial state {0!r}", 1)),
    "edge": (("ka",), "<from> <letter|eps> <to>",
             lambda r, p, a, q: r.problem.edges.append((p, None if a == "eps" else a, q))),
    "cosets": (_EXT, "[<cosets...>]", lambda r, cs: r.problem.cosets.extend(cs),
               ("coset {key!r} listed twice", 0)),
    "onecoset": (_EXT, "<coset>", lambda r, c: setattr(r.problem, "one", c),
                 ("second onecoset line",)),
    "coset": (_EXT, "<c> gen <b> -> [<gword...>] <c'>",
              lambda r, c, b, gword, c2: setitem(r.problem.table, (c, b), (gword, c2)),
              ("second coset row for {0!r} gen {1!r}", 0, 1)),
    "eqH": (_EXT + ("eqH",), "", lambda r: None, ("second eqH line",)),
    "assoc": (("hnn",), "+|- <word...>", lambda r, sign, w: getattr(
        r.problem, "assoc_pos" if sign == "+" else "assoc_neg").append(w)),
    "phi": (("hnn",), "<word...> -> <word...>", lambda r, w, v: r.problem.phi.append((w, v))),
    "felem": (_AM, "[<felems...>]", lambda r, fs: r.problem.felems.extend(fs),
              ("felem {key!r} listed twice", 0)),
    "fid": (_AM, "<felem>", lambda r, f: setattr(r.problem, "fid", f), ("second fid line",)),
    "ftable": (_AM, "<f> <g> -> <h>", lambda r, f, g, h: setitem(r.problem.ftable, (f, g), h),
               ("second ftable row for {0!r} {1!r}", 0, 1)),
    "fmap": (_AM, "<f> left <word...> right <word...>",
             lambda r, f, w, v: setitem(r.problem.fmap, f, (w, v)),
             ("second fmap row for {0!r}", 0)),
}
_BLOCKS = {block for blocks, *_ in _GRAMMAR.values() for block in blocks or ()}


def _compile(head: str, blocks, syntax: str, handle, *claims) -> tuple:
    """A row with its shape compiled and each claim as (message, key getter or None,
    claims each element of a run, claims once per SLP)."""
    shape = _Shape(head, syntax)
    return blocks, shape, handle, tuple(
        (message, itemgetter(*at) if at else None, len(at) == 1 and at[0] in shape.runs,
         blocks == ("slp",)) for message, *at in claims)


_GRAMMAR = {head: _compile(head, *row) for head, row in _GRAMMAR.items()}
_ORACLE_KINDS = {  # the argument shapes of ``oracle <name> <kind> [<args...>]``
    kind: _Shape(f"oracle <name> {kind}", shape)
    for kind, shape in [("z", "[<gen>]"), ("free", "<gens...>"), ("finite-cyclic", "<n> [<gen>]"),
                        ("product", "<l> <r>"), ("graph", "")]
}


def parse_instance(text: str) -> Instance:
    """The instance ``text`` spells.  Each line is one lookup of its head in
    ``_GRAMMAR``, a check of its block, a match of its shape and of its claims."""
    r = SimpleNamespace(gens=[], indep=[], rules={}, oracles={}, problem=None, section=None,
                        opened=())
    claimed: set = set()
    expect_exit, mode_hint = scan_directives(text) if "#" in text else (None, None)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(None, 1)
        if not line:
            continue
        head, r.lineno = line[0], lineno
        row = _GRAMMAR.get(head)
        try:
            if row is None:
                raise FormatError(f"unrecognized directive {head!r}")
            blocks, shape, handle, claims = row
            if blocks is not None and r.section not in blocks:
                raise FormatError(f"{head} is only allowed in {', '.join(blocks)} blocks")
            values = shape.match(" " + line[1] if len(line) > 1 else "")
            for message, take, each, per_slp in claims:
                keys = take(values) if take else ()
                for key in keys if each else (keys,):
                    claim = (message, per_slp and r.opened, key)
                    if key is not None and claim in claimed:  # an absent option claims nothing
                        block = r.opened
                        raise FormatError(message.format(*values, key=key, head=head, block=block))
                    claimed.add(claim)
            handle(r, *values)
        except FormatError as exc:
            raise FormatError(str(exc), lineno) from None
        if head in _BLOCKS:
            r.section, r.opened = head, values

    slps: Dict[str, Slp] = {}
    for name, rules in r.rules.items():
        try:
            slps[name] = Slp(rules, name)
        except Exception as exc:
            raise FormatError(f"bad SLP {name!r}: {exc}") from exc
    if r.problem is None:
        raise FormatError("no problem block found")
    for (a, b), line in r.indep:
        if a == b:
            raise FormatError("indep takes two distinct letters", line)
        _check_letters(r.gens, [(a, b)], line, "indep")
    indep = [pair for pair, _ in r.indep]
    base_alphabet = IndependenceAlphabet(tuple(r.gens), indep) if r.gens else None
    return Instance(r.problem, base_alphabet, slps, r.oracles, expect_exit, mode_hint)


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
    from .transfer.oracles import FiniteGroupOracle, FreeProductOracle, GraphGroupOracle

    def build(name: str, within: tuple, line: Optional[int]):
        if name not in inst.oracles:
            raise FormatError(f"unknown oracle {name!r}", line)
        spec = inst.oracles[name]
        kind, args = spec.kind, spec.args
        if name in within:
            cycle = " -> ".join(within[within.index(name) :] + (name,))
            raise FormatError(f"product oracles form a cycle: {cycle}", spec.line)
        try:
            if kind == "finite-cyclic":
                if not args[0].isdecimal() or int(args[0]) < 1:
                    raise FormatError("finite-cyclic takes an order of at least 1", spec.line)
                return FiniteGroupOracle(int(args[0]), args[1] if len(args) > 1 else "g")
            if kind == "product":
                return FreeProductOracle(*(build(arg, within + (name,), spec.line) for arg in args))
            # z, free and graph: over one letter, over letters with no edges, over the alphabet
            if kind == "graph":
                return GraphGroupOracle(inst.require_alphabet(), search_cap)
            letters = IndependenceAlphabet(args or ("a",))
            return GraphGroupOracle(DoubledAlphabet(letters), search_cap)
        except (StructureError, TraceError) as exc:
            raise FormatError(f"oracle {name}: {exc}", spec.line) from exc

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
