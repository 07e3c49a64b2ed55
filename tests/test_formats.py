"""The instance format: ``format_instance`` and ``parse_instance`` agree, and no
text makes the parser fail in any way but a FormatError.

Generated instances of all six problem kinds print and parse back to
themselves.  Every line head of the grammar, given an argument count its
shape refuses, is a FormatError with the head's syntax.  Arbitrary text, and
lines built from the grammar's heads and literals, parse or raise FormatError.
"""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from ggsolve.errors import FormatError
from ggsolve.formats import (
    MODES,
    AmalgamProblem,
    EqItem,
    EqProblem,
    ExtensionProblem,
    HnnProblem,
    Instance,
    KaProblem,
    KnapsackProblem,
    OracleSpec,
    _GRAMMAR,
    format_instance,
    parse_instance,
)
from ggsolve.slp import Slp
from ggsolve.traces import IndependenceAlphabet

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
LETTERS = ("a", "b", "c", "d")
letters = st.sampled_from(LETTERS + tuple(a + "'" for a in LETTERS))
words = st.lists(letters, max_size=4).map(tuple)
names = st.sampled_from(("p", "q", "r2", "s", "t", "g", "h", "x", "y", "1", "z"))
slp_names = st.sampled_from(("P", "Q", "R"))


def unique(elements, min_size=0, max_size=4):
    return st.lists(elements, min_size=min_size, max_size=max_size, unique=True)


@st.composite
def eq_items(draw, compressed=True, distinct_vars=False):
    kinds = ("const", "pow", "constS", "powS") if compressed else ("const", "pow")
    chosen = draw(st.lists(st.sampled_from(kinds), max_size=5))
    variables = iter(draw(unique(names, len(chosen), len(chosen))) if distinct_vars else [])
    items = []
    for kind in chosen:
        var = next(variables) if distinct_vars else draw(names)
        if kind == "const":
            items.append(EqItem(draw(words)))
        elif kind == "pow":
            items.append(EqItem(draw(words), var))
        else:
            items.append(EqItem((), var if kind == "powS" else None, draw(slp_names)))
    return items


@st.composite
def ka_problems(draw):
    states = draw(unique(names, max_size=5))
    flags = draw(st.lists(st.booleans(), min_size=len(states), max_size=len(states)))
    edge = st.tuples(names, st.one_of(st.none(), letters), names)
    return KaProblem(
        states=states,
        edges=draw(st.lists(edge, max_size=4)),
        initial=draw(st.one_of(st.none(), st.sampled_from(states))) if states else None,
        finals=[s for s, final in zip(states, flags) if final],
        target=draw(words),
    )


@st.composite
def extension_problems(draw):
    row = st.tuples(st.lists(letters, max_size=3).map(tuple), names)
    return ExtensionProblem(
        base=draw(names),
        cosets=draw(unique(names, min_size=1)),
        one=draw(names),
        table=draw(st.dictionaries(st.tuples(names, letters), row, max_size=5)),
        items=draw(eq_items(compressed=False, distinct_vars=True)),
    )


@st.composite
def hnn_problems(draw):
    return HnnProblem(
        base=draw(names),
        stable=draw(names),
        assoc_pos=draw(st.lists(words, max_size=3)),
        assoc_neg=draw(st.lists(words, max_size=3)),
        phi=draw(st.lists(st.tuples(words, words), max_size=3)),
        items=draw(st.lists(words, max_size=3)),
        target=draw(words),
    )


@st.composite
def amalgam_problems(draw):
    return AmalgamProblem(
        left=draw(names),
        right=draw(names),
        felems=draw(unique(names, min_size=1)),
        ftable=draw(st.dictionaries(st.tuples(names, names), names, max_size=4)),
        fid=draw(names),
        fmap=draw(st.dictionaries(names, st.tuples(words, words), max_size=3)),
        items=draw(st.lists(words, max_size=3)),
        target=draw(words),
    )


problems = st.one_of(
    st.builds(EqProblem, items=eq_items()),
    st.builds(KnapsackProblem, items=st.lists(words, max_size=4), target=words),
    ka_problems(),
    extension_problems(),
    hnn_problems(),
    amalgam_problems(),
)

oracle_specs = st.one_of(
    st.builds(OracleSpec, st.just("z"), st.lists(letters, max_size=1).map(tuple)),
    st.builds(OracleSpec, st.just("free"), unique(letters, min_size=1).map(tuple)),
    st.builds(OracleSpec, st.just("finite-cyclic"),
              st.tuples(st.integers(1, 9).map(str)) | st.tuples(st.integers(1, 9).map(str), names)),
    st.builds(OracleSpec, st.just("product"), st.tuples(names, names)),
    st.builds(OracleSpec, st.just("graph")),
)


@st.composite
def alphabets(draw):
    gens = tuple(draw(unique(st.sampled_from(LETTERS), min_size=1)))
    pairs = [(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]]
    independence = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return IndependenceAlphabet(gens, independence)


@st.composite
def slps(draw):
    """A chain S -> w S' ... ending in a body of letters only (``_`` when empty)."""
    chain = draw(unique(slp_names, min_size=1, max_size=3))
    rules = {var: draw(words) + (nxt,) for var, nxt in zip(chain, chain[1:])}
    rules[chain[-1]] = draw(words)
    return Slp(rules, chain[0])


@st.composite
def instances(draw):
    return Instance(
        problem=draw(problems),
        base_alphabet=draw(st.one_of(st.none(), alphabets())),
        slps={slp.start: slp for slp in draw(st.lists(slps(), max_size=2))},
        oracles=draw(st.dictionaries(names, oracle_specs, max_size=3)),
        expect_exit=draw(st.one_of(st.none(), st.integers(0, 4))),
        mode_hint=draw(st.one_of(st.none(), st.sampled_from(MODES))),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_format_then_parse_is_identity(self, inst):
        text = format_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert format_instance(again) == text


# The lines that open each block, so that a head can be tried inside its block.
OPENERS = {
    None: "", "slp": "slp S\n", "eq": "eq\n", "knapsack": "knapsack\n", "ka": "ka\n",
    "extension": "extension base G\n", "eqH": "extension base G\neqH\n",
    "hnn": "hnn base B stable t\n", "amalgam": "amalgam left L right R\n",
}

# A head of the grammar followed by up to seven of its heads, literals and tricky tokens.
TOKENS = sorted({*_GRAMMAR, "->", "gen", "left", "right", "base", "stable", "+", "-", "initial",
                 "final", "eps", "_", "z", "free", "finite-cyclic", "product", "graph", "0", "1",
                 "a", "a'", "S", "x", "#", "# expect-exit 1"})
grammar_lines = st.builds(
    lambda head, rest: " ".join([head, *rest]),
    st.sampled_from(sorted(_GRAMMAR)), st.lists(st.sampled_from(TOKENS), max_size=7),
)


class TestGrammar:
    # ``cosets`` and ``felem`` take any number of arguments: ``format_instance``
    # writes a bare one for a block that lists none.
    @pytest.mark.parametrize("head", sorted(h for h in _GRAMMAR if h not in ("cosets", "felem")))
    def test_wrong_arity_names_the_syntax(self, head):
        """A head without arguments, or one that takes none given one, is a
        FormatError on its line that gives the head's syntax."""
        blocks, shape, _, _ = _GRAMMAR[head]
        opener = OPENERS[blocks[0] if blocks else None]
        line = f"{head} junk" if shape.usage.endswith(f"syntax: {head}") else head
        with pytest.raises(FormatError) as info:
            parse_instance(opener + line + "\n")
        assert str(info.value) == f"line {opener.count(chr(10)) + 1}: {shape.usage}"
        assert f"{head} syntax: {head}" in shape.usage

    @settings(max_examples=300, deadline=None)
    @given(st.lists(grammar_lines, max_size=12), st.sampled_from(sorted(OPENERS.values())))
    def test_grammar_lines_parse_back_or_raise_format_errors(self, lines, opener):
        """What parses prints and parses back to itself, also a block with no
        onecoset or fid line."""
        text = "gens a b\n" + opener + "".join(line + "\n" for line in lines)
        try:
            inst = parse_instance(text)
        except FormatError:
            return
        assert parse_instance(format_instance(inst)) == inst

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text_raises_only_format_errors(self, text):
        try:
            parse_instance(text)
        except FormatError:
            pass

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CORPUS, "*.gg"))))
    def test_spacing_between_arguments_is_free(self, path):
        text = open(path).read()
        assert parse_instance(text.replace(" ", " \t  ")) == parse_instance(text)

    @pytest.mark.parametrize(
        "text,where",
        [
            ("gens a\nka\nstate p initial\nstate q \t initial final\ntarget _\n",
             "line 4: second initial state 'q'"),
            ("gens a\nslp S\nrule S -> a\nslp T\nrule S -> a a\nrule T -> S\nslp S\nrule S -> _\n"
             "eq\nconstS T\n", "line 8: second rule for 'S' in slp 'S'"),
        ],
        ids=["initial-spacing", "rule-per-slp"],
    )
    def test_claims(self, text, where):
        """A claim holds whatever the spacing; SLPs may share a variable name, but
        one SLP, even over two blocks, may not give a variable two rules."""
        with pytest.raises(FormatError, match=where):
            parse_instance(text)
