"""Block evaluation and folded power SLPs.

``evaluate`` merges neighbouring constants and neighbouring powers of equal
or mutually inverse bases before it streams letters; the differential test
draws exactly the shapes those merges act on and compares the outcome with
the item-by-item ``_evaluate_by_mult`` chain.  ``fold_power`` keeps a power
SLP as a ``ConjugatePower``; its length and value are compared with the
free reduction of the expanded SLP.  The letter-count tests pin the point
of both: exponents of 2^20 stream a handful of letters, not millions.
"""

from hypothesis import given, settings, strategies as st

from ggsolve.cli import main
from ggsolve.groups import ConjugatePower, DoubledAlphabet, SignedPile, free_reduce, invert_word
from ggsolve.slp import Slp, fold_power
from ggsolve.solver.equations import (
    Const,
    ExponentEquation,
    Power,
    _evaluate_by_mult,
    evaluate,
    verify,
)
from ggsolve.traces import IndependenceAlphabet

from helpers import compression_witness, const, equation, expand, from_word, power_slp, pw
from test_streaming import _outcome, alphabets, words


def reduced(alphabet, max_len, min_len=0):
    return st.lists(
        st.sampled_from(alphabet.letters), min_size=min_len, max_size=max_len
    ).map(lambda word: free_reduce(alphabet, word))


@st.composite
def merge_equations(draw):
    """Powers of w, w^-1, c w c^-1 and c w^-1 c^-1 between constants that cancel."""
    dbl = DoubledAlphabet(draw(alphabets(2, 5)))
    w = draw(reduced(dbl, 6, min_len=1))
    c = draw(reduced(dbl, 3))
    conjugates = {
        "w": w.word,
        "w'": invert_word(w.word),
        "cwc'": c.word + w.word + invert_word(c.word),
        "cw'c'": c.word + invert_word(w.word) + invert_word(c.word),
    }
    constants = {"c": c.word, "c'": invert_word(c.word), "_": ()}
    items = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("power", "power", "const", "folded")))
        if kind == "power":
            base = conjugates[draw(st.sampled_from(sorted(conjugates)))]
            items.append(Power(free_reduce(dbl, base), draw(st.sampled_from("xyz"))))
        elif kind == "const":
            if draw(st.booleans()):
                word = constants[draw(st.sampled_from(sorted(constants)))]
            else:
                word = draw(words(dbl, 4))
            items.append(Const(free_reduce(dbl, word)))
        else:  # a constant kept folded, as build_equation leaves a power SLP
            base = conjugates[draw(st.sampled_from(sorted(conjugates)))]
            slp = power_slp(from_word(base), draw(st.integers(0, 2**6)))
            items.append(Const(fold_power(slp, dbl)))
    e = ExponentEquation(dbl, items)
    # small exponents too, so that some powers pass the caps below 80
    exponents = st.one_of(st.integers(0, 8), st.integers(0, 2**10))
    sigma = {v: draw(exponents) for v in e.vars}
    cap = draw(st.one_of(st.integers(0, 80), st.just(10**6)))
    return e, sigma, cap


@settings(max_examples=300, deadline=None)
@given(merge_equations())
def test_block_merges_match_mult_chain(case):
    e, sigma, cap = case
    assert _outcome(evaluate, e, sigma, cap) == _outcome(_evaluate_by_mult, e, sigma, cap)


def _check_fold(slp, dbl):
    """A fold, when there is one, has the length and value of the reduced expansion."""
    folded = fold_power(slp, dbl)
    if folded is None:
        return None
    value = free_reduce(dbl, expand(slp))
    assert len(folded) == len(value)
    assert folded == value and folded.word == value.word
    return folded


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_power_slp_folds(data):
    dbl = DoubledAlphabet(data.draw(alphabets(1, 4)))
    word = data.draw(reduced(dbl, 6)).word
    k = data.draw(st.integers(0, 2**9))
    folded = _check_fold(power_slp(from_word(word), k), dbl)
    assert folded is not None
    assert isinstance(folded, ConjugatePower) == bool(word and k)


def test_compression_witness_folds():
    dbl = DoubledAlphabet(IndependenceAlphabet("ab"))
    for n in range(1, 12):
        folded = _check_fold(compression_witness(n, "b"), dbl)
        assert isinstance(folded, ConjugatePower) and len(folded) == 2**n


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_slps_fold_exactly_or_not_at_all(data):
    """Random SLPs: each rule mixes terminals and earlier variables at random."""
    dbl = DoubledAlphabet(data.draw(alphabets(1, 3)))
    rhs = {}
    for i in range(data.draw(st.integers(1, 5))):
        tokens = list(dbl.letters) + [f"V{j}" for j in range(i)]
        rhs[f"V{i}"] = data.draw(st.lists(st.sampled_from(tokens), max_size=3))
    _check_fold(Slp(rhs, f"V{len(rhs) - 1}"), dbl)


def test_unfoldable_slps():
    dbl = DoubledAlphabet(IndependenceAlphabet("ab"))
    mixed = Slp({"S": ("A", "b"), "A": ("a", "a")}, "S")
    different = Slp({"S": ("A", "B"), "A": ("a",), "B": ("b",)}, "S")
    # same w = a, different conjugators p
    conjugated = Slp({"S": ("A", "B"), "A": ("a",), "B": ("b", "a", "b'")}, "S")
    for slp in (mixed, different, conjugated):
        assert fold_power(slp, dbl) is None
    # the identity does not stop a fold
    assert _check_fold(Slp({"S": ("A", "E", "A"), "A": ("a",), "E": ("b", "b'")}, "S"), dbl)


def _counting_pushes(monkeypatch):
    """Count the letter codes pushed onto any ``SignedPile``."""
    pushed = [0]
    push = SignedPile.push

    def counting(pile, codes):
        codes = list(codes)
        pushed[0] += len(codes)
        push(pile, codes)

    monkeypatch.setattr(SignedPile, "push", counting)
    return pushed


def test_criterion_09_streams_few_letters(monkeypatch):
    """(a b a')^x a (b')^y a' = 1 with a I c: x = y = 2^20 merges to nothing."""
    dbl = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
    e = equation(dbl, pw(("a", "b", "a'"), "x"), const(("a",)), pw(("b'",), "y"), const(("a'",)))
    pushed = _counting_pushes(monkeypatch)
    assert verify(e, {"x": 2**20, "y": 2**20}, cap=2**22)
    assert not verify(e, {"x": 2**20, "y": 2**20 + 1}, cap=2**22)
    assert pushed[0] < 100


def test_equal_bases_merge(monkeypatch):
    """w^x w^y (w^-1)^z with x + y = z: the first two powers add up, then cancel."""
    dbl = DoubledAlphabet(IndependenceAlphabet("ab"))
    e = equation(dbl, pw("ab", "x"), pw("ab", "y"), pw(("b'", "a'"), "z"))
    pushed = _counting_pushes(monkeypatch)
    assert verify(e, {"x": 2**19, "y": 2**19, "z": 2**20}, cap=2**22)
    assert pushed[0] < 100


def _power_slp_lines(word, k):
    """Rules for val(K) = word^k by iterated squaring."""
    top = k.bit_length() - 1
    parts = " ".join(f"P{i}" for i in range(top, -1, -1) if k >> i & 1)
    rules = [f"rule P0 -> {' '.join(word)}"]
    rules += [f"rule P{i + 1} -> P{i} P{i}" for i in range(top)]
    return ["slp K", f"rule K -> {parts}"] + rules


def test_folded_constant_streams_few_letters(monkeypatch, tmp_path):
    """c w^x c^-1 c val(K) c^-1 = 1 with val(K) = (w^-1)^e: the verify-pow shape."""
    e = 2**20
    lines = ["gens a b c d", "indep a c", "indep b d"]
    lines += _power_slp_lines(("b'", "a'"), e)
    lines += ["eq", "const d", "pow a b x", "const d'", "const d", "constS K", "const d'"]
    path = tmp_path / "slp.gg"
    path.write_text("\n".join(lines) + "\n")
    pushed = _counting_pushes(monkeypatch)
    for x, code in ((e, 0), (e + 1, 1), (e - 1, 1)):
        assert main(["verify", "--cap", str(2**22), "--assign", f"x={x}", str(path)]) == code
    assert pushed[0] < 100


def test_folded_constant_keeps_the_expansion_cap(tmp_path):
    """val(K) longer than the cap is still exit 2, folded or not."""
    lines = ["gens a b"] + _power_slp_lines(("a", "b"), 2**20)
    lines += ["eq", "pow b' a' x", "constS K"]
    path = tmp_path / "slp.gg"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--cap", str(2**21 - 1), "--assign", f"x={2**20}", str(path)]) == 2
    assert main(["verify", "--cap", str(2**21), "--assign", f"x={2**20}", str(path)]) == 0

