"""Differential tests for the one-pass kernels.

The streamed ``evaluate`` is compared with the item-by-item ``power_nf`` /
``mult`` chain, and the piling trace quotients with the scanning ones kept
in ``helpers`` as the slow oracle.  Canonical forms and cyclic reduction,
which share the one pile, are compared with exhaustive enumeration and with
the peel-by-quotients reduction in ``helpers``.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ggsolve.errors import AlphabetMismatchError, ResourceExceeded
from ggsolve.groups import DoubledAlphabet, SignedPile, cyclic_reduce, free_reduce
from ggsolve.solver.equations import Const, ExponentEquation, Power, _evaluate_by_mult, evaluate
from ggsolve.traces import (
    IndependenceAlphabet,
    Trace,
    _canonical_word,
    left_quotient,
    right_quotient,
)

from helpers import (
    quotient_cyclic_reduce,
    scanning_left_quotient,
    scanning_right_quotient,
    slow_normal_form,
)


@st.composite
def alphabets(draw, min_letters, max_letters):
    n = draw(st.integers(min_letters, max_letters))
    names = tuple("abcdef"[:n])
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return IndependenceAlphabet(names, [pq for pq, keep in zip(pairs, chosen) if keep])


def words(alphabet, max_len):
    return st.lists(st.sampled_from(alphabet.letters), max_size=max_len).map(tuple)


@st.composite
def equations_with_assignments(draw):
    dbl = DoubledAlphabet(draw(alphabets(3, 6)))
    items = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            items.append(Const(free_reduce(dbl, draw(words(dbl, 8)))))
        else:
            base = free_reduce(dbl, draw(words(dbl, 12)))
            items.append(Power(base, draw(st.sampled_from("xy"))))
    e = ExponentEquation(dbl, items)
    sigma = {v: draw(st.integers(0, 2**10)) for v in e.vars}
    cap = draw(st.one_of(st.integers(0, 60), st.just(10**6)))
    return e, sigma, cap


def _outcome(fn, e, sigma, cap):
    try:
        return "value", fn(e, sigma, cap)
    except ResourceExceeded as exc:
        return "exceeded", (exc.required, exc.cap)


@settings(max_examples=150, deadline=None)
@given(equations_with_assignments())
def test_streamed_evaluate_matches_mult_chain(case):
    e, sigma, cap = case
    assert _outcome(evaluate, e, sigma, cap) == _outcome(_evaluate_by_mult, e, sigma, cap)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_signed_pile_pairs(data):
    dbl = DoubledAlphabet(data.draw(alphabets(3, 6)))
    word = data.draw(words(dbl, 30))
    pile = SignedPile(dbl, track_pairs=True)
    pile.push(dbl.encode(word))
    reduced = pile.element()
    assert reduced == free_reduce(dbl, word)
    assert pile.pushed == len(word) and pile.count == len(reduced)
    # no position is cancelled twice; each pair is a letter, then its inverse
    cancelled = [i for pair in pile.pairs for i in pair]
    assert len(set(cancelled)) == len(cancelled) == len(word) - len(reduced)
    for i, j in pile.pairs:
        assert i < j and dbl.rank(word[i]) == dbl.rank(word[j]) ^ 1


def test_signed_pile_needs_doubled_alphabet():
    # equal to the doubled alphabet of "a" as a set of letters, but without inverses
    with pytest.raises(AlphabetMismatchError):
        SignedPile(IndependenceAlphabet(("a", "a'")))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_piling_quotients_match_scanning(data):
    alphabet = data.draw(alphabets(1, 5))
    part = Trace(alphabet, data.draw(words(alphabet, 6)))
    if data.draw(st.booleans()):
        rest = Trace(alphabet, data.draw(words(alphabet, 10)))
        left, right = part * rest, rest * part
    else:
        left = right = Trace(alphabet, data.draw(words(alphabet, 12)))
    assert left_quotient(left, part.codes) == scanning_left_quotient(left, part)
    assert right_quotient(right, part.codes) == scanning_right_quotient(right, part)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_word_matches_enumeration(data):
    alphabet = data.draw(alphabets(1, 5))
    if data.draw(st.booleans()):
        alphabet = DoubledAlphabet(alphabet)
    word = data.draw(words(alphabet, 8))
    assert alphabet.decode(_canonical_word(alphabet, alphabet.encode(word))) == slow_normal_form(
        alphabet, word
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cyclic_reduce_matches_quotient_peeling(data):
    dbl = DoubledAlphabet(data.draw(alphabets(1, 5)))
    g = free_reduce(dbl, data.draw(words(dbl, 16)))
    assert cyclic_reduce(g) == quotient_cyclic_reduce(g)
