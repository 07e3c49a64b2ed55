"""The trace and group kernels on letter codes, against slow oracles on letter names.

The kernels take and return codes; names appear only when a word is
encoded or decoded.  Each test draws a doubled alphabet of 3 to 6 base
letters and compares a kernel with the oracle in ``helpers`` that works on
names: exhaustive enumeration for canonical forms, random-order
cancellation for free reduction, peeling by quotients for cyclic reduction,
scanning for quotients.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ggsolve.errors import UnknownLetterError
from ggsolve.groups import (
    DoubledAlphabet,
    _reduce_tagged,
    cyclic_reduce,
    free_reduce,
    inverse_letter,
    invert_codes,
    invert_word,
    mult,
)
from ggsolve.traces import (
    IndependenceAlphabet,
    Pile,
    Trace,
    _canonical_word,
    left_quotient,
    right_quotient,
)

from helpers import (
    equivalence_class,
    quotient_cyclic_reduce,
    scanning_left_quotient,
    scanning_right_quotient,
    slow_free_reduce,
    slow_normal_form,
)


@st.composite
def doubled_alphabets(draw):
    n = draw(st.integers(3, 6))
    names = tuple("abcdef"[:n])
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    independence = [pq for pq, keep in zip(pairs, chosen) if keep]
    return DoubledAlphabet(IndependenceAlphabet(names, independence))


def words(alphabet, max_len):
    return st.lists(st.sampled_from(alphabet.letters), max_size=max_len).map(tuple)


class TestCodeKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_encode_decode_round_trip(self, data):
        dbl = data.draw(doubled_alphabets())
        word = data.draw(words(dbl, 20))
        codes = dbl.encode(word)
        assert dbl.decode(codes) == word
        assert dbl.encode(dbl.decode(codes)) == codes
        assert dbl.decode([c ^ 1 for c in codes]) == tuple(map(inverse_letter, word))
        assert dbl.decode(invert_codes(codes)) == invert_word(word)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_canonical_word_matches_enumeration(self, data):
        dbl = data.draw(doubled_alphabets())
        word = data.draw(words(dbl, 7))
        canonical = _canonical_word(dbl, dbl.encode(word))
        assert dbl.decode(canonical) == slow_normal_form(dbl, word)
        assert Trace(dbl, word).codes == canonical

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_free_reduce_matches_random_cancellation(self, data):
        dbl = data.draw(doubled_alphabets())
        word = data.draw(words(dbl, 16))
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        assert free_reduce(dbl, word).trace == Trace(dbl, slow_free_reduce(dbl, word, rng))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cyclic_reduce_matches_quotient_peeling(self, data):
        dbl = data.draw(doubled_alphabets())
        g = free_reduce(dbl, data.draw(words(dbl, 16)))
        assert cyclic_reduce(g) == quotient_cyclic_reduce(g)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mult_matches_reduced_concatenation(self, data):
        dbl = data.draw(doubled_alphabets())
        g = free_reduce(dbl, data.draw(words(dbl, 14)))
        h = free_reduce(dbl, data.draw(words(dbl, 14)))
        product, p = mult(g, h)
        assert product == free_reduce(dbl, g.word + h.word)
        assert len(product) == len(g) + len(h) - 2 * len(p)
        assert right_quotient(g.trace, p.codes) is not None
        assert left_quotient(h.trace, invert_codes(p.codes)) is not None

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stack_is_concatenation(self, data):
        """g/p stacked on p^-1\\h depiles to the canonical word of the two quotients."""
        dbl = data.draw(doubled_alphabets())
        g = free_reduce(dbl, data.draw(words(dbl, 14)))
        h = free_reduce(dbl, data.draw(words(dbl, 14)))
        _, pairs = _reduce_tagged(dbl, g.codes + h.codes)
        cancelled = [g.codes[i] for i in sorted(i for i, _ in pairs)]
        u, v = Pile(dbl), Pile(dbl)
        u.push(g.codes)
        assert u.pop_top(cancelled)
        v.push(h.codes)
        assert v.pop_bottom(invert_codes(cancelled))
        u.stack(v)
        left = right_quotient(g.trace, cancelled)
        right = left_quotient(h.trace, invert_codes(cancelled))
        assert u.depile() == _canonical_word(dbl, left.codes + right.codes)
        _, p = mult(g, h)
        assert p._codes is None  # canonicalized only when read
        assert p.codes == _canonical_word(dbl, cancelled)
        assert p == Trace(dbl, dbl.decode(cancelled))
        # with no pops, on the base alphabet: the pile of the concatenated words
        plain = dbl.base
        s, t = data.draw(words(plain, 12)), data.draw(words(plain, 12))
        bottom, top = Pile(plain), Pile(plain)
        bottom.push(plain.encode(s))
        top.push(plain.encode(t))
        bottom.stack(top)
        assert bottom.depile() == Trace(plain, s + t).codes

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_unknown_letter_names_its_position(self, data):
        dbl = data.draw(doubled_alphabets())
        word = list(data.draw(words(dbl, 10)))
        pos = data.draw(st.integers(0, len(word)))
        word.insert(pos, "z")
        for build in (dbl.encode, lambda w: Trace(dbl, w), lambda w: free_reduce(dbl, w)):
            with pytest.raises(UnknownLetterError) as err:
                build(tuple(word))
            assert err.value.position == pos

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_quotients_take_any_linearization(self, data):
        """Every linearization of the divisor gives the scanning quotient, None included."""
        dbl = data.draw(doubled_alphabets())
        part = Trace(dbl, data.draw(words(dbl, 5)))
        if data.draw(st.booleans()):
            rest = Trace(dbl, data.draw(words(dbl, 8)))
            left, right = part * rest, rest * part
        else:  # mostly not a prefix or suffix
            left = right = Trace(dbl, data.draw(words(dbl, 10)))
        want_left = scanning_left_quotient(left, part)
        want_right = scanning_right_quotient(right, part)
        for linearization in equivalence_class(dbl, part.word):
            codes = dbl.encode(linearization)
            assert left_quotient(left, codes) == want_left
            assert right_quotient(right, codes) == want_right

    def test_quotients_refuse_non_divisors(self):
        dbl = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
        t = Trace(dbl, ("c", "a", "b"))  # also a c b: a and c commute
        for divisor in (("b",), ("a", "b"), ("a'",), ("c", "c")):
            assert left_quotient(t, dbl.encode(divisor)) is None
        for divisor in (("a",), ("c",), ("b'",), ("b", "b")):
            assert right_quotient(t, dbl.encode(divisor)) is None
        for divisor in (("a", "c"), ("c", "a")):
            assert left_quotient(t, dbl.encode(divisor)) == Trace(dbl, ("b",))
        assert left_quotient(t, dbl.encode(("c",))) == Trace(dbl, ("a", "b"))
        assert right_quotient(t, dbl.encode(("a", "b"))) == Trace(dbl, ("c",))
