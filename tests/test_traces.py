"""Trace-core: normal forms, prefix counting, connectivity, Levi grids."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsolve.errors import AlphabetMismatchError, UnknownLetterError
from ggsolve.traces import (
    IndependenceAlphabet,
    Trace,
    connected_components,
    empty_trace,
    is_connected,
    left_quotient,
    right_quotient,
)

from helpers import (
    all_alphabets,
    equivalence_class,
    independent_of,
    min_letters,
    power,
    prefix_count,
    random_alphabet,
    random_word,
    slow_normal_form,
)
from paper_lemmas import levi_decompose
from test_streaming import alphabets, words

AC = IndependenceAlphabet("abc", [("a", "c")])
FREE = IndependenceAlphabet("abc")
AB_INDEP = IndependenceAlphabet("ab", [("a", "b")])


class TestNormalForm:
    def test_single_commutation(self):
        assert Trace(AC, "ca").word == ("a", "c")

    def test_bca_example(self):
        # enumerate the class {bca, bac}, take the lexicographic minimum
        assert equivalence_class(AC, "bca") == {("b", "c", "a"), ("b", "a", "c")}
        assert Trace(AC, "bca").word == ("b", "a", "c")

    def test_already_canonical(self):
        assert Trace(AC, "abc").word == ("a", "b", "c")

    def test_unknown_letter_reports_position(self):
        with pytest.raises(UnknownLetterError) as err:
            Trace(AC, ("a", "z", "b"))
        assert err.value.position == 1

    def test_idempotent(self):
        t = Trace(AC, "cabca")
        assert Trace(AC, t.word).word == t.word

    def test_exhaustive_small(self):
        """Canonical word is equivalent to the input and minimal in its class."""
        for alphabet in all_alphabets(3):
            for word in itertools.product(alphabet.letters, repeat=4):
                got = Trace(alphabet, word).word
                assert got == slow_normal_form(alphabet, word)

    def test_random_length6(self):
        rng = random.Random(7)
        for _ in range(150):
            alphabet = random_alphabet(rng, 4, "abcd")
            word = random_word(rng, alphabet, 6)
            got = Trace(alphabet, word).word
            cls = equivalence_class(alphabet, word)
            assert got in cls
            assert got == slow_normal_form(alphabet, word)


class TestTraceEqual:
    def test_commuting(self):
        assert Trace(AC, "ac") == Trace(AC, "ca")

    def test_dependent(self):
        assert Trace(AC, "ab") != Trace(AC, "ba")

    def test_empty(self):
        assert empty_trace(AC) == Trace(AC, "")

    def test_alphabet_mismatch(self):
        # equal words over different alphabets are different traces, and
        # they do not multiply
        assert Trace(AC, "a") != Trace(FREE, "a")
        with pytest.raises(AlphabetMismatchError):
            Trace(AC, "a") * Trace(FREE, "a")


class TestPrefixCount:
    def test_empty(self):
        assert prefix_count(empty_trace(AC)) == 1

    def test_two_independent(self):
        assert prefix_count(Trace(AB_INDEP, "ab")) == 4

    def test_aabb(self):
        assert prefix_count(Trace(AB_INDEP, "aabb")) == 9

    def test_matches_enumeration(self):
        rng = random.Random(3)
        for _ in range(60):
            alphabet = random_alphabet(rng, 3)
            word = random_word(rng, alphabet, 5)
            t = Trace(alphabet, word)
            # independent oracle: distinct prefixes of any linearization
            prefixes = set()
            for w in equivalence_class(alphabet, t.word):
                for i in range(len(w) + 1):
                    prefixes.add(Trace(alphabet, w[:i]).word)
            assert prefix_count(t) == len(prefixes)

    def test_rho_bound(self):
        rng = random.Random(11)
        for _ in range(80):
            alphabet = random_alphabet(rng, 4, "abcd")
            word = random_word(rng, alphabet, 6)
            t = Trace(alphabet, word)
            alpha_star = alphabet.max_independent_size()
            assert prefix_count(t) <= (len(t) + 1) ** alpha_star


class TestConnectivity:
    def test_independent_pair(self):
        t = Trace(AC, "ac")
        comps = connected_components(t)
        assert [c.word for c in comps] == [("a",), ("c",)]
        assert not is_connected(t)

    def test_dependent_pair(self):
        t = Trace(AC, "ab")
        assert [c.word for c in connected_components(t)] == [("a", "b")]
        assert is_connected(t)

    def test_acac(self):
        t = Trace(AC, "acac")
        assert [c.word for c in connected_components(t)] == [("a", "a"), ("c", "c")]

    def test_empty_is_connected(self):
        assert is_connected(empty_trace(AC))
        assert connected_components(empty_trace(AC)) == []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mask_connectivity_matches_components(self, data):
        """``is_connected`` decides on the letter masks alone; on 2-6-letter graphs
        it agrees with the number of component traces, the empty trace included."""
        alphabet = data.draw(alphabets(2, 6))
        for t in (Trace(alphabet, data.draw(words(alphabet, 8))), empty_trace(alphabet)):
            assert is_connected(t) == (len(connected_components(t)) <= 1)

    def test_components_recompose(self):
        rng = random.Random(5)
        for _ in range(100):
            alphabet = random_alphabet(rng, 4, "abcd")
            t = Trace(alphabet, random_word(rng, alphabet, 6))
            comps = connected_components(t)
            for perm in itertools.permutations(comps):
                prod = empty_trace(alphabet)
                for c in perm:
                    prod = prod * c
                assert prod == t
            for c in comps:
                assert is_connected(c) and not c.is_empty()
            for c1, c2 in itertools.combinations(comps, 2):
                assert independent_of(c1, c2)


class TestQuotients:
    def test_left_right_roundtrip(self):
        rng = random.Random(17)
        for _ in range(200):
            alphabet = random_alphabet(rng, 3)
            p = Trace(alphabet, random_word(rng, alphabet, 3))
            s = Trace(alphabet, random_word(rng, alphabet, 3))
            t = p * s
            assert left_quotient(t, p.codes) == s
            assert right_quotient(t, s.codes) == p

    def test_non_prefix(self):
        assert left_quotient(Trace(AC, "ab"), Trace(AC, "b").codes) is None

    def test_min_letters(self):
        assert set(min_letters(Trace(AC, "cab"))) == {"c", "a"}


class TestLevi:
    def test_one_by_one(self):
        t = Trace(FREE, "ab")
        grid = levi_decompose([t], [t])
        assert grid is not None
        grid.validate()
        assert grid.cells[0][0] == t

    def test_free_alignment(self):
        us = [Trace(FREE, "a"), Trace(FREE, "bc")]
        vs = [Trace(FREE, "ab"), Trace(FREE, "c")]
        grid = levi_decompose(us, vs)
        assert grid is not None
        grid.validate()
        assert grid.cells[0][0].word == ("a",)
        assert grid.cells[1][0].word == ("b",)
        assert grid.cells[1][1].word == ("c",)
        assert grid.cells[0][1].word == ()

    def test_unequal_products(self):
        assert levi_decompose([Trace(FREE, "a")], [Trace(FREE, "b")]) is None

    def test_completeness_random(self):
        """Every pair of factorizations of the same trace yields a valid grid."""
        rng = random.Random(23)
        for _ in range(150):
            alphabet = random_alphabet(rng, 3)
            t = Trace(alphabet, random_word(rng, alphabet, 6))
            # random 3x3 factorizations by splitting a random linearization
            words = list(equivalence_class(alphabet, t.word))
            w1 = rng.choice(words)
            w2 = rng.choice(words)
            i1, j1 = sorted(rng.randint(0, len(w1)) for _ in range(2))
            i2, j2 = sorted(rng.randint(0, len(w2)) for _ in range(2))
            us = [
                Trace(alphabet, w1[:i1]),
                Trace(alphabet, w1[i1:j1]),
                Trace(alphabet, w1[j1:]),
            ]
            vs = [
                Trace(alphabet, w2[:i2]),
                Trace(alphabet, w2[i2:j2]),
                Trace(alphabet, w2[j2:]),
            ]
            grid = levi_decompose(us, vs)
            assert grid is not None
            grid.validate()


class TestCancellativity:
    def test_random(self):
        rng = random.Random(31)
        for _ in range(200):
            alphabet = random_alphabet(rng, 3)
            u = Trace(alphabet, random_word(rng, alphabet, 4))
            v = Trace(alphabet, random_word(rng, alphabet, 4))
            s = Trace(alphabet, random_word(rng, alphabet, 4))
            t = Trace(alphabet, random_word(rng, alphabet, 4))
            if (u * s) * v == (u * t) * v:
                assert s == t


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
)
def test_normal_form_sound_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    names = "abc"[:n]
    pairs = [
        p
        for p in itertools.combinations(names, 2)
        if data.draw(st.booleans(), label=f"indep{p}")
    ]
    alphabet = IndependenceAlphabet(names, pairs)
    word = data.draw(
        st.lists(st.sampled_from(list(names)), max_size=6).map(tuple), label="word"
    )
    got = Trace(alphabet, word).word
    assert got in equivalence_class(alphabet, word)
    assert got == slow_normal_form(alphabet, word)


def test_power_and_concat():
    t = Trace(AC, "ac")
    assert power(t, 3).word == ("a", "a", "a", "c", "c", "c")
