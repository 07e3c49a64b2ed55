"""Group-core: doubled alphabets, free reduction, boundary-cancellation products, powers."""

import random

import pytest

from ggsolve.errors import InternalError, ResourceExceeded
from ggsolve.groups import (
    ConjugatePower,
    DoubledAlphabet,
    cyclic_reduce,
    free_reduce,
    identity,
    invert_codes,
    invert_word,
    mult,
    power_nf,
)
from ggsolve.traces import IndependenceAlphabet, Trace, left_quotient, right_quotient

from helpers import iter_prefixes, random_element, random_group_word, slow_free_reduce

AC = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
FREE2 = DoubledAlphabet(IndependenceAlphabet("ab"))
ZLIKE = DoubledAlphabet(IndependenceAlphabet("a"))


class TestDoubledAlphabet:
    def test_lifted_independence(self):
        for x in ("a", "a'"):
            for y in ("c", "c'"):
                assert AC.independent(x, y)
        assert not AC.independent("a", "a'")
        assert not AC.independent("a", "b")

    def test_involution(self):
        for letter in AC.letters:
            assert invert_word([letter]) != (letter,)
            assert invert_word(invert_word([letter])) == (letter,)


class TestInvert:
    def test_word(self):
        assert invert_word(("a", "b")) == ("b'", "a'")

    def test_empty(self):
        assert invert_word(()) == ()

    def test_raw_word_unreduced(self):
        assert invert_word(("a", "a'")) == ("a", "a'")

    def test_element_two_sided_inverse(self):
        rng = random.Random(2)
        for _ in range(100):
            g = random_element(rng, AC, 5)
            prod, _ = mult(g, g.inverse())
            assert prod.is_identity()
            prod, _ = mult(g.inverse(), g)
            assert prod.is_identity()


class TestFreeReduce:
    def test_simple_cancel(self):
        assert free_reduce(AC, ("a", "a'")).word == ()

    def test_commute_then_cancel(self):
        # a c a' with a I c: commute a' past c, then cancel
        assert free_reduce(AC, ("a", "c", "a'")).word == ("c",)

    def test_dependent_blocked(self):
        assert free_reduce(AC, ("a", "b", "a'")).word == ("a", "b", "a'")

    def test_confluence_random_orders(self):
        rng = random.Random(13)
        for _ in range(150):
            word = random_group_word(rng, AC, 8)
            fast = free_reduce(AC, word)
            slow = slow_free_reduce(AC, word, rng)
            assert fast.trace == Trace(AC, slow)

    def test_irreducible_no_cancellable_pair(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_element(rng, AC, 8)
            w = g.word
            for i in range(len(w)):
                for j in range(i + 1, len(w)):
                    if w[j] == invert_word([w[i]])[0] and all(
                        AC.independent(w[k], w[i]) for k in range(i + 1, j)
                    ):
                        pytest.fail(f"cancellable pair in {w}")


class TestWordProblem:
    def test_commuting_generators(self):
        assert free_reduce(AC, ("a", "c", "a'", "c'")).is_identity()

    def test_free_commutator(self):
        assert not free_reduce(AC, ("a", "b", "a'", "b'")).is_identity()

    def test_empty(self):
        assert free_reduce(AC, ()).is_identity()


class TestMult:
    def test_full_cancel(self):
        g = free_reduce(AC, "a")
        h = free_reduce(AC, ("a'",))
        prod, p = mult(g, h)
        assert prod.is_identity()
        assert p.word == ("a",)

    def test_free_cancellation(self):
        g = free_reduce(FREE2, ("a", "b"))
        h = free_reduce(FREE2, ("b'", "a"))
        prod, p = mult(g, h)
        assert prod.word == ("a", "a")
        assert p.word == ("b",)

    def test_no_cancel(self):
        g = free_reduce(AC, "a")
        h = free_reduce(AC, "b")
        prod, p = mult(g, h)
        assert prod.word == ("a", "b")
        assert p.word == ()

    def test_cancelled_factorization_unique(self):
        """The returned (u,p,v) is the unique factorization with uv irreducible."""
        rng = random.Random(41)
        for _ in range(60):
            g = random_element(rng, AC, 4)
            h = random_element(rng, AC, 4)
            prod, p = mult(g, h)
            found = []
            # exhaustive search over suffix traces p of g
            for pref in iter_prefixes(g.trace):
                cand_p = left_quotient(g.trace, pref.codes)
                if cand_p is None:
                    continue
                v = left_quotient(h.trace, invert_codes(cand_p.codes))
                if v is None:
                    continue
                uv = free_reduce(AC, pref.word + v.word)
                if len(uv) == len(pref) + len(v):  # irreducible concatenation
                    found.append(cand_p)
            assert len(found) == 1
            assert found[0] == p
            assert prod.trace == (
                right_quotient(g.trace, p.codes)
                * left_quotient(h.trace, invert_codes(p.codes))
            )

    def test_associative(self):
        rng = random.Random(43)
        for _ in range(80):
            g = random_element(rng, AC, 4)
            h = random_element(rng, AC, 4)
            k = random_element(rng, AC, 4)
            left, _ = mult(mult(g, h)[0], k)
            right, _ = mult(g, mult(h, k)[0])
            assert left == right

    def test_identity_neutral(self):
        rng = random.Random(47)
        e = identity(AC)
        for _ in range(40):
            g = random_element(rng, AC, 4)
            assert mult(g, e)[0] == g
            assert mult(e, g)[0] == g


class TestCyclicReduce:
    def test_peel(self):
        g = free_reduce(AC, ("a", "b", "a'"))
        p, w = cyclic_reduce(g)
        assert p.word == ("a",)
        assert w.word == ("b",)

    def test_already_reduced(self):
        g = free_reduce(AC, "b")
        p, w = cyclic_reduce(g)
        assert p.is_identity()
        assert w.word == ("b",)

    def test_two_peels(self):
        g = free_reduce(AC, ("a", "a", "b", "a'", "a'"))
        p, w = cyclic_reduce(g)
        assert p.word == ("a", "a")
        assert w.word == ("b",)

    def test_length_identity_and_recompose(self):
        rng = random.Random(53)
        for _ in range(150):
            g = random_element(rng, AC, 6)
            p, w = cyclic_reduce(g)
            assert len(g) == len(w) + 2 * len(p)
            back, _ = mult(mult(p, w)[0], p.inverse())
            assert back == g
            # w admits no further peel
            p2, w2 = cyclic_reduce(w)
            assert p2.is_identity() and w2 == w


class TestPowerNf:
    def test_plain(self):
        g = free_reduce(AC, "a")
        assert power_nf(g, 3, 100).word == ("a", "a", "a")

    def test_conjugate(self):
        g = free_reduce(AC, ("a", "b", "a'"))
        assert power_nf(g, 2, 100).word == ("a", "b", "b", "a'")

    def test_zero(self):
        g = free_reduce(AC, "a")
        assert power_nf(g, 0, 100).is_identity()

    def test_cap(self):
        g = free_reduce(ZLIKE, "a")
        with pytest.raises(ResourceExceeded) as err:
            power_nf(g, 2**40, 10**6)
        assert err.value.required == 2**40

    def test_big_exponent_fast(self):
        g = free_reduce(ZLIKE, "a")
        h = power_nf(g, 2**20, 2**21)
        assert len(h) == 2**20

    def test_matches_iterated_mult(self):
        rng = random.Random(59)
        for _ in range(60):
            g = random_element(rng, AC, 4)
            acc = identity(AC)
            for k in range(9):
                assert power_nf(g, k, 10**6) == acc
                acc, _ = mult(acc, g)


class TestConjugatePower:
    def test_length_without_trace(self):
        g = free_reduce(AC, ("a", "b", "a'"))
        h = ConjugatePower(*cyclic_reduce(g), 2**40)
        assert len(h) == 2 + 2**40 and h.alphabet == AC and h._trace is None

    def test_trace_matches_power_nf(self):
        rng = random.Random(61)
        for _ in range(60):
            g = random_element(rng, AC, 6)
            if g.is_identity():
                continue
            k = rng.randint(1, 5)
            h = ConjugatePower(*cyclic_reduce(g), k)
            assert h == power_nf(g, k, 10**6) and len(h) == len(h.word)

    def test_reducible_form_raises(self):
        """(a, a') is no cyclic reduction: a a' a' cancels, which the trace build checks."""
        h = ConjugatePower(free_reduce(AC, "a"), free_reduce(AC, ("a'",)), 1)
        with pytest.raises(InternalError):
            h.trace
