"""Transfer: oracles, knapsack automata, skeletons, normalization."""

import itertools
import random

import pytest

from ggsolve.automata import EPS, Nfa
from ggsolve.errors import CertificateError, StructureError
from ggsolve.groups import doubled, invert_word
from ggsolve.traces import IndependenceAlphabet
from ggsolve.transfer import (
    FiniteGroupOracle,
    FreeGroupOracle,
    FreeProductOracle,
    GraphGroupOracle,
    KnapsackAutomaton,
    ZOracle,
    equation_chain,
    knapsack_to_ka,
    prepend_word,
    skeleton_equations,
    skeletons,
)
from ggsolve.transfer.kauto import _Builder, plain_alphabet

from helpers import random_element


class TestShapeCertificate:
    def test_single_loop(self):
        alpha = plain_alphabet(("a",))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        KnapsackAutomaton(nfa)  # ok

    def test_double_loop_rejected(self):
        alpha = plain_alphabet(("a", "b"))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p"), ("p", "b", "p")], "p", ["p"])
        with pytest.raises(CertificateError):
            KnapsackAutomaton(nfa)

    def test_chord_rejected(self):
        alpha = plain_alphabet(("a",))
        edges = [("p", "a", "q"), ("q", "a", "r"), ("r", "a", "p"), ("p", "a", "r")]
        nfa = Nfa(alpha, ["p", "q", "r"], edges, "p", ["p"])
        with pytest.raises(CertificateError):
            KnapsackAutomaton(nfa)

    def test_two_cycles_ok(self):
        alpha = plain_alphabet(("a", "b"))
        edges = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")]
        nfa = Nfa(alpha, ["p", "q"], edges, "p", ["q"])
        KnapsackAutomaton(nfa)


class TestChainConstruction:
    def test_single_base(self):
        ka, target = knapsack_to_ka(("a", "a'"), [("a",)], ("a", "a"))
        from ggsolve.automata import enumerate_accepted

        lang = enumerate_accepted(ka.nfa, 3)
        assert lang == {(), ("a",), ("a", "a"), ("a", "a", "a")}

    def test_two_bases(self):
        letters = ("a", "a'", "b", "b'", "c", "c'")
        ka, _ = knapsack_to_ka(letters, [("a", "b"), ("c",)], ())
        from ggsolve.automata import enumerate_accepted

        lang = enumerate_accepted(ka.nfa, 4)
        expected = set()
        for i in range(3):
            for j in range(5):
                w = ("a", "b") * i + ("c",) * j
                if len(w) <= 4:
                    expected.add(w)
        assert lang == expected

    def test_zero_bases(self):
        ka, target = knapsack_to_ka(("a", "a'"), [], ("a",))
        from ggsolve.automata import enumerate_accepted

        assert enumerate_accepted(ka.nfa, 2) == {()}

    def test_constants_between(self):
        letters = ("a", "a'", "b", "b'")
        nfa = equation_chain(letters, [("b",), ("b",), ()], [("a",), ("a",)])
        from ggsolve.automata import enumerate_accepted

        lang = enumerate_accepted(nfa, 4)
        assert ("b", "b") in lang
        assert ("b", "a", "b") in lang
        assert ("b", "a", "b", "a") in lang
        assert ("a", "b") not in lang


class TestSkeletons:
    def test_path_only(self):
        alpha = plain_alphabet(("a", "b"))
        nfa = Nfa(alpha, ["p", "q"], [("p", "a", "q")], "p", ["q"])
        ka = KnapsackAutomaton(nfa)
        assert skeletons(ka) == [((("a",),), ())]

    def test_single_cycle(self):
        alpha = plain_alphabet(("a",))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        ka = KnapsackAutomaton(nfa)
        got = skeletons(ka)
        assert got == [(((), ()), (("a",),))]

    def test_prepend_merged(self):
        alpha = plain_alphabet(("a", "a'"))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        ka = KnapsackAutomaton(nfa)
        got = skeletons(ka, prepend=("a'",))
        assert got == [((("a'",), ()), (("a",),))]

    def test_round_trip_with_brute(self):
        """knapsack -> ka -> skeletons: solvable iff brute-force solvable."""
        rng = random.Random(7)
        dbl = doubled(IndependenceAlphabet("ab"))
        oracle_alpha = dbl
        from ggsolve.solver import brute_oracle, knapsack_to_equation

        for _ in range(25):
            k = rng.randint(1, 2)
            bases = [
                tuple(rng.choice(dbl.letters) for _ in range(rng.randint(1, 2)))
                for _ in range(k)
            ]
            target = tuple(rng.choice(dbl.letters) for _ in range(rng.randint(0, 2)))
            e = knapsack_to_equation(dbl, bases, target)
            brute_solvable = bool(brute_oracle(e, 10))
            ka, tgt = knapsack_to_ka(dbl.letters, bases, target)
            solvable = False
            for eq in skeleton_equations(ka, invert_word(tgt), dbl):
                if brute_oracle(eq, 10):
                    solvable = True
                    break
            assert solvable == brute_solvable


def hnn_normalize(ka):
    """The epsilon-free normalization of ``ka``, run on a builder."""
    b = _Builder.from_nfa(ka.nfa)
    b.normalize(False)
    return KnapsackAutomaton(b.to_nfa())


class TestHnnNormalize:
    def test_initial_off_cycle(self):
        alpha = plain_alphabet(("a",))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        ka = hnn_normalize(KnapsackAutomaton(nfa))
        assert not ka.shape.on_cycle(ka.nfa.initial)
        for f in ka.nfa.finals:
            assert not ka.shape.on_cycle(f)

    def test_cycle_bridge_split(self):
        alpha = plain_alphabet(("a", "b"))
        edges = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")]
        nfa = Nfa(alpha, ["i", "p", "q", "f"], edges + [("i", "a", "p"), ("q", "a", "f")], "i", ["f"])
        ka = hnn_normalize(KnapsackAutomaton(nfa))
        shape = ka.shape
        for (p, a, q) in ka.nfa.transitions:
            if shape.on_cycle(p) and shape.on_cycle(q):
                assert shape.comp_of[p] == shape.comp_of[q]

    def test_language_preserved(self):
        from ggsolve.automata import enumerate_accepted

        alpha = plain_alphabet(("a", "b"))
        edges = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")]
        nfa = Nfa(alpha, ["p", "q"], edges, "p", ["q"])
        ka = KnapsackAutomaton(nfa)
        normalized = hnn_normalize(ka)
        assert enumerate_accepted(nfa, 5) == enumerate_accepted(normalized.nfa, 5)


class TestFiniteGroupOracle:
    def test_cyclic(self):
        z2 = FiniteGroupOracle.cyclic(2)
        assert z2.is_identity(("g", "g"))
        assert not z2.is_identity(("g",))
        assert z2.is_identity(("g", "g'"))

    def test_membership(self):
        z3 = FiniteGroupOracle.cyclic(3)
        ka, _ = knapsack_to_ka(z3.letters, [("g", "g")], ())
        # (gg)^x = g  solvable: x=2 gives g^4 = g
        assert z3.ka_membership(ka.nfa, ("g",))
        z2 = FiniteGroupOracle.cyclic(2)
        ka2, _ = knapsack_to_ka(z2.letters, [("g", "g")], ())
        assert not z2.ka_membership(ka2.nfa, ("g",))


class TestZOracle:
    def test_identity(self):
        z = ZOracle("a")
        assert z.is_identity(("a", "a'"))
        assert not z.is_identity(("a",))

    def test_membership(self):
        z = ZOracle("a")
        ka, _ = knapsack_to_ka(z.letters, [("a", "a")], ())
        assert z.ka_membership(ka.nfa, ("a", "a", "a", "a"))
        assert not z.ka_membership(ka.nfa, ("a",))
        assert not z.ka_membership(ka.nfa, ("a'",))

    def test_membership_with_negative_cycle(self):
        z = ZOracle("a")
        ka, _ = knapsack_to_ka(z.letters, [("a'",), ("a",)], ())
        assert z.ka_membership(ka.nfa, ("a'", "a'"))
        assert z.ka_membership(ka.nfa, ("a", "a", "a"))


class TestFreeGroupOracle:
    def test_identity(self):
        f = FreeGroupOracle(("a", "b"))
        assert f.is_identity(("a", "b", "b'", "a'"))
        assert not f.is_identity(("a", "b", "a'", "b'"))

    def test_membership(self):
        f = FreeGroupOracle(("a", "b"))
        ka, _ = knapsack_to_ka(f.letters, [("a",), ("b",)], ())
        assert f.ka_membership(ka.nfa, ("a", "a", "b"))
        assert not f.ka_membership(ka.nfa, ("b", "a"))


class TestGraphGroupOracle:
    def test_membership_commuting(self):
        dbl = doubled(IndependenceAlphabet("ab", [("a", "b")]))
        o = GraphGroupOracle(dbl)
        ka, _ = knapsack_to_ka(o.letters, [("a",), ("b",)], ())
        assert o.ka_membership(ka.nfa, ("b", "a"))
        assert o.ka_membership(ka.nfa, ("a", "b", "a"))  # = a^2 b

    def test_membership_free(self):
        dbl = doubled(IndependenceAlphabet("ab"))
        o = GraphGroupOracle(dbl)
        ka, _ = knapsack_to_ka(o.letters, [("a",), ("b",)], ())
        assert o.ka_membership(ka.nfa, ("a", "b"))
        assert not o.ka_membership(ka.nfa, ("a", "b", "a"))
        assert not o.ka_membership(ka.nfa, ("b", "a"))


class TestFreeProductOracle:
    def test_identity_syllables(self):
        z2 = FiniteGroupOracle.cyclic(2, "g")
        z3 = FiniteGroupOracle.cyclic(3, "h")
        fp = FreeProductOracle(z2, z3)
        assert fp.is_identity(("g", "h", "h", "h", "g"))
        assert not fp.is_identity(("g", "h", "g", "h"))
        assert fp.is_identity(())

    def test_mixed_word_not_identity(self):
        z2 = FiniteGroupOracle.cyclic(2, "g")
        z3 = FiniteGroupOracle.cyclic(3, "h")
        fp = FreeProductOracle(z2, z3)
        assert not fp.is_identity(("g", "h"))
