"""Transfer: oracles, knapsack automata, skeletons, normalization."""

import random

import pytest

from ggsolve.automata import EPS, Nfa
from ggsolve.errors import AlphabetMismatchError, CertificateError, StructureError
from ggsolve.groups import DoubledAlphabet, invert_word
from ggsolve.traces import IndependenceAlphabet
from ggsolve.transfer import (
    FiniteGroupOracle,
    FreeGroupOracle,
    FreeProductOracle,
    GraphGroupOracle,
    ZOracle,
)
from ggsolve.transfer.kauto import (
    ShapeInfo,
    _Builder,
    equation_chain,
    plain_alphabet,
    skeleton_equations,
    skeletons,
)

from helpers import brute_oracle, enumerate_accepted, knapsack_chain
from transfer_oracles import TableGroupOracle


def certify(nfa):
    """The shape certificate of ``nfa``; raises CertificateError."""
    return ShapeInfo(nfa.states, nfa.transitions)


class TestShapeCertificate:
    def test_single_loop(self):
        alpha = plain_alphabet(("a",))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        certify(nfa)  # ok

    def test_double_loop_rejected(self):
        alpha = plain_alphabet(("a", "b"))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p"), ("p", "b", "p")], "p", ["p"])
        with pytest.raises(CertificateError):
            certify(nfa)

    def test_chord_rejected(self):
        alpha = plain_alphabet(("a",))
        edges = [("p", "a", "q"), ("q", "a", "r"), ("r", "a", "p"), ("p", "a", "r")]
        nfa = Nfa(alpha, ["p", "q", "r"], edges, "p", ["p"])
        with pytest.raises(CertificateError):
            certify(nfa)

    def test_two_cycles_ok(self):
        alpha = plain_alphabet(("a", "b"))
        edges = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")]
        nfa = Nfa(alpha, ["p", "q"], edges, "p", ["q"])
        certify(nfa)


class TestChainConstruction:
    def test_single_base(self):
        nfa = knapsack_chain(plain_alphabet(("a", "a'")), [("a",)])
        lang = enumerate_accepted(nfa, 3)
        assert lang == {(), ("a",), ("a", "a"), ("a", "a", "a")}

    def test_two_bases(self):
        letters = ("a", "a'", "b", "b'", "c", "c'")
        nfa = knapsack_chain(plain_alphabet(letters), [("a", "b"), ("c",)])
        lang = enumerate_accepted(nfa, 4)
        expected = set()
        for i in range(3):
            for j in range(5):
                w = ("a", "b") * i + ("c",) * j
                if len(w) <= 4:
                    expected.add(w)
        assert lang == expected

    def test_zero_bases(self):
        nfa = knapsack_chain(plain_alphabet(("a", "a'")), [])
        assert enumerate_accepted(nfa, 2) == {()}

    def test_constants_between(self):
        letters = ("a", "a'", "b", "b'")
        nfa = equation_chain(plain_alphabet(letters), [("b",), ("b",), ()], [("a",), ("a",)])
        lang = enumerate_accepted(nfa, 4)
        assert ("b", "b") in lang
        assert ("b", "a", "b") in lang
        assert ("b", "a", "b", "a") in lang
        assert ("a", "b") not in lang


class TestSkeletons:
    def test_path_only(self):
        alpha = plain_alphabet(("a", "b"))
        nfa = Nfa(alpha, ["p", "q"], [("p", "a", "q")], "p", ["q"])
        assert skeletons(nfa) == [((("a",),), ())]

    def test_single_cycle(self):
        alpha = plain_alphabet(("a",))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        got = skeletons(nfa)
        assert got == [(((), ()), (("a",),))]

    def test_prepend_merged(self):
        alpha = plain_alphabet(("a", "a'"))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        got = skeletons(nfa, prepend=("a'",))
        assert got == [((("a'",), ()), (("a",),))]

    def test_round_trip_with_brute(self):
        """knapsack -> ka -> skeletons: solvable iff brute-force solvable."""
        rng = random.Random(7)
        dbl = DoubledAlphabet(IndependenceAlphabet("ab"))
        oracle_alpha = dbl
        from ggsolve.solver import knapsack_to_equation

        for _ in range(25):
            k = rng.randint(1, 2)
            bases = [
                tuple(rng.choice(dbl.letters) for _ in range(rng.randint(1, 2)))
                for _ in range(k)
            ]
            target = tuple(rng.choice(dbl.letters) for _ in range(rng.randint(0, 2)))
            e = knapsack_to_equation(dbl, bases, target)
            brute_solvable = bool(brute_oracle(e, 10))
            solvable = False
            for eq in skeleton_equations(knapsack_chain(dbl, bases), invert_word(target), dbl):
                if brute_oracle(eq, 10):
                    solvable = True
                    break
            assert solvable == brute_solvable


def hnn_normalize(nfa):
    """The epsilon-free normalization of ``nfa``, run on a builder, and its shape."""
    b = _Builder.from_nfa(nfa)
    b.normalize(False)
    normal = b.to_nfa()
    return normal, certify(normal)


class TestHnnNormalize:
    def test_initial_off_cycle(self):
        alpha = plain_alphabet(("a",))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        normal, shape = hnn_normalize(nfa)
        assert not shape.on_cycle(normal.initial)
        for f in normal.finals:
            assert not shape.on_cycle(f)

    def test_cycle_bridge_split(self):
        alpha = plain_alphabet(("a", "b"))
        edges = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")]
        nfa = Nfa(alpha, ["i", "p", "q", "f"], edges + [("i", "a", "p"), ("q", "a", "f")], "i", ["f"])
        normal, shape = hnn_normalize(nfa)
        for (p, a, q) in normal.transitions:
            if shape.on_cycle(p) and shape.on_cycle(q):
                assert shape.comp_of[p] == shape.comp_of[q]

    def test_language_preserved(self):
        alpha = plain_alphabet(("a", "b"))
        edges = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")]
        nfa = Nfa(alpha, ["p", "q"], edges, "p", ["q"])
        normal, _ = hnn_normalize(nfa)
        assert enumerate_accepted(nfa, 5) == enumerate_accepted(normal, 5)


class TestFiniteGroupOracle:
    def test_cyclic(self):
        z2 = FiniteGroupOracle(2)
        assert z2.is_identity(("g", "g"))
        assert not z2.is_identity(("g",))
        assert z2.is_identity(("g", "g'"))

    def test_membership(self):
        z3 = FiniteGroupOracle(3)
        # (gg)^x = g  solvable: x=2 gives g^4 = g
        assert z3.ka_membership(knapsack_chain(z3.alphabet, [("g", "g")]), ("g",))
        z2 = FiniteGroupOracle(2)
        assert not z2.ka_membership(knapsack_chain(z2.alphabet, [("g", "g")]), ("g",))

    def test_order_zero_rejected(self):
        with pytest.raises(StructureError):
            FiniteGroupOracle(0)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_agrees_with_table_reference(self, n):
        """Residue arithmetic answers as the multiplication table does, on random
        automata over {g, g'} with epsilon edges and random targets."""
        rng = random.Random(n)
        zn, ref = FiniteGroupOracle(n), TableGroupOracle.cyclic(n)
        labels = ("g", "g'", EPS)
        for _ in range(60):
            states = list(range(rng.randint(1, 5)))
            edges = [
                (rng.choice(states), rng.choice(labels), rng.choice(states))
                for _ in range(rng.randint(0, 8))
            ]
            finals = rng.sample(states, rng.randint(0, len(states)))
            target = tuple(rng.choice(("g", "g'")) for _ in range(rng.randint(0, 6)))
            assert zn.ka_membership(Nfa(zn.alphabet, states, edges, 0, finals), target) == (
                ref.ka_membership(Nfa(ref.alphabet, states, edges, 0, finals), target)
            )
            assert zn.is_identity(target) == ref.is_identity(target)

    def test_foreign_alphabet_rejected(self):
        """Questions come on the oracle's alphabet; a builder's alphabet is refused."""
        z3 = FiniteGroupOracle(3)
        nfa = knapsack_chain(plain_alphabet(z3.letters + ("t", "t'")), [("g",)])
        with pytest.raises(AlphabetMismatchError):
            z3.ka_membership(nfa, ("g",))
        assert not getattr(z3, "_member_cache", None)

    def test_equal_plain_alphabet_rejected(self):
        """A plain alphabet equal to a free group's doubled one is still foreign."""
        f = FreeGroupOracle(("a",))
        plain = plain_alphabet(f.letters)
        assert plain == f.alphabet
        with pytest.raises(AlphabetMismatchError):
            f.ka_membership(knapsack_chain(plain, [("a",)]), ("a",))
        assert f.ka_membership(knapsack_chain(f.alphabet, [("a",)]), ("a",))


class TestZOracle:
    def test_identity(self):
        z = ZOracle("a")
        assert z.is_identity(("a", "a'"))
        assert not z.is_identity(("a",))

    def test_membership(self):
        z = ZOracle("a")
        nfa = knapsack_chain(z.alphabet, [("a", "a")])
        assert z.ka_membership(nfa, ("a", "a", "a", "a"))
        assert not z.ka_membership(nfa, ("a",))
        assert not z.ka_membership(nfa, ("a'",))

    def test_membership_with_negative_cycle(self):
        z = ZOracle("a")
        nfa = knapsack_chain(z.alphabet, [("a'",), ("a",)])
        assert z.ka_membership(nfa, ("a'", "a'"))
        assert z.ka_membership(nfa, ("a", "a", "a"))


class TestFreeGroupOracle:
    def test_identity(self):
        f = FreeGroupOracle(("a", "b"))
        assert f.is_identity(("a", "b", "b'", "a'"))
        assert not f.is_identity(("a", "b", "a'", "b'"))

    def test_membership(self):
        f = FreeGroupOracle(("a", "b"))
        nfa = knapsack_chain(f.alphabet, [("a",), ("b",)])
        assert f.ka_membership(nfa, ("a", "a", "b"))
        assert not f.ka_membership(nfa, ("b", "a"))


class TestGraphGroupOracle:
    def test_membership_commuting(self):
        dbl = DoubledAlphabet(IndependenceAlphabet("ab", [("a", "b")]))
        o = GraphGroupOracle(dbl, 15)
        nfa = knapsack_chain(o.alphabet, [("a",), ("b",)])
        assert o.ka_membership(nfa, ("b", "a"))
        assert o.ka_membership(nfa, ("a", "b", "a"))  # = a^2 b

    def test_membership_free(self):
        dbl = DoubledAlphabet(IndependenceAlphabet("ab"))
        o = GraphGroupOracle(dbl, 15)
        nfa = knapsack_chain(o.alphabet, [("a",), ("b",)])
        assert o.ka_membership(nfa, ("a", "b"))
        assert not o.ka_membership(nfa, ("a", "b", "a"))
        assert not o.ka_membership(nfa, ("b", "a"))


class TestFreeProductOracle:
    def test_identity_syllables(self):
        z2 = FiniteGroupOracle(2, "g")
        z3 = FiniteGroupOracle(3, "h")
        fp = FreeProductOracle(z2, z3)
        assert fp.is_identity(("g", "h", "h", "h", "g"))
        assert not fp.is_identity(("g", "h", "g", "h"))
        assert fp.is_identity(())

    def test_mixed_word_not_identity(self):
        z2 = FiniteGroupOracle(2, "g")
        z3 = FiniteGroupOracle(3, "h")
        fp = FreeProductOracle(z2, z3)
        assert not fp.is_identity(("g", "h"))
