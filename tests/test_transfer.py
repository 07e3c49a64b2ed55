"""Transfer: oracles, knapsack automata, skeletons, normalization."""

import contextlib
import io
import itertools
import os
import random

import pytest

from ggsolve.automata import EPS, Nfa
from ggsolve.errors import AlphabetMismatchError, CertificateError, LimitsExceeded, StructureError
from ggsolve.cli import main
from ggsolve.formats import KaProblem, build_extension, build_ka, build_oracle, parse_instance
from ggsolve.groups import DoubledAlphabet, free_reduce, invert_word
from ggsolve.solver import chain_equation
from ggsolve.traces import IndependenceAlphabet
from ggsolve.transfer import (
    FiniteGroupOracle,
    FreeProductOracle,
    GraphGroupOracle,
)
from ggsolve.transfer.kauto import (
    ShapeInfo,
    _Builder,
    equation_chain,
    plain_alphabet,
    skeletons,
)

from helpers import (
    brute_oracle,
    enumerate_accepted,
    folded_free_product_is_identity,
    graph_oracle,
    knapsack_chain,
)
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

    def test_oracles_put_the_target_into_v0(self):
        """The graph oracle answers nonempty targets on skeletons whose v0 is
        empty and whose initial state lies on a cycle, on the clique route
        (Z and Z^2) and the solver route (the path a - c, b apart)."""
        z = graph_oracle("a")
        loop = Nfa(z.alphabet, ["p"], [("p", "a", "p")], "p", ["p"])  # a*
        assert z.ka_membership(loop, ("a", "a"))
        assert z.ka_membership(loop, ("a", "a'", "a"))
        assert not z.ka_membership(loop, ("a'",))
        path = ("abc", [("a", "c")], "solver", (True, True, False, False))
        commuting = ("ab", [("a", "b")], "clique", (True, True, True, False))
        for letters, pairs, route, answers in (path, commuting):
            o = graph_oracle(letters, pairs)
            assert o.route == route
            edges = [("p", "a", "p"), ("p", "b", "q")]
            nfa = Nfa(o.alphabet, ["p", "q"], edges, "p", ["q"])  # a* b
            targets = (("a", "a", "b"), ("b",), ("b", "a"), ("a'", "b"))
            assert tuple(o.ka_membership(nfa, t) for t in targets) == answers

    def test_round_trip_with_brute(self):
        """knapsack -> ka -> skeletons: solvable iff brute-force solvable."""
        rng = random.Random(7)
        dbl = DoubledAlphabet(IndependenceAlphabet("ab"))
        for _ in range(25):
            k = rng.randint(1, 2)
            bases = [
                tuple(rng.choice(dbl.letters) for _ in range(rng.randint(1, 2)))
                for _ in range(k)
            ]
            target = tuple(rng.choice(dbl.letters) for _ in range(rng.randint(0, 2)))
            head = invert_word(target)
            e = chain_equation(dbl, [()] * len(bases) + [head], bases)
            brute_solvable = bool(brute_oracle(e, 10))
            solvable = any(
                brute_oracle(chain_equation(dbl, (head + vs[0],) + vs[1:], us), 10)
                for vs, us in skeletons(knapsack_chain(dbl, bases))
            )
            assert solvable == brute_solvable


def normalize(nfa):
    """The normalization of ``nfa``, run on a builder, and its shape."""
    b = _Builder.from_nfa(nfa)
    b.normalize()
    normal = b.to_nfa()
    return normal, certify(normal)


class TestHnnNormalize:
    def test_initial_off_cycle(self):
        alpha = plain_alphabet(("a",))
        nfa = Nfa(alpha, ["p"], [("p", "a", "p")], "p", ["p"])
        normal, shape = normalize(nfa)
        assert not shape.on_cycle(normal.initial)
        for f in normal.finals:
            assert not shape.on_cycle(f)

    def test_cycle_bridge_split(self):
        alpha = plain_alphabet(("a", "b"))
        edges = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")]
        nfa = Nfa(alpha, ["i", "p", "q", "f"], edges + [("i", "a", "p"), ("q", "a", "f")], "i", ["f"])
        normal, shape = normalize(nfa)
        for (p, a, q) in normal.transitions:
            if shape.on_cycle(p) and shape.on_cycle(q):
                assert shape.comp_of[p] == shape.comp_of[q]

    def test_language_preserved(self):
        alpha = plain_alphabet(("a", "b"))
        edges = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")]
        nfa = Nfa(alpha, ["p", "q"], edges, "p", ["q"])
        normal, _ = normalize(nfa)
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
        """A plain alphabet equal to a graph group's doubled one is still foreign."""
        f = graph_oracle("a")
        plain = plain_alphabet(f.letters)
        assert plain == f.alphabet
        with pytest.raises(AlphabetMismatchError):
            f.ka_membership(knapsack_chain(plain, [("a",)]), ("a",))
        assert f.ka_membership(knapsack_chain(f.alphabet, [("a",)]), ("a",))


class TestOneLetterGraph:
    """Z, as ``oracle G z a`` builds it: the clique route on one letter."""

    def test_identity(self):
        z = graph_oracle("a")
        assert z.is_identity(("a", "a'"))
        assert not z.is_identity(("a",))

    def test_membership(self):
        z = graph_oracle("a")
        nfa = knapsack_chain(z.alphabet, [("a", "a")])
        assert z.ka_membership(nfa, ("a", "a", "a", "a"))
        assert not z.ka_membership(nfa, ("a",))
        assert not z.ka_membership(nfa, ("a'",))

    def test_membership_with_negative_cycle(self):
        z = graph_oracle("a")
        nfa = knapsack_chain(z.alphabet, [("a'",), ("a",)])
        assert z.ka_membership(nfa, ("a'", "a'"))
        assert z.ka_membership(nfa, ("a", "a", "a"))


class TestEdgelessGraph:
    """F2, as ``oracle G free a b`` builds it: the Benois route."""

    def test_identity(self):
        f = graph_oracle("ab")
        assert f.is_identity(("a", "b", "b'", "a'"))
        assert not f.is_identity(("a", "b", "a'", "b'"))

    def test_membership(self):
        f = graph_oracle("ab")
        nfa = knapsack_chain(f.alphabet, [("a",), ("b",)])
        assert f.ka_membership(nfa, ("a", "a", "b"))
        assert not f.ka_membership(nfa, ("b", "a"))


@pytest.mark.parametrize(
    "oracle",
    [FiniteGroupOracle(3, "a"), graph_oracle("a"), graph_oracle("ab"),
     graph_oracle("abc", [("a", "c")])],
    ids=["finite-cyclic", "one-letter", "free", "graph"],
)
def test_letter_outside_the_alphabet_is_refused(oracle):
    with pytest.raises(StructureError, match="letter 'd' outside the oracle's alphabet"):
        oracle.is_identity(("a", "d"))


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


def _brute_knapsack(alphabet, vs, us, cap: int = 5) -> bool:
    """Some x in [0, cap]^n with v0 u1^x1 v1 ... un^xn vn = 1, by free reduction."""
    for xs in itertools.product(range(cap + 1), repeat=len(us)):
        word = vs[0] + sum((u * x + v for u, x, v in zip(us, xs, vs[1:])), ())
        if free_reduce(alphabet, word).is_identity():
            return True
    return False


def _base_oracle(kind_line: str, gens: str = ""):
    """The oracle ``G`` of a one-item hnn file whose oracle line is ``kind_line``."""
    text = f"{gens}oracle G {kind_line}\nhnn base G stable t\nassoc + _\nassoc - _\n"
    return build_oracle(parse_instance(text + "phi _ -> _\nitem t\ntarget t\n"), "G", 15)


class TestGraphRoutes:
    GRAPHS = [  # (letters, independent pairs, route)
        ("a", [], "clique"),
        ("ab", [("a", "b")], "clique"),
        ("abc", [("a", "b"), ("a", "c"), ("b", "c")], "clique"),
        ("ab", [], "free"),
        ("abc", [], "free"),
        ("abc", [("a", "c")], "solver"),
    ]

    def test_route_read_from_the_shape(self):
        for letters, pairs, route in self.GRAPHS:
            assert graph_oracle(letters, pairs).route == route
        assert _base_oracle("z b").route == "clique"
        assert _base_oracle("free a b").route == "free"
        assert _base_oracle("graph", "gens a b c\nindep a c\n").route == "solver"

    def test_routes_agree_with_the_solver_and_brute_force(self):
        """On complete and edgeless graphs of 1-3 letters, ``knapsack`` and
        ``ka_membership`` (the target as the chain's last constant, inverted)
        answer as the solver route does, forced on the same graph, wherever
        it answers, and as a search of [0,5]^n wherever that finds a solution."""
        rng = random.Random(26)
        tally = {"solvable": 0, "unsolvable": 0, "forced": 0}
        for letters, pairs, route in self.GRAPHS[:-1]:
            routed, forced = graph_oracle(letters, pairs), graph_oracle(letters, pairs)
            forced.route = "solver"
            word = lambda hi: tuple(rng.choice(routed.letters) for _ in range(rng.randint(0, hi)))
            for _ in range(40):
                n = rng.randint(0, 2)
                us = [word(2) or (routed.letters[0],) for _ in range(n)]
                vs = [word(2) for _ in range(n + 1)]
                if rng.random() < 0.5:  # close the word at x = (1, .., 1)
                    vs[-1] += invert_word(vs[0] + sum((u + v for u, v in zip(us, vs[1:])), ()))
                got = routed.knapsack(vs, us)
                chain = equation_chain(routed.alphabet, vs[:-1] + [()], us)
                assert routed.ka_membership(chain, invert_word(vs[-1])) == got, (route, vs, us)
                if _brute_knapsack(routed.alphabet, vs, us):
                    assert got, (route, vs, us)
                try:
                    assert forced.knapsack(vs, us) == got, (route, vs, us)
                    tally["forced"] += 1
                except LimitsExceeded:
                    pass
                tally["solvable" if got else "unsolvable"] += 1
        assert min(tally.values()) >= 40, tally

    def test_one_letter_kinds_agree(self):
        """``z a``, ``free a`` and ``graph`` over ``gens a`` build one oracle:
        the same route, and the same answer to every question."""
        oracles = [_base_oracle("z a"), _base_oracle("free a"), _base_oracle("graph", "gens a\n")]
        assert {(type(o), o.route, o.letters) for o in oracles} == {
            (GraphGroupOracle, "clique", ("a", "a'"))
        }
        rng = random.Random(1)
        word = lambda hi: tuple(rng.choice(("a", "a'")) for _ in range(rng.randint(0, hi)))
        for _ in range(60):
            n = rng.randint(0, 3)
            vs, us = [word(3) for _ in range(n + 1)], [word(3) for _ in range(n)]
            answers = {
                (o.is_identity(vs[0]), o.knapsack(vs, us),
                 o.ka_membership(equation_chain(o.alphabet, vs[:-1] + [()], us), vs[-1]))
                for o in oracles
            }
            assert len(answers) == 1, (vs, us)


CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


@pytest.mark.parametrize(
    "name,route",
    [("21_extension_p4.gg", "clique"), ("22_extension_free_swap.gg", "free"),
     ("23_ka_path.gg", "solver")],
)
def test_route_corpus_file_against_brute_force(name, route):
    """Each corpus file of one oracle route exits as a brute force says: a
    finite-extension instance read through its coset table and reduced
    freely in G, exponents in [0,5]^n; a ka block's accepted words up to 12
    letters against the target."""
    path = os.path.join(CORPUS, name)
    inst = parse_instance(open(path).read())
    p = inst.problem
    if isinstance(p, KaProblem):
        nfa, target = build_ka(inst)
        oracle = GraphGroupOracle(inst.require_alphabet(), 15)
        words = enumerate_accepted(nfa, 12)
        found = any(free_reduce(nfa.alphabet, w + invert_word(target)).is_identity() for w in words)
    else:
        fe, vs, us = build_extension(inst, 15)
        oracle = fe.g_oracle
        found = False
        for xs in itertools.product(range(6), repeat=len(us)):
            g_word, coset = [], p.one
            for letter in vs[0] + sum((u * x + v for u, x, v in zip(us, xs, vs[1:])), ()):
                piece, coset = p.table[coset, letter]
                g_word.extend(piece)
            found = found or coset == p.one and free_reduce(oracle.alphabet, g_word).is_identity()
    assert oracle.route == route
    assert found == (inst.expect_exit == 0)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([p.command, path]) == inst.expect_exit


def _trivial_piece(rng, factor):
    """A word of one factor that spells 1: u u^-1, or a generator to the order."""
    if isinstance(factor, FiniteGroupOracle) and rng.random() < 0.4:
        return [rng.choice(factor.letters)] * factor.n
    u = [rng.choice(factor.letters) for _ in range(rng.randint(1, 3))]
    return u + list(invert_word(u))


class TestFreeProductOracle:
    def test_one_stack_agrees_with_syllable_folding(self):
        """Over Z/n * Z/m and Z * Z/m, on words built by inserting pieces at
        random places: pieces that spell 1 (so the word does), then random
        pieces or one letter inverted."""
        rng = random.Random(24)
        seen = {True: 0, False: 0}
        for _ in range(2000):
            m = rng.randint(1, 5)
            left = graph_oracle("a") if rng.random() < 0.5 else FiniteGroupOracle(rng.randint(1, 5), "g")
            fp = FreeProductOracle(left, FiniteGroupOracle(m, "h"))
            word: list = []
            for _ in range(rng.randint(0, 5)):
                factor = rng.choice((fp.left, fp.right))
                if rng.random() < 0.2:
                    piece = [rng.choice(factor.letters) for _ in range(rng.randint(1, 3))]
                else:
                    piece = _trivial_piece(rng, factor)
                at = rng.randint(0, len(word))
                word[at:at] = piece
            if word and rng.random() < 0.2:
                at = rng.randrange(len(word))
                word[at] = invert_word([word[at]])[0]
            got = fp.is_identity(word)
            assert got == folded_free_product_is_identity(fp, word), word
            seen[got] += 1
        assert min(seen.values()) >= 500, seen

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
