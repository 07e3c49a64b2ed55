"""Automata: closure constructions, certificates, unary decomposition, Benois."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ggsolve.automata import (
    EPS,
    CodeNfa,
    Nfa,
    PowerClosure,
    Progression,
    benois_member,
    intersect,
    power_closure_nfa,
    prefix_nfa,
    reachable,
    star_nfa,
    trim,
    unary_progressions,
)
from ggsolve.errors import (
    AlphabetMismatchError,
    CertificateError,
    InternalError,
    StructureError,
    TraceError,
)
from ggsolve.groups import DoubledAlphabet, free_reduce
from ggsolve.semilinear import two_power_solutions
from ggsolve.traces import IndependenceAlphabet, Trace, is_connected

from helpers import (
    CodedNfa,
    DiamondNfa,
    all_alphabets,
    as_nfa,
    canonical_traces_up_to,
    concat_closure,
    enumerate_accepted,
    equivalence_class,
    memorized_masks,
    nfa_intersect,
    power,
    prefix_count,
    product_nfa,
    random_alphabet,
    random_word,
    reference_power_closure,
    reference_prefix_nfa,
    reference_star_nfa,
    reference_two_power_solutions,
)
from test_streaming import alphabets, words

AC = IndependenceAlphabet("abc", [("a", "c")])
AB_DEP = IndependenceAlphabet("ab")
AB_IND = IndependenceAlphabet("ab", [("a", "b")])
UNARY = IndependenceAlphabet("a")


def language(nfa, max_len):
    return enumerate_accepted(nfa, max_len)


class TestPrefixNfa:
    def test_dependent_pair(self):
        t = Trace(AB_DEP, "ab")
        nfa = prefix_nfa(t)
        assert nfa.num_states() == 3
        assert language(nfa, 4) == {("a", "b")}

    def test_independent_pair(self):
        t = Trace(AC, "ac")
        nfa = prefix_nfa(t)
        assert nfa.num_states() == 4
        assert language(nfa, 4) == {("a", "c"), ("c", "a")}

    def test_empty(self):
        t = Trace(AC, "")
        nfa = prefix_nfa(t)
        assert nfa.num_states() == 1
        assert language(nfa, 2) == {()}

    def test_accepts_exactly_linearizations(self):
        rng = random.Random(5)
        for _ in range(40):
            alphabet = random_alphabet(rng, 3)
            t = Trace(alphabet, random_word(rng, alphabet, 5))
            nfa = prefix_nfa(t)
            assert nfa.num_states() == prefix_count(t)
            assert language(nfa, len(t)) == equivalence_class(alphabet, t.word)
            as_nfa(nfa).validate_i_diamond()
            # a prefix (a position mask) memorizes the letters at its positions
            for state, letters in zip(nfa.keys, nfa.masks):
                positions = [k for k in range(len(t)) if state >> k & 1]
                assert letters == sum({1 << alphabet.rank(t.word[k]) for k in positions})


def star_language_oracle(u, max_len):
    """[u*]_I up to max_len, independently of the automaton construction."""
    out = set()
    k = 0
    while k * len(u) <= max_len or (len(u) == 0 and k == 0):
        out.update(equivalence_class(u.alphabet, power(u, k).word))
        k += 1
        if len(u) == 0:
            break
    return {w for w in out if len(w) <= max_len}


class TestStarNfa:
    def test_single_letter(self):
        u = Trace(AC, "a")
        nfa = star_nfa(u)
        assert nfa.num_states() == 2  # the empty tuple, before and after a copy
        assert language(nfa, 3) == {(), ("a",), ("a", "a"), ("a", "a", "a")}

    def test_dependent_word(self):
        u = Trace(AB_DEP, "ab")
        nfa = star_nfa(u)
        assert {len(s) for s in [nfa.keys]}  # smoke
        lang = language(nfa, 4)
        assert lang == {(), ("a", "b"), ("a", "b", "a", "b")}
        assert ("a",) not in lang and ("b", "a") not in lang

    def test_disconnected_rejected(self):
        with pytest.raises(TraceError):
            star_nfa(Trace(AB_IND, "ab"))

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            star_nfa(Trace(AC, ""))

    def test_memorizing_certificate(self):
        """A state (pieces, bit) memorizes the letters of its pieces, and all
        of u's once the bit is set."""
        for alphabet in all_alphabets(3):
            for u in canonical_traces_up_to(alphabet, 3):
                if u.is_empty() or not is_connected(u):
                    continue
                nfa = star_nfa(u)
                as_nfa(nfa).validate_i_diamond()
                bits = [1 << alphabet.rank(a) for a in u.word]
                for (pieces, done), letters in zip(nfa.keys, nfa.masks):
                    covered = [k for k in range(len(u)) if done or any(p >> k & 1 for p in pieces)]
                    assert letters == sum(set(bits[k] for k in covered)), (u, pieces, done)

    def test_language_exact_small(self):
        rng = random.Random(9)
        count = 0
        for alphabet in all_alphabets(3):
            for t in canonical_traces_up_to(alphabet, 3):
                if t.is_empty() or not is_connected(t):
                    continue
                count += 1
                nfa = star_nfa(t)
                max_len = min(3 * len(t), 7)
                assert language(nfa, max_len) == star_language_oracle(t, max_len), (
                    alphabet,
                    t,
                )
        assert count > 20

    def test_size_bound(self):
        for alphabet in all_alphabets(3):
            alpha_star = alphabet.max_independent_size()
            for t in canonical_traces_up_to(alphabet, 3):
                if t.is_empty() or not is_connected(t):
                    continue
                nfa = star_nfa(t)
                assert nfa.num_states() <= 2 * prefix_count(t) ** alpha_star


class TestAgainstTraceAlgebra:
    """The position-mask constructions against the trace-algebra reference
    (prefixes as traces, reached by products and checked by quotients).
    Both memorize, with the same memorized alphabets."""

    @staticmethod
    def shape(nfa):
        nfa = as_nfa(nfa)
        alphas = sorted(memorized_masks(nfa).values())
        return nfa.num_states(), len(nfa.transitions), len(nfa.finals), alphas

    def test_every_short_trace(self):
        prefixes = stars = 0
        for alphabet in all_alphabets(3):
            for t in canonical_traces_up_to(alphabet, 4):
                if t.is_empty():
                    continue
                pairs = [(prefix_nfa(t), reference_prefix_nfa(t))]
                if is_connected(t):
                    pairs.append((star_nfa(t), reference_star_nfa(t)))
                    stars += 1
                prefixes += 1
                for got, ref in pairs:
                    assert self.shape(got) == self.shape(ref), (alphabet, t)
                    assert language(got, 6) == language(ref, 6), (alphabet, t)
        assert (prefixes, stars) == (631, 519)


def closure_product_oracle(a1, a2, max_len):
    """[L(a1)L(a2)]_I up to max_len via the accepted languages themselves."""
    l1 = enumerate_accepted(a1, max_len)
    l2 = enumerate_accepted(a2, max_len)
    out = set()
    for w1 in l1:
        for w2 in l2:
            if len(w1) + len(w2) <= max_len:
                out.update(equivalence_class(a1.alphabet, w1 + w2))
    return out


class TestConcatClosure:
    def test_independent_singletons(self):
        a1 = prefix_nfa(Trace(AC, "a"))
        a2 = prefix_nfa(Trace(AC, "c"))
        closed = concat_closure(a1, a2)
        assert language(closed, 3) == {("a", "c"), ("c", "a")}

    def test_left_identity(self):
        a1 = prefix_nfa(Trace(AC, ""))
        a2 = star_nfa(Trace(AC, "b"))
        closed = concat_closure(a1, a2)
        assert language(closed, 3) == language(a2, 3)

    def test_state_count(self):
        a1 = prefix_nfa(Trace(AB_DEP, "a"))
        a2 = prefix_nfa(Trace(AB_DEP, "b"))
        assert a1.num_states() == 2 and a2.num_states() == 2
        assert concat_closure(a1, a2).num_states() == 4

    def test_requires_memorizing(self):
        """The right factor must memorize: state 1 reached by b and by c, or
        a state that nothing reaches, is refused."""
        a1 = prefix_nfa(Trace(AC, "a"))
        two_alphabets = DiamondNfa(AC, [0, 1], [(0, "b", 1), (0, "c", 1)], 0, [1])
        unreachable = DiamondNfa(AC, [0, 1, 2], [(0, "b", 1)], 0, [1])
        for a2 in (two_alphabets, unreachable):
            with pytest.raises(CertificateError):
                concat_closure(a1, a2)

    def test_closure_language_random(self):
        rng = random.Random(15)
        for _ in range(60):
            alphabet = random_alphabet(rng, 3)
            t1 = Trace(alphabet, random_word(rng, alphabet, 3))
            t2 = Trace(alphabet, random_word(rng, alphabet, 3))
            a1, a2 = prefix_nfa(t1), prefix_nfa(t2)
            closed = concat_closure(a1, a2)
            assert closed.num_states() == a1.num_states() * a2.num_states()
            closed.validate_i_diamond()
            assert language(closed, 6) == closure_product_oracle(a1, a2, 6)


class TestPowerClosure:
    def test_pure_star(self):
        nfa = power_closure_nfa(
            Trace(AC, ""), Trace(AC, "a"), Trace(AC, "")
        )
        assert language(nfa, 3) == {(), ("a",), ("a", "a"), ("a", "a", "a")}

    def test_prefixed(self):
        nfa = power_closure_nfa(
            Trace(AB_DEP, "b"), Trace(AB_DEP, "a"), Trace(AB_DEP, "")
        )
        expected = {("b",) + ("a",) * k for k in range(5)}
        assert language(nfa, 5) == expected

    def test_suffixed_word(self):
        nfa = power_closure_nfa(
            Trace(AB_DEP, ""), Trace(AB_DEP, "ab"), Trace(AB_DEP, "a")
        )
        expected = {("a",), ("a", "b", "a"), ("a", "b", "a", "b", "a")}
        assert language(nfa, 5) == expected

    def test_random_against_oracle(self):
        rng = random.Random(21)
        done = 0
        while done < 25:
            alphabet = random_alphabet(rng, 3)
            u = Trace(alphabet, random_word(rng, alphabet, 3))
            if u.is_empty() or not is_connected(u):
                continue
            p = Trace(alphabet, random_word(rng, alphabet, 2))
            s = Trace(alphabet, random_word(rng, alphabet, 2))
            done += 1
            nfa = power_closure_nfa(p, u, s)
            max_len = min(len(p) + len(s) + 2 * len(u), 7)
            oracle = set()
            k = 0
            while len(p) + len(s) + k * len(u) <= max_len:
                oracle.update(
                    equivalence_class(alphabet, (p * power(u, k) * s).word)
                )
                k += 1
            oracle = {w for w in oracle if len(w) <= max_len}
            assert language(nfa, max_len) == oracle


class TestGatedClosure:
    """The on-the-fly three-way gated product against the materialized ``concat_closure``."""

    def reference_power_closure(self, p, u, s):
        return concat_closure(concat_closure(prefix_nfa(p), star_nfa(u)), prefix_nfa(s))

    def test_two_powers_match_materialized(self):
        """Random [p u* s]_I and [q v* t]_I over 3-4-letter graphs: every state the
        lazy product reaches has the reference's moves, and the trimmed products
        have the same progressions and the same words up to length 6.  One case
        in three is p u^x s = p (u u)^y s and one in three p u^x s = p u u^y s,
        so that most cases have solutions."""
        rng = random.Random(12)
        done = 0
        while done < 45:
            alphabet = random_alphabet(rng, 4, letters="abcd")
            if len(alphabet.letters) < 3:
                continue
            u, v = (Trace(alphabet, random_word(rng, alphabet, 3)) for _ in range(2))
            if any(b.is_empty() or not is_connected(b) for b in (u, v)):
                continue
            p, s, q, t = (Trace(alphabet, random_word(rng, alphabet, 2)) for _ in range(4))
            if done % 3 == 1:
                q, v, t = p, u * u, s
            elif done % 3 == 2:
                q, v, t = p * u, u, s
            done += 1
            lazy = [power_closure_nfa(p, u, s), power_closure_nfa(q, v, t)]
            refs = [self.reference_power_closure(p, u, s), self.reference_power_closure(q, v, t)]
            got = trim(intersect(*lazy))
            want = trim(nfa_intersect(*refs))
            assert unary_progressions(got) == unary_progressions(want)
            assert language(product_nfa(got, *lazy), 6) == language(want, 6)
            for nfa, ref in zip(lazy, refs):
                nfa = as_nfa(nfa)
                assert nfa.finals == ref.finals
                for state in nfa.states:
                    assert nfa.out(state) == ref.out(state)

    def test_expands_fewer_states_than_pairs(self):
        """(abcd)^x ab = ab (cdab)^y with a I c and b I d: building the product
        expands only part of each closure's n1*n2*n3 states."""
        alphabet = IndependenceAlphabet("abcd", [("a", "c"), ("b", "d")])
        p, u, s = (Trace(alphabet, w) for w in ("", "abcd", "ab"))
        q, v, t = (Trace(alphabet, w) for w in ("ab", "cdab", ""))
        left, right = power_closure_nfa(p, u, s), power_closure_nfa(q, v, t)
        assert left.num_states() == right.num_states() == 0
        product = trim(intersect(left, right))
        assert unary_progressions(product) == {Progression(2, 4)}
        for nfa, (a, b, c) in ((left, (p, u, s)), (right, (q, v, t))):
            pairs = prefix_nfa(a).num_states() * star_nfa(b).num_states()
            assert 0 < nfa.num_states() < pairs * prefix_nfa(c).num_states()


class TestCertificates:
    """The code automata check their structure, memorization and diamond
    property where they are made, and the length set checks itself; each
    check raises, so it holds under ``python -O``."""

    def test_requires_memorizing(self):
        """State 1 reached by b and by c, or a state that nothing reaches, is refused."""
        with pytest.raises(CertificateError, match="distinct alphabets"):
            CodeNfa(AC, [0, 1], [{1: [1], 2: [1]}, {}], [1])
        with pytest.raises(CertificateError, match="reachable"):
            CodeNfa(AC, [0, 1, 2], [{1: [1]}, {}, {}], [1])

    def test_broken_diamond(self):
        """a then c with a I c, and no c then a: the diamond fails."""
        with pytest.raises(CertificateError, match="diamond fails"):
            CodeNfa(AC, ["", "a", "ac"], [{0: [1]}, {2: [2]}, {}], [2])
        CodeNfa(AC, ["", "a", "c", "ac"], [{0: [1], 2: [2]}, {2: [3]}, {0: [3]}, {}], [3])

    def test_structure(self):
        with pytest.raises(StructureError):
            CodeNfa(AC, [0, 1], [{3: [1]}, {}], [1])  # no letter has code 3
        with pytest.raises(StructureError):
            CodeNfa(AC, [0, 1], [{0: [2]}, {}], [1])  # no state 2
        with pytest.raises(StructureError):
            CodeNfa(AC, [0, 1], [{0: [1]}, {}], [2])
        with pytest.raises(StructureError):
            CodeNfa(AC, [], [], [])

    def test_mixed_alphabets(self):
        a, b = prefix_nfa(Trace(AC, "a")), prefix_nfa(Trace(AB_DEP, "a"))
        with pytest.raises(AlphabetMismatchError):
            PowerClosure(a, star_nfa(Trace(AC, "a")), b)
        with pytest.raises(AlphabetMismatchError):
            intersect(a, b)

    def test_progression_mismatch(self, monkeypatch):
        import ggsolve.automata as automata

        monkeypatch.setattr(automata, "_normalize_progressions", lambda progs: set())
        product = intersect(star_nfa(Trace(AB_DEP, "a")), prefix_nfa(Trace(AB_DEP, "")))
        with pytest.raises(InternalError, match="progression decomposition mismatch"):
            unary_progressions(product)


@st.composite
def two_power_cases(draw):
    """(p, u, s, q, v, t) over a 3-5-letter graph: connected bases of at most 5
    letters, affixes of at most 6; in one case in three q v* t is p u* s."""
    alphabet = draw(alphabets(3, 5))
    base = words(alphabet, 5).map(lambda w: Trace(alphabet, w))
    base = base.filter(lambda b: not b.is_empty() and is_connected(b))
    affix = words(alphabet, 6).map(lambda w: Trace(alphabet, w))
    p, u, s = draw(affix), draw(base), draw(affix)
    if draw(st.integers(0, 2)) == 0:
        return p, u, s, p, u, s
    return p, u, s, draw(affix), draw(base), draw(affix)


class TestAgainstLetterPipeline:
    """The code pipeline against the letter-name one it replaced (``tests/helpers.py``):
    materialized closures from the trace-algebra references, labelled
    intersection, trim and progressions of an Nfa."""

    @settings(max_examples=100, deadline=None)
    @given(two_power_cases())
    def test_two_power_solutions(self, case):
        assert two_power_solutions(*case) == reference_two_power_solutions(*case)

    @settings(max_examples=60, deadline=None)
    @given(two_power_cases())
    def test_closure_language(self, case):
        p, u, s = case[:3]
        got = language(power_closure_nfa(p, u, s), 7)
        assert got == language(reference_power_closure(p, u, s), 7)


def product_language(a, b, max_len):
    """The words ``intersect(a, b)`` accepts up to ``max_len``, its edges labelled
    from the factors."""
    return language(product_nfa(intersect(a, b), a, b), max_len)


class TestIntersect:
    def test_star_intersection(self):
        a = star_nfa(Trace(AB_DEP, "a"))
        aa = prefix_nfa(Trace(AB_DEP, "aa"))
        aa_star = concat_closure(
            prefix_nfa(Trace(AB_DEP, "")), star_nfa(Trace(AB_DEP, "aa"))
        )
        lang = product_language(a, CodedNfa(aa_star), 6)
        assert lang == {(), ("a",) * 2, ("a",) * 4, ("a",) * 6}

    def test_empty_intersection(self):
        a = prefix_nfa(Trace(AB_DEP, "a"))
        b = prefix_nfa(Trace(AB_DEP, "b"))
        assert product_language(a, b, 4) == set()

    def test_epsilon_membership(self):
        a = prefix_nfa(Trace(AB_DEP, ""))
        b = star_nfa(Trace(AB_DEP, "a"))
        assert product_language(a, b, 3) == {()}

    def test_state_count(self):
        """Only the pairs reachable from the initial pair are built: 2 of 2 * 3."""
        a = prefix_nfa(Trace(AB_DEP, "a"))
        b = prefix_nfa(Trace(AB_DEP, "ab"))
        assert intersect(a, b).num_states() == 2

    def test_random_products(self):
        """The product accepts exactly the words both inputs accept, and every
        product state is reachable from the initial pair."""
        rng = random.Random(23)

        def random_nfa():
            states = list(range(rng.randint(1, 4)))
            edges = [
                (rng.choice(states), rng.choice("ab"), rng.choice(states))
                for _ in range(rng.randint(0, 7))
            ]
            finals = rng.sample(states, rng.randint(0, len(states)))
            return Nfa(AB_DEP, states, edges, rng.choice(states), finals)

        for _ in range(200):
            a, b = random_nfa(), random_nfa()
            coded = CodedNfa(a), CodedNfa(b)
            prod = intersect(*coded)
            assert product_language(*coded, 5) == language(a, 5) & language(b, 5)
            adj = dict(enumerate(prod.succ))
            assert reachable([prod.initial], adj) == set(range(prod.num_states()))


class TestLengthAutomaton:
    """``unary_progressions`` reads the length set of any epsilon-free automaton."""

    def test_single_word(self):
        nfa = prefix_nfa(Trace(AB_DEP, "ab"))
        assert unary_progressions(as_nfa(nfa)) == {Progression(2, 0)}

    def test_even_lengths(self):
        star = star_nfa(Trace(AB_DEP, "ab"))
        assert unary_progressions(as_nfa(star)) == {Progression(0, 2)}

    def test_rejects_eps(self):
        dbl = DoubledAlphabet(IndependenceAlphabet("a"))
        eps_nfa = Nfa(dbl, ["p", "q"], [("p", EPS, "q")], "p", ["q"])
        with pytest.raises(StructureError):
            unary_progressions(eps_nfa)

    def test_empty_language(self):
        dbl = IndependenceAlphabet("ab")
        dead = Nfa(dbl, ["p", "q"], [("p", "a", "p")], "p", ["q"])
        assert unary_progressions(dead) == frozenset()

    def test_labels_ignored(self):
        """Random automata over two letters, parallel edges included, give the
        progressions of their one-letter relabelling and their enumerated lengths."""
        rng = random.Random(35)
        for _ in range(80):
            states = list(range(rng.randint(1, 4)))
            edges = [
                (rng.choice(states), rng.choice("ab"), rng.choice(states))
                for _ in range(rng.randint(0, 8))
            ]
            finals = rng.sample(states, rng.randint(0, len(states)))
            nfa = Nfa(AB_DEP, states, edges, 0, finals)
            relabelled = Nfa(UNARY, states, [(p, "a", q) for p, _, q in edges], 0, finals)
            progs = unary_progressions(nfa)
            assert progs == unary_progressions(relabelled)
            got = {n for n in range(9) if any(n in p for p in progs)}
            assert got == {len(w) for w in enumerate_accepted(nfa, 8)}


class TestUnaryProgressions:
    def test_odd(self):
        # a (aa)*
        star = concat_closure(
            prefix_nfa(Trace(AB_DEP, "a")), star_nfa(Trace(AB_DEP, "aa"))
        )
        assert unary_progressions(star) == {Progression(1, 2)}

    def test_singleton_zero(self):
        assert unary_progressions(as_nfa(prefix_nfa(Trace(AB_DEP, "")))) == {Progression(0, 0)}

    def test_union_two_periods(self):
        """(aa)* union (aaa)*: verified pointwise up to 24."""
        ab = AB_DEP
        two = as_nfa(star_nfa(Trace(ab, "aa")))
        three = as_nfa(star_nfa(Trace(ab, "aaa")))
        # plain union automaton over the unary letter
        states = (
            ["init"]
            + [("2", s) for s in two.states]
            + [("3", s) for s in three.states]
        )
        transitions = []
        for p, x, q in two.transitions:
            transitions.append((("2", p), "a", ("2", q)))
            if p == two.initial:
                transitions.append(("init", "a", ("2", q)))
        for p, x, q in three.transitions:
            transitions.append((("3", p), "a", ("3", q)))
            if p == three.initial:
                transitions.append(("init", "a", ("3", q)))
        finals = (
            ["init"]
            + [("2", f) for f in two.finals]
            + [("3", f) for f in three.finals]
        )
        union = Nfa(UNARY, states, transitions, "init", finals)
        progs = unary_progressions(union)
        expected = {n for n in range(25) if n % 2 == 0 or n % 3 == 0}
        got = {n for n in range(25) if any(n in p for p in progs)}
        assert got == expected

    def test_random_unary(self):
        rng = random.Random(33)
        for _ in range(80):
            n = rng.randint(1, 5)
            states = list(range(n))
            transitions = []
            for p in states:
                for q in states:
                    if rng.random() < 0.4:
                        transitions.append((p, "a", q))
            finals = [s for s in states if rng.random() < 0.4]
            nfa = Nfa(UNARY, states, transitions, 0, finals)
            progs = unary_progressions(nfa)
            for length in range(20):
                assert nfa.accepts(("a",) * length) == any(length in p for p in progs)


class TestBenois:
    FREE = DoubledAlphabet(IndependenceAlphabet("ab"))

    def word_nfa(self, word):
        states = list(range(len(word) + 1))
        transitions = [(i, word[i], i + 1) for i in range(len(word))]
        return Nfa(self.FREE, states, transitions, 0, [len(word)])

    def test_simple_pair(self):
        nfa = self.word_nfa(("a", "a'"))
        assert benois_member(nfa, ())

    def test_two_rounds(self):
        nfa = self.word_nfa(("a", "b", "b'", "a'"))
        assert benois_member(nfa, ())

    def test_negative(self):
        nfa = self.word_nfa(("a", "b"))
        assert not benois_member(nfa, ())
        assert benois_member(nfa, ("a", "b"))

    def test_rejects_independence(self):
        dbl = DoubledAlphabet(IndependenceAlphabet("ab", [("a", "b")]))
        nfa = Nfa(dbl, [0], [], 0, [0])
        with pytest.raises(StructureError):
            benois_member(nfa, ())

    def test_rejects_plain_alphabet(self):
        """The letters of a doubled alphabet without its inverse pairing are refused."""
        plain = IndependenceAlphabet(self.FREE.letters)
        assert plain == self.FREE
        with pytest.raises(StructureError):
            benois_member(Nfa(plain, [0], [], 0, [0]), ())

    def test_against_brute_force(self):
        """benois_member agrees with brute-force path search (length <= 10)."""
        rng = random.Random(77)

        for _ in range(40):
            n = rng.randint(1, 4)
            states = list(range(n))
            letters = self.FREE.letters
            transitions = []
            for _ in range(rng.randint(1, 6)):
                transitions.append(
                    (rng.randrange(n), rng.choice(letters), rng.randrange(n))
                )
            finals = [s for s in states if rng.random() < 0.5]
            nfa = Nfa(self.FREE, states, transitions, 0, finals)
            accepted = enumerate_accepted(nfa, 10)
            for target in [(), ("a",), ("a", "b'"), ("b", "b")]:
                red = free_reduce(self.FREE, target)
                brute = any(free_reduce(self.FREE, w) == red for w in accepted)
                got = benois_member(nfa, target)
                # brute force is depth-limited: it may miss witnesses, never invent them
                if brute:
                    assert got
                if not got:
                    assert not brute


class TestTrim:
    def test_language_preserved(self):
        rng = random.Random(99)
        for _ in range(40):
            alphabet = random_alphabet(rng, 3)
            t = Trace(alphabet, random_word(rng, alphabet, 4))
            nfa = power_closure_nfa(
                Trace(alphabet, ""),
                (
                    t
                    if not t.is_empty() and is_connected(t)
                    else Trace(alphabet, alphabet.letters[0])
                ),
                Trace(alphabet, ""),
            )
            trimmed = trim(as_nfa(nfa))
            assert len(trimmed.states) <= nfa.num_states()
            assert language(trimmed, 5) == language(nfa, 5)
