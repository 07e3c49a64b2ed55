"""HNN and free-product saturation vs. independent normal-form oracles."""

import random

import pytest

from ggsolve.automata import Nfa, benois_member
from ggsolve.errors import AlphabetMismatchError, InternalError, StructureError
from ggsolve.groups import DoubledAlphabet, invert_word
from ggsolve.traces import IndependenceAlphabet
from ggsolve.transfer import (
    FiniteGroupOracle,
    FreeGroupOracle,
    FreeProductOracle,
    HnnPresentation,
    ZOracle,
    free_product_saturate,
    hnn_knapsack,
    hnn_saturate,
)
from ggsolve.transfer.kauto import ShapeInfo, _Builder, plain_alphabet

from helpers import enumerate_accepted, knapsack_chain
from transfer_oracles import nfa_accepts_identity_bfs, z2z_reduce


def z2_z_presentation():
    """H = Z/2 * Z as the HNN-extension of Z/2 with trivial associated subgroups."""
    base = FiniteGroupOracle(2, "g")
    return HnnPresentation(base, [()], [()], [((), ())], stable="t")


class TestHnnPresentationValidation:
    def test_trivial(self):
        z2_z_presentation()

    def test_nontrivial_subgroups(self):
        # base Z/4, A = B = {1, g^2}, phi = identity
        base = FiniteGroupOracle(4, "g")
        HnnPresentation(
            base,
            [(), ("g", "g")],
            [(), ("g", "g")],
            [((), ()), (("g", "g"), ("g", "g"))],
        )

    def test_bad_phi_rejected(self):
        base = FiniteGroupOracle(4, "g")
        with pytest.raises(StructureError):
            HnnPresentation(
                base,
                [(), ("g", "g")],
                [(), ("g", "g")],
                [((), ("g", "g")), (("g", "g"), ())],  # does not fix 1
            )

    def test_not_closed_rejected(self):
        base = FiniteGroupOracle(4, "g")
        with pytest.raises(StructureError):
            HnnPresentation(base, [(), ("g",)], [(), ("g",)], [((), ()), (("g",), ("g",))])

    def test_against_residue_reference(self):
        """Over Z/1..Z/6, with 0-3 reps spelled as runs of g or g' (subgroups,
        shuffled, with an element repeated or replaced, or random) and phi pairs
        as a random permutation or drawn at random: a presentation is accepted
        exactly when each list spells a subgroup, each element once, and phi
        is an isomorphism between them; ``image`` is then phi and phi^-1."""
        rng = random.Random(24)
        seen = {True: 0, False: 0}
        for _ in range(2000):
            n = rng.randint(1, 6)
            base = FiniteGroupOracle(n, "g")
            order = rng.choice([k for k in (1, 2, 3) if n % k == 0])

            def residues():
                if rng.random() < 0.2:
                    return [rng.randrange(n) for _ in range(rng.randint(0, 3))]
                rs = [i * n // order for i in range(order)]
                rng.shuffle(rs)
                if rng.random() < 0.2:
                    rs[rng.randrange(order)] = rng.randrange(n)
                if rng.random() < 0.1:
                    rs.append(rng.choice(rs))
                return rs

            def spell(r):
                k = rng.randint(0, 1) * n
                return ("g",) * (r + k) if rng.random() < 0.5 else ("g'",) * ((n - r) % n + k)

            pos, neg = residues(), residues()
            if rng.random() < 0.7 and len(pos) == len(neg):
                keys = list(range(len(pos)))
                rng.shuffle(keys)
                pairs = [(pos[i], neg[j]) for i, j in enumerate(keys)]
            else:
                pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]

            def subgroup(rs):
                closed = all((a + b) % n in rs for a in rs for b in rs)
                return bool(rs) and len(set(rs)) == len(rs) and closed

            phi = dict(pairs)
            valid = (
                subgroup(pos)
                and subgroup(neg)
                and sorted(a for a, _ in pairs) == sorted(pos)
                and sorted(b for _, b in pairs) == sorted(neg)
                and all(phi[(a + b) % n] == (phi[a] + phi[b]) % n for a in phi for b in phi)
            )
            words = [spell(r) for r in pos], [spell(r) for r in neg]
            spelled = [(spell(a), spell(b)) for a, b in pairs]
            if not valid:
                with pytest.raises(StructureError):
                    HnnPresentation(base, *words, spelled)
            else:
                h = HnnPresentation(base, *words, spelled)
                inverse = {b: a for a, b in pairs}
                assert [base.eval_word(w) for w in h.image[1]] == [phi[a] for a in pos]
                assert [base.eval_word(w) for w in h.image[-1]] == [inverse[b] for b in neg]
            seen[valid] += 1
        assert min(seen.values()) >= 500, seen


def word_ka(letters, word):
    """Automaton accepting exactly one word."""
    alpha = plain_alphabet(letters)
    states = [f"w{i}" for i in range(len(word) + 1)]
    edges = [(states[i], word[i], states[i + 1]) for i in range(len(word))]
    return Nfa(alpha, states, edges, states[0], [states[-1]])


class TestHnnSaturate:
    def test_tt_inverse(self):
        h = z2_z_presentation()
        ka = word_ka(h.letters, ("t", "t'"))
        assert hnn_saturate(h, ka)

    def test_tgt_word(self):
        # t g t' g: in Z/2 * Z this is not 1
        h = z2_z_presentation()
        ka = word_ka(h.letters, ("t", "g", "t'", "g"))
        assert not hnn_saturate(h, ka)

    def test_shortcut_through_base(self):
        # t' g g t (gg = 1 in base): shortcut labeled phi(1) = 1
        h = z2_z_presentation()
        ka = word_ka(h.letters, ("t'", "g", "g", "t"))
        assert hnn_saturate(h, ka)

    def test_conjugation_identity(self):
        # Z/4 with A = B = {1, g^2}: t' g g t = g g, so t' g g t g g = g^4 = 1
        base = FiniteGroupOracle(4, "g")
        h = HnnPresentation(
            base,
            [(), ("g", "g")],
            [(), ("g", "g")],
            [((), ()), (("g", "g"), ("g", "g"))],
        )
        ka = word_ka(h.letters, ("t'", "g", "g", "t", "g", "g"))
        assert hnn_saturate(h, ka)
        ka2 = word_ka(h.letters, ("t'", "g", "g", "t", "g"))
        assert not hnn_saturate(h, ka2)

    def test_knapsack_z2z(self):
        h = z2_z_presentation()
        # (tg)^x = ... in Z/2 * Z: (tg)^2 = tgtg never 1; target (tg)^3
        assert hnn_knapsack(h, [("t", "g")], ("t", "g", "t", "g"))
        assert not hnn_knapsack(h, [("t", "g")], ("g",))
        assert hnn_knapsack(h, [("t", "g")], ())

    def test_against_bfs_oracle_random(self):
        """Random small knapsack automata over Z/2 * Z vs string-rewriting BFS."""
        rng = random.Random(31)
        h = z2_z_presentation()
        letters = h.letters
        checked = 0
        for _ in range(50):
            k = rng.randint(1, 2)
            bases = [
                tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
                for _ in range(k)
            ]
            target = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            nfa = knapsack_chain(plain_alphabet(letters), bases, invert_word(target))
            got = hnn_saturate(h, nfa)
            brute = nfa_accepts_identity_bfs(nfa, z2z_reduce, max_len=10)
            if brute:
                assert got, (bases, target)
            if not got:
                assert not brute, (bases, target)
            checked += 1
        assert checked == 50


class TestFreeProductSaturate:
    def test_f2_cross_check_small(self):
        """Z * Z = F2: free-product saturation agrees with Benois."""
        fp = FreeProductOracle(ZOracle("a"), ZOracle("b"))
        dbl = DoubledAlphabet(IndependenceAlphabet("ab"))
        rng = random.Random(77)
        letters = ("a", "a'", "b", "b'")
        for _ in range(20):
            k = rng.randint(1, 2)
            bases = [
                tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
                for _ in range(k)
            ]
            target = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            got = free_product_saturate(fp, knapsack_chain(fp.alphabet, bases), invert_word(target))
            # Benois on the same language: the automaton accepts w with w = target
            expected = benois_member(knapsack_chain(dbl, bases), target)
            assert got == expected, (bases, target)

    def test_single_factor_identity(self):
        z2 = FiniteGroupOracle(2, "g")
        z3 = FiniteGroupOracle(3, "h")
        fp = FreeProductOracle(z2, z3)
        assert free_product_saturate(fp, word_ka(fp.letters, ("g", "g")), ())

    def test_mixed_word_not_identity(self):
        z2 = FiniteGroupOracle(2, "g")
        z3 = FiniteGroupOracle(3, "h")
        fp = FreeProductOracle(z2, z3)
        assert not free_product_saturate(fp, word_ka(fp.letters, ("g", "h")), ())

    def test_nested_identity(self):
        z2 = FiniteGroupOracle(2, "g")
        z3 = FiniteGroupOracle(3, "h")
        # g h h h g = g * 1 * g = 1
        fp = FreeProductOracle(z2, z3)
        assert free_product_saturate(fp, word_ka(fp.letters, ("g", "h", "h", "h", "g")), ())

    def test_against_bfs_finite_factors(self):
        """Random automata over Z/2 * Z/3 vs the exact (state, element) BFS."""
        z2 = FiniteGroupOracle(2, "g")
        z3 = FiniteGroupOracle(3, "h")
        fp = FreeProductOracle(z2, z3)
        rng = random.Random(13)
        letters = fp.letters

        def reduce_fn(word):
            # canonical form via the syllable-folding oracle itself is costly;
            # use a simple rewriting: fold maximal blocks exactly
            out = []
            for a in word:
                out.append(a)
                while True:
                    # reduce the tail block if it evaluates to the factor identity
                    i = len(out)
                    f = fp.factor_of(out[-1])
                    j = i
                    while j > 0 and fp.factor_of(out[j - 1]) == f:
                        j -= 1
                    if fp.factor(f).is_identity(out[j:i]):
                        del out[j:i]
                        if not out:
                            break
                    else:
                        break
            return tuple(out)

        for _ in range(30):
            k = rng.randint(1, 2)
            bases = [
                tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
                for _ in range(k)
            ]
            target = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            nfa = knapsack_chain(fp.alphabet, bases)
            got = free_product_saturate(fp, nfa, invert_word(target))
            pre = knapsack_chain(fp.alphabet, bases, invert_word(target))
            brute = nfa_accepts_identity_bfs(pre, reduce_fn, max_len=10)
            if brute:
                assert got, (bases, target)
            if not got:
                assert not brute, (bases, target)


class TestFailClosed:
    @pytest.mark.parametrize("kind", ["hnn", "free-product"])
    def test_surgery_that_keeps_cycle_letters_raises(self, kind, monkeypatch):
        """Phase 1 checks that each surgery shrinks the cycles, also under ``python -O``."""
        from ggsolve.transfer.kauto import _Builder

        monkeypatch.setattr(_Builder, "surgery", lambda b, *args: None)
        if kind == "hnn":
            h = z2_z_presentation()
            nfa = knapsack_chain(plain_alphabet(h.letters), [("t'", "g", "g", "t")])
            run = lambda: hnn_saturate(h, nfa)
        else:
            z2 = FiniteGroupOracle(2, "g")
            z3 = FiniteGroupOracle(3, "h")
            fp = FreeProductOracle(z2, z3)
            run = lambda: free_product_saturate(fp, knapsack_chain(fp.alphabet, [("g", "g", "h")]), ())
        with pytest.raises(InternalError):
            run()


class TestStepwisePreservation:
    def test_phase1_surgery_preserves_membership(self):
        """Each phase-1 surgery step preserves membership answers (BFS oracle)."""
        from ggsolve.transfer.hnn import _find_cycle_reduction
        from ggsolve.transfer.kauto import _Builder

        h = z2_z_presentation()
        rng = random.Random(55)
        checked_steps = 0
        for _ in range(20):
            k = rng.randint(1, 2)
            bases = [
                tuple(rng.choice(h.letters) for _ in range(rng.randint(1, 3)))
                for _ in range(k)
            ]
            b = _Builder.from_nfa(knapsack_chain(plain_alphabet(h.letters), bases))
            b.normalize()
            while True:
                nfa = b.to_nfa()
                shape = b.shape()
                hit = _find_cycle_reduction(h, shape)
                if hit is None:
                    break
                before = nfa_accepts_identity_bfs(nfa, z2z_reduce, max_len=10)
                b.surgery(*hit)
                b.shape()  # shape certificate revalidates
                after_nfa = b.to_nfa()
                after = nfa_accepts_identity_bfs(after_nfa, z2z_reduce, max_len=10)
                assert before == after
                checked_steps += 1
        assert checked_steps >= 1


def _fields(nfa):
    return nfa.states, nfa.transitions, nfa.initial, nfa.finals


class TestRestrictionCut:
    def test_cut_is_trim_of_the_full_cut(self):
        """``cut`` equals ``trim`` of the cut over all builder states, also for
        states added after the restriction was taken, on the oracle's alphabet."""
        from ggsolve.automata import EPS, trim
        from ggsolve.transfer.kauto import _Builder

        rng = random.Random(61)
        letters = ("g", "g'", "h", "h'")
        oracle = FiniteGroupOracle(2, "g")
        kept = oracle.alphabet
        empty = 0
        for _ in range(200):
            b = _Builder(plain_alphabet(letters))
            states = [b.fresh() for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(0, 14)):
                b.edge(rng.choice(states), rng.choice(letters + (EPS,)), rng.choice(states))
            snapshot = [(p, a, q) for (p, a, q) in b.edges if a is EPS or a in kept]
            r = b.restrict(oracle.alphabet)
            for _ in range(rng.randint(0, 2)):  # as hnn phase 2 does
                b.path(rng.choice(states), [rng.choice(letters)], rng.choice(states), "c")
            for _ in range(3):
                initial = rng.choice(states)
                finals = rng.sample(states, rng.randint(0, len(states)))
                got = r.cut(initial, finals)
                want = trim(Nfa(kept, b.states, snapshot, initial, finals))
                assert _fields(got) == _fields(want)
                assert got.alphabet is kept
                empty += not got.finals
        assert empty >= 20


class TestReaches:
    @staticmethod
    def _oracles():
        """(oracle, associated-subgroup reps, knapsack shape only): Z/1..Z/6 with
        the subgroup of order 2 where there is one, F2, and Z, whose default
        ``reaches`` asks the skeleton solver and so needs the knapsack shape."""
        for n in range(1, 7):
            yield FiniteGroupOracle(n, "g"), [(), ("g",) * (n // 2)] if n % 2 == 0 else [()], False
        yield FreeGroupOracle(["a", "b"]), [(), ("a", "b", "b'", "a'")], False
        yield ZOracle("a"), [()], True

    @staticmethod
    def _builder(rng, letters, knapsack_shape):
        """Edges labelled epsilon, an oracle letter or ``t`` (outside every
        oracle), with cycles and self-loops; the states in creation order."""
        from ggsolve.automata import EPS

        letters += ("t",)
        if knapsack_shape:
            b = _Builder.from_nfa(random_knapsack_automaton(rng, letters))
        else:
            b = _Builder(plain_alphabet(letters))
            states = [b.fresh() for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(0, 3 * len(states))):
                b.edge(rng.choice(states), rng.choice(letters + (EPS, EPS)), rng.choice(states))
        return b, list(b.states)

    def test_agrees_with_the_cut_question(self):
        """For every (p, q), p == q included, and each target, ``reaches``
        answers as ``ka_membership`` of the cut from p to q; the finite
        oracles keep one search per source with the restriction, and the
        default keeps one cut per pair."""
        rng = random.Random(23)
        answers = {True: 0, False: 0}
        loops_spelling_targets = 0
        for oracle, reps, knapsack_shape in self._oracles():
            letters = tuple(oracle.letters)
            for _ in range(10 if knapsack_shape else 25):
                b, states = self._builder(rng, letters, knapsack_shape)
                r = b.restrict(oracle.alphabet)
                targets = reps + [
                    tuple(rng.choice(letters) for _ in range(rng.randint(1, 3))) for _ in range(3)
                ]
                for p in states:
                    for q in states:
                        for w in targets:
                            got = oracle.reaches(r, p, q, w)
                            assert got == oracle.ka_membership(r.cut(p, [q]), w), (p, q, w)
                            answers[got] += 1
                            loops_spelling_targets += got and p == q and bool(w)
                kept = len(states) if isinstance(oracle, FiniteGroupOracle) else len(states) ** 2
                assert len(r.memo) == kept
        assert min(answers.values()) >= 2000 and loops_spelling_targets >= 500

    def test_restriction_on_another_alphabet_is_refused(self):
        b = _Builder(plain_alphabet(("g", "g'", "h", "h'")))
        p = b.fresh()
        for oracle in (FiniteGroupOracle(2, "g"), FreeGroupOracle(["a"]), ZOracle("a")):
            with pytest.raises(AlphabetMismatchError):
                oracle.reaches(b.restrict(FiniteGroupOracle(2, "h").alphabet), p, p, ())


def _logged(fn, log):
    """``fn`` wrapped to append the arguments of every call to ``log``."""

    def call(*args):
        log.append(args)
        return fn(*args)

    return call


class TestOracleMemo:
    def test_one_read_per_question_and_no_trim(self, monkeypatch):
        """The memo is read once with the automaton as asked: a repeat is a hit,
        an untrimmed copy is a question of its own, and nothing is trimmed."""
        import ggsolve.automata as automata

        impls, trims = [], []
        trim = automata.trim
        monkeypatch.setattr(
            FiniteGroupOracle, "_member_impl", _logged(FiniteGroupOracle._member_impl, impls)
        )
        monkeypatch.setattr(automata, "trim", _logged(trim, trims))
        oracle = FiniteGroupOracle(4, "g")
        edges = [("a", "g", "b"), ("b", "g", "a"), ("a", "g'", "dead"), ("lost", "g", "a")]
        untrimmed = Nfa(oracle.alphabet, ["a", "b", "dead", "lost"], edges, "a", ["b"])
        trimmed = trim(untrimmed)
        assert trimmed.transitions != untrimmed.transitions
        trims.clear()
        for nfa in (trimmed, trimmed, untrimmed, untrimmed):
            assert oracle.ka_membership(nfa, ("g",))
        assert len(impls) == len(oracle._member_cache) == 2
        assert not trims


class TestTrimmedQuestions:
    @staticmethod
    def _asked(monkeypatch):
        """Every (oracle, automaton) that ``ka_membership`` is asked about."""
        from ggsolve.transfer.oracles import GroupOracle

        asked = []
        monkeypatch.setattr(GroupOracle, "ka_membership", _logged(GroupOracle.ka_membership, asked))
        return asked

    def _check(self, asked):
        from ggsolve.automata import trim

        assert asked
        for oracle, nfa, _ in asked:
            assert nfa.alphabet is oracle.alphabet
            assert _fields(trim(nfa)) == _fields(nfa)

    def test_saturations_ask_only_trimmed_automata(self, monkeypatch):
        """On the Z/4 amalgam every question is already trimmed and on the
        asking oracle's alphabet; ``ka_membership`` trims nothing."""
        import os

        import ggsolve.automata as automata
        from ggsolve.formats import build_amalgam, parse_instance
        from ggsolve.transfer import amalgam_knapsack

        trims, impls = [], []
        asked = self._asked(monkeypatch)
        monkeypatch.setattr(automata, "trim", _logged(automata.trim, trims))
        for cls in (FiniteGroupOracle, FreeProductOracle):
            monkeypatch.setattr(cls, "_member_impl", _logged(cls._member_impl, impls))
        path = os.path.join(os.path.dirname(__file__), "..", "corpus", "19_amalgam_z4.gg")
        with open(path) as fh:
            inst = parse_instance(fh.read())
        assert amalgam_knapsack(build_amalgam(inst, 15), inst.problem.items, inst.problem.target)
        assert not trims
        assert len(impls) < len(asked)
        self._check(asked)

    def test_random_instances(self, monkeypatch):
        """Random HNN, amalgam and finite-extension instances ask their oracles
        only about trimmed automata on the oracle's own alphabet."""
        from ggsolve.transfer import (
            AmalgamPresentation,
            FiniteExtension,
            amalgam_knapsack,
            finite_ext_reduce,
        )

        asked = self._asked(monkeypatch)
        rng = random.Random(97)

        def word(letters, lo, hi):
            return tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))

        for n in (1, 2, 3):
            # HNN of Z/2n with A = B = <g^n>, phi the identity
            base = FiniteGroupOracle(2 * n, "g")
            half = ("g",) * n
            h = HnnPresentation(base, [(), half], [(), half], [((), ()), (half, half)])
            letters = h.letters
            for _ in range(4):
                hnn_knapsack(h, [word(letters, 1, 3) for _ in range(2)], word(letters, 0, 3))
            # Z/2n *_{Z/2} Z/2n with g^n = h^n
            left = FiniteGroupOracle(2 * n, "g")
            right = FiniteGroupOracle(2 * n, "h")
            table = {("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z", ("z", "z"): "1"}
            am = AmalgamPresentation(
                left, right, ["1", "z"], table, "1",
                {"1": (), "z": ("g",) * n}, {"1": (), "z": ("h",) * n},
            )
            letters = am.letters
            for _ in range(2):
                amalgam_knapsack(am, [word(letters, 1, 2)], word(letters, 0, 3))
            # Z x| Z/2n and Z/2n x| Z/2n: s a s' = a', s^2n = 1 (cosets
            # 0..2n-1 of <a>); Z answers in closed form, Z/2n gets the chains
            m = 2 * n
            cosets = [str(i) for i in range(m)]
            flip = lambda i, w: w if i % 2 == 0 else invert_word(w)
            table = {}
            for i in range(m):
                table[(str(i), "a")] = (flip(i, ("a",)), str(i))
                table[(str(i), "a'")] = (flip(i, ("a'",)), str(i))
                table[(str(i), "s")] = ((), str((i + 1) % m))
                table[(str(i), "s'")] = ((), str((i - 1) % m))
            letters = ("a", "a'", "s", "s'")
            for base in (ZOracle("a"), FiniteGroupOracle(m, "a")):
                fe = FiniteExtension(base, ["a", "s"], cosets, "0", table)
                for _ in range(3):
                    us = [word(letters, 1, 2) for _ in range(2)]
                    vs = [word(letters, 0, 2) for _ in range(3)]
                    finite_ext_reduce(fe, vs, us)
        assert {type(oracle) for oracle, _, _ in asked} == {
            FiniteGroupOracle, FreeProductOracle
        }
        self._check(asked)


def random_knapsack_automaton(rng, letters):
    """Components in a row, each a state, a loop or a 2-3 state cycle, with
    edges (epsilon among the labels) only from earlier to later components."""
    from ggsolve.automata import EPS

    comps, edges = [], []
    for c in range(rng.randint(1, 5)):
        size = rng.choice((1, 1, 2, 3))
        comp = [f"c{c}_{i}" for i in range(size)]
        if size > 1 or rng.random() < 0.5:
            edges += [(s, rng.choice(letters), comp[(i + 1) % size]) for i, s in enumerate(comp)]
        comps.append(comp)
    states = [s for comp in comps for s in comp]
    for _ in range(rng.randint(len(comps) - 1, 2 * len(comps))):
        i, j = sorted(rng.sample(range(len(comps)), 2)) if len(comps) > 1 else (0, 0)
        if i != j:
            edges.append((rng.choice(comps[i]), rng.choice(letters + (EPS,)), rng.choice(comps[j])))
    finals = rng.sample(states, rng.randint(1, min(3, len(states))))
    return Nfa(plain_alphabet(letters), states, edges, rng.choice(comps[0]), finals)


class TestNormalize:
    def test_one_pass_fixes_every_violation(self, monkeypatch):
        """Normalization keeps the language and its invariants hold after at
        most two shapes: one pass fixes everything the first shape shows."""
        from ggsolve.automata import EPS
        from ggsolve.transfer.kauto import _Builder

        shapes = []
        shape = _Builder.shape
        monkeypatch.setattr(_Builder, "shape", lambda b: shapes.append(b) or shape(b))
        rng = random.Random(71)
        letters = ("g", "h")
        fixed = 0
        for _ in range(300):
            nfa = random_knapsack_automaton(rng, letters)
            b = _Builder.from_nfa(nfa)
            shapes.clear()
            got = b.normalize()
            assert len(shapes) <= 2
            fixed += len(shapes) == 2
            normal = b.to_nfa()
            assert enumerate_accepted(normal, 5) == enumerate_accepted(nfa, 5)
            ShapeInfo(normal.states, normal.transitions)
            assert not got.on_cycle(b.initial)
            assert not any(got.on_cycle(f) for f in b.finals)
            for (p, a, q) in b.edges:
                if got.on_cycle(q) and got.comp_of[p] != got.comp_of[q]:
                    assert not got.on_cycle(p)
                    assert a is EPS
        assert fixed >= 250


class TestPrepend:
    def test_reads_the_word_first(self):
        """The builder accepts exactly word·L, also where the initial state
        lies on a cycle or is final."""
        from ggsolve.transfer.kauto import _Builder

        rng = random.Random(5)
        letters = ("g", "h")
        on_cycle = final = 0
        for _ in range(200):
            nfa = random_knapsack_automaton(rng, letters)
            shape = ShapeInfo(nfa.states, nfa.transitions)
            on_cycle += shape.on_cycle(nfa.initial)
            final += nfa.initial in nfa.finals
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            b = _Builder.from_nfa(nfa)
            b.prepend(word)
            expected = {word + w for w in enumerate_accepted(nfa, 5 - len(word))}
            assert enumerate_accepted(b.to_nfa(), 5) == expected
        assert on_cycle >= 40 and final >= 40


STEP_ORDER_INSTANCE = """\
oracle L finite-cyclic 4 g
oracle R finite-cyclic 4 h
amalgam left L right R
felem 1 z
fid 1
ftable 1 1 -> 1
ftable 1 z -> z
ftable z 1 -> z
ftable z z -> 1
fmap 1 left _ right _
fmap z left g g right h h
item g'
item g' h
target g' g' h g' h
"""


class TestStepOrder:
    def test_oracle_questions_repeat_across_processes(self, tmp_path):
        """Three processes with one hash seed ask the same oracle questions in
        the same order (epsilon edges hash by address before Python 3.12)."""
        import os
        import subprocess
        import sys

        here = os.path.dirname(os.path.abspath(__file__))
        path = tmp_path / "amalgam.gg"
        path.write_text(STEP_ORDER_INSTANCE)
        env = dict(os.environ, PYTHONHASHSEED="0")
        src = os.path.join(here, "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        logs = []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, os.path.join(here, "steplog.py"), "amalgam", str(path)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            logs.append(proc.stdout)
        assert logs[0].endswith("exit=0\n") and logs[0].count("\n") > 100
        assert logs[1] == logs[0] and logs[2] == logs[0]
