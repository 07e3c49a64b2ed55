"""Finite-extension reduction on the infinite dihedral group vs direct arithmetic,
and the orbit walk against the product-and-filter reduction it replaced."""

import contextlib
import io
import itertools
import math
import os
import random

import pytest

from ggsolve.cli import main
from ggsolve.errors import FormatError, StructureError
from ggsolve.formats import build_extension, parse_instance
from ggsolve.groups import DoubledAlphabet, free_reduce, inverse_letter, invert_word, letter_balance
from ggsolve.traces import IndependenceAlphabet
from ggsolve.transfer import (
    FiniteExtension,
    FiniteGroupOracle,
    FreeProductOracle,
    GraphGroupOracle,
    finite_ext_reduce,
)
from ggsolve.transfer.kauto import equation_chain

from helpers import coset_of, graph_oracle, is_identity_in_h, product_finite_ext_reduce
from steplog import record
from transfer_oracles import dinf_brute_solvable

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def dinf_extension():
    """D-inf = <a, t | t^2 = 1, t a t = a^-1> over G = <a> = Z, C = {1, t}."""
    z = graph_oracle("a")
    table = {
        ("1", "a"): (("a",), "1"),
        ("1", "a'"): (("a'",), "1"),
        ("1", "t"): ((), "t"),
        ("1", "t'"): ((), "t"),
        ("t", "a"): (("a'",), "t"),
        ("t", "a'"): (("a",), "t"),
        ("t", "t"): ((), "1"),
        ("t", "t'"): ((), "1"),
    }
    return FiniteExtension(z, ("a", "t"), ("1", "t"), "1", table), z


class TestTable:
    def test_validates(self):
        dinf_extension()

    def test_inconsistent_rejected(self):
        z = graph_oracle("a")
        table = {
            ("1", "a"): (("a",), "1"),
            ("1", "a'"): (("a", "a"), "1"),  # wrong inverse rewrite
            ("1", "t"): ((), "t"),
            ("1", "t'"): ((), "t"),
            ("t", "a"): (("a'",), "t"),
            ("t", "a'"): (("a",), "t"),
            ("t", "t"): ((), "1"),
            ("t", "t'"): ((), "1"),
        }
        with pytest.raises(StructureError):
            FiniteExtension(z, ("a", "t"), ("1", "t"), "1", table)

    def test_coset_tracking(self):
        fe, _ = dinf_extension()
        assert coset_of(fe, ("t", "a", "t")) == "1"
        assert coset_of(fe, ("t", "a")) == "t"
        assert is_identity_in_h(fe, ("t", "a", "t", "a"))
        assert not is_identity_in_h(fe, ("t", "a", "t", "a'"))


class TestDinfInstances:
    def test_ta_power_even(self):
        fe, _ = dinf_extension()
        # (ta)^x = 1: solvable with x even (x = 0 included)
        assert finite_ext_reduce(fe, [(), ()], [("t", "a")])
        # (ta)^x = ta: solvable with x = 1 (small-exponent branch)
        assert finite_ext_reduce(fe, [(), ("a'", "t'")], [("t", "a")])

    def test_a_power_vs_t(self):
        fe, _ = dinf_extension()
        # a^x = t: never (wrong coset)
        assert not finite_ext_reduce(fe, [(), ("t'",)], [("a",)])

    def test_repeated_variables_rejected(self):
        """finite_ext_reduce gives each power its own variable; the file reader
        rejects an eqH block that repeats one."""
        with open(os.path.join(CORPUS, "17_extension_dinf.gg")) as fh:
            text = fh.read().replace("pow t a x\n", "pow a x\npow a x\n")
        with pytest.raises(FormatError, match="eqH variable 'x' repeats"):
            build_extension(parse_instance(text), 15)

    def test_against_brute_force_random(self):
        """Agreement with table-driven brute force on random D-inf instances."""
        rng = random.Random(99)
        fe, _ = dinf_extension()
        letters = ("a", "a'", "t", "t'")
        agreements = 0
        for _ in range(50):
            n = rng.randint(1, 2)
            u_words = [
                tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                for _ in range(n)
            ]
            v_words = [
                tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
                for _ in range(n + 1)
            ]
            got = finite_ext_reduce(fe, v_words, u_words)
            brute = dinf_brute_solvable(v_words, u_words, cap=8)
            if brute:
                assert got, (v_words, u_words)
            else:
                # brute force is exponent-capped; a positive answer beyond the
                # cap is possible but must then verify at some larger exponent
                if got:
                    assert dinf_brute_solvable(v_words, u_words, cap=40), (
                        v_words,
                        u_words,
                    )
            agreements += 1
        assert agreements == 50


def semidirect(base, m: int) -> FiniteExtension:
    """base x| Z/m with s a s' = a' for even m (s central for odd m), over the
    cosets 0..m-1 of the base <a>."""
    flip = lambda i, w: invert_word(w) if m % 2 == 0 and i % 2 else w
    table = {}
    for i in range(m):
        for x in ("a", "a'"):
            table[(str(i), x)] = (flip(i, (x,)), str(i))
        table[(str(i), "s")] = ((), str((i + 1) % m))
        table[(str(i), "s'")] = ((), str((i - 1) % m))
    return FiniteExtension(base, ("a", "s"), [str(i) for i in range(m)], "0", table)


def random_instance(rng, n, obstructed=False):
    """Constants of 0-2 letters and powers of 1-3; half of them end with the
    s-letters that bring the product at x = (1, .., 1) into the base.  An
    obstructed instance is one a among s-letters: no x solves it."""
    letters = ("s", "s'") if obstructed else ("a", "a'", "s", "s'")
    word = lambda lo, hi: tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))
    vs, us = [word(0, 2) for _ in range(n + 1)], [word(1, 3) for _ in range(n)]
    if obstructed:
        vs[0] = ("a",) + vs[0]
    if rng.random() < 0.5:
        net = sum((x == "s") - (x == "s'") for w in vs + us for x in w)
        vs[-1] += ("s'",) * net + ("s",) * -net
    return vs, us


class TestZKnapsack:
    def test_against_chain_membership(self):
        """The closed form answers as the chain automaton's membership does."""
        rng = random.Random(5)
        word = lambda hi: tuple(rng.choice(("a", "a", "a'")) for _ in range(rng.randint(0, hi)))
        solvable = 0
        for trial in range(400):
            n = trial % 4
            vs = [word(3) if rng.random() < 0.7 else () for _ in range(n + 1)]
            us = [word(4) for _ in range(n)]
            if n and rng.random() < 0.2:
                us[rng.randrange(n)] = ()
            z = graph_oracle("a")
            got = z.knapsack(vs, us)
            assert not getattr(z, "_member_cache", None)
            assert got == z.ka_membership(equation_chain(z.alphabet, vs, us), ()), (vs, us)
            solvable += got
        assert 100 < solvable < 300


def planted_instance(rng, fe, n, low):
    """A random instance over ``semidirect(graph_oracle("a"), m)`` whose closing
    constant is the inverse of the product at planted exponents, all below m
    when ``low`` and all in [m, 2m] otherwise: the normal form s^-j a^-v of
    the product a^v s^j, so the exponents do not cancel freely."""
    m = len(fe.cosets)
    vs, us = random_instance(rng, n)
    xs = [rng.randrange(m) if low else rng.randint(m, 2 * m) for _ in us]
    word = vs[0] + sum((u * x + v for u, x, v in zip(us, xs, vs[1:])), ())
    gw, c = fe.rewrite(fe.one, word)
    value, = letter_balance(fe.g_oracle.alphabet, fe.g_oracle.alphabet.encode(gw))
    vs[-1] += ("s'",) * fe.cosets.index(c) + ("a'",) * value + ("a",) * -value
    return vs, us


class TestOrbitWalk:
    def test_against_product_reference_over_z(self):
        """Z x| Z/m, m = 1..12, 1-3 powers: the same answers as the reference,
        on free draws, obstructed ones and exponents planted below m and at
        least m."""
        rng = random.Random(17)
        solvable = 0
        for m in range(1, 13):
            fe = semidirect(graph_oracle("a"), m)
            for trial in range(12):
                n = 1 + trial % 3
                if trial % 4 < 2:
                    vs, us = random_instance(rng, n, obstructed=trial % 4 == 1)
                else:
                    vs, us = planted_instance(rng, fe, n, low=trial % 4 == 2)
                got = finite_ext_reduce(fe, vs, us)
                assert got == product_finite_ext_reduce(fe, vs, us), (m, vs, us)
                assert got or trial % 4 < 2, (m, vs, us)
                solvable += got
        assert 80 < solvable < 130

    def test_fewer_questions_than_reference_over_finite_base(self):
        """Over Z/k x| Z/m the walk answers as the reference and asks the base
        no more questions on any instance."""
        rng = random.Random(23)
        asked = [0, 0]
        for k, m in ((2, 2), (3, 2), (4, 4), (5, 6), (4, 8)):
            for trial in range(6):
                vs, us = random_instance(rng, 1 + trial % 3, obstructed=trial % 2)
                logs, answers = [], []
                for reduce in (finite_ext_reduce, product_finite_ext_reduce):
                    with record([]) as log:
                        answers.append(reduce(semidirect(FiniteGroupOracle(k, "a"), m), vs, us))
                    logs.append(log)
                assert answers[0] == answers[1], (k, m, vs, us)
                assert len(logs[0]) <= len(logs[1]), (k, m, vs, us)
                asked = [asked[0] + len(logs[0]), asked[1] + len(logs[1])]
        assert 100 < asked[0] < asked[1]


def _signed_automorphism(rng, letters, pairs) -> dict:
    """A random automorphism of the graph group: a permutation of the base
    letters that keeps the independence, each image inverted or not."""
    edges = {frozenset(p) for p in pairs}
    perms = [dict(zip(letters, p)) for p in itertools.permutations(letters)]
    perm = rng.choice([p for p in perms if all(frozenset((p[x], p[y])) in edges for x, y in pairs)])
    return {x: (y if rng.random() < 0.5 else inverse_letter(y),) for x, y in perm.items()}


def _power_extension(base, sigma: dict) -> tuple:
    """The table and cosets of G x| Z/m, s x s^-1 = sigma(x) with sigma given
    on the letters, cosets s^0..s^(m-1), m the order of sigma on ``base``."""
    image = lambda w: sum((sigma[x] if x in sigma else invert_word(sigma[inverse_letter(x)])
                           for x in w), ())
    powers = [{x: (x,) for x in sigma}]
    while len(powers) == 1 or any(not base.is_identity(w + (inverse_letter(x),))
                                  for x, w in powers[-1].items()):
        powers.append({x: image(w) for x, w in powers[-1].items()})
    m = len(powers) - 1
    table = {}
    for i in range(m):
        for x, w in powers[i].items():
            table[str(i), x] = (w, str(i))
            table[str(i), inverse_letter(x)] = (invert_word(w), str(i))
        table[str(i), "s"] = ((), str((i + 1) % m))
        table[str(i), "s'"] = ((), str((i - 1) % m))
    return table, [str(i) for i in range(m)]


class TestRelators:
    def test_oracle_relators(self):
        assert FiniteGroupOracle(3, "g").relators() == [("g", "g", "g")]
        assert graph_oracle("a").relators() == graph_oracle("ab").relators() == []
        path = graph_oracle("abc", [("c", "a")])
        assert path.relators() == [("a", "c", "a'", "c'")]
        both = FreeProductOracle(FiniteGroupOracle(2, "g"), path)
        assert both.relators() == [("g", "g"), ("a", "c", "a'", "c'")]

    def test_refused_exactly_when_a_relator_reads_wrong(self):
        """Over Z/1..Z/6 and random graph groups on 2-4 letters, the table of
        G x| Z/m for an automorphism of G is accepted.  A table changed at one
        letter, its G-word at one coset replaced by a random word or its
        targets at two cosets swapped (the inverse's rows to match, so that
        c b b^-1 still reads 1), is refused exactly when some relator, read
        from some coset through the table, does not come back to that coset
        as a word that is 1 in G (Z/n by residues, graph groups by free
        reduction)."""
        rng = random.Random(16)
        bases = []
        for n in range(1, 7):
            units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
            for _ in range(12):
                g = FiniteGroupOracle(n, "g")
                is_one = lambda w, n=n: (w.count("g") - w.count("g'")) % n == 0
                bases.append((g, {"g": ("g",) * rng.choice(units)}, [("g",) * n], is_one))
        for _ in range(72):
            letters = "abcd"[: rng.randint(2, 4)]
            pairs = [p for p in itertools.combinations(letters, 2) if rng.random() < 0.5]
            g = graph_oracle(letters, pairs)
            dbl = DoubledAlphabet(IndependenceAlphabet(letters, pairs))
            is_one = lambda w, dbl=dbl: free_reduce(dbl, w).is_identity()
            relators = [(x, y, inverse_letter(x), inverse_letter(y)) for x, y in pairs]
            bases.append((g, _signed_automorphism(rng, letters, pairs), relators, is_one))
        kinds = (FiniteGroupOracle, GraphGroupOracle)
        refused = dict.fromkeys(itertools.product(kinds, (True, False)), 0)
        for g, sigma, relators, is_one in bases:
            table, cosets = _power_extension(g, sigma)
            FiniteExtension(g, (*sigma, "s"), cosets, "0", table)
            x = rng.choice(list(sigma))
            xi = inverse_letter(x)
            if len(cosets) > 1 and rng.random() < 0.5:
                c, d = rng.sample(cosets, 2)
                (wc, _), (wd, _) = table[c, x], table[d, x]
                table[c, x], table[d, xi] = (wc, d), (invert_word(wc), c)
                table[d, x], table[c, xi] = (wd, c), (invert_word(wd), d)
            else:
                c = rng.choice(cosets)
                w = tuple(rng.choice(g.letters) for _ in range(rng.randint(1, 3)))
                table[c, x], table[c, xi] = (w, c), (invert_word(w), c)

            def reads_one(start, relator):
                coset, word = start, ()
                for letter in relator:
                    piece, coset = table[coset, letter]
                    word += piece
                return coset == start and is_one(word)

            wrong = not all(reads_one(c, r) for c in cosets for r in relators)
            try:
                FiniteExtension(g, (*sigma, "s"), cosets, "0", table)
                assert not wrong, (sigma, table)
            except StructureError:
                assert wrong, (sigma, table)
            refused[type(g), wrong] += 1
        assert min(refused.values()) >= 5 and sum(refused.values()) == len(bases), refused


class TestFailClosed:
    def test_bracket_in_wrong_coset_exits_4(self, monkeypatch):
        """A power whose coset walk does not close at its entry coset is an internal error."""
        rewrite = FiniteExtension.rewrite

        def misplaced(fe, coset, word):
            gw, c = rewrite(fe, coset, word)
            if len(word) < 2 or word[1] == inverse_letter(word[0]):
                return gw, c  # the empty word and the table check stay right
            return gw, fe.cosets[-1]  # every coset map sends all cosets to one

        monkeypatch.setattr(FiniteExtension, "rewrite", misplaced)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["finite-ext", os.path.join(CORPUS, "17_extension_dinf.gg")])
        assert code == 4
        assert "bracketed pieces end in the wrong cosets" in err.getvalue()
