"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and budget; failures raise.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools
import random
import time

from ggsolve.automata import (
    benois_member,
    prefix_nfa,
    star_nfa,
)
from ggsolve.groups import (
    DoubledAlphabet,
    free_reduce,
    identity,
    invert_word,
    mult,
    power_nf,
)
from ggsolve.semilinear import (
    DiophantineSystem,
    diophantine_solve,
    member,
    two_power_solutions,
)
from ggsolve.slp import expand_capped
from ggsolve.solver import solve_exact, verify
from ggsolve.traces import (
    IndependenceAlphabet,
    Trace,
    is_connected,
    left_quotient,
)
from ggsolve.transfer import (
    FiniteExtension,
    FiniteGroupOracle,
    FreeProductOracle,
    HnnPresentation,
    finite_ext_reduce,
    free_product_saturate,
    hnn_saturate,
)
from ggsolve.transfer.kauto import plain_alphabet

from helpers import (
    brute_oracle,
    concat_closure,
    const,
    enumerate_accepted,
    enumerate_members,
    equation,
    equivalence_class,
    from_word,
    graph_oracle,
    iter_prefixes,
    knapsack_chain,
    power,
    power_slp,
    prefix_count,
    pw,
    random_alphabet,
    random_element,
    random_word,
)
from paper_lemmas import (
    is_i_freely_reducible,
    levi_decompose,
    power_two_factorizations,
    refine_to_reducible,
    validate_reduction,
)
from transfer_oracles import (
    dinf_brute_solvable,
    nfa_accepts_identity_bfs,
    z2z_reduce,
)


def report(number: int, label: str, started: float, budget_s: float, details: str = ""):
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {number:2d} PASS {elapsed:7.2f}s  {label}"
    if details:
        line += f"  [{details}]"
    print(line)
    assert elapsed <= budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def all_alphabets_exact(max_letters: int):
    for n in range(1, max_letters + 1):
        names = tuple("abcd"[:n])
        pairs = list(itertools.combinations(names, 2))
        for bits in range(2 ** len(pairs)):
            yield IndependenceAlphabet(
                names, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            )


def test_criterion_01_star_language_exactness():
    """Star closure: exhaustive language equality and the state-count bound."""
    started = time.monotonic()
    cases = 0
    for alphabet in all_alphabets_exact(4):
        alpha_star = alphabet.max_independent_size()
        seen = set()
        for length in range(1, 5):
            for word in itertools.product(alphabet.letters, repeat=length):
                u = Trace(alphabet, word)
                if u.word in seen or u.is_empty() or not is_connected(u):
                    continue
                seen.add(u.word)
                cases += 1
                nfa = star_nfa(u)  # certificates validated here
                assert nfa.num_states() <= 2 * prefix_count(u) ** alpha_star
                max_len = 4 * len(u)
                # i-diamond certified: canonical representatives determine the language
                got = enumerate_accepted(nfa, max_len, canonical_only=True)
                expected = {
                    power(u, k).word
                    for k in range(max_len // len(u) + 1)
                    if k * len(u) <= max_len
                }
                assert got == expected, (alphabet, u)
    report(1, f"star-closure exactness ({cases} connected traces, exhaustive)", started, 120)


def test_criterion_02_concat_closure():
    """Gated product: language equality with [L1 L2]_I and the exact n1*n2 state count."""
    started = time.monotonic()
    rng = random.Random(208)
    done = 0
    while done < 200:
        alphabet = random_alphabet(rng, 3)
        t1 = Trace(alphabet, random_word(rng, alphabet, 3))
        a1 = prefix_nfa(t1)
        if rng.random() < 0.5:
            t2 = Trace(alphabet, random_word(rng, alphabet, 3))
            a2 = prefix_nfa(t2)
        else:
            u = Trace(alphabet, random_word(rng, alphabet, 2))
            if u.is_empty() or not is_connected(u):
                continue
            a2 = star_nfa(u)
        closed = concat_closure(a1, a2)
        assert closed.num_states() == a1.num_states() * a2.num_states()
        closed.validate_i_diamond()
        max_len = 6
        got = enumerate_accepted(closed, max_len, canonical_only=True)
        expected = set()
        for w1 in enumerate_accepted(a1, max_len):
            for w2 in enumerate_accepted(a2, max_len - len(w1)):
                expected.add(Trace(alphabet, w1 + w2).word)
        assert got == expected
        done += 1
    report(2, "concatenation closure (200 random certified pairs, length 6)", started, 60)


def test_criterion_03_two_power_solutions():
    """Two-power sets: agreement with brute force on [0,20]^2; divisibility asserted inside."""
    started = time.monotonic()
    rng = random.Random(311)
    done = 0
    while done < 100:
        alphabet = random_alphabet(rng, 3)
        u = Trace(alphabet, random_word(rng, alphabet, 3))
        v = Trace(alphabet, random_word(rng, alphabet, 3))
        if u.is_empty() or v.is_empty() or not (is_connected(u) and is_connected(v)):
            continue
        p = Trace(alphabet, random_word(rng, alphabet, 2))
        s = Trace(alphabet, random_word(rng, alphabet, 2))
        q = Trace(alphabet, random_word(rng, alphabet, 2))
        t = Trace(alphabet, random_word(rng, alphabet, 2))
        done += 1
        sols = two_power_solutions(p, u, s, q, v, t)
        brute = set()
        for x in range(21):
            left = p * power(u, x) * s
            for y in range(21):
                if left == q * power(v, y) * t:
                    brute.add((x, y))
        got = {
            (x, y)
            for (x, y) in enumerate_members(sols, 20)
            if x <= 20 and y <= 20
        }
        assert got == brute
    report(3, "two-power solution sets (100 random instances)", started, 120)


def test_criterion_04_diophantine():
    """Diophantine solving: agreement with exhaustive search; solutions respect the cutoff."""
    started = time.monotonic()
    rng = random.Random(412)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        A = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        a = [rng.randint(-4, 4) for _ in range(n)]
        d = DiophantineSystem(A, a)
        got = diophantine_solve(d)
        brute = None
        for z in itertools.product(range(11), repeat=m):
            if all(sum(A[i][j] * z[j] for j in range(m)) == a[i] for i in range(n)):
                brute = z
                break
        if brute is not None:
            assert got is not None
            assert all(
                sum(A[i][j] * got[j] for j in range(m)) == a[i] for i in range(n)
            )
            assert max(got, default=0) <= d.cutoff()
        elif got is not None:
            assert all(
                sum(A[i][j] * got[j] for j in range(m)) == a[i] for i in range(n)
            )
    report(4, "Diophantine completeness (200 random systems)", started, 60)


def test_criterion_05_levi_and_cancellativity():
    """Levi grids on all factorization pairs; cancellativity of the monoid."""
    started = time.monotonic()
    rng = random.Random(515)
    for _ in range(500):
        alphabet = random_alphabet(rng, 3)
        t = Trace(alphabet, random_word(rng, alphabet, 6))
        words = list(equivalence_class(alphabet, t.word))
        w1, w2 = rng.choice(words), rng.choice(words)
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
        # unequal products are rejected
        other = Trace(alphabet, t.word + (alphabet.letters[0],))
        assert levi_decompose(us, [other]) is None
        # cancellativity
        u = Trace(alphabet, random_word(rng, alphabet, 4))
        v = Trace(alphabet, random_word(rng, alphabet, 4))
        s = Trace(alphabet, random_word(rng, alphabet, 4))
        w = Trace(alphabet, random_word(rng, alphabet, 4))
        if (u * s) * v == (u * w) * v:
            assert s == w
    report(5, "Levi grids + cancellativity (500 random instances)", started, 60)


def test_criterion_06_power_factorizations():
    """Two-factor splits of u^x admit the (l,k,c,s,p) shape with c <= |A| (exhaustive)."""
    started = time.monotonic()
    checked = 0
    for alphabet in all_alphabets_exact(3):
        size_a = len(alphabet.letters)
        seen = set()
        for length in range(1, 4):
            for word in itertools.product(alphabet.letters, repeat=length):
                u = Trace(alphabet, word)
                if u.word in seen or u.is_empty() or not is_connected(u):
                    continue
                seen.add(u.word)
                for x in range(7):
                    ux = power(u, x)
                    for y1 in iter_prefixes(ux):
                        y2 = left_quotient(ux, y1.codes)
                        got = power_two_factorizations(u, x, y1, y2)
                        assert got is not None, (alphabet, u, x, y1)
                        l, k, c, s, p = got
                        assert l + k + c == x and 0 <= c <= size_a
                        assert power(u, l) * s == y1
                        assert p * power(u, k) == y2
                        assert s * p == power(u, c)
                        checked += 1
    report(6, f"power-split decompositions ({checked} splits, exhaustive)", started, 120)


def test_criterion_07_refinement():
    """Refinement succeeds with <= 2^n - 2 parts; fixed counterexample unrefined."""
    started = time.monotonic()
    fixed_alpha = DoubledAlphabet(IndependenceAlphabet("ab"))
    counterexample = [
        free_reduce(fixed_alpha, ("a'",)),
        free_reduce(fixed_alpha, ("a", "b")),
        free_reduce(fixed_alpha, ("b'",)),
    ]
    assert is_i_freely_reducible(counterexample) is None
    rng = random.Random(717)
    alphabets = [
        DoubledAlphabet(IndependenceAlphabet("ab")),
        DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")])),
        DoubledAlphabet(IndependenceAlphabet("ab", [("a", "b")])),
    ]
    done = 0
    while done < 100:
        alphabet = rng.choice(alphabets)
        n = rng.randint(2, 4)
        pieces = [random_element(rng, alphabet, 3) for _ in range(n - 1)]
        total = identity(alphabet)
        for g in pieces:
            total, _ = mult(total, g)
        seq = pieces + [total.inverse()]
        parts, steps = refine_to_reducible(seq)
        total_parts = sum(len(ps) for ps in parts)
        assert total_parts <= 2**n - 2
        flat = [g for ps in parts for g in ps]
        validate_reduction(flat, steps)
        for entry, ps in zip(seq, parts):
            acc = identity(alphabet)
            for g in ps:
                acc, _ = mult(acc, g)
            assert acc == entry
        done += 1
    report(7, "I-free refinement (100 product-1 sequences, n <= 4)", started, 60)


CURATED = []


def _curated_suite():
    """15 instances: Z-like, free, free-abelian, mixed C4-free; <= 2 distinct vars."""
    if CURATED:
        return CURATED
    ZL = DoubledAlphabet(IndependenceAlphabet("a"))
    FREE2 = DoubledAlphabet(IndependenceAlphabet("ab"))
    ABEL2 = DoubledAlphabet(IndependenceAlphabet("ac", [("a", "c")]))
    AC = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
    CURATED.extend(
        [
            equation(ZL, pw("a", "x"), pw(("a'", "a'"), "y")),
            equation(ZL, pw("a", "x"), const(("a'", "a'", "a'"))),
            equation(ZL, pw("a", "x"), const(("a",))),
            equation(ZL, pw("a", "x"), const("a"), pw(("a'",), "y")),
            equation(ZL, pw("a", "x"), pw(("a'",), "x")),
            equation(FREE2, pw("a", "x"), pw("b", "y"), const(("b'", "a'"))),
            equation(FREE2, pw("a", "x"), pw("b", "y"), const(("a'",)), const(("b'",))),
            equation(FREE2, pw("a", "x"), const("b"), pw(("a'",), "y")),
            equation(FREE2, pw(("a", "b"), "x"), pw(("b'", "a'"), "y")),
            equation(ABEL2, pw(("a", "c"), "x"), const(("c'", "a'"))),
            equation(ABEL2, pw("a", "x"), pw("c", "y"), const(("c'", "c'", "c'", "a'", "a'"))),
            equation(AC, pw(("a", "c", "a'"), "x"), pw(("c'",), "y")),
            equation(AC, pw(("a", "b", "a'"), "x"), pw(("a", "b'", "a'"), "y")),
            equation(AC, pw(("a", "b", "a'"), "x"), const(("a", "b'", "b'", "a'"))),
            equation(AC, pw("b", "x"), pw("c", "y"), const(("c'", "b'"))),
        ]
    )
    return CURATED


def test_criterion_08_exact_solver_end_to_end():
    """solve_exact matches brute force exactly on [0,15]^k for the curated suite."""
    started = time.monotonic()
    suite = _curated_suite()
    assert len(suite) == 15
    for e in suite:
        rep = solve_exact(e)
        assert rep.status in ("solvable", "unsolvable"), e
        sols = rep.solution_set
        brute = brute_oracle(e, 15)
        k = len(e.vars)
        for v in itertools.product(range(16), repeat=k):
            assert member(sols, v) == (v in brute), (e, v)
        if rep.status == "solvable":
            assert verify(e, rep.witness)
    report(8, "exact semilinear solution sets (15 curated instances)", started, 600)


def test_criterion_09_compressed_path():
    """SLP exponents up to 2^20 verify; decisions match decompressed brute force."""
    started = time.monotonic()
    ZL = DoubledAlphabet(IndependenceAlphabet("a"))
    AC = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
    # big-exponent verification through the conjugate-power form
    big = 2**20
    e = equation(ZL, pw("a", "x"), pw(("a'",), "y"))
    assert verify(e, {"x": big, "y": big}, cap=2**22)
    assert not verify(e, {"x": big, "y": big - 1}, cap=2**22)
    # SLP-compressed exponent: the power SLP expands to the same normal form
    g = power_slp(from_word(("a",)), big)
    word = expand_capped(g, 2**21)
    assert free_reduce(ZL, word) == power_nf(free_reduce(ZL, "a"), big, 2**21)
    # conjugate-power instance: boundaries stay short
    e2 = equation(AC, pw(("a", "b", "a'"), "x"), const(("a",)), pw(("b'",), "y"), const(("a'",)))
    assert verify(e2, {"x": 2**20, "y": 2**20}, cap=2**22)
    # decision agrees with decompressed brute force on the small analogue
    for x in range(8):
        for y in range(8):
            analog = verify(e2, {"x": x, "y": y})
            assert analog == (x == y)
    report(9, "compressed verification (exponents to 2^20)", started, 60)


def _dinf_extension():
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


def test_criterion_10_finite_extension():
    """Finite-extension reduction on 50 random dihedral instances vs direct arithmetic."""
    started = time.monotonic()
    fe, _ = _dinf_extension()
    rng = random.Random(1016)
    letters = ("a", "a'", "t", "t'")
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
        elif got:
            assert dinf_brute_solvable(v_words, u_words, cap=40), (v_words, u_words)
    report(10, "finite-extension transfer (50 dihedral instances)", started, 60)


def test_criterion_11_hnn_and_free_products():
    """Stable-letter and free-product saturations vs BFS oracles and Benois."""
    started = time.monotonic()
    # HNN: Z/2 * Z via trivial associated subgroups, vs string rewriting BFS
    base = FiniteGroupOracle(2, "g")
    h = HnnPresentation(base, [()], [()], [((), ())], stable="t")
    rng = random.Random(1120)
    letters = h.letters
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
    # free products: F2 = Z * Z cross-checked against Benois saturation
    fp = FreeProductOracle(graph_oracle("a"), graph_oracle("b"))
    dbl = DoubledAlphabet(IndependenceAlphabet("ab"))
    letters2 = ("a", "a'", "b", "b'")
    for _ in range(50):
        k = rng.randint(1, 2)
        bases = [
            tuple(rng.choice(letters2) for _ in range(rng.randint(1, 2)))
            for _ in range(k)
        ]
        target = tuple(rng.choice(letters2) for _ in range(rng.randint(0, 2)))
        got = free_product_saturate(fp, knapsack_chain(fp.alphabet, bases), invert_word(target))
        expected = benois_member(knapsack_chain(dbl, bases), target)
        assert got == expected, (bases, target)
    report(11, "HNN + free-product saturation (50 + 50 automata)", started, 300)


def test_criterion_12_amalgam():
    """Amalgam embedding round-trip vs the transversal normal form (20 instances)."""
    started = time.monotonic()
    from ggsolve.transfer import AmalgamPresentation, amalgam_knapsack
    from transfer_oracles import AmalgamNF

    left = FiniteGroupOracle(4, "g")
    right = FiniteGroupOracle(4, "h")
    f_table = {
        ("1", "1"): "1",
        ("1", "z"): "z",
        ("z", "1"): "z",
        ("z", "z"): "1",
    }
    embed_left = {"1": (), "z": ("g", "g")}
    embed_right = {"1": (), "z": ("h", "h")}
    am = AmalgamPresentation(
        left, right, ("1", "z"), f_table, "1", embed_left, embed_right
    )
    nf = AmalgamNF(left, right, ("1", "z"), f_table, "1", embed_left, embed_right)
    rng = random.Random(1212)
    letters = ("g", "g'", "h", "h'")
    for _ in range(20):
        k = rng.randint(1, 2)
        bases = [
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
            for _ in range(k)
        ]
        target = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        got = amalgam_knapsack(am, bases, target)
        brute = nf.brute_knapsack(bases, target, cap=6)
        if brute:
            assert got, (bases, target)
        if not got:
            assert not brute, (bases, target)
    report(12, "amalgam embedding round-trip (20 instances)", started, 120)
