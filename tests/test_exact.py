"""solve_exact: exact semilinear solution sets vs. brute force."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ggsolve.errors import InternalError
from ggsolve.groups import (
    DoubledAlphabet,
    SignedPile,
    cyclic_reduce,
    free_reduce,
    identity,
    invert_codes,
)
from ggsolve.semilinear import member
from ggsolve.solver import solve_exact
from ggsolve.traces import IndependenceAlphabet, Trace, is_connected

from helpers import (
    _power_form_by_mult,
    _solve_one_power_by_mult,
    brute_oracle,
    const,
    enumerate_members,
    equation,
    power,
    pw,
    random_element,
)
from test_streaming import alphabets, words

ZL = DoubledAlphabet(IndependenceAlphabet("a"))
AC = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
FREE2 = DoubledAlphabet(IndependenceAlphabet("ab"))
FREE3 = DoubledAlphabet(IndependenceAlphabet("abc"))
ABEL2 = DoubledAlphabet(IndependenceAlphabet("ac", [("a", "c")]))


def random_graph(rng):
    """A doubled alphabet over 3-5 letters, independence density 0.2-0.8."""
    names = "abcde"[: rng.randint(3, 5)]
    pairs = list(itertools.combinations(names, 2))
    density = rng.uniform(0.2, 0.8)
    return DoubledAlphabet(IndependenceAlphabet(names, rng.sample(pairs, round(density * len(pairs)))))


def check_exact(e, grid=15):
    rep = solve_exact(e)
    assert rep.status in ("solvable", "unsolvable")
    sols = rep.solution_set
    assert sols is not None
    brute = brute_oracle(e, grid)
    k = len(e.vars)
    for v in itertools.product(range(grid + 1), repeat=k):
        assert member(sols, v) == (v in brute), (e, v)
    if rep.status == "solvable":
        assert rep.witness is not None
        vec = tuple(rep.witness[x] for x in e.vars)
        from ggsolve.solver import verify

        assert verify(e, rep.witness)
    else:
        assert not brute
    return rep


class TestZeroPowers:
    def test_identity(self):
        check_exact(equation(ZL, const(("a", "a'"))))

    def test_nonidentity(self):
        rep = solve_exact(equation(ZL, const("a")))
        assert rep.status == "unsolvable"

    def test_free_variable(self):
        # x's power drops out: every x works
        e = equation(ZL, pw(("a", "a'"), "x"))
        rep = check_exact(e)
        assert rep.status == "solvable"


class TestOnePower:
    def test_z_like(self):
        rep = check_exact(equation(ZL, pw("a", "x"), const(("a'", "a'", "a'"))))
        assert enumerate_members(rep.solution_set, 20) == {(3,)}

    def test_unsolvable(self):
        rep = check_exact(equation(ZL, pw("a", "x"), const(("a",))))
        assert rep.status == "unsolvable"

    def test_conjugated(self):
        check_exact(equation(AC, pw(("a", "b", "a'"), "x"), const(("a", "b'", "b'", "a'"))))

    def test_zero_solution(self):
        rep = check_exact(equation(ZL, pw("a", "x")))
        assert enumerate_members(rep.solution_set, 5) == {(0,)}


class TestTwoPowers:
    def test_z_like_ratio(self):
        # a^x (a'a')^y = 1: x = 2y
        e = equation(ZL, pw("a", "x"), pw(("a'", "a'"), "y"))
        rep = check_exact(e)
        assert member(rep.solution_set, (12, 6))
        assert not member(rep.solution_set, (13, 6))

    def test_free_knapsack(self):
        e = equation(FREE2, pw("a", "x"), pw("b", "y"), const(("b'", "a'")))
        rep = check_exact(e)
        assert enumerate_members(rep.solution_set, 10) == {(1, 1)}

    def test_free_abelian_shared_var(self):
        # (ac)^x = ac: preprocessing splits into a^x c^x
        e = equation(ABEL2, pw(("a", "c"), "x"), const(("c'", "a'")))
        rep = check_exact(e)
        assert enumerate_members(rep.solution_set, 10) == {(1,)}

    def test_shifted_line(self):
        # a^x a (a')^y = 1: y = x + 1
        e = equation(ZL, pw("a", "x"), const("a"), pw(("a'",), "y"))
        check_exact(e)

    def test_middle_blocker(self):
        # a^x b (a')^y: never 1 except... brute-checked
        e = equation(FREE2, pw("a", "x"), const("b"), pw(("a'",), "y"))
        check_exact(e, grid=8)

    def test_commuting_powers(self):
        # a^x c^y with a I c and target a^2 c^3
        e = equation(ABEL2, pw("a", "x"), pw("c", "y"), const(("c'", "c'", "c'", "a'", "a'")))
        rep = check_exact(e)
        assert enumerate_members(rep.solution_set, 10) == {(2, 3)}

    def test_same_var_twice(self):
        # a^x (a')^x = 1 for all x
        e = equation(ZL, pw("a", "x"), pw(("a'",), "x"))
        rep = check_exact(e)
        assert member(rep.solution_set, (7,))

    def test_same_var_offset(self):
        # a^x a (a')^x = a: never identity
        e = equation(ZL, pw("a", "x"), const("a"), pw(("a'",), "x"))
        rep = check_exact(e)
        assert rep.status == "unsolvable"

    def test_solution_below_the_shape(self):
        # b a^x b' c^3 (c')^y = 1 only at (0, 3): at x = dx = 0 the shape
        # b * a^0 * b' c^3 is not reduced, so only the x strip finds it
        e = equation(
            FREE3, const("b"), pw("a", "x"), const(("b'", "c", "c", "c")), pw(("c'",), "y")
        )
        rep = check_exact(e, grid=8)
        assert enumerate_members(rep.solution_set, 8) == {(0, 3)}

    def test_solution_above_the_shape(self):
        # a^x a'^2 a^y a'^3 = 1 on x + y = 5; the right side a^3 a'^y takes
        # its shape from dy = 3, so (3, 2) is found by the y strip alone
        e = equation(ZL, pw("a", "x"), const(("a'", "a'")), pw("a", "y"), const(("a'", "a'", "a'")))
        rep = check_exact(e, grid=8)
        assert enumerate_members(rep.solution_set, 8) == {(x, 5 - x) for x in range(6)}

    def test_conjugated_pair(self):
        # (a b a')^x (a b' a')^y = 1: x = y
        e = equation(AC, pw(("a", "b", "a'"), "x"), pw(("a", "b'", "a'"), "y"))
        rep = check_exact(e, grid=8)
        assert member(rep.solution_set, (5, 5))
        assert not member(rep.solution_set, (5, 4))


class TestLimits:
    def test_three_powers_unknown(self):
        e = equation(FREE2, pw("a", "x"), pw("b", "y"), pw("a", "z"))
        rep = solve_exact(e)
        assert rep.status == "unknown"

    def test_split_past_limit_unknown(self):
        big = DoubledAlphabet(
            IndependenceAlphabet("abcd", [("a", "b"), ("a", "c"), ("b", "c")])
        )
        # (abc)^x splits into three powers
        e = equation(big, pw(("a", "b", "c"), "x"), pw("d", "y"))
        rep = solve_exact(e)
        assert rep.status == "unknown"


class TestRandomAgreement:
    def test_random_one_power(self):
        rng = random.Random(303)
        done = 0
        while done < 30:
            alphabet = rng.choice([ZL, AC, FREE2])
            base = random_element(rng, alphabet, 3)
            if base.is_identity():
                continue
            v0 = random_element(rng, alphabet, 2)
            v1 = random_element(rng, alphabet, 2)
            from ggsolve.solver.equations import Const, ExponentEquation, Power

            e = ExponentEquation(alphabet, [Const(v0), Power(base, "x"), Const(v1)])
            rep = solve_exact(e)
            if rep.status == "unknown":
                continue
            done += 1
            brute = brute_oracle(e, 12)
            for v in range(13):
                assert member(rep.solution_set, (v,)) == ((v,) in brute), (e, v)

    def test_random_two_powers(self):
        """Free constants over small fixed alphabets, then planted solutions over random graphs."""
        from ggsolve.solver.equations import Const, ExponentEquation, Power

        rng = random.Random(909)
        families = (
            # (equations, alphabet, word length, planted, grid)
            (30, lambda: rng.choice([ZL, AC, FREE2, ABEL2]), 2, False, 10),
            (200, lambda: random_graph(rng), 3, True, 7),
        )
        for count, draw_alphabet, length, planted, grid in families:
            done = 0
            while done < count:
                alphabet = draw_alphabet()
                b1, b2 = (random_element(rng, alphabet, length) for _ in range(2))
                if b1.is_identity() or b2.is_identity():
                    continue
                v0, v1, v2 = (random_element(rng, alphabet, length) for _ in range(3))
                var2 = rng.choice(["x", "y"])

                def word(x, y):
                    return v0.word + b1.word * x + v1.word + b2.word * y

                if planted:
                    x0 = rng.randint(0, 4)
                    y0 = x0 if var2 == "x" else rng.randint(0, 4)
                    v2 = free_reduce(alphabet, word(x0, y0)).inverse()
                e = ExponentEquation(
                    alphabet,
                    [Const(v0), Power(b1, "x"), Const(v1), Power(b2, var2), Const(v2)],
                )
                rep = solve_exact(e)
                if rep.status == "unknown":
                    continue
                done += 1
                assert rep.status == "solvable" or not planted
                for v in itertools.product(range(grid + 1), repeat=len(e.vars)):
                    x, y = v if var2 == "y" else (v[0], v[0])
                    holds = free_reduce(alphabet, word(x, y) + v2.word).is_identity()
                    assert member(rep.solution_set, v) == holds, (e, v)

    def test_solution_sets_closed_under_periods(self):
        rng = random.Random(11)
        e = equation(ZL, pw("a", "x"), pw(("a'", "a'"), "y"))
        rep = solve_exact(e)
        for comp in rep.solution_set.components:
            for pvec in comp.periods:
                v = tuple(b + p for b, p in zip(comp.base, pvec))
                assert member(rep.solution_set, v)


class TestPowerForm:
    """_power_form(v, u, w) = (L, S, dx, x_min): the shape of nf(v u^x w)."""

    @staticmethod
    def check_contract(v, u, w):
        from ggsolve.solver.exact import _power_form

        alphabet = u.alphabet
        big_l, big_s, dx, x_min = _power_form(v, u, w)
        assert x_min == dx + 1
        for x in range(x_min, x_min + 7):
            direct = free_reduce(alphabet, v.word + u.word * x + w.word)
            assert direct.word == (big_l * power(u.trace, x - dx) * big_s).word, (v, u, w, x)
        for a in range(7):
            lhs = free_reduce(alphabet, big_l.word + u.word * a + big_s.word)
            assert lhs == free_reduce(alphabet, v.word + u.word * (a + dx) + w.word), (v, u, w, a)
        return big_l, big_s, dx

    def test_cancellation_across_the_power(self):
        # c a^x c' with a I c: c cancels across every a^x, so L = S = 1
        c, a, ci = (free_reduce(AC, (x,)) for x in ("c", "a", "c'"))
        big_l, big_s, dx = self.check_contract(c, a, ci)
        assert big_l.is_empty() and big_s.is_empty() and dx == 0

    def test_random_shapes(self):
        rng = random.Random(4242)
        done = 0
        while done < 150:
            alphabet = random_graph(rng)
            _, u = cyclic_reduce(random_element(rng, alphabet, 4))
            if u.is_identity():
                continue
            v = random_element(rng, alphabet, 5)
            w = random_element(rng, alphabet, 5)
            self.check_contract(v, u, w)
            done += 1


@st.composite
def power_triples(draw):
    """(v, u, w) over a 3-6-letter graph: u cyclically reduced and connected with at
    most 6 letters, v and w normal forms of at most 12; w is planted as (v u^k)^-1
    when that is short enough, so that v u^x w = 1 has a solution."""
    dbl = DoubledAlphabet(draw(alphabets(3, 6)))
    _, u = cyclic_reduce(free_reduce(dbl, draw(words(dbl, 6))))
    assume(not u.is_identity() and is_connected(u.trace))
    v = free_reduce(dbl, draw(words(dbl, 12)))
    w = free_reduce(dbl, draw(words(dbl, 12)))
    if draw(st.booleans()):
        planted = free_reduce(dbl, v.word + u.word * draw(st.integers(0, 3))).inverse()
        if len(planted) <= 12:
            w = planted
    return v, u, w


class TestAgainstMultChain:
    """The piled products of the exact solver against the ``power_nf`` / ``mult``
    chains they replaced, kept in ``helpers``."""

    @settings(max_examples=300, deadline=None)
    @given(power_triples())
    def test_power_form(self, triple):
        from ggsolve.solver.exact import _power_form

        assert _power_form(*triple) == _power_form_by_mult(*triple)

    @settings(max_examples=300, deadline=None)
    @given(power_triples())
    def test_solve_one_power(self, triple):
        from ggsolve.solver.exact import _solve_one_power

        v, u, w = triple
        expected = _solve_one_power_by_mult(v, u, w)
        assert _solve_one_power(u.alphabet, v.codes, u.codes, w.codes) == expected
        # the strips pass unreduced words
        spelled = v.codes + u.codes + invert_codes(u.codes)
        assert _solve_one_power(u.alphabet, spelled, u.codes, w.codes) == expected


class TestInternalChecks:
    """The checks on the exact path raise InternalError, also under ``python -O``."""

    KNAPSACK = equation(FREE2, pw("a", "x"), pw("b", "y"), const(("b'", "a'")))

    @pytest.mark.parametrize("name", ["right_quotient", "left_quotient"])
    def test_left_form_steps(self, name, monkeypatch):
        import ggsolve.solver.exact as exact

        monkeypatch.setattr(exact, name, lambda *args: None)
        with pytest.raises(InternalError):
            solve_exact(self.KNAPSACK)

    def test_levi_embedding(self, monkeypatch):
        import paper_lemmas

        monkeypatch.setattr(paper_lemmas, "_embed_parts", lambda *args: None)
        t = Trace(AC, "abc")
        with pytest.raises(InternalError, match="greedy embedding failed"):
            paper_lemmas.levi_decompose([t], [t])

    def test_left_form_verification(self, monkeypatch):
        import ggsolve.solver.exact as exact

        monkeypatch.setattr(exact, "_canonical_word", lambda *args: ())
        with pytest.raises(InternalError, match="parametric left form"):
            solve_exact(self.KNAPSACK)

    def test_right_form_verification(self, monkeypatch):
        import ggsolve.solver.exact as exact

        monkeypatch.setattr(exact, "invert_codes", lambda codes: ())
        # the right side v2^-1 (u2^-1)^y goes through the same shape check
        with pytest.raises(InternalError, match="parametric left form"):
            exact._power_form(
                free_reduce(FREE2, ("a'",)), free_reduce(FREE2, ("b'",)), identity(FREE2)
            )

    def test_stabilization_bound(self, monkeypatch):
        import ggsolve.solver.exact as exact

        a, b = free_reduce(FREE2, ("a",)), free_reduce(FREE2, ("b",))
        monkeypatch.setattr(SignedPile, "push", lambda pile, codes: None)
        with pytest.raises(InternalError, match="did not stabilize"):
            exact._stabilize_left(a, b)

    @pytest.mark.parametrize(
        "prog, u, v, message",
        [((0, 0), "a", "aa", "offset"), ((3, 0), "a", "aa", "v-div"), ((4, 0), "aa", "a", "u-div")],
    )
    def test_two_power_decomposition(self, prog, u, v, message, monkeypatch):
        import ggsolve.automata as automata
        from ggsolve.semilinear import two_power_solutions

        monkeypatch.setattr(automata, "unary_progressions", lambda _: {automata.Progression(*prog)})
        a1 = IndependenceAlphabet("a")
        e = Trace(a1, "")
        with pytest.raises(InternalError, match=message):
            two_power_solutions(Trace(a1, "a"), Trace(a1, u), e, e, Trace(a1, v), e)

    def test_progression_decomposition(self, monkeypatch):
        import ggsolve.automata as automata

        monkeypatch.setattr(automata, "_normalize_progressions", lambda progs: set())
        with pytest.raises(InternalError, match="progression decomposition mismatch"):
            solve_exact(self.KNAPSACK)
