"""Solver plumbing: preprocessing, verification, relaxation, search, adapters."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ggsolve.errors import ResourceExceeded
from ggsolve.groups import DoubledAlphabet, free_reduce, power_nf
from ggsolve.semilinear import diophantine_solve
from ggsolve.slp import expand_capped
from ggsolve.solver import (
    Const,
    ExponentEquation,
    Power,
    abelian_relaxation,
    chain_equation,
    preprocess,
    solution_bound,
    solve_search,
    verify,
)
from ggsolve.traces import IndependenceAlphabet

from helpers import (
    _evaluate_by_mult,
    _preprocess_by_mult,
    _search_by_mult,
    brute_oracle,
    const,
    equation,
    from_word,
    power_slp,
    pw,
    random_element,
    z_to_n_rewrite,
)
from test_streaming import alphabets, words

ZL = DoubledAlphabet(IndependenceAlphabet("a"))
AC = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
FREE2 = DoubledAlphabet(IndependenceAlphabet("ab"))


class TestPreprocess:
    def test_conjugate_base(self):
        e = equation(AC, pw(("a", "b", "a'"), "x"))
        pp = preprocess(e)
        kinds = [type(i).__name__ for i in pp.items]
        assert kinds == ["Const", "Power", "Const"]
        assert pp.items[0].value.word == ("a",)
        assert pp.items[1].base.word == ("b",)
        assert pp.items[2].value.word == ("a'",)

    def test_split_disconnected(self):
        e = equation(AC, pw(("a", "c"), "x"))
        pp = preprocess(e)
        powers = pp.powers()
        assert len(powers) == 2
        assert {p.base.word for p in powers} == {("a",), ("c",)}
        assert {p.var for p in powers} == {"x"}

    def test_identity_base_dropped(self):
        e = equation(AC, pw(("a", "a'"), "x"), const("b"))
        pp = preprocess(e)
        assert pp.powers() == []
        assert pp.vars == ("x",)

    def test_preserves_solutions(self):
        rng = random.Random(3)
        for _ in range(40):
            alphabet = rng.choice([AC, FREE2])
            items = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    items.append(Const(random_element(rng, alphabet, 3)))
                else:
                    items.append(
                        Power(random_element(rng, alphabet, 3), rng.choice("xy"))
                    )
            from ggsolve.solver.equations import ExponentEquation

            e = ExponentEquation(alphabet, items)
            pp = preprocess(e)
            assert pp.vars == e.vars
            assert brute_oracle(e, 4) == brute_oracle(pp, 4)


class TestVerify:
    def test_simple(self):
        e = equation(ZL, pw("a", "x"), const(("a'",)))
        assert verify(e, {"x": 1})
        assert not verify(e, {"x": 2})

    def test_resource_exceeded(self):
        e = equation(ZL, pw("a", "x"))
        with pytest.raises(ResourceExceeded):
            verify(e, {"x": 2**40}, cap=10**6)

    def test_compressed_analogue(self):
        # (a b a')^x b^{-y} = 1 keeps boundaries short in conjugate-power form
        e = equation(AC, pw(("a", "b", "a'"), "x"), const(("a",)), pw(("b'",), "y"), const(("a'",)))
        # a b^x a' a b^-y a' = 1 iff x = y
        assert verify(e, {"x": 2**5, "y": 2**5})
        assert not verify(e, {"x": 2**5, "y": 2**5 - 1})

    def test_big_exponent_within_cap(self):
        e = equation(ZL, pw("a", "x"), pw(("a'",), "y"))
        assert verify(e, {"x": 2**20, "y": 2**20}, cap=2**21)


class TestBruteOracle:
    def test_singleton(self):
        e = equation(ZL, pw("a", "x"), const(("a'",)))
        assert brute_oracle(e, 5) == {(1,)}

    def test_knapsack_pair(self):
        # a^x b^y = ab, i.e. trailing constant (ab)^{-1} = b' a'
        e = equation(FREE2, pw("a", "x"), pw("b", "y"), const(("b'", "a'")))
        assert brute_oracle(e, 5) == {(1, 1)}

    def test_unsat(self):
        e = equation(AC, pw("a", "x"), const(("b",)))
        assert brute_oracle(e, 5) == set()


class TestRelaxation:
    def test_solvable(self):
        e = equation(ZL, pw("a", "x"), const(("a'",)))
        assert diophantine_solve(abelian_relaxation(e)) is not None

    def test_unsolvable(self):
        e = equation(AC, pw("a", "x"), const(("b",)))
        assert diophantine_solve(abelian_relaxation(e)) is None

    def test_balance(self):
        e = equation(ZL, pw("a", "x"), pw(("a'",), "y"))
        d = abelian_relaxation(e)
        assert d.A == ((1, -1),)
        assert d.a == (0,)


class TestSolveSearch:
    def test_witness(self):
        rep = solve_search(equation(ZL, pw("a", "x"), const(("a'",))))
        assert rep.status == "solvable" and rep.witness == {"x": 1}

    def test_certified_unsolvable(self):
        rep = solve_search(equation(AC, pw("a", "x"), const(("b",))))
        assert rep.status == "unsolvable"

    def test_knapsack_pair_capped(self):
        rep = solve_search(
            equation(FREE2, pw("a", "x"), pw("b", "y"), const(("b'", "a'"))), cap=5
        )
        assert rep.status == "solvable" and rep.witness == {"x": 1, "y": 1}

    def test_unknown(self):
        # solvable only with x = 7 > cap, relaxation solvable
        rep = solve_search(equation(ZL, pw("a", "x"), const(("a'",) * 7)), cap=3)
        assert rep.status == "unknown"


@st.composite
def search_equations(draw):
    """Equations of 1-5 items over a 3-6-letter graph, variables x and y; half
    the time a last constant plants a solution with exponents <= 6, beyond the
    search depth 4 now and then."""
    dbl = DoubledAlphabet(draw(alphabets(3, 6)))
    items = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            items.append(Const(free_reduce(dbl, draw(words(dbl, 8)))))
        else:
            items.append(Power(free_reduce(dbl, draw(words(dbl, 6))), draw(st.sampled_from("xy"))))
    e = ExponentEquation(dbl, items)
    if draw(st.booleans()):
        sigma = {v: draw(st.integers(0, 6)) for v in e.vars}
        e = ExponentEquation(dbl, items + [Const(_evaluate_by_mult(e, sigma, 10**6).inverse())])
    return e


class TestAgainstMultChain:
    """Preprocessing and search on signed piles and block products against the
    self-checked ``mult`` chains they replaced, kept in ``helpers``."""

    @settings(max_examples=300, deadline=None)
    @given(search_equations())
    def test_preprocess(self, e):
        pp, reference = preprocess(e), _preprocess_by_mult(e)
        assert pp.items == reference.items and pp.vars == reference.vars

    @settings(max_examples=200, deadline=None)
    @given(search_equations())
    def test_solve_search(self, e):
        rep = solve_search(e, cap=4)
        assert (rep.status, rep.witness) == _search_by_mult(e, 4)


class TestSolutionBound:
    def test_positive_and_monotone(self):
        b1 = solution_bound(equation(ZL, pw("a", "x"), const(("a'",))))
        b2 = solution_bound(equation(ZL, pw("a", "x"), const(("a'",) * 4)))
        assert 0 < b1 <= b2

    def test_heuristic_label(self):
        from ggsolve.solver.equations import bound_report_string

        assert bound_report_string(equation(ZL, pw("a", "x"))).startswith("HEURISTIC")


class TestZtoN:
    def test_simple(self):
        e = equation(ZL, pw("a", "x"), const(("a",)))  # a^x = a^{-1}: needs x = -1
        assert brute_oracle(e, 4) == set()
        rewritten, partner = z_to_n_rewrite(e)
        sols = brute_oracle(rewritten, 3)
        vars_ = rewritten.vars
        xi, yi = vars_.index("x"), vars_.index(partner["x"])
        assert any(s[xi] - s[yi] == -1 for s in sols)

    def test_repeated_variable_consistent(self):
        e = equation(ZL, pw("a", "x"), pw("a", "x"))
        rewritten, partner = z_to_n_rewrite(e)
        assert len(rewritten.vars) == 2
        powers = rewritten.powers()
        assert [p.var for p in powers] == ["x", partner["x"], "x", partner["x"]]

    def test_n_solvable_stays_solvable(self):
        e = equation(ZL, pw("a", "x"), const(("a'", "a'")))
        rewritten, partner = z_to_n_rewrite(e)
        sols = brute_oracle(rewritten, 4)
        assert (2, 0) in sols


class TestKnapsackAdapter:
    def test_basic(self):
        e = chain_equation(ZL, [(), ("a'", "a'")], [("a",)])
        assert brute_oracle(e, 5) == {(2,)}

    def test_word_problem_form(self):
        e = chain_equation(ZL, [()], [])
        assert brute_oracle(e, 0) == {()}

    def test_round_trip_solutions(self):
        e = chain_equation(FREE2, [(), (), ("b'", "a'", "a'")], [("a",), ("b",)])
        assert brute_oracle(e, 4) == {(2, 1)}

    def test_constants_between_powers(self):
        """Nonempty constants stay in place, empty ones are left out, and the
        powers get x1..xn."""
        e = chain_equation(FREE2, [("a",), (), ("a'",)], [("b",), ("b'",)])
        assert repr(e) == "Eq[a · (b)^x1 · (b')^x2 · a' = 1]"
        assert brute_oracle(e, 2) == {(0, 0), (1, 1), (2, 2)}


class TestSlpIntegration:
    def test_power_slp_exponent(self):
        g = power_slp(from_word(("a",)), 2**20)
        word = expand_capped(g, 2**21)
        assert len(word) == 2**20
        h = free_reduce(ZL, word)
        k = power_nf(free_reduce(ZL, "a"), 2**20, 2**21)
        assert h == k
