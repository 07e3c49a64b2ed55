"""Semilinear sets, Diophantine solving, two-power solution sets, identification."""

import itertools
import math
import random

import pytest

from ggsolve.errors import StructureError
from ggsolve.semilinear import (
    DiophantineSystem,
    LinearSet,
    SemilinearSet,
    diophantine_solve,
    format_semilinear,
    identify_variables,
    member,
    two_power_solutions,
)
from ggsolve.traces import IndependenceAlphabet, Trace, is_connected

from helpers import enumerate_members, lift_identified, power, random_alphabet, random_word

A1 = IndependenceAlphabet("a")
AB_DEP = IndependenceAlphabet("ab")


class TestMember:
    def test_in(self):
        s = SemilinearSet(2, [LinearSet((0, 0), [(2, 1)])])
        assert member(s, (4, 2))

    def test_out(self):
        s = SemilinearSet(2, [LinearSet((0, 0), [(2, 1)])])
        assert not member(s, (3, 1))

    def test_empty(self):
        assert not member(SemilinearSet(2, []), (0, 0))

    def test_grid_against_enumeration(self):
        rng = random.Random(4)
        for _ in range(40):
            dim = rng.randint(1, 3)
            comps = []
            for _ in range(rng.randint(1, 2)):
                base = tuple(rng.randint(0, 3) for _ in range(dim))
                periods = [
                    tuple(rng.randint(0, 2) for _ in range(dim))
                    for _ in range(rng.randint(0, 2))
                ]
                periods = [p for p in periods if any(p)]
                comps.append(LinearSet(base, periods))
            s = SemilinearSet(dim, comps)
            listed = enumerate_members(s, 8)
            for v in itertools.product(range(9), repeat=dim):
                assert member(s, v) == (v in listed)


class TestDiophantine:
    def test_two_three(self):
        d = DiophantineSystem([[2, -3]], [1])
        z = diophantine_solve(d)
        assert 2 * z[0] - 3 * z[1] == 1

    def test_zero_admissible(self):
        d = DiophantineSystem([[1, -1]], [0])
        z = diophantine_solve(d)
        assert z[0] == z[1]

    def test_bound_instantiation(self):
        # beta=3, n=1, m=2: overall image bound beta + n!*m*(m+1)*beta^(n+1) = 57
        beta, n, m = 3, 1, 2
        assert beta + math.factorial(n) * m * (m + 1) * beta ** (n + 1) == 57

    def test_cutoff_formula(self):
        # (m+1) * n! * beta^n with beta the max absolute entry (here 4, from a)
        d = DiophantineSystem([[2, -3], [1, 1]], [1, 4])
        assert d.cutoff() == (2 + 1) * math.factorial(2) * 4**2

    def test_unsolvable_certified(self):
        d = DiophantineSystem([[2]], [3])
        assert diophantine_solve(d) is None

    def test_agreement_with_exhaustive(self):
        """Random systems: solver agrees with small-box exhaustive search."""
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            A = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            a = [rng.randint(-4, 4) for _ in range(n)]
            d = DiophantineSystem(A, a)
            got = diophantine_solve(d)
            brute = None
            for z in itertools.product(range(13), repeat=m):
                if all(
                    sum(A[i][j] * z[j] for j in range(m)) == a[i] for i in range(n)
                ):
                    brute = z
                    break
            if brute is not None:
                assert got is not None
                assert all(
                    sum(A[i][j] * got[j] for j in range(m)) == a[i] for i in range(n)
                )
                assert max(got, default=0) <= d.cutoff()
            elif got is None:
                pass  # consistent: nothing in the small box, certified unsolvable
            else:
                assert all(
                    sum(A[i][j] * got[j] for j in range(m)) == a[i] for i in range(n)
                )


def brute_two_power(p, u, s, q, v, t, bound=20):
    out = set()
    for x in range(bound + 1):
        left = p * power(u, x) * s
        for y in range(bound + 1):
            if left == q * power(v, y) * t:
                out.add((x, y))
    return out


class TestTwoPower:
    def test_double_speed(self):
        e = Trace(A1, "")
        u = Trace(A1, "a")
        v = Trace(A1, "aa")
        sols = two_power_solutions(e, u, e, e, v, e)
        assert enumerate_members(sols, 40) == {(2 * z, z) for z in range(21)}

    def test_shifted(self):
        e = Trace(A1, "")
        a = Trace(A1, "a")
        sols = two_power_solutions(e, a, e, a, a, e)
        assert enumerate_members(sols, 21) == {(1 + z, z) for z in range(21)}

    def test_dependent_only_zero(self):
        e = Trace(AB_DEP, "")
        sols = two_power_solutions(
            e, Trace(AB_DEP, "a"), e, e, Trace(AB_DEP, "b"), e
        )
        assert enumerate_members(sols, 20) == {(0, 0)}

    def test_random_against_brute(self):
        rng = random.Random(12)
        done = 0
        while done < 35:
            alphabet = random_alphabet(rng, 3)
            u = Trace(alphabet, random_word(rng, alphabet, 3))
            v = Trace(alphabet, random_word(rng, alphabet, 3))
            if u.is_empty() or v.is_empty():
                continue
            if not (is_connected(u) and is_connected(v)):
                continue
            p = Trace(alphabet, random_word(rng, alphabet, 2))
            s = Trace(alphabet, random_word(rng, alphabet, 2))
            q = Trace(alphabet, random_word(rng, alphabet, 2))
            t = Trace(alphabet, random_word(rng, alphabet, 2))
            done += 1
            sols = two_power_solutions(p, u, s, q, v, t)
            brute = brute_two_power(p, u, s, q, v, t)
            got = {
                xy for xy in enumerate_members(sols, 20) if max(xy, default=0) <= 20
            }
            got = {(x, y) for (x, y) in got if x <= 20 and y <= 20}
            assert got == brute, (alphabet, p, u, s, q, v, t)


class TestIdentify:
    def test_identity_map(self):
        s = SemilinearSet(2, [LinearSet((1, 2), [(1, 0), (0, 1)])])
        out = identify_variables(s, {0: 0, 1: 1})
        assert enumerate_members(out, 6) == enumerate_members(s, 6)

    def test_full_plane_to_diagonal(self):
        """Identification is solved for at most one period; two raise StructureError."""
        s = SemilinearSet(2, [LinearSet((0, 0), [(1, 0), (0, 1)])])
        with pytest.raises(StructureError):
            identify_variables(s, {0: 0, 1: 0})
        one = SemilinearSet(2, [LinearSet((0, 0), [(1, 1)]), LinearSet((1, 2), [(1, 0), (0, 1)])])
        with pytest.raises(StructureError):
            identify_variables(one, {0: 0, 1: 0})
        assert identify_variables(s, {0: 0, 1: 1}).components == s.components

    def test_two_three_diagonal(self):
        s = SemilinearSet(2, [LinearSet((0, 0), [(2, 3)])])
        out = identify_variables(s, {0: 0, 1: 0})
        # 2z = 3z forces z = 0
        assert enumerate_members(out, 30) == {(0,)}

    def test_grid_equivalence_random(self):
        rng = random.Random(19)
        for _ in range(60):
            dim = rng.randint(2, 3)
            comps = []
            for _ in range(rng.randint(1, 2)):
                base = tuple(rng.randint(0, 2) for _ in range(dim))
                periods = [
                    tuple(rng.randint(0, 2) for _ in range(dim))
                    for _ in range(rng.randint(0, 1))
                ]
                periods = [p for p in periods if any(p)]
                comps.append(LinearSet(base, periods))
            s = SemilinearSet(dim, comps)
            reps = {0: 0}
            for i in range(1, dim):
                reps[i] = rng.choice([0, i] if i != 1 else [0, 1])
            # make rep map idempotent
            for i in range(dim):
                reps[i] = reps[reps[i]]
            out = identify_variables(s, reps)
            k = out.dimension
            for v in itertools.product(range(13), repeat=k):
                lifted = lift_identified(v, reps, dim)
                assert member(out, v) == member(s, lifted), (s.components, reps, v)


def test_format():
    s = SemilinearSet(2, [LinearSet((2, 1), [(2, 1)]), LinearSet((0, 0))])
    text = format_semilinear(s)
    assert text.splitlines() == [
        "lin base=(2,1) periods=((2,1))",
        "lin base=(0,0) periods=()",
    ]
