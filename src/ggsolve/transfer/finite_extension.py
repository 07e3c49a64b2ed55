"""Finite extensions: coset rewriting tables and the transfer reduction.

H is a finite extension of G with coset representatives C (1 in C) and a
rewriting table c*b = g*c' (g a word over G's generators).  A generalized
knapsack instance over H reduces to finitely many instances over G: small
exponents (below m = |C|) are merged into the constants; for the all-large
core, x_i = m + k_i*y_i + r_i with k_i the period of the coset map f_i of u_i
after m steps.  The cosets c_1, c_2, ... are picked depth-first: c_i runs
over the orbit of e_i = f_i^m(d_(i-1)) in the order of C, r_i is the step at
which the walk from e_i reaches it, and d_i is the coset the rest of the
bracket ends in; a sequence with d_n = 1 is one question to G's oracle
(``GroupOracle.knapsack``), with the bracketed pieces rewritten into G.

Each call rewrites every input word once from each coset it is read from
(the per-call step memo) and the words u^m and u^k once per power and
coset; constants, tails u^r v and the all-small products are folded from
those steps, never re-read letter by letter.  An all-small product's G-word
is spelled only when its coset, read from the same steps, is 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, List, Sequence, Tuple

from ..errors import InternalError, StructureError
from ..groups import inverse_letter
from .oracles import GroupOracle


class FiniteExtension:
    """Rewriting system for H over G: total table (coset, letter) -> (g-word, coset)."""

    def __init__(
        self,
        g_oracle: GroupOracle,
        ext_letters: Sequence[str],
        cosets: Sequence[str],
        one_coset: str,
        table: Dict[Tuple[str, str], Tuple[tuple, str]],
    ):
        self.g_oracle = g_oracle
        self.ext_letters = tuple(ext_letters)
        self.cosets = tuple(cosets)
        self.one = one_coset
        if one_coset not in self.cosets:
            raise StructureError("coset of 1 missing from the coset list")
        self.table = {key: (tuple(gw), c) for key, (gw, c) in table.items()}
        for c in self.cosets:
            for b in self.ext_letters:
                for letter in (b, inverse_letter(b)):
                    if (c, letter) not in self.table:
                        raise StructureError(f"rewriting table misses ({c},{letter})")
                    if self.table[(c, letter)][1] not in self.cosets:
                        raise StructureError(f"rewriting table leaves the cosets at ({c},{letter})")
        self.validate()

    @property
    def m(self) -> int:
        return len(self.cosets)

    def rewrite(self, coset: str, word: Sequence[str]) -> Tuple[tuple, str]:
        """Fold the table: coset * word = g-word * coset' in H."""
        g_out: List[str] = []
        c = coset
        for letter in word:
            gw, c = self.table[(c, letter)]
            g_out.extend(gw)
        return tuple(g_out), c

    def validate(self) -> None:
        """c * b * b^{-1} must rewrite back to c with a trivial G-part."""
        for c in self.cosets:
            for b in self.ext_letters:
                for letter in (b, inverse_letter(b)):
                    gw, c2 = self.rewrite(c, (letter, inverse_letter(letter)))
                    if c2 != c or not self.g_oracle.is_identity(gw):
                        raise StructureError(
                            f"rewriting table inconsistent at ({c},{letter})"
                        )


def _iterate(f: Dict[str, str], n: int) -> Dict[str, str]:
    out = {c: c for c in f}
    for _ in range(n):
        out = {c: f[out[c]] for c in out}
    return out


def _orbit_parameters(f: Dict[str, str], m: int) -> Tuple[Dict[str, str], int]:
    """(f^m, k) with k minimal >= 1 such that f^(m+k) = f^m.

    The coset map is a permutation (right multiplication), so k is its order,
    which can exceed m (lcm of cycle lengths); search up to lcm(1..m).
    """
    fm = _iterate(f, m)
    cur = dict(fm)
    bound = math.lcm(*range(1, m + 1)) if m >= 1 else 1
    for k in range(1, bound + 1):
        cur = {c: f[cur[c]] for c in cur}
        if cur == fm:
            return fm, k
    raise InternalError("coset map has no period")  # pragma: no cover


def finite_ext_reduce(
    fe: FiniteExtension,
    v_words: Sequence[Sequence[str]],
    u_words: Sequence[Sequence[str]],
) -> bool:
    """Solvability of v0 u1^{x1} v1 ... un^{xn} vn = 1 over H, each power with its own variable.

    Deterministically enumerates the branch structure: which exponents stay
    below m (merged into constants), then the live coset sequences in
    ``fe.cosets`` order, one ``fe.g_oracle.knapsack`` question each.
    """
    g_oracle = fe.g_oracle
    n = len(u_words)
    if len(v_words) != n + 1:
        raise StructureError("need n+1 constants around n powers")
    m = fe.m
    rank = {c: i for i, c in enumerate(fe.cosets)}
    # word w of a run: v_w for w <= n, u_(w-n) for w > n
    words = [tuple(w) for w in (*v_words, *u_words)]
    memo = functools.lru_cache(maxsize=None)
    step = memo(lambda w, coset: fe.rewrite(coset, words[w]))

    def fold(coset: str, run: tuple) -> Tuple[tuple, str]:
        """coset * (the words of ``run``) = g-word * coset', one step per word."""
        g_out: List[str] = []
        for w in run:
            gw, coset = step(w, coset)
            g_out.extend(gw)
        return tuple(g_out), coset

    def end_coset(coset: str, run: tuple) -> str:
        """coset' of ``fold(coset, run)``, without spelling its g-word."""
        for w in run:
            coset = step(w, coset)[1]
        return coset

    @memo
    def orbit_parameters(i: int) -> Tuple[Dict[str, str], int]:
        return _orbit_parameters({c: step(n + 1 + i, c)[1] for c in fe.cosets}, m)

    @memo
    def bracket(i: int, d: str) -> tuple:
        """The pieces of power i entered from coset d: the G-words of u^m from d
        and of u^k from e = f^m(d), and the orbit of e in ``fe.cosets`` order,
        each coset c with the G-word of u^r from e, r the first step reaching c."""
        fm, k = orbit_parameters(i)
        e = fm[d]
        u = words[n + 1 + i]
        a_word, c_after = fe.rewrite(d, u * m)
        b_word, c_loop = fe.rewrite(e, u * k)
        if (c_after, c_loop) != (e, e):
            raise InternalError("bracketed pieces end in the wrong cosets")
        orbit: Dict[str, tuple] = {}
        c, walked = e, ()
        while c not in orbit:
            orbit[c] = walked
            gw, c = step(n + 1 + i, c)
            walked += gw
        return a_word, b_word, tuple(sorted(orbit.items(), key=lambda item: rank[item[0]]))

    def walk(j: int, d: str, head: tuple, g_vs: List[tuple], g_bases: List[tuple]) -> bool:
        """Choose c_j.. of the current branch (``runs``, ``large``) along the
        orbits; ask G about each sequence that ends in 1."""
        if j == len(large):
            # instance v'0 B1^{y1} v'1 ... Bn^{yn} v'n = 1 over G
            return d == fe.one and g_oracle.knapsack(g_vs + [head], g_bases)
        a_word, b_word, orbit = bracket(large[j], d)
        for c, walked in orbit:
            tail, d_next = fold(c, runs[j + 1])
            if walk(j + 1, d_next, walked + tail, g_vs + [head + a_word], g_bases + [b_word]):
                return True
        return False

    # enumerate which variables are small and their concrete values
    for small_mask in range(1 << n):
        small = [i for i in range(n) if small_mask >> i & 1]
        large = [i for i in range(n) if not small_mask >> i & 1]
        for values in itertools.product(range(m), repeat=len(small)):
            assignment = dict(zip(small, values))
            runs: List[tuple] = [(0,)]
            for i in range(n):
                if i in assignment:
                    runs[-1] += (n + 1 + i,) * assignment[i] + (i + 1,)
                else:
                    runs.append((i + 1,))
            if large:
                head, d = fold(fe.one, runs[0])
                if walk(0, d, head, [], []):
                    return True
            elif end_coset(fe.one, runs[0]) == fe.one:
                if g_oracle.is_identity(fold(fe.one, runs[0])[0]):
                    return True
    return False
