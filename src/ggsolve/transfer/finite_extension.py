"""Finite extensions: coset rewriting tables and the transfer reduction.

H is a finite extension of G with coset representatives C (1 in C) and a
rewriting table c*b = g*c' (g a word over G's generators).  H acts on the
cosets by right multiplication, so the coset map c -> c' of every word is a
permutation of C: the table check makes c*b*b^-1 rewrite back to c, so
each letter's map has an inverse.  A power u^x entered at coset d therefore
walks round the cycle of d under u's map; with l the length of that cycle,
x = l*y + r (0 <= r < l) splits N one to one onto N x [0, l), and u^x read
from d is B^y followed by the G-word of u^r from d, where B is the G-word
of u^l from d.

A generalized knapsack instance over H thus reduces to finitely many over
G.  The cosets c_1, c_2, ... are picked depth-first: c_i runs over the
cycle of the entry coset d_(i-1) in the order of C, and d_i is the coset
c_i * v_i ends in; a sequence with d_n = 1 is one question to G's oracle
(``GroupOracle.knapsack``), with the pieces rewritten into G.  Each call
rewrites every input word once from each coset it is read from (the
per-call step memo) and folds the pieces from those steps.
"""

from __future__ import annotations

import functools
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


def finite_ext_reduce(
    fe: FiniteExtension,
    v_words: Sequence[Sequence[str]],
    u_words: Sequence[Sequence[str]],
) -> bool:
    """Solvability of v0 u1^{x1} v1 ... un^{xn} vn = 1 over H, each power with its own variable.

    Walks the coset cycles depth-first from the coset v0 ends in: power i,
    entered at coset d, continues from each coset c of d's cycle in
    ``fe.cosets`` order with x_i = l*y_i + r, and each walk that ends in the
    coset of 1 is one ``fe.g_oracle.knapsack`` question over G.
    """
    n = len(u_words)
    if len(v_words) != n + 1:
        raise StructureError("need n+1 constants around n powers")
    # word w: v_w for w <= n, u_(w-n) for w > n
    words = [tuple(w) for w in (*v_words, *u_words)]
    step = functools.cache(lambda w, coset: fe.rewrite(coset, words[w]))

    @functools.cache
    def cycle(i: int, d: str) -> Tuple[tuple, Dict[str, tuple]]:
        """Power i entered at coset d: the G-word B of u^l from d, l the length
        of d's cycle, and the cycle in ``fe.cosets`` order, each coset c with
        the G-word of u^r from d, r the first step reaching c."""
        reached: Dict[str, tuple] = {}
        c, walked = d, ()
        while c not in reached:
            reached[c] = walked
            gw, c = step(n + 1 + i, c)
            walked += gw
        if c != d:
            raise InternalError("bracketed pieces end in the wrong cosets")
        return walked, {c: reached[c] for c in fe.cosets if c in reached}

    def walk(i: int, d: str, head: tuple, g_vs: List[tuple], g_bases: List[tuple]) -> bool:
        """Choose c_(i+1).. along the cycles; ask G about each walk that ends in 1."""
        if i == n:
            # instance v'0 B1^{y1} v'1 ... Bn^{yn} v'n = 1 over G
            return d == fe.one and fe.g_oracle.knapsack(g_vs + [head], g_bases)
        base, reached = cycle(i, d)
        for c, walked in reached.items():
            tail, d_next = step(i + 1, c)
            if walk(i + 1, d_next, walked + tail, g_vs + [head], g_bases + [base]):
                return True
        return False

    head, d = step(0, fe.one)
    return walk(0, d, head, [], [])
