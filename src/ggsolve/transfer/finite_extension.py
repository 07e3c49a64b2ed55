"""Finite extensions: coset rewriting tables and the transfer reduction.

H is a finite extension of G with coset representatives C (1 in C) and a
rewriting table c*b = g*c' (g a word over G's generators).  A generalized
knapsack instance over H reduces to finitely many instances over G: small
exponents are merged into the constants; for the all-large core, the c_i
cosets are enumerated, the orbit data of the coset maps f_i produces the
arithmetic shape x_i = m + k_i*y_i + r_i, and the bracketed pieces are
rewritten into G via the table.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InternalError, StructureError
from ..groups import inverse_letter
from .kauto import equation_chain
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

    def coset_of(self, word: Sequence[str]) -> str:
        return self.rewrite(self.one, word)[1]

    def in_g(self, word: Sequence[str]) -> bool:
        return self.coset_of(word) == self.one

    def is_identity_in_h(self, word: Sequence[str]) -> bool:
        gw, c = self.rewrite(self.one, word)
        return c == self.one and self.g_oracle.is_identity(gw)

    def coset_map(self, word: Sequence[str]) -> Dict[str, str]:
        """f: c -> the unique d with c*word*d^{-1} in G."""
        return {c: self.rewrite(c, word)[1] for c in self.cosets}


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
    import math

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
    g_oracle: Optional[GroupOracle] = None,
    variables: Optional[Sequence[str]] = None,
) -> bool:
    """Solvability of v0 u1^{x1} v1 ... un^{xn} vn = 1 over H (distinct variables).

    Repeated variables are rejected; restate the instance with the knapsack
    adapters first.  Deterministically enumerates the branch structure: which
    exponents stay below m (merged into constants), then the coset tuples.
    """
    if g_oracle is None:
        g_oracle = fe.g_oracle
    n = len(u_words)
    if len(v_words) != n + 1:
        raise StructureError("need n+1 constants around n powers")
    if variables is not None and len(set(variables)) != len(tuple(variables)):
        raise StructureError(
            "finite_ext_reduce needs pairwise distinct variables; "
            "use the knapsack adapters to restate repeated-variable instances"
        )
    m = fe.m

    def solve_core(vs: List[tuple], us: List[tuple]) -> bool:
        """All remaining exponents assumed >= m."""
        nn = len(us)
        if nn == 0:
            return fe.is_identity_in_h(vs[0])
        fmaps = [fe.coset_map(u) for u in us]
        orbit = [_orbit_parameters(f, m) for f in fmaps]
        d0 = fe.coset_of(vs[0])
        for cs in itertools.product(fe.cosets, repeat=nn):
            ds = [d0]
            ok = True
            for i in range(nn):
                ds.append(fe.rewrite(cs[i], vs[i + 1])[1])
            if ds[nn] != fe.one:
                continue
            g_vs: List[tuple] = []
            g_bases: List[tuple] = []
            head, _ = fe.rewrite(fe.one, vs[0])  # v0 d0^{-1} as a G-word
            dead = False
            for i in range(nn):
                f = fmaps[i]
                fm, k_i = orbit[i]
                e_i = fm[ds[i]]
                # find r_i in [0, k_i) with f^(m+r_i)(d_{i-1}) = c_i
                r_i = None
                probe = e_i
                for r in range(k_i):
                    if probe == cs[i]:
                        r_i = r
                        break
                    probe = f[probe]
                if r_i is None:
                    dead = True
                    break
                # bracketed pieces rewritten into G
                a_word, c_after = fe.rewrite(ds[i], tuple(us[i]) * m)
                b_word, c_loop = fe.rewrite(e_i, tuple(us[i]) * k_i)
                tail_word, c_tail = fe.rewrite(e_i, tuple(us[i]) * r_i + tuple(vs[i + 1]))
                if (c_after, c_loop, c_tail) != (e_i, e_i, ds[i + 1]):
                    raise InternalError("bracketed pieces end in the wrong cosets")
                g_vs.append(tuple(head) + a_word)
                g_bases.append(b_word)
                head = tail_word
            if dead:
                continue
            g_vs.append(tuple(head))
            # instance v'0 B1^{y1} v'1 ... Bn^{yn} v'n = 1 over G
            if g_oracle.ka_membership(equation_chain(g_oracle.alphabet, g_vs, g_bases), ()):
                return True
        return False

    # enumerate which variables are small and their concrete values
    for small_mask in range(1 << n):
        small = [i for i in range(n) if small_mask >> i & 1]
        large = [i for i in range(n) if not small_mask >> i & 1]
        value_ranges = [range(m) for _ in small]
        for values in itertools.product(*value_ranges):
            assignment = dict(zip(small, values))
            vs: List[tuple] = [tuple(v_words[0])]
            us: List[tuple] = []
            for i in range(n):
                if i in assignment:
                    vs[-1] = vs[-1] + tuple(u_words[i]) * assignment[i] + tuple(
                        v_words[i + 1]
                    )
                else:
                    us.append(tuple(u_words[i]))
                    vs.append(tuple(v_words[i + 1]))
            if solve_core(vs, us):
                return True
    return False
