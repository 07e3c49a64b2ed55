"""HNN-extensions over finite associated subgroups: saturation of knapsack automata.

The presentation adjoins a stable letter t with t^{-1} a t = phi(a) for an
isomorphism phi between two finite subgroups of the base group.  Membership
of the identity in a knapsack automaton's language is decided by two-phase
saturation on the normal form of ``_Builder.normalize`` (initial state and
finals off cycles, every edge into a cycle an epsilon edge from outside any
cycle): reduction paths (spelling t^{-alpha} w t^{alpha} with h(w) in the
associated subgroup) on cycles are surgically replaced by shortcut edges with
bypass paths; reduction paths across components get shortcut edges directly.
After saturation, all stable-letter edges are removed and the base oracle
decides membership of 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..automata import EPS, Nfa
from ..errors import StructureError
from ..groups import inverse_letter, invert_word
from .kauto import ShapeInfo, _Builder, equation_chain, plain_alphabet
from .oracles import GroupOracle


def subgroup_table(oracle: GroupOracle, words: Sequence[Sequence[str]]) -> List[List[int]]:
    """Multiplication table, by index, of the elements ``words`` spell in the group.

    StructureError unless the list is nonempty, its words spell distinct
    elements and every product is among them.  A finite subset closed under
    products contains 1 and every inverse, so the words spell a subgroup.
    """
    if not words:
        raise StructureError("a subgroup must contain 1")
    inverses = [invert_word(w) for w in words]
    table = []
    for u in words:
        row = []
        for v in words:
            uv = tuple(u) + tuple(v)
            k = next((k for k, w in enumerate(inverses) if oracle.is_identity(uv + w)), None)
            if k is None:
                raise StructureError("subgroup not closed under product")
            row.append(k)
        table.append(row)
    # A product is found at the first word equal to it, so a word equal to an
    # earlier one is never in the table; distinct words all are, in 1's row.
    if len({k for row in table for k in row}) < len(table):
        raise StructureError("duplicate subgroup element")
    return table


class HnnPresentation:
    """Base oracle, finite associated subgroups A(+1), A(-1) (as representative
    words), the stable letter, and ``image[alpha][i]``: the representative of
    phi^alpha applied to element i of A(alpha)."""

    def __init__(
        self,
        base: GroupOracle,
        assoc_pos: Sequence[Sequence[str]],
        assoc_neg: Sequence[Sequence[str]],
        phi_pairs: Sequence[Tuple[Sequence[str], Sequence[str]]],
        stable: str = "t",
    ):
        self.base = base
        if stable in base.letters or inverse_letter(stable) in base.letters:
            raise StructureError("stable letter collides with base generators")
        self.stable = stable
        self.assoc = {1: [tuple(w) for w in assoc_pos], -1: [tuple(w) for w in assoc_neg]}
        self.letters = tuple(base.letters) + (stable, inverse_letter(stable))
        table = {alpha: subgroup_table(base, self.assoc[alpha]) for alpha in (1, -1)}
        pairs = [(self.element_index(1, wp), self.element_index(-1, wn)) for wp, wn in phi_pairs]
        if any(None in pair for pair in pairs):
            raise StructureError("phi pair outside the associated subgroups")
        for side, alpha in ((0, 1), (1, -1)):
            if sorted(pair[side] for pair in pairs) != list(range(len(table[alpha]))):
                raise StructureError("phi is not a bijection between the subgroups")
        phi = dict(pairs)
        if any(phi[table[1][i][j]] != table[-1][phi[i]][phi[j]] for i in phi for j in phi):
            raise StructureError("phi does not respect the multiplication tables")
        self.image = {
            1: [self.assoc[-1][phi[i]] for i in range(len(phi))],
            -1: [self.assoc[1][i] for i in sorted(phi, key=phi.get)],
        }

    def element_index(self, alpha: int, word: Sequence[str]) -> Optional[int]:
        """Index of the subgroup element equal to ``word``, or None."""
        for i, rep in enumerate(self.assoc[alpha]):
            if self.base.is_identity(tuple(word) + invert_word(rep)):
                return i
        return None


def _find_cycle_reduction(h: HnnPresentation, shape: ShapeInfo):
    """A reduction path along some cycle and its shortcut: (p, q, edges, phi word)."""
    t, ti = h.stable, inverse_letter(h.stable)
    for cid, comp in enumerate(shape.components):
        if not shape.is_cycle[cid]:
            continue
        for p in sorted(comp, key=repr):
            a0, r = shape.cycle_next[p]
            if a0 == ti:
                alpha = 1
            elif a0 == t:
                alpha = -1
            else:
                continue
            closing = t if alpha == 1 else ti
            word: List[str] = []
            edges = [(p, a0, r)]
            cur = r
            ok = None
            for _ in range(len(comp)):
                a, nxt = shape.cycle_next[cur]
                edges.append((cur, a, nxt))
                if a == closing:
                    ok = nxt
                    break
                if a in (t, ti):
                    break
                if a is not EPS:
                    word.append(a)
                cur = nxt
            if ok is None:
                continue
            idx = h.element_index(alpha, tuple(word))
            if idx is not None:
                return p, ok, edges, h.image[alpha][idx]
    return None


def hnn_saturate(h: HnnPresentation, nfa: Nfa) -> bool:
    """Does the automaton accept a word representing 1 in the HNN-extension?"""
    t, ti = h.stable, inverse_letter(h.stable)
    b = _Builder.from_nfa(nfa)
    shape = b.saturate_cycles(lambda shape: _find_cycle_reduction(h, shape), {t, ti})

    # Phase 2: shortcut reduction paths across components.  A shortcut joins
    # p to a q it already reaches, so the components, and ``shape``, stay.
    # Shortcuts spell base words, so the stable-letter edges stay too: a
    # path p -> p2 reading t^-alpha, then q2 -> q reading t^alpha.
    stable_edges = {a: [(p, q) for (p, x, q) in b.edges if x == a] for a in (t, ti)}
    power = {1: t, -1: ti}
    added: Set[tuple] = set()
    while True:
        base = b.restrict(h.base.alphabet)
        grew = False
        for alpha in (1, -1):
            for (p, p2) in stable_edges[power[-alpha]]:
                reach = base.forward(p2)
                for (q2, q) in stable_edges[power[alpha]]:
                    if q2 not in reach or shape.comp_of[p] == shape.comp_of[q]:
                        continue
                    for idx, rep in enumerate(h.assoc[alpha]):
                        key = (p, q, alpha, idx)
                        if key in added:
                            continue
                        if h.base.reaches(base, p2, q2, rep):
                            added.add(key)
                            b.path(p, h.image[alpha][idx], q, "c")
                            grew = True
        if not grew:
            break

    # Final: drop the stable-letter edges and ask the base oracle about 1
    return h.base.ka_membership(b.restrict(h.base.alphabet).cut(b.initial, b.finals), ())


def hnn_knapsack(
    h: HnnPresentation, base_words: Sequence[Sequence[str]], target: Sequence[str]
) -> bool:
    """Knapsack over the HNN-extension: does target^-1 w1* ... wk* accept 1?"""
    v_words = [invert_word(tuple(target))] + [()] * len(base_words)
    return hnn_saturate(h, equation_chain(plain_alphabet(h.letters), v_words, base_words))
