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

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..automata import EPS, Nfa
from ..errors import StructureError
from ..groups import inverse_letter, invert_word
from .kauto import ShapeInfo, _Builder, equation_chain, plain_alphabet
from .oracles import GroupOracle


class HnnPresentation:
    """Base oracle, finite associated subgroups A(+1), A(-1) (as representative
    words) with multiplication indices, the isomorphism phi, and the stable letter."""

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
        self.assoc = {
            1: [tuple(w) for w in assoc_pos],
            -1: [tuple(w) for w in assoc_neg],
        }
        self.letters = tuple(base.letters) + (stable, inverse_letter(stable))
        self._validate_subgroups()
        self.phi: Dict[int, int] = {}
        for wp, wn in phi_pairs:
            i = self.element_index(1, tuple(wp))
            j = self.element_index(-1, tuple(wn))
            if i is None or j is None:
                raise StructureError("phi pair outside the associated subgroups")
            if i in self.phi:
                raise StructureError("phi defined twice on an element")
            self.phi[i] = j
        if set(self.phi) != set(range(len(self.assoc[1]))) or set(
            self.phi.values()
        ) != set(range(len(self.assoc[-1]))):
            raise StructureError("phi is not a bijection between the subgroups")
        self._validate_phi()

    # -- subgroup structure -------------------------------------------------

    def element_index(self, alpha: int, word: Sequence[str]) -> Optional[int]:
        """Index of the subgroup element equal to ``word``, or None."""
        for i, rep in enumerate(self.assoc[alpha]):
            if self.base.is_identity(tuple(word) + invert_word(rep)):
                return i
        return None

    def _mult_index(self, alpha: int, i: int, j: int) -> Optional[int]:
        return self.element_index(alpha, self.assoc[alpha][i] + self.assoc[alpha][j])

    def _validate_subgroups(self) -> None:
        for alpha in (1, -1):
            reps = self.assoc[alpha]
            if not reps:
                raise StructureError("associated subgroups must contain 1")
            # distinct elements, closed under product and inverse, contain 1
            for i, r in enumerate(reps):
                for j in range(i + 1, len(reps)):
                    if self.base.is_identity(r + invert_word(reps[j])):
                        raise StructureError("duplicate subgroup element")
            if self.element_index(alpha, ()) is None:
                raise StructureError("associated subgroup misses the identity")
            for i in range(len(reps)):
                if self.element_index(alpha, invert_word(reps[i])) is None:
                    raise StructureError("subgroup not closed under inverse")
                for j in range(len(reps)):
                    if self._mult_index(alpha, i, j) is None:
                        raise StructureError("subgroup not closed under product")

    def _validate_phi(self) -> None:
        n = len(self.assoc[1])
        for i in range(n):
            for j in range(n):
                k = self._mult_index(1, i, j)
                img = self.element_index(
                    -1, self.assoc[-1][self.phi[i]] + self.assoc[-1][self.phi[j]]
                )
                if img != self.phi[k]:
                    raise StructureError("phi does not respect the multiplication tables")

    def phi_image(self, alpha: int, index: int) -> tuple:
        """Representative word of phi^alpha applied to element ``index`` of A(alpha)."""
        if alpha == 1:
            return self.assoc[-1][self.phi[index]]
        inv = {v: k for k, v in self.phi.items()}
        return self.assoc[1][inv[index]]


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
                return p, ok, edges, h.phi_image(alpha, idx)
    return None


def hnn_saturate(h: HnnPresentation, nfa: Nfa) -> bool:
    """Does the automaton accept a word representing 1 in the HNN-extension?"""
    t, ti = h.stable, inverse_letter(h.stable)
    b = _Builder.from_nfa(nfa)
    shape = b.saturate_cycles(lambda shape: _find_cycle_reduction(h, shape), {t, ti})

    # Phase 2: shortcut reduction paths across components.  A shortcut joins
    # p to a q it already reaches, so the components, and ``shape``, stay.
    added: Set[tuple] = set()
    while True:
        base = b.restrict(h.base.alphabet)
        t_in = {}  # alpha -> list of (p, p') reading t^{-alpha}
        t_out = {}  # alpha -> list of (q', q) reading t^{alpha}
        t_in[1] = [(p, q) for (p, a, q) in b.edges if a == ti]
        t_in[-1] = [(p, q) for (p, a, q) in b.edges if a == t]
        t_out[1] = [(p, q) for (p, a, q) in b.edges if a == t]
        t_out[-1] = [(p, q) for (p, a, q) in b.edges if a == ti]
        grew = False
        for alpha in (1, -1):
            for (p, p2) in t_in[alpha]:
                reach = base.forward(p2)
                for (q2, q) in t_out[alpha]:
                    if q2 not in reach:
                        continue
                    if shape.comp_of[p] == shape.comp_of[q]:
                        continue
                    for idx, rep in enumerate(h.assoc[alpha]):
                        key = (p, q, alpha, idx)
                        if key in added:
                            continue
                        if h.base.reaches(base, p2, q2, rep):
                            added.add(key)
                            b.path(p, h.phi_image(alpha, idx), q, "c")
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
