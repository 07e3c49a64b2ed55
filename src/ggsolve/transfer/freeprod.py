"""Free products: epsilon-shortcut saturation of knapsack automata.

Reduction paths here are nonempty one-factor paths representing the factor's
identity; on a cycle they additionally require the cycle to contain a letter
of the other factor (so the surgery shrinks the cycle's letter count).  The
saturation needs the normal form of ``_Builder.normalize``: initial state
and finals off cycles, and every edge entering a cycle an epsilon edge from
outside any cycle.
"""

from __future__ import annotations

from typing import List, Sequence

from ..automata import EPS, Nfa
from .kauto import ShapeInfo, _Builder
from .oracles import FreeProductOracle


def _find_cycle_reduction(oracle: FreeProductOracle, shape: ShapeInfo):
    """A one-factor identity path on a cycle whose cycle has other-factor letters.

    Returns (p, q, edges, ()): the shortcut is an epsilon edge.
    """
    for cid, comp in enumerate(shape.components):
        if not shape.is_cycle[cid]:
            continue
        factors_present = set()
        for s in comp:
            a, _ = shape.cycle_next[s]
            if a is not EPS:
                factors_present.add(oracle.factor_of(a))
        for p in sorted(comp, key=repr):
            for i in (0, 1):
                if (1 - i) not in factors_present:
                    continue  # condition (b): the cycle must keep a letter
                word: List[str] = []
                edges = []
                cur = p
                for _ in range(len(comp)):
                    a, nxt = shape.cycle_next[cur]
                    if a is not EPS and oracle.factor_of(a) != i:
                        break
                    edges.append((cur, a, nxt))
                    if a is not EPS:
                        word.append(a)
                    cur = nxt
                    if word and oracle.factor(i).is_identity(word):
                        return p, cur, edges, ()
    return None


def free_product_saturate(
    oracle: FreeProductOracle, nfa: Nfa, prepend: Sequence[str]
) -> bool:
    """Does ``prepend`` followed by a word of the automaton represent 1 in the free product?"""
    b = _Builder.from_nfa(nfa)
    b.prepend(prepend)
    shape = b.saturate_cycles(
        lambda shape: _find_cycle_reduction(oracle, shape), set(oracle.letters)
    )

    # Phase 2: cross-component reduction paths get epsilon shortcuts.  A
    # shortcut joins p to a q it already reaches, so the components, and
    # ``shape``, stay.
    while True:
        grew = False
        states = list(b.states)
        for factor in (oracle.left, oracle.right):
            part = b.restrict(factor.alphabet)
            for p in states:
                reach = part.forward(p)
                for q in states:  # creation order, not the hash order of ``reach``
                    if q not in reach or p == q or shape.comp_of[p] == shape.comp_of[q]:
                        continue
                    if (p, EPS, q) in b.edges:
                        continue
                    if factor.reaches(part, p, q, ()):
                        b.edge(p, EPS, q)
                        grew = True
        if not grew:
            break

    # Final: some factor restriction accepts a word representing 1
    for factor in (oracle.left, oracle.right):
        if factor.ka_membership(b.restrict(factor.alphabet).cut(b.initial, b.finals), ()):
            return True
    return False
