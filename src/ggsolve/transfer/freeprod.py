"""Free products: epsilon-shortcut saturation of knapsack automata.

Reduction paths here are nonempty one-factor paths representing the factor's
identity; on a cycle they additionally require the cycle to contain a letter
of the other factor (so the surgery shrinks the cycle's letter count).  The
maintained invariants: no edge between distinct cycles, initial/finals off
cycles, and every edge entering a cycle is an epsilon edge.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..automata import EPS, Nfa
from .kauto import KnapsackAutomaton, ShapeInfo, _Builder, plain_alphabet
from .hnn import _surgery
from .oracles import FreeProductOracle, GroupOracle


def free_product_normalize(
    left: GroupOracle, right: GroupOracle, ka: KnapsackAutomaton
) -> KnapsackAutomaton:
    """Enforce the three invariants with epsilon splitting."""
    letters = tuple(left.letters) + tuple(right.letters)
    alphabet = plain_alphabet(letters)
    b = _Builder.from_nfa(ka.nfa)
    changed = True
    while changed:
        changed = False
        shape = ShapeInfo(b.to_nfa(alphabet))
        if shape.on_cycle(b.initial):
            fresh = b.fresh_nonclashing("i")
            b.edge(fresh, EPS, b.initial)
            if b.initial in b.finals:
                b.finals.add(fresh)
            b.initial = fresh
            changed = True
            continue
        cyc_finals = [f for f in b.finals if shape.on_cycle(f)]
        if cyc_finals:
            f = cyc_finals[0]
            fresh = b.fresh_nonclashing("f")
            b.edge(f, EPS, fresh)
            b.finals.discard(f)
            b.finals.add(fresh)
            changed = True
            continue
        for (p, a, q) in sorted(b.edges, key=repr):
            if not shape.on_cycle(q):
                continue
            if shape.comp_of[p] == shape.comp_of[q]:
                continue  # the cycle's own edge
            if a is EPS and not shape.on_cycle(p):
                continue  # already a conforming entry edge
            fresh = b.fresh_nonclashing("m")
            b.edges.discard((p, a, q))
            b.edge(p, a, fresh)
            b.edge(fresh, EPS, q)
            changed = True
            break
    return KnapsackAutomaton(b.to_nfa(alphabet))


def _cycle_letter_count(shape: ShapeInfo) -> int:
    total = 0
    for cid, comp in enumerate(shape.components):
        if not shape.is_cycle[cid]:
            continue
        for s in comp:
            a, _ = shape.cycle_next[s]
            if a is not EPS:
                total += 1
    return total


def _find_cycle_reduction(
    oracle: FreeProductOracle, b: _Builder, shape: ShapeInfo, alphabet
):
    """A one-factor identity path on a cycle whose cycle has other-factor letters."""
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
                        return p, cur, list(edges)
    return None


def free_product_saturate(
    left: GroupOracle, right: GroupOracle, ka: KnapsackAutomaton
) -> bool:
    """Does the automaton accept a word representing 1 in the free product?"""
    oracle = FreeProductOracle(left, right)
    letters = oracle.letters
    alphabet = plain_alphabet(letters)
    ka = free_product_normalize(left, right, ka)
    b = _Builder.from_nfa(ka.nfa)

    # Phase 1: cycles
    while True:
        shape = ShapeInfo(b.to_nfa(alphabet))
        before = _cycle_letter_count(shape)
        hit = _find_cycle_reduction(oracle, b, shape, alphabet)
        if hit is None:
            break
        p, q, edges = hit
        _surgery(None, b, p, q, edges, (), eps_into_cycle=True)
        shape2 = ShapeInfo(b.to_nfa(alphabet))  # revalidate the certificate
        after = _cycle_letter_count(shape2)
        assert after < before, "phase-1 surgery must remove letters from cycles"

    # Phase 2: cross-component reduction paths get epsilon shortcuts
    added: Set[tuple] = set()
    while True:
        shape = ShapeInfo(b.to_nfa(alphabet))
        grew = False
        states = list(b.states)
        for i in (0, 1):
            factor_letters = {a for a in letters if oracle.factor_of(a) == i}
            sub_edges = [
                (p, a, q)
                for (p, a, q) in b.edges
                if a is EPS or a in factor_letters
            ]
            adj: Dict = {}
            for (p, a, q) in sub_edges:
                adj.setdefault(p, set()).add(q)
            for p in states:
                reach = set()
                stack = [p]
                while stack:
                    s = stack.pop()
                    for d in adj.get(s, ()):
                        if d not in reach:
                            reach.add(d)
                            stack.append(d)
                for q in reach:
                    if p == q or shape.comp_of[p] == shape.comp_of[q]:
                        continue
                    if (p, q) in added or (p, EPS, q) in b.edges:
                        continue
                    sub = Nfa(alphabet, b.states, sub_edges, p, [q])
                    if oracle.factor(i).ka_membership(sub, ()):
                        added.add((p, q))
                        b.edge(p, EPS, q)
                        grew = True
        if not grew:
            break

    # Final: some factor restriction accepts a word representing 1
    for i in (0, 1):
        factor_letters = {a for a in letters if oracle.factor_of(a) == i}
        sub_edges = [
            (p, a, q) for (p, a, q) in b.edges if a is EPS or a in factor_letters
        ]
        sub = Nfa(alphabet, b.states, sub_edges, b.initial, b.finals)
        if oracle.factor(i).ka_membership(sub, ()):
            return True
    return False
