"""Knapsack automata: shape certificate, chain construction, skeletons, and the
automaton toolkit (``_Builder``) both saturations run on, normalization included.

A knapsack automaton is an NFA whose strongly connected components are
singletons or induced cycles; epsilon edges count as edges for the SCC
analysis.  Membership of a group element in the accepted language modulo the
group is inter-reducible with knapsack solvability via skeleton enumeration.
Automata travel as plain ``Nfa``s; whoever reads the shape certifies it
(``ShapeInfo``).  Both saturations work on one normal form: the initial
state and the finals lie off cycles, and every edge into a cycle is an
epsilon edge from a state on no cycle.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple

from ..automata import EPS, Nfa, reachable, useful_part
from ..errors import CertificateError, InternalError, StructureError
from ..traces import IndependenceAlphabet


def plain_alphabet(letters: Sequence[str]) -> IndependenceAlphabet:
    """Label alphabet for transfer automata (no independence structure)."""
    return IndependenceAlphabet(tuple(letters))


def strongly_connected_components(states, edges) -> Tuple[Dict, List[Set]]:
    """Iterative Tarjan: (state -> component id, the components as sets)."""
    adj: Dict = {s: [] for s in states}
    for p, _, q in edges:
        adj[p].append(q)
    index: Dict = {}
    low: Dict = {}
    on_stack: Set = set()
    stack: List = []
    comp_of: Dict = {}
    comps: List[Set] = []
    counter = itertools.count()

    for root in states:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    s = stack.pop()
                    on_stack.discard(s)
                    comp.add(s)
                    if s == node:
                        break
                comps.append(comp)
    for cid, comp in enumerate(comps):
        for s in comp:
            comp_of[s] = cid
    return comp_of, comps


class ShapeInfo:
    """SCC analysis of a knapsack automaton given by its states and edges."""

    def __init__(self, states, edges):
        self.comp_of, self.components = strongly_connected_components(states, edges)
        out_in_comp: Dict = {s: [] for s in states}
        in_in_comp: Dict = {s: [] for s in states}
        for p, a, q in edges:
            if self.comp_of[p] == self.comp_of[q]:
                out_in_comp[p].append((a, q))
                in_in_comp[q].append((a, p))
        self.cycle_next: Dict = {}
        self.is_cycle: List[bool] = []
        for cid, comp in enumerate(self.components):
            internal = [(s, out_in_comp[s]) for s in comp]
            edge_count = sum(len(o) for _, o in internal)
            if len(comp) == 1:
                s = next(iter(comp))
                if edge_count == 0:
                    self.is_cycle.append(False)
                    continue
                if edge_count == 1 and out_in_comp[s][0][1] == s:
                    self.is_cycle.append(True)
                    self.cycle_next[s] = (out_in_comp[s][0][0], s)
                    continue
                raise CertificateError(f"state {s!r} carries multiple loops")
            # larger component: must be a single induced cycle
            if edge_count != len(comp):
                raise CertificateError(
                    f"component {sorted(map(repr, comp))} is not an induced cycle"
                )
            for s in comp:
                if len(out_in_comp[s]) != 1 or len(in_in_comp[s]) != 1:
                    raise CertificateError(
                        f"state {s!r} is not on a simple cycle"
                    )
                a, q = out_in_comp[s][0]
                self.cycle_next[s] = (a, q)
            # the unique successor walk must visit the whole component
            start = next(iter(comp))
            seen = {start}
            cur = start
            while True:
                _, cur = self.cycle_next[cur]
                if cur == start:
                    break
                if cur in seen:  # pragma: no cover
                    raise CertificateError("cycle walk revisited a state")
                seen.add(cur)
            if seen != comp:
                raise CertificateError("component is not a single cycle")
            self.is_cycle.append(True)

    def on_cycle(self, state) -> bool:
        return self.is_cycle[self.comp_of[state]]

    def cycle_letters(self, counted) -> int:
        """Number of cycle edges labelled in ``counted``."""
        return sum(a in counted for a, _ in self.cycle_next.values())


class _Builder:
    """Mutable automaton builder: the toolkit of the chain constructions and saturations.

    ``states`` keeps the states in creation order and ``edges`` the edges in
    insertion order (dicts used as ordered sets), so every loop over them,
    and with it each fresh name and each oracle question, comes in the same
    order in every process; ``from_nfa`` inserts the edges in ``repr``
    order.  ``fresh`` names a new state by hint and counter, skipping names
    in use.  The label alphabet travels with the builder into ``to_nfa``.
    """

    def __init__(self, alphabet: IndependenceAlphabet):
        self.alphabet = alphabet
        self.states: Dict = {}
        self.edges: Dict[tuple, None] = {}
        self.initial = None
        self.finals: Set = set()
        self._counter = itertools.count()

    @classmethod
    def from_nfa(cls, nfa: Nfa) -> "_Builder":
        b = cls(nfa.alphabet)
        b.states = dict.fromkeys(nfa.states)
        b.edges = dict.fromkeys(sorted(nfa.transitions, key=repr))
        b.initial = nfa.initial
        b.finals = set(nfa.finals)
        return b

    def to_nfa(self) -> Nfa:
        return Nfa(self.alphabet, self.states, self.edges, self.initial, self.finals)

    def shape(self) -> ShapeInfo:
        """The shape certificate of the automaton as it stands; raises CertificateError."""
        return ShapeInfo(self.states, self.edges)

    def fresh(self, hint: str = "s"):
        while True:
            name = f"{hint}{next(self._counter)}"
            if name not in self.states:
                self.states[name] = None
                return name

    def edge(self, p, a, q):
        self.edges[(p, a, q)] = None

    def path(self, p, word: Sequence, q=None, hint: str = "s"):
        """Edges spelling ``word`` from p to q through fresh states; returns q.

        With q None the path ends in a fresh state, named after the inner
        ones.  An empty word is a single epsilon edge.
        """
        *inner, last = tuple(word) or (EPS,)
        for a in inner:
            nxt = self.fresh(hint)
            self.edge(p, a, nxt)
            p = nxt
        if q is None:
            q = self.fresh(hint)
        self.edge(p, last, q)
        return q

    def restrict(self, alphabet: IndependenceAlphabet) -> "Restriction":
        """The edges labelled epsilon or in ``alphabet``, to cut an oracle's
        questions from."""
        return Restriction(self, alphabet)

    def prepend(self, word: Sequence[str]) -> None:
        """Read ``word`` before the automaton: a path from a fresh initial state
        into the old one.  The empty word leaves the automaton as it is."""
        if not word:
            return
        start = self.fresh("p")
        self.path(start, word, self.initial, "p")
        self.initial = start

    def surgery(self, p, q, edges, word) -> None:
        """Replace a reduction path by a shortcut; graft the three bypass families.

        Path: p = r_0 -labels[0]-> r_1 ... -labels[n-1]-> r_n = q.  The
        interior r_1..r_{n-1} goes with every incident edge, and p -word-> q
        takes its place.  The arriving bypasses end in an epsilon edge, so
        every edge into a cycle stays an epsilon edge.
        """
        path_states = [p] + [e[2] for e in edges]
        interior = set(path_states[1:-1])
        pos = {s: i for i, s in enumerate(path_states[:-1]) if i > 0}
        path_edges = set(edges)
        arriving = []  # (s, [v], i): outside edge into interior r_i ([] for v = EPS)
        leaving = []  # (i, v, s): edge from interior r_i to the outside
        for (src, a, dst) in self.edges:
            if (src, a, dst) in path_edges:
                continue
            if dst in interior and src not in interior:
                arriving.append((src, [] if a is EPS else [a], pos[dst]))
            if src in interior and dst not in interior:
                leaving.append((pos[src], a, dst))
        labels = [e[1] for e in edges]
        self.edges = {
            (src, a, dst): None
            for (src, a, dst) in self.edges
            if (src, a, dst) not in path_edges and src not in interior and dst not in interior
        }
        for s in interior:
            del self.states[s]
        self.path(p, word, q, "c")
        # arriving: s -v-> . -labels[i..n-1]-> . -eps-> q
        for (s, v, i) in arriving:
            self.path(s, v + labels[i:] + [EPS], q, "y")
        # leaving: p -labels[0..i-1]-> . -v-> s
        for (i, v, s) in leaving:
            self.path(p, labels[:i] + [v], s, "y")
        # pairs: s -v-> . -labels[i..j-1]-> . -v'-> s'   for i < j
        for (s, v, i) in arriving:
            for (j, v2, s2) in leaving:
                if i < j:
                    self.path(s, v + labels[i:j] + [v2], s2, "y")

    def normalize(self) -> ShapeInfo:
        """Move the initial state and the finals off cycles and let every edge
        into a cycle be an epsilon edge from outside any cycle; returns the
        shape of the result.  The language is unchanged.

        The split edges are those between two cycles and every labelled edge
        entering a cycle.  A shadow state, joined to the state it splits off
        by an epsilon edge, takes the split edge, the initial mark or the
        final mark.  A pass fixes every violation of one shape; it reads the
        edges and finals to fix before any fix, as the states it makes lie
        on no cycle.
        """
        while True:
            shape = self.shape()
            on_cycle, comp_of = shape.on_cycle, shape.comp_of
            entering = [
                (p, a, q)
                for (p, a, q) in self.edges
                if on_cycle(q) and comp_of[p] != comp_of[q] and (on_cycle(p) or a is not EPS)
            ]
            cycle_finals = sorted((f for f in self.finals if on_cycle(f)), key=repr)
            if not (entering or cycle_finals or on_cycle(self.initial)):
                return shape
            for (p, a, q) in entering:
                del self.edges[(p, a, q)]
                self.edge(p, a, self._shadow_into(q, "m"))
            if on_cycle(self.initial):
                self.initial = self._shadow_into(self.initial, "i")
            for f in cycle_finals:
                shadow = self.fresh("f")
                self.edge(f, EPS, shadow)
                self.finals.discard(f)
                self.finals.add(shadow)

    def _shadow_into(self, q, hint: str):
        """A fresh state with an epsilon edge into ``q``."""
        shadow = self.fresh(hint)
        self.edge(shadow, EPS, q)
        return shadow

    def saturate_cycles(self, find_reduction, counted) -> ShapeInfo:
        """Phase 1 of both saturations: normalize, then cut reductions out of
        cycles until none is left; returns the final shape.

        ``find_reduction(shape)`` returns ``(p, q, edges, word)`` -- a
        reduction path along a cycle and the word of its shortcut -- or None.
        Every surgery must lower the number of cycle edges labelled in
        ``counted``; that is what makes the loop end.
        """
        shape = self.normalize()
        before = None
        while True:
            count = shape.cycle_letters(counted)
            if before is not None and count >= before:
                raise InternalError("phase-1 surgery must remove letters from cycles")
            hit = find_reduction(shape)
            if hit is None:
                return shape
            before = count
            self.surgery(*hit)
            shape = self.shape()  # revalidates the knapsack certificate


class Restriction:
    """A builder's edges labelled epsilon or in ``alphabet``, taken when it is made.

    Its cuts are automata over ``alphabet``.  Being a snapshot, it builds its
    adjacency once and memoizes the forward reach of each initial state and
    the backward reach of each set of finals; ``memo`` keeps what an
    oracle's ``reaches`` finds once per snapshot: a finite oracle's search
    under (oracle, p), the default's cut under (p, q).
    """

    def __init__(self, b: _Builder, alphabet: IndependenceAlphabet):
        self.builder = b
        self.alphabet = alphabet
        self.out: Dict = {}  # p -> [(a, q)]
        self.memo: Dict = {}
        self._fwd: Dict = {}  # p -> {q}
        self._bwd: Dict = {}  # q -> {p}
        for (p, a, q) in b.edges:
            if a is EPS or a in alphabet:
                self.out.setdefault(p, []).append((a, q))
                self._fwd.setdefault(p, set()).add(q)
                self._bwd.setdefault(q, set()).add(p)
        self._forward: Dict = {}
        self._backward: Dict = {}

    def forward(self, initial) -> set:
        """Every state on a path from ``initial`` (included)."""
        reach = self._forward.get(initial)
        if reach is None:
            reach = self._forward[initial] = reachable([initial], self._fwd)
        return reach

    def backward(self, finals) -> set:
        """Every state on a path into ``finals`` (included)."""
        finals = frozenset(finals)
        reach = self._backward.get(finals)
        if reach is None:
            reach = self._backward[finals] = reachable(finals, self._bwd)
        return reach

    def cut(self, initial, finals) -> Nfa:
        """The useful part of the sub-automaton over these edges from ``initial`` to ``finals``.

        This is ``automata.trim`` of the cut over all of the builder's
        states: the states on a path from ``initial`` to ``finals``, in
        creation order, and the edges between them; a single dead initial
        state when no final is reachable.  Both go through
        ``automata.useful_part``.
        """
        keep = self.forward(initial) & self.backward(finals)
        edges = ((p, a, q) for p in keep for (a, q) in self.out.get(p, ()))
        return useful_part(self.alphabet, self.builder.states, edges, initial, finals, keep)


def equation_chain(
    alphabet: IndependenceAlphabet,
    v_words: Sequence[Sequence[str]],
    u_words: Sequence[Sequence[str]],
) -> Nfa:
    """Chain automaton over ``alphabet`` accepting v0 u1* v1 ... un* vn (epsilon-free).

    It has the knapsack shape by construction; no certificate is built.
    Cycles are entered by consuming the first letter of the loop word, so
    skipping a power keeps the previous endpoint live; exits happen at the
    loop's base state only.
    """
    if len(v_words) != len(u_words) + 1:
        raise StructureError("need n+1 constants around n powers")
    b = _Builder(alphabet)
    start = b.fresh("c")
    b.initial = start
    endpoints = [start]

    def read_constant(word):
        nonlocal endpoints
        word = tuple(word)
        if not word:
            return
        chain = [b.fresh("c") for _ in word]
        for ep in endpoints:
            b.edge(ep, word[0], chain[0])
        for i in range(1, len(word)):
            b.edge(chain[i - 1], word[i], chain[i])
        endpoints = [chain[-1]]

    def read_star(word):
        nonlocal endpoints
        word = tuple(word)
        if not word:
            return
        cyc = [b.fresh("k") for _ in word]
        m = len(word)
        for i in range(m):
            b.edge(cyc[i], word[i], cyc[(i + 1) % m])
        # entering consumes the first letter of the loop word
        for ep in endpoints:
            b.edge(ep, word[0], cyc[1 % m])
        endpoints = endpoints + [cyc[0]]

    read_constant(v_words[0])
    for u, v in zip(u_words, v_words[1:]):
        read_star(u)
        read_constant(v)
    b.finals = set(endpoints)
    return b.to_nfa()


def skeletons(nfa: Nfa):
    """All skeletons as (v_words, u_words): runs' SCC paths with entry/exit data.

    The automaton must have the knapsack shape (CertificateError otherwise).
    Every accepted word modulo reordering of loop iterations is captured by
    some skeleton, and every skeleton word is accepted.
    """
    shape = ShapeInfo(nfa.states, nfa.transitions)
    out_edges: Dict = {s: [] for s in nfa.states}
    for p, a, q in nfa.transitions:
        if shape.comp_of[p] != shape.comp_of[q]:
            out_edges[p].append((a, q))

    results = []

    def walk(state, vs, us, current):
        """Runs on from ``state`` with ``current`` read since the last cycle."""
        exits = [(state, current)]
        if shape.on_cycle(state):
            arcs, word, q = {}, (), state  # q -> the word along the cycle from state to q
            while q not in arcs:
                arcs[q] = word
                a, q = shape.cycle_next[q]
                word += () if a is EPS else (a,)
            vs, us = vs + (current,), us + (word,)
            exits = [(q, arcs[q]) for q in sorted(arcs, key=repr)]
        for q, read in exits:
            if q in nfa.finals:
                results.append((vs + (read,), us))
            for a, r in sorted(out_edges[q], key=repr):
                walk(r, vs, us, read + (() if a is EPS else (a,)))

    walk(nfa.initial, (), (), ())
    return results

