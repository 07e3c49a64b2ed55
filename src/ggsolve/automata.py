"""NFAs with an I-diamond certificate; commutation-closure constructions.

The constructions follow the recognizable-trace-language toolkit: prefix
automata for single traces, the tuple-state automaton for [u*]_I (connected
u), the gated product for [L1 L2]_I, plain products for intersection, the
length set of an automaton as arithmetic progressions, and Benois saturation
for free groups.  I-diamond automata validate the certificate on
construction.

A prefix of a trace is a set of positions of its canonical word that is
closed downward in the dependence order (heaps of pieces), so the prefix and
star automata work on position bit masks, with no trace arithmetic.  Both
memorize: all words reaching a state have the same letters (a completed-copy
bit rides on every star state).  The gated product computes and checks that
map, as letter bit masks, with ``memorized_masks``.

The prefix and star automata are built whole.  The gated product
(``GatedProduct``) is built on the fly: a pair of factor states gets its
moves when they are first read, so [p u* s]_I, two nested gated products,
expands only the pairs that ``intersect`` reaches from the initial pair.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import (
    AlphabetMismatchError,
    CertificateError,
    InternalError,
    StructureError,
    TraceError,
)
from .groups import DoubledAlphabet, free_reduce, inverse_letter
from .traces import IndependenceAlphabet, Trace, is_connected

EPS = None  # epsilon edge label


class Nfa:
    """Immutable NFA over an independence alphabet, with an optional I-diamond certificate.

    ``transitions`` holds triples (state, letter, state); ``letter`` is None
    for an epsilon edge.  ``i_diamond`` is validated unless ``validate`` is
    False.
    """

    __slots__ = (
        "alphabet",
        "states",
        "transitions",
        "initial",
        "finals",
        "i_diamond",
        "_out",
    )

    def __init__(
        self,
        alphabet: IndependenceAlphabet,
        states: Sequence,
        transitions: Iterable[tuple],
        initial,
        finals: Iterable,
        *,
        i_diamond: bool = False,
        validate: bool = True,
    ):
        self.alphabet = alphabet
        self.states = tuple(states)
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise StructureError("duplicate states")
        trans = frozenset(transitions)
        for p, a, q in trans:
            if p not in state_set or q not in state_set:
                raise StructureError(f"transition ({p!r},{a!r},{q!r}) uses unknown state")
            if a is not EPS and a not in alphabet:
                raise StructureError(f"transition label {a!r} not in alphabet")
        if initial not in state_set:
            raise StructureError("initial state unknown")
        finals = frozenset(finals)
        if not finals <= state_set:
            raise StructureError("final states unknown")
        self.transitions = trans
        self.initial = initial
        self.finals = finals
        self.i_diamond = bool(i_diamond)
        self._out = None
        if validate and self.i_diamond:
            self.validate_i_diamond()

    # -- adjacency ---------------------------------------------------------

    def out(self, state) -> Dict:
        if self._out is None:
            out: Dict = {s: {} for s in self.states}
            for p, a, q in self.transitions:
                out[p].setdefault(a, set()).add(q)
            self._out = {
                s: {a: frozenset(dests) for a, dests in m.items()} for s, m in out.items()
            }
        return self._out[state]

    def has_eps(self) -> bool:
        return any(a is EPS for _, a, _ in self.transitions)

    def eps_closure(self, states: Iterable) -> FrozenSet:
        result = set()
        stack = list(states)
        while stack:
            s = stack.pop()
            if s in result:
                continue
            result.add(s)
            for t in self.out(s).get(EPS, ()):
                if t not in result:
                    stack.append(t)
        return frozenset(result)

    def step(self, states: FrozenSet, letter: str) -> FrozenSet:
        nxt = set()
        for s in states:
            nxt.update(self.out(s).get(letter, ()))
        return self.eps_closure(nxt)

    def accepts(self, word: Sequence[str]) -> bool:
        current = self.eps_closure([self.initial])
        for letter in word:
            current = self.step(current, letter)
            if not current:
                return False
        return bool(current & self.finals)

    def num_states(self) -> int:
        return len(self.states)

    # -- certificate -------------------------------------------------------

    def validate_i_diamond(self) -> None:
        """Exhaustive pair check of the diamond property."""
        if self.has_eps():
            raise CertificateError("i_diamond automata must be epsilon-free")
        indep = self.alphabet.independent
        for p, a, q in self.transitions:
            out_q = self.out(q)
            for b, rs in out_q.items():
                if b == a or not indep(a, b):
                    continue
                out_p_b = self.out(p).get(b, frozenset())
                for r in rs:
                    if not any(r in self.out(s).get(a, frozenset()) for s in out_p_b):
                        raise CertificateError(
                            f"diamond fails at ({p!r},{a}{b},{r!r})"
                        )


def memorized_masks(nfa: Nfa) -> Dict:
    """State -> bit mask (by letter rank) of the letters of every word reaching it.

    Breadth-first alphabet propagation from the initial state.  Raises
    CertificateError unless ``nfa`` memorizes: every state is reachable and
    all words reaching a state have the same letters.
    """
    bit = {a: 1 << i for i, a in enumerate(nfa.alphabet.letters)}
    bit[EPS] = 0
    masks = {nfa.initial: 0}
    queue = deque([nfa.initial])
    while queue:
        s = queue.popleft()
        for a, dests in nfa.out(s).items():
            expected = masks[s] | bit[a]
            for d in dests:
                mask = masks.get(d)
                if mask is None:
                    masks[d] = expected
                    queue.append(d)
                elif mask != expected:
                    raise CertificateError(f"state {d!r} reachable with distinct alphabets")
    if len(masks) != len(nfa.states):
        raise CertificateError("memorizing automata must have all states reachable")
    return masks


def reachable(starts: Iterable, adj: Dict) -> set:
    """Every state reachable from ``starts`` (included) along ``adj``.

    ``adj`` maps a state to its successors; a missing key means none.  The
    states are added depth first, in the order the successors are listed.
    """
    seen: set = set()
    stack: List = []
    nxt = starts
    while True:
        for s in nxt:
            if s not in seen:
                seen.add(s)
                stack.append(s)
        if not stack:
            return seen
        nxt = adj.get(stack.pop(), ())


def trim(nfa: Nfa) -> Nfa:
    """Restrict to accessible and co-accessible states (language preserved).

    The result declares no certificate.
    """
    fwd = {s: set() for s in nfa.states}
    bwd = {s: set() for s in nfa.states}
    for p, _, q in nfa.transitions:
        fwd[p].add(q)
        bwd[q].add(p)
    keep = reachable([nfa.initial], fwd) & reachable(nfa.finals, bwd)
    return useful_part(nfa.alphabet, nfa.states, nfa.transitions, nfa.initial, nfa.finals, keep)


def useful_part(
    alphabet: IndependenceAlphabet,
    states: Iterable,
    transitions: Iterable[tuple],
    initial,
    finals: Iterable,
    keep: set,
) -> Nfa:
    """The automaton on ``keep``, the states on a path from ``initial`` to ``finals``.

    States keep the order of ``states``; only transitions with both ends in
    ``keep`` survive.  An empty language (``initial`` not in ``keep``) gives a
    single dead initial state.  The result declares no certificate.
    """
    if initial not in keep:
        return Nfa(alphabet, [initial], [], initial, [])
    return Nfa(
        alphabet,
        [s for s in states if s in keep],
        [(p, a, q) for p, a, q in transitions if p in keep and q in keep],
        initial,
        [f for f in finals if f in keep],
    )


# -- constructions ----------------------------------------------------------


def _order(t: Trace) -> Tuple[tuple, Tuple[int, ...]]:
    """``t``'s canonical codes and, per position, the mask of earlier positions it depends on.

    Bit j of ``below[k]`` is set when j < k and the letters at j and k are
    dependent (equal letters included).  The prefixes of ``t`` are exactly
    the position masks closed under ``below``: a trace's heap of pieces.
    """
    codes = t.codes
    dep_mask = t.alphabet.dep_mask
    below = []
    seen = [0] * len(dep_mask)  # per letter code, the mask of its positions so far
    for k, code in enumerate(codes):
        dep, mask = dep_mask[code], 0
        for other, positions in enumerate(seen):
            if dep >> other & 1:
                mask |= positions
        below.append(mask)
        seen[code] |= 1 << k
    return codes, tuple(below)


def _enabled(mask: int, below: Tuple[int, ...]) -> List[int]:
    """Positions outside the prefix ``mask`` that can come next: those below them lie in it."""
    return [k for k, b in enumerate(below) if not (mask >> k & 1 or b & ~mask)]


def prefix_nfa(t: Trace) -> Nfa:
    """Automaton accepting exactly the linearizations of ``t``.

    States are the prefixes of ``t`` (rho(t) many), as downward-closed
    position masks; memorizing (a prefix's letters are those of its
    positions); I-diamond.
    """
    codes, below = _order(t)
    letters = t.alphabet.letters
    full = (1 << len(codes)) - 1
    states = [0]
    seen = {0}
    transitions = []
    for mask in states:  # grows while it is read
        for k in _enabled(mask, below):
            nxt = mask | 1 << k
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
            transitions.append((mask, letters[codes[k]], nxt))
    return Nfa(t.alphabet, states, transitions, 0, [full], i_diamond=True)


def star_nfa(u: Trace) -> Nfa:
    """Automaton for [u*]_I per the tuple-state construction (u connected, nonempty).

    A state is a pair (tuple, bit).  The tuple (u_1,...,u_c) holds nonempty
    proper prefixes of u, as position masks, with v_i I u_j for i < j where
    u = u_i v_i; the bit records whether a full copy of u has been completed.
    A letter starts a piece or extends one; completing the first piece drops
    it and sets the bit.  (That the letter is independent of the pieces
    after it follows from v_i I u_j.)  Memorizing: the letters reaching a
    state are those of its pieces, and all of u's once the bit is set;
    I-diamond.
    """
    alphabet = u.alphabet
    if u.is_empty():
        raise TraceError("star_nfa requires a nonempty trace")
    if not is_connected(u):
        raise TraceError("star_nfa requires a connected trace")
    codes, below = _order(u)
    letters = alphabet.letters
    n = len(codes)
    full = (1 << n) - 1
    own = [1 << c for c in codes]
    dep = [alphabet.dep_mask[c] for c in codes]

    def spread(mask: int, per: list) -> int:
        """The letter bits ``per`` gives the positions of ``mask``, or-ed."""
        out = 0
        for k in range(n):
            if mask >> k & 1:
                out |= per[k]
        return out

    def valid(tup: tuple) -> bool:
        """v_i I u_j for i < j: each piece's rest is independent of the later pieces."""
        return all(
            not spread(full & ~tup[i], dep) & spread(tup[j], own)
            for i in range(len(tup))
            for j in range(i + 1, len(tup))
        )

    def moves(tup: tuple) -> list:
        """(letter, next tuple, completes a copy) for every move out of ``tup``."""
        out = []
        slots = [(i, 0, tup[i:]) for i in range(len(tup) + 1)]  # start a piece at slot i
        slots += [(i, tup[i], tup[i + 1 :]) for i in range(len(tup))]  # extend piece i
        for i, piece, rest in slots:
            for k in _enabled(piece, below):
                grown = piece | 1 << k
                if grown != full:
                    nxt = tup[:i] + (grown,) + rest
                    if valid(nxt):
                        out.append((letters[codes[k]], nxt, False))
                elif i == 0:
                    out.append((letters[codes[k]], rest, True))
        return out

    start = ((), 0)
    states = [start]
    seen = {start}
    transitions = []
    moves_of: Dict[tuple, list] = {}
    for state in states:  # grows while it is read
        tup, done = state
        if tup not in moves_of:
            moves_of[tup] = moves(tup)
        for a, nxt, completes in moves_of[tup]:
            target = (nxt, 1 if completes else done)
            if target not in seen:
                seen.add(target)
                states.append(target)
            transitions.append((state, a, target))
    finals = [s for s in (((), 0), ((), 1)) if s in seen]
    return Nfa(alphabet, states, transitions, start, finals, i_diamond=True)


class GatedProduct(Nfa):
    """I-diamond automaton for [L(left) L(right)]_I on pairs (p1, p2), built on the fly.

    The gated product: a move of ``left`` is taken when its letter is
    independent of every letter the current ``right`` state memorizes, one
    bit-mask test; the moves of ``right`` are taken unchanged.  ``right``
    must memorize (``memorized_masks`` checks it here).  ``out`` computes a
    state's moves the first time it is read and keeps them, so a reader that
    follows moves from the initial state, as ``intersect`` does, expands only
    the states it reaches.  ``states`` and ``transitions`` expand every
    reachable state; ``num_states`` counts the states expanded so far.
    """

    __slots__ = ("left", "right", "_gates")

    def __init__(self, left: Nfa, right: Nfa):
        if left.alphabet != right.alphabet:
            raise AlphabetMismatchError("gated product over mixed alphabets")
        if not left.i_diamond or not right.i_diamond:
            raise CertificateError("gated product needs I-diamond inputs")
        self._gates = memorized_masks(right)
        self.left = left
        self.right = right
        self.alphabet = left.alphabet
        self.initial = (left.initial, right.initial)
        self.finals = frozenset((f1, f2) for f1 in left.finals for f2 in right.finals)
        self.i_diamond = True  # the diamond property holds by construction
        self._out = {}

    def out(self, state) -> Dict:
        moves = self._out.get(state)
        if moves is None:
            p1, p2 = state
            gate = self._gates[p2]
            dep_mask, rank = self.alphabet.dep_mask, self.alphabet.rank
            built: Dict = {}
            for a, dests in self.left.out(p1).items():
                if dep_mask[rank(a)] & gate == 0:
                    built[a] = {(q1, p2) for q1 in dests}
            for a, dests in self.right.out(p2).items():
                built.setdefault(a, set()).update((p1, q2) for q2 in dests)
            moves = self._out[state] = {a: frozenset(d) for a, d in built.items()}
        return moves

    def has_eps(self) -> bool:
        return self.left.has_eps() or self.right.has_eps()

    def num_states(self) -> int:
        return len(self._out)

    @property
    def states(self) -> tuple:
        """Every state reachable from the initial one, breadth first; expands them all."""
        order = [self.initial]
        seen = {self.initial}
        for state in order:  # grows while it is read
            for dests in self.out(state).values():
                for d in dests:
                    if d not in seen:
                        seen.add(d)
                        order.append(d)
        return tuple(order)

    @property
    def transitions(self) -> FrozenSet:
        """Every move out of a reachable state; expands them all."""
        return frozenset(
            (p, a, q) for p in self.states for a, dests in self.out(p).items() for q in dests
        )


def power_closure_nfa(p: Trace, u: Trace, s: Trace) -> GatedProduct:
    """Automaton for [p u* s]_I: prefix automaton, gated star, gated suffix.

    The prefix and star automata are built whole and validated; the two
    gated products are built on the fly.
    """
    return GatedProduct(GatedProduct(prefix_nfa(p), star_nfa(u)), prefix_nfa(s))


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton on the pairs reachable from the pair of initial states.

    The pairs are built on the fly, breadth first; inputs must be epsilon-free.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("intersect over mixed alphabets")
    if a.has_eps() or b.has_eps():
        raise StructureError("intersect requires epsilon-free automata")
    start = (a.initial, b.initial)
    states = [start]
    seen = {start}
    transitions = []
    for pair in states:  # grows while it is read
        out_b = b.out(pair[1])
        for letter, dests_a in a.out(pair[0]).items():
            dests_b = out_b.get(letter, ())
            for pa in dests_a:
                for qb in dests_b:
                    nxt = (pa, qb)
                    if nxt not in seen:
                        seen.add(nxt)
                        states.append(nxt)
                    transitions.append((pair, letter, nxt))
    finals = [(p, q) for (p, q) in states if p in a.finals and q in b.finals]
    return Nfa(a.alphabet, states, transitions, start, finals)


class Progression:
    """The set {offset + period * z : z in N}; period 0 means a singleton."""

    __slots__ = ("offset", "period")

    def __init__(self, offset: int, period: int):
        if offset < 0 or period < 0:
            raise ValueError("offset and period must be natural")
        self.offset = offset
        self.period = period

    def __eq__(self, other):
        return (
            isinstance(other, Progression)
            and self.offset == other.offset
            and self.period == other.period
        )

    def __hash__(self):
        return hash((self.offset, self.period))

    def __repr__(self):
        return f"Progression({self.offset},{self.period})"

    def __contains__(self, n: int) -> bool:
        if n < self.offset:
            return False
        if self.period == 0:
            return n == self.offset
        return (n - self.offset) % self.period == 0


def _covers(p: "Progression", q: "Progression") -> bool:
    """Every element of p lies in q."""
    if p.period == 0:
        return p.offset in q
    if q.period == 0:
        return False
    return p.period % q.period == 0 and p.offset in q


def _normalize_progressions(progs: set) -> FrozenSet:
    progs = set(progs)
    changed = True
    while changed:
        changed = False
        for p in list(progs):
            if any(q is not p and _covers(p, q) for q in progs):
                progs.discard(p)
                changed = True
                break
        if changed:
            continue
        for p in list(progs):
            if p.period and p.offset >= p.period:
                singleton = Progression(p.offset - p.period, 0)
                if singleton in progs:
                    progs.discard(singleton)
                    progs.discard(p)
                    progs.add(Progression(p.offset - p.period, p.period))
                    changed = True
                    break
    return frozenset(progs)


def unary_progressions(u: Nfa) -> FrozenSet:
    """Exact decomposition of the length set {|w| : w in L(u)} into progressions.

    Labels are ignored: the subset construction is iterated on the unary
    NFA that ``u`` becomes when every letter is read as one.  The subset
    sequence is a tail followed by a cycle; accepting tail positions become
    singletons and accepting cycle positions become progressions with the
    cycle length as period, then adjacent pieces are merged.  Exactness is
    self-checked against direct membership up to tail + 2*period.
    """
    if u.has_eps():
        raise StructureError("unary_progressions requires an epsilon-free automaton")
    succ: Dict = {}
    for p, _, q in u.transitions:
        succ.setdefault(p, set()).add(q)
    subset = frozenset([u.initial])
    seen = {subset: 0}
    sequence = [subset]
    while True:
        nxt = frozenset(q for s in sequence[-1] for q in succ.get(s, ()))
        if nxt in seen:
            tail = seen[nxt]
            period = len(sequence) - tail
            break
        seen[nxt] = len(sequence)
        sequence.append(nxt)
    accepting = [bool(subset & u.finals) for subset in sequence]
    progs = set()
    for i in range(tail):
        if accepting[i]:
            progs.add(Progression(i, 0))
    for i in range(tail, tail + period):
        if accepting[i]:
            progs.add(Progression(i, period))
    progs = _normalize_progressions(progs)
    # self-check: the decomposition agrees with membership up to tail + 2*period
    for n in range(tail + 2 * period + 1):
        direct = accepting[n] if n < len(sequence) else accepting[tail + (n - tail) % period]
        decomposed = any(n in p for p in progs)
        if direct != decomposed:
            raise InternalError("progression decomposition mismatch")
    return progs


# -- Benois saturation (free groups) ----------------------------------------


def _require_free_doubled(alphabet: IndependenceAlphabet) -> None:
    if not isinstance(alphabet, DoubledAlphabet) or alphabet.independence:
        raise StructureError("Benois saturation needs a doubled alphabet with no independence")


def benois_saturate(a: Nfa) -> Nfa:
    """Add eps-edges closing every path spelling x x^{-1} (over existing eps-edges)."""
    _require_free_doubled(a.alphabet)
    trans = set(a.transitions)

    def letter_edges():
        by_letter: Dict[str, List[tuple]] = {}
        for p, x, q in trans:
            if x is not EPS:
                by_letter.setdefault(x, []).append((p, q))
        return by_letter

    def eps_reach():
        adj: Dict = {s: set() for s in a.states}
        for p, x, q in trans:
            if x is EPS:
                adj[p].add(q)
        return {s: reachable([s], adj) for s in a.states}

    changed = True
    while changed:
        changed = False
        closure = eps_reach()
        by_letter = letter_edges()
        for x, edges in by_letter.items():
            inv_edges = by_letter.get(inverse_letter(x), ())
            starts: Dict = {}
            for r2, q in inv_edges:
                starts.setdefault(r2, []).append(q)
            for p, r in edges:
                for r2 in closure[r]:
                    for q in starts.get(r2, ()):
                        edge = (p, EPS, q)
                        if edge not in trans:
                            trans.add(edge)
                            changed = True
    return Nfa(a.alphabet, a.states, trans, a.initial, a.finals)


def benois_member(a: Nfa, word: Sequence[str]) -> bool:
    """Does ``a`` accept some word equal to ``word`` in the free group?"""
    saturated = benois_saturate(a)
    return saturated.accepts(free_reduce(a.alphabet, word).word)
