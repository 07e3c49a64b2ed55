"""Closure automata of the two-power pipeline on letter codes; NFAs for the rest.

``Nfa`` is the generic automaton over letter names, with epsilon edges, for
the transfer automata, ``build_ka`` and Benois saturation (free groups).
The closure automata of [p u* s]_I run on letter codes and integer state ids:

- ``CodeNfa``: ``out[i]`` maps a letter code to the ids state i reaches, state
  0 initial; construction checks the structure, that it memorizes (the
  letters reaching a state, as bit masks) and its I-diamond certificate.
- ``prefix_nfa`` and ``star_nfa`` build one for a trace and for [u*]_I.  A
  prefix of a trace is a set of positions of its canonical word closed
  downward in the dependence order (heaps of pieces), so both work on
  position bit masks, with no trace arithmetic.
- ``PowerClosure``: [p u* s]_I as one three-way gated product on (prefix,
  star, suffix) triples; a triple gets its moves when ``intersect`` first
  reads it, so only the triples the intersection reaches are expanded.
- ``intersect`` builds a ``Product`` of unlabelled successor sets, which
  ``trim`` and ``unary_progressions`` (the length set as arithmetic
  progressions) read directly; both also take an ``Nfa``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import AlphabetMismatchError, CertificateError, InternalError, StructureError
from .errors import TraceError
from .groups import DoubledAlphabet, free_reduce, inverse_letter
from .traces import IndependenceAlphabet, Trace, is_connected

EPS = None  # epsilon edge label


class Nfa:
    """Immutable NFA over an independence alphabet; ``transitions`` holds triples
    (state, letter, state), ``letter`` None for an epsilon edge."""

    __slots__ = ("alphabet", "states", "transitions", "initial", "finals", "_out")

    def __init__(self, alphabet, states, transitions, initial, finals):
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
        self.transitions, self.initial, self.finals = trans, initial, finals
        self._out = None

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

    def successors(self) -> Dict:
        """State -> the set of states one edge (epsilon edges included) leads to."""
        succ: Dict = {s: set() for s in self.states}
        for p, _, q in self.transitions:
            succ[p].add(q)
        return succ

    def restrict(self, keep: set) -> "Nfa":
        return useful_part(
            self.alphabet, self.states, self.transitions, self.initial, self.finals, keep
        )


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


def trim(a):
    """Restrict an ``Nfa`` or a ``Product`` to its accessible and co-accessible
    states; the language (of a ``Product``, its path lengths) is preserved."""
    succ = a.successors()
    pred: Dict = {}
    for p, dests in succ.items():
        for q in dests:
            pred.setdefault(q, []).append(p)
    return a.restrict(reachable([a.initial], succ) & reachable(a.finals, pred))


def useful_part(alphabet, states, transitions, initial, finals, keep: set) -> Nfa:
    """The automaton on ``keep``, the states on a path from ``initial`` to ``finals``.

    States keep the order of ``states``; only transitions with both ends in
    ``keep`` survive.  An empty language (``initial`` not in ``keep``) gives a
    single dead initial state.
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


# -- closure automata on letter codes ---------------------------------------


class CodeNfa:
    """Epsilon-free automaton on letter codes and integer state ids; state 0 is initial.

    ``out[i]`` maps a letter code to the list of ids state i reaches on it;
    ``keys[i]`` is the construction's name for state i.  The constructor
    checks every id and code, computes ``masks[i]``, the letter bit mask of
    every word reaching state i (CertificateError unless the automaton
    memorizes and every state is reachable), and checks the I-diamond property.
    """

    __slots__ = ("alphabet", "keys", "out", "finals", "masks")

    def __init__(self, alphabet: IndependenceAlphabet, keys: list, out: list, finals: Iterable):
        n = len(out)
        if not n or len(keys) != n:
            raise StructureError("a code automaton needs one key per state, and state 0")
        if not set().union(*out) <= set(range(len(alphabet.letters))):
            raise StructureError("letter code not in alphabet")
        ids = set(range(n))
        if not {d for moves in out for dests in moves.values() for d in dests} <= ids:
            raise StructureError("move to an unknown state")
        self.finals = frozenset(finals)
        if not self.finals <= ids:
            raise StructureError("final states unknown")
        self.alphabet, self.keys, self.out = alphabet, keys, out
        self.masks = self._memorized()
        self._check_diamond()

    def num_states(self) -> int:
        """The states built so far (for a ``PowerClosure``, those expanded)."""
        return len(self.out)

    def _memorized(self) -> List[int]:
        """Per state, the letter mask every word reaching it has, propagated breadth first."""
        out, keys = self.out, self.keys
        masks = [-1] * len(out)
        masks[0] = 0
        order = [0]
        for p in order:  # grows while it is read
            here = masks[p]
            for code, dests in out[p].items():
                expected = here | 1 << code
                for d in dests:
                    if masks[d] < 0:
                        masks[d] = expected
                        order.append(d)
                    elif masks[d] != expected:
                        raise CertificateError(f"state {keys[d]!r} reached with distinct alphabets")
        if len(order) != len(out):
            raise CertificateError("memorizing automata must have all states reachable")
        return masks

    def _check_diamond(self) -> None:
        """p -a-> q -b-> r with a I b has some p -b-> s -a-> r."""
        out, dep_mask = self.out, self.alphabet.dep_mask
        for p, moves in enumerate(out):
            for a, qs in moves.items():
                dep = dep_mask[a]  # a itself included
                for q in qs:
                    for b, rs in out[q].items():
                        if dep >> b & 1:
                            continue
                        via = moves.get(b, ())
                        for r in rs:
                            if not any(r in out[s].get(a, ()) for s in via):
                                ab = self.alphabet.letters[a] + self.alphabet.letters[b]
                                where = f"{self.keys[p]!r},{ab},{self.keys[r]!r}"
                                raise CertificateError(f"diamond fails at ({where})")


def _order(t: Trace) -> Tuple[tuple, Tuple[int, ...]]:
    """``t``'s canonical codes and, per position, the mask of earlier positions it depends on.

    Bit j of ``below[k]`` is set when j < k and the letters at j and k are
    dependent (equal letters included).  The prefixes of ``t`` are exactly
    the position masks closed under ``below``: a trace's heap of pieces.
    """
    codes, dep_mask = t.codes, t.alphabet.dep_mask
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


def prefix_nfa(t: Trace) -> CodeNfa:
    """Automaton accepting exactly the linearizations of ``t``.

    States are the prefixes of ``t`` (rho(t) many), keyed by downward-closed
    position masks; memorizing (a prefix's letters are those of its
    positions); I-diamond.  It is deterministic: two enabled positions are
    independent, so they hold distinct letters.
    """
    codes, below = _order(t)
    keys = [0]
    ids = {0: 0}
    out = []
    for mask in keys:  # grows while it is read
        moves = {}
        for k in _enabled(mask, below):
            nxt = mask | 1 << k
            i = ids.get(nxt)
            if i is None:
                i = ids[nxt] = len(keys)
                keys.append(nxt)
            moves[codes[k]] = [i]
        out.append(moves)
    return CodeNfa(t.alphabet, keys, out, [ids[(1 << len(codes)) - 1]])


def star_nfa(u: Trace) -> CodeNfa:
    """Automaton for [u*]_I per the tuple-state construction (u connected, nonempty).

    A state is keyed by a pair (tuple, bit).  The tuple (u_1,...,u_c) holds
    nonempty proper prefixes of u, as position masks, with v_i I u_j for
    i < j where u = u_i v_i; the bit records whether a full copy of u has
    been completed.  A letter starts a piece or extends one; completing the
    first piece drops it and sets the bit.  (That the letter is independent
    of the pieces after it follows from v_i I u_j.)  Memorizing: the letters
    reaching a state are those of its pieces, and all of u's once the bit is
    set; I-diamond.
    """
    alphabet = u.alphabet
    if u.is_empty():
        raise TraceError("star_nfa requires a nonempty trace")
    if not is_connected(u):
        raise TraceError("star_nfa requires a connected trace")
    codes, below = _order(u)
    n, full = len(codes), (1 << len(codes)) - 1
    own = [1 << c for c in codes]
    dep = [alphabet.dep_mask[c] for c in codes]

    def spread(mask: int, per: list) -> int:
        """The letter bits ``per`` gives the positions of ``mask``, or-ed."""
        out = 0
        for k in range(n):
            if mask >> k & 1:
                out |= per[k]
        return out

    pieces: Dict[int, tuple] = {}

    def piece(mask: int) -> tuple:
        """The letters at ``mask``'s positions, those dependent on the rest of u,
        and the positions that can extend it."""
        if mask not in pieces:
            pieces[mask] = spread(mask, own), spread(full & ~mask, dep), _enabled(mask, below)
        return pieces[mask]

    def valid_at(tup: tuple, i: int) -> bool:
        """v_h I u_j for the pairs h < j of ``tup`` that involve piece i (the
        only pairs a move changes)."""
        letters_i, rest_i, _ = piece(tup[i])
        for h, t in enumerate(tup):
            if h < i and piece(t)[1] & letters_i or h > i and rest_i & piece(t)[0]:
                return False
        return True

    def moves(tup: tuple) -> list:
        """(letter code, next tuple, completes a copy) for every move out of ``tup``."""
        out = []
        slots = [(i, 0, tup[i:]) for i in range(len(tup) + 1)]  # start a piece at slot i
        slots += [(i, tup[i], tup[i + 1 :]) for i in range(len(tup))]  # extend piece i
        for i, mask, rest in slots:
            for k in piece(mask)[2]:
                grown = mask | 1 << k
                if grown != full:
                    nxt = tup[:i] + (grown,) + rest
                    if valid_at(nxt, i):
                        out.append((codes[k], nxt, False))
                elif i == 0:
                    out.append((codes[k], rest, True))
        return out

    keys = [((), 0)]
    ids = {keys[0]: 0}
    out = []
    moves_of: Dict[tuple, list] = {}
    for tup, done in keys:  # grows while it is read
        if tup not in moves_of:
            moves_of[tup] = moves(tup)
        here: Dict[int, list] = {}
        for code, nxt, completes in moves_of[tup]:
            target = (nxt, 1 if completes else done)
            i = ids.get(target)
            if i is None:
                i = ids[target] = len(keys)
                keys.append(target)
            dests = here.setdefault(code, [])
            if i not in dests:
                dests.append(i)
        out.append(here)
    finals = [ids[s] for s in (((), 0), ((), 1)) if s in ids]
    return CodeNfa(alphabet, keys, out, finals)


class _GatedMoves(dict):
    """State id -> moves of the three-way gated product, computed when first read."""

    __slots__ = ("factors",)

    def __missing__(self, x: int) -> Dict[int, List[int]]:
        prefix, star, suffix = self.factors
        dep_mask, n_star, n_suffix = prefix.alphabet.dep_mask, len(star.out), len(suffix.out)
        ij, k = divmod(x, n_suffix)
        i, j = divmod(ij, n_star)
        gate = suffix.masks[k]
        moves = {a: [ij * n_suffix + d for d in dests] for a, dests in suffix.out[k].items()}
        for a, dests in star.out[j].items():
            if not dep_mask[a] & gate:
                moves.setdefault(a, []).extend((i * n_star + d) * n_suffix + k for d in dests)
        gate |= star.masks[j]
        for a, dests in prefix.out[i].items():
            if not dep_mask[a] & gate:
                moves.setdefault(a, []).extend((d * n_star + j) * n_suffix + k for d in dests)
        self[x] = moves
        return moves


class PowerClosure(CodeNfa):
    """[p u* s]_I as one three-way gated product, built on the fly.

    A state is a triple (i, j, k) of prefix, star and suffix states, with id
    (i * n_star + j) * n_suffix + k; the initial triple has id 0.  A suffix
    move is always taken, a star move when its letter is independent of
    every letter the suffix state memorizes, and a prefix move when its
    letter is independent of every letter the star and suffix states
    memorize, each one bit-mask test on the factors' ``masks``: the gated
    product [[L(p) L(u*)]_I L(s)]_I, I-diamond by construction.  ``out``
    computes a triple's moves when first read and keeps them, so ``intersect``
    expands only the triples it reaches from the initial one.
    """

    __slots__ = ("factors",)

    # no CodeNfa.__init__: the diamond holds by construction, and no state exists yet
    def __init__(self, prefix: CodeNfa, star: CodeNfa, suffix: CodeNfa):
        if not prefix.alphabet == star.alphabet == suffix.alphabet:
            raise AlphabetMismatchError("gated product over mixed alphabets")
        n_star, n_suffix = len(star.out), len(suffix.out)
        self.alphabet, self.factors = prefix.alphabet, (prefix, star, suffix)
        self.out = _GatedMoves()
        self.out.factors = self.factors
        self.finals = frozenset(
            (i * n_star + j) * n_suffix + k
            for i in prefix.finals
            for j in star.finals
            for k in suffix.finals
        )


def power_closure_nfa(p: Trace, u: Trace, s: Trace) -> PowerClosure:
    """Automaton for [p u* s]_I: the prefix, star and suffix automata, built whole
    and checked, under one gated product built on the fly."""
    return PowerClosure(prefix_nfa(p), star_nfa(u), prefix_nfa(s))


class Product:
    """What ``intersect`` builds, without labels; id 0 is the initial pair.

    ``pairs[i]`` is the pair of factor states id i stands for, ``succ[i]``
    the set of ids it reaches in one move and ``finals`` the ids of the
    pairs final in both factors.
    """

    __slots__ = ("pairs", "succ", "finals")
    initial = 0

    def __init__(self, pairs: list, succ: list, finals: Iterable[int]):
        self.pairs, self.succ, self.finals = pairs, succ, frozenset(finals)

    def num_states(self) -> int:
        return len(self.succ)

    def has_eps(self) -> bool:
        return False

    def successors(self) -> Dict[int, set]:
        return dict(enumerate(self.succ))

    def restrict(self, keep: set) -> "Product":
        """The product on the ids in ``keep``, renumbered in order; a single dead
        initial state when 0 is not among them."""
        if len(keep) == len(self.succ):
            return self
        if 0 not in keep:
            return Product(self.pairs[:1], [set()], [])
        kept = sorted(keep)
        new = {old: i for i, old in enumerate(kept)}
        succ = [{new[q] for q in self.succ[old] if q in new} for old in kept]
        finals = [new[f] for f in self.finals if f in new]
        return Product([self.pairs[old] for old in kept], succ, finals)


def intersect(a: CodeNfa, b: CodeNfa) -> Product:
    """Product automaton on the pairs reachable from the pair of initial states.

    The pairs are built on the fly, breadth first, from the factors' ``out``
    (so a ``PowerClosure`` expands only the triples some pair reaches).
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("intersect over mixed alphabets")
    out_a, out_b = a.out, b.out
    pairs = [(0, 0)]
    ids = {(0, 0): 0}
    succ = []
    for x, y in pairs:  # grows while it is read
        moves_b = out_b[y]
        nxt = set()
        for code, dests_a in out_a[x].items():
            dests_b = moves_b.get(code)
            if dests_b:
                for xa in dests_a:
                    for yb in dests_b:
                        i = ids.get((xa, yb))
                        if i is None:
                            i = ids[xa, yb] = len(pairs)
                            pairs.append((xa, yb))
                        nxt.add(i)
        succ.append(nxt)
    finals_a, finals_b = a.finals, b.finals
    finals = [i for i, (x, y) in enumerate(pairs) if x in finals_a and y in finals_b]
    return Product(pairs, succ, finals)


class Progression:
    """The set {offset + period * z : z in N}; period 0 means a singleton."""

    __slots__ = ("offset", "period")

    def __init__(self, offset: int, period: int):
        if offset < 0 or period < 0:
            raise ValueError("offset and period must be natural")
        self.offset, self.period = offset, period

    def __eq__(self, other):
        same = isinstance(other, Progression) and self.offset == other.offset
        return same and self.period == other.period

    def __hash__(self):
        return hash((self.offset, self.period))

    def __repr__(self):
        return f"Progression({self.offset},{self.period})"

    def __contains__(self, n: int) -> bool:
        if self.period == 0:
            return n == self.offset
        return n >= self.offset and (n - self.offset) % self.period == 0


def _covers(p: "Progression", q: "Progression") -> bool:
    """Every element of p lies in q."""
    return p.offset in q and (p.period == 0 or q.period != 0 and p.period % q.period == 0)


def _normalize_progressions(progs: set) -> FrozenSet:
    """Drop a progression another covers, or merge a singleton b - c with (b, c)
    into (b - c, c), until neither applies."""
    progs = set(progs)
    while True:
        covered = [p for p in progs if any(q is not p and _covers(p, q) for q in progs)]
        if covered:
            progs.discard(covered[0])
            continue
        for p in progs:
            singleton = Progression(p.offset - p.period, 0) if p.offset >= p.period else None
            if p.period and singleton in progs:
                progs -= {p, singleton}
                progs.add(Progression(p.offset - p.period, p.period))
                break
        else:
            return frozenset(progs)


def unary_progressions(a) -> FrozenSet:
    """Exact decomposition of the length set {|w| : w in L(a)} into progressions.

    ``a`` is an epsilon-free ``Nfa`` or a ``Product``; labels are ignored.
    The subset construction is iterated on the successor sets: the subset
    sequence is a tail followed by a cycle; accepting tail positions become
    singletons and accepting cycle positions become progressions with the
    cycle length as period, then adjacent pieces are merged.  Exactness is
    self-checked against direct membership up to tail + 2*period.
    """
    if a.has_eps():
        raise StructureError("unary_progressions requires an epsilon-free automaton")
    succ = a.successors()
    subset = frozenset([a.initial])
    seen = {subset: 0}
    sequence = [subset]
    while True:
        nxt = frozenset().union(*[succ[s] for s in sequence[-1]])
        if nxt in seen:
            tail = seen[nxt]
            period = len(sequence) - tail
            break
        seen[nxt] = len(sequence)
        sequence.append(nxt)
    finals = a.finals
    accepting = [not finals.isdisjoint(subset) for subset in sequence]
    progs = _normalize_progressions(
        {Progression(i, period if i >= tail else 0) for i in range(tail + period) if accepting[i]}
    )
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
