"""Slow independent oracles and generators shared by the test modules."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ggsolve.automata import Nfa, memorized_masks
from ggsolve.errors import (
    AlphabetMismatchError,
    CertificateError,
    InternalError,
    StructureError,
    TraceError,
)
from ggsolve.traces import (
    IndependenceAlphabet,
    Pile,
    Trace,
    _canonical_word,
    empty_trace,
    is_connected,
    left_quotient,
    right_quotient,
)
from ggsolve.groups import DoubledAlphabet, GroupElement, free_reduce, inverse_letter
from ggsolve.semilinear import SemilinearSet
from ggsolve.slp import Slp, expand_capped, val_length
from ggsolve.solver.equations import Const, ExponentEquation, Item, Power, _memo_holds
from ggsolve.transfer.kauto import equation_chain


def equivalence_class(alphabet: IndependenceAlphabet, word) -> set:
    """All words equivalent to ``word`` (closure under adjacent independent swaps)."""
    start = tuple(word)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            if alphabet.independent(w[i], w[i + 1]):
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def slow_normal_form(alphabet: IndependenceAlphabet, word) -> tuple:
    """Lex-least member of the equivalence class, by exhaustive enumeration."""
    rank = {a: i for i, a in enumerate(alphabet.letters)}
    return min(equivalence_class(alphabet, word), key=lambda w: [rank[a] for a in w])


def slow_free_reduce(alphabet: DoubledAlphabet, word, rng: random.Random) -> tuple:
    """Cancel factors [a a'] in random rule order until irreducible."""
    w = list(word)
    while True:
        candidates = []
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[j] != inverse_letter(w[i]):
                    continue
                if all(alphabet.independent(w[k], w[i]) for k in range(i + 1, j)):
                    candidates.append((i, j))
        if not candidates:
            return tuple(w)
        i, j = rng.choice(candidates)
        del w[j]
        del w[i]


def all_alphabets(max_letters: int, letters="abcd"):
    """Every independence alphabet with up to ``max_letters`` letters."""
    for n in range(1, max_letters + 1):
        names = tuple(letters[:n])
        pairs = list(itertools.combinations(names, 2))
        for bits in range(2 ** len(pairs)):
            indep = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            yield IndependenceAlphabet(names, indep)


def random_alphabet(rng: random.Random, max_letters: int = 3, letters="abc"):
    n = rng.randint(1, max_letters)
    names = tuple(letters[:n])
    pairs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.5]
    return IndependenceAlphabet(names, pairs)


def random_word(rng: random.Random, alphabet: IndependenceAlphabet, max_len: int):
    return tuple(rng.choice(alphabet.letters) for _ in range(rng.randint(0, max_len)))


def random_group_word(rng: random.Random, dbl: DoubledAlphabet, max_len: int):
    return tuple(rng.choice(dbl.letters) for _ in range(rng.randint(0, max_len)))


def random_element(rng: random.Random, dbl: DoubledAlphabet, max_len: int) -> GroupElement:
    return free_reduce(dbl, random_group_word(rng, dbl, max_len))


def words_up_to(alphabet: IndependenceAlphabet, max_len: int):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet.letters, repeat=n)


def canonical_traces_up_to(alphabet: IndependenceAlphabet, max_len: int):
    """Each trace of length <= max_len exactly once."""
    seen = set()
    for word in words_up_to(alphabet, max_len):
        t = Trace(alphabet, word)
        if t.word not in seen:
            seen.add(t.word)
            yield t


def min_letters(t: Trace) -> tuple:
    """Letters that can start a linearization of ``t`` (the minimal pieces), in symbol order."""
    pile = Pile(t.alphabet)
    pile.push(t.codes)
    letters = t.alphabet.letters
    return tuple(letters[x] for x in map(pile.bottom, range(t.alphabet._n_cols)) if x >= 0)


def power(t: Trace, k: int) -> Trace:
    """t^k as a trace, k natural."""
    if k < 0:
        raise ValueError("trace powers take natural exponents")
    return Trace._from_canonical(t.alphabet, _canonical_word(t.alphabet, t.codes * k))


def independent_sets(alphabet: IndependenceAlphabet, letters_a, letters_b) -> bool:
    """Every letter of ``letters_a`` is independent of every letter of ``letters_b``."""
    lb = tuple(letters_b)
    return all(alphabet.independent(a, b) for a in letters_a for b in lb)


def independent_of(t: Trace, other: Trace) -> bool:
    """Every letter of ``t`` is independent of every letter of ``other``."""
    return independent_sets(t.alphabet, set(t.word), set(other.word))


def prefix_count(t: Trace) -> int:
    """rho(t): the number of distinct prefixes of ``t``.

    Memoized exploration of the suffix traces: distinct prefixes of ``t``
    correspond bijectively (by cancellativity) to the distinct suffixes, and
    each suffix s steps to x^{-1}s for every minimal letter x of s.
    """
    start = t.word
    seen = {start}
    queue = deque([t])
    while queue:
        s = queue.popleft()
        for letter in min_letters(s):
            nxt = left_quotient(s, (t.alphabet.rank(letter),))
            if nxt.word not in seen:
                seen.add(nxt.word)
                queue.append(nxt)
    return len(seen)


def iter_prefixes(t: Trace):
    """All distinct prefixes of ``t`` (as traces), in BFS order from the empty trace."""
    alphabet = t.alphabet
    start = empty_trace(alphabet)
    seen = {(): start}
    order = [start]
    queue = deque([start])
    while queue:
        p = queue.popleft()
        rest = left_quotient(t, p.codes)
        for letter in min_letters(rest):
            nxt = p * Trace(alphabet, (letter,))
            if nxt.word not in seen:
                seen[nxt.word] = nxt
                order.append(nxt)
                queue.append(nxt)
    return order


def enumerate_accepted(nfa: Nfa, max_len: int, canonical_only: bool = False) -> set:
    """All accepted words of length <= max_len (optionally only canonical words).

    Walks the word tree with subset states, pruning dead branches; with
    ``canonical_only`` the walk additionally tracks the Anisimov-Knuth filter
    state so only lexicographic normal forms are produced.
    """
    alphabet = nfa.alphabet
    letters = alphabet.letters
    accepted = set()
    start = nfa.eps_closure([nfa.initial])
    if not start:
        return accepted
    # canonical filter state: for each letter a, the set of letters b seen
    # such that b is followed only by letters independent of a
    init_filter = tuple(frozenset() for _ in letters)

    def violates(filter_state, letter):
        r = alphabet.rank(letter)
        for b in filter_state[r]:
            if alphabet.rank(b) > r and alphabet.independent(b, letter):
                return True
        return False

    def advance(filter_state, letter):
        out = []
        for i, a in enumerate(letters):
            base = filter_state[i] if alphabet.independent(letter, a) else frozenset()
            out.append(base | {letter})
        return tuple(out)

    stack = [((), start, init_filter)]
    while stack:
        word, subset, fstate = stack.pop()
        if subset & nfa.finals:
            accepted.add(word)
        if len(word) == max_len:
            continue
        for letter in letters:
            if canonical_only and violates(fstate, letter):
                continue
            nxt = nfa.step(subset, letter)
            if not nxt:
                continue
            nf = advance(fstate, letter) if canonical_only else fstate
            stack.append((word + (letter,), nxt, nf))
    return accepted


def enumerate_members(s: SemilinearSet, bound: int) -> set:
    """All members of ``s`` with every coordinate <= bound."""
    out = set()
    for comp in s.components:
        frontier = {comp.base}
        seen = set()
        while frontier:
            v = frontier.pop()
            if v in seen or any(x > bound for x in v):
                continue
            seen.add(v)
            out.add(v)
            for p in comp.periods:
                frontier.add(tuple(v[i] + p[i] for i in range(len(v))))
    return out


# SLP builders: plain words, iterated squares and the size-2n witness of 2^n.


def expand(g: Slp) -> tuple:
    """Unbounded expansion of a (small) SLP."""
    return expand_capped(g, val_length(g))


def from_word(word: Sequence[str], start: str = "S") -> Slp:
    return Slp({start: tuple(word)}, start)


def power_slp(g: Slp, k: int) -> Slp:
    """An SLP for val(g)^k using iterated squaring; adds O(log k) productions."""
    if k < 0:
        raise ValueError("power_slp takes natural exponents")
    prefix = "Pow"
    while any(var.startswith(prefix) for var in g.rhs):
        prefix += "X"
    rhs = dict(g.rhs)
    start = prefix + "S"
    if k == 0:
        rhs[start] = ()
        return Slp(rhs, start)
    squares = [g.start]
    for i in range(1, k.bit_length()):
        name = f"{prefix}{i}"
        rhs[name] = (squares[-1], squares[-1])
        squares.append(name)
    body = [squares[i] for i in range(k.bit_length()) if (k >> i) & 1]
    rhs[start] = tuple(body)
    return Slp(rhs, start)


def compression_witness(n: int, letter: str = "a") -> Slp:
    """An SLP of size exactly 2n whose value has length exactly 2^n (n >= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rhs = {"A1": (letter, letter)}
    for i in range(2, n + 1):
        rhs[f"A{i}"] = (f"A{i-1}", f"A{i-1}")
    return Slp(rhs, f"A{n}")


# Exponent equations: a builder, the grid oracle and the Z-to-N rewrite.


def const(word):
    """An ``equation`` item: the constant ``word`` (freely reduced)."""
    return lambda alphabet: Const(free_reduce(alphabet, word))


def pw(word, var: str):
    """An ``equation`` item: ``word`` (freely reduced) to the power ``var``."""
    return lambda alphabet: Power(free_reduce(alphabet, word), var)


def equation(alphabet: DoubledAlphabet, *items, variables=None) -> ExponentEquation:
    """The equation whose items are ``const(...)`` and ``pw(...)`` over ``alphabet``."""
    return ExponentEquation(alphabet, [item(alphabet) for item in items], variables)


def brute_oracle(e: ExponentEquation, cap: int) -> Set[tuple]:
    """Exhaustive grid search over [0,cap]^k; assignments as tuples over e.vars."""
    holds = _memo_holds(e)
    return {
        values
        for values in itertools.product(range(cap + 1), repeat=len(e.vars))
        if holds(values)
    }


def z_to_n_rewrite(
    e: ExponentEquation, int_vars: Optional[Iterable[str]] = None
) -> Tuple[ExponentEquation, Dict[str, str]]:
    """Rewrite Z-valued variables over N: u^x becomes u^x (u^{-1})^{y_x}.

    Every occurrence of a Z-variable x gets the same fresh partner y_x; the
    solution sets correspond via x -> x - y_x.  Returns (equation, x->y map).
    """
    zset = set(e.vars if int_vars is None else int_vars)
    partner: Dict[str, str] = {}
    for v in e.vars:
        if v in zset:
            name = v + "_neg"
            while name in e.vars or name in partner.values():
                name += "_"
            partner[v] = name
    items: List[Item] = []
    for item in e.items:
        items.append(item)
        if isinstance(item, Power) and item.var in partner:
            items.append(Power(item.base.inverse(), partner[item.var]))
    variables = list(e.vars)
    for v in e.vars:
        if v in partner:
            variables.append(partner[v])
    return ExponentEquation(e.alphabet, items, variables), partner


# Slow oracles for ggsolve.traces.left_quotient / right_quotient: one rescan
# of the word per removed letter, then a fresh canonicalization of the rest.


def scanning_left_quotient(t: Trace, p: Trace) -> Optional[Trace]:
    """The trace ``s`` with ``t = p * s``, or None if ``p`` is not a prefix of ``t``."""
    if t.alphabet != p.alphabet:
        raise AlphabetMismatchError("quotient over mixed alphabets")
    word = list(t.word)
    alphabet = t.alphabet
    consumed = [False] * len(word)
    for target in p.word:
        ok = False
        for i, letter in enumerate(word):
            if consumed[i]:
                continue
            if letter == target:
                consumed[i] = True
                ok = True
                break
            if not alphabet.independent(letter, target):
                break
        if not ok:
            return None
    rest = [letter for i, letter in enumerate(word) if not consumed[i]]
    return Trace(t.alphabet, rest)


def scanning_right_quotient(t: Trace, s: Trace) -> Optional[Trace]:
    """The trace ``p`` with ``t = p * s``, or None if ``s`` is not a suffix of ``t``."""
    if t.alphabet != s.alphabet:
        raise AlphabetMismatchError("quotient over mixed alphabets")
    word = list(t.word)
    alphabet = t.alphabet
    consumed = [False] * len(word)
    for target in reversed(s.word):
        ok = False
        for i in range(len(word) - 1, -1, -1):
            if consumed[i]:
                continue
            letter = word[i]
            if letter == target:
                consumed[i] = True
                ok = True
                break
            if not alphabet.independent(letter, target):
                break
        if not ok:
            return None
    rest = [letter for i, letter in enumerate(word) if not consumed[i]]
    return Trace(t.alphabet, rest)


def quotient_cyclic_reduce(g: GroupElement):
    """Slow oracle for ggsolve.groups.cyclic_reduce: one left and one right
    quotient per tried letter, each piling the whole trace again."""
    alphabet = g.alphabet
    w = g.trace
    peeled = []
    changed = True
    while changed and len(w) >= 2:
        changed = False
        for letter in sorted(set(w.word), key=alphabet.rank):
            rest = left_quotient(w, (alphabet.rank(letter),))
            if rest is None:
                continue
            core = right_quotient(rest, (alphabet.rank(inverse_letter(letter)),))
            if core is None:
                continue
            peeled.append(letter)
            w = core
            changed = True
            break
    p = GroupElement(Trace(alphabet, peeled))
    return p, GroupElement(w)


def knapsack_chain(alphabet: IndependenceAlphabet, bases, prepend=()):
    """The chain automaton over ``alphabet`` for ``prepend`` w1* ... wk*."""
    return equation_chain(alphabet, [tuple(prepend)] + [()] * len(bases), bases)


def folded_free_product_is_identity(oracle, word) -> bool:
    """The word problem of a ``FreeProductOracle`` by syllable folding: drop
    the first trivial syllable, merge its neighbors if they are of one
    factor, and start again until no syllable is trivial."""
    blocks: List[Tuple[int, List[str]]] = []
    for a in word:
        f = oracle.factor_of(a)
        if blocks and blocks[-1][0] == f:
            blocks[-1][1].append(a)
        else:
            blocks.append((f, [a]))
    changed = True
    while changed:
        changed = False
        for i, (f, letters) in enumerate(blocks):
            if oracle.factor(f).is_identity(letters):
                del blocks[i]
                if 0 < i <= len(blocks) - 1 and blocks[i - 1][0] == blocks[i][0]:
                    blocks[i - 1][1].extend(blocks[i][1])
                    del blocks[i]
                changed = True
                break
    return not blocks


def lift_identified(v, f, dimension: int) -> tuple:
    """Lift a vector over the representatives of ``f`` to all ``dimension`` positions."""
    reps = sorted(set(f[i] for i in range(dimension)))
    rep_index = {r: k for k, r in enumerate(reps)}
    return tuple(v[rep_index[f[i]]] for i in range(dimension))


# Finite extensions: the coset of a word and the word problem of H, read off
# the rewriting table, and a reference reduction on the general split
# x = m + k*y + r of each exponent (m = |C|, k the period of the coset map
# after m steps) where ggsolve.transfer.finite_ext_reduce splits x = l*y + r
# along the entry coset's cycle.


def coset_of(fe, word: Sequence[str]) -> str:
    """The coset the word ends in, read from the coset of 1."""
    return fe.rewrite(fe.one, word)[1]


def is_identity_in_h(fe, word: Sequence[str]) -> bool:
    gw, c = fe.rewrite(fe.one, word)
    return c == fe.one and fe.g_oracle.is_identity(gw)


def coset_map(fe, word):
    """f: c -> the unique d with c*word*d^{-1} in G."""
    return {c: fe.rewrite(c, word)[1] for c in fe.cosets}


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


def product_finite_ext_reduce(
    fe,
    v_words: Sequence[Sequence[str]],
    u_words: Sequence[Sequence[str]],
) -> bool:
    """Solvability of v0 u1^{x1} v1 ... un^{xn} vn = 1 over H (distinct variables).

    Reference for ggsolve.transfer.finite_ext_reduce: the product of all coset
    tuples filtered afterwards, each live branch asked as a chain automaton.
    Deterministically enumerates the branch structure: which exponents stay
    below m (merged into constants), then the coset tuples.
    """
    g_oracle = fe.g_oracle
    n = len(u_words)
    if len(v_words) != n + 1:
        raise StructureError("need n+1 constants around n powers")
    m = len(fe.cosets)

    def solve_core(vs: List[tuple], us: List[tuple]) -> bool:
        """All remaining exponents assumed >= m."""
        nn = len(us)
        if nn == 0:
            return is_identity_in_h(fe, vs[0])
        fmaps = [coset_map(fe, u) for u in us]
        orbit = [_orbit_parameters(f, m) for f in fmaps]
        d0 = coset_of(fe, vs[0])
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


# Reference closure constructions on trace algebra: every prefix is a trace,
# reached by trace products and checked by left quotients.  They pin the
# state, transition and final counts of ggsolve.automata.prefix_nfa and
# star_nfa, which work on position masks instead.


def reference_prefix_nfa(t: Trace) -> Nfa:
    """Automaton accepting exactly the linearizations of ``t``.

    States are the prefixes of ``t`` (rho(t) many); I-diamond.
    """
    alphabet = t.alphabet
    start = ()
    states = [start]
    index = {start: empty_trace(alphabet)}
    transitions = []
    queue = deque([start])
    while queue:
        key = queue.popleft()
        p = index[key]
        rest = left_quotient(t, p.codes)
        for letter in min_letters(rest):
            nxt = p * Trace(alphabet, (letter,))
            nkey = nxt.word
            if nkey not in index:
                index[nkey] = nxt
                states.append(nkey)
                queue.append(nkey)
            transitions.append((key, letter, nkey))
    return Nfa(alphabet, states, transitions, start, [t.word], i_diamond=True)


def _star_tuple_valid(u: Trace, tup: Tuple[Trace, ...]) -> bool:
    """Side conditions of the tuple states: u = u_i v_i with u_i,v_i != 1 and v_i I u_j (i<j)."""
    rests = []
    for part in tup:
        if part.is_empty():
            return False
        rest = left_quotient(u, part.codes)
        if rest is None or rest.is_empty():
            return False
        rests.append(rest)
    for i in range(len(tup)):
        for j in range(i + 1, len(tup)):
            if not independent_of(rests[i], tup[j]):
                return False
    return True


def reference_star_nfa(u: Trace) -> Nfa:
    """Automaton for [u*]_I per the tuple-state construction (u connected, nonempty).

    States are tuples (u_1,...,u_c) of nonempty proper prefixes of u with
    v_i I u_j for i < j; a bit records whether a full copy of u has been
    completed (set by the copy-completing transitions).
    """
    alphabet = u.alphabet
    if u.is_empty():
        raise TraceError("star_nfa requires a nonempty trace")
    if not is_connected(u):
        raise TraceError("star_nfa requires a connected trace")
    letters = sorted(alphabet.letters, key=alphabet.rank)
    single = {a: Trace(alphabet, (a,)) for a in letters}
    u_single = len(u) == 1

    def tuple_alph(tup, start=0):
        out = set()
        for part in tup[start:]:
            out.update(part.word)
        return out

    def moves(tup):
        # yields (letter, next_tuple, completes_copy)
        c = len(tup)
        for a in letters:
            # type (a): u is the single letter a
            if u_single and c == 0 and u.word == (a,):
                yield a, tup, True
            # type (b): complete a copy: u_1 * a == u
            if c > 0:
                if (tup[0] * single[a]) == u and independent_sets(
                    alphabet, (a,), tuple_alph(tup, 1)
                ):
                    yield a, tup[1:], True
            # type (c): start a new piece at slot i+1
            for i in range(c + 1):
                if independent_sets(alphabet, (a,), tuple_alph(tup, i)):
                    cand = tup[:i] + (single[a],) + tup[i:]
                    if _star_tuple_valid(u, cand):
                        yield a, cand, False
            # type (d): extend piece i
            for i in range(c):
                if independent_sets(alphabet, (a,), tuple_alph(tup, i + 1)):
                    cand = tup[:i] + (tup[i] * single[a],) + tup[i + 1 :]
                    if _star_tuple_valid(u, cand):
                        yield a, cand, False

    def key_of(tup):
        return tuple(part.word for part in tup)

    start_tup: Tuple[Trace, ...] = ()
    seen = {key_of(start_tup): start_tup}
    order = [start_tup]
    queue = deque([start_tup])
    edges = []  # (tup_key, letter, next_key, completes)
    while queue:
        tup = queue.popleft()
        for a, nxt, completes in moves(tup):
            nkey = key_of(nxt)
            if nkey not in seen:
                seen[nkey] = nxt
                order.append(nxt)
                queue.append(nxt)
            edges.append((key_of(tup), a, nkey, completes))

    # add the completed-copy bit; only reachable (tuple, bit) pairs are kept
    transitions = []
    reachable = set()
    start = (key_of(start_tup), 0)
    queue2 = deque([start])
    reachable.add(start)
    edge_index: Dict[tuple, list] = {}
    for p, a, q, completes in edges:
        edge_index.setdefault(p, []).append((a, q, completes))
    while queue2:
        key, bit = queue2.popleft()
        for a, q, completes in edge_index.get(key, ()):
            nbit = 1 if completes else bit
            nstate = (q, nbit)
            if nstate not in reachable:
                reachable.add(nstate)
                queue2.append(nstate)
            transitions.append(((key, bit), a, nstate))
    finals = [s for s in ((key_of(start_tup), 0), (key_of(start_tup), 1)) if s in reachable]
    return Nfa(alphabet, list(reachable), transitions, start, finals, i_diamond=True)


def concat_closure(a1: Nfa, a2: Nfa) -> Nfa:
    """I-diamond automaton for [L(a1) L(a2)]_I with exactly n1*n2 states.

    The materialized gated product, the reference for
    ``ggsolve.automata.GatedProduct``: every pair is a state, and a move of
    ``a1`` is gated on its letter being independent of every letter the
    current a2-state memorizes (``memorized_masks`` checks that ``a2``
    memorizes), one bit-mask test.
    """
    if a1.alphabet != a2.alphabet:
        raise AlphabetMismatchError("concat_closure over mixed alphabets")
    if not a1.i_diamond or not a2.i_diamond:
        raise CertificateError("concat_closure needs I-diamond inputs")
    alphabet = a1.alphabet
    gates = memorized_masks(a2)
    dep_mask, rank = alphabet.dep_mask, alphabet.rank
    states = [(p1, p2) for p1 in a1.states for p2 in a2.states]
    transitions = []
    for p1 in a1.states:
        out1 = [(dep_mask[rank(a)], a, dests) for a, dests in a1.out(p1).items()]
        for p2 in a2.states:
            gate = gates[p2]
            for dep, a, dests in out1:
                if dep & gate == 0:
                    for q1 in dests:
                        transitions.append(((p1, p2), a, (q1, p2)))
            for a, dests in a2.out(p2).items():
                for q2 in dests:
                    transitions.append(((p1, p2), a, (p1, q2)))
    finals = [(f1, f2) for f1 in a1.finals for f2 in a2.finals]
    return Nfa(
        alphabet,
        states,
        transitions,
        (a1.initial, a2.initial),
        finals,
        i_diamond=True,
        validate=False,  # diamond property holds by construction (gated product)
    )
