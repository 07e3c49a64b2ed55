"""Slow independent oracles and generators shared by the test modules."""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import List, Optional, Sequence

from ggsolve.errors import AlphabetMismatchError, InternalError, StructureError
from ggsolve.traces import IndependenceAlphabet, Trace, left_quotient, right_quotient
from ggsolve.groups import (
    DoubledAlphabet,
    GroupElement,
    base_letter,
    free_reduce,
    inverse_letter,
)
from ggsolve.transfer.finite_extension import _orbit_parameters
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
            if alphabet.dependent(letter, target):
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
            if alphabet.dependent(letter, target):
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
        for letter in sorted(w.alph(), key=alphabet.rank):
            single = Trace._from_canonical(alphabet, (letter,))
            rest = left_quotient(w, single)
            if rest is None:
                continue
            inv = Trace._from_canonical(alphabet, (inverse_letter(letter),))
            core = right_quotient(rest, inv)
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


def lift_identified(v, f, dimension: int) -> tuple:
    """Lift a vector over the representatives of ``f`` to all ``dimension`` positions."""
    reps = sorted(set(f[i] for i in range(dimension)))
    rep_index = {r: k for k, r in enumerate(reps)}
    return tuple(v[rep_index[f[i]]] for i in range(dimension))


# Reference for ggsolve.transfer.finite_ext_reduce: the product-and-filter
# reduction it replaced, unchanged but for the coset map, computed here.


def coset_map(fe, word):
    """f: c -> the unique d with c*word*d^{-1} in G."""
    return {c: fe.rewrite(c, word)[1] for c in fe.cosets}


def product_finite_ext_reduce(
    fe,
    v_words: Sequence[Sequence[str]],
    u_words: Sequence[Sequence[str]],
    g_oracle=None,
    variables: Optional[Sequence[str]] = None,
) -> bool:
    """Solvability of v0 u1^{x1} v1 ... un^{xn} vn = 1 over H (distinct variables).

    Reference for ggsolve.transfer.finite_ext_reduce: the product of all coset
    tuples filtered afterwards, each live branch asked as a chain automaton.

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
        fmaps = [coset_map(fe, u) for u in us]
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
