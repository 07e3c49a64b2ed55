"""Trace monoids: independence alphabets, canonical normal forms, Levi grids.

A trace is an equivalence class of words under swapping adjacent independent
letters.  We represent every trace by the lexicographically least word of its
class (with respect to the alphabet's fixed symbol order).  Normal forms are
computed with the piling ("heaps of pieces") technique: every letter is a piece
that covers its own column and the columns of all letters it depends on, and
the lex-least linearization is read off by repeatedly removing the least
minimal piece.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Optional, Sequence

from .errors import AlphabetMismatchError, InternalError, TraceError, UnknownLetterError


class IndependenceAlphabet:
    """Finite ordered set of letters plus an irreflexive symmetric independence relation.

    The symbol order (the order of ``letters``) is fixed at construction and
    drives all lexicographic normal forms.
    """

    __slots__ = (
        "letters",
        "independence",
        "_rank",
        "_indep_matrix",
        "_dep_incl_ranks",
        "_hash",
    )

    def __init__(self, letters: Sequence[str], independence: Iterable = ()):
        letters = tuple(letters)
        if len(set(letters)) != len(letters):
            raise TraceError(f"duplicate letters in {letters}")
        for name in letters:
            if not name or any(ch.isspace() for ch in name):
                raise TraceError(f"bad letter name {name!r}")
        rank = {a: i for i, a in enumerate(letters)}
        pairs = set()
        for pair in independence:
            a, b = tuple(pair)
            if a not in rank:
                raise UnknownLetterError(a, None)
            if b not in rank:
                raise UnknownLetterError(b, None)
            if a == b:
                raise TraceError(f"independence must be irreflexive, got ({a},{b})")
            pairs.add(frozenset((a, b)))
        self.letters = letters
        self.independence = frozenset(pairs)
        self._rank = rank
        n = len(letters)
        indep = [[False] * n for _ in range(n)]
        for pair in pairs:
            a, b = tuple(pair)
            i, j = rank[a], rank[b]
            indep[i][j] = indep[j][i] = True
        self._indep_matrix = tuple(tuple(row) for row in indep)
        # Per letter: the ranks of all letters it depends on, including itself.
        self._dep_incl_ranks = tuple(
            tuple(j for j in range(n) if j == i or not indep[i][j]) for i in range(n)
        )
        self._hash = hash((letters, self.independence))

    def __eq__(self, other):
        return (
            isinstance(other, IndependenceAlphabet)
            and self.letters == other.letters
            and self.independence == other.independence
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = sorted(tuple(sorted(p)) for p in self.independence)
        return f"IndependenceAlphabet({self.letters!r}, {pairs!r})"

    def __contains__(self, letter):
        return letter in self._rank

    def rank(self, letter: str) -> int:
        try:
            return self._rank[letter]
        except KeyError:
            raise UnknownLetterError(letter, None) from None

    def independent(self, a: str, b: str) -> bool:
        return self._indep_matrix[self.rank(a)][self.rank(b)]

    def dependent(self, a: str, b: str) -> bool:
        return not self.independent(a, b)

    def independent_sets(self, letters_a: Iterable[str], letters_b: Iterable[str]) -> bool:
        """True iff every letter of ``letters_a`` is independent of every letter of ``letters_b``."""
        lb = tuple(letters_b)
        return all(self.independent(a, b) for a in letters_a for b in lb)

    def max_independent_size(self) -> int:
        """alpha*: the maximal number of pairwise independent letters."""
        best = 1 if self.letters else 0
        n = len(self.letters)
        for size in range(2, n + 1):
            found = False
            for combo in itertools.combinations(range(n), size):
                if all(
                    self._indep_matrix[i][j] for i, j in itertools.combinations(combo, 2)
                ):
                    found = True
                    break
            if found:
                best = size
            else:
                break
        return best

    def check_word(self, word: Sequence[str]) -> None:
        for pos, letter in enumerate(word):
            if letter not in self._rank:
                raise UnknownLetterError(letter, pos)


def _pile(alphabet: IndependenceAlphabet, word: Sequence[str]) -> list:
    """The heap of ``word``: column j lists the ranks of its letters that depend on j.

    Columns are bottom first.  A letter r is minimal in the trace exactly
    when the bottom entry of its own column is r, and maximal exactly when
    the top entry is r; removing it removes one entry from that end of every
    column in its dependence set.  Entries are only ever compared on their
    own column, so which entry of another column is removed does not matter.
    """
    rank = alphabet._rank
    dep_incl = alphabet._dep_incl_ranks
    cols = [[] for _ in alphabet.letters]
    for letter in word:
        r = rank[letter]
        for j in dep_incl[r]:
            cols[j].append(r)
    return cols


def _depile(alphabet: IndependenceAlphabet, cols: list, heads: list, remaining: int) -> tuple:
    """Lex-least linearization of the ``remaining`` pieces of ``cols`` above ``heads``."""
    letters = alphabet.letters
    dep_incl = alphabet._dep_incl_ranks
    n_cols = len(letters)
    for col in cols:
        col.append(-1)  # top sentinel: never a rank
    out = []
    while remaining:
        for r in range(n_cols):
            if cols[r][heads[r]] == r:
                out.append(letters[r])
                for j in dep_incl[r]:
                    heads[j] += 1
                remaining -= 1
                break
        else:  # pragma: no cover - piling always exposes a minimal piece
            raise InternalError("piling depile stuck")
    return tuple(out)


def _canonical_word(alphabet: IndependenceAlphabet, word: Sequence[str]) -> tuple:
    """Lex-least linearization of the trace of ``word`` via piling."""
    if not word:
        return ()
    return _depile(alphabet, _pile(alphabet, word), [0] * len(alphabet.letters), len(word))


class Trace:
    """A trace, stored as the canonical (lex-least) word of its class."""

    __slots__ = ("alphabet", "word", "_hash")

    def __init__(self, alphabet: IndependenceAlphabet, word: Sequence[str] = ()):
        alphabet.check_word(word)
        self.alphabet = alphabet
        self.word = _canonical_word(alphabet, word)
        self._hash = hash((alphabet, self.word))

    @classmethod
    def _from_canonical(cls, alphabet: IndependenceAlphabet, word: tuple) -> "Trace":
        t = object.__new__(cls)
        t.alphabet = alphabet
        t.word = word
        t._hash = hash((alphabet, word))
        return t

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.alphabet == other.alphabet and self.word == other.word

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Trace({' '.join(self.word) if self.word else '_'})"

    def __bool__(self):
        return bool(self.word)

    def __mul__(self, other: "Trace") -> "Trace":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot multiply traces over different alphabets")
        return Trace._from_canonical(
            self.alphabet, _canonical_word(self.alphabet, self.word + other.word)
        )

    def alph(self) -> frozenset:
        return frozenset(self.word)

    def is_empty(self) -> bool:
        return not self.word

    def independent_of(self, other: "Trace") -> bool:
        return self.alphabet.independent_sets(self.alph(), other.alph())


def normal_form(alphabet: IndependenceAlphabet, raw_word: Sequence[str]) -> Trace:
    """Canonical representative of the trace of ``raw_word``.  Idempotent."""
    return Trace(alphabet, raw_word)


def empty_trace(alphabet: IndependenceAlphabet) -> Trace:
    return Trace._from_canonical(alphabet, ())


def concat(*traces: Trace) -> Trace:
    if not traces:
        raise ValueError("concat needs at least one trace")
    alphabet = traces[0].alphabet
    word = []
    for t in traces:
        if t.alphabet != alphabet:
            raise AlphabetMismatchError("concat over mixed alphabets")
        word.extend(t.word)
    return Trace(alphabet, word)


def trace_equal(s: Trace, t: Trace) -> bool:
    """Equality in the trace monoid (= equality of canonical words)."""
    if s.alphabet != t.alphabet:
        raise AlphabetMismatchError("cannot compare traces over different alphabets")
    return s.word == t.word


def min_letters(t: Trace) -> tuple:
    """Letters that can start a linearization of ``t`` (first occurrence unblocked)."""
    alphabet = t.alphabet
    seen: list = []
    found = []
    found_set = set()
    for letter in t.word:
        if letter not in found_set:
            if all(alphabet.independent(prev, letter) for prev in seen):
                found.append(letter)
                found_set.add(letter)
        if letter not in seen:
            seen.append(letter)
    return tuple(found)


def left_quotient(t: Trace, p: Trace) -> Optional[Trace]:
    """The trace ``s`` with ``t = p * s``, or None if ``p`` is not a prefix of ``t``."""
    if t.alphabet != p.alphabet:
        raise AlphabetMismatchError("quotient over mixed alphabets")
    alphabet = t.alphabet
    rank = alphabet._rank
    dep_incl = alphabet._dep_incl_ranks
    cols = _pile(alphabet, t.word)
    heads = [0] * len(cols)
    for letter in p.word:
        r = rank[letter]
        col = cols[r]
        if heads[r] >= len(col) or col[heads[r]] != r:
            return None
        for j in dep_incl[r]:
            heads[j] += 1
    rest = _depile(alphabet, cols, heads, len(t.word) - len(p.word))
    return Trace._from_canonical(alphabet, rest)


def right_quotient(t: Trace, s: Trace) -> Optional[Trace]:
    """The trace ``p`` with ``t = p * s``, or None if ``s`` is not a suffix of ``t``."""
    if t.alphabet != s.alphabet:
        raise AlphabetMismatchError("quotient over mixed alphabets")
    alphabet = t.alphabet
    rank = alphabet._rank
    dep_incl = alphabet._dep_incl_ranks
    cols = _pile(alphabet, t.word)
    for letter in reversed(s.word):
        r = rank[letter]
        col = cols[r]
        if not col or col[-1] != r:
            return None
        for j in dep_incl[r]:
            cols[j].pop()
    rest = _depile(alphabet, cols, [0] * len(cols), len(t.word) - len(s.word))
    return Trace._from_canonical(alphabet, rest)


def power(t: Trace, k: int) -> Trace:
    if k < 0:
        raise ValueError("trace powers take natural exponents")
    return Trace(t.alphabet, t.word * k)


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
            nxt = left_quotient(s, Trace._from_canonical(t.alphabet, (letter,)))
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
        rest = left_quotient(t, p)
        for letter in min_letters(rest):
            nxt = p * Trace._from_canonical(alphabet, (letter,))
            if nxt.word not in seen:
                seen[nxt.word] = nxt
                order.append(nxt)
                queue.append(nxt)
    return order


def connected_components(t: Trace) -> list:
    """Projections of ``t`` onto the connected components of its dependence graph.

    The components are pairwise independent and their product (in any order)
    equals ``t``; the empty trace yields the empty list.
    """
    if not t.word:
        return []
    alphabet = t.alphabet
    letters = sorted(t.alph(), key=alphabet.rank)
    comp_of = {}
    comps = []
    for letter in letters:
        if letter in comp_of:
            continue
        comp = {letter}
        frontier = [letter]
        while frontier:
            a = frontier.pop()
            for b in letters:
                if b not in comp and alphabet.dependent(a, b):
                    comp.add(b)
                    frontier.append(b)
        for a in comp:
            comp_of[a] = len(comps)
        comps.append(comp)
    out = []
    for comp in comps:
        word = [letter for letter in t.word if letter in comp]
        out.append(Trace(alphabet, word))
    return out


def is_connected(t: Trace) -> bool:
    """True iff ``t`` does not factor into two nonempty independent parts (and for the empty trace)."""
    return len(connected_components(t)) <= 1


class LeviGrid:
    """Witness grid for Levi's lemma: cells[i][j] sits in column i (us) and row j (vs)."""

    __slots__ = ("us", "vs", "cells")

    def __init__(self, us: Sequence[Trace], vs: Sequence[Trace], cells):
        self.us = tuple(us)
        self.vs = tuple(vs)
        self.cells = tuple(tuple(row) for row in cells)

    def validate(self) -> None:
        m, n = len(self.us), len(self.vs)
        if not self.us or not self.vs:
            raise TraceError("LeviGrid needs at least one row and column")
        alphabet = self.us[0].alphabet
        for i in range(m):
            col = empty_trace(alphabet)
            for j in range(n):
                col = col * self.cells[i][j]
            if col != self.us[i]:
                raise TraceError(f"column {i} does not compose to u_{i}")
        for j in range(n):
            row = empty_trace(alphabet)
            for i in range(m):
                row = row * self.cells[i][j]
            if row != self.vs[j]:
                raise TraceError(f"row {j} does not compose to v_{j}")
        for i in range(m):
            for k in range(i + 1, m):
                for j in range(n):
                    for l in range(j):
                        if not self.cells[i][j].independent_of(self.cells[k][l]):
                            raise TraceError(
                                f"cells ({i},{j}) and ({k},{l}) violate independence"
                            )


def _embed_parts(total_word: tuple, parts: Sequence[Trace], alphabet: IndependenceAlphabet):
    """Greedily assign each position of ``total_word`` a part index.

    Consumes, for each letter of each part in order, the least available
    position of the dependence graph carrying that letter.  Succeeds exactly
    when the parts compose to the total trace.
    """
    n = len(total_word)
    label = [None] * n
    consumed = [False] * n
    for idx, part in enumerate(parts):
        for target in part.word:
            pos = None
            for i in range(n):
                if consumed[i]:
                    continue
                if total_word[i] == target:
                    # minimal available position with this letter: no earlier
                    # unconsumed dependent position may exist
                    blocked = False
                    for j in range(i):
                        if not consumed[j] and alphabet.dependent(total_word[j], target):
                            blocked = True
                            break
                    if not blocked:
                        pos = i
                    break
                if alphabet.dependent(total_word[i], target):
                    break
            if pos is None:
                return None
            consumed[pos] = True
            label[pos] = idx
    if not all(consumed):
        return None
    return label


def levi_decompose(us: Sequence[Trace], vs: Sequence[Trace]) -> Optional[LeviGrid]:
    """A Levi grid for the two factorizations, or None when the products differ.

    The grid is built from two greedy position labelings of the product's
    dependence graph; the independence conditions hold automatically because
    both labelings are monotone along dependence edges.
    """
    us = list(us)
    vs = list(vs)
    if not us or not vs:
        raise TraceError("levi_decompose needs nonempty factor lists")
    alphabet = us[0].alphabet
    total = empty_trace(alphabet)
    for u in us:
        total = total * u
    check = empty_trace(alphabet)
    for v in vs:
        check = check * v
    if total != check:
        return None
    word = total.word
    col = _embed_parts(word, us, alphabet)
    row = _embed_parts(word, vs, alphabet)
    if col is None or row is None:  # pragma: no cover - equal products always embed
        raise AssertionError("greedy embedding failed on equal products")
    cells = [
        [
            Trace(
                alphabet,
                [word[p] for p in range(len(word)) if col[p] == i and row[p] == j],
            )
            for j in range(len(vs))
        ]
        for i in range(len(us))
    ]
    return LeviGrid(us, vs, cells)


def levi_split_pair(total: Trace, left: Trace, right: Trace, parts: Sequence[Trace]):
    """2-row Levi grid for ``total = left*right = parts[0]*...*parts[k-1]``.

    Returns (xs, ys) with parts[i] = xs[i]*ys[i], left = xs[0]..xs[k-1],
    right = ys[0]..ys[k-1] and ys[i] independent of xs[j] for i < j.
    """
    grid = levi_decompose(list(parts), [left, right])
    if grid is None:
        return None
    xs = [grid.cells[i][0] for i in range(len(parts))]
    ys = [grid.cells[i][1] for i in range(len(parts))]
    return xs, ys
