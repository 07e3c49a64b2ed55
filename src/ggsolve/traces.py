"""Trace monoids: independence alphabets, canonical normal forms, quotients.

A trace is an equivalence class of words under swapping adjacent independent
letters.  We represent every trace by the lexicographically least word of its
class (with respect to the alphabet's fixed symbol order).  Normal forms are
computed with the piling ("heaps of pieces") technique: every letter is a piece
that covers its own column and the columns of all letters it depends on, and
the lex-least linearization is read off by repeatedly removing the least
minimal piece.  ``Pile`` is the one piling loop: trace normal forms and
quotients use it without cancellation, free reduction in ``groups`` with it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .errors import AlphabetMismatchError, InternalError, TraceError, UnknownLetterError


class IndependenceAlphabet:
    """Finite ordered set of letters plus an irreflexive symmetric independence relation.

    The symbol order (the order of ``letters``) is fixed at construction and
    drives all lexicographic normal forms.  The constructor also builds the
    tables every ``Pile`` over the alphabet reads: letters are coded by rank,
    ``_col[code]`` is the code's column, ``_others[code]`` the other columns
    it covers (those of the letters it depends on), ``_inverse[code]`` the
    code of its inverse letter and ``_no_inverse`` all -1 (no inverse).
    ``dep_mask[code]`` has bit j set when code j depends on ``code`` (itself
    included): the closure automata test independence on these masks.
    """

    __slots__ = (
        "letters",
        "independence",
        "_rank",
        "_indep_matrix",
        "dep_mask",
        "_hash",
        "_col",
        "_n_cols",
        "_others",
        "_inverse",
        "_no_inverse",
        "_shift",
        "_mask",
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
        self.dep_mask = tuple(
            sum(1 << j for j in range(n) if not row[j]) for row in indep
        )
        self._hash = hash((letters, self.independence))
        col, self._inverse = self._pile_layout(n)
        self._col = col
        self._n_cols = col[-1] + 1 if n else 0
        self._others = tuple(
            tuple(sorted({col[j] for j in range(n) if not indep[i][j]} - {col[i]}))
            for i in range(n)
        )
        self._no_inverse = (-1,) * n
        # A pile entry is ``tag << _shift | code``; ``_mask`` exceeds every code.
        self._shift = n.bit_length()
        self._mask = (1 << self._shift) - 1

    def _pile_layout(self, n: int):
        """Column of each letter code (numbered in code order) and its inverse code (-1: none)."""
        return tuple(range(n)), (-1,) * n

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


class Pile:
    """The heap of a stream of letter codes, on its alphabet's tables.

    Column c lists, bottom first, one entry per live piece covering it:
    ``tag << shift | code`` on the piece's own column (the tag is its
    position in the stream) and the marker ``mask``, above every code, on
    the other columns it covers.  A marker sits below every column.  A letter
    is minimal (maximal) exactly when the lowest live (top) entry of its
    column is its own; removing it removes one entry from that end of every
    column it covers.  Entries are read only on their own column, so which
    marker goes does not matter.

    With ``cancel`` a pushed letter cancels the top of its column when that
    is its inverse; without, nothing cancels.  ``count`` is the number of
    live pieces, ``pushed`` of letters streamed; with ``track_pairs`` the
    cancellations go to ``pairs`` as (earlier tag, later tag).  Pieces leave
    from the bottom only after the last push.
    """

    __slots__ = ("alphabet", "count", "pushed", "pairs", "_cols", "_heads", "_inverse")

    def __init__(self, alphabet: IndependenceAlphabet, cancel=False, track_pairs=False):
        self.alphabet = alphabet
        self.count = self.pushed = 0
        self.pairs: Optional[list] = [] if track_pairs else None
        self._cols = [[alphabet._mask] for _ in range(alphabet._n_cols)]
        self._heads = [1] * alphabet._n_cols
        self._inverse = alphabet._inverse if cancel else alphabet._no_inverse

    def push(self, codes: Iterable[int]) -> None:
        """Stream letter codes onto the pile, cancelling where the piling allows."""
        alphabet = self.alphabet
        col_of, others = alphabet._col, alphabet._others
        mask, shift = alphabet._mask, alphabet._shift
        inverse, cols, pairs = self._inverse, self._cols, self.pairs
        tag, count = self.pushed, self.count
        for code in codes:
            col = cols[col_of[code]]
            top = col[-1]
            if top & mask == inverse[code]:
                col.pop()
                for j in others[code]:
                    cols[j].pop()
                if pairs is not None:
                    pairs.append((top >> shift, tag))
                count -= 1
            else:
                col.append(tag << shift | code)
                for j in others[code]:
                    cols[j].append(mask)
                count += 1
            tag += 1
        self.pushed, self.count = tag, count

    def push_word(self, word: Sequence[str]) -> None:
        rank = self.alphabet._rank
        self.push([rank[a] for a in word])

    def bottom(self, c: int) -> int:
        """Code of the lowest live entry of column c; -1 for a marker or none."""
        col, head, mask = self._cols[c], self._heads[c], self.alphabet._mask
        return -1 if head == len(col) or col[head] == mask else col[head] & mask

    def top(self, c: int) -> int:
        """Code of the top live entry of column c; -1 for a marker or none."""
        col, head, mask = self._cols[c], self._heads[c], self.alphabet._mask
        return -1 if head == len(col) or col[-1] == mask else col[-1] & mask

    def pop_bottom(self, code: int) -> bool:
        """Remove the minimal piece ``code``; False, removing nothing, if it is not minimal."""
        c = self.alphabet._col[code]
        if self.bottom(c) != code:
            return False
        for j in (c,) + self.alphabet._others[code]:
            self._heads[j] += 1
        self.count -= 1
        return True

    def pop_top(self, code: int) -> bool:
        """Remove the maximal piece ``code``; False, removing nothing, if it is not maximal."""
        c = self.alphabet._col[code]
        if self.top(c) != code:
            return False
        for j in (c,) + self.alphabet._others[code]:
            self._cols[j].pop()
        self.count -= 1
        return True

    def depile(self) -> tuple:
        """The live pieces' letters in lex-least order; ends the pile.

        A removal exposes only the columns its piece covers, so the scan for
        the least exposed column resumes at the least of those.
        """
        alphabet = self.alphabet
        letters, others, mask = alphabet.letters, alphabet._others, alphabet._mask
        cols, heads = self._cols, self._heads
        for col in cols:
            col.append(mask)  # top sentinel
        out = []
        c = 0
        try:
            for _ in range(self.count):
                while cols[c][heads[c]] == mask:
                    c += 1
                code = cols[c][heads[c]] & mask
                out.append(letters[code])
                heads[c] += 1
                covered = others[code]
                for j in covered:
                    heads[j] += 1
                if covered and covered[0] < c:
                    c = covered[0]
        except IndexError:  # pragma: no cover - piling always exposes a minimal piece
            raise InternalError("piling depile stuck") from None
        return tuple(out)


def _canonical_word(alphabet: IndependenceAlphabet, word: Sequence[str]) -> tuple:
    """Lex-least linearization of the trace of ``word`` via piling."""
    if not word:
        return ()
    pile = Pile(alphabet)
    pile.push_word(word)
    return pile.depile()


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


def empty_trace(alphabet: IndependenceAlphabet) -> Trace:
    return Trace._from_canonical(alphabet, ())


def left_quotient(t: Trace, p: Trace) -> Optional[Trace]:
    """The trace ``s`` with ``t = p * s``, or None if ``p`` is not a prefix of ``t``."""
    if t.alphabet != p.alphabet:
        raise AlphabetMismatchError("quotient over mixed alphabets")
    alphabet = t.alphabet
    rank = alphabet._rank
    pile = Pile(alphabet)
    pile.push_word(t.word)
    for letter in p.word:
        if not pile.pop_bottom(rank[letter]):
            return None
    return Trace._from_canonical(alphabet, pile.depile())


def right_quotient(t: Trace, s: Trace) -> Optional[Trace]:
    """The trace ``p`` with ``t = p * s``, or None if ``s`` is not a suffix of ``t``."""
    if t.alphabet != s.alphabet:
        raise AlphabetMismatchError("quotient over mixed alphabets")
    alphabet = t.alphabet
    rank = alphabet._rank
    pile = Pile(alphabet)
    pile.push_word(t.word)
    for letter in reversed(s.word):
        if not pile.pop_top(rank[letter]):
            return None
    return Trace._from_canonical(alphabet, pile.depile())


def power(t: Trace, k: int) -> Trace:
    if k < 0:
        raise ValueError("trace powers take natural exponents")
    return Trace(t.alphabet, t.word * k)


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
