"""Trace monoids: independence alphabets, canonical normal forms, quotients.

A trace is an equivalence class of words under swapping adjacent independent
letters.  We represent every trace by the lexicographically least word of its
class (with respect to the alphabet's fixed symbol order), spelled in letter
codes: a letter's code is its rank in that order.  Letter names appear only
at the boundary: ``IndependenceAlphabet.encode`` turns a word into codes
(and names an unknown letter with its position), ``decode`` and
``Trace.word`` turn codes back into names.  Normal forms are computed with
the piling ("heaps of pieces") technique: every letter is a piece that
covers its own column and the columns of all letters it depends on, and the
lex-least linearization is read off by repeatedly removing the least minimal
piece.  ``Pile`` is the piling loop of trace normal forms and quotients; the
free reduction in ``groups`` is a cancelling subclass of it.  Piles of two
words stack (``Pile.stack``) into the pile of their concatenation.
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
    ``_col[code]`` is the code's column and ``_others[code]`` the other
    columns it covers (those of the letters it depends on).
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
        col = self._pile_columns(n)
        self._col = col
        self._n_cols = col[-1] + 1 if n else 0
        self._others = tuple(
            tuple(sorted({col[j] for j in range(n) if not indep[i][j]} - {col[i]}))
            for i in range(n)
        )
        # A cancelling pile packs ``tag << _shift | code``; ``_mask`` exceeds every code.
        self._shift = n.bit_length()
        self._mask = (1 << self._shift) - 1

    def _pile_columns(self, n: int) -> tuple:
        """Column of each letter code, columns numbered in code order."""
        return tuple(range(n))

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

    def encode(self, word: Sequence[str]) -> tuple:
        """The codes of ``word``'s letters.

        An unknown letter raises UnknownLetterError with its position.
        """
        rank = self._rank
        try:
            return tuple([rank[a] for a in word])
        except KeyError:
            pos = next(i for i, a in enumerate(word) if a not in rank)
            raise UnknownLetterError(word[pos], pos) from None

    def decode(self, codes: Sequence[int]) -> tuple:
        """The letter names of ``codes``."""
        letters = self.letters
        return tuple([letters[c] for c in codes])

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


class Pile:
    """The heap of a stream of letter codes, on its alphabet's tables.

    Column c lists, bottom first, one entry per live piece covering it: the
    piece's code on its own column and the marker ``mask``, above every
    code, on the other columns it covers.  A marker sits below every column.
    A letter is minimal (maximal) exactly when the lowest live (top) entry of
    its column is its own; removing it removes one entry from that end of
    every column it covers.  Entries are read only on their own column, so
    which marker goes does not matter.  ``count`` is the number of live
    pieces.  Pieces leave from the bottom only after the last push.
    ``stack`` puts another pile's live pieces on top, column by column.

    Nothing cancels here; ``groups.SignedPile`` overrides ``push`` with the
    cancelling loop and packs a position tag above the code of an entry, so
    every reader masks an entry with ``mask`` before it compares codes.
    """

    __slots__ = ("alphabet", "count", "_cols", "_heads")

    def __init__(self, alphabet: IndependenceAlphabet):
        self.alphabet = alphabet
        self.count = 0
        self._cols = [[alphabet._mask] for _ in range(alphabet._n_cols)]
        self._heads = [1] * alphabet._n_cols

    def push(self, codes: Sequence[int]) -> None:
        """Pile letter codes up."""
        alphabet = self.alphabet
        col_of, others, mask, cols = alphabet._col, alphabet._others, alphabet._mask, self._cols
        for code in codes:
            cols[col_of[code]].append(code)
            for j in others[code]:
                cols[j].append(mask)
        self.count += len(codes)

    def bottom(self, c: int) -> int:
        """Code of the lowest live entry of column c; -1 for a marker or none."""
        col, head, mask = self._cols[c], self._heads[c], self.alphabet._mask
        return -1 if head == len(col) or col[head] == mask else col[head] & mask

    def top(self, c: int) -> int:
        """Code of the top live entry of column c; -1 for a marker or none."""
        col, head, mask = self._cols[c], self._heads[c], self.alphabet._mask
        return -1 if head == len(col) or col[-1] == mask else col[-1] & mask

    def pop_bottom(self, codes: Sequence[int]) -> bool:
        """Remove the pieces ``codes`` from the bottom in turn; False at one not minimal."""
        alphabet = self.alphabet
        col_of, others, mask = alphabet._col, alphabet._others, alphabet._mask
        cols, heads = self._cols, self._heads
        for code in codes:
            c = col_of[code]
            col, head = cols[c], heads[c]
            if head == len(col) or col[head] & mask != code:
                return False
            heads[c] = head + 1
            for j in others[code]:
                heads[j] += 1
            self.count -= 1
        return True

    def pop_top(self, codes: Sequence[int]) -> bool:
        """Remove the pieces ``codes`` from the top, last first; False at one not maximal."""
        alphabet = self.alphabet
        col_of, others, mask = alphabet._col, alphabet._others, alphabet._mask
        cols, heads = self._cols, self._heads
        for code in reversed(codes):
            c = col_of[code]
            col = cols[c]
            if heads[c] == len(col) or col[-1] & mask != code:
                return False
            col.pop()
            for j in others[code]:
                cols[j].pop()
            self.count -= 1
        return True

    def stack(self, other: "Pile") -> None:
        """Put ``other``'s live pieces on top of these: the heap of the concatenation.

        A heap's column lists the pieces covering it in word order, so the
        heap of st is s's column followed by t's, column by column.
        """
        for col, other_col, head in zip(self._cols, other._cols, other._heads):
            col.extend(other_col[head:])
        self.count += other.count

    def depile(self) -> tuple:
        """The live pieces' codes in lex-least order; ends the pile.

        A removal exposes only the columns its piece covers, so the scan for
        the least exposed column resumes at the least of those.
        """
        alphabet = self.alphabet
        others, mask = alphabet._others, alphabet._mask
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
                out.append(code)
                heads[c] += 1
                covered = others[code]
                for j in covered:
                    heads[j] += 1
                if covered and covered[0] < c:
                    c = covered[0]
        except IndexError:  # pragma: no cover - piling always exposes a minimal piece
            raise InternalError("piling depile stuck") from None
        return tuple(out)


def _canonical_word(alphabet: IndependenceAlphabet, codes: Sequence[int]) -> tuple:
    """Lex-least linearization of the trace of ``codes`` via piling, in codes."""
    if not codes:
        return ()
    pile = Pile(alphabet)
    pile.push(codes)
    return pile.depile()


class Trace:
    """A trace, stored as the codes of the canonical (lex-least) word of its class."""

    __slots__ = ("alphabet", "codes")

    def __init__(self, alphabet: IndependenceAlphabet, word: Sequence[str] = ()):
        self.alphabet = alphabet
        self.codes = _canonical_word(alphabet, alphabet.encode(word))

    @classmethod
    def _from_canonical(cls, alphabet: IndependenceAlphabet, codes: tuple) -> "Trace":
        t = object.__new__(cls)
        t.alphabet = alphabet
        t.codes = codes
        return t

    @property
    def word(self) -> tuple:
        """The canonical word, in letter names."""
        return self.alphabet.decode(self.codes)

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.codes == other.codes and self.alphabet == other.alphabet

    def __hash__(self):
        return hash(self.codes)

    def __repr__(self):
        return f"Trace({' '.join(self.word) if self.codes else '_'})"

    def __bool__(self):
        return bool(self.codes)

    def __mul__(self, other: "Trace") -> "Trace":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot multiply traces over different alphabets")
        return Trace._from_canonical(
            self.alphabet, _canonical_word(self.alphabet, self.codes + other.codes)
        )

    def is_empty(self) -> bool:
        return not self.codes


def empty_trace(alphabet: IndependenceAlphabet) -> Trace:
    return Trace._from_canonical(alphabet, ())


def left_quotient(t: Trace, p: Sequence[int]) -> Optional[Trace]:
    """The trace ``s`` with ``t = p * s``, or None if ``p`` is not a prefix of ``t``.

    ``p`` is the codes of any linearization of the divisor, over ``t``'s
    alphabet: the pieces leave the bottom of ``t``'s pile in that order.
    """
    pile = Pile(t.alphabet)
    pile.push(t.codes)
    if not pile.pop_bottom(p):
        return None
    return Trace._from_canonical(t.alphabet, pile.depile())


def right_quotient(t: Trace, s: Sequence[int]) -> Optional[Trace]:
    """The trace ``p`` with ``t = p * s``, or None if ``s`` is not a suffix of ``t``.

    ``s`` is the codes of any linearization of the divisor, over ``t``'s
    alphabet: the pieces leave the top of ``t``'s pile last first.
    """
    pile = Pile(t.alphabet)
    pile.push(t.codes)
    if not pile.pop_top(s):
        return None
    return Trace._from_canonical(t.alphabet, pile.depile())


def connected_components(t: Trace) -> list:
    """Projections of ``t`` onto the connected components of its dependence graph.

    The components are pairwise independent and their product (in any order)
    equals ``t``; the empty trace yields the empty list.  A component is a
    letter bit mask, grown from its least letter along ``dep_mask``.
    """
    alphabet = t.alphabet
    dep_mask = alphabet.dep_mask
    present = 0
    for c in t.codes:
        present |= 1 << c
    out = []
    left = present
    while left:
        comp = frontier = left & -left
        while frontier:
            grown = 0
            for c in range(frontier.bit_length()):
                if frontier >> c & 1:
                    grown |= dep_mask[c]
            frontier = grown & present & ~comp
            comp |= frontier
        left &= ~comp
        codes = tuple(c for c in t.codes if comp >> c & 1)
        out.append(Trace._from_canonical(alphabet, _canonical_word(alphabet, codes)))
    return out


def is_connected(t: Trace) -> bool:
    """True iff ``t`` does not factor into two nonempty independent parts (and for the empty trace)."""
    return len(connected_components(t)) <= 1
