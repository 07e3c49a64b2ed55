"""Graph-group elements as irreducible traces over a doubled alphabet.

Inverse letters are spelled with a trailing apostrophe; in codes, a is
``2 * base rank`` and a' is one more, so inversion is ``code ^ 1`` and a
word inverts as the reversed tuple of those (``invert_codes``).  The kernels
here work on codes only; letter names enter through ``free_reduce`` and
leave through ``word``, and ``inverse_letter``/``invert_word`` invert the
named words of the input formats and transfer constructions.

Free reduction runs on the trace pile (``traces.Pile``) with cancellation:
a and a' share one column, and a letter cancels the most recent surviving
occurrence of its inverse exactly when that occurrence is on top of the
column.  Entries carry position tags so that multiplication can report the
cancelled middle trace of the unique boundary factorization.
``SignedPile`` is that cancelling pile; ``_is_reduced`` checks a word without one.
``BlockProduct`` multiplies many items as blocks, constants and powers w^k
merged by free reduction and exponent arithmetic, and streams only what is
left through one pile; ``ConjugatePower`` keeps p w^k p^-1 folded until its
trace is read.  ``CoxeterImage`` is a second word-problem kernel that shares
nothing with the piles: the graph group acting on vectors mod a prime through
the doubled right-angled Coxeter group; ``_image_of`` keeps the last one built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, List, Sequence, Tuple

from .errors import AlphabetMismatchError, InternalError, ResourceExceeded, TraceError
from .traces import IndependenceAlphabet, Pile, Trace, _canonical_word, empty_trace

INVERSE_MARK = "'"


def inverse_letter(letter: str) -> str:
    if letter.endswith(INVERSE_MARK):
        return letter[:-1]
    return letter + INVERSE_MARK


def invert_word(word: Sequence[str]) -> tuple:
    """Reversal with letterwise inversion; an involution on raw words."""
    return tuple(inverse_letter(a) for a in reversed(word))


def invert_codes(codes: Sequence[int]) -> tuple:
    """``invert_word`` on doubled-alphabet codes."""
    return tuple([c ^ 1 for c in reversed(codes)])


def letter_balance(alphabet: DoubledAlphabet, codes: Iterable[int]) -> List[int]:
    """Per base letter of ``alphabet``, its occurrences in ``codes`` minus those of its inverse."""
    balance = [0] * len(alphabet.base.letters)
    for code in codes:
        balance[code >> 1] += -1 if code & 1 else 1
    return balance


class DoubledAlphabet(IndependenceAlphabet):
    """Base letters plus formal inverses; independence lifted sign-blind."""

    __slots__ = ("base",)

    def __init__(self, base: IndependenceAlphabet):
        for name in base.letters:
            if name.endswith(INVERSE_MARK):
                raise TraceError(f"base letter {name!r} must not end in {INVERSE_MARK!r}")
        letters = []
        for a in base.letters:
            letters.append(a)
            letters.append(a + INVERSE_MARK)
        pairs = []
        for pair in base.independence:
            a, b = tuple(pair)
            for x in (a, a + INVERSE_MARK):
                for y in (b, b + INVERSE_MARK):
                    pairs.append((x, y))
        super().__init__(letters, pairs)
        self.base = base

    def _pile_columns(self, n: int) -> tuple:
        # a (code 2i) and a' (2i + 1) share column i: they depend on the same
        # letters and on each other.
        return tuple(code >> 1 for code in range(n))


class GroupElement:
    """An element of the graph group, stored as its irreducible canonical trace."""

    __slots__ = ("trace",)

    def __init__(self, trace: Trace):
        self.trace = trace

    @property
    def alphabet(self) -> DoubledAlphabet:
        return self.trace.alphabet

    @property
    def codes(self) -> tuple:
        return self.trace.codes

    @property
    def word(self) -> tuple:
        return self.trace.word

    def __len__(self):
        return len(self.trace)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.trace == other.trace

    def __hash__(self):
        return hash(("GroupElement", self.trace))

    def __repr__(self):
        return f"GroupElement({' '.join(self.word) if self.codes else '_'})"

    def __bool__(self):
        return bool(self.codes)

    def is_identity(self) -> bool:
        return not self.codes

    def inverse(self) -> "GroupElement":
        # The inverse of an irreducible trace is irreducible.
        alphabet = self.alphabet
        codes = _canonical_word(alphabet, invert_codes(self.codes))
        return GroupElement(Trace._from_canonical(alphabet, codes))


class ConjugatePower(GroupElement):
    """p w^k p^-1, kept folded: (p, w) as ``cyclic_reduce`` returns them, w != 1, k >= 1.

    That word is reduced, so the length 2|p| + k|w| is exact without
    expanding; the trace is built when something first reads it.
    """

    __slots__ = ("p", "w", "k", "_trace")

    def __init__(self, p: GroupElement, w: GroupElement, k: int):
        self.p, self.w, self.k = p, w, k
        self._trace = None

    @property
    def trace(self) -> Trace:
        if self._trace is None:
            self._trace = _conjugate_power_trace(self.p, self.w, self.k)
        return self._trace

    @property
    def alphabet(self) -> DoubledAlphabet:
        return self.w.alphabet

    def __len__(self):
        return 2 * len(self.p) + self.k * len(self.w)


def identity(alphabet: DoubledAlphabet) -> GroupElement:
    return GroupElement(empty_trace(alphabet))


class SignedPile(Pile):
    """The cancelling ``traces.Pile``: free reduction of a stream of letter codes.

    An entry on its own column is ``tag << shift | code``, the tag being the
    letter's position in the stream.  A pushed letter cancels the top of its
    column when that is its inverse (``code ^ 1``); ``count`` is then the
    length of the reduced word so far and ``pushed`` the number of letters
    streamed.  With ``track_pairs`` the cancellations go to ``pairs`` as
    (earlier tag, later tag).
    """

    __slots__ = ("pushed", "pairs")

    def __init__(self, alphabet: DoubledAlphabet, track_pairs: bool = False):
        if not isinstance(alphabet, DoubledAlphabet):  # a plain alphabet has no inverses
            raise AlphabetMismatchError("free reduction needs a doubled alphabet")
        super().__init__(alphabet)
        self.pushed = 0
        self.pairs = [] if track_pairs else None

    def push(self, codes: Iterable[int]) -> None:
        """Stream letter codes (any iterable) onto the pile, cancelling where the piling allows."""
        alphabet = self.alphabet
        col_of, others = alphabet._col, alphabet._others
        mask, shift = alphabet._mask, alphabet._shift
        cols, pairs = self._cols, self.pairs
        tag, count = self.pushed, self.count
        for code in codes:
            col = cols[col_of[code]]
            top = col[-1]
            if top & mask == code ^ 1:
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

    def element(self) -> GroupElement:
        """The reduced product of everything pushed, as a normal form (ends the pile)."""
        return GroupElement(Trace._from_canonical(self.alphabet, self.depile()))


class BlockProduct:
    """A product of constants and powers w^k, merged as blocks before any letter streams.

    A block is a constant, kept reduced on its own ``SignedPile``, or a power
    ``[w, k]``: w a cyclically reduced element and k a nonzero integer (k < 0
    stands for (w^-1)^-k).  A constant next to a constant goes onto the same
    pile; a power next to a power with an equal or mutually inverse base adds
    to its exponent; a block that reaches 1 leaves.  ``length``, the sum of
    the block lengths, bounds the reduced length of the product from above.
    """

    __slots__ = ("alphabet", "blocks", "length")

    def __init__(self, alphabet: DoubledAlphabet):
        self.alphabet = alphabet
        self.blocks: list = []
        self.length = 0

    def push_codes(self, codes: Sequence[int]) -> None:
        """Append a word, in codes."""
        if not codes:
            return
        blocks = self.blocks
        if blocks and isinstance(blocks[-1], SignedPile):
            pile = blocks[-1]
            self.length -= pile.count
        else:
            pile = SignedPile(self.alphabet)
            blocks.append(pile)
        pile.push(codes)
        if pile.count:
            self.length += pile.count
        else:
            blocks.pop()

    def push_power(self, w: GroupElement, k: int) -> None:
        """Append w^k, w cyclically reduced and k natural."""
        if not k or w.is_identity():
            return
        blocks = self.blocks
        if blocks and isinstance(blocks[-1], list):
            top = blocks[-1]
            top_w, top_k = top
            if top_w == w:
                merged = top_k + k
            elif len(top_w) == len(w) and top_w == w.inverse():
                merged = top_k - k
            else:
                merged = None
            if merged is not None:
                self.length += (abs(merged) - abs(top_k)) * len(w)
                if merged:
                    top[1] = merged
                else:
                    blocks.pop()
                return
        blocks.append([w, k])
        self.length += k * len(w)

    def push_conjugate_power(self, p: GroupElement, w: GroupElement, k: int) -> None:
        """Append p w^k p^-1 as the blocks p, w^k, p^-1."""
        self.push_codes(p.codes)
        self.push_power(w, k)
        self.push_codes(invert_codes(p.codes))

    def _pile(self) -> SignedPile:
        """The letters of every block streamed onto one signed pile (ends the blocks)."""
        pile = SignedPile(self.alphabet)
        for block in self.blocks:
            if isinstance(block, SignedPile):
                pile.push(block.depile())
                continue
            w, k = block
            codes = w.codes if k > 0 else invert_codes(w.codes)
            pile.push(chain.from_iterable(repeat(codes, abs(k))))
        return pile

    def collapse(self) -> int:
        """Stream the blocks and keep their reduced product as one constant; its length."""
        pile = self._pile()
        self.blocks = [pile] if pile.count else []
        self.length = pile.count
        return self.length

    def element(self) -> GroupElement:
        """The reduced product of the blocks, as a normal form (ends the blocks)."""
        return self._pile().element()


def _depile_counted(pile: Pile) -> tuple:
    """``pile.depile()``, which must give ``pile.count`` letters, or InternalError."""
    codes = pile.depile()
    if len(codes) != pile.count:
        raise InternalError("depiled word and pile count differ")
    return codes


def _reduce_tagged(alphabet: DoubledAlphabet, codes: Sequence[int]):
    """Free reduction via signed piling.

    Returns (canonical reduced codes, cancelled pairs as (tag_i, tag_j) with
    tag_i < tag_j), where the tag of a letter is its position in ``codes``.
    """
    pile = SignedPile(alphabet, track_pairs=True)
    pile.push(codes)
    return _depile_counted(pile), pile.pairs


def _is_reduced(alphabet: DoubledAlphabet, codes: Sequence[int]) -> bool:
    """Whether ``codes`` is reduced: no letter's first dependent successor is its inverse."""
    dep_mask, n = alphabet.dep_mask, len(codes)
    # at most one letter per column scans past any position: O(n |columns|)
    for i, c in enumerate(codes):
        mask = dep_mask[c]
        for j in range(i + 1, n):
            d = codes[j]
            if mask >> d & 1:
                if d == c ^ 1:
                    return False
                break
    return True


def free_reduce(alphabet: DoubledAlphabet, word) -> GroupElement:
    """The unique irreducible normal form of a raw word (letter names) or trace."""
    if isinstance(word, Trace):
        if word.alphabet != alphabet:
            raise AlphabetMismatchError("trace over a different alphabet")
        codes = word.codes
    else:
        codes = alphabet.encode(word)
    reduced, _ = _reduce_tagged(alphabet, codes)
    return GroupElement(Trace._from_canonical(alphabet, reduced))


_VERIFY_MULT_LIMIT = 4000

_IMAGE_PRIME = (1 << 61) - 1


def _image_start(dimension: int) -> tuple:
    """(g, g^2, ..., g^dimension) mod ``_IMAGE_PRIME`` for one fixed g.

    An integer matrix with a row that is nonzero mod the prime kills this
    vector only when g is a root of that row, read as a polynomial of degree
    below ``dimension``.
    """
    return tuple(pow(0x9E3779B97F4A7C15, t + 1, _IMAGE_PRIME) for t in range(dimension))


class CoxeterImage:
    """The graph group acting on vectors mod a prime through the doubled Coxeter group.

    Each base letter a gives two reflections s(a,1), s(a,2), numbered
    ``2 * rank`` and one more, so that the reflections of a letter code c
    are c ^ 1 and c.  s(a,i) and s(b,j) commute exactly when a I b and
    a != b; s(a,1) and s(a,2) generate an infinite dihedral group.  The
    letter a maps to s(a,1) s(a,2) and a' to s(a,2) s(a,1), which respects
    the relations of the graph group.  A reflection s acts on a vector v by
    v[s] = 2 * (sum of v[t] over the t != s not commuting with s) - v[s]
    mod ``_IMAGE_PRIME``: the Tits representation (B(s,s) = 1, B(s,t) = 0
    when s and t commute, -1 otherwise), whose integer matrices are never
    formed.

    Over the integers the map is faithful: a -> s(a,1) s(a,2) embeds Z in
    the infinite dihedral group, a graph product of injective vertex maps
    is injective (E. R. Green, thesis, Leeds 1990), and the Tits
    representation of a Coxeter group is faithful (Humphreys, Reflection
    Groups and Coxeter Groups, 5.3-5.4).  Modulo the prime it is a
    homomorphism only: different vectors prove different elements, equal
    vectors are evidence.
    """

    __slots__ = ("_others", "start")

    def __init__(self, alphabet: DoubledAlphabet):
        dep_mask = alphabet.dep_mask
        dimension = len(dep_mask)
        # besides each other, s(a,1) and s(a,2) fail to commute with the same
        # reflections: those of the other letters that a depends on
        others = []
        for s in range(0, dimension, 2):
            mask = dep_mask[s] & ~(3 << s)
            others += [tuple(t for t in range(dimension) if mask >> t & 1)] * 2
        self._others = tuple(others)
        self.start = _image_start(dimension)

    def apply(self, codes: Sequence[int], v: List[int]) -> List[int]:
        """The image of the word ``codes`` applied to v, in place: its last letter acts first.

        Letter c is s(c ^ 1), then s(c); one sum over their shared neighbours serves both."""
        others, get, prime = self._others, v.__getitem__, _IMAGE_PRIME
        for c in reversed(codes):
            s = c ^ 1
            rest = sum(map(get, others[c]))
            v[s] = x = (2 * (rest + v[c]) - v[s]) % prime
            v[c] = (2 * (rest + x) - v[c]) % prime
        return v

    def apply_power(self, codes: Sequence[int], k: int, v: List[int]) -> List[int]:
        """W^k v for W the image of ``codes``, k natural and v nonzero, in place.

        Up to the dimension, W applies k times.  Beyond it, W^k v is the
        combination of the Krylov vectors v, Wv, ..., W^(d-1) v by the
        coefficients of t^k modulo their first dependency W^d v = sum a_j W^j v,
        powered by squaring: O(d^2 log k) on top of d + 1 applications.
        """
        if k <= len(v):
            for _ in range(k):
                self.apply(codes, v)
            return v
        vectors, relation = self.krylov(codes, v)
        coefficients = _power_mod(k, relation)
        prime = _IMAGE_PRIME
        v[:] = [
            sum(c * x for c, x in zip(coefficients, column)) % prime for column in zip(*vectors)
        ]
        return v

    def krylov(self, codes: Sequence[int], v: Sequence[int]) -> Tuple[list, list]:
        """([v, Wv, ..., W^(d-1) v], [a_0, ..., a_(d-1)]) for W the image of ``codes``.

        W^d v = sum a_j W^j v is the first dependency: each new vector is
        eliminated against the reduced earlier ones, and the combination
        coefficients it carries give the dependency when it reduces to 0.
        """
        prime = _IMAGE_PRIME
        vectors: list = []
        basis: list = []  # (pivot, row, combination): row[pivot] == 1
        x = list(v)
        while True:
            i = len(vectors)
            row, combination = list(x), [0] * i + [1]
            for pivot, basis_row, basis_combination in basis:
                f = row[pivot]
                if f:
                    row = [(a - f * b) % prime for a, b in zip(row, basis_row)]
                    for j, b in enumerate(basis_combination):
                        combination[j] = (combination[j] - f * b) % prime
            pivot = next((t for t, a in enumerate(row) if a), None)
            if pivot is None:
                return vectors, [-c % prime for c in combination[:i]]
            inverse = pow(row[pivot], -1, prime)
            basis.append((pivot, [a * inverse % prime for a in row],
                          [c * inverse % prime for c in combination]))
            vectors.append(x)
            x = self.apply(codes, list(x))


# ``CoxeterImage(alphabet)``, built once while its callers stay on one alphabet
_image_of = lru_cache(maxsize=1)(CoxeterImage)


def _power_mod(k: int, relation: Sequence[int]) -> List[int]:
    """The coefficients of t^k modulo t^d - sum relation[j] t^j, d = len(relation) >= 1."""
    prime, d = _IMAGE_PRIME, len(relation)
    r = [1] + [0] * (d - 1)
    for bit in bin(k)[2:]:
        product = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(r):
                    product[i + j] += a * b
        if bit == "1":
            product.insert(0, 0)
        for e in range(len(product) - 1, d - 1, -1):
            c = product[e] % prime
            if c:
                for j, a in enumerate(relation):
                    product[e - d + j] += c * a
        r = [c % prime for c in product[:d]]
    return r


class _Cancelled(Trace):
    """The middle trace p of ``mult``: g's cancelled letters, canonicalized on first read."""

    __slots__ = ("_letters", "_codes")

    def __init__(self, alphabet: DoubledAlphabet, letters: list):
        self.alphabet, self._letters, self._codes = alphabet, letters, None

    @property
    def codes(self) -> tuple:
        if self._codes is None:
            self._codes = _canonical_word(self.alphabet, self._letters)
        return self._codes

    def is_empty(self) -> bool:
        return not self._letters


def mult(g: GroupElement, h: GroupElement) -> Tuple[GroupElement, Trace]:
    """Irreducible normal form of gh plus the cancelled middle p.

    There are unique factorizations g = u p and h = p^{-1} v with uv irreducible;
    returns (uv, p).  Every cancellation pairs a letter of g with a letter of
    h (both operands are irreducible), which is checked.  When the operands
    have at most ``_VERIFY_MULT_LIMIT`` letters together, the factorization is
    checked too, on one heap: g's cancelled letters in g's order (a
    linearization of p) leave the top of g's pile, their reversed inverses
    (one of p^-1) the bottom of h's; h's rest is stacked on g's and depiled
    as uv for the comparison.  A failed check raises InternalError.  p is
    canonicalized only when its ``codes`` are read.
    """
    if g.alphabet != h.alphabet:
        raise AlphabetMismatchError("mult over mixed alphabets")
    alphabet = g.alphabet
    gc, hc = g.codes, h.codes
    cut = len(gc)
    reduced, pairs = _reduce_tagged(alphabet, gc + hc)
    cancelled_in_g = []
    for i, j in pairs:
        if not (i < cut <= j):
            raise InternalError("internal cancellation between irreducible operands")
        cancelled_in_g.append(i)
    cancelled_in_g.sort()
    cancelled = [gc[i] for i in cancelled_in_g]
    if len(gc) + len(hc) <= _VERIFY_MULT_LIMIT:
        u, v = Pile(alphabet), Pile(alphabet)
        u.push(gc)
        if not u.pop_top(cancelled):
            raise InternalError("cancelled part is not a suffix of g")
        v.push(hc)
        if not v.pop_bottom(invert_codes(cancelled)):
            raise InternalError("inverse of cancelled part is not a prefix of h")
        u.stack(v)
        if u.depile() != reduced:
            raise InternalError("u*v differs from the reduced product")
    return GroupElement(Trace._from_canonical(alphabet, reduced)), _Cancelled(alphabet, cancelled)


def cyclic_reduce(g: GroupElement) -> Tuple[GroupElement, GroupElement]:
    """Unique (p, w) with g = p w p^{-1} and w cyclically reduced; |g| = |w| + 2|p|.

    One piling of g: while two pieces are left, peel the least letter x that
    is minimal while x' is maximal (x at the bottom of its column and x' on
    top), then depile the core.
    """
    alphabet = g.alphabet
    pile = Pile(alphabet)
    pile.push(g.codes)
    peeled = []
    while pile.count >= 2:
        for c in range(alphabet._n_cols):
            x = pile.bottom(c)
            if x >= 0 and pile.top(c) == x ^ 1:
                pile.pop_bottom((x,))
                pile.pop_top((x ^ 1,))
                peeled.append(x)
                break
        else:
            break
    w = Trace._from_canonical(alphabet, _depile_counted(pile))
    p = Trace._from_canonical(alphabet, _canonical_word(alphabet, peeled))
    return GroupElement(p), GroupElement(w)


def _conjugate_power(g: GroupElement, k: int, cap: int):
    """(p, w) = cyclic_reduce(g) for g^k = p w^k p^{-1}, or None when k == 0.

    Raises ResourceExceeded when 2|p| + k|w| exceeds ``cap``.
    """
    if k < 0:
        raise ValueError("power_nf takes natural exponents")
    if k == 0:
        return None
    p, w = cyclic_reduce(g)
    required = 2 * len(p) + k * len(w)
    if required > cap:
        raise ResourceExceeded(required, cap)
    return p, w


def power_nf(g: GroupElement, k: int, cap: int) -> GroupElement:
    """Normal form of g^k via the conjugate-power representation p w^k p^{-1}.

    Since w^k is irreducible for cyclically reduced w, the result length is
    exactly 2|p| + k|w| for k >= 1; raises ResourceExceeded when that exceeds
    ``cap`` (without materializing anything).
    """
    conj = _conjugate_power(g, k, cap)
    if conj is None:
        return identity(g.alphabet)
    return GroupElement(_conjugate_power_trace(*conj, k))


def _conjugate_power_trace(p: GroupElement, w: GroupElement, k: int) -> Trace:
    """The trace of p w^k p^-1 for (p, w) = cyclic_reduce(g); InternalError if it reduces."""
    alphabet = w.alphabet
    reduced, pairs = _reduce_tagged(alphabet, p.codes + w.codes * k + invert_codes(p.codes))
    if pairs:
        raise InternalError("p w^k p^-1 unexpectedly reducible")
    return Trace._from_canonical(alphabet, reduced)
