"""Base-group oracles: the pluggable contract behind the transfer algorithms.

An oracle answers the word problem and knapsack-automaton membership for its
group.  Implementations: finite cyclic groups on residues mod n, the
integers, free groups via Benois saturation, graph groups via the solver, and
free products (which close the loop with the saturation algorithms).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..automata import EPS, Nfa, benois_member
from ..errors import AlphabetMismatchError, LimitsExceeded, StructureError
from ..groups import DoubledAlphabet, free_reduce, inverse_letter, invert_word
from ..semilinear import DiophantineSystem, diophantine_solve
from ..traces import IndependenceAlphabet
from .kauto import Restriction, equation_chain, plain_alphabet, skeletons


class GroupOracle:
    """Contract: a named generator alphabet plus two decision procedures.

    ``ka_membership`` memoizes on the automaton it is asked about;
    implementations override ``_member_impl``, and may override
    ``knapsack`` where the group has a closed form.  The saturations' phase
    2 asks ``reaches`` about one pair of states at a time; by default that
    is one ``ka_membership`` question about a cut, and an implementation
    may override it to answer every pair from searches it keeps with the
    restriction.
    """

    letters: Tuple[str, ...]
    alphabet: IndependenceAlphabet

    def is_identity(self, word: Sequence[str]) -> bool:
        raise NotImplementedError

    def _member_impl(self, nfa: Nfa, target_word: tuple) -> bool:
        raise NotImplementedError

    def ka_membership(self, nfa: Nfa, target_word: Sequence[str]) -> bool:
        """Does the automaton accept some word equal to ``target_word`` in the group?

        The automaton must be over this oracle's ``alphabet`` object
        (AlphabetMismatchError otherwise), as the saturations' cuts and the
        finite-extension chains are; they are also trimmed, so no two
        questions differ only in useless states.  The memo is read once,
        keyed on the transitions, initial state, finals and target, and
        grows by one entry per ``_member_impl`` call.
        """
        if nfa.alphabet is not self.alphabet:
            raise AlphabetMismatchError("automaton over a different alphabet than its oracle")
        cache = getattr(self, "_member_cache", None)
        if cache is None:
            cache = self._member_cache = {}
        target = tuple(target_word)
        key = (nfa.transitions, nfa.initial, nfa.finals, target)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = self._member_impl(nfa, target)
        return hit

    def reaches(self, restriction: Restriction, p, q, target_word: Sequence[str]) -> bool:
        """Does some path from p to q in ``restriction`` spell ``target_word`` in the group?

        The restriction is over this oracle's ``alphabet``, and p and q are
        states its builder had when the restriction was first asked about.
        The empty path counts, so p == q asks whether the target is 1 or a
        cycle through p spells it.  By default this is ``ka_membership`` of
        ``restriction.cut(p, [q])``, a cut kept in the restriction's ``memo``
        under (p, q) so that every target after the first reuses it.
        """
        sub = restriction.memo.get((p, q))
        if sub is None:
            sub = restriction.memo[(p, q)] = restriction.cut(p, [q])
        return self.ka_membership(sub, target_word)

    def knapsack(self, v_words: Sequence[Sequence[str]], u_words: Sequence[Sequence[str]]) -> bool:
        """Does v0 u1^y1 v1 ... un^yn vn = 1 have a solution y in N^n?"""
        return self.ka_membership(equation_chain(self.alphabet, v_words, u_words), ())


class FiniteGroupOracle(GroupOracle):
    """The cyclic group Z/n on one generator letter, computed on residues mod n."""

    def __init__(self, n: int, letter: str = "g"):
        if n < 1:
            raise StructureError("a cyclic group has order at least 1")
        self.n = n
        self.letters = (letter, inverse_letter(letter))
        self.weight = {letter: 1, self.letters[1]: n - 1}
        self.alphabet = plain_alphabet(self.letters)

    def eval_word(self, word: Sequence[str]) -> int:
        return sum(self.weight[a] for a in word) % self.n

    def is_identity(self, word) -> bool:
        return self.eval_word(word) == 0

    def _search(self, out: Dict, start) -> Dict:
        """State -> bit mask of the residues that paths from ``start`` along
        ``out`` (state -> [(label, state)]) spell to it; ``start`` has bit 0.
        ``reaches`` runs it on a restriction, ``_member_impl`` on an automaton."""
        n, weight, full = self.n, self.weight, (1 << self.n) - 1
        masks = {start: 1}
        stack = [start]
        while stack:
            state = stack.pop()
            mask = masks[state]
            for a, d in out.get(state, ()):
                k = 0 if a is EPS else weight[a]
                old = masks.get(d, 0)
                new = old | (((mask << k) | (mask >> (n - k))) & full)
                if new != old:
                    masks[d] = new
                    stack.append(d)
        return masks

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        """One ``_search`` from the initial state; is the target's bit set at a final?"""
        out: Dict = {}
        for p, a, q in nfa.transitions:
            out.setdefault(p, []).append((a, q))
        masks = self._search(out, nfa.initial)
        bit = 1 << self.eval_word(target_word)
        return any(masks.get(f, 0) & bit for f in nfa.finals)

    def reaches(self, restriction: Restriction, p, q, target_word) -> bool:
        """One search from p per restriction and source, kept in the
        restriction's ``memo``; every q and target after it is a lookup."""
        masks = restriction.memo.get((self, p))
        if masks is None:
            if restriction.alphabet is not self.alphabet:
                raise AlphabetMismatchError("restriction over a different alphabet than its oracle")
            masks = restriction.memo[(self, p)] = self._search(restriction.out, p)
        return bool(masks.get(q, 0) >> self.eval_word(target_word) & 1)


class ZOracle(GroupOracle):
    """The integers; knapsack-automaton membership via skeletons + Diophantine."""

    def __init__(self, letter: str = "a"):
        self.letters = (letter, inverse_letter(letter))
        self.weight = {letter: 1, self.letters[1]: -1}
        self.alphabet = plain_alphabet(self.letters)

    def value(self, word) -> int:
        try:
            return sum(self.weight[a] for a in word)
        except KeyError as exc:
            raise StructureError(f"letter {exc.args[0]!r} outside the Z alphabet") from None

    def is_identity(self, word) -> bool:
        return self.value(word) == 0

    def knapsack(self, v_words, u_words) -> bool:
        """One equation sum(v) + sum(y_i u_i) = 0 over N^n.  The chain's
        skeletons (each subset of entered powers, 1 + y copies of each) cover
        the same N^n, so this answers as ``ka_membership`` of the chain; it
        leaves the memo alone."""
        d = DiophantineSystem([[self.value(u) for u in u_words]], [-sum(map(self.value, v_words))])
        return diophantine_solve(d) is not None

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        """One ``knapsack`` equation per skeleton, with target^-1 ahead of v0."""
        head = invert_word(tuple(target_word))
        return any(self.knapsack((head + vs[0],) + vs[1:], us) for vs, us in skeletons(nfa))


class FreeGroupOracle(GroupOracle):
    """A finitely generated free group; membership by Benois saturation."""

    def __init__(self, base_letters: Sequence[str]):
        self.alphabet = DoubledAlphabet(IndependenceAlphabet(tuple(base_letters)))
        self.letters = self.alphabet.letters

    def is_identity(self, word) -> bool:
        return free_reduce(self.alphabet, word).is_identity()

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        return benois_member(nfa, tuple(target_word))


class GraphGroupOracle(GroupOracle):
    """A graph group; skeleton equations are delegated to the exponent solver."""

    def __init__(self, alphabet: DoubledAlphabet, search_cap: int):
        self.alphabet = alphabet
        self.letters = alphabet.letters
        self.search_cap = search_cap

    def is_identity(self, word) -> bool:
        return free_reduce(self.alphabet, word).is_identity()

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        """One ``chain_equation`` per skeleton, with target^-1 ahead of v0."""
        from ..solver import chain_equation, solve_exact, solve_search

        head = invert_word(tuple(target_word))
        unknown = False
        for vs, us in skeletons(nfa):
            eq = chain_equation(self.alphabet, (head + vs[0],) + vs[1:], us)
            rep = solve_exact(eq)
            if rep.status == "unknown":
                rep = solve_search(eq, cap=self.search_cap)
            if rep.status == "solvable":
                return True
            if rep.status == "unknown":
                unknown = True
        if unknown:
            raise LimitsExceeded("skeleton equation beyond solver limits")
        return False


class FreeProductOracle(GroupOracle):
    """Free product of two oracle groups over disjoint generator alphabets."""

    def __init__(self, left: GroupOracle, right: GroupOracle):
        if set(left.letters) & set(right.letters):
            raise StructureError("free-product factors must use disjoint letters")
        self.left = left
        self.right = right
        self.letters = tuple(left.letters) + tuple(right.letters)
        self.alphabet = plain_alphabet(self.letters)
        self._left_set = set(left.letters)
        self._right_set = set(right.letters)

    def factor_of(self, letter: str) -> int:
        if letter in self._left_set:
            return 0
        if letter in self._right_set:
            return 1
        raise StructureError(f"letter {letter!r} outside both factors")

    def factor(self, i: int) -> GroupOracle:
        return self.left if i == 0 else self.right

    def is_identity(self, word) -> bool:
        """One syllable stack: a letter joins the top syllable if it is of the
        same factor and starts a new one otherwise; a syllable that spells 1
        is popped, so the stack holds a reduced alternating product."""
        stack: List[Tuple[int, List[str]]] = []
        for a in word:
            f = self.factor_of(a)
            if stack and stack[-1][0] == f:
                stack[-1][1].append(a)
            else:
                stack.append((f, [a]))
            if self.factor(f).is_identity(stack[-1][1]):
                stack.pop()
        return not stack

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        from .freeprod import free_product_saturate

        return free_product_saturate(self, nfa, invert_word(tuple(target_word)))
