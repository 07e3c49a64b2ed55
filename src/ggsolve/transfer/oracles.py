"""Base-group oracles: the pluggable contract behind the transfer algorithms.

An oracle answers the word problem and knapsack-automaton membership for its
group.  Implementations: finite cyclic groups on residues mod n, graph groups
(Z^k, free groups and the rest, each by the route its graph's shape picks),
and free products (which close the loop with the saturation algorithms).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence, Tuple

from ..automata import EPS, Nfa, benois_member
from ..errors import AlphabetMismatchError, LimitsExceeded, StructureError, UnknownLetterError
from ..groups import DoubledAlphabet, _reduce_tagged, inverse_letter, invert_word, letter_balance
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
        """Does ``word`` spell 1?  StructureError for a letter outside ``letters``."""
        raise NotImplementedError

    def relators(self) -> List[tuple]:
        """Words that spell 1 and, as relators on ``letters``, present the group;
        a finite extension's table must read each as 1 from every coset."""
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
        try:
            return sum(self.weight[a] for a in word) % self.n
        except KeyError as exc:
            raise StructureError(f"letter {exc.args[0]!r} outside the oracle's alphabet") from None

    def is_identity(self, word) -> bool:
        return self.eval_word(word) == 0

    def relators(self) -> List[tuple]:
        return [(self.letters[0],) * self.n]

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


class GraphGroupOracle(GroupOracle):
    """The graph group of ``alphabet``'s base graph, by a route its shape fixes.

    ``route`` is read once, here:
    - ``clique``: every two base letters commute (one letter counts), so the
      group is Z^k and a word is 1 when each letter balance is 0.  A knapsack
      question is one Diophantine system of balances, exact on a clique.
    - ``free``: no two commute, so the group is free; Benois saturation.
    - ``solver``: any other graph; one chain equation per skeleton, through
      ``solve_exact`` and then ``solve_search`` to ``search_cap``.
    """

    def __init__(self, alphabet: DoubledAlphabet, search_cap: int):
        self.alphabet = alphabet
        self.letters = alphabet.letters
        self.search_cap = search_cap
        k, edges = len(alphabet.base.letters), len(alphabet.base.independence)
        self.route = "clique" if 2 * edges == k * (k - 1) else "solver" if edges else "free"

    def _codes(self, word: Sequence[str]) -> tuple:
        try:
            return self.alphabet.encode(word)
        except UnknownLetterError as exc:
            raise StructureError(f"letter {exc.letter!r} outside the oracle's alphabet") from None

    def is_identity(self, word) -> bool:
        codes = self._codes(word)
        if self.route == "clique":
            return not any(letter_balance(self.alphabet, codes))
        return not _reduce_tagged(self.alphabet, codes)[0]

    def relators(self) -> List[tuple]:
        """The commutator a b a^-1 b^-1 of each independent pair a < b of base letters."""
        pairs = sorted(tuple(sorted(pair)) for pair in self.alphabet.base.independence)
        return [(a, b, inverse_letter(a), inverse_letter(b)) for a, b in pairs]

    def knapsack(self, v_words, u_words) -> bool:
        """On a clique, one system over N^n: the balances of u1..un as columns
        and those of v0..vn, negated, as the right side.  The chain's skeletons
        (each subset of entered powers, 1 + y copies of each) cover the same
        N^n, so this answers as ``ka_membership`` of the chain; it leaves the
        memo alone.  Elsewhere, ``ka_membership`` of the chain."""
        if self.route != "clique":
            return super().knapsack(v_words, u_words)
        columns = [letter_balance(self.alphabet, self._codes(u)) for u in u_words]
        const = letter_balance(self.alphabet, self._codes(tuple(chain.from_iterable(v_words))))
        rows = [[column[i] for column in columns] for i in range(len(const))]
        return diophantine_solve(DiophantineSystem(rows, [-x for x in const])) is not None

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        """Benois on a free group; otherwise one question per skeleton, with
        target^-1 ahead of v0: ``knapsack`` on a clique, the solver elsewhere."""
        if self.route == "free":
            return benois_member(nfa, target_word)
        head = invert_word(target_word)
        if self.route == "clique":
            return any(self.knapsack((head + vs[0],) + vs[1:], us) for vs, us in skeletons(nfa))
        from ..solver import chain_equation, solve_exact, solve_search

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

    def relators(self) -> List[tuple]:
        return self.left.relators() + self.right.relators()

    def is_identity(self, word) -> bool:
        """One syllable stack, each syllable asked once, when it closes: a
        letter of the other factor than the top syllable's closes it, and it
        is popped if it spells 1; the letter then joins the syllable below if
        that is of its factor, and starts a new one otherwise.  The syllables
        below the top are closed and not 1, so the stack holds a reduced
        alternating product once the top is closed."""
        stack: List[Tuple[int, List[str]]] = []
        for a in word:
            f = self.factor_of(a)
            if stack and stack[-1][0] != f and self.factor(1 - f).is_identity(stack[-1][1]):
                stack.pop()
            if stack and stack[-1][0] == f:
                stack[-1][1].append(a)
            else:
                stack.append((f, [a]))
        if len(stack) == 1 and self.factor(stack[0][0]).is_identity(stack[0][1]):
            stack.pop()
        return not stack

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        from .freeprod import free_product_saturate

        return free_product_saturate(self, nfa, invert_word(tuple(target_word)))
