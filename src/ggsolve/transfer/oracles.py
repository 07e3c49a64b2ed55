"""Base-group oracles: the pluggable contract behind the transfer algorithms.

An oracle answers the word problem and knapsack-automaton membership for its
group.  Implementations: finite cyclic groups on residues mod n, the
integers, free groups via Benois saturation, graph groups via the solver, and
free products (which close the loop with the saturation algorithms).
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Tuple

from ..automata import EPS, Nfa, benois_member
from ..errors import AlphabetMismatchError, LimitsExceeded, StructureError
from ..groups import DoubledAlphabet, free_reduce, inverse_letter, invert_word
from ..semilinear import DiophantineSystem, diophantine_solve
from ..traces import IndependenceAlphabet
from .kauto import equation_chain, plain_alphabet, skeletons


class GroupOracle:
    """Contract: a named generator alphabet plus two decision procedures.

    ``ka_membership`` memoizes on the automaton it is asked about;
    implementations override ``_member_impl``, and may override
    ``knapsack`` where the group has a closed form.
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

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        """Breadth-first search over (state, residue) pairs."""
        n, weight = self.n, self.weight
        target = self.eval_word(target_word)
        start = (nfa.initial, 0)
        seen = {start}
        queue = deque([start])
        while queue:
            state, residue = queue.popleft()
            if state in nfa.finals and residue == target:
                return True
            for a, dests in nfa.out(state).items():
                nxt = residue if a is EPS else (residue + weight[a]) % n
                for d in dests:
                    node = (d, nxt)
                    if node not in seen:
                        seen.add(node)
                        queue.append(node)
        return False


class ZOracle(GroupOracle):
    """The integers; knapsack-automaton membership via skeletons + Diophantine."""

    def __init__(self, letter: str = "a"):
        self.letter = letter
        self.letters = (letter, inverse_letter(letter))
        self.alphabet = plain_alphabet(self.letters)

    def _weight(self, a: str) -> int:
        if a == self.letter:
            return 1
        if a == inverse_letter(self.letter):
            return -1
        raise StructureError(f"letter {a!r} outside the Z alphabet")

    def value(self, word) -> int:
        return sum(self._weight(a) for a in word)

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
        from ..solver import solve_exact, solve_search
        from .kauto import skeleton_equations

        prepend = invert_word(tuple(target_word))
        unknown = False
        for eq in skeleton_equations(nfa, prepend, self.alphabet):
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
        """Syllable folding: drop trivial syllables, merge neighbors, repeat."""
        blocks: List[Tuple[int, List[str]]] = []
        for a in word:
            f = self.factor_of(a)
            if blocks and blocks[-1][0] == f:
                blocks[-1][1].append(a)
            else:
                blocks.append((f, [a]))
        changed = True
        while changed:
            changed = False
            for i, (f, letters) in enumerate(blocks):
                if self.factor(f).is_identity(letters):
                    del blocks[i]
                    if 0 < i <= len(blocks) - 1 and blocks[i - 1][0] == blocks[i][0]:
                        blocks[i - 1][1].extend(blocks[i][1])
                        del blocks[i]
                    changed = True
                    break
        return not blocks

    def _member_impl(self, nfa: Nfa, target_word) -> bool:
        from .freeprod import free_product_saturate

        return free_product_saturate(self, nfa, invert_word(tuple(target_word)))
