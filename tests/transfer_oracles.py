"""Independent brute-force oracles for the transfer tests.

These never touch the saturation machinery: dihedral arithmetic for the D-inf
extension, string rewriting for Z/2 * Z, and the classical transversal normal
form for free products of finite groups amalgamated over a finite subgroup.
"""

from __future__ import annotations

import itertools
from collections import deque



# -- infinite dihedral group (finite extension of Z) --------------------------


def dinf_eval(word):
    """Element of D-inf = <a, t | t^2, t a t = a^-1> as (a-exponent, flip)."""
    k, e = 0, 0
    for letter in word:
        if letter in ("t", "t'"):
            dk, de = 0, 1
        elif letter == "a":
            dk, de = 1, 0
        elif letter == "a'":
            dk, de = -1, 0
        else:
            raise ValueError(letter)
        k = k + (-dk if e else dk)
        e ^= de
    return k, e


def dinf_is_identity(word):
    return dinf_eval(word) == (0, 0)


def dinf_brute_solvable(v_words, u_words, cap=8):
    """Exhaustive exponents for v0 u1^x1 v1 ... = 1 in D-inf."""
    n = len(u_words)
    for values in itertools.product(range(cap + 1), repeat=n):
        word = list(v_words[0])
        for i in range(n):
            word.extend(tuple(u_words[i]) * values[i])
            word.extend(v_words[i + 1])
        if dinf_is_identity(word):
            return True
    return False


# -- Z/2 * Z -------------------------------------------------------------------


def z2z_reduce(word):
    """Canonical form over {g, t, t'}: gg, tt', t't cancel; g' = g."""
    out = []
    for letter in word:
        letter = "g" if letter == "g'" else letter
        if out and (
            (out[-1] == "g" and letter == "g")
            or (out[-1] == "t" and letter == "t'")
            or (out[-1] == "t'" and letter == "t")
        ):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def nfa_accepts_identity_bfs(nfa, reduce_fn, max_len=12):
    """Does the automaton accept a word whose canonical form is empty?

    BFS over (state, canonical form) pairs with the form capped at max_len;
    an under-approximation that is exact for small witnesses.
    """
    from ggsolve.automata import EPS

    start = (nfa.initial, ())
    seen = {start}
    queue = deque([start])
    while queue:
        state, form = queue.popleft()
        if state in nfa.finals and form == ():
            return True
        for a, dests in nfa.out(state).items():
            nxt_form = form if a is EPS else reduce_fn(form + (a,))
            if len(nxt_form) > max_len:
                continue
            for d in dests:
                node = (d, nxt_form)
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
    return False


# -- free products and amalgams of finite groups -------------------------------


class FiniteFactor:
    """A finite group with generator letters, exposed as element arithmetic."""

    def __init__(self, oracle):
        self.oracle = oracle  # FiniteGroupOracle
        self.letters = oracle.letters

    def eval_word(self, word):
        return self.oracle.eval_word(word)

    def mult(self, x, y):
        return self.oracle.table[(x, y)]

    def identity(self):
        return self.oracle.identity_elem


class AmalgamNF:
    """Transversal normal form for G0 *_F G1 with finite factors.

    Elements are (f, [(factor, transversal-elem), ...]) with alternating
    factors and non-subgroup transversal parts; unique by the normal form
    theorem.
    """

    def __init__(self, left, right, f_elements, f_table, f_identity, embed_left, embed_right):
        self.factors = (FiniteFactor(left), FiniteFactor(right))
        self.f_elements = tuple(f_elements)
        self.f_table = f_table
        self.f_identity = f_identity
        self.embed = (
            {f: left.eval_word(w) for f, w in embed_left.items()},
            {f: right.eval_word(w) for f, w in embed_right.items()},
        )
        self.unembed = (
            {v: k for k, v in self.embed[0].items()},
            {v: k for k, v in self.embed[1].items()},
        )
        # transversals: for each factor, coset representatives of the F-image
        self.coset_rep = ({}, {})
        for i in (0, 1):
            fac = self.factors[i]
            images = set(self.embed[i].values())
            for x in fac.oracle.elements:
                # коset F*x: representative = min by element order
                coset = sorted(fac.mult(fimg, x) for fimg in images)
                self.coset_rep[i][x] = coset[0]

    def f_mult(self, f, g):
        return self.f_table[(f, g)]

    def decompose(self, i, x):
        """x = phi_i(f) * t with t the coset representative; returns (f, t)."""
        t = self.coset_rep[i][x]
        fac = self.factors[i]
        # f_img * t = x  =>  f_img = x * t^{-1}
        inv_t = fac.oracle.inverse[t]
        f_img = fac.mult(x, inv_t)
        return self.unembed[i][f_img], t

    def normalize(self, syllables):
        """Canonical (f, [(i, t), ...]) from raw (factor, element) parts."""
        parts = list(syllables)
        f_pre = self.f_identity
        # phase 1: merge same-factor neighbors, absorb F-image parts leftward
        while True:
            merged = []
            for part in parts:
                if merged and merged[-1][0] == part[0]:
                    i = part[0]
                    merged[-1] = (i, self.factors[i].mult(merged[-1][1], part[1]))
                else:
                    merged.append(part)
            parts = merged
            hit = None
            for idx, (i, x) in enumerate(parts):
                if x in self.unembed[i]:
                    hit = idx
                    break
            if hit is None:
                break
            i, x = parts[hit]
            f_abs = self.unembed[i][x]
            del parts[hit]
            if hit > 0:
                j, y = parts[hit - 1]
                parts[hit - 1] = (j, self.factors[j].mult(y, self.embed[j][f_abs]))
            else:
                f_pre = self.f_mult(f_pre, f_abs)
        # phase 2: transversal shift right-to-left (no dissolution possible here)
        out = []
        carry = self.f_identity
        for i, x in reversed(parts):
            x2 = self.factors[i].mult(x, self.embed[i][carry])
            f_left, t = self.decompose(i, x2)
            assert t != self.factors[i].identity(), "non-F part dissolved in phase 2"
            out.append((i, t))
            carry = f_left
        out.reverse()
        return self.f_mult(f_pre, carry), tuple(out)

    def eval_word(self, word):
        syllables = []
        for letter in word:
            placed = False
            for i in (0, 1):
                if letter in self.factors[i].letters:
                    syllables.append((i, self.factors[i].eval_word([letter])))
                    placed = True
                    break
            if not placed:
                raise ValueError(letter)
        return self.normalize(syllables)

    def is_identity(self, word):
        f, body = self.eval_word(word)
        return f == self.f_identity and not body

    def brute_knapsack(self, base_words, target, cap=6):
        from ggsolve.groups import invert_word

        k = len(base_words)
        for values in itertools.product(range(cap + 1), repeat=k):
            word = []
            for w, v in zip(base_words, values):
                word.extend(tuple(w) * v)
            word.extend(invert_word(tuple(target)))
            if self.is_identity(word):
                return True
        return False
