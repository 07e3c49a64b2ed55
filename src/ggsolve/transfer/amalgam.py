"""Amalgamated products with finite identified subgroups: embedding into an HNN.

G0 *_F G1 embeds into I = <G0*G1, t | t^{-1} phi0(f) t = phi1(f)> via
Phi(g) = t^{-1} g t for g in G0 and Phi(g) = g for g in G1; instances are
transformed letterwise and handed to the HNN machinery over the free-product
base.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..errors import StructureError
from ..groups import inverse_letter, invert_word
from .hnn import HnnPresentation, hnn_knapsack
from .oracles import FreeProductOracle, GroupOracle


class AmalgamPresentation:
    """Two factor oracles plus an abstract finite group F embedded in both."""

    def __init__(
        self,
        left: GroupOracle,
        right: GroupOracle,
        f_elements: Sequence[str],
        f_table: Dict[Tuple[str, str], str],
        f_identity: str,
        embed_left: Dict[str, Sequence[str]],
        embed_right: Dict[str, Sequence[str]],
        stable: str = "t",
    ):
        self.left = left
        self.right = right
        self.f_elements = tuple(f_elements)
        self.f_table = dict(f_table)
        self.f_identity = f_identity
        self.embed_left = {f: tuple(w) for f, w in embed_left.items()}
        self.embed_right = {f: tuple(w) for f, w in embed_right.items()}
        self.stable = stable
        self.letters = tuple(left.letters) + tuple(right.letters)
        self._validate()

    def _validate(self) -> None:
        if set(self.left.letters) & set(self.right.letters):
            raise StructureError("amalgam factors must use disjoint letters")
        elements = set(self.f_elements)
        if self.f_identity not in elements:
            raise StructureError(f"F identity {self.f_identity!r} is not an F element")
        for f in self.f_elements:
            if f not in self.embed_left or f not in self.embed_right:
                raise StructureError(f"embedding missing for F element {f!r}")
            for g in self.f_elements:
                if self.f_table.get((f, g)) not in elements:
                    raise StructureError(f"F table has no element for ({f},{g})")
        for oracle, embed in ((self.left, self.embed_left), (self.right, self.embed_right)):
            if not oracle.is_identity(embed[self.f_identity]):
                raise StructureError("F identity must embed to the identity")
            for f in self.f_elements:
                for g in self.f_elements:
                    fg = self.f_table[(f, g)]
                    word = tuple(embed[f]) + tuple(embed[g]) + invert_word(embed[fg])
                    if not oracle.is_identity(word):
                        raise StructureError("embedding is not a homomorphism")
            # injectivity
            for f in self.f_elements:
                for g in self.f_elements:
                    if f != g and oracle.is_identity(
                        tuple(embed[f]) + invert_word(embed[g])
                    ):
                        raise StructureError("embedding is not injective")


def amalgam_to_hnn(am: AmalgamPresentation) -> HnnPresentation:
    """The HNN-extension of the free product G0*G1 with A(+1)=phi0(F), A(-1)=phi1(F)."""
    base = FreeProductOracle(am.left, am.right)
    assoc_pos = [am.embed_left[f] for f in am.f_elements]
    assoc_neg = [am.embed_right[f] for f in am.f_elements]
    phi_pairs = [(am.embed_left[f], am.embed_right[f]) for f in am.f_elements]
    return HnnPresentation(base, assoc_pos, assoc_neg, phi_pairs, am.stable)


def phi_transform(am: AmalgamPresentation, word: Sequence[str]) -> tuple:
    """Letterwise Phi: left-factor letters become t' letter t; right letters stay."""
    t = am.stable
    ti = inverse_letter(t)
    left_set = set(am.left.letters)
    out: List[str] = []
    for a in word:
        if a in left_set:
            out.extend((ti, a, t))
        else:
            out.append(a)
    return tuple(out)


def amalgam_knapsack(
    am: AmalgamPresentation,
    base_words: Sequence[Sequence[str]],
    target: Sequence[str],
) -> bool:
    """Knapsack over G0 *_F G1 via the HNN embedding (equisolvable instance)."""
    h = amalgam_to_hnn(am)
    bases = [phi_transform(am, w) for w in base_words]
    tgt = phi_transform(am, target)
    return hnn_knapsack(h, bases, tgt)
