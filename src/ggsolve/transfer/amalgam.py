"""Amalgamated products with finite identified subgroups: embedding into an HNN.

G0 *_F G1 embeds into I = <G0*G1, t | t^{-1} phi0(f) t = phi1(f)> via
Phi(g) = t^{-1} g t for g in G0 and Phi(g) = g for g in G1; instances are
transformed letterwise and handed to the HNN machinery over the free-product
base.  The stable letter t is the first of t, t1, t2, ... that neither factor
uses.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from ..errors import StructureError
from ..groups import inverse_letter
from .hnn import HnnPresentation, hnn_knapsack
from .oracles import FreeProductOracle, GroupOracle


class AmalgamPresentation:
    """Two factor oracles plus an abstract finite group F embedded in both, and
    ``hnn``: the HNN-extension of the free product G0*G1 with A(+1) = phi0(F),
    A(-1) = phi1(F) and phi0(f) -> phi1(f), which G0 *_F G1 embeds into."""

    def __init__(
        self,
        left: GroupOracle,
        right: GroupOracle,
        f_elements: Sequence[str],
        f_table: Dict[Tuple[str, str], str],
        f_identity: str,
        embed_left: Dict[str, Sequence[str]],
        embed_right: Dict[str, Sequence[str]],
    ):
        self.left = left
        self.right = right
        self.f_elements = tuple(f_elements)
        self.f_table = dict(f_table)
        self.f_identity = f_identity
        self.embed_left = {f: tuple(w) for f, w in embed_left.items()}
        self.embed_right = {f: tuple(w) for f, w in embed_right.items()}
        self.letters = tuple(left.letters) + tuple(right.letters)
        taken = set(self.letters)
        names = ("t" + str(i or "") for i in itertools.count())
        self.stable = next(t for t in names if not {t, inverse_letter(t)} & taken)
        self._validate_f()
        pos = [self.embed_left[f] for f in self.f_elements]
        neg = [self.embed_right[f] for f in self.f_elements]
        # a duplicate image here is an embedding that is not injective
        base = FreeProductOracle(left, right)
        self.hnn = HnnPresentation(base, pos, neg, list(zip(pos, neg)), self.stable)
        # phi pairs the i-th images, so the HNN check has made the right table
        # equal to the left one; F's identity, its own square, maps to 1 on both
        index = {f: i for i, f in enumerate(self.f_elements)}
        if self.hnn.table[1] != [[index[self.f_table[f, g]] for g in index] for f in index]:
            raise StructureError("embedding is not a homomorphism")

    def _validate_f(self) -> None:
        """F's table is total over F, F's identity is its own square, and both
        embeddings name every element of F with a word over their own factor
        (the HNN check reads them in the free product, where either would do)."""
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
            outside = {a for w in embed.values() for a in w}.difference(oracle.letters)
            if outside:
                raise StructureError(f"letter {min(outside)!r} outside the oracle's alphabet")
        if self.f_table[self.f_identity, self.f_identity] != self.f_identity:
            raise StructureError(f"F identity {self.f_identity!r} is not its own square")


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
    bases = [phi_transform(am, w) for w in base_words]
    return hnn_knapsack(am.hnn, bases, phi_transform(am, target))
