"""Exponent-equation types and the surrounding plumbing.

An equation denotes v0 u1^{x1} v1 ... un^{xn} vn = 1; the same variable may
label several powers.  Assignments map variables to naturals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import AlphabetMismatchError, InternalError, ResourceExceeded, StructureError
from ..groups import (
    _VERIFY_MULT_LIMIT,
    BlockProduct,
    ConjugatePower,
    DoubledAlphabet,
    GroupElement,
    SignedPile,
    _conjugate_power,
    _image_of,
    _is_reduced,
    cyclic_reduce,
    free_reduce,
    invert_codes,
    letter_balance,
)
from ..semilinear import DiophantineSystem, SemilinearSet, diophantine_solve
from ..traces import connected_components

Assignment = Dict[str, int]


@dataclass(frozen=True)
class Const:
    value: GroupElement


@dataclass(frozen=True)
class Power:
    base: GroupElement
    var: str


Item = Union[Const, Power]


class ExponentEquation:
    """Alternating constants and variable powers; denotes their product = 1."""

    __slots__ = ("alphabet", "items", "vars")

    def __init__(
        self,
        alphabet: DoubledAlphabet,
        items: Sequence[Item],
        variables: Optional[Sequence[str]] = None,
    ):
        self.alphabet = alphabet
        self.items = tuple(items)
        seen: List[str] = []
        for item in self.items:
            value = item.value if isinstance(item, Const) else item.base
            if value.alphabet != alphabet:
                raise AlphabetMismatchError("item over a different alphabet")
            if isinstance(item, Power) and item.var not in seen:
                seen.append(item.var)
        if variables is None:
            self.vars = tuple(seen)
        else:
            self.vars = tuple(variables)
            missing = [v for v in seen if v not in self.vars]
            if missing:
                raise StructureError(f"variables {missing} not declared")

    def powers(self) -> List[Power]:
        return [item for item in self.items if isinstance(item, Power)]

    def __repr__(self):
        bits = []
        for item in self.items:
            if isinstance(item, Const):
                bits.append(" ".join(item.value.word) or "_")
            else:
                bits.append(f"({' '.join(item.base.word) or '_'})^{item.var}")
        return "Eq[" + " · ".join(bits) + " = 1]"


def evaluate(e: ExponentEquation, sigma: Assignment, cap: int = 10**6) -> GroupElement:
    """The group element denoted by the equation's left-hand side under sigma.

    ``_block_product`` computes it; when its items spell at most
    ``_VERIFY_MULT_LIMIT`` letters, ``_check_on_image`` cross-checks it.
    """
    value, letters = _block_product(e, sigma, cap)
    if letters <= _VERIFY_MULT_LIMIT:
        _check_on_image(e, sigma, value)
    return value


def _block_product(
    e: ExponentEquation, sigma: Assignment, cap: int
) -> Tuple[GroupElement, int]:
    """The left-hand side under sigma, and the letters its items spell.

    A constant enters a ``BlockProduct`` as its word, a power u^k (and a
    constant kept folded as a ``ConjugatePower``) as p, w^k, p^-1 with
    (p, w) = cyclic_reduce(u), spelling 2|p| + k|w| letters.  The blocks
    merge by free reduction and exponent arithmetic, and only what is left
    streams through one signed pile, so the cost can be far below the k|w|
    of the powers.  Raises ResourceExceeded when a power's 2|p| + k|w|, or
    the reduced product of the items so far, exceeds ``cap``.
    """
    product = BlockProduct(e.alphabet)
    letters = 0
    for item in e.items:
        if isinstance(item, Power):
            k = sigma[item.var]
            conj = _conjugate_power(item.base, k, cap)
            if conj is not None:
                p, w = conj
                letters += 2 * len(p) + k * len(w)
                product.push_conjugate_power(p, w, k)
        else:
            value = item.value
            letters += len(value)
            if isinstance(value, ConjugatePower):
                product.push_conjugate_power(value.p, value.w, value.k)
            else:
                product.push_codes(value.codes)
        if product.length > cap:
            count = product.collapse()
            if count > cap:
                raise ResourceExceeded(count, cap)
    return product.element(), letters


def _check_on_image(e: ExponentEquation, sigma: Assignment, value: GroupElement) -> None:
    """InternalError unless ``value`` and the items agree on the ``CoxeterImage``.

    The image shares nothing with the piling.  The items are read from each
    power's base and exponent and each constant's codes or folded p, w and
    k; their image must be the value's, and a non-empty value beside the
    start vector (items that denote 1) is a missed cancellation.  Unequal
    images prove a fault; equal ones are evidence, not an answer.
    """
    image = _image_of(e.alphabet)
    v = list(image.start)
    for item in reversed(e.items):
        if isinstance(item, Power):
            image.apply_power(item.base.codes, sigma[item.var], v)
        elif isinstance(item.value, ConjugatePower):
            p = item.value.p.codes
            image.apply(invert_codes(p), v)
            image.apply_power(item.value.w.codes, item.value.k, v)
            image.apply(p, v)
        else:
            image.apply(item.value.codes, v)
    start = list(image.start)
    if value and v == start:
        raise InternalError("the items map to 1 on the Coxeter image beside a non-empty value")
    if v != image.apply(value.codes, start):
        raise InternalError("block product differs from the Coxeter image of the items")


def verify(e: ExponentEquation, sigma: Assignment, cap: int = 10**6) -> bool:
    """Substitute and evaluate over blocks; True iff the product is the identity.

    Raises ResourceExceeded past ``cap`` letters and InternalError when the
    cross-check on the Coxeter image fails (see ``evaluate``).
    """
    for v in e.vars:
        if v not in sigma:
            raise StructureError(f"assignment missing variable {v!r}")
    return evaluate(e, sigma, cap).is_identity()


def preprocess(e: ExponentEquation) -> ExponentEquation:
    """Cyclically reduce and connect all power bases; drop trivial powers.

    Each u^x becomes p w^x p^{-1} with the conjugators merged into the
    neighboring constants (each gap between powers is one ``SignedPile``),
    and a disconnected w splits into its independent components, all
    sharing the variable.  Solution sets are preserved.
    """
    alphabet = e.alphabet
    items: List[Item] = []
    pile = SignedPile(alphabet)

    def flush():
        nonlocal pile
        if pile.count:
            items.append(Const(pile.element()))
            pile = SignedPile(alphabet)

    for item in e.items:
        if isinstance(item, Const):
            pile.push(item.value.codes)
            continue
        if item.base.is_identity():
            continue
        p, w = cyclic_reduce(item.base)
        pile.push(p.codes)
        for comp in connected_components(w.trace):
            flush()
            items.append(Power(GroupElement(comp), item.var))
        pile.push(invert_codes(p.codes))
    flush()
    return ExponentEquation(alphabet, items, e.vars)


def abelian_relaxation(e: ExponentEquation) -> DiophantineSystem:
    """Letter-count balance per generator; unsolvable system => unsolvable equation."""
    gens = e.alphabet.base.letters
    m = len(e.vars)
    var_index = {v: i for i, v in enumerate(e.vars)}
    A = [[0] * m for _ in gens]
    a = [0] * len(gens)
    for item in e.items:
        if isinstance(item, Const):
            for gi, count in enumerate(letter_balance(e.alphabet, item.value.codes)):
                a[gi] -= count
        else:
            j = var_index[item.var]
            for gi, count in enumerate(letter_balance(e.alphabet, item.base.codes)):
                A[gi][j] += count
    return DiophantineSystem(A, a)


@dataclass
class SolveReport:
    status: str  # "solvable" | "unsolvable" | "unknown"
    witness: Optional[Assignment] = None
    solution_set: Optional[SemilinearSet] = None
    bound_report: str = ""
    note: str = ""


def solution_bound(e: ExponentEquation) -> int:
    """The headline exponent bound with all O-constants set to 1.

    HEURISTIC: a reporting aid only; exact answers come from solve_exact.
    The bound is stated for preprocessed equations and ``e`` is read as it
    stands, so pass ``preprocess(...)`` of the equation.
    """
    n = len(e.powers())
    alphabet = e.alphabet.base
    size_a = max(1, len(alphabet.letters))
    alpha = max(1, alphabet.max_independent_size())
    lam = 1
    for item in e.items:
        value = item.value if isinstance(item, Const) else item.base
        lam = max(lam, len(value))
    if n == 0:
        return 1
    mu = (size_a**alpha) * (2 ** (2 * alpha * alpha * n)) * (lam**alpha)
    nu = lam**alpha
    return (
        math.factorial(alpha * n)
        * (2 ** (2 * alpha * alpha * n * (n + 3)))
        * (mu ** (8 * alpha * (n + 1)))
        * (nu ** (8 * alpha * size_a * (n + 1)))
    )


def bound_report_string(e: ExponentEquation) -> str:
    """``solution_bound`` of the preprocessed equation ``e``, as a report line."""
    value = solution_bound(e)
    if value.bit_length() > 256:
        shown = f"~2^{value.bit_length() - 1}"
    else:
        shown = str(value)
    return f"HEURISTIC exponent bound (O-constants = 1): {shown}"


def solve_search(e: ExponentEquation, cap: int = 15) -> SolveReport:
    """Iterative deepening up to ``cap`` with abelianization pruning.

    Each candidate is tested on its block product, which must come out
    reduced (``_is_reduced``, a scan with no pile); the witness reported and
    a product with no variables go through ``verify``.  Sound: a found
    witness is verified; Unsolvable only via the abelian relaxation
    certificate or a verified constant product; otherwise Unknown(cap).
    """
    bound_report = bound_report_string(preprocess(e))
    if diophantine_solve(abelian_relaxation(e)) is None:
        note = "abelian relaxation has no solution"
        return SolveReport("unsolvable", bound_report=bound_report, note=note)
    if not e.vars:
        if verify(e, {}, 10**9):
            return SolveReport("solvable", {}, bound_report=bound_report)
        note = "constant product differs from the identity"
        return SolveReport("unsolvable", bound_report=bound_report, note=note)
    for depth in range(cap + 1):
        for values in iproduct(range(depth + 1), repeat=len(e.vars)):
            if depth and max(values) != depth:
                continue
            sigma = dict(zip(e.vars, values))
            value, _ = _block_product(e, sigma, 10**9)
            if not _is_reduced(e.alphabet, value.codes):
                raise InternalError(f"the block product under {sigma} is not reduced")
            if value.is_identity():
                if not verify(e, sigma, 10**9):
                    raise InternalError(f"search witness {sigma} fails verification")
                return SolveReport("solvable", sigma, bound_report=bound_report)
    note = f"no witness with exponents <= {cap}"
    return SolveReport("unknown", bound_report=bound_report, note=note)


def chain_equation(
    alphabet: DoubledAlphabet,
    v_words: Sequence[Sequence[str]],
    u_words: Sequence[Sequence[str]],
) -> ExponentEquation:
    """v0 u1^{x1} v1 ... un^{xn} vn = 1 with distinct variables x1..xn; empty
    constants are left out."""
    if len(v_words) != len(u_words) + 1:
        raise StructureError("need n+1 constants around n powers")
    items: List[Item] = []
    for i, v in enumerate(v_words):
        if i:
            items.append(Power(free_reduce(alphabet, u_words[i - 1]), f"x{i}"))
        if v:
            items.append(Const(free_reduce(alphabet, v)))
    return ExponentEquation(alphabet, items)
