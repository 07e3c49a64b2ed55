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
    _conjugate_power,
    cyclic_reduce,
    free_reduce,
    identity,
    letter_balance,
    mult,
    power_nf,
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

    One pass over blocks: a constant enters as its word, a power u^k (and a
    constant kept folded as a ``ConjugatePower``) as p, w^k, p^-1 with
    (p, w) = cyclic_reduce(u).  ``BlockProduct`` merges neighbouring
    constants by free reduction and neighbouring powers of equal or mutually
    inverse bases by adding exponents; only the blocks left stream, letter
    by letter, through one signed pile.  The cost is linear in the letters
    streamed, which can be far fewer than the k|w| of the powers.

    Raises ResourceExceeded when a power's 2|p| + k|w| exceeds ``cap``
    (before it enters), or when the reduced product of the items so far is
    longer than ``cap`` (the blocks are streamed to find that length only
    when their total length exceeds ``cap``).

    When the letters of the items (constants plus 2|p| + k|w| per power) are
    at most ``_VERIFY_MULT_LIMIT``, the product is also computed item by item
    with ``power_nf`` and the self-checked ``mult``; a difference raises
    InternalError.
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
    value = product.element()
    if letters <= _VERIFY_MULT_LIMIT and value != _evaluate_by_mult(e, sigma, cap):
        raise InternalError("block product differs from the mult chain")
    return value


def _evaluate_by_mult(e: ExponentEquation, sigma: Assignment, cap: int) -> GroupElement:
    """``evaluate`` item by item: one normal form per prefix of the items."""
    acc = identity(e.alphabet)
    for item in e.items:
        if isinstance(item, Const):
            step = item.value
        else:
            step = power_nf(item.base, sigma[item.var], cap)
        acc, _ = mult(acc, step)
        if len(acc) > cap:
            raise ResourceExceeded(len(acc), cap)
    return acc


def verify(e: ExponentEquation, sigma: Assignment, cap: int = 10**6) -> bool:
    """Substitute and evaluate over blocks; True iff the product is the identity.

    Powers enter in their conjugate-power form and merge by exponent
    arithmetic, so huge exponents only pay for the letters left after the
    merges; raises ResourceExceeded when a power or the reduced product of a
    prefix of the items would exceed ``cap`` letters (see ``evaluate``).
    """
    for v in e.vars:
        if v not in sigma:
            raise StructureError(f"assignment missing variable {v!r}")
    return evaluate(e, sigma, cap).is_identity()


def preprocess(e: ExponentEquation) -> ExponentEquation:
    """Cyclically reduce and connect all power bases; drop trivial powers.

    Each u^x becomes p w^x p^{-1} with the conjugators merged into the
    neighboring constants, and a disconnected w splits into its independent
    components, all sharing the variable.  Solution sets are preserved.
    """
    alphabet = e.alphabet
    items: List[Item] = []
    pending = identity(alphabet)

    def flush():
        nonlocal pending
        if not pending.is_identity():
            items.append(Const(pending))
            pending = identity(alphabet)

    for item in e.items:
        if isinstance(item, Const):
            pending, _ = mult(pending, item.value)
            continue
        if item.base.is_identity():
            continue
        p, w = cyclic_reduce(item.base)
        pending, _ = mult(pending, p)
        comps = connected_components(w.trace)
        for comp in comps:
            flush()
            items.append(Power(GroupElement(comp), item.var))
        pending, _ = mult(pending, p.inverse())
    flush()
    return ExponentEquation(alphabet, items, e.vars)


def _memo_holds(e: ExponentEquation):
    """A test of value tuples over ``e.vars``: does the product evaluate to 1?

    Multiplies item by item with checked ``mult``; each power ``u^k`` is
    computed once and kept for the later tuples.
    """
    power_tables: Dict[Tuple[GroupElement, int], GroupElement] = {}

    def holds(values) -> bool:
        sigma = dict(zip(e.vars, values))
        acc = identity(e.alphabet)
        for item in e.items:
            if isinstance(item, Const):
                step = item.value
            else:
                key = (item.base, sigma[item.var])
                step = power_tables.get(key)
                if step is None:
                    step = power_tables[key] = power_nf(item.base, key[1], 10**9)
            acc, _ = mult(acc, step)
        return acc.is_identity()

    return holds


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

    Sound: a found witness is verified; Unsolvable only via the abelian
    relaxation certificate; otherwise Unknown(cap).
    """
    bound_report = bound_report_string(preprocess(e))
    relax = abelian_relaxation(e)
    if diophantine_solve(relax) is None:
        return SolveReport(
            status="unsolvable",
            bound_report=bound_report,
            note="abelian relaxation has no solution",
        )
    k = len(e.vars)
    eval_values = _memo_holds(e)
    if k == 0:
        ok = eval_values(())
        return SolveReport(
            status="solvable" if ok else "unsolvable",
            witness={} if ok else None,
            bound_report=bound_report,
            note="" if ok else "constant product differs from the identity",
        )
    for depth in range(cap + 1):
        for values in iproduct(range(depth + 1), repeat=k):
            if depth and max(values) != depth:
                continue
            if eval_values(values):
                sigma = dict(zip(e.vars, values))
                if not verify(e, sigma, 10**9):
                    raise InternalError(f"search witness {sigma} fails verification")
                return SolveReport(
                    status="solvable",
                    witness=sigma,
                    bound_report=bound_report,
                )
    return SolveReport(
        status="unknown",
        bound_report=bound_report,
        note=f"no witness with exponents <= {cap}",
    )


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
