"""Straight-line programs: acyclic deterministic grammars producing one word.

Variables must start with an uppercase letter; every other token on a
right-hand side is a terminal letter.  The compressed-instance front end
builds on three operations: exact length without expansion, capped
expansion, and folding a power SLP (one built by iterated squaring) into a
conjugate power over a graph group without expanding it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .errors import ResourceExceeded, StructureError
from .groups import (
    ConjugatePower,
    DoubledAlphabet,
    GroupElement,
    cyclic_reduce,
    free_reduce,
    identity,
)


def is_variable_token(token: str) -> bool:
    return bool(token) and token[0].isupper()


class Slp:
    """An SLP: one production per variable, acyclic, with a start variable."""

    __slots__ = ("rhs", "start", "_order")

    def __init__(self, rhs: Dict[str, Sequence[str]], start: str):
        self.rhs = {var: tuple(body) for var, body in rhs.items()}
        self.start = start
        if start not in self.rhs:
            raise StructureError(f"start variable {start!r} has no production")
        for var in self.rhs:
            if not is_variable_token(var):
                raise StructureError(f"variable {var!r} must start uppercase")
        for var, body in self.rhs.items():
            for token in body:
                if is_variable_token(token) and token not in self.rhs:
                    raise StructureError(f"variable {token!r} in rhs({var}) has no production")
        self._order = self._toposort()

    def _toposort(self) -> Tuple[str, ...]:
        state: Dict[str, int] = {}
        order = []

        def visit(var, stack):
            mark = state.get(var)
            if mark == 2:
                return
            if mark == 1:
                raise StructureError(f"cycle through variable {var!r}")
            state[var] = 1
            stack.append(var)
            for token in self.rhs[var]:
                if is_variable_token(token):
                    visit(token, stack)
            stack.pop()
            state[var] = 2
            order.append(var)

        for var in self.rhs:
            visit(var, [])
        return tuple(order)

    def size(self) -> int:
        return sum(len(body) for body in self.rhs.values())

    def __eq__(self, other):
        return isinstance(other, Slp) and (self.start, self.rhs) == (other.start, other.rhs)

    def __repr__(self):
        return f"Slp(start={self.start}, size={self.size()}, vars={len(self.rhs)})"


def val_length(g: Slp) -> int:
    """|val(g)| by bottom-up accumulation, never expanding."""
    lengths: Dict[str, int] = {}
    for var in g._order:
        total = 0
        for token in g.rhs[var]:
            total += lengths[token] if is_variable_token(token) else 1
        lengths[var] = total
    return lengths[g.start]


def expand_capped(g: Slp, cap: int) -> tuple:
    """val(g) as a letter tuple if its length fits the cap, else ResourceExceeded."""
    total = val_length(g)
    if total > cap:
        raise ResourceExceeded(total, cap)
    out = []
    stack = [iter(g.rhs[g.start])]
    while stack:
        it = stack[-1]
        token = next(it, None)
        if token is None:
            stack.pop()
        elif is_variable_token(token):
            stack.append(iter(g.rhs[token]))
        else:
            out.append(token)
    return tuple(out)


def fold_power(g: Slp, alphabet: DoubledAlphabet) -> Optional[GroupElement]:
    """The reduced val(g) over ``alphabet`` as a ``ConjugatePower`` (or 1), without expanding g.

    Bottom-up, once per variable: a body of terminals is reduced and
    cyclically reduced to p w^1 p^-1; a body of variables whose values (the
    identity aside) share one (p, w) is p w^k p^-1 with k the sum of their
    exponents.  Returns None when some other body (terminals and variables
    mixed, or variables with different (p, w)) stops the fold.
    """
    folded: Dict[str, Optional[tuple]] = {}  # variable -> (p, w, k), None for the identity
    for var in g._order:
        body = g.rhs[var]
        if not any(is_variable_token(t) for t in body):
            value = free_reduce(alphabet, body)
            folded[var] = None if value.is_identity() else (*cyclic_reduce(value), 1)
            continue
        if not all(is_variable_token(t) for t in body):
            return None
        parts = [folded[t] for t in body if folded[t] is not None]
        if any(part[:2] != parts[0][:2] for part in parts):
            return None
        folded[var] = (*parts[0][:2], sum(part[2] for part in parts)) if parts else None
    top = folded[g.start]
    return identity(alphabet) if top is None else ConjugatePower(*top)
