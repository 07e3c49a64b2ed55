"""Exact semilinear solution sets for exponent equations with <= 2 power items.

The deterministic realization of the enumeration pipeline: small exponents
are merged into the constants and handled concretely (the K-set part of the
big disjunction); for two simultaneously large exponents the normal forms of
both sides stabilize into parametric shapes, computed by one procedure
(``_power_form``) for ``v u^x w``:

    nf(v0 u1^x v1)        =  L * u1^(x - dx) * S          (x >= dx + 1)
    nf(v2^-1 (u2^-1)^y)   =  Z * (u2^-1)^(y - dy) * T     (y >= dy + 1)

and equality of the two shapes is exactly a two-power trace equation, solved
by the two-power closure-automata pipeline.  Repeated variables are merged with
identify_variables; variables whose powers disappeared in preprocessing are
unconstrained and get unit periods.

Stabilization argument: appending u to W cancels nothing as soon as one
append is cancellation-free, because a full intact copy of u then separates
any later candidate pair (a letter is never independent of itself).  So
nf(v u^x) = lam * u^(x-dl) for x >= dl and, by the same argument on inverses,
nf(u^x w) = u^(x-dr) * rho for x >= dr.  In lam * u^a * rho with a >= 1 only
letters independent of u cancel, across the intact copy; that cancelled
part p is read off one product lam u * rho, commutes with u and comes off
both ends: L = right_quotient(lam, p), S = left_quotient(rho, p^-1) and
dx = dl + dr.  Then L u^a S = v u^(a+dx) w in the group for every a >= 0,
and as traces for a >= 1.  The shapes are additionally verified at several
consecutive exponents.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import InternalError
from ..groups import GroupElement, identity, invert_codes, mult, power_nf
from ..semilinear import (
    LinearSet,
    SemilinearSet,
    identify_variables,
    two_power_solutions,
)
from ..traces import Trace, _canonical_word, left_quotient, right_quotient
from .equations import (
    Const,
    ExponentEquation,
    SolveReport,
    bound_report_string,
    preprocess,
    verify,
)

_BIG = 10**9
# Past these sizes after preprocessing, solve_exact answers unknown.
_MAX_POWER_ITEMS = 2
_MAX_BASE_LENGTH = 16
_MAX_CONSTANT_LENGTH = 64


def _stabilize_left(c: GroupElement, u: GroupElement) -> Tuple[GroupElement, int]:
    """(W, d) with nf(c u^x) = W * u^(x-d) (trace concatenation) for all x >= d.

    Appends copies of u until one append cancels nothing; once that happens,
    the intact copy blocks all later cancellation (a letter is never
    independent of itself), so the shape persists.
    """
    w = c
    d = 0
    cap = len(c) + 2 * len(u) + 8
    while True:
        nxt, cancelled = mult(w, u)
        if cancelled.is_empty():
            return w, d
        w = nxt
        d += 1
        if d > cap:
            raise InternalError("left absorption did not stabilize")


def _power_form(
    v: GroupElement, u: GroupElement, w: GroupElement
) -> Tuple[Trace, Trace, int, int]:
    """Parametric shape of nf(v u^x w): (L, S, dx, x_min).

    For all x >= x_min, nf(v u^x w) = L * u^(x-dx) * S as traces; and for
    every a >= 0 the group identity L u^a S = v u^(a+dx) w holds.
    """
    lam, dl = _stabilize_left(v, u)  # nf(v u^x) = lam u^(x-dl), x >= dl
    rho_inv, dr = _stabilize_left(w.inverse(), u.inverse())
    rho = rho_inv.inverse()  # nf(u^x w) = u^(x-dr) rho, x >= dr
    # across an intact copy of u only letters independent of u cancel, so
    # p commutes with u and comes off lam and rho for every exponent
    _, p = mult(GroupElement(lam.trace * u.trace), rho)
    big_l = right_quotient(lam.trace, p.codes)
    if big_l is None:
        raise InternalError("cancelled part is not a suffix of the left constant")
    big_s = left_quotient(rho.trace, invert_codes(p.codes))
    if big_s is None:
        raise InternalError("cancelled part is not a prefix of the right constant")
    dx = dl + dr
    x_min = dx + 1
    # verify the shape on several consecutive exponents
    for x in range(x_min, x_min + 4):
        shaped = _canonical_word(u.alphabet, big_l.codes + u.codes * (x - dx) + big_s.codes)
        if _nf_three(v, u, x, w).codes != shaped:
            raise InternalError("parametric left form failed verification")
    return big_l, big_s, dx, x_min


def _nf_three(v0: GroupElement, u1: GroupElement, x: int, v1: GroupElement) -> GroupElement:
    acc, _ = mult(v0, power_nf(u1, x, _BIG))
    acc, _ = mult(acc, v1)
    return acc


def _solve_one_power(
    v0: GroupElement, u: GroupElement, v1: GroupElement
) -> List[int]:
    """All x with v0 u^x v1 = 1; at most one since u^x is irreducible."""
    g, _ = mult(v0.inverse(), v1.inverse())
    if len(g) % max(1, len(u)) != 0:
        return []
    x = len(g) // max(1, len(u))
    if power_nf(u, x, _BIG) == g:
        return [x]
    return []


def solve_exact(e: ExponentEquation) -> SolveReport:
    """Exact semilinear solution set over e.vars, or status Unknown past the limits."""
    pp = preprocess(e)
    alphabet = pp.alphabet
    powers = pp.powers()
    n = len(powers)
    k = len(e.vars)
    bound_report = bound_report_string(pp)

    def report(solset: SemilinearSet) -> SolveReport:
        if solset.is_empty():
            return SolveReport(
                status="unsolvable",
                solution_set=solset,
                bound_report=bound_report,
                note="exhaustive pipeline produced the empty set",
            )
        witness = dict(zip(e.vars, solset.components[0].base))
        if not verify(e, witness):
            raise InternalError(f"exact witness {witness} does not solve the equation")
        return SolveReport(
            status="solvable",
            witness=witness,
            solution_set=solset,
            bound_report=bound_report,
        )

    oversize = any(len(p.base) > _MAX_BASE_LENGTH for p in powers) or any(
        isinstance(item, Const) and len(item.value) > _MAX_CONSTANT_LENGTH
        for item in pp.items
    )
    if n > _MAX_POWER_ITEMS or oversize:
        return SolveReport(
            status="unknown",
            solution_set=None,
            bound_report=bound_report,
            note=f"instance beyond exact-enumeration limits ({n} power items)",
        )

    active_vars = tuple(dict.fromkeys(p.var for p in powers))
    free_vars = tuple(v for v in e.vars if v not in active_vars)

    def lift(core: SemilinearSet) -> SemilinearSet:
        """Embed a solution set over active_vars into the full variable space."""
        if core.dimension != len(active_vars):
            raise InternalError("dimension mismatch in lift")
        pos = {v: i for i, v in enumerate(e.vars)}
        comps = []
        for comp in core.components:
            base = [0] * k
            for i, v in enumerate(active_vars):
                base[pos[v]] = comp.base[i]
            periods = []
            for pvec in comp.periods:
                vec = [0] * k
                for i, v in enumerate(active_vars):
                    vec[pos[v]] = pvec[i]
                periods.append(vec)
            for v in free_vars:
                unit = [0] * k
                unit[pos[v]] = 1
                periods.append(unit)
            comps.append(LinearSet(base, periods))
        return SemilinearSet(k, comps)

    # collect the constants around the powers: c0 [P1 c1 [P2 c2]]; preprocess
    # has merged neighboring constants, so each gap holds one at most
    consts: List[GroupElement] = []
    bases: List[GroupElement] = []
    pending = identity(alphabet)
    for item in pp.items:
        if isinstance(item, Const):
            if not pending.is_identity():
                raise InternalError("preprocess left two constants in a row")
            pending = item.value
        else:
            consts.append(pending)
            pending = identity(alphabet)
            bases.append(item.base)
    consts.append(pending)

    # ---- n = 0: plain word problem -------------------------------------
    if n == 0:
        if consts[0].is_identity():
            # every variable is unconstrained
            periods = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
            return report(SemilinearSet(k, [LinearSet([0] * k, periods)]))
        return report(SemilinearSet(k, []))

    # ---- n = 1 ----------------------------------------------------------
    if n == 1:
        sols = _solve_one_power(consts[0], bases[0], consts[1])
        core = SemilinearSet(1, [LinearSet((x,)) for x in sols])
        return report(lift(core))

    # ---- n = 2 ----------------------------------------------------------
    v0, u1, v1, u2, v2 = consts[0], bases[0], consts[1], bases[1], consts[2]
    var1, var2 = powers[0].var, powers[1].var

    # v0 u1^x v1 = v2^-1 (u2^-1)^y, each side in its parametric shape
    big_l, big_s, dx, x_min = _power_form(v0, u1, v1)
    u2i = u2.inverse()
    big_z, big_t, dy, _ = _power_form(v2.inverse(), u2i, identity(alphabet))

    pair_components: List[LinearSet] = []
    two = two_power_solutions(big_l, u1.trace, big_s, big_z, u2i.trace, big_t)
    for comp in two.components:
        base = (comp.base[0] + dx, comp.base[1] + dy)
        pair_components.append(LinearSet(base, comp.periods))

    point_components: List[LinearSet] = []
    seen_points = set()

    def add_point(x: int, y: int) -> None:
        if (x, y) not in seen_points:
            seen_points.add((x, y))
            point_components.append(LinearSet((x, y)))

    # strips: one exponent below its threshold, the other solved directly
    for x0 in range(x_min):
        left_val = _nf_three(v0, u1, x0, v1)
        for y0 in _solve_one_power(left_val, u2, v2):
            add_point(x0, y0)
    # with w = 1 nothing cancels across the power, so the right shape holds
    # from y = dy on and the pair components (b = 0) cover that row
    for y0 in range(dy):
        # v0 u1^x (v1 u2^y0 v2) = 1
        tail, _ = mult(power_nf(u2, y0, _BIG), v2)
        tail, _ = mult(v1, tail)
        for x0 in _solve_one_power(v0, u1, tail):
            add_point(x0, y0)

    # drop strip points already covered by the parametric components
    if pair_components:
        from ..semilinear import member as _sl_member

        pair_set = SemilinearSet(2, pair_components)
        point_components = [
            c for c in point_components if not _sl_member(pair_set, c.base)
        ]
    raw = SemilinearSet(2, pair_components + point_components)

    if var1 == var2:
        core = identify_variables(raw, {0: 0, 1: 0})
    else:
        core = raw
    # active_vars order must match the projection order
    if active_vars != ((var1,) if var1 == var2 else (var1, var2)):
        raise InternalError("active variables do not match the projection order")
    return report(lift(core))
