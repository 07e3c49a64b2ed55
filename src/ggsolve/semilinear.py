"""Linear and semilinear sets over N^k; bounded linear-Diophantine solving.

The two-power solution sets come from the automata pipeline: build closure
automata for both sides, intersect, project to lengths, decompose the unary
language into arithmetic progressions and map each progression back to a
linear set in the two exponents.  Diophantine search is cut off at the
zur Gathen-Sieveking entry bound, which certifies unsolvability.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import InternalError, StructureError, TraceError
from .traces import Trace, is_connected
from . import automata


class LinearSet:
    """{base + sum z_i * period_i : z_i in N}."""

    __slots__ = ("base", "periods")

    def __init__(self, base: Sequence[int], periods: Iterable[Sequence[int]] = ()):
        self.base = tuple(int(x) for x in base)
        self.periods = tuple(tuple(int(x) for x in p) for p in periods)
        if any(x < 0 for x in self.base):
            raise StructureError("linear set base must be natural")
        for p in self.periods:
            if len(p) != len(self.base):
                raise StructureError("period dimension mismatch")
            if any(x < 0 for x in p):
                raise StructureError("periods must be natural")

    @property
    def dimension(self) -> int:
        return len(self.base)

    def __eq__(self, other):
        return (
            isinstance(other, LinearSet)
            and self.base == other.base
            and sorted(self.periods) == sorted(other.periods)
        )

    def __hash__(self):
        return hash((self.base, tuple(sorted(self.periods))))

    def __repr__(self):
        return f"LinearSet(base={self.base}, periods={list(self.periods)})"


class SemilinearSet:
    """Finite union of linear sets of one dimension; empty list = empty set."""

    __slots__ = ("dimension", "components")

    def __init__(self, dimension: int, components: Iterable[LinearSet] = ()):
        self.dimension = int(dimension)
        self.components = tuple(components)
        for c in self.components:
            if c.dimension != self.dimension:
                raise StructureError("component dimension mismatch")

    def is_empty(self) -> bool:
        return not self.components

    def __repr__(self):
        return f"SemilinearSet(dim={self.dimension}, components={len(self.components)})"

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearSet)
            and self.dimension == other.dimension
            and sorted(self.components, key=repr) == sorted(other.components, key=repr)
        )


class DiophantineSystem:
    """A z = a over N^m, with the reported image C z + c."""

    __slots__ = ("A", "a", "C", "c")

    def __init__(
        self,
        A: Sequence[Sequence[int]],
        a: Sequence[int],
        C: Optional[Sequence[Sequence[int]]] = None,
        c: Optional[Sequence[int]] = None,
    ):
        self.A = tuple(tuple(int(x) for x in row) for row in A)
        self.a = tuple(int(x) for x in a)
        if len(self.A) != len(self.a):
            raise StructureError("row count mismatch between A and a")
        m = len(self.A[0]) if self.A else 0
        for row in self.A:
            if len(row) != m:
                raise StructureError("ragged matrix A")
        if C is None:
            C = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
            c = [0] * m
        self.C = tuple(tuple(int(x) for x in row) for row in C)
        self.c = tuple(int(x) for x in (c if c is not None else [0] * len(self.C)))
        for row in self.C:
            if len(row) != m:
                raise StructureError("ragged matrix C")
            if any(x < 0 for x in row):
                raise StructureError("C must be natural")
        if any(x < 0 for x in self.c):
            raise StructureError("c must be natural")
        if len(self.C) != len(self.c):
            raise StructureError("row count mismatch between C and c")

    @property
    def num_vars(self) -> int:
        return len(self.A[0]) if self.A else (len(self.C[0]) if self.C else 0)

    def beta(self) -> int:
        entries = [abs(x) for row in self.A for x in row]
        entries += [abs(x) for x in self.a]
        entries += [x for row in self.C for x in row]
        entries += list(self.c)
        return max(entries, default=0)

    def cutoff(self) -> int:
        """zur Gathen-Sieveking entry bound (m+1) * n! * beta^n."""
        n = len(self.A)
        m = self.num_vars
        return (m + 1) * math.factorial(n) * (self.beta() ** n)


def _solve_box(A, a, m, bound) -> Optional[tuple]:
    """DFS for z in [0,bound]^m with A z = a; per-row interval and gcd pruning."""
    n = len(A)
    rows = list(range(n))
    # rest_lo/hi[j][i]: achievable range of sum_{l>=j} A[i][l] z_l over [0,bound]
    rest_lo = [[0] * n for _ in range(m + 1)]
    rest_hi = [[0] * n for _ in range(m + 1)]
    rest_gcd = [[0] * n for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        for i in rows:
            coef = A[i][j]
            rest_lo[j][i] = rest_lo[j + 1][i] + (coef * bound if coef < 0 else 0)
            rest_hi[j][i] = rest_hi[j + 1][i] + (coef * bound if coef > 0 else 0)
            rest_gcd[j][i] = math.gcd(rest_gcd[j + 1][i], abs(coef))

    def feasible(residual, j):
        for i in rows:
            r = residual[i]
            if not (rest_lo[j][i] <= r <= rest_hi[j][i]):
                return False
            g = rest_gcd[j][i]
            if g == 0:
                if r != 0:
                    return False
            elif r % g != 0:
                return False
        return True

    def var_interval(residual, j):
        """Feasible values of z_j given later variables range over [0,bound]."""
        lo, hi = 0, bound
        for i in rows:
            coef = A[i][j]
            if coef == 0:
                continue
            # coef*z in [r - rest_hi', r - rest_lo'] with rests over later vars
            num_lo = residual[i] - rest_hi[j + 1][i]
            num_hi = residual[i] - rest_lo[j + 1][i]
            if coef > 0:
                lo = max(lo, -(-num_lo // coef))  # ceil
                hi = min(hi, num_hi // coef)  # floor
            else:
                lo = max(lo, -(-num_hi // coef))
                hi = min(hi, num_lo // coef)
            if lo > hi:
                return None
        return lo, hi

    def dfs(j, residual, acc):
        if j == m:
            return tuple(acc) if all(r == 0 for r in residual) else None
        if not feasible(residual, j):
            return None
        interval = var_interval(residual, j)
        if interval is None:
            return None
        lo, hi = interval
        if j == m - 1:
            # last variable: every row with a nonzero coefficient pins it
            candidate = None
            for i in rows:
                coef = A[i][j]
                if coef != 0:
                    if residual[i] % coef != 0:
                        return None
                    val = residual[i] // coef
                    if val < lo or val > hi:
                        return None
                    if candidate is None:
                        candidate = val
                    elif candidate != val:
                        return None
            val = candidate if candidate is not None else lo
            nres = [residual[i] - A[i][j] * val for i in rows]
            if all(r == 0 for r in nres):
                return tuple(acc + [val])
            return None
        for val in range(lo, hi + 1):
            nres = [residual[i] - A[i][j] * val for i in rows]
            hit = dfs(j + 1, nres, acc + [val])
            if hit is not None:
                return hit
        return None

    return dfs(0, list(a), [])


def diophantine_solve(d: DiophantineSystem) -> Optional[Tuple[tuple, tuple]]:
    """Some z in N^m with A z = a, as (z, C z + c); None certifies unsolvability.

    Escalating box search, complete at the zur Gathen-Sieveking cutoff:
    any solvable system has a solution within the cutoff, so exhausting it
    is a definitive negative answer.
    """
    m = d.num_vars
    if m == 0:
        if all(x == 0 for x in d.a):
            return (), tuple(d.c)
        return None
    full = d.cutoff()
    boxes = sorted({min(8, full), min(64, full), full})
    for bound in boxes:
        z = _solve_box(d.A, d.a, m, bound)
        if z is not None:
            image = tuple(
                sum(d.C[i][j] * z[j] for j in range(m)) + d.c[i] for i in range(len(d.C))
            )
            return z, image
    return None


def member(s: SemilinearSet, v: Sequence[int]) -> bool:
    """Membership via per-component Diophantine solving on the periods."""
    v = tuple(int(x) for x in v)
    if len(v) != s.dimension:
        raise StructureError("vector dimension mismatch")
    for comp in s.components:
        target = [v[i] - comp.base[i] for i in range(s.dimension)]
        if any(x < 0 for x in target):
            continue
        if not comp.periods:
            if all(x == 0 for x in target):
                return True
            continue
        A = [[p[i] for p in comp.periods] for i in range(s.dimension)]
        if diophantine_solve(DiophantineSystem(A, target)) is not None:
            return True
    return False


# -- two-power solution sets (closure-automata pipeline) ----------------------


def two_power_solutions(
    p: Trace, u: Trace, s: Trace, q: Trace, v: Trace, t: Trace
) -> SemilinearSet:
    """Exact solution set {(x,y) : p u^x s = q v^y t} as a 2-dim semilinear set.

    Pipeline: closure automata for [p u* s]_I and [q v* t]_I, intersect,
    project to lengths, decompose into progressions, map each progression
    (b,c) to the linear set {((b-|ps|)/|u| + (c/|u|)z, (b-|qt|)/|v| + (c/|v|)z)}.
    The divisibility conditions are checked; a violation is a construction
    bug, not an input error, and raises InternalError.
    """
    for base_trace, name in ((u, "u"), (v, "v")):
        if base_trace.is_empty():
            raise TraceError(f"{name} must be nonempty")
        if not is_connected(base_trace):
            raise TraceError(f"{name} must be connected")
    left = automata.power_closure_nfa(p, u, s)
    right = automata.power_closure_nfa(q, v, t)
    product = automata.trim(automata.intersect(left, right))
    lengths = automata.length_automaton(product)
    progs = automata.unary_progressions(lengths)
    len_ps, len_qt = len(p) + len(s), len(q) + len(t)
    len_u, len_v = len(u), len(v)
    components = []
    for prog in sorted(progs, key=lambda pr: (pr.offset, pr.period)):
        b, c = prog.offset, prog.period
        if b < len_ps or b < len_qt:
            raise InternalError("offset below the affix lengths")
        if (b - len_ps) % len_u or c % len_u:
            raise InternalError("u-divisibility violated")
        if (b - len_qt) % len_v or c % len_v:
            raise InternalError("v-divisibility violated")
        base = ((b - len_ps) // len_u, (b - len_qt) // len_v)
        periods = [(c // len_u, c // len_v)] if c else []
        components.append(LinearSet(base, periods))
    return SemilinearSet(2, components)


# -- variable identification --------------------------------------------------


def identify_variables(s: SemilinearSet, f: Dict[int, int]) -> SemilinearSet:
    """Restrict to the diagonal x_i = x_{f(i)} and project to the representatives.

    ``f`` maps every position of [0,dim) to a representative position (and
    each representative to itself).  Per component the equalities are rows
    c z = d over the period multiplier z; with at most one period (all the
    two-power pipeline makes) they are solved in closed form.  A component
    with two or more periods and a nontrivial ``f`` raises StructureError.
    """
    n = s.dimension
    for i in range(n):
        if i not in f:
            raise StructureError(f"position {i} missing from the identification map")
        if f[f[i]] != f[i]:
            raise StructureError("representatives must map to themselves")
    reps = sorted(set(f[i] for i in range(n)))
    moved = [i for i in range(n) if f[i] != i]
    out = []
    for comp in s.components:
        periods = comp.periods
        if moved and len(periods) > 1:
            raise StructureError("identification is solved for at most one period")
        z = None  # the multiplier of the one period, once a row forces it
        for i in moved:
            r = f[i]
            c = periods[0][r] - periods[0][i] if periods else 0
            d = comp.base[i] - comp.base[r]
            if c == 0 and d == 0:
                continue
            if c == 0 or d % c or d // c < 0 or z not in (None, d // c):
                break  # no multiplier meets this row and the earlier ones
            z = d // c
        else:
            if z is not None:
                base = [comp.base[r] + z * periods[0][r] for r in reps]
                periods = ()
            else:
                base = [comp.base[r] for r in reps]
            kept = [[p[r] for r in reps] for p in periods]
            out.append(LinearSet(base, [p for p in kept if any(p) or not moved]))
    return SemilinearSet(len(reps), out)


def format_semilinear(s: SemilinearSet) -> str:
    """One component per line: lin base=(v) periods=(v;v;...)."""
    lines = []
    for comp in s.components:
        base = ",".join(str(x) for x in comp.base)
        periods = ";".join("(" + ",".join(str(x) for x in p) + ")" for p in comp.periods)
        lines.append(f"lin base=({base}) periods=({periods})")
    return "\n".join(lines)
