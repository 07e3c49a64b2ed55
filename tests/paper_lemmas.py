"""The paper's proof devices, kept as test oracles: Levi grids and sequence reducibility.

Levi's lemma for traces (``levi_decompose``, ``LeviGrid``) and the
refinement lemma for sequences of group elements: a sequence of irreducible
elements reduces by three rules, swap adjacent independent entries, cancel
an adjacent inverse pair, drop an identity entry.  ``refine_to_reducible``
implements the constructive refinement: any sequence with product 1 can be
factorized (with at most 2^n - 2 parts in total) so the refined sequence
reduces, and an explicit witness is built alongside.  No solve path needs
them; the tests check them against brute force.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ggsolve.errors import AlphabetMismatchError, InternalError, LimitsExceeded, TraceError
from ggsolve.groups import GroupElement, invert_codes, invert_word, mult
from ggsolve.traces import IndependenceAlphabet, Trace, left_quotient, right_quotient

from helpers import independent_of, power


# -- Levi's lemma ----------------------------------------------------------------


def concat(*traces: Trace) -> Trace:
    if not traces:
        raise ValueError("concat needs at least one trace")
    alphabet = traces[0].alphabet
    word = []
    for t in traces:
        if t.alphabet != alphabet:
            raise AlphabetMismatchError("concat over mixed alphabets")
        word.extend(t.word)
    return Trace(alphabet, word)


class LeviGrid:
    """Witness grid for Levi's lemma: cells[i][j] sits in column i (us) and row j (vs)."""

    __slots__ = ("us", "vs", "cells")

    def __init__(self, us: Sequence[Trace], vs: Sequence[Trace], cells):
        self.us = tuple(us)
        self.vs = tuple(vs)
        self.cells = tuple(tuple(row) for row in cells)

    def validate(self) -> None:
        m, n = len(self.us), len(self.vs)
        if not self.us or not self.vs:
            raise TraceError("LeviGrid needs at least one row and column")
        for i in range(m):
            if concat(*self.cells[i]) != self.us[i]:
                raise TraceError(f"column {i} does not compose to u_{i}")
        for j in range(n):
            if concat(*(self.cells[i][j] for i in range(m))) != self.vs[j]:
                raise TraceError(f"row {j} does not compose to v_{j}")
        for i in range(m):
            for k in range(i + 1, m):
                for j in range(n):
                    for l in range(j):
                        if not independent_of(self.cells[i][j], self.cells[k][l]):
                            raise TraceError(
                                f"cells ({i},{j}) and ({k},{l}) violate independence"
                            )


def _embed_parts(total_word: tuple, parts: Sequence[Trace], alphabet: IndependenceAlphabet):
    """Greedily assign each position of ``total_word`` a part index.

    Consumes, for each letter of each part in order, the least available
    position of the dependence graph carrying that letter.  Succeeds exactly
    when the parts compose to the total trace.
    """
    n = len(total_word)
    label = [None] * n
    consumed = [False] * n
    for idx, part in enumerate(parts):
        for target in part.word:
            pos = None
            for i in range(n):
                if consumed[i]:
                    continue
                if total_word[i] == target:
                    # minimal available position with this letter: no earlier
                    # unconsumed dependent position may exist
                    blocked = False
                    for j in range(i):
                        if not consumed[j] and not alphabet.independent(total_word[j], target):
                            blocked = True
                            break
                    if not blocked:
                        pos = i
                    break
                if not alphabet.independent(total_word[i], target):
                    break
            if pos is None:
                return None
            consumed[pos] = True
            label[pos] = idx
    if not all(consumed):
        return None
    return label


def levi_decompose(us: Sequence[Trace], vs: Sequence[Trace]) -> Optional[LeviGrid]:
    """A Levi grid for the two factorizations, or None when the products differ.

    The grid is built from two greedy position labelings of the product's
    dependence graph; the independence conditions hold automatically because
    both labelings are monotone along dependence edges.
    """
    us = list(us)
    vs = list(vs)
    if not us or not vs:
        raise TraceError("levi_decompose needs nonempty factor lists")
    alphabet = us[0].alphabet
    total = concat(*us)
    if total != concat(*vs):
        return None
    word = total.word
    col = _embed_parts(word, us, alphabet)
    row = _embed_parts(word, vs, alphabet)
    if col is None or row is None:  # pragma: no cover - equal products always embed
        raise InternalError("greedy embedding failed on equal products")
    cells = [
        [
            Trace(
                alphabet,
                [word[p] for p in range(len(word)) if col[p] == i and row[p] == j],
            )
            for j in range(len(vs))
        ]
        for i in range(len(us))
    ]
    return LeviGrid(us, vs, cells)


def levi_split_pair(total: Trace, left: Trace, right: Trace, parts: Sequence[Trace]):
    """2-row Levi grid for ``total = left*right = parts[0]*...*parts[k-1]``.

    Returns (xs, ys) with parts[i] = xs[i]*ys[i], left = xs[0]..xs[k-1],
    right = ys[0]..ys[k-1] and ys[i] independent of xs[j] for i < j.
    """
    grid = levi_decompose(list(parts), [left, right])
    if grid is None:
        return None
    xs = [grid.cells[i][0] for i in range(len(parts))]
    ys = [grid.cells[i][1] for i in range(len(parts))]
    return xs, ys


# -- sequence reducibility -------------------------------------------------------


Step = Tuple[str, int]  # ("swap"|"cancel"|"drop", position)


def _entries_independent(a: GroupElement, b: GroupElement) -> bool:
    return independent_of(a.trace, b.trace)


def _inverse_pair(a: GroupElement, b: GroupElement) -> bool:
    # both irreducible, so group inverse == trace-level inverse
    if len(a.word) != len(b.word):
        return False
    return b.trace == Trace(b.alphabet, invert_word(a.word))


def validate_reduction(seq: Sequence[GroupElement], steps: Sequence[Step]) -> None:
    """Replay a witness, checking every side condition; must end empty."""
    cur = list(seq)
    for op, i in steps:
        if op == "swap":
            assert 0 <= i < len(cur) - 1, "swap out of range"
            assert _entries_independent(cur[i], cur[i + 1]), "swap of dependent entries"
            cur[i], cur[i + 1] = cur[i + 1], cur[i]
        elif op == "cancel":
            assert 0 <= i < len(cur) - 1, "cancel out of range"
            assert _inverse_pair(cur[i], cur[i + 1]), "cancel of a non-inverse pair"
            del cur[i : i + 2]
        elif op == "drop":
            assert 0 <= i < len(cur), "drop out of range"
            assert cur[i].is_identity(), "drop of a nonempty entry"
            del cur[i]
        else:  # pragma: no cover
            raise AssertionError(f"unknown step {op!r}")
    assert not cur, "witness does not empty the sequence"


def is_i_freely_reducible(
    seq: Sequence[GroupElement], max_states: int = 250_000
) -> Optional[List[Step]]:
    """A witness reduction to the empty sequence, or None if there is none.

    Breadth-first search over the (finite) space of reachable sequences with
    memoization; complete at desk scale.
    """
    entries = list(seq)

    def key(state):
        return tuple(e.word for e in state)

    start = tuple(entries)
    parent: Dict[tuple, Optional[Tuple[tuple, Step]]] = {key(start): None}
    queue = deque([start])
    goal = None
    while queue:
        state = queue.popleft()
        if not state:
            goal = state
            break
        if len(parent) > max_states:
            raise LimitsExceeded("reducibility search budget exhausted")
        moves: List[Tuple[tuple, Step]] = []
        for i, entry in enumerate(state):
            if entry.is_identity():
                moves.append((state[:i] + state[i + 1 :], ("drop", i)))
        for i in range(len(state) - 1):
            if _inverse_pair(state[i], state[i + 1]):
                moves.append((state[:i] + state[i + 2 :], ("cancel", i)))
        for i in range(len(state) - 1):
            if _entries_independent(state[i], state[i + 1]):
                nxt = list(state)
                nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
                moves.append((tuple(nxt), ("swap", i)))
        for nxt, step in moves:
            k = key(nxt)
            if k not in parent:
                parent[k] = (key(state), step)
                queue.append(nxt)
                if not nxt:
                    queue.clear()
                    goal = nxt
                    break
        if goal is not None:
            break
    if goal is None:
        return None
    # reconstruct the step list backwards from the empty sequence
    steps: List[Step] = []
    k: tuple = ()
    while parent[k] is not None:
        prev, step = parent[k]
        steps.append(step)
        k = prev
    steps.reverse()
    return steps


# -- constructive refinement ---------------------------------------------------


class _Sim:
    """Working tape of component ids; emits positional steps."""

    def __init__(self, order: List[int], values: Dict[int, GroupElement]):
        self.cur = list(order)
        self.values = values
        self.steps: List[Step] = []

    def pos(self, cid: int) -> int:
        return self.cur.index(cid)

    def swap_at(self, i: int) -> None:
        a, b = self.cur[i], self.cur[i + 1]
        assert _entries_independent(self.values[a], self.values[b])
        self.cur[i], self.cur[i + 1] = b, a
        self.steps.append(("swap", i))

    def cancel_at(self, i: int) -> None:
        a, b = self.cur[i], self.cur[i + 1]
        assert _inverse_pair(self.values[a], self.values[b])
        del self.cur[i : i + 2]
        self.steps.append(("cancel", i))

    def move_left_to(self, cid: int, target: int) -> None:
        i = self.pos(cid)
        while i > target:
            self.swap_at(i - 1)
            i -= 1

    def cancel_groups(self, group_a: List[int], group_b: List[int]) -> None:
        """Cancel two adjacent groups; (x,y) vs (y',x') nests, singletons meet directly."""
        while group_a:
            inner_a = group_a[-1]
            inner_b = group_b[0]
            i = self.pos(inner_a)
            assert self.cur[i + 1] == inner_b, "groups are not adjacent"
            self.cancel_at(i)
            group_a = group_a[:-1]
            group_b = group_b[1:]
        assert not group_b, "unbalanced group cancellation"


def _refine_core(
    entries: List[GroupElement],
) -> Tuple[List[List[GroupElement]], List[Step]]:
    """Refinement + witness for a sequence of nonempty irreducibles with product 1."""
    n = len(entries)
    alphabet = entries[0].alphabet if entries else None
    if n == 0:
        return [], []
    if n == 1:  # nonempty irreducible cannot be 1
        raise AssertionError("singleton sequence with product 1 must be empty")
    if n == 2:
        assert _inverse_pair(entries[0], entries[1]), "pair with product 1 must be inverse"
        return [[entries[0]], [entries[1]]], [("cancel", 0)]

    w1, w2 = entries[0], entries[1]
    v, cnl = mult(w1, w2)
    a_trace = right_quotient(w1.trace, cnl.codes)
    b_trace = left_quotient(w2.trace, invert_codes(cnl.codes))
    assert a_trace is not None and b_trace is not None

    rest = entries[2:]
    if v.is_identity():
        sub_entries: List[GroupElement] = list(rest)
        v_in_sub = False
    else:
        sub_entries = [v] + list(rest)
        v_in_sub = True
    sub_parts, sub_steps = _refine_core(sub_entries)

    v_parts: List[GroupElement] = sub_parts[0] if v_in_sub else []
    rest_parts: List[List[GroupElement]] = sub_parts[1:] if v_in_sub else sub_parts
    k = len(v_parts)

    # Levi split of v = a b against its parts
    if k:
        split = levi_split_pair(v.trace, a_trace, b_trace, [g.trace for g in v_parts])
        assert split is not None
        xs, ys = split
    else:
        xs, ys = [], []

    # replay the sub-reduction on part ids to recover the matching
    counter = itertools.count()
    sub_ids: List[List[int]] = []
    flat_sub_ids: List[int] = []
    for parts in sub_parts:
        ids = [next(counter) for _ in parts]
        sub_ids.append(ids)
        flat_sub_ids.extend(ids)
    id_value: Dict[int, GroupElement] = {}
    for ids, parts in zip(sub_ids, sub_parts):
        for cid, g in zip(ids, parts):
            id_value[cid] = g
    pairs: List[Tuple[int, int]] = []
    tape = list(flat_sub_ids)
    for op, i in sub_steps:
        if op == "swap":
            tape[i], tape[i + 1] = tape[i + 1], tape[i]
        elif op == "cancel":
            pairs.append((tape[i], tape[i + 1]))
            del tape[i : i + 2]
        else:  # pragma: no cover - core never emits drops
            raise AssertionError("unexpected drop in core refinement")
    assert not tape

    v_ids = set(sub_ids[0]) if v_in_sub else set()
    partner_of_vpart: Dict[int, int] = {}
    for x, y in pairs:
        if x in v_ids and y in v_ids:
            raise AssertionError("two parts of v cancelled each other")
        if x in v_ids:
            partner_of_vpart[x] = y
        elif y in v_ids:
            partner_of_vpart[y] = x

    # build the refined parts and the component tape
    counter2 = itertools.count()
    values: Dict[int, GroupElement] = {}

    def fresh(g: GroupElement) -> int:
        cid = next(counter2)
        values[cid] = g
        return cid

    comp_x: Dict[int, Optional[int]] = {}
    comp_y: Dict[int, Optional[int]] = {}
    for idx, vpid in enumerate(sub_ids[0] if v_in_sub else []):
        xt, yt = xs[idx], ys[idx]
        comp_x[vpid] = fresh(GroupElement(xt)) if not xt.is_empty() else None
        comp_y[vpid] = fresh(GroupElement(yt)) if not yt.is_empty() else None

    cnl_id = fresh(GroupElement(cnl)) if not cnl.is_empty() else None
    cnl_inv_id = (
        fresh(GroupElement(Trace(alphabet, invert_word(cnl.word))))
        if not cnl.is_empty()
        else None
    )

    partner_ids = set(partner_of_vpart.values())
    comp_of_subid: Dict[int, List[int]] = {}
    doubled_for: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
    for ids, parts in zip(sub_ids[1:] if v_in_sub else sub_ids, rest_parts):
        for cid, g in zip(ids, parts):
            if cid in partner_ids:
                # find which v-part it cancels; replace by (y_l^{-1}, x_l^{-1})
                vpid = next(vp for vp, pc in partner_of_vpart.items() if pc == cid)
                idx = sub_ids[0].index(vpid)
                yt_inv = Trace(alphabet, invert_word(ys[idx].word))
                xt_inv = Trace(alphabet, invert_word(xs[idx].word))
                d1 = fresh(GroupElement(yt_inv)) if not yt_inv.is_empty() else None
                d2 = fresh(GroupElement(xt_inv)) if not xt_inv.is_empty() else None
                doubled_for[cid] = (d1, d2)
                comp_of_subid[cid] = [c for c in (d1, d2) if c is not None]
            else:
                nid = fresh(g)
                comp_of_subid[cid] = [nid]

    # refined parts per original entry
    parts_w1 = [values[comp_x[vpid]] for vpid in (sub_ids[0] if v_in_sub else []) if comp_x[vpid] is not None]
    w1_ids = [comp_x[vpid] for vpid in (sub_ids[0] if v_in_sub else []) if comp_x[vpid] is not None]
    if cnl_id is not None:
        parts_w1.append(values[cnl_id])
        w1_ids.append(cnl_id)
    parts_w2: List[GroupElement] = []
    w2_ids: List[int] = []
    if cnl_inv_id is not None:
        parts_w2.append(values[cnl_inv_id])
        w2_ids.append(cnl_inv_id)
    for vpid in sub_ids[0] if v_in_sub else []:
        if comp_y[vpid] is not None:
            parts_w2.append(values[comp_y[vpid]])
            w2_ids.append(comp_y[vpid])
    new_parts: List[List[GroupElement]] = [parts_w1, parts_w2]
    order: List[int] = list(w1_ids) + list(w2_ids)
    for ids in sub_ids[1:] if v_in_sub else sub_ids:
        entry_parts: List[GroupElement] = []
        for cid in ids:
            for nid in comp_of_subid[cid]:
                entry_parts.append(values[nid])
                order.append(nid)
        new_parts.append(entry_parts)

    # guard: w1 and w2 must not be fully empty factorizations
    assert parts_w1 or w1.is_identity()
    assert parts_w2 or w2.is_identity()

    sim = _Sim(order, values)
    # 1. cancel the cnl pair (adjacent by construction)
    if cnl_id is not None:
        sim.cancel_at(sim.pos(cnl_id))
    # 2. interleave the x/y halves: x_0 y_0 x_1 y_1 ...
    anchor = 0
    for vpid in sub_ids[0] if v_in_sub else []:
        cx, cy = comp_x[vpid], comp_y[vpid]
        if cx is not None:
            anchor = sim.pos(cx) + 1
        if cy is not None:
            sim.move_left_to(cy, anchor)
            anchor += 1
    # 3. replay the sub-steps on groups
    group_of: Dict[int, List[int]] = {}
    for vpid in sub_ids[0] if v_in_sub else []:
        group_of[vpid] = [c for c in (comp_x[vpid], comp_y[vpid]) if c is not None]
    for ids in sub_ids[1:] if v_in_sub else sub_ids:
        for cid in ids:
            group_of[cid] = list(comp_of_subid[cid])
    groups = list(flat_sub_ids)
    for op, i in sub_steps:
        if op == "swap":
            ga, gb = group_of[groups[i]], group_of[groups[i + 1]]
            if ga and gb:
                base = sim.pos(ga[0])
                for cb in gb:
                    sim.move_left_to(cb, base)
                    base += 1
            groups[i], groups[i + 1] = groups[i + 1], groups[i]
        else:  # cancel
            ga, gb = group_of[groups[i]], group_of[groups[i + 1]]
            sim.cancel_groups(list(ga), list(gb))
            del groups[i : i + 2]
    assert not sim.cur, "refined witness did not empty the tape"
    return new_parts, sim.steps


def refine_to_reducible(
    seq: Sequence[GroupElement],
) -> Optional[Tuple[List[List[GroupElement]], List[Step]]]:
    """Factorize the entries so the refined sequence reduces; witness included.

    Returns None when the product is not 1 (caller precondition violated).
    The refined sequence concatenates the per-entry factorizations in order;
    the witness is validated before returning.
    """
    entries = list(seq)
    if not entries:
        return [], []
    alphabet = entries[0].alphabet
    product = entries[0]
    for g in entries[1:]:
        product, _ = mult(product, g)
    if not product.is_identity():
        return None
    nonempty = [g for g in entries if not g.is_identity()]
    core_parts, core_steps = _refine_core(nonempty)
    # reinsert identity entries as singleton [1] factorizations, dropped first
    parts: List[List[GroupElement]] = []
    core_iter = iter(core_parts)
    flat: List[GroupElement] = []
    drop_positions: List[int] = []
    for g in entries:
        if g.is_identity():
            parts.append([g])
        else:
            parts.append(next(core_iter))
    pos = 0
    steps: List[Step] = []
    for g, ps in zip(entries, parts):
        if g.is_identity():
            drop_positions.append(pos)
        pos += len(ps)
    # drop identity parts right-to-left so recorded positions stay valid
    offset = 0
    for dp in drop_positions:
        steps.append(("drop", dp - offset))
        offset += 1
    steps.extend(core_steps)
    flat = [g for ps in parts for g in ps]
    validate_reduction(flat, steps)
    return parts, steps


# -- power factorizations (test oracle) ---------------------------------------


def power_two_factorizations(
    u: Trace, x: int, y1: Trace, y2: Trace
) -> Optional[Tuple[int, int, int, Trace, Trace]]:
    """(l,k,c,s,p) with y1 = u^l s, y2 = p u^k, s p = u^c, l+k+c = x, c <= |alphabet|.

    Exists for every two-factor split of u^x when u is connected and nonempty.
    """
    alphabet = u.alphabet
    size_a = len(alphabet.letters)
    # maximal power prefixes/suffixes
    prefixes = [y1]
    while True:
        nxt = left_quotient(prefixes[-1], u.codes)
        if nxt is None:
            break
        prefixes.append(nxt)
    suffixes = [y2]
    while True:
        nxt = right_quotient(suffixes[-1], u.codes)
        if nxt is None:
            break
        suffixes.append(nxt)
    for l in range(len(prefixes) - 1, -1, -1):
        s = prefixes[l]
        for k in range(len(suffixes) - 1, -1, -1):
            c = x - l - k
            if c < 0 or c > size_a:
                continue
            p = suffixes[k]
            if s * p == power(u, c):
                return l, k, c, s, p
    return None
