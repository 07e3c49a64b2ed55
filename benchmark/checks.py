"""Independent checks for the benchmark's outputs.

Nothing here imports ggsolve: the verdicts, witnesses and solution sets the
program prints are judged by this module's own graph-group word problem, by
planted answers, and by abelian obstructions.
"""

from __future__ import annotations

from itertools import product

INVERSE_MARK = "'"


def inverse(letter: str) -> str:
    return letter[:-1] if letter.endswith(INVERSE_MARK) else letter + INVERSE_MARK


def base(letter: str) -> str:
    return letter[:-1] if letter.endswith(INVERSE_MARK) else letter


def invert_word(word) -> list:
    return [inverse(a) for a in reversed(word)]


class Graph:
    """Independence graph on base letters (a graph group's presentation)."""

    def __init__(self, letters, pairs=()):
        self.letters = tuple(letters)
        self.pairs = frozenset(frozenset(p) for p in pairs)
        self._commuting = {
            (x, y)
            for a, b in (tuple(p) for p in self.pairs)
            for x in (a, inverse(a))
            for y in (b, inverse(b))
        }
        self._commuting |= {(y, x) for x, y in self._commuting}

    def commute(self, x: str, y: str) -> bool:
        return (x, y) in self._commuting

    def reduce(self, word) -> list:
        """Reduced word equal to ``word`` in the graph group.

        Appending a letter x to a reduced word cancels it against the nearest
        x^-1 whose later letters all commute with x; otherwise x stays.
        """
        out: list = []
        for x in word:
            xi = inverse(x)
            for i in range(len(out) - 1, -1, -1):
                y = out[i]
                if y == xi:
                    del out[i]
                    break
                if not self.commute(x, y):
                    out.append(x)
                    break
            else:
                out.append(x)
        return out

    def is_identity(self, word) -> bool:
        return not self.reduce(word)

    def is_cyclically_reduced(self, word) -> bool:
        """A reduced word w is cyclically reduced iff w w is reduced."""
        word = list(word)
        return len(self.reduce(word)) == len(word) and len(self.reduce(word + word)) == 2 * len(word)

    def is_connected(self, word) -> bool:
        """The dependence graph on the base letters of ``word`` is connected."""
        letters = sorted({base(a) for a in word})
        if not letters:
            return False
        seen = {letters[0]}
        frontier = [letters[0]]
        while frontier:
            a = frontier.pop()
            for b in letters:
                if b not in seen and not self.commute(a, b):
                    seen.add(b)
                    frontier.append(b)
        return len(seen) == len(letters)


# -- solution sets printed by ``solve --format machine`` ----------------------


def parse_solset(lines) -> list:
    """Components (base, periods) from ``solset=lin base=(..) periods=(..)`` lines."""
    comps = []
    for line in lines:
        if line == "empty":
            continue
        head, _, rest = line.partition(" base=(")
        if head != "lin":
            raise ValueError(f"bad solset line {line!r}")
        base_text, _, rest = rest.partition(") periods=(")
        if not rest.endswith(")"):
            raise ValueError(f"bad solset line {line!r}")
        periods_text = rest[:-1]
        vec = tuple(int(x) for x in base_text.split(",") if x)
        periods = []
        for piece in periods_text.split(";"):
            piece = piece.strip("()")
            if piece:
                periods.append(tuple(int(x) for x in piece.split(",")))
        comps.append((vec, periods))
    return comps


def members_in_box(comps, dim: int, bound: int) -> set:
    """Every member of the union of linear sets with all coordinates <= bound."""
    out = set()
    for vec, periods in comps:
        if len(vec) != dim or any(len(p) != dim for p in periods):
            raise ValueError("solution-set dimension mismatch")
        seen = set()
        frontier = [vec]
        while frontier:
            v = frontier.pop()
            if v in seen or any(x > bound for x in v):
                continue
            seen.add(v)
            out.add(v)
            for p in periods:
                if any(p):
                    frontier.append(tuple(a + b for a, b in zip(v, p)))
    return out


def parse_machine(text: str) -> dict:
    """key -> list of values from ``key=value`` lines."""
    out: dict = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.setdefault(key, []).append(value)
    return out


# -- abelian obstructions -------------------------------------------------------


def subgroup_contains(moduli, gens, target) -> bool:
    """Is ``target`` in the subgroup of Z/m1 x ... x Z/mk generated by ``gens``?

    In a finite group the submonoid generated by a set is the subgroup, so
    this also decides reachability with natural coefficients.  Relations of
    a quotient group are passed as extra generators.
    """
    norm = lambda v: tuple(x % m for x, m in zip(v, moduli))
    start = norm([0] * len(moduli))
    gens = [norm(g) for g in gens]
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = norm([a + b for a, b in zip(v, g)])
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return norm(target) in seen


def z_reachable(weights, target: int) -> bool:
    """Can sum x_i * weights_i = target hold with natural x_i?  (exact test)"""
    from math import gcd

    g = 0
    for w in weights:
        g = gcd(g, abs(w))
    if g == 0:
        return target == 0
    if target % g:
        return False
    if target > 0:
        return any(w > 0 for w in weights)
    if target < 0:
        return any(w < 0 for w in weights)
    return True


def image(hom: dict, word) -> tuple:
    """Image of a word under a letter -> vector map (inverse letters negate)."""
    dim = len(next(iter(hom.values())))
    acc = [0] * dim
    for a in word:
        v = hom[base(a)]
        sign = -1 if a.endswith(INVERSE_MARK) else 1
        for i in range(dim):
            acc[i] += sign * v[i]
    return tuple(acc)


def obstructed(finite_homs, z_homs, items, rhs) -> bool:
    """True when some homomorphism shows sum x_i h(item_i) = h(rhs) has no natural solution.

    ``finite_homs`` are (moduli, letter map, relations) into finite abelian
    groups Z/m1 x ... x Z/mk modulo the relations; ``z_homs`` are letter maps
    into Z.
    """
    for moduli, hom, relations in finite_homs:
        gens = [image(hom, u) for u in items] + list(relations)
        if not subgroup_contains(moduli, gens, image(hom, rhs)):
            return True
    for hom in z_homs:
        if not z_reachable([image(hom, u)[0] for u in items], image(hom, rhs)[0]):
            return True
    return False


# -- the per-workload output checks --------------------------------------------

# An operation's outcome: None when the output is right, otherwise a short
# reason; ``wrong`` reasons are definite wrong answers (a verdict or witness
# that contradicts the benchmark's own computation), the others are failures
# to answer (unknown, errors).


def check_verdict(inst: dict, code: int, out: dict):
    expected = inst["expect"]["solvable"]
    if code not in (0, 1):
        return ("no-answer", f"exit {code}")
    if (code == 0) != expected:
        return ("wrong", f"exit {code}, expected {'0' if expected else '1'}")
    status = out.get("status", [""])[0]
    if status != ("solvable" if expected else "unsolvable"):
        return ("wrong", f"status {status!r}")
    return None


def check_verify(inst: dict, code: int, out: dict):
    bad = check_verdict(inst, code, out)
    if bad:
        return bad
    if out.get("verified", [""])[0] != ("true" if inst["expect"]["solvable"] else "false"):
        return ("wrong", "verified flag disagrees with the exit code")
    return None


def check_exact(inst: dict, code: int, out: dict):
    """Witness through the own word problem; solution set in a box by brute force."""
    exp = inst["expect"]
    if code not in (0, 1):
        return ("no-answer", f"exit {code}")
    status = out.get("status", [""])[0]
    if status != ("solvable" if code == 0 else "unsolvable"):
        return ("wrong", f"status {status!r} with exit {code}")
    graph = Graph(exp["letters"], exp["pairs"])
    variables = exp["vars"]
    items = exp["items"]

    def word_for(values: dict) -> list:
        word = []
        for item in items:
            if item[0] == "const":
                word.extend(item[1])
            else:
                word.extend(list(item[1]) * values[item[2]])
        return word

    try:
        comps = parse_solset(out.get("solset", []))
        reported = members_in_box(comps, len(variables), exp["box"])
    except ValueError as exc:
        return ("wrong", f"unreadable solution set: {exc}")
    brute = set()
    for values in product(range(exp["box"] + 1), repeat=len(variables)):
        if graph.is_identity(word_for(dict(zip(variables, values)))):
            brute.add(values)
    if reported != brute:
        return ("wrong", f"solution set in the box differs: {sorted(reported ^ brute)[:4]}")
    if code == 1:
        if exp["planted"] is not None:
            return ("wrong", "planted solution reported unsolvable")
        if comps:
            return ("wrong", "unsolvable with a nonempty solution set")
        return None
    witness_text = out.get("witness", [""])[0]
    try:
        witness = {} if witness_text == "trivial" else {
            k: int(v) for k, v in (p.split("=") for p in witness_text.split(";"))
        }
    except ValueError:
        return ("wrong", f"unreadable witness {witness_text!r}")
    if set(witness) != set(variables):
        return ("wrong", f"witness variables {sorted(witness)}")
    if not graph.is_identity(word_for(witness)):
        return ("wrong", f"witness {witness_text} does not solve the equation")
    return None


CHECKS = {"verify": check_verify, "exact": check_exact, "verdict": check_verdict}


def check(inst: dict, code: int, text: str):
    return CHECKS[inst["check"]](inst, code, parse_machine(text))
