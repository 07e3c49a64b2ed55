"""Seeded instance generators for the benchmark's workloads.

``generate(workload, seed, round_index)`` returns one round of instances.
Each instance is a dict with the instance file's text, the ggsolve arguments
that decide it, the check that judges the output and the expected facts that
check uses.  The same seed and round always give the same list; the
structural size of the i-th instance of a round (word lengths, alphabet
size, group order, item count) depends only on i (for ``transfer``, on i
and the round modulo 16), so the cost mix repeats every round (every 16
rounds for ``transfer``) and only the words change.
"""

from __future__ import annotations

import random

from checks import Graph, inverse, invert_word, obstructed

LETTERS = "abcdef"


def fmt(word) -> str:
    return " ".join(word) if word else "_"


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def random_graph(rng: random.Random, n_letters: int, density: float) -> Graph:
    """Random independence graph with round(density * all pairs) edges."""
    letters = LETTERS[:n_letters]
    pairs = [(a, b) for i, a in enumerate(letters) for b in letters[i + 1 :]]
    return Graph(letters, rng.sample(pairs, round(density * len(pairs))))


def random_reduced(rng: random.Random, graph: Graph, length: int) -> list:
    """A reduced word of exactly ``length`` letters."""
    doubled = [x for a in graph.letters for x in (a, a + "'")]
    while True:
        word = graph.reduce([rng.choice(doubled) for _ in range(length)])
        while len(word) < length:
            word = graph.reduce(word + [rng.choice(doubled)])
        if len(word) == length:
            return word


def random_base(rng: random.Random, graph: Graph, length: int) -> list:
    """A nonempty, cyclically reduced, connected word of ``length`` letters."""
    while True:
        word = random_reduced(rng, graph, length)
        if graph.is_cyclically_reduced(word) and graph.is_connected(word):
            return word


def graph_header(graph: Graph) -> list:
    lines = ["gens " + " ".join(graph.letters)]
    for pair in sorted(tuple(sorted(p)) for p in graph.pairs):
        lines.append(f"indep {pair[0]} {pair[1]}")
    return lines


# -- exact-2pow -------------------------------------------------------------------

EXACT_BOX = 5  # brute force runs over [0, EXACT_BOX]^k
EXACT_SHAPES = ("distinct", "repeated", "knapsack")
EXACT_ROUND = 48


def gen_exact(seed: int, round_index: int) -> list:
    """Two-power equations for ``ggsolve solve --mode exact``.

    Shapes: c0 u^x c1 v^y d = 1 (distinct variables), the same with y = x
    (repeated variable), and knapsack blocks u^x1 v^x2 = target.  Even
    indices plant a solution with exponents <= 4 (the last constant or the
    target is computed from it); odd indices draw every word freely.  A
    planted equation gives d as an SLP (constS) and is also checked with
    ``ggsolve verify`` at its planted solution, so SLP expansion and the
    verifier are measured here too.
    Alphabets have 3-6 letters; bases are cyclically reduced and connected
    with at most 5 letters; constants have at most 40 letters.
    """
    rng = rng_for("exact-2pow", seed, round_index)
    out = []
    for index in range(EXACT_ROUND):
        shape = EXACT_SHAPES[index // 2 % 3]
        planted = index % 2 == 0
        n_letters = 3 + index // 6 % 4
        while True:
            graph = random_graph(rng, n_letters, 0.35)
            u = random_base(rng, graph, 1 + index % 5)
            v = random_base(rng, graph, 1 + index // 5 % 5)
            point = (rng.randint(0, 4), rng.randint(0, 4)) if planted else None
            if shape == "repeated" and planted:
                point = (point[0], point[0])
            if shape == "knapsack":
                c0, c1 = [], []
                if planted:
                    d = invert_word(graph.reduce(u * point[0] + v * point[1]))
                else:
                    d = random_reduced(rng, graph, 2 + index % 7)
            else:
                c0 = random_reduced(rng, graph, index % 4)
                c1 = random_reduced(rng, graph, 1 + index // 4 % 4)
                if planted:
                    d = invert_word(graph.reduce(c0 + u * point[0] + c1 + v * point[1]))
                else:
                    d = random_reduced(rng, graph, 2 + index // 3 % 4)
            if len(d) <= 40:
                break
        lines = graph_header(graph)
        if shape == "knapsack":
            variables = ["x1", "x2"]
            items = [("pow", u, "x1"), ("pow", v, "x2"), ("const", d)]
            lines += ["knapsack", f"item {fmt(u)}", f"item {fmt(v)}",
                      f"target {fmt(invert_word(d))}"]
        else:
            y = "x" if shape == "repeated" else "y"
            variables = ["x"] if shape == "repeated" else ["x", "y"]
            items = [("const", c0), ("pow", u, "x"), ("const", c1), ("pow", v, y),
                     ("const", d)]
            body = [
                f"const {fmt(item[1])}" if item[0] == "const"
                else f"pow {fmt(item[1])} {item[2]}"
                for item in items
            ]
            if planted:  # the closing constant as an SLP (constS)
                lines += ["slp D", f"rule D -> {fmt(d)}"]
                body[-1] = "constS D"
            lines += ["eq"] + body
        out.append({
            "name": f"x{index:02d}-{shape}-{'planted' if planted else 'free'}",
            "text": "\n".join(lines) + "\n",
            "args": ["solve", "--mode", "exact"],
            "check": "exact",
            "expect": {
                "letters": graph.letters,
                "pairs": [tuple(p) for p in graph.pairs],
                "vars": variables,
                "items": items,
                "box": EXACT_BOX,
                "planted": point,
            },
        })
        if planted and shape != "knapsack":
            assign = ",".join(f"{var}={x}" for var, x in zip(variables, point))
            out.append({
                "name": f"x{index:02d}-{shape}-verify",
                "text": out[-1]["text"],
                "args": ["verify", "--assign", assign],
                "check": "verify",
                "expect": {"solvable": True},
            })
    return out


# -- transfer ---------------------------------------------------------------------

TRANSFER_ORDERS = range(1, 11)  # Z/2n with n = 1 .. 10
TRANSFER_KINDS = ("hnn", "amalgam", "finite-ext")


def _random_word(rng: random.Random, letters, length: int) -> list:
    return [rng.choice(letters) + rng.choice(("", "'")) for _ in range(length)]


def _cancel_adjacent(word) -> list:
    out: list = []
    for a in word:
        if out and out[-1] == inverse(a):
            out.pop()
        else:
            out.append(a)
    return out


def _hnn_instance(n: int, items, target) -> str:
    gn = ["g"] * n
    lines = [
        f"oracle B finite-cyclic {2 * n} g",
        "hnn base B stable t",
        "assoc + _", f"assoc + {fmt(gn)}",
        "assoc - _", f"assoc - {fmt(gn)}",
        "phi _ -> _", f"phi {fmt(gn)} -> {fmt(gn)}",
    ]
    lines += [f"item {fmt(u)}" for u in items] + [f"target {fmt(target)}"]
    return "\n".join(lines) + "\n"


def _amalgam_instance(n: int, items, target) -> str:
    lines = [
        f"oracle L finite-cyclic {2 * n} g",
        f"oracle R finite-cyclic {2 * n} h",
        "amalgam left L right R",
        "felem 1 z", "fid 1",
        "ftable 1 1 -> 1", "ftable 1 z -> z", "ftable z 1 -> z", "ftable z z -> 1",
        "fmap 1 left _ right _",
        f"fmap z left {fmt(['g'] * n)} right {fmt(['h'] * n)}",
    ]
    lines += [f"item {fmt(u)}" for u in items] + [f"target {fmt(target)}"]
    return "\n".join(lines) + "\n"


def _extension_instance(m: int, consts, items) -> str:
    """Z x| Z/m with s a s^-1 = a^-1: cosets s^j over G = Z generated by a."""
    name = lambda j: "1" if j % m == 0 else f"s{j % m}"
    lines = ["oracle G z a", "extension base G",
             "cosets " + " ".join(name(j) for j in range(m)), "onecoset 1"]
    for j in range(m):
        sign = "" if j % 2 == 0 else "'"
        flip = "'" if j % 2 == 0 else ""
        lines.append(f"coset {name(j)} gen a -> a{sign} {name(j)}")
        lines.append(f"coset {name(j)} gen a' -> a{flip} {name(j)}")
        lines.append(f"coset {name(j)} gen s -> {name(j + 1)}")
        lines.append(f"coset {name(j)} gen s' -> {name(j - 1)}")
    lines.append("eqH")
    for i, u in enumerate(items):
        lines.append(f"const {fmt(consts[i])}")
        lines.append(f"pow {fmt(u)} x{i + 1}")
    lines.append(f"const {fmt(consts[-1])}")
    return "\n".join(lines) + "\n"


def _homs(kind: str, n: int):
    """(finite homs, Z homs) of the group into abelian groups, as letter maps.

    The finite ones are the abelianizations (with Z replaced by Z/k for the
    stable letter); a relation is passed as an extra generator.
    """
    m = 2 * n
    if kind == "hnn":  # t^-1 g^n t = g^n, g^2n = 1
        finite = [((m, k), {"g": (1, 0), "t": (0, 1)}, ()) for k in (2, 3, 4)]
        return finite, [{"g": (0,), "t": (1,)}]
    if kind == "amalgam":  # g^2n = h^2n = 1, g^n = h^n
        return [((m, m), {"g": (1, 0), "h": (0, 1)}, [(n, -n)])], []
    # finite-ext: s a s^-1 = a^-1, s^m = 1
    return [((2, m), {"a": (1, 0), "s": (0, 1)}, ())], []


def gen_transfer(seed: int, round_index: int) -> list:
    """HNN-extensions of Z/2n, amalgams Z/2n *_{Z/2} Z/2n and Z x| Z/2n.

    One HNN and one finite-extension instance per (n, planted) with
    n = 1..10, and one amalgam, of order n = 1 + round_index % 8, planted in
    the first 8 rounds of every 16, so every 16 consecutive rounds hold the
    same mix.  An amalgam's time varies with its words from 3 ms to 0.7 s
    (its sd is about its mean), against 1-30 ms for most instances of the
    other kinds; one amalgam in 41 instances keeps a run's total from
    resting on a few such draws.  HNN instances have 1-3 items, amalgam and
    finite-extension instances 1-2: three-item amalgams take up to seconds
    each.  Planted instances build the target (at most 6 letters) or the
    closing constant from exponents 0..2.  Free draws are kept only when a
    homomorphism to an abelian group proves them unsolvable.
    """
    rng = rng_for("transfer", seed, round_index)
    amalgam = (1 + round_index % 8, round_index // 8 % 2 == 0)
    out = []
    index = 0
    for n in TRANSFER_ORDERS:
        for kind in TRANSFER_KINDS:
            for planted in (True, False):
                if kind == "amalgam" and (n, planted) != amalgam:
                    continue
                n_items = 1 + (n + planted) % (3 if kind == "hnn" else 2)
                finite, zs = _homs(kind, n)
                letters = {"hnn": "gt", "amalgam": "gh", "finite-ext": "as"}[kind]
                while True:
                    items = [
                        _cancel_adjacent(_random_word(rng, letters, rng.randint(1, 3)))
                        for _ in range(n_items)
                    ]
                    if any(not u for u in items):
                        continue
                    if kind == "finite-ext":
                        consts = [
                            _cancel_adjacent(_random_word(rng, letters, rng.randint(0, 2)))
                            for _ in range(n_items)
                        ]
                        if planted:
                            xs = [rng.randint(0, 2) for _ in items]
                            word = []
                            for c, u, x in zip(consts, items, xs):
                                word += c + u * x
                            consts.append(_cancel_adjacent(invert_word(word)))
                            break
                        consts.append(_cancel_adjacent(_random_word(rng, letters, rng.randint(1, 3))))
                        rhs = invert_word([a for c in consts for a in c])
                        if obstructed(finite, zs, items, rhs):
                            break
                        continue
                    if planted:
                        xs = [rng.randint(0, 2) for _ in items]
                        target = _cancel_adjacent([a for u, x in zip(items, xs) for a in u * x])
                        if len(target) <= 6:
                            break
                        continue
                    target = _cancel_adjacent(_random_word(rng, letters, rng.randint(1, 4)))
                    if obstructed(finite, zs, items, target):
                        break
                if kind == "hnn":
                    text = _hnn_instance(n, items, target)
                elif kind == "amalgam":
                    text = _amalgam_instance(n, items, target)
                else:
                    text = _extension_instance(2 * n, consts, items)
                out.append({
                    "name": f"t{index:02d}-{kind}-n{n}-{'planted' if planted else 'obstructed'}",
                    "text": text,
                    "args": [kind],
                    "check": "verdict",
                    "expect": {"solvable": planted},
                })
                index += 1
    return out


# -- verify-pow -------------------------------------------------------------------

VERIFY_BANDS = range(8, 14)  # exponents drawn from [2^b, 2^(b+1)) for b = 8 .. 13


def _power_slp(word, k: int) -> list:
    """SLP rules for word^k by iterated squaring, start variable K."""
    rules = [f"rule P0 -> {fmt(word)}"]
    top = k.bit_length() - 1
    for i in range(top):
        rules.append(f"rule P{i + 1} -> P{i} P{i}")
    parts = [f"P{i}" for i in range(top, -1, -1) if k >> i & 1]
    return ["slp K", f"rule K -> {' '.join(parts)}"] + rules


def gen_verify(seed: int, round_index: int) -> list:
    """Planted exponent equations for ``ggsolve verify``.

    Over a random independence graph of 4 letters, with a cyclically reduced
    and connected base w (2-4 letters) and a reduced conjugator c (1-2
    letters), and e drawn from [2^b, 2^(b+1)) for every band b = 8..13:

    - pair: c w^x c^-1 c (w^-1)^y c^-1 = 1, which holds iff x = y;
    - slp: c w^x c^-1 c val(K) c^-1 = 1 with val(K) = (w^-1)^e given as an
      SLP (constS), which holds iff x = e.

    Each shape comes with a true assignment (x = y = e, or x = e) and a false
    one (y = e + 1, or x = e + 1), which leaves c w^-1 c^-1 or c w c^-1, not
    1, since graph groups are torsion-free.  The bands stop at 2^13: at 2^16 one call
    takes 2-5 s, and a round with every band up to 2^16 took 26 s, too long
    for a run to hold enough calls.
    """
    rng = rng_for("verify-pow", seed, round_index)
    out = []
    for band in VERIFY_BANDS:
        for shape in ("pair", "slp"):
            for true in (True, False):
                graph = random_graph(rng, 4, 0.35)
                w = random_base(rng, graph, 2 + band % 3)
                c = random_reduced(rng, graph, 1 + band % 2)
                e = rng.randrange(2 ** band, 2 ** (band + 1))
                lines = graph_header(graph)
                if shape == "pair":
                    lines += ["eq", f"const {fmt(c)}", f"pow {fmt(w)} x",
                              f"const {fmt(invert_word(c))}", f"const {fmt(c)}",
                              f"pow {fmt(invert_word(w))} y", f"const {fmt(invert_word(c))}"]
                    assign = f"x={e},y={e if true else e + 1}"
                else:
                    lines += _power_slp(invert_word(w), e)
                    lines += ["eq", f"const {fmt(c)}", f"pow {fmt(w)} x",
                              f"const {fmt(invert_word(c))}", f"const {fmt(c)}",
                              "constS K", f"const {fmt(invert_word(c))}"]
                    assign = f"x={e if true else e + 1}"
                out.append({
                    "name": f"v{band:02d}-{shape}-{'true' if true else 'false'}",
                    "text": "\n".join(lines) + "\n",
                    "args": ["verify", "--assign", assign],
                    "check": "verify",
                    "expect": {"solvable": true},
                })
    return out


GENERATORS = {"exact-2pow": gen_exact, "transfer": gen_transfer, "verify-pow": gen_verify}


def generate(workload: str, seed: int, round_index: int) -> list:
    return GENERATORS[workload](seed, round_index)
