"""SLPs: lengths, capped expansion, powers, the compression witness."""

import random

import pytest

from ggsolve.errors import ResourceExceeded, StructureError
from ggsolve.slp import Slp, expand_capped, val_length

from helpers import compression_witness, expand, from_word, power_slp


def chain(n, letter="a"):
    """n-level squaring chain over a single letter: val length 2^n."""
    rhs = {"A0": (letter,)}
    for i in range(1, n + 1):
        rhs[f"A{i}"] = (f"A{i-1}", f"A{i-1}")
    return Slp(rhs, f"A{n}")


class TestValLength:
    def test_simple(self):
        g = Slp({"S": ("A", "A"), "A": ("a", "a")}, "S")
        assert val_length(g) == 4

    def test_chain(self):
        assert val_length(chain(20)) == 2**20

    def test_single(self):
        assert val_length(Slp({"S": ("a",)}, "S")) == 1

    def test_cycle_detected(self):
        with pytest.raises(StructureError) as err:
            Slp({"S": ("S", "a")}, "S")
        assert "S" in str(err.value)

    def test_mutual_cycle_detected(self):
        with pytest.raises(StructureError):
            Slp({"S": ("B",), "B": ("S",)}, "S")


class TestExpand:
    def test_simple(self):
        g = Slp({"S": ("A", "A"), "A": ("a", "a")}, "S")
        assert expand_capped(g, 10) == ("a",) * 4

    def test_cap_exceeded(self):
        with pytest.raises(ResourceExceeded) as err:
            expand_capped(chain(20), 1000)
        assert err.value.required == 2**20

    def test_empty(self):
        g = Slp({"S": ()}, "S")
        assert expand_capped(g, 0) == ()

    def test_matches_naive_random(self):
        rng = random.Random(71)
        letters = ["a", "b", "a'"]
        for _ in range(120):
            n_vars = rng.randint(1, 4)
            names = [f"V{i}" for i in range(n_vars)]
            rhs = {}
            for i, name in enumerate(names):
                body = []
                for _ in range(rng.randint(0, 3)):
                    if i and rng.random() < 0.5:
                        body.append(names[rng.randint(0, i - 1)])
                    else:
                        body.append(rng.choice(letters))
                rhs[name] = tuple(body)
            g = Slp(rhs, names[-1])
            if g.size() > 12:
                continue

            def naive(var):
                out = []
                for tok in g.rhs[var]:
                    if tok in g.rhs:
                        out.extend(naive(tok))
                    else:
                        out.append(tok)
                return out

            assert list(expand(g)) == naive(g.start)


class TestPowerSlp:
    def test_val(self):
        g = from_word(("a", "b"))
        assert expand(power_slp(g, 3)) == ("a", "b") * 3

    def test_zero(self):
        g = from_word(("a", "b"))
        assert expand(power_slp(g, 0)) == ()

    def test_production_count(self):
        g = from_word(("a",))
        h = power_slp(g, 5)
        added = len(h.rhs) - len(g.rhs)
        assert expand(h) == ("a",) * 5
        assert added <= 6  # binary decomposition of 5

    def test_length_linearity(self):
        g = from_word(("a", "b", "c"))
        for k in range(65):
            assert val_length(power_slp(g, k)) == 3 * k


class TestCompressionWitness:
    @pytest.mark.parametrize("n", range(1, 31))
    def test_size_and_length(self, n):
        g = compression_witness(n)
        assert g.size() == 2 * n
        assert val_length(g) >= 2**n
