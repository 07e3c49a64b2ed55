"""Amalgamated products: embedding round-trip vs the transversal normal form."""

import random

import pytest

from ggsolve.errors import StructureError
from ggsolve.transfer import (
    AmalgamPresentation,
    FiniteGroupOracle,
    amalgam_knapsack,
    phi_transform,
)

from transfer_oracles import AmalgamNF


def z4_z2_z4():
    """Z/4 *_{Z/2} Z/4 with F = {1, z}, z = g^2 = h^2."""
    left = FiniteGroupOracle.cyclic(4, "g")
    right = FiniteGroupOracle.cyclic(4, "h")
    f_elements = ("1", "z")
    f_table = {
        ("1", "1"): "1",
        ("1", "z"): "z",
        ("z", "1"): "z",
        ("z", "z"): "1",
    }
    embed_left = {"1": (), "z": ("g", "g")}
    embed_right = {"1": (), "z": ("h", "h")}
    am = AmalgamPresentation(
        left, right, f_elements, f_table, "1", embed_left, embed_right
    )
    nf = AmalgamNF(left, right, f_elements, f_table, "1", embed_left, embed_right)
    return am, nf


class TestPresentation:
    def test_validates(self):
        z4_z2_z4()

    def test_bad_embedding_rejected(self):
        left = FiniteGroupOracle.cyclic(4, "g")
        right = FiniteGroupOracle.cyclic(4, "h")
        f_table = {
            ("1", "1"): "1",
            ("1", "z"): "z",
            ("z", "1"): "z",
            ("z", "z"): "1",
        }
        with pytest.raises(StructureError):
            AmalgamPresentation(
                left,
                right,
                ("1", "z"),
                f_table,
                "1",
                {"1": (), "z": ("g",)},  # g has order 4, not 2
                {"1": (), "z": ("h", "h")},
            )


class TestPhiTransform:
    def test_left_letter(self):
        am, _ = z4_z2_z4()
        assert phi_transform(am, ("g",)) == ("t'", "g", "t")

    def test_right_letter(self):
        am, _ = z4_z2_z4()
        assert phi_transform(am, ("h",)) == ("h",)

    def test_alternating(self):
        am, _ = z4_z2_z4()
        assert phi_transform(am, ("g", "h")) == ("t'", "g", "t", "h")


class TestNormalFormOracle:
    def test_identities(self):
        _, nf = z4_z2_z4()
        assert nf.is_identity(())
        assert nf.is_identity(("g",) * 4)
        assert nf.is_identity(("h",) * 4)
        # g^2 = h^2 in the amalgam
        assert nf.is_identity(("g", "g", "h'", "h'"))
        assert not nf.is_identity(("g", "g"))
        assert not nf.is_identity(("g", "h"))

    def test_alternating_nontrivial(self):
        _, nf = z4_z2_z4()
        assert not nf.is_identity(("g", "h", "g", "h"))

    def test_inverse_roundtrip(self):
        from ggsolve.groups import invert_word

        _, nf = z4_z2_z4()
        rng = random.Random(5)
        letters = ("g", "g'", "h", "h'")
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            assert nf.is_identity(w + invert_word(w))


class TestRoundTrip:
    def test_known_instances(self):
        am, nf = z4_z2_z4()
        # g^2 h^2 = 1? g^2 h^2 = z*z = 1: knapsack g^x h^y = 1 with x=y=2
        assert amalgam_knapsack(am, [("g",), ("h",)], ())
        assert nf.brute_knapsack([("g",), ("h",)], ())
        # g^x = h (different factors, h not in F-coset of any g power)
        assert not amalgam_knapsack(am, [("g",)], ("h",))
        assert not nf.brute_knapsack([("g",)], ("h",))
        # g^x = h^2: x = 2 via the identified subgroup
        assert amalgam_knapsack(am, [("g",)], ("h", "h"))
        assert nf.brute_knapsack([("g",)], ("h", "h"))

    def test_random_agreement(self):
        am, nf = z4_z2_z4()
        rng = random.Random(321)
        letters = ("g", "g'", "h", "h'")
        done = 0
        for _ in range(20):
            k = rng.randint(1, 2)
            bases = [
                tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
                for _ in range(k)
            ]
            target = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            got = amalgam_knapsack(am, bases, target)
            brute = nf.brute_knapsack(bases, target, cap=6)
            if brute:
                assert got, (bases, target)
            if not got:
                assert not brute, (bases, target)
            done += 1
        assert done == 20
