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


def cyclic_amalgam(n=2):
    """Z/2n *_{Z/2} Z/2n with F = {1, z}, z = g^n = h^n; by default Z/4 *_{Z/2} Z/4."""
    left = FiniteGroupOracle(2 * n, "g")
    right = FiniteGroupOracle(2 * n, "h")
    f_elements = ("1", "z")
    f_table = {
        ("1", "1"): "1",
        ("1", "z"): "z",
        ("z", "1"): "z",
        ("z", "z"): "1",
    }
    embed_left = {"1": (), "z": ("g",) * n}
    embed_right = {"1": (), "z": ("h",) * n}
    am = AmalgamPresentation(
        left, right, f_elements, f_table, "1", embed_left, embed_right
    )
    nf = AmalgamNF(left, right, f_elements, f_table, "1", embed_left, embed_right)
    return am, nf


class TestPresentation:
    def test_validates(self):
        cyclic_amalgam()

    def test_bad_embedding_rejected(self):
        left = FiniteGroupOracle(4, "g")
        right = FiniteGroupOracle(4, "h")
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

    def test_image_outside_its_factor_rejected(self):
        """A left image spelled in the right factor is refused, though the
        free product's HNN-extension alone would take it."""
        f_table = {("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z", ("z", "z"): "1"}
        embed = {"1": (), "z": ("h", "h")}
        with pytest.raises(StructureError, match="letter 'h' outside the oracle's alphabet"):
            AmalgamPresentation(
                FiniteGroupOracle(4, "g"), FiniteGroupOracle(4, "h"),
                ("1", "z"), f_table, "1", embed, embed,
            )

    def test_against_residue_reference(self):
        """F = Z/1 or Z/2 with random, homomorphic or trivial embeddings into
        Z/n and Z/m (residues spelled as runs of a letter or its inverse), an F
        table entry changed or every product 1 now and then, and sometimes
        the wrong identity: a presentation is accepted exactly when each
        embedding is injective, sends the identity to 0 and respects the
        table, and its HNN-extension is accepted too.  Under the all-1 table
        only the duplicate element shows a trivial embedding."""
        rng = random.Random(24)
        seen = {True: 0, False: 0}
        for _ in range(1500):
            fs = rng.choice([("1",), ("1", "z")])
            ftable = {(f, g): fs[(fs.index(f) + fs.index(g)) % len(fs)] for f in fs for g in fs}
            table_kind = rng.random()
            if table_kind < 0.2:
                ftable[rng.choice(list(ftable))] = rng.choice(fs)
            elif table_kind < 0.3:
                ftable = dict.fromkeys(ftable, "1")
            fid = rng.choice(fs) if rng.random() < 0.2 else "1"
            factors, embeds, valid = [], [], True
            for letter in "gh":
                n = rng.randint(1, 6)
                kind = rng.random()
                if kind < 0.4:
                    image = {f: rng.randrange(n) for f in fs}
                elif kind < 0.8:  # a homomorphism, injective when n is even
                    image = {f: fs.index(f) * (n // 2 if n % 2 == 0 else 0) for f in fs}
                else:
                    image = dict.fromkeys(fs, 0)
                valid = valid and (
                    len(set(image.values())) == len(fs)
                    and image[fid] == 0
                    and all((image[f] + image[g] - image[fg]) % n == 0 for (f, g), fg in ftable.items())
                )
                factors.append(FiniteGroupOracle(n, letter))
                inv = letter + "'"
                embeds.append({
                    f: (letter,) * r if rng.random() < 0.5 else (inv,) * ((n - r) % n)
                    for f, r in image.items()
                })
            if not valid:
                with pytest.raises(StructureError):
                    AmalgamPresentation(*factors, fs, ftable, fid, *embeds)
            else:  # accepted, its HNN-extension built and checked with it
                AmalgamPresentation(*factors, fs, ftable, fid, *embeds)
            seen[valid] += 1
        assert min(seen.values()) >= 300, seen


class TestPhiTransform:
    def test_left_letter(self):
        am, _ = cyclic_amalgam()
        assert phi_transform(am, ("g",)) == ("t'", "g", "t")

    def test_right_letter(self):
        am, _ = cyclic_amalgam()
        assert phi_transform(am, ("h",)) == ("h",)

    def test_alternating(self):
        am, _ = cyclic_amalgam()
        assert phi_transform(am, ("g", "h")) == ("t'", "g", "t", "h")


class TestNormalFormOracle:
    def test_identities(self):
        _, nf = cyclic_amalgam()
        assert nf.is_identity(())
        assert nf.is_identity(("g",) * 4)
        assert nf.is_identity(("h",) * 4)
        # g^2 = h^2 in the amalgam
        assert nf.is_identity(("g", "g", "h'", "h'"))
        assert not nf.is_identity(("g", "g"))
        assert not nf.is_identity(("g", "h"))

    def test_alternating_nontrivial(self):
        _, nf = cyclic_amalgam()
        assert not nf.is_identity(("g", "h", "g", "h"))

    def test_inverse_roundtrip(self):
        from ggsolve.groups import invert_word

        _, nf = cyclic_amalgam()
        rng = random.Random(5)
        letters = ("g", "g'", "h", "h'")
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            assert nf.is_identity(w + invert_word(w))


class TestRoundTrip:
    def test_known_instances(self):
        am, nf = cyclic_amalgam()
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
        am, nf = cyclic_amalgam()
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

    def test_z14_amalgam_asks_per_source(self, monkeypatch):
        """Z/14 *_{Z/2} Z/14, items g' g' g', g h g', g and target g'^8 h g g, is
        solvable.  Its saturations ask 91,444 pair questions of the Z/14 factors;
        answered a cut at a time they took 92,679 cuts and 15,301 membership
        searches.  ``reaches`` answers them from one residue search per
        restriction and source (9,172, and 321 more for the membership
        questions left), so few cuts are left."""
        from ggsolve.transfer.kauto import Restriction

        calls = {"cut": 0, "member": 0, "search": 0}

        def counted(cls, name, key):
            fn = getattr(cls, name)

            def call(*args):
                calls[key] += 1
                return fn(*args)

            monkeypatch.setattr(cls, name, call)

        counted(Restriction, "cut", "cut")
        counted(FiniteGroupOracle, "_member_impl", "member")
        counted(FiniteGroupOracle, "_search", "search")
        am, _ = cyclic_amalgam(7)
        target = ("g'",) * 8 + ("h", "g", "g")
        assert amalgam_knapsack(am, [("g'", "g'", "g'"), ("g", "h", "g'"), ("g",)], target)
        assert calls["cut"] <= 2000 and calls["member"] <= 1000
        assert calls["search"] <= 10000
