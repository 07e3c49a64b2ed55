"""Instance formats, CLI commands, exit-code contract on the golden corpus."""

import glob
import io
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from ggsolve.cli import main
from ggsolve.errors import FormatError, InternalError
from ggsolve.groups import DoubledAlphabet, SignedPile, free_reduce, mult
from ggsolve.formats import (
    EqProblem,
    build_equation,
    parse_instance,
)
from ggsolve.mihailova import gen_mihailova, mihailova_generators
from ggsolve.traces import IndependenceAlphabet, Pile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CORPUS = os.path.join(ROOT, "corpus")


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write(tmp_path, text, name="inst.gg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def cli_env():
    """The environment for a subprocess that imports ggsolve from this checkout."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestParsing:
    def test_eq_roundtrip(self, tmp_path):
        text = "gens a b\nindep a b\neq\npow a x\nconst b\n"
        inst = parse_instance(text)
        e = build_equation(inst)
        assert len(e.items) == 2
        assert e.vars == ("x",)

    def test_parse_error_line(self):
        with pytest.raises(FormatError) as err:
            parse_instance("gens a\nbogus line\n")
        assert "line 2" in str(err.value)

    def test_empty_word_token(self):
        inst = parse_instance("gens a\neq\nconst _\npow a x\n")
        e = build_equation(inst)
        assert e.items[0].value.is_identity()

    def test_slp_reference(self):
        text = (
            "gens a\nslp P\nrule P -> A A\nrule A -> a a\n"
            "eq\nconstS P\npow a' x\n"
        )
        inst = parse_instance(text)
        e = build_equation(inst)
        assert len(e.items[0].value) == 4

    def test_unknown_slp(self):
        with pytest.raises(FormatError):
            build_equation(parse_instance("gens a\neq\nconstS Nope\n"))


class TestSolveCommand:
    def test_exact_solvable(self, tmp_path):
        path = write(tmp_path, "gens a\neq\npow a x\npow a' a' y\n")
        code, out = run_cli(["--format", "machine", "solve", path])
        assert code == 0
        assert "status=solvable" in out
        assert "solset=lin base=(0,0) periods=((2,1))" in out

    def test_machine_format_lines(self, tmp_path):
        path = write(tmp_path, "gens a\neq\npow a x\nconst a' a'\n")
        code, out = run_cli(["--format", "machine", "solve", path])
        assert code == 0
        for line in out.splitlines():
            assert "=" in line

    def test_relax_mode(self, tmp_path):
        path = write(tmp_path, "gens a b\neq\npow a x\nconst b\n")
        code, out = run_cli(["--format", "machine", "solve", "--mode", "relax", path])
        assert code == 1

    def test_search_mode(self, tmp_path):
        path = write(tmp_path, "gens a\neq\npow a x\nconst a' a' a'\n")
        code, out = run_cli(["--format", "machine", "solve", "--mode", "search", path])
        assert code == 0
        assert "witness=x=3" in out

    def test_unknown_exit(self, tmp_path):
        path = write(
            tmp_path, "gens a b\neq\npow a x\npow b y\npow a z\nconst a' a' b'\n"
        )
        code, _ = run_cli(["solve", path])
        assert code == 2

    def test_parse_error_exit(self, tmp_path):
        path = write(tmp_path, "gens a\nnonsense\n")
        code, _ = run_cli(["solve", path])
        assert code == 3


class TestVerifyCommand:
    def test_verify_good(self, tmp_path):
        path = write(tmp_path, "gens a\neq\npow a x\nconst a'\n")
        code, out = run_cli(["--format", "machine", "verify", "--assign", "x=1", path])
        assert code == 0
        assert "verified=true" in out

    def test_verify_bad(self, tmp_path):
        path = write(tmp_path, "gens a\neq\npow a x\nconst a'\n")
        code, _ = run_cli(["verify", "--assign", "x=2", path])
        assert code == 1

    def test_verify_resource(self, tmp_path):
        path = write(tmp_path, "gens a\neq\npow a x\n")
        code, _ = run_cli(["verify", "--assign", f"x={2**40}", "--cap", "1000", path])
        assert code == 2


    @pytest.mark.parametrize("assign", ["x=abc", "x", "x=-1"])
    def test_malformed_assign_exits_3(self, tmp_path, assign):
        path = write(tmp_path, "gens a\neq\npow a x\nconst a'\n")
        code, out = run_cli(["--format", "machine", "verify", "--assign", assign, path])
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize(
        "assign,named",
        [("y=1", "'x'"), ("x=2,x=4,y=1", "'x'"), ("x=1,y=1,y=1", "'y'")],
        ids=["missing", "repeated", "repeated-same-value"],
    )
    def test_incomplete_or_repeated_assign_exits_3(self, tmp_path, capsys, assign, named):
        """A variable missing from ``--assign``, or given twice, is a parse error naming it."""
        path = write(tmp_path, "gens a\neq\npow a x\npow a' y\n")
        code, out = run_cli(["--format", "machine", "verify", "--assign", assign, path])
        assert code == 3 and out == ""
        assert named in capsys.readouterr().err

    def test_library_verify_keeps_structure_error(self):
        from ggsolve.errors import StructureError
        from ggsolve.solver import verify

        e = build_equation(parse_instance("gens a\neq\npow a x\npow a' y\n"))
        with pytest.raises(StructureError, match="'x'"):
            verify(e, {"y": 1})

    def test_verify_identity_base_huge_exponent(self, tmp_path):
        """A power of the identity streams nothing, whatever its exponent."""
        path = write(tmp_path, "gens a b\neq\npow a a' x\npow b y\nconst b'\n")
        proc = subprocess.run(
            [sys.executable, "-m", "ggsolve.cli", "--format", "machine", "verify",
             "--assign", f"x={10**15},y=1", path],
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verified=true" in proc.stdout


class TestFailClosed:
    def test_dropped_letter_exits_4(self, tmp_path, monkeypatch):
        push = SignedPile.push

        def drop_last(pile, codes):
            push(pile, list(codes)[:-1])

        monkeypatch.setattr(SignedPile, "push", drop_last)
        path = write(tmp_path, "gens a b c\nindep a c\neq\npow a b a' x\nconst a b' b' a'\n")
        code, _ = run_cli(["--format", "machine", "verify", "--assign", "x=2", path])
        assert code == 4

    @pytest.mark.parametrize("name", ["pop_bottom", "pop_top"])
    def test_dropped_quotient_code_exits_4(self, tmp_path, monkeypatch, name):
        """A quotient that pops one code too few fails mult's factorization check."""
        pop = getattr(Pile, name)

        def drop_last(pile, codes):
            return pop(pile, tuple(codes)[:-1])

        monkeypatch.setattr(Pile, name, drop_last)
        dbl = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
        with pytest.raises(InternalError):
            mult(free_reduce(dbl, ("a", "b")), free_reduce(dbl, ("b'", "a'")))
        # a b is cyclically reduced, so only mult's check pops
        path = write(tmp_path, "gens a b c\nindep a c\neq\npow a b x\nconst b' a'\n")
        code, _ = run_cli(["--format", "machine", "verify", "--assign", "x=1", path])
        assert code == 4

    def test_dropped_stack_entry_exits_4(self, tmp_path, monkeypatch):
        """A stacked heap that loses the top piece of a column fails mult's check."""
        stack = Pile.stack

        def drop_top(pile, other):
            stack(pile, other)
            for col, head in zip(pile._cols, pile._heads):
                if len(col) > head and col[-1] != pile.alphabet._mask:
                    col.pop()
                    return

        monkeypatch.setattr(Pile, "stack", drop_top)
        dbl = DoubledAlphabet(IndependenceAlphabet("abc", [("a", "c")]))
        with pytest.raises(InternalError):
            mult(free_reduce(dbl, ("a", "b")), free_reduce(dbl, ("b'", "c")))
        path = write(tmp_path, "gens a b c\nindep a c\neq\npow a b x\nconst b' a'\n")
        code, _ = run_cli(["--format", "machine", "verify", "--assign", "x=1", path])
        assert code == 4


HNN_Z2 = "oracle B finite-cyclic 2 g\nhnn base B stable t\nassoc + _\nassoc - _\nphi _ -> _\n"
EXT_DINF = (
    "oracle G z a\nextension base G\ncosets 1 t\nonecoset 1\n"
    "coset 1 gen a -> a 1\ncoset 1 gen a' -> a' 1\ncoset 1 gen t -> t\ncoset 1 gen t' -> t\n"
    "coset t gen a -> a' t\ncoset t gen a' -> a t\ncoset t gen t -> 1\ncoset t gen t' -> 1\n"
)
HNN_Z4 = "oracle B finite-cyclic 4 g\nhnn base B stable t\n"
AMALGAM_Z4 = (
    "oracle L finite-cyclic 4 g\noracle R finite-cyclic 4 h\namalgam left L right R\n"
    "felem 1 z\nfid 1\nftable 1 1 -> 1\nftable 1 z -> z\nftable z 1 -> z\nftable z z -> 1\n"
    "fmap 1 left _ right _\n"
)
AMALGAM_Z4_TAIL = "fmap z left g g right h h\nitem g\ntarget _\n"


class TestMalformedInput:
    """Malformed files are parse errors (exit 3); no crash exits 1."""

    @pytest.mark.parametrize(
        "text",
        [
            HNN_Z2.replace("finite-cyclic 2 g", "finite-cyclic x g") + "item g\ntarget g\n",
            "oracle A finite-cyclic 2 g\noracle P product A\n"
            + HNN_Z2.replace("base B", "base P") + "item g\ntarget g\n",
            HNN_Z2 + "assoc + z\nitem g\ntarget g\n",
        ],
        ids=["finite-cyclic-order", "product-one-factor", "assoc-letter"],
    )
    def test_malformed_oracle_or_subgroup_exits_3(self, tmp_path, text):
        assert run_cli(["hnn", write(tmp_path, text)])[0] == 3

    @pytest.mark.parametrize(
        "command,text,where",
        [
            ("hnn", "oracle F free a a\n" + HNN_Z2.replace("base B", "base F") + "item a\ntarget a\n",
             "line 1: oracle F"),
            ("hnn", "oracle F free a'\n" + HNN_Z2.replace("base B", "base F") + "item a'\ntarget a'\n",
             "line 1: oracle F"),
            ("hnn", "oracle A finite-cyclic 2 g\noracle C finite-cyclic 3 g\noracle P product A C\n"
             + HNN_Z2.replace("base B", "base P") + "item g\ntarget g\n", "line 3: oracle P"),
            ("amalgam", AMALGAM_Z4.replace("finite-cyclic 4 h", "finite-cyclic 4 g")
             + "fmap z left g g right g g\nitem g\ntarget _\n", "line 3: amalgam block"),
        ],
        ids=["free-repeated-letter", "free-inverse-mark", "product-shared-letter",
             "amalgam-shared-letter"],
    )
    def test_oracle_that_fails_construction_exits_3(self, tmp_path, capsys, command, text, where):
        """An oracle or a pair of factors that cannot be built is a parse error on its line."""
        assert run_cli([command, write(tmp_path, text)])[0] == 3
        assert f"parse error: {where}:" in capsys.readouterr().err

    def test_order_one_cyclic_base(self, tmp_path):
        """Z/1 is a group: its generator is the identity."""
        text = HNN_Z2.replace("finite-cyclic 2", "finite-cyclic 1") + "item g t\ntarget t g\n"
        assert run_cli(["hnn", write(tmp_path, text)])[0] == 0

    @pytest.mark.parametrize(
        "command,text",
        [
            ("solve", "gens a\neq\npow a b x\n"),
            ("solve", "gens a\nknapsack\nitem a\ntarget b\n"),
            ("solve", "gens a b\nka\nstate s initial final\nedge s z s\ntarget _\n"),
            ("hnn", HNN_Z2 + "item t h\ntarget _\n"),
            ("amalgam", AMALGAM_Z4 + "fmap z left g g right h h\nitem q\ntarget _\n"),
            ("amalgam", AMALGAM_Z4 + "fmap z left h h right g g\nitem g\ntarget _\n"),
            ("finite-ext", EXT_DINF + "eqH\npow t q x\n"),
            ("finite-ext", EXT_DINF.replace("gen a -> a 1", "gen a -> q 1") + "eqH\npow t a x\n"),
        ],
        ids=["eq", "knapsack", "ka", "hnn", "amalgam", "amalgam-fmap", "eqH", "coset-g-word"],
    )
    def test_unknown_letter_exits_3(self, tmp_path, command, text):
        assert run_cli([command, write(tmp_path, text)])[0] == 3

    @pytest.mark.parametrize(
        "text,where",
        [
            ("gens a b\nindep a a\neq\npow a x\n", "line 2"),
            ("gens a b\nindep a z\neq\npow a x\n", "line 2: indep"),
            ("gens a a\neq\npow a x\n", "line 1"),
            ("gens a b'\neq\npow a x\n", "line 1"),
        ],
        ids=["indep-same-letter", "indep-unknown-letter", "gens-repeated", "gens-inverse-mark"],
    )
    def test_malformed_alphabet_exits_3(self, tmp_path, capsys, text, where):
        """A malformed alphabet block is a parse error on its line."""
        assert run_cli(["solve", write(tmp_path, text)])[0] == 3
        assert f"parse error: {where}" in capsys.readouterr().err

    def test_repeated_extension_variable_exits_3(self, tmp_path):
        """a^x a'^x a = a is never 1; read as two variables it would be solvable."""
        text = EXT_DINF + "eqH\npow a x\npow a' x\nconst a\n"
        assert run_cli(["finite-ext", write(tmp_path, text)])[0] == 3
        distinct = EXT_DINF + "eqH\npow a x\npow a' y\nconst a\n"
        assert run_cli(["finite-ext", write(tmp_path, distinct)])[0] == 0

    @pytest.mark.parametrize(
        "command,text,where",
        [
            ("finite-ext", EXT_DINF.replace("onecoset 1\n", "") + "eqH\npow t a x\n",
             "line 2: extension block"),
            ("finite-ext", EXT_DINF.replace("coset t gen t' -> 1\n", "") + "eqH\npow t a x\n",
             "line 2: extension block"),
            ("hnn", HNN_Z4 + "assoc + _\nassoc + g g\nassoc - _\nphi _ -> _\nitem t\ntarget t\n",
             "line 2: hnn block"),
            ("hnn", HNN_Z4.replace("stable t", "stable g")
             + "assoc + _\nassoc - _\nphi _ -> _\nitem g\ntarget g\n", "line 2: hnn block"),
            ("amalgam", AMALGAM_Z4 + "item g\ntarget _\n", "line 3: amalgam block"),
            ("amalgam", AMALGAM_Z4.replace("ftable z z -> 1\n", "") + AMALGAM_Z4_TAIL,
             "line 3: amalgam block"),
            ("amalgam", AMALGAM_Z4.replace("ftable z z -> 1", "ftable z z -> q") + AMALGAM_Z4_TAIL,
             "line 3: amalgam block"),
            ("amalgam", AMALGAM_Z4.replace("fid 1\n", "") + AMALGAM_Z4_TAIL, "line 3: amalgam block"),
            ("amalgam", AMALGAM_Z4.replace("fid 1", "fid q") + AMALGAM_Z4_TAIL, "line 3: amalgam block"),
            ("finite-ext", EXT_DINF.replace("gen t -> t", "gen t -> u") + "eqH\npow t a x\n",
             "line 2: extension block"),
        ],
        ids=[
            "no-onecoset", "table-misses-row", "phi-not-bijection", "stable-is-base", "fmap-missing",
            "ftable-missing", "ftable-outside-felem", "fid-missing", "fid-outside-felem",
            "coset-undeclared",
        ],
    )
    def test_invalid_presentation_exits_3(self, tmp_path, capsys, command, text, where):
        """A transfer presentation that fails validation is a parse error with its block's line."""
        assert run_cli([command, write(tmp_path, text)])[0] == 3
        assert f"parse error: {where}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,text,where",
        [
            ("hnn", "oracle P product P B\n" + HNN_Z2.replace("base B", "base P") + "item t\ntarget t\n",
             "line 1: product oracles form a cycle: P -> P"),
            ("hnn", "oracle P product B Q\noracle Q product P B\n"
             + HNN_Z2.replace("base B", "base P") + "item t\ntarget t\n",
             "line 1: product oracles form a cycle: P -> Q -> P"),
            ("solve", "gens a\neq\npow a x\nconst a\nknapsack\nitem a\ntarget a\n",
             "line 5: second problem block 'knapsack'"),
            ("solve", "gens a\nka\nstate p initial\nstate q initial final\nedge p a q\ntarget a\n",
             "line 4: second initial state 'q'"),
            ("finite-ext", EXT_DINF.replace("cosets 1 t\n", "cosets 1 t\ncosets t\n") + "eqH\npow t a x\n",
             "line 4: coset 't' listed twice"),
            ("solve", "gens a\nknapsack\nitem a\ntarget a a\ntarget a\n", "line 5: second target line"),
            ("finite-ext", EXT_DINF.replace("onecoset 1\n", "onecoset 1\nonecoset t\n") + "eqH\npow t a x\n",
             "line 5: second onecoset line"),
            ("amalgam", AMALGAM_Z4.replace("fid 1\n", "fid 1\nfid z\n") + AMALGAM_Z4_TAIL,
             "line 6: second fid line"),
            ("finite-ext", "oracle G z b\n" + EXT_DINF + "eqH\npow t a x\n",
             "line 2: oracle 'G' defined twice"),
            ("finite-ext", EXT_DINF.replace("base G", "base X") + "eqH\npow t a x\n",
             "line 2: unknown oracle 'X'"),
            ("finite-ext", "oracle P product G X\n" + EXT_DINF.replace("base G", "base P")
             + "eqH\npow t a x\n", "line 1: unknown oracle 'X'"),
            ("solve", "gens a\nslp S\nrule S -> a a\nrule S -> a\neq\npow a' x\nconstS S\n",
             "line 4: second rule for 'S' in slp 'S'"),
            ("finite-ext", EXT_DINF.replace("gen a -> a 1\n", "gen a -> a 1\ncoset 1 gen a -> a' 1\n")
             + "eqH\npow t a x\n", "line 6: second coset row for '1' gen 'a'"),
            ("solve", "gens a\nka\nstate\ntarget _\n", "line 3: state syntax: state <id>"),
            ("solve", "gens a\neq\npow a x\nconstS\n", "line 4: constS syntax: constS <slp>"),
            ("finite-ext", EXT_DINF.replace("onecoset 1\n", "onecoset\n") + "eqH\npow t a x\n",
             "line 4: onecoset syntax: onecoset <coset>"),
            ("amalgam", AMALGAM_Z4.replace("fid 1\n", "fid\n") + AMALGAM_Z4_TAIL,
             "line 5: fid syntax: fid <felem>"),
            ("hnn", HNN_Z2.replace("assoc + _", "assoc") + "item t\ntarget t\n",
             "line 3: assoc takes + or -"),
            ("solve", "gens a\nka\nstate s initial fnal\nedge s a s\ntarget a\n",
             "line 3: state syntax: state <id> [initial] [final]"),
            ("solve", "gens a\nka\nstate s initial final\nstate s\nedge s a s\ntarget a\n",
             "line 4: state 's' declared twice"),
            ("amalgam", AMALGAM_Z4.replace("ftable 1 1 -> 1", "ftable 1 1 -> z\nftable 1 1 -> 1")
             + AMALGAM_Z4_TAIL, "line 7: second ftable row for '1' '1'"),
            ("amalgam", AMALGAM_Z4 + "fmap z left g g right h h\nfmap z left g right h\n"
             + "item g\ntarget _\n", "line 12: second fmap row for 'z'"),
            ("amalgam", AMALGAM_Z4.replace("felem 1 z", "felem 1 z 1") + AMALGAM_Z4_TAIL,
             "line 4: felem '1' listed twice"),
            ("hnn", HNN_Z2.replace("finite-cyclic 2 g", "z g h") + "item g\ntarget g\n",
             "line 1: oracle syntax: oracle <name> z [<gen>]"),
            ("hnn", HNN_Z2.replace("finite-cyclic 2 g", "finite-cyclic 2 g h") + "item g\ntarget g\n",
             "line 1: oracle syntax: oracle <name> finite-cyclic <n> [<gen>]"),
            ("hnn", "gens a\noracle O graph junk\n" + HNN_Z2.replace("base B", "base O")
             + "item t\ntarget t\n", "line 2: oracle syntax: oracle <name> graph"),
            ("finite-ext", EXT_DINF + "eqH\npow t a x\neqH\n", "line 15: second eqH line"),
            ("solve", "# expect-exit 0\ngens a\n# expect-exit 1\neq\npow a x\nconst a'\n",
             "line 3: second expect-exit directive"),
            ("solve", "gens a # mode exact\neq\npow a x\nconst a' # mode search\n",
             "line 4: second mode directive"),
            ("hnn", "oracle B finite-cyclic 2 g\nhnn base B stable t\nassoc + _\nassoc + g\n"
             "assoc - _\nphi _ -> _\nphi g -> _\nitem t g t'\ntarget _\n", "line 2: hnn block"),
        ],
        ids=["product-cycle", "product-cycle-through-another", "second-problem-block",
             "second-initial-state", "coset-repeated", "second-target", "second-onecoset",
             "second-fid", "oracle-repeated", "unknown-oracle-in-block",
             "unknown-oracle-in-product", "second-rule", "second-coset-row", "state-bare",
             "constS-bare", "onecoset-bare", "fid-bare", "assoc-bare", "state-flag-typo",
             "state-repeated", "second-ftable-row", "second-fmap-row", "felem-repeated",
             "z-extra-argument", "finite-cyclic-extra-argument", "graph-extra-argument",
             "second-eqH", "second-expect-exit", "second-mode", "phi-not-injective"],
    )
    def test_malformed_block_exits_3(self, tmp_path, capsys, command, text, where):
        """An oracle that is its own factor, a second problem block, a second initial
        state, a coset listed twice, a second target, onecoset, fid or eqH line, an
        oracle name defined twice, a second rule for one SLP variable, a second
        coset row for one coset and generator, a state, an F element, an ftable row
        or an fmap row given twice are parse errors on their line, not a crash or a
        silent choice; so is a head or an oracle kind with too few or too many
        arguments, with its syntax.  An unknown oracle is one on the line that
        names it.  A second ``# expect-exit`` or ``# mode`` comment is an error on
        its line too.  So is an hnn block whose phi sends both elements of Z/2 to 1
        (it was answered solvable, though t g t' is not 1)."""
        assert run_cli([command, write(tmp_path, text)])[0] == 3
        assert f"parse error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edges",
        ["edge s a u\n", "edge s a s\nedge s b s\n"],
        ids=["undeclared-state", "not-knapsack"],
    )
    def test_malformed_ka_block_exits_3(self, tmp_path, capsys, edges):
        """A ka block is certified where it is parsed: a FormatError with its line."""
        from ggsolve.formats import build_ka

        text = "gens a b\nka\nstate s initial final\n" + edges + "target _\n"
        with pytest.raises(FormatError) as info:
            build_ka(parse_instance(text))
        assert info.value.line == 2
        assert run_cli(["solve", write(tmp_path, text)])[0] == 3
        assert "line 2: ka block" in capsys.readouterr().err

    def test_ka_block_comes_out_trimmed(self):
        """A dead branch of a ka block is cut where the block is parsed."""
        from ggsolve.formats import build_ka

        text = "gens a b\nka\nstate s initial final\nstate d\nedge s a s\nedge s b d\ntarget _\n"
        nfa, target = build_ka(parse_instance(text))
        assert nfa.states == ("s",) and target == ()

    def test_unexpected_exception_exits_4(self, tmp_path, monkeypatch, capsys):
        import ggsolve.cli as cli

        def broken(*args):
            raise ValueError("broken runner")

        monkeypatch.setattr(cli, "run", broken)
        path = write(tmp_path, "gens a\neq\npow a x\nconst a'\n")
        assert run_cli(["solve", path])[0] == 4
        assert "internal error: ValueError: broken runner" in capsys.readouterr().err

    def test_wrong_exact_witness_exits_4(self, tmp_path, monkeypatch):
        """solve_exact verifies its witness before it reports solvable."""
        from ggsolve.semilinear import LinearSet, SemilinearSet
        from ggsolve.solver import exact

        monkeypatch.setattr(
            exact, "two_power_solutions", lambda *a: SemilinearSet(2, [LinearSet((5, 0))])
        )
        path = write(tmp_path, "gens a b\neq\npow a x\npow b y\nconst b' a'\n")
        assert run_cli(["solve", path])[0] == 4


class TestAmalgamCommand:
    @pytest.mark.parametrize(
        "items",
        ["item g\nitem h\ntarget _\n", "item g\ntarget h h\n", "item g\ntarget h\n",
         "item g h\ntarget h' g h g h\n"],
        ids=["corpus-19", "target-in-f", "target-outside", "mixed-base"],
    )
    def test_amalgam_factor_letter_t(self, tmp_path, items):
        """A factor generator named t answers as the same file with it renamed: the
        stable letter of the HNN embedding avoids the factors' letters."""
        text = AMALGAM_Z4 + "fmap z left g g right h h\n" + items
        renamed = re.sub(r"\bg\b", "t", text)
        assert "finite-cyclic 4 t" in renamed
        answer = run_cli(["amalgam", write(tmp_path, text, "g.gg")])
        assert run_cli(["amalgam", write(tmp_path, renamed, "t.gg")]) == answer


class TestOptimizedInterpreter:
    def test_checks_hold_under_O(self):
        """The internal checks raise explicitly, so they survive ``python -O``."""
        tests = [
            "tests/test_cli.py::TestFailClosed",
            "tests/test_cli.py::TestFailClosed::test_dropped_stack_entry_exits_4",
            "tests/test_saturation.py::TestHnnSaturate",
            "tests/test_saturation.py::TestHnnPresentationValidation",
            "tests/test_amalgam.py::TestPresentation",
            "tests/test_saturation.py::TestFailClosed",
            "tests/test_saturation.py::TestReaches",
            "tests/test_cli.py::TestVerifyCommand::test_malformed_assign_exits_3",
            "tests/test_groups.py::TestMult",
            "tests/test_groups.py::TestConjugatePower",
            "tests/test_codes.py::TestCodeKernels",
            "tests/test_solver.py::TestVerify::test_simple",
            "tests/test_solver.py::TestVerify::test_resource_exceeded",
            "tests/test_solver.py::TestVerify::test_compressed_analogue",
            "tests/test_exact.py::TestInternalChecks",
            "tests/test_exact.py::TestTwoPowers::test_free_knapsack",
            "tests/test_semilinear.py::TestTwoPower::test_double_speed",
            "tests/test_automata.py::TestUnaryProgressions::test_odd",
            "tests/test_automata.py::TestConcatClosure",
            "tests/test_automata.py::TestGatedProduct::test_requires_memorizing",
            "tests/test_automata.py::TestGatedProduct::test_mixed_alphabets",
            "tests/test_finite_ext.py::TestZKnapsack",
            "tests/test_finite_ext.py::TestOrbitWalk",
            "tests/test_finite_ext.py::TestFailClosed",
        ]
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT,
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert " passed" in proc.stdout and "failed" not in proc.stdout


class TestBoundCommand:
    def test_heuristic_label(self, tmp_path):
        path = write(tmp_path, "gens a\neq\npow a x\nconst a'\n")
        code, out = run_cli(["--format", "machine", "bound", path])
        assert code == 0
        assert "HEURISTIC" in out


class TestGraphOracle:
    """A transfer block over ``oracle G graph``: the HNN-extension of the free
    group on a, b with trivial associated subgroups asks the exponent solver."""

    HNN_FREE2 = (
        "gens a b\noracle G graph\nhnn base G stable t\n"
        "assoc + _\nassoc - _\nphi _ -> _\n"
    )

    def run_counted(self, tmp_path, text, monkeypatch):
        """run_cli on ``text``, with the number of questions the graph oracle answered."""
        from ggsolve.transfer import GraphGroupOracle

        answered = []
        member = GraphGroupOracle._member_impl

        def counted(self, nfa, target_word):
            answered.append(target_word)
            return member(self, nfa, target_word)

        monkeypatch.setattr(GraphGroupOracle, "_member_impl", counted)
        code, out = run_cli(["hnn", write(tmp_path, text)])
        return code, out, len(answered)

    def test_solvable(self, tmp_path, monkeypatch):
        # a^15 b^1 a^1
        text = self.HNN_FREE2 + "item a\nitem b\nitem a\ntarget " + "a " * 15 + "b a\n"
        code, out, asked = self.run_counted(tmp_path, text, monkeypatch)
        assert (code, out) == (0, "status: solvable\n")
        assert asked > 0

    def test_unsolvable(self, tmp_path, monkeypatch):
        # a^x b^y = b a has no solution: a and b do not commute
        text = self.HNN_FREE2 + "item a\nitem b\ntarget b a\n"
        code, out, asked = self.run_counted(tmp_path, text, monkeypatch)
        assert (code, out) == (1, "status: unsolvable\n")
        assert asked > 0

    @pytest.mark.parametrize("flags, cap", [([], 15), (["--cap", "7"], 7)])
    def test_search_depth_is_the_cap(self, tmp_path, monkeypatch, flags, cap):
        """The graph oracle of a transfer block searches to ``--cap``, as a ka block does."""
        from ggsolve.transfer import GraphGroupOracle

        caps = []
        member = GraphGroupOracle._member_impl

        def recorded(self, nfa, target_word):
            caps.append(self.search_cap)
            return member(self, nfa, target_word)

        monkeypatch.setattr(GraphGroupOracle, "_member_impl", recorded)
        path = write(tmp_path, self.HNN_FREE2 + "item a\nitem b\ntarget b a\n")
        assert run_cli(["hnn", *flags, path]) == (1, "status: unsolvable\n")
        assert caps and set(caps) == {cap}


class TestEnvCap:
    """The cap comes from ``--cap`` alone; the environment does not set it."""

    def test_negative_cap_flag_is_a_parse_error(self, capsys):
        code, _ = run_cli(["solve", "--cap", "-1", os.path.join(CORPUS, "01_z_double.gg")])
        err = capsys.readouterr().err
        assert code == 3
        assert "--cap" in err and "Traceback" not in err


class TestProcess:
    CALLS = [
        ["solve", os.path.join(CORPUS, "01_z_double.gg")],
        ["--format", "machine", "hnn", os.path.join(CORPUS, "18_hnn_z2z.gg")],
        ["solve", "--bogus", os.path.join(CORPUS, "01_z_double.gg")],
        ["--format", "machine", "amalgam", os.path.join(CORPUS, "19_amalgam_z4.gg")],
        ["bound", os.path.join(CORPUS, "13_knapsack_block.gg")],
        ["--format", "machine", "verify", "--assign", "x=0,y=0",
         os.path.join(CORPUS, "01_z_double.gg")],
        ["solve", os.path.join(CORPUS, "no-such-file.gg")],
        ["--format", "machine", "solve", "--mode", "search",
         os.path.join(CORPUS, "02_z_singleton.gg")],
    ]

    def test_main_called_again_prints_what_fresh_calls_print(self):
        """One process, one parser: later calls print what fresh processes print."""
        import contextlib

        import ggsolve.cli as cli

        assert cli.make_parser() is cli.make_parser()
        for argv in self.CALLS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            fresh = subprocess.run(
                [sys.executable, "-m", "ggsolve.cli", *argv],
                cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
            )
            assert (code, out.getvalue()) == (fresh.returncode, fresh.stdout), argv
            if code == 3 and not out.getvalue():  # an argparse error
                assert err.getvalue() == fresh.stderr

    def test_usage_errors_exit_3(self):
        """A mistyped call is a parse error (3), never "unknown" (2); help exits 0."""
        calls = [
            (["solve", "--bogus", "corpus/01_z_double.gg"], "unrecognized arguments: --bogus"),
            (["solve", "corpus/nope.gg"], "argument file: can't open 'corpus/nope.gg'"),
            (["gen-mihailova", "--sigma", "a", "--word", "a", "--rounds", "x"],
             "argument --rounds: invalid int value: 'x'"),
        ]
        for argv, message in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "ggsolve.cli", *argv],
                cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 3, argv
            assert proc.stdout == ""
            assert proc.stderr.startswith("usage: ggsolve")
            assert f"error: {message}" in proc.stderr
        for argv in (["--help"], ["solve", "--help"]):
            proc = subprocess.run(
                [sys.executable, "-m", "ggsolve.cli", *argv],
                cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0 and proc.stdout.startswith("usage: ggsolve")

    def test_stdin_stays_open(self, monkeypatch):
        """``-`` reads standard input, which is not closed after the call."""
        text = open(os.path.join(CORPUS, "01_z_double.gg")).read()
        for _ in range(2):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert run_cli(["solve", "-"])[0] == 0
            assert not sys.stdin.closed

    def test_instance_files_are_closed(self):
        """No command leaves its instance file open (``-X dev`` reports it)."""
        script = (
            "import sys\n"
            "from ggsolve.cli import main\n"
            "calls = [\n"
            "    ['solve', 'corpus/01_z_double.gg'],\n"
            "    ['verify', '--assign', 'x=0,y=0', 'corpus/01_z_double.gg'],\n"
            "    ['bound', 'corpus/13_knapsack_block.gg'],\n"
            "    ['hnn', 'corpus/18_hnn_z2z.gg'],\n"
            "    ['amalgam', 'corpus/19_amalgam_z4.gg'],\n"
            "    ['hnn', 'corpus/19_amalgam_z4.gg'],\n"
            "]\n"
            "print([main(argv) for argv in calls], file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
            cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr
        assert proc.stderr.rstrip().endswith("[0, 0, 0, 0, 0, 3]"), proc.stderr


class TestMihailova:
    def test_generator_set(self):
        d = mihailova_generators(("a",), [("a",)])
        assert len(d) == 4
        assert ("aL",) in d and ("aL'",) in d
        assert ("aL", "aR") in d and ("aL'", "aR'") in d

    def test_empty_word_trivial(self, tmp_path):
        text = gen_mihailova(("a",), [("a",)], (), 1)
        inst = parse_instance(text)
        from ggsolve.solver import solve_search

        e = build_equation(inst)
        rep = solve_search(e, cap=2)
        assert rep.status == "solvable"

    def test_commutator_relator(self, tmp_path):
        # Sigma = {a, b}, R = {aba'b'}, w = aba'b': solvable within cap 1
        relator = ("a", "b", "a'", "b'")
        text = gen_mihailova(("a", "b"), [relator], relator, 1)
        inst = parse_instance(text)
        e = build_equation(inst)
        from ggsolve.solver import solve_search

        rep = solve_search(e, cap=1)
        assert rep.status == "solvable"

    def test_cli_generation(self):
        code, out = run_cli(
            [
                "gen-mihailova",
                "--sigma",
                "a",
                "--relators",
                "a",
                "--word",
                "a",
                "--rounds",
                "1",
            ]
        )
        assert code == 0
        inst = parse_instance(out)
        assert isinstance(inst.problem, EqProblem)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--sigma", "a,,b", "--word", "a"], "--sigma: '' is not a generator name"),
            (["--sigma", "a,a b", "--word", "a"], "--sigma: 'a b' is not a generator name"),
            (["--sigma", "a,b#", "--word", "a"], "--sigma: 'b#' is not a generator name"),
            (["--sigma", "a,b'", "--word", "a"], "--sigma: \"b'\" is not a generator name"),
            (["--sigma", "a,b,a", "--word", "a"], "--sigma: generator 'a' given twice"),
            (["--sigma", "a", "--word", "c"], "--word: letter 'c' is not in --sigma"),
            (["--sigma", "a", "--word", "a''"], "--word: letter \"a''\" is not in --sigma"),
            (["--sigma", "a,b", "--relators", "a b,c'", "--word", "_"],
             "--relators: letter \"c'\" is not in --sigma"),
            (["--sigma", "a", "--word", "a", "--rounds", "-1"],
             "--rounds takes a natural number, not -1"),
        ],
        ids=["empty", "space", "hash", "mark", "twice", "word", "word-mark", "relator", "rounds"],
    )
    def test_bad_arguments_exit_3(self, args, message, capsys):
        """A bad argument stops generation with its name, before any instance
        is written that would parse into another question or not at all."""
        code, out = run_cli(["gen-mihailova", *args])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_zero_rounds_is_valid(self):
        code, out = run_cli(["gen-mihailova", "--sigma", "a,b", "--word", "a b'", "--rounds", "0"])
        assert code == 0
        e = build_equation(parse_instance(out))
        assert e.vars == () and len(e.items) == 1

    def test_roundtrip_parse(self):
        text = gen_mihailova(("a", "b"), [("a", "b", "a'", "b'")], ("a",), 2)
        inst = parse_instance(text)
        e = build_equation(inst)
        assert len(e.vars) == 2 * (2 * 1 + 2 * 2)  # rounds * |D|


class TestGoldenCorpus:
    def test_exit_code_contract(self):
        paths = sorted(glob.glob(os.path.join(CORPUS, "*.gg")))
        assert len(paths) == 20
        for path in paths:
            inst = parse_instance(open(path).read())
            mode = ["--mode", inst.mode_hint] if inst.mode_hint else []
            argv = [inst.problem.command, *mode, path]
            code, _ = run_cli(["--format", "machine"] + argv)
            assert code == inst.expect_exit, path

    # exit codes per command: solve, verify (no --assign), bound, finite-ext, hnn, amalgam
    MATRIX = {
        "01_z_double.gg": (0, 3, 0, 3, 3, 3),
        "13_knapsack_block.gg": (0, 3, 0, 3, 3, 3),
        "15_ka_member.gg": (0, 3, 3, 3, 3, 3),
        "17_extension_dinf.gg": (3, 3, 3, 0, 3, 3),
        "18_hnn_z2z.gg": (3, 3, 3, 3, 0, 3),
        "19_amalgam_z4.gg": (3, 3, 3, 3, 3, 0),
    }

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_command_matrix(self, name):
        """A block answers only its own command; others exit 3, as does verify without --assign."""
        path = os.path.join(CORPUS, name)
        commands = ("solve", "verify", "bound", "finite-ext", "hnn", "amalgam")
        codes = tuple(run_cli(["--format", "machine", c, path])[0] for c in commands)
        assert codes == self.MATRIX[name]

    def test_bench_parses_each_file_once(self, monkeypatch):
        import ggsolve.cli as cli

        calls = []
        parse = cli.parse_instance

        def counting(*args, **kwargs):
            calls.append(1)
            return parse(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_instance", counting)
        code, _ = run_cli(["--format", "machine", "bench", CORPUS])
        assert code == 0
        assert len(calls) == 20

    def test_unknown_mode_is_a_parse_error(self, tmp_path):
        body = "gens a b\neq\npow a x\npow b y\npow a z\nconst b\n"
        path = write(tmp_path, "# expect-exit 1\n# mode exact\n" + body, "exact.gg")
        assert run_cli(["solve", path])[0] == 1
        path = write(tmp_path, "# expect-exit 1\n# mode bogus\n" + body, "bogus.gg")
        assert run_cli(["solve", path])[0] == 3
        os.remove(tmp_path / "exact.gg")
        code, out = run_cli(["--format", "machine", "bench", str(tmp_path)])
        assert code == 4
        assert "bogus.gg=exit=3 " in out and "expected=unreadable" in out

    def test_bench_without_instances_exits_3(self, tmp_path, capsys):
        """A mistyped or empty corpus directory is a parse error, not a pass."""
        write(tmp_path, "gens a\n", "notes.txt")
        missing = str(tmp_path / "missing")
        cases = ((missing, "is not a directory"), (str(tmp_path), "holds no *.gg files"))
        for path, problem in cases:
            code, out = run_cli(["--format", "machine", "bench", path])
            assert (code, out) == (3, "")
            assert capsys.readouterr().err == f"parse error: bench: {path!r} {problem}\n"

    def test_bench_directory_name_is_not_a_pattern(self, tmp_path):
        corpus = tmp_path / "corpus[1]"
        corpus.mkdir()
        shutil.copy(os.path.join(CORPUS, "01_z_double.gg"), corpus)
        code, out = run_cli(["--format", "machine", "bench", str(corpus)])
        assert code == 0 and out.startswith("01_z_double.gg=exit=0 ")

    def test_bench_runs(self):
        code, out = run_cli(["--format", "machine", "bench", CORPUS])
        assert code == 0
        assert out.count("exit=") == 20

    def test_bench_gates_on_expect_exit(self, tmp_path):
        text = open(os.path.join(CORPUS, "01_z_double.gg")).read()
        assert text.startswith("# expect-exit 0\n")
        write(tmp_path, text.replace("# expect-exit 0", "# expect-exit 1", 1), "01.gg")
        shutil.copy(os.path.join(CORPUS, "02_z_singleton.gg"), tmp_path / "02.gg")
        code, out = run_cli(["--format", "machine", "bench", str(tmp_path)])
        assert code == 4
        assert "01.gg=exit=0 " in out and "expected=1" in out
        assert out.count("expected=") == 1

    def test_bench_counts_parse_failures(self, tmp_path):
        write(tmp_path, "# expect-exit 0\ngens a\nnonsense\n", "bad.gg")
        write(tmp_path, "# expect-exit\ngens a\neq\npow a x\nconst a'\n", "nocode.gg")
        write(tmp_path, "# expect-exit 3\ngens a\nnonsense\n", "ok.gg")
        code, out = run_cli(["--format", "machine", "bench", str(tmp_path)])
        assert code == 4
        assert "bad.gg=exit=3 " in out and "expected=0" in out
        assert "nocode.gg=exit=3 " in out and "expected=unreadable" in out
        assert out.count("expected=") == 2

    def test_bench_maps_cap_like_main(self, tmp_path):
        """A cap that stops a file exits 2 in bench exactly as in solve."""
        text = open(os.path.join(CORPUS, "11_compressed_const.gg")).read()
        path = write(tmp_path, text.replace("# expect-exit 0", "# expect-exit 2", 1), "11.gg")
        code, _ = run_cli(["solve", "--cap", "3", path])
        assert code == 2
        code, out = run_cli(["--format", "machine", "bench", "--cap", "3", str(tmp_path)])
        assert code == 0
        assert "11.gg=exit=2 " in out and "expected=" not in out


class TestRoundTrip:
    def test_parse_print_parse_corpus(self):
        """parse(print(instance)) is the instance, corpus-wide."""
        from ggsolve.formats import format_instance

        paths = sorted(glob.glob(os.path.join(CORPUS, "*.gg")))
        assert len(paths) == 20
        for path in paths:
            inst = parse_instance(open(path).read())
            text = format_instance(inst)
            inst2 = parse_instance(text)
            assert inst2 == inst, path
            # printing is idempotent
            assert format_instance(inst2) == text, path
