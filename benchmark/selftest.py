#!/usr/bin/env python3
"""Self-test of the benchmark's checks: wrong outputs must count as failed.

    python3 benchmark/selftest.py

Runs a few generated instances of every workload through ggsolve, requires
that the checks accept every real output, then feeds the same judge that
``run.py`` uses corrupted outputs (a flipped verdict, a corrupted witness, a
missing solution-set component, an ``unknown`` answer) and requires that
each one is counted as failed.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import shutil
import sys

import run

PER_WORKLOAD = 6


def flip_verdict(code: int, text: str):
    swap = {"solvable": "unsolvable", "unsolvable": "solvable", "true": "false",
            "false": "true"}
    lines = []
    for line in text.splitlines():
        key, _, value = line.partition("=")
        lines.append(f"{key}={swap.get(value, value)}" if key in ("status", "verified") else line)
    return 1 - code, "\n".join(lines) + "\n"


def corrupt_witness(code: int, text: str):
    lines = []
    for line in text.splitlines():
        if line.startswith("witness="):
            pairs = [p.split("=") for p in line[len("witness="):].split(";")]
            line = "witness=" + ";".join(f"{k}={int(v) + 1}" for k, v in pairs)
        lines.append(line)
    return code, "\n".join(lines) + "\n"


def drop_component(code: int, text: str):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("solset=lin"):
            del lines[i]
            break
    return code, "\n".join(lines) + "\n"


def base_in_box(inst: dict, text: str) -> bool:
    """The first component's base lies in the brute-force box, so dropping it shows."""
    import checks

    comps = checks.parse_solset(checks.parse_machine(text).get("solset", []))
    return bool(comps) and max(comps[0][0], default=0) <= inst["expect"]["box"]


def unknown(code: int, text: str):
    return 2, "status=unknown\n"


def main() -> int:
    cli = run.import_program()
    import gen
    import checks

    problems = []

    # the own word problem on fixed facts
    graph = checks.Graph("abc", [("a", "c")])
    if graph.reduce(["a", "c", "a'"]) != ["c"] or graph.reduce(["a", "b", "a'"]) != ["a", "b", "a'"]:
        problems.append("own word problem gives a wrong normal form")

    records = []
    for workload in sorted(run.WORKLOADS):
        for inst in gen.generate(workload, 1, 0)[:PER_WORKLOAD]:
            path = run.OUT / "selftest" / f"{inst['name']}.gg"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(inst["text"])
            inst["argv"] = ["--format", "machine"] + inst["args"] + [str(path)]
            code, text, _ = run.run_op(cli.main, inst)
            records.append((inst, code, text))
    shutil.rmtree(run.OUT / "selftest", ignore_errors=True)
    verdict = run.judge(records)
    if verdict["failed"]:
        problems.append(f"real outputs rejected: {verdict['reasons']}")

    corruptions = [("flipped verdict", flip_verdict, lambda inst, text: True),
                   ("corrupted witness", corrupt_witness,
                    lambda inst, text: "witness=" in text and "trivial" not in text),
                   ("dropped solution-set component", drop_component, base_in_box),
                   ("unknown answer", unknown, lambda inst, text: True)]
    for label, corrupt, applies in corruptions:
        bad = [(inst, *corrupt(code, text)) for inst, code, text in records
               if applies(inst, text)]
        if not bad:
            problems.append(f"no output to test the {label} on")
            continue
        verdict = run.judge(bad)
        if verdict["failed"] != len(bad):
            problems.append(f"{label}: {len(bad) - verdict['failed']} of {len(bad)} not counted as failed")
        expect_wrong = 0 if label == "unknown answer" else len(bad)
        if verdict["wrong"] != expect_wrong:
            problems.append(f"{label}: {verdict['wrong']} counted as wrong answers, expected {expect_wrong}")
        print(f"selftest: {label}: {verdict['failed']} of {len(bad)} counted as failed")

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    if not problems:
        print("selftest: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
