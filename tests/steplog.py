"""Step log: the questions the oracles are asked during one ggsolve call.

    PYTHONPATH=src python tests/steplog.py amalgam corpus/19_amalgam_z4.gg

``record(log)`` wraps ``GroupOracle.ka_membership`` so that every question,
also those an oracle asks its factors, appends one line to ``log``: the
automaton's states, its transitions sorted by ``repr``, its initial state,
its sorted finals and the target.  Run as a script, it answers the command
line as ``ggsolve`` does, prints the log and then the exit code.  Two runs
of one call print the same lines exactly when the saturations took the same
steps in the same order.
"""

from __future__ import annotations

import contextlib
import io
import sys

from ggsolve.transfer.oracles import GroupOracle


def question(nfa, target) -> str:
    """One log line for the question "does ``nfa`` accept ``target``?"."""
    return repr((
        nfa.states,
        sorted(nfa.transitions, key=repr),
        nfa.initial,
        sorted(nfa.finals, key=repr),
        tuple(target),
    ))


@contextlib.contextmanager
def record(log: list):
    """Within the block, every ``ka_membership`` call appends its line to ``log``."""
    original = GroupOracle.ka_membership

    def logged(self, nfa, target_word):
        log.append(question(nfa, target_word))
        return original(self, nfa, target_word)

    GroupOracle.ka_membership = logged
    try:
        yield log
    finally:
        GroupOracle.ka_membership = original


def main(argv) -> int:
    from ggsolve.cli import main as ggsolve

    log: list = []
    with record(log), contextlib.redirect_stdout(io.StringIO()):
        code = ggsolve(argv)
    for line in log:
        print(line)
    print(f"exit={code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
