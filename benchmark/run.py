#!/usr/bin/env python3
"""The ggsolve benchmark: one closed-loop client calling the CLI in process.

    python3 benchmark/run.py --workload exact-2pow --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; ggsolve is imported from ``src/``.
The command first times ``SETUP_SAMPLES`` set-ups in fresh interpreters
(interpreter start, imports, generating and writing the first round's
instance files) and reports their median as ``setup_s``.  It then runs the
workload in one more interpreter: whole rounds of fresh instances, round 0,
1, 2, ... of the seed, until ``--seconds`` have passed.  Every operation is
``ggsolve.cli.main([...])`` on a generated instance file, timed on its own
and scaled to a fixed host speed (see ``CAL_REF_S``); each round's outputs are checked by the benchmark's own computations (see
``checks.py``) after the round, outside the timed calls.  The last line of
standard output is one JSON object with the result.

``--trace 1`` prints the per-layer metrics instead: every operation runs
untraced and then traced (see ``layers.py``); times are per operation over
every traced round, counts per operation over the workload's first cycle of
rounds, and the tracing overhead is the traced minus the untraced wall time
per operation.

Both interpreters get ``PYTHONHASHSEED`` from ``--seed``, so set iteration
order, and with it the program's work, repeats for a fixed seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".ggbench"

# tail: the percentile behind latency_tail_ms, the highest of
# 50/75/90/95/99 that leaves at least ten calls beyond it in every run on the
# reference machine (see README.md).  cycle: rounds after which the
# generator's mix repeats; the traced run takes its counts over one cycle.
WORKLOADS = {
    "exact-2pow": {"tail": 95, "cycle": 1},
    "transfer": {"tail": 99, "cycle": 16},
    "verify-pow": {"tail": 90, "cycle": 1},
}
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole command ends within this many seconds

# The host's speed swings by up to 2x over seconds to minutes, far beyond the
# bounds (README.md), so the time metrics are scaled to a fixed host speed:
# every CAL_EVERY_S of calls a fixed pure-Python loop is timed, and each call
# is multiplied by CAL_REF_S over the mean of the loop's times just before
# and just after it.  CAL_REF_S is the loop's median time on the reference
# machine, so scaled times read as that machine's times at its median speed.
CAL_LOOPS = 20000
CAL_REF_S = 0.0100
CAL_EVERY_S = 0.25


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


# -- set-up (runs in the timed interpreters and in the measuring one) ------------


def import_program():
    """Import ggsolve from this checkout's src/ and nothing else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ggsolve.cli
    import ggsolve.solver  # noqa: F401  (the CLI imports these lazily)
    import ggsolve.transfer  # noqa: F401

    if Path(ggsolve.__file__).resolve().parent != SRC / "ggsolve":
        raise ImportError(f"ggsolve imported from {ggsolve.__file__}, not {SRC}")
    return ggsolve.cli


def make_round(workload: str, seed: int, r: int, directory: Path) -> list:
    """Generate round ``r`` and write its instance files."""
    import gen

    round_ = gen.generate(workload, seed, r)
    for inst in round_:
        inst["path"] = directory / f"r{r:04d}-{inst['name']}.gg"
        inst["argv"] = ["--format", "machine"] + inst["args"] + [str(inst["path"])]
        inst["path"].write_text(inst["text"])
    return round_


def setup(workload: str, seed: int, directory: Path) -> list:
    """Everything the first timed operation needs: the first round's files."""
    directory.mkdir(parents=True, exist_ok=True)
    return make_round(workload, seed, 0, directory)


def rounds(workload: str, seed: int, directory: Path, first: list):
    """Round 0 (made at set-up), then rounds 1, 2, ... made on demand.

    A round's files are removed once it has run.  Generating, writing and
    removing happen between rounds, outside the timed calls.
    """
    r, round_ = 0, first
    while True:
        yield round_
        for inst in round_:
            inst["path"].unlink()
        r += 1
        round_ = make_round(workload, seed, r, directory)


# -- measuring --------------------------------------------------------------------


def calibrate() -> float:
    """Seconds that a fixed loop of dict, set and tuple work takes now."""
    start = perf_counter()
    table, seen = {}, set()
    for i in range(CAL_LOOPS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        seen.add(key[0] * key[1])
    return perf_counter() - start


class Scaled:
    """Call times scaled to the reference speed by the loops around them."""

    def __init__(self):
        self.times: list = []
        self.raw: list = []
        self.pending: list = []
        self.loops: list = []
        self.before = calibrate()
        self.since = perf_counter()

    def add(self, elapsed: float) -> None:
        self.pending.append(elapsed)
        if perf_counter() - self.since >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = calibrate()
        self.loops.append(after)
        factor = CAL_REF_S / ((self.before + after) / 2)
        self.times.extend(e * factor for e in self.pending)
        self.raw.extend(self.pending)
        self.pending = []
        self.before, self.since = after, perf_counter()


def run_op(main, inst: dict):
    """One operation: (exit code, captured stdout and stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(inst["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 4
        except Exception as exc:  # a crash is a failed operation, not a stop
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 4
    elapsed = perf_counter() - start
    return code, out.getvalue() + err.getvalue(), elapsed


class Judge:
    """Checks (instance, exit code, output) records as they come."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.reasons: list = []

    def add(self, records) -> None:
        import checks

        for inst, code, text in records:
            self.attempted += 1
            bad = checks.check(inst, code, text)
            if bad is not None:
                self.failed += 1
                self.wrong += bad[0] == "wrong"
                self.reasons.append(f"{inst['name']}: {bad[1]}")


def judge(records) -> dict:
    """Check every (instance, exit code, output) record."""
    verdict = Judge()
    verdict.add(records)
    return {"failed": verdict.failed, "wrong": verdict.wrong, "reasons": verdict.reasons}


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_rounds(main, stream, seconds: float, verdict: Judge) -> Scaled:
    """Whole rounds until ``seconds`` have passed; every call's time.

    Each round is checked once it has run, outside the timed calls.
    """
    samples = Scaled()
    start = perf_counter()
    for round_ in stream:
        records = []
        for inst in round_:
            code, text, elapsed = run_op(main, inst)
            samples.add(elapsed)
            records.append((inst, code, text))
        verdict.add(records)
        if perf_counter() - start >= seconds:
            samples.flush()
            return samples


def measure(args, main) -> int:
    directory = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    verdict = Judge()
    try:
        first = setup(args.workload, args.seed, directory)
        stream = rounds(args.workload, args.seed, directory, first)
        if args.trace:
            cycle = WORKLOADS[args.workload]["cycle"]
            metrics, extra = traced(main, stream, args.seconds, cycle, verdict)
        else:
            samples = run_rounds(main, stream, args.seconds, verdict)
            metrics, extra = end_to_end(samples, WORKLOADS[args.workload]["tail"])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for reason in verdict.reasons[:20]:
        print(f"check failed: {reason}")
    extra["workload"] = args.workload
    extra["seed"] = args.seed
    print(json.dumps({"info": extra}))
    print(json.dumps({
        "correct": verdict.wrong == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(samples: Scaled, tail: int):
    """The time metrics over the scaled call times; unscaled ones go to info."""

    def times(values):
        ordered = sorted(values)
        return len(values) / sum(values), statistics.median(ordered), percentile(ordered, tail)

    per_s, p50, cut = times(samples.times)
    metrics = {
        "instances_per_s": (per_s, "1/s"),
        "latency_p50_ms": (1000 * p50, "ms"),
        "latency_tail_ms": (1000 * cut, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_per_s, raw_p50, raw_cut = times(samples.raw)
    return metrics, {"calls": len(samples.times), "tail_percentile": tail,
                     "calls_beyond_tail": sum(1 for s in samples.times if s > cut),
                     "loop_ms_median": 1000 * statistics.median(samples.loops),
                     "unscaled": {"instances_per_s": raw_per_s,
                                  "latency_p50_ms": 1000 * raw_p50,
                                  "latency_tail_ms": 1000 * raw_cut}}


def traced(main, stream, seconds: float, cycle: int, verdict: Judge):
    """Whole rounds in which every instance runs untraced and then traced.

    Running the two calls back to back keeps the machine's drift out of the
    overhead figure.  Counts are taken over the first ``cycle`` rounds only,
    so they repeat exactly for a fixed seed.
    """
    import layers

    tracer = layers.Tracer()
    root = tracer.root(main)
    untraced = traced_s = 0.0
    ops = n_rounds = 0
    first = None
    start = perf_counter()
    for round_ in stream:
        records = []
        for inst in round_:
            code, text, elapsed = run_op(main, inst)
            untraced += elapsed
            records.append((inst, code, text))
            tracer.install()
            try:
                code, text, elapsed = run_op(root, inst)
            finally:
                tracer.uninstall()
            traced_s += elapsed
            records.append((inst, code, text))
        verdict.add(records)
        ops += len(round_)
        n_rounds += 1
        if n_rounds == cycle:
            first = (tracer.snapshot(), ops)
        if n_rounds >= cycle and perf_counter() - start >= seconds:
            break
    metrics = layers.per_layer(tracer.snapshot(), ops, first[0], first[1])
    metrics["trace.overhead_ms"] = (1000 * (traced_s - untraced) / ops, "ms")
    return metrics, {"traced_rounds": n_rounds, "traced_ops": ops,
                     "untraced_ms_per_op": 1000 * untraced / ops,
                     "traced_ms_per_op": 1000 * traced_s / ops}


# -- the command --------------------------------------------------------------------


def time_setups(args, env) -> tuple:
    """Wall time from starting a fresh interpreter to the end of its set-up.

    Returns the times scaled like the call times (by the loops timed just
    before and just after each set-up) and the unscaled times.
    """
    times, raw = [], []
    before = calibrate()
    for k in range(SETUP_SAMPLES):
        directory = OUT / f"setup-{args.workload}-{args.seed}-{os.getpid()}-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--role", "setup",
               "--workload", args.workload, "--seed", str(args.seed),
               "--dir", str(directory)]
        try:
            start = perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                                  text=True) as proc:
                line = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.stdout.read()
                proc.wait()
            if proc.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up {k} exited {proc.returncode}")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        after = calibrate()
        times.append(elapsed * CAL_REF_S / ((before + after) / 2))
        raw.append(elapsed)
        before = after
    return times, raw


def orchestrate(args) -> int:
    started = perf_counter()
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 4294967296))
    setup_s = None
    if not args.trace:
        try:
            setup_times, setup_raw = time_setups(args, env)
        except RuntimeError as exc:
            return fail(str(exc))
        setup_s = statistics.median(setup_times)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", "measure",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=DEADLINE_S - (perf_counter() - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            shutil.rmtree(OUT / f"{args.workload}-{args.seed}-{proc.pid}", ignore_errors=True)
            return fail(f"measuring run did not end within {DEADLINE_S} s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"measuring run exited {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if setup_s is not None:
        print(json.dumps({"setup_samples_s": setup_times, "unscaled": setup_raw}))
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "measure"), default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ggsolve" / "cli.py").is_file():
        return fail(f"no ggsolve sources under {SRC}; run from a source checkout")
    if args.role == "setup":
        try:
            import_program()
        except ImportError as exc:
            return fail(str(exc))
        setup(args.workload, args.seed, Path(args.dir))
        print("ready", flush=True)
        return 0
    if args.role == "measure":
        try:
            cli = import_program()
        except ImportError as exc:
            return fail(str(exc))
        return measure(args, cli.main)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
