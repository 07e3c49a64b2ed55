"""Per-layer tracing by re-binding ggsolve's functions at run time.

``Tracer.install()`` replaces each traced function with a wrapper in every
loaded ``ggsolve`` module that holds a reference to it (and on the class for
the oracle method), so calls made through any import path are seen.  No file
of the program changes; ``uninstall()`` puts the originals back.

A wrapped call is a span.  Its self time is its duration minus the durations
of the wrapped calls it makes; nothing runs in parallel, so no span waits on
another.  Free reduction (``groups._reduce_tagged``) is a probe instead: its
calls, letters and time are counted, but its time stays in the caller's self
time, because it is the body of ``mult`` and ``power_nf``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Stat:
    __slots__ = ("calls", "seconds", "units", "hits")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.units = 0
        self.hits = 0


def _states(_args, result) -> int:
    return result.num_states()


def _result_len(_args, result) -> int:
    return len(result)


def _word_len(args, _result) -> int:
    return len(args[1])


def _checked_mult(args, _result) -> int:
    import ggsolve.groups as groups

    g, h = args
    return int(len(g) + len(h) <= groups._VERIFY_MULT_LIMIT)


# (module, attribute, layer key, units) for the spans.  Layer keys name the
# module first; ``units`` counts letters, states or checked calls per span.
SPANS = (
    ("ggsolve.formats", "parse_instance", "formats.parse", None),
    ("ggsolve.formats", "build_equation", "formats.build", None),
    ("ggsolve.formats", "build_ka", "formats.build", None),
    ("ggsolve.formats", "build_oracle", "formats.build", None),
    ("ggsolve.slp", "expand_capped", "slp.expand", _result_len),
    ("ggsolve.traces", "_canonical_word", "traces.canonical", _word_len),
    ("ggsolve.traces", "left_quotient", "traces.quotient", None),
    ("ggsolve.traces", "right_quotient", "traces.quotient", None),
    ("ggsolve.groups", "mult", "groups.mult", _checked_mult),
    ("ggsolve.groups", "power_nf", "groups.power_nf", _result_len),
    ("ggsolve.automata", "power_closure_nfa", "automata.closure", _states),
    ("ggsolve.automata", "intersect", "automata.intersect", _states),
    ("ggsolve.automata", "trim", "automata.trim", None),
    ("ggsolve.semilinear", "two_power_solutions", "semilinear.two_power", None),
    ("ggsolve.semilinear", "diophantine_solve", "semilinear.diophantine", None),
    ("ggsolve.solver.exact", "solve_exact", "solver.exact", None),
    ("ggsolve.solver.equations", "preprocess", "solver.preprocess", None),
    ("ggsolve.solver.equations", "bound_report_string", "solver.bound", None),
    ("ggsolve.solver.equations", "verify", "solver.verify", None),
    ("ggsolve.transfer.hnn", "hnn_saturate", "transfer.saturation", None),
    ("ggsolve.transfer.freeprod", "free_product_saturate", "transfer.saturation", None),
    ("ggsolve.transfer.finite_extension", "finite_ext_reduce", "transfer.finite_ext", None),
)
PROBES = (("ggsolve.groups", "_reduce_tagged", "groups.reduce"),)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self._stack = [0.0]  # child time of the open spans; [0] is the root
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, key, units):
        stack = self._stack
        stat = self.stats[key]

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.seconds += elapsed - stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
            if units is not None:
                stat.units += units(args, result)
            return result

        return span

    def _probe(self, fn, key):
        stat = self.stats[key]

        def probe(alphabet, word):
            start = perf_counter()
            result = fn(alphabet, word)
            stat.seconds += perf_counter() - start
            stat.calls += 1
            stat.units += len(word)
            return result

        return probe

    def _oracle(self, fn):
        """GroupOracle.ka_membership: a span that also counts memo hits."""
        span = self._span(fn, "transfer.oracle", None)
        stat = self.stats["transfer.oracle"]

        def ka_membership(oracle, nfa, target_word):
            before = len(getattr(oracle, "_member_cache", None) or ())
            result = span(oracle, nfa, target_word)
            if len(oracle._member_cache) == before:
                stat.hits += 1
            return result

        return ka_membership

    def _skeletons(self, fn):
        stat = self.stats["transfer.skeletons"]

        def skeletons(*args, **kwargs):
            for item in fn(*args, **kwargs):
                stat.calls += 1
                yield item

        return skeletons

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "ggsolve" and not name.startswith("ggsolve."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import ggsolve.cli  # noqa: F401  (loads every traced module)
        import ggsolve.solver  # noqa: F401
        import ggsolve.transfer  # noqa: F401
        from ggsolve.transfer.oracles import GroupOracle

        for module, attr, key, units in SPANS:
            original = getattr(sys.modules[module], attr)
            self._rebind(original, self._span(original, key, units))
        for module, attr, key in PROBES:
            original = getattr(sys.modules[module], attr)
            self._rebind(original, self._probe(original, key))
        original = sys.modules["ggsolve.transfer.kauto"].skeletons
        self._rebind(original, self._skeletons(original))
        original = GroupOracle.ka_membership
        self._saved.append((GroupOracle, "ka_membership", original))
        GroupOracle.ka_membership = self._oracle(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def root(self, main):
        """``main`` wrapped as the root span ``cli``: one operation."""
        return self._span(main, "cli", None)

    def snapshot(self) -> dict:
        return {
            key: (s.calls, s.seconds, s.units, s.hits) for key, s in self.stats.items()
        }


def per_layer(snapshot: dict, ops: int, count_snapshot: dict, count_ops: int) -> dict:
    """The per-layer metrics, per operation.

    Times come from ``snapshot`` over ``ops`` operations; counts come from
    ``count_snapshot`` over ``count_ops`` operations, which is a fixed set of
    operations so that the counts repeat exactly for a fixed seed.
    """
    empty = (0, 0.0, 0, 0)
    get = lambda key: snapshot.get(key, empty)
    cnt = lambda key: count_snapshot.get(key, empty)
    ms = lambda key: 1000.0 * get(key)[1] / ops
    per = lambda value: value / count_ops
    reduce_calls, reduce_s, reduce_letters, _ = get("groups.reduce")
    oracle_calls, _, _, oracle_hits = cnt("transfer.oracle")
    metrics = {
        "cli.self_ms": (ms("cli"), "ms"),
        "formats.parse_ms": (ms("formats.parse"), "ms"),
        "formats.build_ms": (ms("formats.build"), "ms"),
        "slp.expand_ms": (ms("slp.expand"), "ms"),
        "slp.letters_expanded": (per(cnt("slp.expand")[2]), "count"),
        "traces.canonical_calls": (per(cnt("traces.canonical")[0]), "count"),
        "traces.canonical_letters": (per(cnt("traces.canonical")[2]), "count"),
        "traces.canonical_ms": (ms("traces.canonical"), "ms"),
        "traces.quotient_calls": (per(cnt("traces.quotient")[0]), "count"),
        "traces.quotient_ms": (ms("traces.quotient"), "ms"),
        "groups.mult_calls": (per(cnt("groups.mult")[0]), "count"),
        "groups.mult_checked_calls": (per(cnt("groups.mult")[2]), "count"),
        "groups.mult_ms": (ms("groups.mult"), "ms"),
        "groups.power_nf_ms": (ms("groups.power_nf"), "ms"),
        "groups.power_nf_letters": (per(cnt("groups.power_nf")[2]), "count"),
        "groups.reduce_letters_per_s": (
            reduce_letters / reduce_s if reduce_s else 0.0, "1/s"),
        "automata.closure_ms": (ms("automata.closure"), "ms"),
        "automata.closure_states": (per(cnt("automata.closure")[2]), "count"),
        "automata.intersect_ms": (ms("automata.intersect"), "ms"),
        "automata.intersect_states": (per(cnt("automata.intersect")[2]), "count"),
        "automata.trim_calls": (per(cnt("automata.trim")[0]), "count"),
        "automata.trim_ms": (ms("automata.trim"), "ms"),
        "semilinear.two_power_ms": (ms("semilinear.two_power"), "ms"),
        "semilinear.diophantine_calls": (per(cnt("semilinear.diophantine")[0]), "count"),
        "semilinear.diophantine_ms": (ms("semilinear.diophantine"), "ms"),
        "solver.exact_self_ms": (ms("solver.exact"), "ms"),
        "solver.preprocess_calls": (per(cnt("solver.preprocess")[0]), "count"),
        "solver.preprocess_ms": (ms("solver.preprocess"), "ms"),
        "solver.bound_ms": (ms("solver.bound"), "ms"),
        "solver.verify_self_ms": (ms("solver.verify"), "ms"),
        "transfer.oracle_calls": (per(oracle_calls), "count"),
        "transfer.oracle_hit_ratio": (
            oracle_hits / oracle_calls if oracle_calls else 0.0, "ratio"),
        "transfer.oracle_ms": (ms("transfer.oracle"), "ms"),
        "transfer.saturation_ms": (ms("transfer.saturation"), "ms"),
        "transfer.finite_ext_ms": (ms("transfer.finite_ext"), "ms"),
        "transfer.skeletons": (per(cnt("transfer.skeletons")[0]), "count"),
    }
    return metrics
