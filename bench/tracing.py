"""Spans around the public functions of each composec module, recorded from
outside the package.

`Tracer.install` wraps each function in `TARGETS` and rebinds the wrapper
under every name that holds the original in every loaded `composec` module,
because modules import names directly (`from .stoch import tensor`); methods
are wrapped on their class.  `uninstall` puts the originals back.  Spans are
kept in memory and reduced to per-layer metrics after the pass.

A span's self time is its duration minus the time its child spans cover.
Cyclic garbage collections (from `gc.callbacks`), the tracer's own
counting and the benchmark's speed probes (`speed.py`) are recorded as child
spans of whatever span they interrupt, so none is charged to a layer's self
time.
"""

from __future__ import annotations

import functools
import gc
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

GC_SPAN = "runtime.gc"
COUNT_SPAN = "trace.count"
CHECK_SPAN = "bench.check"
PROBE_SPAN = "bench.probe"


def _cells(kernel) -> int:
    return kernel.n_cod * kernel.n_dom


def _nonzeros(rows) -> int:
    return sum(len(row) - row.count(0) for row in rows)


def _count_tensor(tr, args, kernel) -> None:
    tr.counts["stoch.tensor.cells"] += _cells(kernel)
    _count_kernel(tr, args, kernel)


def _count_kernel(tr, args, kernel) -> None:
    tr.counts["stoch.entries"] += _cells(kernel)
    tr.counts["stoch.nonzeros"] += _nonzeros(kernel.matrix)


def _count_marginal(tr, args, kernel) -> None:
    tr.counts["stoch.marginalize.cells"] += _cells(args[0])
    _count_kernel(tr, args, kernel)


def _count_realize(tr, args, comb) -> None:
    b = args[0]
    ref = tr.seen.get(id(b))
    if ref is None or ref() is not b:  # ids of dead objects are reused
        tr.seen[id(b)] = weakref.ref(b)
        tr.counts["comb.realize.distinct"] += 1


def _count_lp(tr, args, outcome) -> None:
    lp = args[0]
    tr.counts["lp.cells"] += lp.m * lp.n
    tr.counts["lp.nonzeros"] += _nonzeros(lp.a)


def _count_strategies(tr, args, value) -> None:
    strategy_count = getattr(sys.modules["composec.comb"], "strategy_count", None)
    if strategy_count is not None:
        tr.counts["comb.strategies"] += strategy_count(args[0].signature)


# metric prefix, module, attribute ("Class.method" for a method), counter
TARGETS = (
    ("stoch.tensor", "stoch", "tensor", _count_tensor),
    ("stoch.compose", "stoch", "compose", _count_kernel),
    ("stoch.marginalize", "stoch", "marginalize", _count_marginal),
    ("stoch.make_kernel", "stoch", "make_kernel", None),
    ("comb.realize", "comb", "realize", _count_realize),
    ("comb.causality_report", "comb", "causality_report", None),
    ("comb.behavior_distance", "comb", "behavior_distance", _count_strategies),
    ("comb.network_evaluate", "comb", "Network.evaluate", None),
    ("comb.linear_evaluate", "comb", "Network.linear_evaluate", None),
    ("lp.solve_feasible", "lp", "solve_feasible", _count_lp),
    ("lp.minimize", "lp", "minimize", _count_lp),
    ("lp.verify", "lp", "verify", None),
    ("lp.build", "lp", "LpBuilder.build", None),
    ("attacks.dummy_attack", "attacks", "dummy_attack", None),
    ("attacks.check_secure_with", "attacks", "check_secure_with", None),
    ("attacks.search_simulator", "attacks", "search_simulator", None),
    ("attacks.min_epsilon", "attacks", "min_epsilon", None),
    ("nogo.split_check", "nogo", "split_check", None),
    ("nogo.min_split_advantage", "nogo", "min_split_advantage", None),
    ("nogo.tripartite_split_check", "nogo", "tripartite_split_check", None),
    ("nogo.oracle", "nogo", "broadcast_contradiction_oracle", None),
    ("hopf.build_otp", "hopf", "build_otp", None),
    ("hopf.hopf_axiom_suite", "hopf", "hopf_axiom_suite", None),
    ("hopf.otp_security", "hopf", "otp_security", None),
    ("resources.apply_protocol", "resources", "apply_protocol", None),
    ("cli.parse_spec", "cli", "parse_spec", None),
    ("cli.elaborate", "cli", "elaborate", None),
    ("cli.run_check", "cli", "run_check", None),
)

COUNTERS = ("stoch.tensor.cells", "stoch.marginalize.cells", "comb.realize.distinct", "comb.strategies", "lp.cells")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, check id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: dict[int, weakref.ref] = {}
        self.check_id = None
        self._gc_start = None
        self._restore: list[tuple] = []

    # -- spans

    def _open(self, name: str) -> int:
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None, self.check_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, k: int) -> None:
        self.spans[k][2] = perf_counter()
        self.stack.pop()

    def _record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.stack[-1] if self.stack else None, self.check_id])

    def record_probe(self, start: float, end: float) -> None:
        """A speed probe (`speed.py`) that interrupted the pass."""
        self._record(PROBE_SPAN, start, end)

    def run_check(self, check_id: str, fn):
        self.check_id = check_id
        k = self._open(CHECK_SPAN)
        try:
            return fn()
        finally:
            self._close(k)
            self.check_id = None

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self._record(GC_SPAN, self._gc_start, perf_counter())
            self._gc_start = None

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(k)
            if count is not None:
                start = perf_counter()
                count(tracer, args, result)
                tracer._record(COUNT_SPAN, start, perf_counter())
            return result

        return wrapper

    # -- installation

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "composec" or n.startswith("composec.")]
        for name, module, attr, count in TARGETS:
            owner, _, fname = attr.rpartition(".")
            holder = sys.modules[f"composec.{module}"]
            if owner:
                holder = getattr(holder, owner)
            orig = getattr(holder, fname, None)
            if orig is None:  # removed by a later version: its metrics read 0
                continue
            wrapper = self._wrap(name, orig, count)
            if owner:
                self._rebind(holder, fname, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def _rebind(self, holder, key: str, wrapper) -> None:
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    # -- reduction

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since construction."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _check in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _parent, _check), cover in zip(self.spans, covered):
            self_s[name] += end - start - cover
            calls[name] += 1
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["stoch.nonzero_share"] = self.counts["stoch.nonzeros"] / max(1, self.counts["stoch.entries"])
        out["lp.nonzero_share"] = self.counts["lp.nonzeros"] / max(1, self.counts["lp.cells"])
        out["runtime.gc_s"] = self_s[GC_SPAN]
        out["runtime.gc_collections"] = calls[GC_SPAN]
        out["trace.count_s"] = self_s[COUNT_SPAN]
        return out
