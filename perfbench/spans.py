"""Spans around calls into qtokens, recorded from outside the package.

The traced run wraps each layer's public function or method where its
callers look it up: every ``qtokens.*`` module attribute bound to the
original function is rebound to the wrapper, and methods are replaced on
their class.  Spans stay in memory until the run ends; per-layer numbers
are reduced from them afterwards.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None      # enclosing span on the same thread
    thread: int
    start: int              # perf_counter_ns
    end: int = 0


class Tracer:
    """Collects spans (with parent and thread) and named counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(name, span_id, stack[-1].span_id if stack else None,
                    threading.get_ident(), self.clock())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str | Callable[[tuple], str], fn: Callable,
             counters: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``counters(args, kwargs, result)`` yields
        (suffix, amount) pairs added under ``<span name>.<suffix>``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counters is not None:
                for suffix, amount in counters(args, kwargs, result):
                    self.add(f"{label}.{suffix}", amount)
            return result
        return traced


def self_time_ns(span: Span, children: Iterable[Span]) -> int:
    """Duration of ``span`` minus the part of it its children cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span.end - span.start) - covered


def layer_times(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, busy seconds, self seconds)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        own[s.name] += self_time_ns(s, children.get(s.span_id, ()))
    return {k: (calls[k], busy[k] * 1e-9, own[k] * 1e-9) for k in calls}


# -- the layers ------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _count_bits(grid) -> int:
    return sum(len(pair) for block in grid for pair in block)


REFUSAL_REASONS = ("unknown-serial", "already-redeemed", "attempt-budget-exceeded",
                   "protocol-error", "below-threshold", "question-mismatch", "other")


def _refusal(args, kwargs, result):
    if result is None:
        return
    if result.get("type") == "error":
        reason = result.get("code")
    elif result.get("type") == "verdict" and not result.get("accepted"):
        reason = result.get("reason")
    else:
        return
    yield f"refused.{reason if reason in REFUSAL_REASONS else 'other'}", 1


@dataclass(frozen=True)
class Layer:
    """One traced layer: the (module, attribute) targets wrapped under its
    name and the counters recorded at the same boundary."""

    name: str
    targets: tuple[tuple[str, str], ...]
    counters: Callable | None = None
    counter_names: tuple[str, ...] = ()
    # cli.main reports one layer per subcommand
    subnames: tuple[str, ...] = ()


LAYERS: tuple[Layer, ...] = (
    Layer("qticket.double_acceptance_exact",
          (("qtokens.qticket", "double_acceptance_exact"),)),
    Layer("qticket.verify", (("qtokens.qticket", "verify"),)),
    Layer("attacks.double_accept_mc", (("qtokens.attacks", "double_accept_mc"),),
          lambda a, k, r: [("trials", _arg(a, k, 3, "trials"))], ("trials",)),
    Layer("attacks.mixture_outcome_distribution",
          (("qtokens.attacks", "mixture_outcome_distribution"),)),
    Layer("attacks.cv_attacker",
          (("qtokens.attacks", "IntermediateBasisAttacker.prepare"),
           ("qtokens.attacks", "IntermediateBasisAttacker.answer"),
           ("qtokens.attacks", "HonestCopyAttacker.prepare"),
           ("qtokens.attacks", "HonestCopyAttacker.answer"))),
    Layer("attacks.sequential_attack_rate",
          (("qtokens.attacks", "sequential_attack_rate"),)),
    # "jobs" feeds pool_util and is not reported on its own
    Layer("cli.sweep_rows", (("qtokens.cli", "sweep_rows"),),
          lambda a, k, r: [("jobs", _arg(a, k, 0, "config").jobs)], ("pool_util",)),
    Layer("cli.main", (("qtokens.cli", "main"),), subnames=("issue", "verify")),
    Layer("cv.cv_issue", (("qtokens.cv", "cv_issue"),)),
    Layer("cv.honest_answer", (("qtokens.cv", "honest_answer"),)),
    Layer("cv.score_answer", (("qtokens.cv", "score_answer"),)),
    Layer("cv.CvVerifier.serve_one", (("qtokens.cv", "CvVerifier.serve_one"),),
          _refusal, tuple(f"refused.{r}" for r in REFUSAL_REASONS)),
    Layer("cv.double_spend_experiment", (("qtokens.cv", "double_spend_experiment"),)),
    Layer("cv.honest_protocol_experiment",
          (("qtokens.cv", "honest_protocol_experiment"),)),
    Layer("games.selective_value", (("qtokens.games", "selective_value"),)),
    Layer("channels.apply_to_stack", (("qtokens.channels", "QubitChannel.apply_to_stack"),),
          lambda a, k, r: [("qubits", len(_arg(a, k, 1, "states")))], ("qubits",)),
    Layer("wire.serialize", (("qtokens.wire", "serialize"),),
          lambda a, k, r: [("bytes", len(r))], ("bytes",)),
    Layer("wire.parse", (("qtokens.wire", "parse"),),
          lambda a, k, r: [("bytes", len(_arg(a, k, 0, "line")))], ("bytes",)),
    Layer("wire.decode_outcomes", (("qtokens.wire", "decode_outcomes"),),
          lambda a, k, r: [("bits", _count_bits(r))], ("bits",)),
    Layer("wire.LineChannel.recv", (("qtokens.wire", "LineChannel.recv"),)),
    Layer("store.SecretStore.load", (("qtokens.store", "SecretStore.load"),),
          lambda a, k, r: [("bytes", _file_bytes(a[0].path))], ("bytes",)),
    Layer("store.SecretStore.save", (("qtokens.store", "SecretStore.save"),),
          lambda a, k, r: [("bytes", _file_bytes(a[0].path))], ("bytes",)),
    Layer("store.write_token", (("qtokens.store", "write_token"),),
          lambda a, k, r: [("bytes", _file_bytes(_arg(a, k, 0, "path")))], ("bytes",)),
    Layer("store.read_token", (("qtokens.store", "read_token"),),
          lambda a, k, r: [("bytes", _file_bytes(_arg(a, k, 0, "path")))], ("bytes",)),
    Layer("store.try_accept", (("qtokens.store", "SecretStore.try_accept"),),
          lambda a, k, r: [("refused", 0 if r else 1)], ("refused",)),
)


def _span_name(layer: Layer) -> str | Callable[[tuple], str]:
    if not layer.subnames:
        return layer.name
    # cli.main(argv): one span name per subcommand
    return lambda args: f"{layer.name}.{args[0][0] if args and args[0] else 'none'}"


def span_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += ([f"{layer.name}.{s}" for s in layer.subnames] if layer.subnames
                  else [layer.name])
    return names


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer target; returns a function that undoes it."""
    undo: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        for module_name, attr in layer.targets:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                undo.append((owner, method, original))
                setattr(owner, method, tracer.wrap(_span_name(layer), original,
                                                   layer.counters))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(_span_name(layer), original, layer.counters)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qtokens"
                                       or mod_name.startswith("qtokens.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return uninstall


# -- reduction to reported metrics -------------------------------------------

OVERHEAD_METRIC = "trace.overhead_s"
BYTES_PER_SESSION = "wire.bytes_per_session"
_RATIOS = {"cli.sweep_rows.pool_util"}


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    rows = []
    for name in span_names():
        rows += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.busy_s", "s", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    for layer in LAYERS:
        for counter in layer.counter_names:
            metric = f"{layer.name}.{counter}"
            if metric in _RATIOS:
                rows.append((metric, "ratio", "higher"))
            elif counter == "bytes":
                rows.append((metric, "B", "lower"))
            else:
                rows.append((metric, "count", "lower"))
    rows.append((BYTES_PER_SESSION, "B", "lower"))
    rows.append((OVERHEAD_METRIC, "s", "lower"))
    return rows


def per_layer_metrics(tracer: Tracer, units: int,
                      overhead_s: float) -> dict[str, float]:
    """Catalogue values from a traced phase of ``units`` units of work.

    Calls, times and counts are per unit; pool_util, bytes per session and
    the tracing overhead are not.
    """
    if units < 1:
        raise ValueError("need at least one traced unit")
    times = layer_times(tracer.spans)
    counts = tracer.counts
    values: dict[str, float] = {}
    for name in span_names():
        calls, busy, own = times.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls / units
        values[f"{name}.busy_s"] = busy / units
        values[f"{name}.self_s"] = own / units
    for layer in LAYERS:
        for counter in layer.counter_names:
            metric = f"{layer.name}.{counter}"
            if metric not in _RATIOS:
                values[metric] = counts.get(metric, 0.0) / units

    sweep_calls, sweep_busy, _ = times.get("cli.sweep_rows", (0, 0.0, 0.0))
    pool_busy = sum(times.get(n, (0, 0.0, 0.0))[1]
                    for n in ("qticket.double_acceptance_exact", "attacks.double_accept_mc"))
    mean_jobs = counts.get("cli.sweep_rows.jobs", 0.0) / sweep_calls if sweep_calls else 0.0
    values["cli.sweep_rows.pool_util"] = (pool_busy / (sweep_busy * mean_jobs)
                                          if sweep_busy > 0 and mean_jobs > 0 else 0.0)
    sessions = times.get("cv.CvVerifier.serve_one", (0, 0.0, 0.0))[0]
    values[BYTES_PER_SESSION] = (counts.get("wire.serialize.bytes", 0.0) / sessions
                                 if sessions else 0.0)
    values[OVERHEAD_METRIC] = overhead_s
    return {name: values[name] for name, _, _ in catalogue()}
