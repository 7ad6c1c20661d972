"""Per-layer spans, installed at run time around fixfnm's public entry points.

Wrappers live in the benchmark process only and are removed afterwards.
A name bound with `from .x import y` is a second reference to the same
function in the importing module, so every fixfnm module attribute that is
the original function gets the wrapper. Methods are wrapped on their class.

A span's self time is its duration minus the time of wrapped spans it
caused. Spans are aggregated per name and per (parent, name) edge.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from workloads import LABELS

LATTICE_SPANS = (
    "lattices.kernel_basis",
    "lattices.hnf_rows",
    "lattices.from_rows",
    "lattices.intersect",
    "lattices.contains",
    "lattices.swapped",
)


class Stat:
    __slots__ = ("calls", "total", "self", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.extra: dict[str, float] = defaultdict(float)


def _decide_hook(tracer, stat, args, result, dt):
    tracer.samples["label." + result.trace[0]].append(dt)


def _fold_hook(tracer, stat, args, result, dt):
    stat.extra["edges_in"] += sum(len(g) for g in args[0])
    stat.extra["edges_out"] += result.edge_count


def _intersect_hook(tracer, stat, args, result, dt):
    stat.extra["vertices_out"] += result.vertex_count


def _apply_hook(tracer, stat, args, result, dt):
    stat.extra["letters_out"] += len(result.letters)


def _hits_hook(tracer, stat, args, result, dt):
    stat.extra["hits"] += len(result)


def _main_hook(tracer, stat, args, result, dt):
    tracer.samples["cli.main"].append(dt)


# (module, function, span, hook)
FUNCTIONS = (
    ("fixfnm.decision", "decide", "decision.decide", _decide_hook),
    ("fixfnm.product", "classify", "product.classify", None),
    ("fixfnm.product", "parse_endo_text", "product.parse", None),
    ("fixfnm.stallings", "from_generators", "stallings.from_generators", _fold_hook),
    ("fixfnm.stallings", "express_in_generators", "stallings.express", None),
    ("fixfnm.words", "root", "words.root", None),
    ("fixfnm.lattices", "kernel_basis", "lattices.kernel_basis", None),
    ("fixfnm.lattices", "hnf_rows", "lattices.hnf_rows", None),
    ("fixfnm.oracle", "common_fixed_points", "oracle.common_fixed_points", _hits_hook),
    ("fixfnm.cli", "main", "cli.main", _main_hook),
)
# (module, class, method, span, hook)
METHODS = (
    ("fixfnm.fixpoints", "FixOracle", "fix", "fixpoints.fix", None),
    ("fixfnm.fixpoints", "DeclaredEndo", "__init__", "fixpoints.declared", None),
    ("fixfnm.product", "ProductEndo", "fixes", "product.fixes", None),
    ("fixfnm.stallings", "SubgroupGraph", "intersect", "stallings.intersect", _intersect_hook),
    ("fixfnm.stallings", "SubgroupGraph", "basis", "stallings.basis", None),
    ("fixfnm.homs", "FreeHom", "apply", "homs.apply", _apply_hook),
    ("fixfnm.words", "Word", "__mul__", "words.mul", None),
    ("fixfnm.lattices", "IntLattice2", "from_rows", "lattices.from_rows", None),
    ("fixfnm.lattices", "IntLattice2", "intersect", "lattices.intersect", None),
    ("fixfnm.lattices", "IntLattice2", "contains", "lattices.contains", None),
    ("fixfnm.lattices", "IntLattice2", "swapped", "lattices.swapped", None),
)
# generators: each resumption is a span, each yielded item an element
GENERATORS = (("fixfnm.words", "enumerate_ball", "words.enumerate_ball"),)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # [span name, time of wrapped children]

    def _enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _leave(self, name: str, start: float) -> tuple[Stat, float]:
        dt = time.perf_counter() - start
        _, child = self._stack.pop()
        stat = self.stats[name]
        stat.calls += 1
        stat.total += dt
        stat.self += dt - child
        parent = self._stack[-1][0] if self._stack else ""
        if self._stack:
            self._stack[-1][1] += dt
        edge = self.edges[(parent, name)]
        edge[0] += 1
        edge[1] += dt
        return stat, dt

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        def traced(*args, **kwargs):
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stat, dt = self._leave(name, start)
            if hook is not None:
                hook(self, stat, args, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    start = self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stat, _ = self._leave(name, start)
                    stat.extra["elements"] += 1
                    yield item

            return steps()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every entry point; returns the function that undoes it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fixfnm" or n.startswith("fixfnm.")]
        undo: list[tuple[Any, str, Any]] = []

        def rebind(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)

        for mod, attr, name, hook in FUNCTIONS:
            if mod in sys.modules:
                original = getattr(sys.modules[mod], attr)
                rebind(original, self.wrap(name, original, hook))
        for mod, attr, name in GENERATORS:
            original = getattr(sys.modules[mod], attr)
            rebind(original, self.wrap_generator(name, original))
        for mod, cls_name, attr, name, hook in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, hook))
            else:
                wrapped = self.wrap(name, raw, hook)
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

        def restore():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return restore

    # --- metrics ------------------------------------------------------------

    def calls(self, span: str) -> int | None:
        stat = self.stats.get(span)
        return stat.calls if stat and stat.calls else None

    def self_ms(self, *spans: str) -> float | None:
        hit = [self.stats[s] for s in spans if s in self.stats and self.stats[s].calls]
        return sum(s.self for s in hit) * 1e3 if hit else None

    def extra(self, span: str, key: str) -> float | None:
        stat = self.stats.get(span)
        return stat.extra[key] if stat and stat.calls else None

    def p50(self, sample: str, scale: float) -> float | None:
        values = self.samples.get(sample)
        return statistics.median(values) * scale if values else None

    def report(self) -> dict:
        """Every span and edge, for the result file."""
        return {
            "spans": {
                n: {"calls": s.calls, "total_ms": s.total * 1e3, "self_ms": s.self * 1e3, **s.extra}
                for n, s in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p or None, "span": c, "calls": n, "total_ms": t * 1e3}
                for (p, c), (n, t) in sorted(self.edges.items())
            ],
        }


def _metrics() -> list[tuple[str, str, str, Callable[[Tracer], float | None]]]:
    """(name, unit, better, value from a tracer or None when never exercised)."""
    rows = [
        ("decision.decide.calls", "count", "lower", lambda t: t.calls("decision.decide")),
        ("decision.decide.self_ms", "ms", "lower", lambda t: t.self_ms("decision.decide")),
    ]
    for label in LABELS:
        rows.append(
            (f"decision.label.{label}.p50_us", "us", "lower", lambda t, label=label: t.p50("label." + label, 1e6))
        )
    for name, span in (
        ("fixpoints.fix", "fixpoints.fix"),
        ("product.classify", "product.classify"),
        ("product.fixes", "product.fixes"),
        ("stallings.from_generators", "stallings.from_generators"),
        ("stallings.intersect", "stallings.intersect"),
        ("stallings.express", "stallings.express"),
        ("homs.apply", "homs.apply"),
        ("words.mul", "words.mul"),
    ):
        rows.append((f"{name}.calls", "count", "lower", lambda t, s=span: t.calls(s)))
        rows.append((f"{name}.self_ms", "ms", "lower", lambda t, s=span: t.self_ms(s)))
    rows += [
        ("fixpoints.declared.self_ms", "ms", "lower", lambda t: t.self_ms("fixpoints.declared")),
        ("product.parse.self_ms", "ms", "lower", lambda t: t.self_ms("product.parse")),
        ("stallings.from_generators.edges_in", "count", "lower",
         lambda t: t.extra("stallings.from_generators", "edges_in")),
        ("stallings.from_generators.edges_out", "count", "lower",
         lambda t: t.extra("stallings.from_generators", "edges_out")),
        ("stallings.intersect.vertices_out", "count", "lower",
         lambda t: t.extra("stallings.intersect", "vertices_out")),
        ("stallings.basis.self_ms", "ms", "lower", lambda t: t.self_ms("stallings.basis")),
        ("homs.apply.letters_out", "count", "lower", lambda t: t.extra("homs.apply", "letters_out")),
        ("words.root.calls", "count", "lower", lambda t: t.calls("words.root")),
        ("words.enumerate_ball.elements", "count", "lower",
         lambda t: t.extra("words.enumerate_ball", "elements")),
        ("words.enumerate_ball.self_ms", "ms", "lower", lambda t: t.self_ms("words.enumerate_ball")),
        ("lattices.kernel_basis.calls", "count", "lower", lambda t: t.calls("lattices.kernel_basis")),
        ("lattices.self_ms", "ms", "lower", lambda t: t.self_ms(*LATTICE_SPANS)),
        ("oracle.common_fixed_points.self_ms", "ms", "lower",
         lambda t: t.self_ms("oracle.common_fixed_points")),
        ("oracle.hits", "count", "higher", lambda t: t.extra("oracle.common_fixed_points", "hits")),
        ("cli.main_ms", "ms", "lower", lambda t: t.p50("cli.main", 1e3)),
    ]
    return rows


METRICS = _metrics()
PROBE_METRICS = (("cli.interpreter_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower"))


def from_probe(name: str, layers: tuple[str, ...]) -> bool:
    """Whether metric `name` belongs to one of `layers` (a metric name or a
    dotted prefix of one)."""
    return any(name == p or name.startswith(p + ".") for p in layers)


def layer_metrics(own: Tracer, probe: Tracer, probes: dict[str, float],
                  probe_layers: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Per-layer metrics. Those of `probe_layers`, which the workload does not
    exercise, are read from the probe round and all others from the
    workload's own spans. A span that was never entered reads 0.
    Returns the metrics and the names that read 0 that way."""
    out: dict[str, dict] = {}
    unreached = []
    for name, unit, _, value_of in METRICS:
        value = value_of(probe if from_probe(name, probe_layers) else own)
        if value is None:
            value = 0
            unreached.append(name)
        out[name] = {"value": value, "unit": unit}
    for name, unit, _ in PROBE_METRICS:
        out[name] = {"value": probes[name], "unit": unit}
    return out, unreached
