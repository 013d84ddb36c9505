"""Outside-in tracing of forestbd's public layer functions.

`Tracer.install` replaces each listed function at every module binding
that holds it (the defining module's globals and each `from .x import`
name elsewhere in the package) and the listed methods on their classes.
Each call becomes a span (function, call site, start, end, parent). Spans
stay in memory until the run writes them out; nothing under `src/` knows
about the tracer.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from types import ModuleType
from typing import Callable, Iterable

# module -> spanned functions; "Class.method" names patch the class.
SPANNED = {
    "formula": ("parse_dimacs", "Formula.restrict", "Formula.without_variables"),
    "graphs": (
        "incidence_graph",
        "clause_literal_graph",
        "is_acyclic",
        "ClauseLiteralGraph.residual_acyclic",
        "shortest_cycle",
        "disjoint_cycles_or_feedback",
    ),
    "acyclic": ("count_models", "satisfying_assignment"),
    "backdoors": ("is_strong_backdoor", "weak_backdoor_witness", "is_deletion_backdoor"),
    "weak": ("detect_weak", "weak_exact_search"),
    "strong": ("detect_strong", "strong_exact_search", "detect_deletion", "count_with_backdoor"),
    "workers": ("first_hit", "all_true", "ordered_map"),
    "report": ("formula_digest", "RunReport.to_json"),
    "cli": ("main",),
}
# Functions returning a RuleOutcome: one call per designation.
RULE_FUNCTIONS = {"weak": "weak_rule_outcome", "strong": "strong_rule_outcome"}
RULE_IDS = {
    "weak": (
        "unkillable-cycle",
        "concentrated-killers",
        "dominant-killer",
        "killer-overlap-excess",
        "shared-killers",
    ),
    "strong": ("unkillable-cycle", "lone-killer", "killer-pair", "ubiquitous-killer", "saturated"),
}
# Report-statistics packing: disjoint_cycles_or_feedback reached through cli.
SITE_METRICS = {("graphs.disjoint_cycles_or_feedback", "cli"): "cli.packing.ms"}

# Spanned functions reported by time only; the pool helpers and `cli.main`
# are spanned for self time but get no metric of their own.
TIME_ONLY = {"detect_weak", "detect_strong", "detect_deletion", "count_with_backdoor", "to_json"}
UNREPORTED = {"workers", "cli"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Per-layer metrics in report order: (name, unit)."""
    names: list[tuple[str, str]] = []
    for module, functions in SPANNED.items():
        for qualified in () if module in UNREPORTED else functions:
            function = qualified.rpartition(".")[2]
            names.append((f"{module}.{function}.ms", "ms"))
            if function not in TIME_ONLY:
                names.append((f"{module}.{function}.calls", "count"))
        if module in RULE_IDS:
            names.append((f"{module}.designations", "count"))
            names += [(f"{module}.rule.{rule}", "count") for rule in RULE_IDS[module]]
        if module == "workers":
            names.append(("workers.evaluated", "count"))
        if module == "cli":
            names.append(("cli.packing.ms", "ms"))
        names.append((f"{module}.self_ms", "ms"))
    names.append(("trace.overhead_s", "s"))
    return names


class Tracer:
    """Span recorder. `keys[i]` is (function, module, site) for key id i;
    a span is [key id, parent span index, start ns, end ns, request], where
    the request is the index of the command that caused it."""

    def __init__(self) -> None:
        self.keys: list[tuple[str, str, str]] = []
        self._key_ids: dict[tuple[str, str, str], int] = {}
        self.request = [0]
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._wrapped: set = set()

    def install(self, modules: dict[str, ModuleType]) -> None:
        for module, functions in SPANNED.items():
            for qualified in functions:
                owner_name, _, attr = qualified.rpartition(".")
                if owner_name:
                    owner = getattr(modules[module], owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._span(original, f"{module}.{attr}", module, module))
                    continue
                original = getattr(modules[module], attr)
                for site, mod in modules.items():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            if module == "workers":
                                wrapper = self._worker(original, f"{module}.{attr}")
                            else:
                                wrapper = self._span(original, f"{module}.{attr}", module, site)
                            self._patch(mod, name, wrapper)
        for module, attr in RULE_FUNCTIONS.items():
            self._patch(modules[module], attr, self._rule(getattr(modules[module], attr), module))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._wrapped.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)
        self._wrapped.add(wrapper)

    def _key(self, function: str, module: str, site: str) -> int:
        key = (function, module, site)
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def _span(self, fn: Callable, function: str, module: str, site: str) -> Callable:
        key = self._key(function, module, site)
        spans = self.spans
        stack = self.stack
        request = self.request
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [key, stack[-1] if stack else -1, 0, 0, request[0]]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def _worker(self, fn: Callable, function: str) -> Callable:
        """A pool helper: spanned itself, and each evaluation of its `fn`
        is counted and spanned under the module that defined `fn`."""
        counts = self.counts

        def evaluate_with(inner: Callable) -> Callable:
            base = getattr(inner, "__func__", inner)
            if base in self._wrapped:
                traced_inner = inner
            else:
                module = inner.__module__.rpartition(".")[2]
                traced_inner = self._span(inner, f"{module}.{inner.__qualname__}", module, "workers")

            def counted(item):
                counts["workers.evaluated"] += 1
                return traced_inner(item)

            return counted

        return self._span(
            lambda inner, *args, **kwargs: fn(evaluate_with(inner), *args, **kwargs),
            function,
            "workers",
            "workers",
        )

    def _rule(self, fn: Callable, module: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            counts[f"{module}.designations"] += 1
            counts[f"{module}.rule.{outcome.rule}"] += 1
            return outcome

        return counted

    def take(self) -> tuple[list[list[int]], Counter]:
        """Spans and counters recorded since the last call."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def layer_values(self, spans: list[list[int]], counts: Counter) -> dict[str, float]:
        """Per-layer metrics of one pass. `.ms` is inclusive time of the
        outermost span of each function; `self_ms` subtracts child spans."""
        values: dict[str, float] = {name: 0.0 for name, _ in per_layer_metrics()}
        covered = [0] * len(spans)
        for record in spans:
            if record[1] >= 0:
                covered[record[1]] += record[3] - record[2]
        for index, (key, parent, start, end, _) in enumerate(spans):
            function, module, site = self.keys[key]
            duration = end - start
            self_key = f"{module}.self_ms"
            if self_key in values:
                values[self_key] += (duration - covered[index]) / 1e6
            calls = f"{function}.calls"
            if calls in values:
                values[calls] += 1
            outermost = True
            ancestor = parent
            while ancestor >= 0:
                if self.keys[spans[ancestor][0]][0] == function:
                    outermost = False
                    break
                ancestor = spans[ancestor][1]
            if outermost:
                if f"{function}.ms" in values:
                    values[f"{function}.ms"] += duration / 1e6
                site_metric = SITE_METRICS.get((function, site))
                if site_metric:
                    values[site_metric] += duration / 1e6
        for name, count in counts.items():
            values[name] = float(count)
        return values

    def write(self, path, passes: Iterable[tuple[int, list[list[int]]]], commands: list[str]) -> None:
        """One JSON header line naming span keys and commands, then one line
        per span: [pass, request, span index, parent index, key, start ns,
        end ns]. Span indices count from 0 within each pass."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps({"keys": self.keys, "commands": commands}) + "\n")
            for number, spans in passes:
                for index, (key, parent, start, end, request) in enumerate(spans):
                    handle.write(f"[{number},{request},{index},{parent},{key},{start},{end}]\n")
