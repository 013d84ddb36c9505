"""The benchmark's tracer still sees every layer of a traced command.

`bench/tracer.py` patches the package's public layer functions at every
module binding. Code that calls a layer through a binding the tracer does
not patch would drop that layer from the benchmark's per-layer counts.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from forestbd import emit_dimacs, grid_formula

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("forestbd_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_reach_every_layer(tmp_path):
    tracing = load_tracer()
    modules = {name: importlib.import_module(f"forestbd.{name}") for name in tracing.SPANNED}
    original = modules["graphs"].shortest_cycle
    grid = tmp_path / "grid4.cnf"
    grid.write_text(emit_dimacs(grid_formula(4)), encoding="ascii")
    commands = [
        ["detect", "strong", "--cnf", str(grid), "-k", "1", "--json"],
        ["detect", "deletion", "--cnf", str(grid), "-k", "1", "--json"],
        ["count", "--cnf", str(grid), "--backdoor", "17", "--json"],
        ["stats", "--cnf", str(grid), "--json"],
        ["verify", "--kind", "deletion", "--set", "17", "--cnf", str(grid), "--json"],
    ]
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        with redirect_stdout(io.StringIO()):
            codes = [modules["cli"].main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert modules["graphs"].shortest_cycle is original
    assert codes == [0, 1, 0, 0, 1]

    spans, counts = tracer.take()
    assert counts["strong.designations"] > 0
    assert counts["workers.evaluated"] > 0

    def function(span):
        return tracer.keys[span[0]][0]

    def ancestors(span):
        parent = span[1]
        while parent >= 0:
            yield spans[parent]
            parent = spans[parent][1]

    # The input path and the graph walks are reached through their spanned
    # names, whatever calls them.
    called = {function(span) for span in spans}
    for name in (
        "formula.parse_dimacs",
        "graphs.incidence_graph",
        "graphs.is_acyclic",
        "graphs.residual_acyclic",
    ):
        assert name in called

    cycles = [span for span in spans if function(span) == "graphs.shortest_cycle"]
    assert cycles
    # The exact searches' own cycle queries are seen, not only the packing's.
    assert any(
        function(outer) == "strong.detect_deletion" for span in cycles for outer in ancestors(span)
    )


def test_every_spanned_name_resolves():
    tracing = load_tracer()
    for module, functions in tracing.SPANNED.items():
        namespace = importlib.import_module(f"forestbd.{module}")
        for qualified in functions:
            owner_name, _, attr = qualified.rpartition(".")
            if owner_name:
                # Methods are patched on the class, so each must be defined
                # there, `ClauseLiteralGraph.residual_acyclic` included.
                assert attr in vars(getattr(namespace, owner_name)), qualified
            else:
                assert callable(getattr(namespace, attr)), qualified
