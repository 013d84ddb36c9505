"""Command-line surface: exit codes, report schema, and determinism."""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    CyclePacking,
    Formula,
    disjoint_cycles_or_feedback,
    emit_dimacs,
    grid_formula,
    incidence_graph,
    parse_dimacs,
    shortest_cycle,
)
from forestbd import cli, report
from forestbd.cli import main
from forestbd.formula import is_emitted
from forestbd.strong import StrongParameters
from forestbd.weak import WeakParameters
from instances import disjoint_triangles, ring_formula


def run(argv, env=None):
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = {}
    if env:
        for key, value in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, stdout.getvalue(), stderr.getvalue()


def validate_report(payload: dict) -> None:
    """Raises jsonschema.ValidationError when the payload deviates from the
    report schema shipped in the package."""
    import jsonschema
    from importlib import resources

    text = resources.files("forestbd").joinpath("run_report_schema.json").read_text("utf-8")
    jsonschema.validate(payload, json.loads(text))


@pytest.fixture()
def grid3(tmp_path):
    path = tmp_path / "grid3.cnf"
    code, _, _ = run(["gen", "grid", "--size", "3", "-o", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "tri.cnf"
    path.write_text("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n", encoding="ascii")
    return str(path)


class TestExitCodes:
    def test_detect_found(self, grid3):
        code, out, _ = run(["detect", "strong", "--cnf", grid3, "-k", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "found"
        assert payload["backdoor"] == [10]

    def test_detect_no(self, grid3):
        code, out, _ = run(["detect", "deletion", "--cnf", grid3, "-k", "1", "--json"])
        assert code == 1
        assert json.loads(out)["verdict"] == "no"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_out_of_memory_is_a_resource_error(self, grid3, monkeypatch, json_flag):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "detect_weak", exhausted)
        argv = ["detect", "weak", "--cnf", grid3, "-k", "2", *json_flag]
        assert run(argv) == (3, "", "error: out of memory\n")

    def test_width_violation_is_usage_error(self, tmp_path):
        wide = tmp_path / "wide.cnf"
        wide.write_text("p cnf 4 2\n1 2 3 4 0\n1 2 0\n", encoding="ascii")
        code, _, err = run(["detect", "weak", "--cnf", str(wide), "-k", "1", "-r", "3"])
        assert code == 2
        assert "width" in err

    def test_missing_file(self):
        code, _, err = run(["stats", "--cnf", "/nonexistent.cnf"])
        assert code == 2

    def test_malformed_dimacs(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n1 -1 0\n", encoding="ascii")
        code, _, err = run(["stats", "--cnf", str(bad)])
        assert code == 2

    def test_non_ascii_dimacs(self, tmp_path):
        bad = tmp_path / "accent.cnf"
        bad.write_bytes("c café\np cnf 2 1\n1 2 0\n".encode("utf-8"))
        code, _, err = run(["stats", "--cnf", str(bad)])
        assert code == 2
        assert "not ASCII" in err

    @pytest.mark.parametrize(
        "text",
        ["p cnf 1_0 2\n1_0 -2 0\n1 0\n", "p cnf 2 1\n+1 -2 0\n", "p cnf +2 1\n1 0\n"],
        ids=["underscore", "plus-literal", "plus-header"],
    )
    def test_python_only_integers_in_dimacs(self, tmp_path, text):
        path = tmp_path / "spelled.cnf"
        path.write_text(text, encoding="ascii")
        code, out, err = run(["stats", "--cnf", str(path), "--json"])
        assert (code, out) == (2, "")
        assert "not plain decimal integers" in err

    @pytest.mark.parametrize(
        "ids",
        ["1_0", "1,\u0662", "\uff11", "2,+1"],
        ids=["underscore", "arabic-indic", "fullwidth", "plus"],
    )
    def test_python_only_integers_in_variable_lists(self, grid3, ids):
        for argv in (
            ["verify", "--cnf", grid3, "--kind", "strong", "--set", ids],
            ["count", "--cnf", grid3, "--backdoor", ids],
            ["gen", "hitting", "--sets", f"1;{ids}"],
        ):
            code, out, err = run(argv)
            assert (code, out) == (2, ""), argv
            assert "bad variable list" in err

    @pytest.mark.parametrize(
        "spelling",
        ["1_0", "+1", "\u0661", " 0_3 "],
        ids=["underscore", "plus", "arabic-indic", "padded-underscore"],
    )
    def test_python_only_integers_in_options(self, grid3, spelling):
        for argv in (
            ["detect", "weak", "--cnf", grid3, "-k", spelling],
            ["detect", "weak", "--cnf", grid3, "-k", "1", "-r", spelling],
            ["detect", "strong", "--cnf", grid3, "-k", spelling],
            ["oracle", "weak", "--cnf", grid3, "--k-max", spelling],
            ["stats", "--cnf", grid3, "--threads", spelling],
            ["gen", "grid", "--size", spelling],
            ["gen", "random", "-n", spelling, "-m", "3", "-r", "3", "--seed", "1"],
            ["gen", "random", "-n", "4", "-m", spelling, "-r", "3", "--seed", "1"],
            ["gen", "random", "-n", "4", "-m", "3", "-r", spelling, "--seed", "1"],
            ["gen", "random", "-n", "4", "-m", "3", "-r", "3", "--seed", spelling],
        ):
            code, out, err = run(argv)
            assert (code, out) == (2, ""), argv
            assert "invalid integer value" in err
        code, out, err = run(["stats", "--cnf", grid3], env={"FB_THREADS": spelling})
        assert (code, out) == (2, "")
        assert "FB_THREADS must be an integer" in err

    def test_plain_integers_in_options(self, grid3):
        assert run(["detect", "strong", "--cnf", grid3, "-k", " 1 "])[0] == 0
        assert run(["stats", "--cnf", grid3], env={"FB_THREADS": " 2 "})[0] == 0
        code, _, err = run(["detect", "strong", "--cnf", grid3, "-k", "-1"])
        assert code == 2
        assert "budget must be >= 0" in err
        code, out, _ = run(["gen", "random", "-n", "4", "-m", "3", "-r", "2", "--seed", "-5"])
        assert code == 0
        assert out.startswith("p cnf 4 3\n")

    def test_resource_guard(self, triangle_file):
        code, _, err = run(["detect", "strong", "--cnf", triangle_file, "-k", "9"])
        assert code == 3

    def test_oracle_negative_budget_is_usage_error(self, triangle_file):
        code, out, err = run(["oracle", "weak", "--cnf", triangle_file, "--k-max", "-1"])
        assert code == 2 and out == ""
        assert "must be >= 0" in err

    def test_oracle_budget_guard(self, triangle_file):
        code, out, err = run(["oracle", "weak", "--cnf", triangle_file, "--k-max", "5"])
        assert code == 3 and out == ""
        assert "search budget" in err

    def test_header_variable_cap(self, tmp_path):
        huge = tmp_path / "huge.cnf"
        huge.write_text("p cnf 2000000 0\n", encoding="ascii")
        code, _, err = run(["stats", "--cnf", str(huge)])
        assert code == 3
        assert "2000000" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["grid", "--size", "1000"],
            ["random", "-n", "1000001", "-m", "0", "-r", "1", "--seed", "0"],
            ["hitting", "--sets", "1000000"],
        ],
        ids=["grid", "random", "hitting"],
    )
    def test_generator_variable_cap(self, argv):
        # Each universe exceeds the DIMACS header cap by a little, so the
        # guard must trip before the formula is built.
        code, out, err = run(["gen", *argv])
        assert code == 3
        assert out == ""
        assert "1000000" in err

    def test_designation_guard(self, tmp_path):
        # 133 disjoint triangles reach the packing route of strong detection
        # at k=4, which has C(133, 4) designations.
        path = tmp_path / "triangles.cnf"
        path.write_text(emit_dimacs(disjoint_triangles(133)), encoding="ascii")
        code, _, err = run(["detect", "strong", "--cnf", str(path), "-k", "4"])
        assert code == 3
        assert "designations" in err

    def test_weak_designation_guard(self, tmp_path):
        # Weak detection at k packs 2k + 1 cycles: 21 triangles at k=10 have
        # C(21, 10) designations, while k=9 has C(19, 9) = 92,378, in range.
        path = tmp_path / "triangles.cnf"
        path.write_text(emit_dimacs(disjoint_triangles(21)), encoding="ascii")
        code, out, err = run(["detect", "weak", "--cnf", str(path), "-k", "10"])
        assert (code, out) == (3, "")
        assert "refusing to enumerate 352716 designations (limit 100000)" in err
        code, out, _ = run(["detect", "weak", "--cnf", str(path), "-k", "9"])
        assert (code, out) == (1, "verdict: no\n")

    def test_count_rejects_non_backdoor(self, triangle_file):
        code, _, err = run(["count", "--cnf", triangle_file, "--backdoor", ""])
        assert code == 2
        assert "not a strong backdoor" in err

    def test_usage_error(self):
        code, _, _ = run(["detect", "strong"])
        assert code == 2

    def test_verify_exit_codes(self, grid3):
        assert run(["verify", "--cnf", grid3, "--kind", "strong", "--set", "10"])[0] == 0
        assert run(["verify", "--cnf", grid3, "--kind", "strong", "--set", "1"])[0] == 1
        assert run(["verify", "--cnf", grid3, "--kind", "weak", "--set", ""])[0] == 1

    def test_oracle_exit_codes(self, grid3, triangle_file):
        assert run(["oracle", "strong", "--cnf", grid3, "--k-max", "1"])[0] == 0
        two = "p cnf 4 6\n1 2 0\n-1 2 0\n1 -2 0\n3 4 0\n-3 4 0\n3 -4 0\n"
        path = os.path.join(os.path.dirname(grid3), "two.cnf")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(two)
        assert run(["oracle", "strong", "--cnf", path, "--k-max", "1"])[0] == 1


_TOKENS = st.one_of(
    st.integers(-6, 6).map(str),
    st.sampled_from(["0", "-", "+1", "x", "p", "cnf", "1.5", "--2", "c", "99999999999"]),
)
# Header counts stay small, or above the variable cap, so every example runs
# in milliseconds.
_HEADERS = st.builds(
    "p cnf {} {}".format,
    st.one_of(st.integers(-1, 6), st.integers(1_000_001, 10**12)),
    st.integers(-1, 6),
)
_LINES = st.one_of(
    _HEADERS.map(str.encode),
    st.lists(_TOKENS, max_size=6).map(lambda tokens: " ".join(tokens).encode()),
    st.text(max_size=8).map(lambda text: ("c " + text).encode("utf-8")),
    st.sampled_from([b"p cnf", b"p dnf 1 1", b"p cnf 2", b""]),
    st.binary(max_size=4),
)
_WELL_FORMED = st.lists(
    st.lists(st.integers(1, 5).flatmap(lambda v: st.sampled_from([v, -v])), max_size=3),
    max_size=6,
).map(
    lambda clauses: (
        f"p cnf 5 {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    ).encode()
)
_DIMACS = st.builds(
    lambda body, cut: body[:cut],
    st.one_of(_WELL_FORMED, st.lists(_LINES, max_size=8).map(b"\n".join)),
    st.one_of(st.none(), st.integers(0, 80)),
)


class TestExitCodeFuzz:
    @given(_DIMACS)
    @settings(max_examples=150, deadline=None)
    def test_malformed_dimacs_never_escapes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "input.cnf"
        path.write_bytes(data)
        for argv in (["stats"], ["count"], ["detect", "weak", "-k", "1"]):
            code, _, _ = run(argv + ["--cnf", str(path)])
            assert code in (0, 1, 2, 3), (argv, data)


class TestReports:
    def test_all_commands_validate_against_schema(self, grid3, triangle_file, tmp_path):
        out_path = str(tmp_path / "gen.cnf")
        cases = [
            ["detect", "weak", "--cnf", grid3, "-k", "1", "--json", "--no-timing"],
            ["detect", "strong", "--cnf", grid3, "-k", "1", "--json", "--no-timing"],
            ["detect", "deletion", "--cnf", grid3, "-k", "1", "--json", "--no-timing"],
            ["count", "--cnf", triangle_file, "--backdoor", "1", "--json", "--no-timing"],
            ["count", "--cnf", triangle_file, "--json", "--no-timing"],
            ["verify", "--cnf", grid3, "--kind", "weak", "--set", "10", "--json", "--no-timing"],
            ["verify", "--cnf", grid3, "--kind", "deletion", "--set", "10", "--json", "--no-timing"],
            ["oracle", "weak", "--cnf", triangle_file, "--k-max", "2", "--json", "--no-timing"],
            ["oracle", "count", "--cnf", grid3, "--json", "--no-timing"],
            ["stats", "--cnf", grid3, "--json", "--no-timing"],
            ["gen", "grid", "--size", "2", "-o", out_path, "--json", "--no-timing"],
            ["gen", "hitting", "--sets", "1,2;2,3", "-o", out_path, "--json", "--no-timing"],
            ["gen", "random", "-n", "5", "-m", "5", "-r", "3", "--seed", "7", "-o", out_path, "--json", "--no-timing"],
        ]
        for argv in cases:
            code, out, err = run(argv)
            assert code in (0, 1), (argv, err)
            payload = json.loads(out)
            validate_report(payload)

    def test_witness_only_for_weak(self, grid3):
        _, weak_out, _ = run(["detect", "weak", "--cnf", grid3, "-k", "1", "--json"])
        _, strong_out, _ = run(["detect", "strong", "--cnf", grid3, "-k", "1", "--json"])
        assert json.loads(weak_out)["witness"] is not None
        assert json.loads(strong_out)["witness"] is None

    def test_count_only_for_count_commands(self, grid3, triangle_file):
        _, count_out, _ = run(["count", "--cnf", triangle_file, "--backdoor", "1", "--json"])
        _, detect_out, _ = run(["detect", "strong", "--cnf", grid3, "-k", "1", "--json"])
        assert json.loads(count_out)["count"] == 1
        assert json.loads(detect_out)["count"] is None

    def test_reported_sets_are_the_checked_sets(self, grid3):
        # Repeated ids name one variable: the report gives each id once.
        verify = ["verify", "--cnf", grid3, "--kind", "strong", "--json"]
        code, out, _ = run(verify + ["--set", "10,10"])
        assert code == 0 and json.loads(out)["parameters"]["set"] == [10]
        code, out, _ = run(verify + ["--set", "10,1,10"])
        assert code == 0 and json.loads(out)["parameters"]["set"] == [1, 10]
        code, out, _ = run(["count", "--cnf", grid3, "--backdoor", "10,10", "--json"])
        assert code == 0 and json.loads(out)["parameters"]["backdoor"] == [10]

    def test_count_matches_oracle(self, grid3):
        _, count_out, _ = run(["count", "--cnf", grid3, "--json"])
        _, oracle_out, _ = run(["oracle", "count", "--cnf", grid3, "--json"])
        assert json.loads(count_out)["count"] == json.loads(oracle_out)["count"]

    def test_dichotomy_statistic_present(self, grid3):
        _, out, _ = run(["detect", "strong", "--cnf", grid3, "-k", "1", "--json"])
        stats = json.loads(out)["stats"]
        assert (stats["packing_size"] is None) != (stats["fvs_size"] is None)

    @pytest.mark.parametrize("name", ["forest", "grid4", "triangles"])
    def test_dichotomy_statistic_matches_packing(self, tmp_path, name):
        formula = {
            "forest": Formula.from_ints([[1, 2], [-2, 3, 4], [4, -5], [3, 6, 7]], num_vars=7),
            "grid4": grid_formula(4),
            "triangles": Formula.from_ints(
                [c for i in range(0, 20, 2) for c in ([i + 1, i + 2], [-i - 1, i + 2], [i + 1, -i - 2])],
                num_vars=20,
            ),
        }[name]
        path = tmp_path / f"{name}.cnf"
        path.write_text(emit_dimacs(formula), encoding="ascii")
        graph = incidence_graph(formula).graph
        for kind in ("weak", "strong"):
            for budget in (0, 1, 2):
                code, out, _ = run(["detect", kind, "--cnf", str(path), "-k", str(budget), "--json"])
                assert code in (0, 1)
                stats = json.loads(out)["stats"]
                expected = (None, None)
                if budget > 0:
                    if kind == "weak":
                        params = WeakParameters.derive(budget, max(3, formula.max_clause_width()))
                    else:
                        params = StrongParameters.derive(budget)
                    split = disjoint_cycles_or_feedback(graph, params.cycles)
                    if isinstance(split, CyclePacking):
                        expected = (len(split.cycles), None)
                    else:
                        expected = (None, len(split.nodes))
                if name == "forest" and budget > 0:
                    assert expected == (None, 0)
                assert (stats["packing_size"], stats["fvs_size"]) == expected, (kind, budget)

    def test_input_path_is_the_file_read_or_written(self, grid3, triangle_file, tmp_path):
        for argv in (
            ["detect", "weak", "--cnf", grid3, "-k", "1"],
            ["count", "--cnf", triangle_file],
            ["verify", "--cnf", grid3, "--kind", "deletion", "--set", "10"],
            ["oracle", "strong", "--cnf", triangle_file, "--k-max", "1"],
            ["oracle", "count", "--cnf", triangle_file],
            ["stats", "--cnf", grid3],
        ):
            code, out, _ = run(argv + ["--json"])
            assert code in (0, 1), argv
            assert json.loads(out)["input"]["path"] == argv[argv.index("--cnf") + 1], argv
        out_path = str(tmp_path / "gen.cnf")
        code, out, _ = run(["gen", "grid", "--size", "2", "-o", out_path, "--json"])
        assert code == 0
        assert json.loads(out)["input"]["path"] == out_path

    def test_stats_shortest_cycle_serialization(self, grid3):
        _, out, _ = run(["stats", "--cnf", grid3, "--json"])
        stats = json.loads(out)["stats"]
        assert stats["acyclic"] is False
        cycle = stats["shortest_cycle"]
        assert cycle is not None and len(cycle) >= 4
        assert {entry["kind"] for entry in cycle} == {"var", "clause"}


def test_detect_weak_reads_clause_widths_once(grid3, monkeypatch):
    widths = Formula.__dict__["length_and_width"]
    reads = []

    def counted(formula):
        reads.append(formula)
        return widths.func(formula)

    spied = functools.cached_property(counted)
    spied.__set_name__(Formula, "length_and_width")
    monkeypatch.setattr(Formula, "length_and_width", spied)
    code, out, _ = run(["detect", "weak", "--cnf", grid3, "-k", "1", "--json", "--no-timing"])
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["r"] == max(3, report["stats"]["width"])
    assert len(reads) == 1


class TestWallTime:
    def test_wall_ms_covers_loading(self, grid3, monkeypatch):
        parse = cli.parse_dimacs

        def slow_parse(text):
            time.sleep(0.05)
            return parse(text)

        monkeypatch.setattr(cli, "parse_dimacs", slow_parse)
        for argv in (
            ["detect", "strong", "--cnf", grid3, "-k", "1"],
            ["count", "--cnf", grid3, "--backdoor", "10"],
            ["verify", "--cnf", grid3, "--kind", "strong", "--set", "10"],
            ["oracle", "count", "--cnf", grid3],
            ["stats", "--cnf", grid3],
        ):
            _, out, _ = run(argv + ["--json"])
            assert json.loads(out)["wall_ms"] >= 50, argv
            _, out, _ = run(argv + ["--json", "--no-timing"])
            assert json.loads(out)["wall_ms"] == 0, argv


def test_cli_import_leaves_out_numpy_and_jsonschema():
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, forestbd.cli; from forestbd import brute_count, grid_formula; "
        "f = grid_formula(2); assert brute_count(f, f.universe) == 18; "
        "print(sorted({'numpy', 'jsonschema'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"


class TestHumanOutput:
    def test_detect_lines(self, grid3):
        code, out, _ = run(["detect", "weak", "--cnf", grid3, "-k", "1"])
        assert code == 0
        assert out.splitlines()[0] == "verdict: found"
        assert "backdoor: 10" in out
        assert "witness: 10=" in out

    def test_count_beyond_int_str_digit_limit(self, tmp_path):
        # 3 * 2**14998 has 4,516 digits, past Python's default limit of 4,300.
        wide = tmp_path / "wide.cnf"
        wide.write_text("p cnf 15000 1\n1 2 0\n", encoding="ascii")
        limit = sys.get_int_max_str_digits()
        json_code, json_out, _ = run(["count", "--cnf", str(wide), "--json", "--no-timing"])
        text_code, text_out, _ = run(["count", "--cnf", str(wide)])
        assert sys.get_int_max_str_digits() == limit
        assert json_code == text_code == 0
        sys.set_int_max_str_digits(0)
        try:
            expected = 3 * 2**14998
            assert json.loads(json_out)["count"] == expected
            assert text_out == f"count: {expected}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_count_is_written_in_decimal_only_for_text(self, triangle_file):
        formula = parse_dimacs(Path(triangle_file).read_text(encoding="ascii"))
        for flags, lines in (([], ["count: 1"]), (["--json"], [])):
            args = cli.parse_command(["count", "--cnf", triangle_file, *flags])
            assert cli._cmd_count(args, formula)[1] == lines

    def test_count_line(self, triangle_file):
        _, out, _ = run(["count", "--cnf", triangle_file, "--backdoor", "1"])
        assert out.strip() == "count: 1"

    def test_stats_lines(self, grid3):
        code, out, _ = run(["stats", "--cnf", grid3])
        assert code == 0
        assert out == "variables: 10\nclauses: 12\nlength: 36\nwidth: 3\nacyclic: false\n"

    def test_detect_no_prints_only_the_verdict(self, grid3):
        assert run(["detect", "deletion", "--cnf", grid3, "-k", "1"]) == (1, "verdict: no\n", "")

    def test_verify_lines(self, grid3):
        verify = ["verify", "--cnf", grid3, "--kind", "strong", "--set"]
        assert run(verify + ["10"]) == (0, "verdict: valid\n", "")
        assert run(verify + ["1"]) == (1, "verdict: invalid\n", "")

    def test_oracle_lines(self, grid3, triangle_file):
        weak = ["oracle", "weak", "--cnf", triangle_file]
        assert run(weak + ["--k-max", "2"]) == (0, "optimum: 1\nwitnesses: 2\n", "")
        assert run(weak + ["--k-max", "0"]) == (1, "optimum: None\nwitnesses: 0\n", "")
        assert run(["oracle", "count", "--cnf", grid3]) == (0, "count: 250\n", "")

    def test_gen_to_file_prints_nothing(self, tmp_path):
        path = tmp_path / "g.cnf"
        assert run(["gen", "grid", "--size", "2", "-o", str(path)]) == (0, "", "")
        assert path.read_text(encoding="ascii").startswith("p cnf 5 4\n")


class TestGen:
    def test_grid_round_trips(self, tmp_path):
        path = tmp_path / "g.cnf"
        code, _, _ = run(["gen", "grid", "--size", "2", "-o", str(path)])
        assert code == 0
        from forestbd import grid_formula, parse_dimacs

        assert parse_dimacs(path.read_text()) == grid_formula(2)

    def test_stdout_when_no_output(self):
        code, out, _ = run(["gen", "random", "-n", "4", "-m", "3", "-r", "2", "--seed", "1"])
        assert code == 0
        assert out.startswith("p cnf 4 3\n")

    def test_json_requires_output_file(self):
        code, _, err = run(["gen", "grid", "--size", "2", "--json"])
        assert code == 2

    def test_bad_sets_argument(self):
        code, _, _ = run(["gen", "hitting", "--sets", "1,2;;3"])
        assert code == 2


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, grid3, triangle_file):
        battery = [
            ["detect", "weak", "--cnf", grid3, "-k", "1", "--json", "--no-timing"],
            ["detect", "strong", "--cnf", grid3, "-k", "1", "--json", "--no-timing"],
            ["count", "--cnf", triangle_file, "--backdoor", "1", "--json", "--no-timing"],
            ["stats", "--cnf", grid3, "--json", "--no-timing"],
        ]
        for argv in battery:
            one = run(argv + ["--threads", "1"])
            again = run(argv + ["--threads", "1"])
            four = run(argv + ["--threads", "4"])
            assert one == again == four

    def test_fb_threads_env_default(self, grid3):
        argv = ["detect", "strong", "--cnf", grid3, "-k", "1", "--json", "--no-timing"]
        via_env = run(argv, env={"FB_THREADS": "3"})
        explicit = run(argv + ["--threads", "3"])
        plain = run(argv + ["--threads", "1"])
        assert via_env[0] == 0
        assert via_env == explicit == plain

    def test_bad_fb_threads_is_usage_error(self, grid3):
        for argv in (
            ["detect", "strong", "--cnf", grid3, "-k", "1"],
            ["oracle", "count", "--cnf", grid3],
            ["gen", "grid", "--size", "2"],
        ):
            code, out, _ = run(argv, env={"FB_THREADS": "zebra"})
            assert (code, out) == (2, ""), argv
        # An explicit --threads wins over the environment variable.
        code, _, _ = run(["stats", "--cnf", grid3, "--threads", "1"], env={"FB_THREADS": "zebra"})
        assert code == 0

    def test_zero_threads_is_usage_error(self, grid3, tmp_path):
        for argv in (["oracle", "count", "--cnf", grid3], ["stats", "--cnf", grid3]):
            code, _, _ = run(argv + ["--threads", "0"])
            assert code == 2
        # The thread count is checked before the input is read, so it wins
        # over the DIMACS header guard (exit 3).
        huge = tmp_path / "huge.cnf"
        huge.write_text("p cnf 2000000 0\n", encoding="ascii")
        code, _, err = run(["stats", "--cnf", str(huge), "--threads", "0"])
        assert code == 2
        assert "thread count" in err


class TestParserReuse:
    def corpus(self, grid3, triangle_file, tmp_path):
        return [
            ["--help"],
            *([command, "--help"] for command in ("detect", "count", "verify", "oracle", "stats", "gen")),
            ["gen", "grid", "--help"],
            [],
            ["gen"],
            ["stats", "--cnf", grid3, "--bogus"],
            ["detect", "weak", "--cnf", grid3, "-k", "x"],
            ["stats", "--cnf", grid3, "--threads", "+1"],
            ["stats", "--cnf", grid3, "--threads", "0"],
            ["detect", "strong", "--cnf", grid3, "-k", "1", "--json", "--no-timing"],
            ["count", "--cnf", triangle_file, "--json", "--no-timing"],
            ["verify", "--cnf", grid3, "--kind", "weak", "--set", "10"],
            ["oracle", "strong", "--cnf", triangle_file, "--k-max", "1"],
            ["stats", "--cnf", grid3],
            ["gen", "hitting", "--sets", "1,2;2,3", "-o", str(tmp_path / "h.cnf"), "--json", "--no-timing"],
            ["gen", "grid", "--size", "2"],
        ]

    def test_one_parser_gives_the_same_outcomes(self, grid3, triangle_file, tmp_path):
        corpus = self.corpus(grid3, triangle_file, tmp_path)
        first = [run(argv) for argv in corpus]
        again = [run(argv) for argv in corpus]
        backwards = [run(argv) for argv in reversed(corpus)][::-1]
        assert first == again == backwards
        codes = [code for code, _, _ in first]
        assert codes == [0] * 8 + [2] * 6 + [0] * 7
        assert "usage: forestbd" in first[0][1]
        assert all("usage: forestbd" in err for _, _, err in first[8:13])
        assert "thread count" in first[13][2]
        assert cli.build_parser() is cli.build_parser()

    def parity_corpus(self, grid3, triangle_file, tmp_path):
        return [
            *self.corpus(grid3, triangle_file, tmp_path),
            ["stats", "--cnf", grid3, "--json", "-h"],
            ["count", "--cnf", triangle_file, "--js", "--no-t"],
            ["count", "--h"],
            ["stats", "--cnf", grid3, "--json", "--bogus"],
            ["stats", "--cnf", grid3, "extra"],
            ["stats", "--cnf", grid3, "--", "extra"],
            ["detect", "--cnf", grid3, "-k", "1"],
            ["gen", "random", "-n", "5", "-m", "4", "-r", "3", "--seed", "1"],
            ["gen", "grid", "--size", "2", "extra"],
            ["gen", "cube", "--size", "2"],
            ["frobnicate", "--cnf", grid3],
            ["--json", "stats", "--cnf", grid3],
            [],
        ]

    @staticmethod
    def full_parse(argv):
        return cli.build_parser().parse_args(argv)

    def test_one_pass_matches_the_full_parser(self, grid3, triangle_file, tmp_path, monkeypatch):
        corpus = self.parity_corpus(grid3, triangle_file, tmp_path)
        direct = [run(argv) for argv in corpus]
        monkeypatch.setattr(cli, "parse_command", self.full_parse)
        assert [run(argv) for argv in corpus] == direct
        assert [code for code, _, _ in direct[-13:]] == [0, 0, 0, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2]

    def test_one_pass_gives_the_full_parsers_namespace(self, grid3, triangle_file, tmp_path):
        parsed = 0
        for argv in self.parity_corpus(grid3, triangle_file, tmp_path):
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    expected = self.full_parse(argv)
            except SystemExit:
                continue
            assert cli.parse_command(argv) == expected, argv
            parsed += 1
        assert parsed == 10

    def test_a_well_formed_command_parses_once(self, grid3, triangle_file, tmp_path, monkeypatch):
        seen = []
        parse = argparse.ArgumentParser.parse_known_args

        def spied(self, *args, **kwargs):
            seen.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spied)
        cases = [
            (["count", "--cnf", triangle_file, "--json", "--no-timing"], ["forestbd count"]),
            (["detect", "weak", "--cnf", grid3, "-k", "1"], ["forestbd detect"]),
            (["gen", "grid", "--size", "2", "-o", str(tmp_path / "g.cnf")], ["forestbd gen", "forestbd gen grid"]),
        ]
        for argv, parsers in cases:
            seen.clear()
            assert run(argv)[0] == 0, argv
            assert seen == parsers, argv

    def test_built_on_first_main_call_only(self):
        src = Path(cli.__file__).resolve().parents[1]
        probe = (
            "import argparse, io, contextlib\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import forestbd.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert forestbd.cli.main(['gen', 'grid', '--size', '2']) == 0\n"
            "    counts.append(len(built))\n"
            "print(counts)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        before, first, second = json.loads(result.stdout)
        assert before == 0
        assert first > 0
        assert second == first


def test_count_without_backdoor_builds_one_graph(tmp_path, monkeypatch):
    from forestbd import acyclic, backdoors, graphs, strong, weak

    path = tmp_path / "grid4.cnf"
    path.write_text(emit_dimacs(grid_formula(4)), encoding="ascii")
    builds = []
    build = graphs.incidence_graph

    def counted(formula):
        builds.append(formula)
        return build(formula)

    for module in (graphs, acyclic, backdoors, strong, weak, cli):
        monkeypatch.setattr(module, "incidence_graph", counted, raising=False)
    code, out, _ = run(["count", "--cnf", str(path), "--json", "--no-timing"])
    assert code == 0
    assert json.loads(out)["parameters"]["backdoor"] == [17]
    assert len(builds) == 1


# (text, whether it is exactly `emit_dimacs` of its parse)
DIGEST_CORPUS = {
    "canonical": ("p cnf 3 2\n1 -2 0\n-2 3 0\n", True),
    "no-clauses": ("p cnf 0 0\n", True),
    "empty-clause": ("p cnf 2 2\n0\n1 2 0\n", True),
    "header-n-above-largest": ("p cnf 5 1\n1 -2 0\n", True),
    "comment": ("c written by hand\np cnf 2 1\n1 2 0\n", False),
    "crlf": ("p cnf 2 1\r\n1 2 0\r\n", False),
    "double-space": ("p cnf 2 1\n1  2 0\n", False),
    "leading-zero": ("p cnf 2 1\n01 2 0\n", False),
    "no-final-newline": ("p cnf 2 1\n1 2 0", False),
    "unsorted": ("p cnf 2 1\n2 1 0\n", False),
    "duplicate-literal": ("p cnf 2 1\n1 1 2 0\n", False),
    "header-extra-spaces": ("p  cnf 2 1\n1 2 0\n", False),
    "header-leading-zero": ("p cnf 02 1\n1 2 0\n", False),
    "clause-over-two-lines": ("p cnf 2 1\n1\n2 0\n", False),
    "trailing-blank-line": ("p cnf 2 1\n1 2 0\n\n", False),
}


class TestInputDigest:
    @pytest.mark.parametrize("name", DIGEST_CORPUS)
    def test_digest_hashes_the_canonical_dimacs(self, tmp_path, name):
        text, emitted = DIGEST_CORPUS[name]
        path = tmp_path / "input.cnf"
        path.write_bytes(text.encode("ascii"))
        formula = parse_dimacs(text)
        assert is_emitted(text, formula) is emitted
        expected = hashlib.sha256(emit_dimacs(formula).encode("ascii")).hexdigest()
        for argv in (["stats"], ["count", "--backdoor", ""]):
            code, out, _ = run([*argv, "--cnf", str(path), "--json", "--no-timing"])
            assert code == 0
            assert json.loads(out)["input"]["sha256"] == expected, argv

    def test_canonical_input_skips_serialising(self, tmp_path, monkeypatch):
        emitted = []
        emit = report.emit_dimacs

        def counted(formula):
            emitted.append(formula)
            return emit(formula)

        monkeypatch.setattr(report, "emit_dimacs", counted)
        path = tmp_path / "grid4.cnf"
        code, _, _ = run(["gen", "grid", "--size", "4", "-o", str(path)])
        assert code == 0
        code, out, _ = run(["stats", "--cnf", str(path), "--json", "--no-timing"])
        assert code == 0
        assert emitted == []
        assert json.loads(out)["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        path.write_text("c comment\n" + path.read_text())
        code, _, _ = run(["stats", "--cnf", str(path), "--json", "--no-timing"])
        assert code == 0
        assert len(emitted) == 1

    def test_gen_hashes_the_text_it_writes(self, tmp_path, monkeypatch):
        emitted = []

        def counted(emit):
            def call(formula):
                emitted.append(formula)
                return emit(formula)

            return call

        for module in (cli, report):
            monkeypatch.setattr(module, "emit_dimacs", counted(module.emit_dimacs))
        path = tmp_path / "grid10.cnf"
        code, out, _ = run(["gen", "grid", "--size", "10", "-o", str(path), "--json"])
        assert code == 0
        assert len(emitted) == 1
        assert json.loads(out)["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_canonical_check_memory(self, tmp_path, monkeypatch):
        # A path of 20,000 two-literal clauses: an acyclic forest. The check
        # matches one line at a time; one nested pattern over the whole body
        # would peak at about 38 times the text size.
        count = 20_000
        formula = Formula.from_ints(
            [[-v if v % 3 else v, v + 1] for v in range(1, count + 1)], num_vars=count + 1
        )
        path = tmp_path / "forest.cnf"
        text = emit_dimacs(formula)
        path.write_text(text, encoding="ascii")
        parse = cli.parse_dimacs
        loaded = []

        def parse_then_mark(text):
            parsed = parse(text)
            tracemalloc.reset_peak()
            loaded.append(tracemalloc.get_traced_memory()[0])
            return parsed

        monkeypatch.setattr(cli, "parse_dimacs", parse_then_mark)
        parser = cli.build_parser()
        args = parser.parse_args(["stats", "--cnf", str(path), "--json"])
        tracemalloc.start()
        try:
            _, digest = cli._load(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(text.encode("ascii")).hexdigest()
        assert peak - loaded[0] < 8 * len(text)


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_restored_after_every_exit(self, tmp_path, triangle_file, enabled):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n1 x 0\n", encoding="ascii")
        huge = tmp_path / "huge.cnf"
        huge.write_text("p cnf 2000000 0\n", encoding="ascii")
        cases = [
            (["stats", "--cnf", triangle_file, "--json"], 0),
            (["stats", "--cnf", triangle_file], 0),
            (["detect", "deletion", "--cnf", triangle_file, "-k", "0"], 1),
            (["stats", "--cnf", str(bad)], 2),
            (["stats", "--cnf", str(huge)], 3),
        ]
        saved = gc.isenabled()
        try:
            for argv, expected in cases:
                gc.enable() if enabled else gc.disable()
                code, _, _ = run(argv)
                assert code == expected, argv
                assert gc.isenabled() is enabled, argv
        finally:
            gc.enable() if saved else gc.disable()

    def test_assignment_walks_leave_no_cycles(self, tmp_path):
        # The conditioning and completion walks were recursive closures,
        # each referring to itself through its cell: garbage that only the
        # paused collector could free.
        path = tmp_path / "grid4.cnf"
        path.write_text(emit_dimacs(grid_formula(4)), encoding="ascii")
        commands = [
            ["count", "--backdoor", "17"],
            ["verify", "--kind", "weak", "--set", "1,17"],
            ["detect", "strong", "-k", "2"],
        ]
        saved = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for argv in commands:
                assert run([*argv, "--cnf", str(path)])[0] == 0, argv
            walks = [
                o for o in gc.get_objects()
                if isinstance(o, types.FunctionType) and o.__qualname__.endswith("<locals>.walk")
            ]
        finally:
            gc.enable() if saved else gc.disable()
        assert walks == []

    def test_json_commands_leave_no_cyclic_garbage(self, tmp_path):
        # The `json` module's indented encoder left its closures in
        # reference cycles, and so did the recursive searches.
        path = tmp_path / "grid4.cnf"
        path.write_text(emit_dimacs(grid_formula(4)), encoding="ascii")
        commands = [
            ["count"],
            ["count", "--backdoor", "17"],
            ["detect", "weak", "-k", "1"],
            ["detect", "strong", "-k", "2"],
            ["detect", "deletion", "-k", "2"],
            ["verify", "--kind", "weak", "--set", "1,17"],
            ["verify", "--kind", "strong", "--set", "17"],
            ["verify", "--kind", "deletion", "--set", "17"],
            ["stats"],
        ]
        saved = gc.isenabled()
        left = []
        try:
            for argv in commands:
                argv = [*argv, "--cnf", str(path), "--json"]
                assert run(argv)[0] in (0, 1), argv
                gc.collect()
                gc.disable()
                run(argv)
                left.append(gc.collect())
        finally:
            gc.enable() if saved else gc.disable()
        assert left == [0] * len(commands)

    def test_paused_during_the_command(self, triangle_file, monkeypatch):
        seen = []
        parse = cli.parse_dimacs

        def observed(text):
            seen.append(gc.isenabled())
            return parse(text)

        monkeypatch.setattr(cli, "parse_dimacs", observed)
        saved = gc.isenabled()
        gc.enable()
        try:
            assert run(["stats", "--cnf", triangle_file])[0] == 0
            assert gc.isenabled()
        finally:
            gc.enable() if saved else gc.disable()
        assert seen == [False]


def test_stats_text_skips_the_cycle_search(monkeypatch, tmp_path):
    path = tmp_path / "grid4.cnf"
    path.write_text(emit_dimacs(grid_formula(4)), encoding="ascii")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shortest_cycle(*args, **kwargs)

    monkeypatch.setattr(cli, "shortest_cycle", counted)
    code, out, _ = run(["stats", "--cnf", str(path)])
    assert code == 0
    assert out == "variables: 17\nclauses: 24\nlength: 72\nwidth: 3\nacyclic: false\n"
    assert calls == []
    code, out, _ = run(["stats", "--cnf", str(path), "--json", "--no-timing"])
    assert code == 0
    assert len(calls) == 1
    expected = shortest_cycle(incidence_graph(grid_formula(4)).graph).to_json()
    assert json.loads(out)["stats"]["shortest_cycle"] == expected


class TestLongRing:
    """A 20,000-variable ring: the clauses i ∨ i+1, closed by 1 ∨ 20000. Its
    one cycle is 40,000 nodes long, and every command that searches it
    stays linear in that length."""

    LENGTH = 20_000
    # Each command takes well under a second; a search quadratic in the
    # ring's length takes minutes.
    BOUND_S = 15.0

    @pytest.fixture(scope="class")
    def ring(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ring") / "ring.cnf"
        path.write_text(emit_dimacs(ring_formula(self.LENGTH)), encoding="ascii")
        return str(path)

    def timed(self, argv):
        start = time.perf_counter()
        outcome = run(argv)
        assert time.perf_counter() - start < self.BOUND_S
        return outcome

    def test_stats(self, ring):
        code, out, _ = self.timed(["stats", "--cnf", ring, "--json", "--no-timing"])
        assert code == 0
        assert len(json.loads(out)["stats"]["shortest_cycle"]) == 2 * self.LENGTH

    @pytest.mark.parametrize("kind, k", [("deletion", 1), ("weak", 1), ("strong", 3)])
    def test_detect(self, ring, kind, k):
        code, out, _ = self.timed(["detect", kind, "--cnf", ring, "-k", str(k)])
        assert code == 0 and "backdoor: 1\n" in out

    def test_count(self, ring):
        code, out, _ = self.timed(["count", "--cnf", ring])
        # A ring's models set no two neighbours False: the Lucas number L(n).
        previous, lucas = 2, 1
        for _ in range(self.LENGTH - 1):
            previous, lucas = lucas, previous + lucas
        assert (code, out) == (0, f"count: {lucas}\n")
