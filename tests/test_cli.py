"""Command-line surface: exit codes, report schema, and determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
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
)
from forestbd import cli
from forestbd.cli import main
from forestbd.report import validate_report
from forestbd.strong import StrongParameters
from forestbd.weak import WeakParameters
from instances import disjoint_triangles


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

    def test_stats_shortest_cycle_serialization(self, grid3):
        _, out, _ = run(["stats", "--cnf", grid3, "--json"])
        stats = json.loads(out)["stats"]
        assert stats["acyclic"] is False
        cycle = stats["shortest_cycle"]
        assert cycle is not None and len(cycle) >= 4
        assert {entry["kind"] for entry in cycle} == {"var", "clause"}


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

    def test_count_line(self, triangle_file):
        _, out, _ = run(["count", "--cnf", triangle_file, "--backdoor", "1"])
        assert out.strip() == "count: 1"

    def test_stats_lines(self, grid3):
        _, out, _ = run(["stats", "--cnf", grid3])
        assert "variables: 10" in out and "acyclic: false" in out


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
        ):
            code, _, _ = run(argv, env={"FB_THREADS": "zebra"})
            assert code == 2

    def test_zero_threads_is_usage_error(self, grid3):
        for argv in (["oracle", "count", "--cnf", grid3], ["stats", "--cnf", grid3]):
            code, _, _ = run(argv + ["--threads", "0"])
            assert code == 2
