"""Command line entry point.

Subcommands: detect (weak|strong|deletion), count, verify, oracle, stats,
and gen (grid|hitting|random). Every command takes one path: `main` checks
the options and `--threads`/FB_THREADS and pauses the cyclic garbage
collector, then `_run` times the command: it reads the `--cnf` input, calls
the subcommand's handler, which returns its outcome, and prints its text
lines or, under `--json`, writes one versioned RunReport to standard output.
The argument parser is built once per process, on the first `main` call,
and every later call in the same process parses with that one parser. An
argv that starts with a command's name goes to that command's parser
alone (see `parse_command`).
Exit codes: 0 found/valid/success, 1 no/invalid, 2 usage or input error,
3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import sys
import time
from typing import Any, Iterator, Optional

from .errors import ContractError, DimacsError, ForestBDError, ResourceLimitError
from .formula import Formula, emit_dimacs, is_emitted, parse_dimacs
from .generators import grid_formula, hitting_set_formula, random_rcnf
from .graphs import CyclePacking, FeedbackSet, incidence_graph, is_acyclic, shortest_cycle
from .backdoors import is_deletion_backdoor, is_strong_backdoor, weak_backdoor_witness
from .oracle import KINDS, brute_count, brute_min_backdoor
from .report import RunReport, base_stats, canonical_digest, formula_digest
from .strong import count_through_search, count_with_backdoor, detect_deletion, detect_strong
from .weak import detect_weak, width_bound

THREADS_ENV = "FB_THREADS"


def integer(text: str) -> int:
    """ASCII digits after an optional `-`, with surrounding whitespace.
    Raises ValueError on what only `int` reads: `1_0`, `+1`, non-ASCII digits."""
    cleaned = text.strip()
    digits = cleaned[1:] if cleaned.startswith("-") else cleaned
    if not (text.isascii() and digits.isdigit()):
        raise ValueError(f"not a plain integer: {text!r}")
    return int(cleaned)


def resolve_threads(threads: int | None = None) -> int:
    """Explicit value, else the FB_THREADS environment variable, else 1.

    Validated for compatibility only; nothing runs differently for it."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "").strip()
        if not raw:
            return 1
        try:
            threads = integer(raw)
        except ValueError as exc:
            raise ContractError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if threads < 1:
        raise ContractError(f"thread count must be >= 1, got {threads}")
    return threads


def build_parser() -> argparse.ArgumentParser:
    """The `forestbd` argument parser, built on the first call and returned
    as the same object on every later one: a build makes a help formatter
    for every option, and parsing never changes the parser."""
    return _parsers()[0]


def parse_command(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, in one argparse pass when argv
    starts with a command's name: the top-level parser would hand every
    word after that name to the command's parser anyway. That parser's
    errors and help are the same either way; only when it leaves words
    unrecognised, or argv names no command, does the top-level parser run
    and report them itself."""
    command = _parsers()[1].get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="forestbd",
        description="Backdoor sets to acyclic CNF and model counting through them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a RunReport as JSON")
        p.add_argument(
            "--no-timing",
            action="store_true",
            help="report wall_ms as 0 for byte-reproducible output",
        )

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cnf", required=True, metavar="FILE", help="DIMACS CNF input")
        p.add_argument(
            "--threads",
            type=integer,
            default=None,
            help="accepted for compatibility (default: FB_THREADS or 1); has no effect",
        )
        add_report(p)

    detect = sub.add_parser("detect", help="search for a backdoor set")
    detect.add_argument("kind", choices=KINDS)
    detect.add_argument("-k", dest="budget", type=integer, required=True, help="size budget")
    detect.add_argument(
        "-r",
        dest="width",
        type=integer,
        default=None,
        help="declared clause width bound (weak detection only)",
    )
    add_io(detect)

    count = sub.add_parser("count", help="exact model count over the DIMACS universe")
    count.add_argument(
        "--backdoor",
        default=None,
        metavar="V1,V2,...",
        help="strong backdoor to sum over; omitted: search budgets 0..6 first",
    )
    add_io(count)

    verify = sub.add_parser("verify", help="check a claimed backdoor set")
    verify.add_argument("--kind", choices=KINDS, required=True)
    verify.add_argument(
        "--set", dest="variables", required=True, metavar="V1,V2,...",
        help="candidate variable set (empty string for the empty set)",
    )
    add_io(verify)

    oracle = sub.add_parser("oracle", help="brute-force ground truth")
    oracle.add_argument("kind", choices=KINDS + ("count",))
    oracle.add_argument("--k-max", dest="k_max", type=integer, default=None)
    add_io(oracle)

    stats = sub.add_parser("stats", help="formula and incidence-graph statistics")
    add_io(stats)

    gen = sub.add_parser("gen", help="write a generated instance as DIMACS")
    gsub = gen.add_subparsers(dest="generator", required=True)
    grid = gsub.add_parser("grid")
    grid.add_argument("--size", type=integer, required=True, help="grid side length, >= 2")
    hitting = gsub.add_parser("hitting")
    hitting.add_argument(
        "--sets", required=True, metavar="A1,A2;B1,...",
        help="semicolon-separated sets of positive integers",
    )
    rnd = gsub.add_parser("random")
    rnd.add_argument("-n", type=integer, required=True, help="variable count")
    rnd.add_argument("-m", type=integer, required=True, help="clause count")
    rnd.add_argument("-r", type=integer, required=True, help="clause width")
    rnd.add_argument("--seed", type=integer, required=True)
    for p in (grid, hitting, rnd):
        p.add_argument("-o", "--output", default=None, metavar="FILE")
        add_report(p)

    return parser, sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = parse_command(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        resolve_threads(getattr(args, "threads", None))
        with _collector_paused():
            return _run(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except (ForestBDError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    """Read the `--cnf` input, run the subcommand's handler, then print its
    lines or, under `--json`, its RunReport. The clock starts before the
    input is read and is read last, after the digest and the statistics."""
    start = time.perf_counter()
    if args.command == "gen":
        code, formula, digest, lines, fields = _cmd_gen(args)
    else:
        formula, digest = _load(args)
        handler = {
            "detect": _cmd_detect,
            "count": _cmd_count,
            "verify": _cmd_verify,
            "oracle": _cmd_oracle,
            "stats": _cmd_stats,
        }[args.command]
        code, lines, fields = handler(args, formula)
    if not args.json:
        for line in lines:
            print(line)
        return code
    if "stats" not in fields:
        fields["stats"] = base_stats(formula)
    report = RunReport(
        digest=digest or formula_digest(formula),
        path=args.output if args.command == "gen" else args.cnf,
        **fields,
        wall_ms=0.0 if args.no_timing else (time.perf_counter() - start) * 1000.0,
    )
    with _long_ints():
        sys.stdout.write(report.to_json())
    return code


def _load(args: argparse.Namespace) -> tuple[Formula, Optional[str]]:
    """The formula in `--cnf` and, under `--json` when the file is exactly
    `emit_dimacs` of it, the digest of its bytes; else None. Neither the
    bytes nor the text outlive the call."""
    with open(args.cnf, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DimacsError(f"byte {exc.start} of {args.cnf} is not ASCII") from exc
    formula = parse_dimacs(text)
    if args.json and is_emitted(text, formula):
        return formula, canonical_digest(data)
    return formula, None


def _parse_variables(text: str) -> list[int]:
    cleaned = text.strip()
    if not cleaned:
        return []
    try:
        values = [integer(tok) for tok in cleaned.split(",")]
    except ValueError as exc:
        raise ContractError(f"bad variable list {text!r}") from exc
    if any(v < 1 for v in values):
        raise ContractError(f"variable ids must be positive: {text!r}")
    return sorted(set(values))  # repeated ids name one variable


def _parse_sets(text: str) -> list[list[int]]:
    groups = []
    for chunk in text.split(";"):
        values = _parse_variables(chunk)
        if not values:
            raise ContractError("family must not contain an empty set")
        groups.append(values)
    return groups


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's state.
    Loading allocates many small tuples and lists, none in a reference
    cycle, and each collection their count triggers would scan them all."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def _long_ints() -> Iterator[None]:
    """Lift Python's int-to-str digit limit while a model count is written."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# A handler takes the loaded formula and returns (exit code, text lines,
# RunReport fields); `gen`, which reads no input, returns (exit code,
# formula, text lines, fields). One that adds statistics returns the whole
# "stats", built on `base_stats`, so the `stats` command, whose text lines
# print the base statistics, computes them once.
Outcome = tuple[int, list[str], dict[str, Any]]


def _cmd_detect(args: argparse.Namespace, formula: Formula) -> Outcome:
    if args.kind == "weak":
        verdict = detect_weak(formula, args.budget, args.width)
    elif args.kind == "strong":
        verdict = detect_strong(formula, args.budget)
    else:
        verdict = detect_deletion(formula, args.budget)

    parameters: dict[str, Any] = {"k": args.budget}
    if args.kind == "weak":
        parameters["r"] = width_bound(formula, args.width)
    split = verdict.split
    backdoor = sorted(verdict.variables)
    lines = [f"verdict: {'found' if verdict.found else 'no'}"]
    if verdict.found:
        lines.append("backdoor: " + (" ".join(map(str, backdoor)) or "(empty)"))
        # Only weak verdicts carry a witness.
        if verdict.witness is not None:
            lines.append(
                "witness: "
                + (" ".join(f"{v}={int(verdict.witness[v])}" for v in sorted(verdict.witness)) or "(empty)")
            )
    return 0 if verdict.found else 1, lines, {
        "command": f"detect-{args.kind}",
        "parameters": parameters,
        "verdict": "found" if verdict.found else "no",
        "backdoor": backdoor if verdict.found else None,
        "witness": verdict.witness if verdict.found else None,
        "stats": {
            **base_stats(formula),
            "packing_size": len(split.cycles) if isinstance(split, CyclePacking) else None,
            "fvs_size": len(split.nodes) if isinstance(split, FeedbackSet) else None,
        },
    }


def _cmd_count(args: argparse.Namespace, formula: Formula) -> Outcome:
    if args.backdoor is not None:
        backdoor = _parse_variables(args.backdoor)
        count = count_with_backdoor(formula, backdoor, formula.universe).count
    else:
        found, result = count_through_search(formula)
        backdoor, count = sorted(found), result.count
    lines = []
    if not args.json:  # a long count takes milliseconds to write in decimal
        with _long_ints():
            lines.append(f"count: {count}")
    fields = {"command": "count", "parameters": {"backdoor": backdoor}, "count": count}
    return 0, lines, fields


def _cmd_verify(args: argparse.Namespace, formula: Formula) -> Outcome:
    candidate = _parse_variables(args.variables)
    witness = None
    if args.kind == "weak":
        witness = weak_backdoor_witness(formula, candidate)
        valid = witness is not None
    elif args.kind == "strong":
        valid = is_strong_backdoor(formula, candidate)
    else:
        valid = is_deletion_backdoor(formula, candidate)
    verdict = "valid" if valid else "invalid"
    return 0 if valid else 1, [f"verdict: {verdict}"], {
        "command": "verify",
        "parameters": {"kind": args.kind, "set": candidate},
        "verdict": verdict,
        "witness": witness,
    }


def _cmd_oracle(args: argparse.Namespace, formula: Formula) -> Outcome:
    if args.kind == "count":
        value = brute_count(formula, formula.universe)
        fields = {"command": "oracle-count", "parameters": {}, "count": value}
        return 0, [f"count: {value}"], fields
    k_max = args.k_max if args.k_max is not None else 2
    result = brute_min_backdoor(formula, args.kind, k_max)
    found = result.optimum is not None
    witnesses = len(result.witness_sets)
    lines = [f"optimum: {result.optimum}", f"witnesses: {witnesses}"]
    return 0 if found else 1, lines, {
        "command": f"oracle-{args.kind}",
        "parameters": {"kind": args.kind, "k_max": k_max},
        "verdict": "found" if found else "no",
        "backdoor": sorted(result.witness_sets[0]) if found else None,
        "stats": {**base_stats(formula), "witnesses": witnesses, "optimum": result.optimum},
    }


def _cmd_stats(args: argparse.Namespace, formula: Formula) -> Outcome:
    inc = incidence_graph(formula)
    acyclic = is_acyclic(inc.graph)
    # Only the report shows the cycle.
    cycle = None if acyclic or not args.json else shortest_cycle(inc.graph)
    stats = base_stats(formula)
    stats["acyclic"] = acyclic
    stats["shortest_cycle"] = cycle.to_json() if cycle is not None else None
    lines = [
        f"variables: {stats['variables']}",
        f"clauses: {stats['clauses']}",
        f"length: {stats['length']}",
        f"width: {stats['width']}",
        f"acyclic: {str(acyclic).lower()}",
    ]
    return 0, lines, {"command": "stats", "parameters": {}, "stats": stats}


def _cmd_gen(
    args: argparse.Namespace,
) -> tuple[int, Formula, Optional[str], list[str], dict[str, Any]]:
    """Build the instance and write its DIMACS; under `--json`, the digest
    of the text written, so the report does not serialise it again."""
    if args.generator == "grid":
        formula = grid_formula(args.size)
        parameters: dict[str, Any] = {"size": args.size}
    elif args.generator == "hitting":
        family = _parse_sets(args.sets)
        formula = hitting_set_formula(family)
        parameters = {"sets": family}
    else:
        formula = random_rcnf(args.n, args.m, args.r, args.seed)
        parameters = {"n": args.n, "m": args.m, "r": args.r, "seed": args.seed}
    text = emit_dimacs(formula)
    if args.output is not None:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
    elif args.json:
        raise ContractError("--json needs -o so the report does not mix with DIMACS")
    else:
        sys.stdout.write(text)
    digest = canonical_digest(text.encode("ascii")) if args.json else None
    return 0, formula, digest, [], {"command": f"gen-{args.generator}", "parameters": parameters}


if __name__ == "__main__":
    sys.exit(main())
