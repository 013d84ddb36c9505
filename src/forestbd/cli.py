"""Command line entry point.

Subcommands: detect (weak|strong|deletion), count, verify, oracle, stats,
and gen (grid|hitting|random). `--json` writes a versioned RunReport to
standard output. Exit codes: 0 found/valid/success, 1 no/invalid, 2 usage
or input error, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Any, Iterator, Optional

from .errors import ContractError, DimacsError, ForestBDError, ResourceLimitError
from .formula import Formula, emit_dimacs, parse_dimacs
from .generators import grid_formula, hitting_set_formula, random_rcnf
from .graphs import CyclePacking, FeedbackSet, incidence_graph, is_acyclic, shortest_cycle
from .backdoors import is_deletion_backdoor, is_strong_backdoor, weak_backdoor_witness
from .oracle import brute_count, brute_min_backdoor
from .report import RunReport, base_stats, formula_digest
from .strong import MAX_STRONG_BUDGET, count_with_backdoor, detect_deletion, detect_strong
from .weak import detect_weak

_KINDS = ("weak", "strong", "deletion")
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
    parser = argparse.ArgumentParser(
        prog="forestbd",
        description="Backdoor sets to acyclic CNF and model counting through them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cnf", required=True, metavar="FILE", help="DIMACS CNF input")
        p.add_argument("--json", action="store_true", help="emit a RunReport as JSON")
        p.add_argument(
            "--threads",
            type=integer,
            default=None,
            help="accepted for compatibility (default: FB_THREADS or 1); has no effect",
        )
        p.add_argument(
            "--no-timing",
            action="store_true",
            help="report wall_ms as 0 for byte-reproducible output",
        )

    detect = sub.add_parser("detect", help="search for a backdoor set")
    detect.add_argument("kind", choices=_KINDS)
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
    verify.add_argument("--kind", choices=_KINDS, required=True)
    verify.add_argument(
        "--set", dest="variables", required=True, metavar="V1,V2,...",
        help="candidate variable set (empty string for the empty set)",
    )
    add_io(verify)

    oracle = sub.add_parser("oracle", help="brute-force ground truth")
    oracle.add_argument("kind", choices=_KINDS + ("count",))
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
        p.add_argument("--json", action="store_true", help="emit a RunReport as JSON")
        p.add_argument("--no-timing", action="store_true")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _dispatch(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ForestBDError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    handler = {
        "detect": _cmd_detect,
        "count": _cmd_count,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "stats": _cmd_stats,
        "gen": _cmd_gen,
    }[args.command]
    return handler(args)


def _load(args: argparse.Namespace) -> tuple[Formula, str]:
    """Parse `--cnf` and validate `--threads`/FB_THREADS."""
    with open(args.cnf, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DimacsError(f"byte {exc.start} of {args.cnf} is not ASCII") from exc
    formula = parse_dimacs(text)
    resolve_threads(args.threads)
    return formula, args.cnf


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


def _wall(start: float, args: argparse.Namespace) -> float:
    """Milliseconds since `start`. Commands start the clock before loading
    their input and read it last when building the report, after the
    digest and the statistics."""
    if getattr(args, "no_timing", False):
        return 0.0
    return (time.perf_counter() - start) * 1000.0


def _emit(args: argparse.Namespace, report: RunReport, lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        for line in lines:
            print(line)


@contextlib.contextmanager
def _long_ints() -> Iterator[None]:
    """Lift Python's int-to-str digit limit while a model count is written."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_detect(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    formula, path = _load(args)
    if args.kind == "weak":
        verdict = detect_weak(formula, args.budget, args.width)
    elif args.kind == "strong":
        verdict = detect_strong(formula, args.budget)
    else:
        verdict = detect_deletion(formula, args.budget)

    parameters: dict[str, Any] = {"k": args.budget}
    if args.kind == "weak":
        parameters["r"] = (
            args.width if args.width is not None else max(3, formula.max_clause_width())
        )
    stats = base_stats(formula)
    split = verdict.split
    stats["packing_size"] = len(split.cycles) if isinstance(split, CyclePacking) else None
    stats["fvs_size"] = len(split.nodes) if isinstance(split, FeedbackSet) else None
    report = RunReport(
        command=f"detect-{args.kind}",
        digest=formula_digest(formula),
        parameters=parameters,
        path=path,
        verdict="found" if verdict.found else "no",
        backdoor=sorted(verdict.variables) if verdict.found else None,
        witness=verdict.witness if (verdict.found and args.kind == "weak") else None,
        stats=stats,
        wall_ms=_wall(start, args),
    )
    lines = [f"verdict: {'found' if verdict.found else 'no'}"]
    if verdict.found:
        lines.append("backdoor: " + (" ".join(map(str, verdict.sorted_variables())) or "(empty)"))
        if args.kind == "weak" and verdict.witness is not None:
            lines.append(
                "witness: "
                + (" ".join(f"{v}={int(verdict.witness[v])}" for v in sorted(verdict.witness)) or "(empty)")
            )
    _emit(args, report, lines)
    return 0 if verdict.found else 1


def _cmd_count(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    formula, path = _load(args)
    if args.backdoor is not None:
        backdoor = _parse_variables(args.backdoor)
    else:
        backdoor = None
        for budget in range(MAX_STRONG_BUDGET + 1):
            verdict = detect_strong(formula, budget)
            if verdict.found:
                backdoor = sorted(verdict.variables)
                break
        if backdoor is None:
            raise ResourceLimitError(
                f"no strong backdoor found within budget {MAX_STRONG_BUDGET}"
            )
    result = count_with_backdoor(formula, backdoor, formula.universe)
    report = RunReport(
        command="count",
        digest=formula_digest(formula),
        parameters={"backdoor": backdoor},
        path=path,
        count=result.count,
        stats=base_stats(formula),
        wall_ms=_wall(start, args),
    )
    with _long_ints():
        _emit(args, report, [f"count: {result.count}"])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    formula, path = _load(args)
    candidate = _parse_variables(args.variables)
    witness = None
    if args.kind == "weak":
        witness = weak_backdoor_witness(formula, candidate)
        valid = witness is not None
    elif args.kind == "strong":
        valid = is_strong_backdoor(formula, candidate)
    else:
        valid = is_deletion_backdoor(formula, candidate)
    report = RunReport(
        command="verify",
        digest=formula_digest(formula),
        parameters={"kind": args.kind, "set": candidate},
        path=path,
        verdict="valid" if valid else "invalid",
        witness=witness if valid else None,
        stats=base_stats(formula),
        wall_ms=_wall(start, args),
    )
    _emit(args, report, [f"verdict: {'valid' if valid else 'invalid'}"])
    return 0 if valid else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    formula, path = _load(args)
    if args.kind == "count":
        value = brute_count(formula, formula.universe)
        report = RunReport(
            command="oracle-count",
            digest=formula_digest(formula),
            parameters={},
            path=path,
            count=value,
            stats=base_stats(formula),
            wall_ms=_wall(start, args),
        )
        _emit(args, report, [f"count: {value}"])
        return 0
    k_max = args.k_max if args.k_max is not None else 2
    result = brute_min_backdoor(formula, args.kind, k_max)
    found = result.optimum is not None
    stats = base_stats(formula)
    stats["witnesses"] = len(result.witness_sets)
    stats["optimum"] = result.optimum
    report = RunReport(
        command=f"oracle-{args.kind}",
        digest=formula_digest(formula),
        parameters={"kind": args.kind, "k_max": k_max},
        path=path,
        verdict="found" if found else "no",
        backdoor=sorted(result.witness_sets[0]) if found else None,
        stats=stats,
        wall_ms=_wall(start, args),
    )
    lines = [f"optimum: {result.optimum}", f"witnesses: {len(result.witness_sets)}"]
    _emit(args, report, lines)
    return 0 if found else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    formula, path = _load(args)
    inc = incidence_graph(formula)
    acyclic = is_acyclic(inc.graph)
    cycle = None if acyclic else shortest_cycle(inc.graph)
    stats = base_stats(formula)
    stats["acyclic"] = acyclic
    stats["shortest_cycle"] = cycle.to_json() if cycle is not None else None
    report = RunReport(
        command="stats",
        digest=formula_digest(formula),
        parameters={},
        path=path,
        stats=stats,
        wall_ms=_wall(start, args),
    )
    lines = [
        f"variables: {stats['variables']}",
        f"clauses: {stats['clauses']}",
        f"length: {stats['length']}",
        f"width: {stats['width']}",
        f"acyclic: {str(acyclic).lower()}",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    start = time.perf_counter()
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
    if args.json:
        report = RunReport(
            command=f"gen-{args.generator}",
            digest=formula_digest(formula),
            parameters=parameters,
            path=args.output,
            stats=base_stats(formula),
            wall_ms=_wall(start, args),
        )
        sys.stdout.write(report.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
