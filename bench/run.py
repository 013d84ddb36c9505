"""forestbd benchmark: real CLI commands, run in-process, every answer checked.

    python3 bench/run.py --workload detect|count|bulk --seed N --seconds S --trace 0|1

One client issues the workload's command list in a closed loop through
`forestbd.cli.main(argv)` with `--json --threads 1` and stdout captured,
whole pass after whole pass, for at most about S seconds. A fixed speed
probe runs at every command boundary, and each time is scaled to the
probe's reference speed (see `scaled`); a command's latency is the median
of its scaled times. Instances and reference answers are prepared
beforehand in a separate process (bench/workloads.py) and never timed.
With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (bench/tracer.py) and the spans go to bench/_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference as ref
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
# Fresh interpreters that time `import forestbd.cli`, spread over the run;
# one more warms the bytecode cache first and is not counted.
SETUP_SAMPLES = 8
# Modules none of forestbd's code is in, imported by the fresh interpreter
# that each set-up sample is scaled by, and about their import time on a
# 2-core VM: numpy, which forestbd.cli pulls in, and some of the standard
# library.
REFERENCE_IMPORT = "numpy, json, argparse, dataclasses, hashlib, decimal, email.parser, concurrent.futures"
REFERENCE_IMPORT_S = 0.19
# About the probe's time on a 2-core VM when nothing else slowed it;
# scaled times read as if every probe had taken this long.
PROBE_REFERENCE_S = 0.002
# Probes on each side of a command whose median gives its machine speed.
PROBE_REACH = 4
# A 90th percentile over the commands of a pass needs ten beyond it.
MIN_COMMANDS = 100
# Passes of each kind a run makes at the least, whatever --seconds says.
MIN_PASSES = 2
WORKLOADS = ("detect", "count", "bulk")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_ms_p50", "ms"),
    ("cmd_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(BENCH)
    return env


def probe() -> float:
    """Time of a fixed piece of pure-Python work like the program's own:
    dict updates, sorting with a key, sets of small frozensets. Other work
    on a shared machine slows it as much as it slows a command run just
    before or after it."""
    data = list(range(400))
    start = time.perf_counter()
    table: dict[int, int] = {}
    for turn in range(12):
        for x in data:
            table[x % 97] = table.get(x % 97, 0) + (x ^ turn)
        sorted(data, key=lambda v: -v)
        {frozenset((v, v + 1)) for v in data[:300]}
    return time.perf_counter() - start


def scaled(elapsed: list[float], probes: list[float]) -> list[float]:
    """A pass's command times at the probe's reference speed. `probes[i]`
    ran just before command i and the last one after the last command; each
    time is scaled by the median of the PROBE_REACH probes on either side."""
    return [
        seconds * PROBE_REFERENCE_S
        / statistics.median(probes[max(0, i - PROBE_REACH + 1): i + PROBE_REACH + 1])
        for i, seconds in enumerate(elapsed)
    ]


def _import_time(modules: str) -> float:
    """Time a fresh interpreter takes to import `modules`."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip())


def import_seconds() -> tuple[float, float]:
    """Time one fresh interpreter takes to `import forestbd.cli`: as
    measured, and scaled by the time another takes to import
    REFERENCE_IMPORT just before it. An import is mostly unmarshalling and
    running module code and loading extensions, which the machine's
    neighbours slow otherwise than they slow the speed probe."""
    reference = _import_time(REFERENCE_IMPORT)
    seconds = _import_time("forestbd.cli")
    return seconds, seconds * REFERENCE_IMPORT_S / reference


def prepare(workload: str, seed: int, out: Path) -> list[dict]:
    subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        env=_env(), cwd=ROOT, check=True, timeout=170,
    )
    return json.loads((out / "plan.json").read_text(encoding="ascii"))


class Checker:
    """Judges each command's result against its plan entry. A result that
    repeats one already judged for the same command is not re-checked."""

    def __init__(self, plan: list[dict], work: Path) -> None:
        self.plan = plan
        self.work = work
        self.clauses: dict[str, list] = {}
        self.seen: dict[tuple[int, str], str | None] = {}

    def judge(self, index: int, rc, stdout: str, error: BaseException | None) -> str | None:
        """None when the result is right; otherwise why it failed, prefixed
        `known:` for the documented int-to-str failure."""
        expect = self.plan[index]
        if error is not None:
            if (
                expect.get("known_failure") == "int-str-digits"
                and isinstance(error, ValueError)
                and "Exceeds the limit" in str(error)
            ):
                return f"known: {type(error).__name__}: {error}"
            return f"uncaught {type(error).__name__}: {error}"
        # Counts past the int-to-str limit must still parse once the program
        # prints them; the limit is lifted only while judging.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            try:
                report = json.loads(stdout)
            except ValueError:
                return f"exit {rc} without a JSON report"
            report["wall_ms"] = 0
            key = (index, f"{rc}:{json.dumps(report, sort_keys=True)}")
            if key not in self.seen:
                self.seen[key] = self._check(expect, rc, report)
            return self.seen[key]
        finally:
            sys.set_int_max_str_digits(limit)

    def _clauses(self, name: str) -> list:
        if name not in self.clauses:
            text = (self.work / f"{name}.cnf").read_text(encoding="ascii")
            self.clauses[name] = ref.read_dimacs(text)[1]
        return self.clauses[name]

    def _check(self, expect: dict, rc, report: dict) -> str | None:
        if expect.get("rc") is not None and rc != expect["rc"]:
            return f"exit {rc}, expected {expect['rc']}"
        if rc not in (0, 1):
            return f"exit {rc}"
        if report["input"]["sha256"] != expect["digest"]:
            return "digest differs from the canonical DIMACS"
        if expect.get("verdict") is not None and report["verdict"] != expect["verdict"]:
            return f"verdict {report['verdict']}, expected {expect['verdict']}"
        if expect.get("count") is not None:
            if report["count"] is None or hex(report["count"]) != expect["count"]:
                return "wrong count"
        for field in ("backdoor", "witness"):
            if expect.get(field) is not None and report[field] != expect[field]:
                return f"{field} {report[field]}, expected {expect[field]}"
        if expect.get("stats") is not None:
            for field, value in expect["stats"].items():
                if report["stats"].get(field) != value:
                    return f"stats.{field} {report['stats'].get(field)}, expected {value}"
        if expect.get("check") and report.get("verdict") in (None, "found", "valid"):
            return self._recheck(expect, report)
        return None

    def _recheck(self, expect: dict, report: dict) -> str | None:
        """Re-verify a reported backdoor with restriction rebuilds."""
        kind = expect["check"]
        clauses = self._clauses(expect["file"])
        if report["command"] == "count":
            chosen = report["parameters"]["backdoor"]
        elif report["command"] == "verify":
            chosen = report["parameters"]["set"]
        else:
            chosen = report["backdoor"]
        k = expect.get("k")
        if kind == "strong":
            ok = ref.is_strong(clauses, chosen)
            limit = None if k is None else 2**k - 1
        elif kind == "deletion":
            ok = ref.is_deletion(clauses, chosen)
            limit = k
        else:
            witness = {v: value for v, value in report["witness"] or []}
            ok = sorted(witness) == sorted(chosen) and ref.weak_witness_ok(clauses, witness)
            limit = k
        if not ok:
            return f"reported {kind} backdoor {chosen} fails the benchmark's check"
        if limit is not None and len(chosen) > limit:
            return f"reported {kind} backdoor {chosen} exceeds size {limit}"
        return None


def issue(cli, argv: list[str]):
    """One command as the client sees it: exit code, stdout, and any
    exception that escaped `main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc, error = cli.main(argv), None
        except Exception as exc:  # a failed command, not a failed benchmark
            # Without its traceback the error holds none of the command's
            # frames, so their objects are freed with the command's.
            rc, error = None, exc.with_traceback(None)
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), error


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description="forestbd benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "forestbd" / "cli.py").is_file():
        print(f"error: no forestbd sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = prepare(args.workload, args.seed, work)
        sys.path.insert(0, str(SRC))
        import forestbd.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported forestbd from {cli.__file__}", file=sys.stderr)
            return 2
        if len(plan) < MIN_COMMANDS:
            print(f"error: {len(plan)} commands in a pass, fewer than {MIN_COMMANDS}", file=sys.stderr)
            return 2
        return measure(args, cli, plan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, plan: list[dict], work: Path) -> int:
    checker = Checker(plan, work)
    tracer = None
    setup: list[tuple[float, float]] | None = None
    if args.trace:
        tracer = tracing.Tracer()
        modules = {name: sys.modules[f"forestbd.{name}"] for name in tracing.SPANNED}
    else:
        setup = []
        import_seconds()  # warms the bytecode cache; not counted
    # Per command, the scaled samples of untraced (False) and traced (True)
    # passes, and the untraced samples as measured.
    times: dict[bool, list[list[float]]] = {False: [[] for _ in plan], True: [[] for _ in plan]}
    measured: list[list[float]] = [[] for _ in plan]
    passes = {False: 0, True: 0}
    layer_passes: list[dict[str, float]] = []
    traced_spans: list[tuple[int, list]] = []
    counts_seen: list[dict] = []
    attempted = failed = known = 0
    failures: dict[str, str] = {}
    started = time.perf_counter()
    number = 0
    while True:
        traced = bool(tracer) and number % 2 == 1
        pass_started = time.perf_counter()
        elapsed_pass: list[float] = []
        probes: list[float] = []
        if traced:
            tracer.install(modules)
        try:
            for index, command in enumerate(plan):
                # Set-up samples are spread over the run, between commands,
                # so one slow spell of the machine does not set them all.
                if (
                    setup is not None
                    and len(setup) < SETUP_SAMPLES
                    and time.perf_counter() - started >= len(setup) * args.seconds / SETUP_SAMPLES
                ):
                    setup.append(import_seconds())
                # Collect what the last command left, then freeze what
                # survives (the harness's own objects included) so the
                # program's collections scan only what it allocates itself.
                gc.collect()
                gc.freeze()
                probes.append(probe())
                if traced:
                    tracer.request[0] = index
                elapsed, rc, stdout, error = issue(cli, command["argv"])
                elapsed_pass.append(elapsed)
                attempted += 1
                problem = checker.judge(index, rc, stdout, error)
                if problem is not None:
                    failed += 1
                    known += problem.startswith("known:")
                    failures.setdefault(command["label"], problem)
        finally:
            if traced:
                tracer.uninstall()
        # Once a pass, also free what was frozen and has died since.
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        probes.append(probe())
        if threading.active_count() > 1:
            # The probe would be slowed along with the commands, and a
            # slowdown the program causes would be scaled away.
            print("error: the program left a thread running", file=sys.stderr)
            return 2
        for index, seconds in enumerate(scaled(elapsed_pass, probes)):
            times[traced][index].append(seconds)
            if not traced:
                measured[index].append(elapsed_pass[index])
        passes[traced] += 1
        if traced:
            spans, counts = tracer.take()
            layer_passes.append(tracer.layer_values(spans, counts))
            counts_seen.append(dict(counts))
            traced_spans.append((number, spans))
        number += 1
        # Stop at a pass boundary when another pass like the last one would
        # overrun the time, once there are enough passes (when tracing,
        # traced and untraced alike).
        now = time.perf_counter()
        enough = passes[False] >= MIN_PASSES and (not tracer or passes[True] >= MIN_PASSES)
        if enough and now - started + (now - pass_started) > args.seconds:
            break
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())

    correct = all(p.startswith("known:") for p in failures.values())
    for label, problem in failures.items():
        print(f"FAILED {label}: {problem}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {len(plan)} commands per pass, "
          f"{passes[False]} untraced and {passes[True]} traced passes, "
          f"{attempted} commands attempted, {failed} failed ({known} documented)")
    if tracer:
        metrics = _layer_metrics(args, tracer, layer_passes, counts_seen, times, traced_spans, plan)
    else:
        latency_ms = [statistics.median(per) * 1000 for per in times[False]]
        as_measured_ms = [statistics.median(per) * 1000 for per in measured]
        n = len(latency_ms)
        fail_ratio = failed / attempted
        values = {
            "setup_s": statistics.median(scaled_s for _, scaled_s in setup),
            "wall_s": sum(latency_ms) / 1000,
            "cmd_ms_p50": percentile(latency_ms, 0.5),
            "cmd_ms_p90": percentile(latency_ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - fail_ratio,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh imports of forestbd.cli "
                       f"({statistics.median(s for s, _ in setup):.4f} as measured)",
            "wall_s": f"sum over {n} commands of each one's latency "
                      f"({sum(as_measured_ms) / 1000:.4f} as measured)",
            "cmd_ms_p50": f"n={n} commands, each the median of {passes[False]} passes "
                          f"({percentile(as_measured_ms, 0.5):.4f} as measured)",
            "cmd_ms_p90": f"n={n}, {n - math.ceil(0.9 * n)} beyond "
                          f"({percentile(as_measured_ms, 0.9):.4f} as measured)",
            "peak_rss_mb": "ru_maxrss of the workload process",
            "ok_ratio": f"fail_ratio = {fail_ratio:.6f} ({failed} of {attempted} commands failed)",
        }
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<12} {values[name]:>14.6f} {unit:<5}  {notes[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(args, tracer, layer_passes, counts_seen, times, traced_spans, plan) -> dict:
    if any(c != counts_seen[0] for c in counts_seen):
        print("warning: counters differ between traced passes", file=sys.stderr)
    values = {}
    for name, unit in tracing.per_layer_metrics():
        if name == "trace.overhead_s":
            # Per command, median traced time minus median untraced time.
            value = sum(
                statistics.median(traced) - statistics.median(untraced)
                for traced, untraced in zip(times[True], times[False])
            )
        elif unit == "count":
            value = layer_passes[0][name]
        else:
            value = statistics.median(p[name] for p in layer_passes)
        values[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:>14.3f} {unit}")
    out = WORK / f"trace-{args.workload}.jsonl"
    tracer.write(out, traced_spans, [c["label"] for c in plan])
    print(f"spans written to {out.relative_to(ROOT)}")
    return values


if __name__ == "__main__":
    sys.exit(main())
