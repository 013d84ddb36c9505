"""Print the reports of every command in the seeded benchmark plans.

One JSON line per run, so that two checkouts' outputs compare with `diff`:

    python3 tools/plan_reports.py

The seed-1 and seed-11 plans of each workload are prepared with
`bench/workloads.py` in DIR/<workload>-<seed>, where DIR is a fixed
directory under the system's temporary directory. Every command of a
plan then runs in this process through `forestbd.cli.main` with
`--no-timing`, once as planned (variant `json`) and once without
`--json` (variant `text`). A line holds
the workload, seed, label, variant, exit code, stdout and stderr, with the
plan directory written as `<plan>`. The script reads `bench/` and changes
nothing under it; `forestbd` is imported from this checkout's `src/`.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/workloads.py)
from forestbd import cli  # noqa: E402

PLACEHOLDER = "<plan>"
SEEDS = (1, 11)
DIR = Path(tempfile.gettempdir()) / "forestbd-plan-reports"


def run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def reports(workload: str, seed: int, out: Path) -> Iterator[dict]:
    workloads.prepare(workload, seed, out)
    plan = json.loads((out / "plan.json").read_text(encoding="ascii"))
    for command in plan:
        argv = command["argv"] + ["--no-timing"]
        text = [word for word in argv if word != "--json"]
        for variant, words in (("json", argv), ("text", text)):
            code, stdout, stderr = run(words)
            yield {
                "workload": workload,
                "seed": seed,
                "label": command["label"],
                "variant": variant,
                "rc": code,
                "stdout": stdout.replace(str(out), PLACEHOLDER),
                "stderr": stderr.replace(str(out), PLACEHOLDER),
            }


def main() -> None:
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for line in reports(workload, seed, DIR / f"{workload}-{seed}"):
                print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
