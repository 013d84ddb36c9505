"""Workload preparation: seeded instances, DIMACS files and the answer each
command must give.

Runs in its own process before anything is measured, so none of its time
or memory reaches a metric:

    python3 bench/workloads.py --workload detect --seed 1 --out DIR

writes the instances and DIR/plan.json. Sizes are fixed per workload; the
seed changes only the content (random formulas, forests, hitting-set
families, chosen variables), so the cost of a workload barely depends on it.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import reference as ref
from forestbd.formula import Formula, emit_dimacs
from forestbd.generators import grid_formula, hitting_set_formula, random_rcnf
from forestbd.graphs import FeedbackSet, disjoint_cycles_or_feedback, incidence_graph, is_acyclic
from forestbd.oracle import brute_count, brute_min_backdoor

KINDS = ("weak", "strong", "deletion")
COMMON = ["--json", "--threads", "1"]
# Restrictions the benchmark's own backdoor search may try per instance.
SEARCH_CAP = 20_000
# Python refuses to format an int with more decimal digits than this.
INT_STR_DIGITS = 4300
# Size of the backdoors the seeded formulas are counted through.
PADDED = 9


class Plan:
    def __init__(self, out: Path) -> None:
        self.out = out
        self.commands: list[dict] = []
        self.clauses: dict[str, list] = {}

    def file(self, name: str, text: str) -> str:
        path = self.out / f"{name}.cnf"
        path.write_text(text, encoding="ascii")
        self.clauses[name] = ref.read_dimacs(text)[1]
        return name

    def formula(self, name: str, formula: Formula) -> str:
        return self.file(name, emit_dimacs(formula))

    def add(self, name: str, argv: list[str], **expect) -> None:
        path = self.out / f"{name}.cnf"
        expect.setdefault("rc", 0)
        self.commands.append(
            {
                "label": f"{name}:{' '.join(argv)}",
                "argv": argv + ["--cnf", str(path)] + COMMON,
                "file": name,
                "digest": ref.sha256(path.read_text(encoding="ascii")),
                **expect,
            }
        )

    def detect(self, name: str, kind: str, k: int, found: bool | None) -> None:
        """`found` None: no independent answer, only the reported set is checked."""
        rc = None if found is None else (0 if found else 1)
        verdict = None if found is None else ("found" if found else "no")
        self.add(name, ["detect", kind, "-k", str(k)], rc=rc, verdict=verdict, check=kind, k=k)

    def acyclic_detect(self, name: str, kind: str, k: int) -> None:
        """Detection on a satisfiable acyclic formula: the empty set, and for
        weak detection the empty witness."""
        self.add(
            name,
            ["detect", kind, "-k", str(k)],
            verdict="found",
            backdoor=[],
            witness=[] if kind == "weak" else None,
        )

    def count(self, name: str, backdoor: list[int] | None, expected: int) -> None:
        argv = ["count"] if backdoor is None else ["count", "--backdoor", ",".join(map(str, backdoor))]
        known = "int-str-digits" if expected >= 10**INT_STR_DIGITS else None
        self.add(
            name,
            argv,
            count=hex(expected),
            check="strong" if backdoor is None else None,
            known_failure=known,
        )

    def verify(self, name: str, kind: str, variables: list[int], valid: bool, witness=None) -> None:
        """With `witness` given it is the expected one; otherwise a valid
        verdict is re-checked by the benchmark."""
        self.add(
            name,
            ["verify", "--kind", kind, "--set", ",".join(map(str, variables))],
            rc=0 if valid else 1,
            verdict="valid" if valid else "invalid",
            check=kind if valid and witness is None else None,
            witness=witness,
        )


def _grid(plan: Plan, size: int) -> str:
    return plan.formula(f"grid{size}", grid_formula(size))


def _relabeled_grid(plan: Plan, size: int, index: int, rng: random.Random) -> str:
    """Grid `size` with its variables renumbered and its clauses and their
    literals shuffled, all from the seed: the same formula up to names."""
    clauses = [list(c.sorted_ints()) for c in grid_formula(size).clauses]
    num_vars = size * size + 1
    names = list(range(1, num_vars + 1))
    rng.shuffle(names)
    renamed = [[names[abs(l) - 1] * (1 if l > 0 else -1) for l in c] for c in clauses]
    rng.shuffle(renamed)
    return plan.file(f"grid{size}-relabeled{index}", ref.canonical_dimacs(num_vars, renamed))


def _random(plan: Plan, name: str, n: int, m: int, rng: random.Random) -> tuple[str, Formula]:
    formula = random_rcnf(n, m, 3, rng.randrange(2**31))
    return plan.formula(name, formula), formula


def _forest(plan: Plan, name: str, clauses: int, rng: random.Random) -> tuple[str, ref.Forest]:
    forest = ref.forest(clauses, rng)
    return plan.file(name, ref.canonical_dimacs(forest.num_vars, forest.clauses)), forest


def detect_workload(plan: Plan, rng: random.Random) -> None:
    # Grids: the extra variable is a weak and strong backdoor of size 1;
    # the floor(s/2)^2 disjoint 2x2 blocks each hold a cycle, so no small
    # deletion backdoor exists. Grids cost the same for every seed. Seeded
    # relabelings of grids 7 and 12 cost what the originals cost, and put
    # both percentiles of a pass inside a group of commands of one cost:
    # the median among grid 7's, the 90th percentile among grid 12's.
    for size in (4, 5, 6, 7, 8, 9, 10, 12, 14, 16):
        name = _grid(plan, size)
        for kind in KINDS:
            plan.detect(name, kind, 1, kind != "deletion")
    for size in (5, 6, 8):
        for kind in ("weak", "strong"):
            plan.detect(f"grid{size}", kind, 2, True)
    for size, copies in ((7, 8), (12, 4)):
        for index in range(copies):
            name = _relabeled_grid(plan, size, index, rng)
            for kind in ("weak", "strong"):
                plan.detect(name, kind, 1, True)

    # Random 3-CNF at the roadmap's sizes, three instances each so the
    # workload's cost does not hang on one draw; answered by the
    # benchmark's own search where that stays small.
    for n, m in ((40, 25), (80, 50), (160, 100)):
        budgets = {"weak": (1, 2), "strong": (1, 2)} if n == 40 else {
            "weak": (1,), "strong": (1,), "deletion": (2,)}
        for index in range(3):
            name, _ = _random(plan, f"random{n}-{index}", n, m, rng)
            for kind, ks in budgets.items():
                best = ref.min_backdoor(plan.clauses[name], kind, max(ks), SEARCH_CAP)
                for k in ks:
                    plan.detect(name, kind, k, None if best is None else best <= k)

    # Hitting-set encodings: the minimum weak backdoor is the minimum
    # hitting set of the family.
    for index in range(2):
        while True:
            family = [rng.sample(range(1, 8), rng.randint(2, 3)) for _ in range(5)]
            optimum = ref.min_hitting_set(family)
            if optimum >= 2:
                break
        name = plan.formula(f"hitting{index}", hitting_set_formula(family))
        plan.detect(name, "weak", optimum, True)
        plan.detect(name, "weak", optimum - 1, False)

    # Disjoint triangles: each needs its own variable, so no kind has a
    # backdoor of 3. On 40 of them strong detection takes the packing route
    # (C(40, 3) = 9,880 designations). Strong and deletion detection on 11
    # to 18 triangles cost about what the median command of a pass costs,
    # so that the median does not move with the seeded commands around it.
    for count in (10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 40):
        name = plan.file(f"triangles{count}", ref.canonical_dimacs(*ref.triangles(count)))
        for kind in KINDS if count in (10, 20, 40) else ("strong", "deletion"):
            plan.detect(name, kind, 3, False)

    # Acyclic, planted-satisfiable forests: the empty set is a backdoor of
    # every kind, but the report statistics run the girth search anyway.
    name, _ = _forest(plan, "forest250", 250, rng)
    plan.acyclic_detect(name, "weak", 1)
    name, _ = _forest(plan, "forest300", 300, rng)
    plan.acyclic_detect(name, "strong", 1)
    plan.acyclic_detect(name, "deletion", 1)

    # Universes small enough for the package's brute-force oracle.
    for index in range(2):
        name, formula = _random(plan, f"small{index}", 12, 9, rng)
        for kind in KINDS:
            optimum = brute_min_backdoor(formula, kind, 2).optimum
            for k in (1, 2):
                plan.detect(name, kind, k, optimum is not None and optimum <= k)


def _padded(backdoor: list[int], universe: int, total: int, rng: random.Random) -> list[int]:
    """The backdoor plus seeded other variables up to `total` in all."""
    rest = [v for v in range(1, universe + 1) if v not in backdoor]
    return sorted(backdoor + rng.sample(rest, total - len(backdoor)))


def _greedy(formula: Formula) -> list[int]:
    return ref.greedy_deletion_set(ref.read_dimacs(emit_dimacs(formula))[1])


def count_workload(plan: Plan, rng: random.Random) -> None:
    # The paper's comparison on one grid: the full cell cutset against the
    # one-variable strong backdoor. Counts follow from the construction.
    # The three grid counts through 10 to 12 variables are the costliest
    # commands. Grid 5's cells are fixed, as the cost of a count depends on
    # which cells it goes through; grids 4 and 6 take seeded cells. Both
    # percentiles of a pass fall among the many seeded formulas below, whose
    # sizes and backdoor sizes are fixed.
    name = _grid(plan, 3)
    plan.count(name, list(range(1, 10)), ref.grid_count(3))
    plan.count(name, [10], ref.grid_count(3))
    plan.count(_grid(plan, 5), list(range(1, 10)) + [26], ref.grid_count(5))
    for size, total in ((4, 12), (6, 10)):
        name = _grid(plan, size)
        extra = size * size + 1
        plan.count(name, _padded([extra], size * size, total, rng), ref.grid_count(size))
    cells = sorted(rng.sample(range(1, 17), 5))
    plan.verify("grid4", "strong", cells, ref.is_strong(plan.clauses["grid4"], cells))

    # The grid through its extra variable and more and more seeded cells.
    for total in (3, 5, 7, 9):
        backdoor = _padded([17], 16, total, rng)
        plan.count("grid4", backdoor, ref.grid_count(4))
        plan.verify("grid4", "strong", backdoor, True)

    # Seeded formulas with a greedy deletion backdoor, which is also strong;
    # counts from the package's brute-force oracle. Formulas whose greedy
    # set exceeds the backdoor size are redrawn, so every count of one size
    # goes through the same number of restrictions: PADDED for the two
    # larger formulas, 6 for the many small ones.
    shapes = [(18, 16, PADDED), (20, 18, PADDED)] + [(16, 14, 6)] * 26
    for index, (n, m, size) in enumerate(shapes):
        formula, greedy = _redrawn(n, m, size, rng)
        name = plan.formula(f"random{index}", formula)
        backdoor = _padded(greedy, n, size, rng)
        plan.count(name, backdoor, brute_count(formula, formula.universe))
        plan.verify(name, "strong", backdoor, True)

    # A disjoint union counts as the product of its parts.
    shapes = [(14, 12, PADDED)] + [(10, 9, 7)] * 8
    for index, (n, m, size) in enumerate(shapes):
        while True:
            parts = [random_rcnf(n, m, 3, rng.randrange(2**31)) for _ in range(2)]
            clauses = [c.sorted_ints() for c in parts[0].clauses] + [
                tuple(l + n if l > 0 else l - n for l in c.sorted_ints()) for c in parts[1].clauses
            ]
            union = Formula.from_ints(clauses, 2 * n)
            greedy = _greedy(union)
            if len(greedy) <= size:
                break
        name = plan.formula(f"union{index}", union)
        backdoor = _padded(greedy, 2 * n, size, rng)
        expected = brute_count(parts[0], parts[0].universe) * brute_count(parts[1], parts[1].universe)
        plan.count(name, backdoor, expected)
        plan.verify(name, "strong", backdoor, True)

    # Counting without a given backdoor searches strong budgets first.
    for size in (3, 4, 5):
        plan.count(f"grid{size}", None, ref.grid_count(size))
    for index in range(5):
        while True:
            formula = random_rcnf(12, 10, 3, rng.randrange(2**31))
            # Fixed at 2 so the budgets searched, and the cost, do not vary.
            if brute_min_backdoor(formula, "strong", 2).optimum == 2:
                break
        name = plan.formula(f"small{index}", formula)
        plan.count(name, None, brute_count(formula, formula.universe))


def _redrawn(n: int, m: int, size: int, rng: random.Random) -> tuple[Formula, list[int]]:
    """A seeded random 3-CNF whose greedy deletion set has at most `size`
    variables, and that set."""
    while True:
        formula = random_rcnf(n, m, 3, rng.randrange(2**31))
        greedy = _greedy(formula)
        if len(greedy) <= size:
            return formula, greedy


def bulk_workload(plan: Plan, rng: random.Random) -> None:
    def stats(name: str, forest: ref.Forest) -> None:
        plan.add(
            name,
            ["stats"],
            stats={
                "variables": forest.num_vars,
                "clauses": len(forest.clauses),
                "length": sum(len(c) for c in forest.clauses),
                "width": max(len(c) for c in forest.clauses),
                "acyclic": True,
                "shortest_cycle": None,
            },
        )

    # Most commands run on twenty forests of 800 to 1,560 clauses, so that a
    # pass holds enough commands for a 90th percentile and a run holds
    # several passes.
    for index, size in enumerate(range(800, 1600, 40)):
        name, forest = _forest(plan, f"forest{index}", size, rng)
        stats(name, forest)
        plan.count(name, [], forest.count())
        pair = sorted(rng.sample(range(1, forest.num_vars + 1), 2))
        witness = next(
            tau for tau in ref.assignments(pair) if forest.count(tau) > 0
        )
        plan.verify(name, "weak", pair, True, [[v, witness[v]] for v in pair])
        plan.verify(name, "deletion", sorted(rng.sample(range(1, forest.num_vars + 1), 3)), True)
        plan.acyclic_detect(name, "weak", 0)

    # The large instances: the biggest parse, a count far beyond Python's
    # int-to-str limit, and one large tree DP per value of a grid's extra
    # variable.
    name, forest = _forest(plan, "forest40k", 40_000, rng)
    stats(name, forest)
    name, forest = _forest(plan, "forest20k", 20_000, rng)
    plan.count(name, [], forest.count())
    name = _grid(plan, 60)
    plan.count(name, [3601], ref.grid_count(60))


def every_layer(plan: Plan, rng: random.Random) -> None:
    """Six small commands on one cyclic 12-variable formula, with too few
    disjoint cycles for the packing route, so that every traced function
    runs at least once in every workload and no layer reads a constant 0."""
    while True:
        formula = random_rcnf(12, 9, 3, rng.randrange(2**31))
        graph = incidence_graph(formula).graph
        if not is_acyclic(graph) and isinstance(disjoint_cycles_or_feedback(graph, 3), FeedbackSet):
            break
    name = plan.formula("every-layer", formula)
    for kind in KINDS:
        optimum = brute_min_backdoor(formula, kind, 1).optimum
        plan.detect(name, kind, 1, optimum is not None)
    backdoor = ref.greedy_deletion_set(plan.clauses[name])
    plan.count(name, backdoor, brute_count(formula, formula.universe))
    weak = any(ref.weak_witness_ok(plan.clauses[name], tau) for tau in ref.assignments(backdoor))
    plan.verify(name, "weak", backdoor, weak)
    plan.verify(name, "deletion", backdoor, True)


WORKLOADS = {"detect": detect_workload, "count": count_workload, "bulk": bulk_workload}


def prepare(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    plan = Plan(out)
    rng = random.Random(f"{workload}:{seed}")
    WORKLOADS[workload](plan, rng)
    every_layer(plan, rng)
    (out / "plan.json").write_text(json.dumps(plan.commands), encoding="ascii")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    prepare(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
