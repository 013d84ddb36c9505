"""Acceptance criteria, one test each, with the stated time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from forestbd import (
    CyclePacking,
    Formula,
    brute_count,
    brute_min_backdoor,
    count_models,
    count_with_backdoor,
    detect_deletion,
    detect_strong,
    detect_weak,
    disjoint_cycles_or_feedback,
    grid_formula,
    hitting_set_formula,
    incidence_graph,
    is_acyclic,
    is_strong_backdoor,
    random_rcnf,
    restriction_is_acyclic,
    satisfying_assignment,
    weak_backdoor_witness,
)
from forestbd.strong import StrongParameters, strong_rule_outcome
from forestbd.weak import WeakParameters, designations, weak_rule_outcome
from instances import (
    contradiction_path,
    heavy_dense_ring,
    heavy_sparse_ring,
    random_graph,
    rule_selection_sound,
    shared_killer_square,
    strong_lone_killer,
    strong_pair,
    strong_saturated,
    three_islands,
    triangle,
    two_triangles,
)


def report(name: str, elapsed: float, budget: float | None, detail: str) -> None:
    bound = f" / budget {budget:.0f}s" if budget is not None else ""
    print(f"[PASS] {name}: {detail} ({elapsed:.2f}s{bound})")


def random_instance(seed: int, max_n: int = 10, max_m: int = 15) -> Formula:
    rng = random.Random(seed)
    n = rng.randint(3, max_n)
    return random_rcnf(n, rng.randint(2, max_m), 3, rng.randint(0, 10**6))


def random_partial(seed: int, formula: Formula) -> dict[int, bool]:
    rng = random.Random(seed ^ 0x5EED)
    picked = rng.sample(sorted(formula.universe), rng.randint(0, len(formula.universe)))
    return {v: rng.random() < 0.5 for v in picked}


def test_criterion_1_residual_equivalence():
    start = time.perf_counter()
    agreements = 0
    for seed in range(1000):
        f = random_instance(seed)
        tau = random_partial(seed, f)
        direct = is_acyclic(incidence_graph(f.restrict(tau)).graph)
        if restriction_is_acyclic(f, tau) == direct:
            agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 1000
    assert elapsed < 10.0
    report("criterion-01 residual-equivalence", elapsed, 10, "1000/1000 agree")


def test_criterion_2_weak_exactness():
    start = time.perf_counter()
    checked = 0
    for seed in range(200):
        f = random_instance(seed + 10_000)
        oracle = brute_min_backdoor(f, "weak", 2)
        for budget in (1, 2):
            verdict = detect_weak(f, budget, 3)
            expected = oracle.optimum is not None and oracle.optimum <= budget
            assert verdict.found == expected, (seed, budget)
            if verdict.found:
                assert len(verdict.variables) <= budget
                assert set(verdict.witness) == set(verdict.variables)
                rest = f.restrict(verdict.witness)
                assert is_acyclic(incidence_graph(rest).graph)
                assert satisfying_assignment(rest) is not None
                assert weak_backdoor_witness(f, verdict.variables) is not None
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("criterion-02 weak-exactness", elapsed, 120, f"{checked} verdicts match oracle")


def crafted_strong_instances() -> list[Formula]:
    return [
        grid_formula(2),
        grid_formula(3),
        triangle(),
        two_triangles(),
        three_islands(),
        strong_pair(),
        strong_saturated(),
        strong_lone_killer(),
        shared_killer_square(),
        contradiction_path(),
        hitting_set_formula([[1, 2], [2, 3]]),
        hitting_set_formula([[1]]),
        Formula.from_ints([[1, 2]], num_vars=2),
        Formula.from_ints([[], [1, 2], [1, 2]], num_vars=2),
        Formula.from_ints([[1, 2], [1, 2], [1, 2]], num_vars=2),
        Formula.from_ints([[1, 2, 3], [1, 2, -3], [1, 2]], num_vars=3),
        Formula.from_ints([[1, -2], [-1, 2]], num_vars=2),
        Formula.from_ints([[i, i % 8 + 1] for i in range(1, 9)], num_vars=8),
        Formula.from_ints([[1, 2], [2, 3], [3, 1]], num_vars=3),
        Formula((), frozenset({1, 2})),
    ]


def test_criterion_3_strong_approximation_contract():
    start = time.perf_counter()
    instances = [random_instance(seed + 20_000) for seed in range(200)]
    instances += crafted_strong_instances()
    assert len(instances) == 220
    violations = 0
    for f in instances:
        for budget in (1, 2):
            verdict = detect_strong(f, budget)
            if verdict.found:
                if not is_strong_backdoor(f, verdict.variables):
                    violations += 1
                if len(verdict.variables) > 2**budget - 1:
                    violations += 1
            else:
                if brute_min_backdoor(f, "strong", budget).optimum is not None:
                    violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 180.0
    report(
        "criterion-03 strong-approximation",
        elapsed,
        180,
        "220 instances x k in {1,2}, zero violations",
    )


def test_criterion_4_grid_separation():
    start = time.perf_counter()
    for size in (2, 3, 4):
        f = grid_formula(size)
        verdict = detect_strong(f, 1)
        assert verdict.found and len(verdict.variables) == 1
        assert is_strong_backdoor(f, verdict.variables)
        if size >= 3:
            assert not detect_deletion(f, 1).found
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion-04 grid-separation", elapsed, 5, "sizes 2..4 behave")


def test_criterion_5_counting_correctness():
    start = time.perf_counter()
    instances: list[tuple[Formula, frozenset[int]]] = []
    for f in (grid_formula(2), grid_formula(3), triangle()):
        verdict = detect_strong(f, 1)
        assert verdict.found
        instances.append((f, verdict.variables))
    seed = 0
    while len(instances) < 100:
        rng = random.Random(30_000 + seed)
        seed += 1
        n = rng.randint(4, 16)
        f = random_rcnf(n, rng.randint(3, 20), 3, rng.randint(0, 10**6))
        backdoor = None
        for budget in range(0, 4):
            verdict = detect_strong(f, budget)
            if verdict.found:
                backdoor = verdict.variables
                break
        if backdoor is None or len(backdoor) > 3:
            continue
        instances.append((f, backdoor))
    exact = 0
    for f, backdoor in instances:
        expected = brute_count(f, f.universe)
        got = count_with_backdoor(f, backdoor, f.universe)
        if got.count == expected and got.universe_size == len(f.universe):
            exact += 1
    elapsed = time.perf_counter() - start
    assert exact == 100
    assert elapsed < 60.0
    report("criterion-05 counting", elapsed, 60, "100/100 big-integer equal")


def test_criterion_6_dichotomy_validity():
    start = time.perf_counter()
    graphs = [random_graph(seed, nodes=(4, 16), edges=(3, 30)) for seed in range(100)]
    graphs += [
        incidence_graph(random_instance(seed + 40_000)).graph for seed in range(100)
    ]
    valid = 0
    for i, g in enumerate(graphs):
        target = (2, 3, 5)[i % 3]
        incidence_half = i >= 100
        out = disjoint_cycles_or_feedback(g, target)
        if isinstance(out, CyclePacking):
            ok = len(out.cycles) >= target
            seen: set = set()
            for cycle in out.cycles:
                ring = cycle.nodes
                ok = ok and not (cycle.node_set & seen)
                ok = ok and len(ring) >= 3 and len(set(ring)) == len(ring)
                ok = ok and all(
                    g.has_edge(ring[j], ring[(j + 1) % len(ring)])
                    for j in range(len(ring))
                )
                if incidence_half:
                    ok = ok and all(
                        ring[j][0] != ring[(j + 1) % len(ring)][0]
                        for j in range(len(ring))
                    )
                seen |= cycle.node_set
        else:
            ok = is_acyclic(g, forbidden=out.nodes)
        valid += ok
    elapsed = time.perf_counter() - start
    assert valid == 200
    assert elapsed < 10.0
    report("criterion-06 dichotomy", elapsed, 10, "200/200 outputs verified")


def min_hitting_set_size(universe: list[int], family: list[list[int]]) -> int:
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(chosen & set(group) for group in family):
                return size
    raise AssertionError("unhittable family")


def test_criterion_7_hitting_set_fidelity():
    start = time.perf_counter()
    matches = 0
    for seed in range(50):
        rng = random.Random(50_000 + seed)
        universe_size = rng.randint(2, 6)
        universe = list(range(1, universe_size + 1))
        max_sets = min(5, (14 - universe_size) // 2)
        family = [
            rng.sample(universe, rng.randint(1, universe_size))
            for _ in range(rng.randint(1, max_sets))
        ]
        reduction = hitting_set_formula(family)
        direct = min_hitting_set_size(universe, family)
        via_oracle = brute_min_backdoor(reduction, "weak", 4).optimum
        if direct == via_oracle:
            matches += 1
    elapsed = time.perf_counter() - start
    assert matches == 50
    assert elapsed < 30.0
    report("criterion-07 hitting-fidelity", elapsed, 30, "50/50 optima equal")


def five_islands() -> Formula:
    return Formula.from_ints(
        [[2 * i + 1, 2 * i + 2] for i in range(5) for _ in range(2)], num_vars=10
    )


def eleven_islands() -> Formula:
    return Formula.from_ints(
        [[2 * i + 1, 2 * i + 2] for i in range(11) for _ in range(2)], num_vars=22
    )


def test_criterion_8_rule_soundness_audit():
    start = time.perf_counter()
    weak_events = 0
    strong_events = 0

    weak_targets: list[tuple[Formula, int]] = [
        (three_islands(), 1),
        (heavy_sparse_ring(), 1),
        (heavy_dense_ring(), 1),
        (shared_killer_square(), 1),
        (grid_formula(4), 1),
        (strong_pair(), 1),
        (strong_saturated(), 1),
        (strong_lone_killer(), 1),
        (five_islands(), 2),
    ]
    for seed in range(400):
        f = random_instance(seed + 60_000)
        if isinstance(
            disjoint_cycles_or_feedback(incidence_graph(f).graph, 3), CyclePacking
        ):
            weak_targets.append((f, 1))
        if len(weak_targets) >= 29:
            break
    for f, budget in weak_targets:
        inc = incidence_graph(f)
        params = WeakParameters.derive(budget, max(3, f.max_clause_width()))
        split = disjoint_cycles_or_feedback(inc.graph, params.cycles)
        if not isinstance(split, CyclePacking):
            continue
        for choice, outcome in designations(weak_rule_outcome, f, inc, split.cycles, params):
            assert rule_selection_sound(
                f, choice, outcome.selected, budget, "weak"
            ), (outcome.rule, sorted(outcome.selected))
            weak_events += 1

    strong_targets: list[tuple[Formula, int]] = [
        (three_islands(), 1),
        (strong_pair(), 1),
        (strong_saturated(), 1),
        (strong_lone_killer(), 1),
        (grid_formula(4), 1),
        (shared_killer_square(), 1),
        (eleven_islands(), 2),
    ]
    for f, budget in strong_targets:
        inc = incidence_graph(f)
        params = StrongParameters.derive(budget)
        split = disjoint_cycles_or_feedback(inc.graph, params.cycles)
        if not isinstance(split, CyclePacking):
            continue
        for choice, outcome in designations(strong_rule_outcome, f, inc, split.cycles, params):
            assert rule_selection_sound(
                f, choice, outcome.selected, budget, "strong"
            ), (outcome.rule, sorted(outcome.selected))
            strong_events += 1

    elapsed = time.perf_counter() - start
    assert weak_events > 0 and strong_events > 0
    report(
        "criterion-08 rule-soundness",
        elapsed,
        None,
        f"{weak_events} weak + {strong_events} strong firings, zero counterexamples",
    )


def test_criterion_9_acyclic_engine():
    start = time.perf_counter()
    checked = 0
    acyclic_seen = 0
    for seed in range(400):
        f = random_instance(seed + 70_000, max_n=8, max_m=8)
        candidates = [f, f.restrict(random_partial(seed, f))]
        for g in candidates:
            if len(g.universe) > 16:
                continue
            if not is_acyclic(incidence_graph(g).graph):
                continue
            acyclic_seen += 1
            expected = brute_count(g, g.universe)
            assert count_models(g, g.universe).count == expected
            tau = satisfying_assignment(g)
            if expected > 0:
                assert tau is not None and g.satisfied_by(tau)
            else:
                assert tau is None
            checked += 1
    elapsed = time.perf_counter() - start
    assert acyclic_seen >= 100
    report(
        "criterion-09 acyclic-engine",
        elapsed,
        None,
        f"{checked} acyclic instances agree with brute force",
    )


def test_criterion_10_report_determinism(tmp_path):
    from test_cli import run

    start = time.perf_counter()
    grid3 = tmp_path / "grid3.cnf"
    tri = tmp_path / "tri.cnf"
    hit = tmp_path / "hit.cnf"
    rnd = tmp_path / "rnd.cnf"
    assert run(["gen", "grid", "--size", "3", "-o", str(grid3)])[0] == 0
    tri.write_text("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n", encoding="ascii")
    assert run(["gen", "hitting", "--sets", "1,2;2,3", "-o", str(hit)])[0] == 0
    assert run(["gen", "random", "-n", "8", "-m", "12", "-r", "3", "--seed", "5", "-o", str(rnd)])[0] == 0

    battery = [
        ["detect", "weak", "--cnf", str(grid3), "-k", "1", "--json", "--no-timing"],
        ["detect", "strong", "--cnf", str(grid3), "-k", "1", "--json", "--no-timing"],
        ["detect", "deletion", "--cnf", str(grid3), "-k", "1", "--json", "--no-timing"],
        ["detect", "weak", "--cnf", str(rnd), "-k", "2", "--json", "--no-timing"],
        ["detect", "strong", "--cnf", str(rnd), "-k", "2", "--json", "--no-timing"],
        ["detect", "weak", "--cnf", str(hit), "-k", "1", "--json", "--no-timing"],
        ["count", "--cnf", str(tri), "--backdoor", "1", "--json", "--no-timing"],
        ["count", "--cnf", str(grid3), "--json", "--no-timing"],
        ["verify", "--cnf", str(grid3), "--kind", "strong", "--set", "10", "--json", "--no-timing"],
        ["verify", "--cnf", str(grid3), "--kind", "weak", "--set", "10", "--json", "--no-timing"],
        ["oracle", "strong", "--cnf", str(tri), "--k-max", "2", "--json", "--no-timing"],
        ["oracle", "count", "--cnf", str(grid3), "--json", "--no-timing"],
        ["stats", "--cnf", str(grid3), "--json", "--no-timing"],
        ["stats", "--cnf", str(rnd), "--json", "--no-timing"],
    ]
    for argv in battery:
        outputs = [
            run(argv + ["--threads", "1"]),
            run(argv + ["--threads", "1"]),
            run(argv + ["--threads", "4"]),
            run(argv + ["--threads", "4"]),
        ]
        first = outputs[0]
        assert all(o == first for o in outputs), argv
        json.loads(first[1])
    elapsed = time.perf_counter() - start
    report(
        "criterion-10 determinism",
        elapsed,
        None,
        f"{len(battery)} commands byte-identical across runs and 1 vs 4 threads",
    )
