"""Acceptance criteria, one test each, with the stated time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

from __future__ import annotations

import hashlib
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
    emit_dimacs,
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
from forestbd.backdoors import Residual
from forestbd.strong import StrongParameters, strong_rule_outcome
from forestbd.weak import WeakParameters, designations, weak_rule_outcome
from instances import (
    contradiction_path,
    criterion_8_strong_targets,
    disjoint_triangles,
    heavy_dense_ring,
    heavy_sparse_ring,
    random_graph,
    random_instance,
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
                    ring[(j + 1) % len(ring)] in g.adjacency[ring[j]]
                    for j in range(len(ring))
                )
                if incidence_half:
                    ok = ok and all(
                        (ring[j] < g.clauses) != (ring[(j + 1) % len(ring)] < g.clauses)
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
        residual = Residual.of(f)
        params = WeakParameters.derive(budget, max(3, f.max_clause_width()))
        split = disjoint_cycles_or_feedback(residual.inc.graph, params.cycles)
        if not isinstance(split, CyclePacking):
            continue
        for choice, outcome in designations(weak_rule_outcome, residual, split.cycles, params):
            assert rule_selection_sound(
                f, choice, outcome.selected, budget, "weak"
            ), (outcome.rule, sorted(outcome.selected))
            weak_events += 1

    for f, budget in criterion_8_strong_targets():
        residual = Residual.of(f)
        params = StrongParameters.derive(budget)
        split = disjoint_cycles_or_feedback(residual.inc.graph, params.cycles)
        if not isinstance(split, CyclePacking):
            continue
        for choice, outcome in designations(strong_rule_outcome, residual, split.cycles, params):
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


def _report_digest(output: tuple[int, str, str]) -> str:
    code, stdout, _ = output
    return hashlib.sha256(f"{code}\n{stdout}".encode("utf-8")).hexdigest()


# sha256 of each criterion-10 command's exit code and stdout, run in the
# directory holding its input so that `input.path` is the bare file name.
# Any change to a verdict, backdoor, witness, count or statistic moves it.
PINNED_REPORTS = {
    "detect weak --cnf grid3.cnf -k 1": "c5c64559841542d6294fa907e7f4857b55968142488eb3e8152f9d815c0bc2a9",
    "detect strong --cnf grid3.cnf -k 1": "f5509d274c64d679fffee64e8d5c9ca95770cb164f018cfc4c04bcb75589a08a",
    "detect deletion --cnf grid3.cnf -k 1": "6c0fea81f3cdb100c79ba23e7f23789612b3d4b1e60fcd0ed0cc59a308afb9e8",
    "detect weak --cnf rnd.cnf -k 2": "0d5886eda280119e752a675f63fb4b3e8b5ff42c1b8d8787a6572f219c4d6b44",
    "detect strong --cnf rnd.cnf -k 2": "a1d70d09fda32db94784f0f2846001d6841b338b794d73b04f282f97a50e90c0",
    "detect weak --cnf hit.cnf -k 1": "9db002ee11ac22fed173352553ee24da20b344f434da4a9ff546cd69bbc4894a",
    "detect strong --cnf tri12.cnf -k 2": "8f601ef5d9681582c26b0d46be565a7665c496546aefac7a9ebb60c6e662202f",
    "detect weak --cnf grid5.cnf -k 1": "302c1ab9f9d232ec165a2e5c141970ab95962b30eed9be4a75357caff8e83713",
    "count --cnf tri.cnf --backdoor 1": "529951ec451be0078837409597cf67c0b58dff2b5ef604d04f7d4030ee3ae08c",
    "count --cnf grid3.cnf": "5291b4aabf3a4600de8112b90b87228d2b050a270d90891f9fa5a5a451bb472e",
    "verify --cnf grid3.cnf --kind strong --set 10": "6139c8507c2a0d266cb1e95dca12e52fea027326b406af34eb5f7e988a4b9c48",
    "verify --cnf grid3.cnf --kind weak --set 10": "f69b3c7b59df1e78a7032da15b4f8ba9db211138f23661da0561657667bb521e",
    "verify --cnf rnd.cnf --kind weak --set 1,3,4": "7337fbf508f214c44c5478254d2cba55a3b132c97ed315bde2756a3a353691ff",
    "verify --cnf grid3.cnf --kind weak --set 1,2,10": "d68dd73cc419fe8318f1435c24efaafd76d1e0cafd00ed8429cb0af1d8314199",
    "verify --cnf rnd.cnf --kind weak --set 1,2": "43109474ba7c6c5a764a9e6da7ca80c67455673f0d8bad8dd955ab8e2899c506",
    "count --cnf grid4.cnf --backdoor 17,1,3,6,8,9,11,14,16": "1c2d9fead678af2440ff4878c3c85253adfbcf7baccbc7bb436a5c9fa116f387",
    "verify --cnf grid4.cnf --kind strong --set 17,1,3,6,8,9,11,14,16": "f926cff919787b4fc229e3994be23e26a2daa7bca286fac8f2ed065a6956ac43",
    "verify --cnf grid4.cnf --kind strong --set 1,3,6,8,9,11,14,16": "6b706788dcdd097fc21d6caab204d57cf3435bfcee7835dbcd3fe91c31a0b81d",
    "oracle strong --cnf tri.cnf --k-max 2": "11fa38988cccac7eb313ffdb368a7538636d1f71e9f1ffdc6e6a2100a630845b",
    "oracle count --cnf grid3.cnf": "089dd2be2a42cb0cff784f0ff984755d516cd6142e9784c7eb4e3b5112cd7969",
    "stats --cnf grid3.cnf": "c56244f94fb264c3a3d08cfff4787ae1fc399044214f99a803b4b56b4f461052",
    "stats --cnf rnd.cnf": "db86cf00924ab5f0185976bc180f9fd08e56ed0ab9f48c5aabd4246451b4197f",
}


def test_criterion_10_report_determinism(tmp_path, monkeypatch):
    from test_cli import run

    start = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "grid", "--size", "3", "-o", "grid3.cnf"])[0] == 0
    assert run(["gen", "grid", "--size", "4", "-o", "grid4.cnf"])[0] == 0
    assert run(["gen", "grid", "--size", "5", "-o", "grid5.cnf"])[0] == 0
    (tmp_path / "tri.cnf").write_text("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n", encoding="ascii")
    (tmp_path / "tri12.cnf").write_text(emit_dimacs(disjoint_triangles(12)), encoding="ascii")
    assert run(["gen", "hitting", "--sets", "1,2;2,3", "-o", "hit.cnf"])[0] == 0
    assert run(["gen", "random", "-n", "8", "-m", "12", "-r", "3", "--seed", "5", "-o", "rnd.cnf"])[0] == 0

    battery = [
        "detect weak --cnf grid3.cnf -k 1",
        "detect strong --cnf grid3.cnf -k 1",
        "detect deletion --cnf grid3.cnf -k 1",
        "detect weak --cnf rnd.cnf -k 2",
        "detect strong --cnf rnd.cnf -k 2",
        "detect weak --cnf hit.cnf -k 1",
        # Both take the packing route: 11 packed triangles for strong at
        # budget 2, three packed grid cycles for weak at 1.
        "detect strong --cnf tri12.cnf -k 2",
        "detect weak --cnf grid5.cnf -k 1",
        "count --cnf tri.cnf --backdoor 1",
        "count --cnf grid3.cnf",
        "verify --cnf grid3.cnf --kind strong --set 10",
        "verify --cnf grid3.cnf --kind weak --set 10",
        # The weak witness walk: a witness whose first variable is True (1=T,
        # 3=F, 4=T), one found in the last variable's True branch (10=T), and
        # a set with no witness.
        "verify --cnf rnd.cnf --kind weak --set 1,3,4",
        "verify --cnf grid3.cnf --kind weak --set 1,2,10",
        "verify --cnf rnd.cnf --kind weak --set 1,2",
        # The conditioning walk: grid 4's extra variable, 17, is its most
        # connected, so the walk assigns it first and cuts below both values;
        # without it the set is not strong.
        "count --cnf grid4.cnf --backdoor 17,1,3,6,8,9,11,14,16",
        "verify --cnf grid4.cnf --kind strong --set 17,1,3,6,8,9,11,14,16",
        "verify --cnf grid4.cnf --kind strong --set 1,3,6,8,9,11,14,16",
        "oracle strong --cnf tri.cnf --k-max 2",
        "oracle count --cnf grid3.cnf",
        "stats --cnf grid3.cnf",
        "stats --cnf rnd.cnf",
    ]
    digests = {}
    for command in battery:
        argv = command.split() + ["--json", "--no-timing"]
        outputs = [
            run(argv + ["--threads", "1"]),
            run(argv + ["--threads", "1"]),
            run(argv + ["--threads", "4"]),
            run(argv + ["--threads", "4"]),
        ]
        first = outputs[0]
        assert all(o == first for o in outputs), argv
        json.loads(first[1])
        digests[command] = _report_digest(first)
    assert digests == PINNED_REPORTS
    elapsed = time.perf_counter() - start
    report(
        "criterion-10 determinism",
        elapsed,
        None,
        f"{len(battery)} commands byte-identical across runs, 1 vs 4 threads and the pinned digests",
    )
