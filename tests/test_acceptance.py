"""Acceptance gate: one test and one printed PASS/FAIL line per shipped claim.

Settings and seeds are pinned so every number is reproducible. The heavier
studies reuse the library's own harness entry points.
"""

import json
import math

import pytest

from mdpauction.auction import run_auction
from mdpauction.baselines import RobustConfig, run_cbba
from mdpauction.cli import main as cli_main
from mdpauction.harness import (
    bench_complexity,
    check_monotonicity_V,
    convergence_study,
    derive_seed,
    optimality_study,
    strip_wall_columns,
    submodularity_study,
)
from mdpauction.instance import GenerationConfig, generate_instance
from mdpauction.rollout import validate
from mdpauction.valuedp import (
    FINISH,
    SERVE,
    SKIP,
    Action,
    AgentState,
    ValueSolver,
    action_value,
    build_quadrature,
    mean_scenario,
    value_of,
)

from oracles import (
    adaptive_value_oracle,
    best_over_attempt_sequences,
    enumerate_schedules_continuous,
)


def report(capsys, idx, name, ok, detail):
    line = f"criterion {idx} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# --- 1: conflict-freedom and capacity ------------------------------------------------


def test_criterion_1_conflict_freedom(capsys):
    sigma_grid = (0.0, 0.05, 0.1, 0.2)
    violations = 0
    allocations = 0
    for i in range(500):
        n = 2 + i % 4
        sigma = sigma_grid[(i // 4) % 4]
        seed = derive_seed(11, 1, i)
        inst = generate_instance(
            GenerationConfig(n_tasks=n, n_agents=2, sigma_v_sq=sigma, seed=seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=1 if sigma == 0.0 else 4)
        results = (
            run_auction(inst, solver=solver),
            run_cbba(inst),
            run_cbba(inst, variant="robust",
                     robust_cfg=RobustConfig(sample_count=25, seed=seed)),
        )
        for result in results:
            allocations += 1
            if not result.converged:
                violations += 1
                continue
            seen = set()
            for agent in inst.agents:
                tasks = result.assignment[agent.id]
                if len(tasks) > agent.capacity:
                    violations += 1
                for j in tasks:
                    if j in seen:
                        violations += 1
                    seen.add(j)
    report(capsys, 1, "conflict-freedom and capacity", violations == 0,
           f"({allocations} allocations over 500 instances, "
           f"{violations} violations)")


# --- 2: half-optimality ---------------------------------------------------------------


def test_criterion_2_half_optimality(capsys):
    rows = optimality_study(count=200, seed=0)
    bad = 0
    for row in rows:
        if row["opt_value"] > 0.0:
            # exact comparison, both sides from the same value tables
            if not row["auction_value"] >= 0.5 * row["opt_value"]:
                bad += 1
        elif row["auction_value"] < row["opt_value"]:
            bad += 1
    ratios = sorted(row["ratio"] for row in rows)
    mean_ratio = math.fsum(ratios) / len(ratios)
    at_opt = sum(1 for r in ratios if r >= 1.0 - 1e-12)
    report(capsys, 2, "half-optimality", bad == 0,
           f"(200 instances, ratio min {ratios[0]:.4f} "
           f"median {ratios[100]:.4f} mean {mean_ratio:.4f} "
           f"max {ratios[-1]:.4f}; optimal on {at_opt}, "
           f"{bad} below 0.5)")


# --- 3: submodularity and monotonicity -------------------------------------------------


def test_criterion_3_submodularity_suite(capsys):
    # Known to fail: closed-loop values are not protected by the route-level
    # screen. The screen certifies the clairvoyant reward scenario by
    # scenario, but the adaptive policy re-optimizes per subset, and its
    # option value can make a task pair complementary (e.g. the instance at
    # seed 4230629742: marginal of task 2 is 0.5 alone but 0.75 once task 1
    # provides a fallback leg). The gap is grid-independent, reproduced by
    # an independent recursion, and survives richer screens.
    study = submodularity_study(count=100, seed=0)
    seeds = sorted({w["instance_seed"] for w in study["witnesses"]})
    mono_checks = 0
    mono_violations = 0
    # monotonicity is unconditional: same draw stream, no screening
    for draw in range(100):
        sigma = (0.05, 0.1, 0.2)[draw % 3]
        inst = generate_instance(
            GenerationConfig(n_tasks=3, n_agents=1, sigma_v_sq=sigma,
                             seed=derive_seed(0, 3, draw))
        )
        rep = check_monotonicity_V(
            inst, max_set=3, solver=ValueSolver(inst, quadrature_nodes=2)
        )
        mono_checks += rep.checks
        mono_violations += rep.violations
    ok = study["violations"] == 0 and mono_violations == 0
    report(capsys, 3, "value submodularity on screened instances", ok,
           f"(screened {study['screened']} to reach {study['checked']} "
           f"route-submodular instances; {study['violations']} value "
           f"violations at 1e-9, worst {study['worst']:.4f}, offending "
           f"seeds {seeds}; monotonicity {mono_checks} checks, "
           f"{mono_violations} violations)")


# --- 4 and 5 share one sweep -----------------------------------------------------------


@pytest.fixture(scope="module")
def trend_reports():
    out = []
    for i in range(100):
        n = 2 + i % 4
        seed = derive_seed(13, 4, i)
        inst = generate_instance(
            GenerationConfig(n_tasks=n, n_agents=2, sigma_v_sq=0.1, seed=seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=8)
        allocations = {
            "auction": run_auction(inst, solver=solver),
            "cbba": run_cbba(inst),
        }
        reports = validate(inst, allocations, rounds=100, seed=derive_seed(13, 40, i))
        out.append((inst, reports))
    return out


def test_criterion_4_prediction_trend(trend_reports, capsys):
    gaps = {"auction": [], "cbba": []}
    served = {"auction": 0, "cbba": 0}
    chances = {"auction": 0, "cbba": 0}
    for inst, reports in trend_reports:
        for method, rep in reports.items():
            gaps[method].append(abs(rep.expected_reward - rep.actual_reward_mean))
            served[method] += rep.served_total
            chances[method] += rep.rollout_count * inst.n_tasks
    gap_a = math.fsum(gaps["auction"]) / len(gaps["auction"])
    gap_c = math.fsum(gaps["cbba"]) / len(gaps["cbba"])
    fin_a = served["auction"] / chances["auction"]
    fin_c = served["cbba"] / chances["cbba"]
    ok = (gap_a <= gap_c and fin_a >= fin_c
          and 0.90 <= fin_a <= 1.00 and 0.90 <= fin_c <= 1.00)
    report(capsys, 4, "prediction gap and finish rate", ok,
           f"(100 instances x 100 paired rollouts: mean |gap| auction "
           f"{gap_a:.4f} vs cbba {gap_c:.4f}; finish rate auction "
           f"{fin_a:.4f} vs cbba {fin_c:.4f}, both within [0.90, 1.00])")


def test_criterion_5_reward_identity(trend_reports, capsys):
    # unit prices and penalty: mean reward = n * (2 * finish_rate - 1);
    # e.g. a finish rate of 0.966 on two tasks implies a mean of 1.864
    assert 2 * (2 * 0.966 - 1) == pytest.approx(1.864, abs=1e-12)
    worst = 0.0
    checked = 0
    for inst, reports in trend_reports:
        for rep in reports.values():
            implied = inst.n_tasks * (2 * rep.finish_rate - 1)
            worst = max(worst, abs(rep.actual_reward_mean - implied))
            checked += 1
    report(capsys, 5, "reward identity", worst <= 1e-9,
           f"({checked} reports, worst |actual - n*(2f-1)| = {worst:.3e})")


# --- 6: complexity accounting ----------------------------------------------------------


def test_criterion_6_complexity_accounting(capsys):
    rows = bench_complexity(n_values=(2, 3, 4, 5), n_agents=2, seed=0,
                            robust_samples=100, repeats=5, instances_per_n=10)
    by = {(r["n_tasks"], r["method"]): r for r in rows}
    ns = (2, 3, 4, 5)
    exact_n = all(
        by[(n, "robust-cbba")]["score_evaluations"]
        == 100 * by[(n, "cbba")]["score_evaluations"]
        for n in ns
    )
    counter_ratios = [
        by[(n, "cbba")]["score_evaluations"]
        / by[(n, "auction")]["score_evaluations"]
        for n in ns
    ]
    counters_increase = all(b > a for a, b in zip(counter_ratios,
                                                  counter_ratios[1:]))
    wall_ratios = [
        by[(n, "robust-cbba")]["coordination_wall_s"]
        / by[(n, "auction")]["coordination_wall_s"]
        for n in ns
    ]
    wall_increases = all(b > a for a, b in zip(wall_ratios, wall_ratios[1:]))
    ok = exact_n and counters_increase and wall_increases
    report(capsys, 6, "evaluation counters and wall-time scaling", ok,
           f"(robust/cbba counters exactly 100x: {exact_n}; cbba/auction "
           f"counter ratios {[round(r, 3) for r in counter_ratios]}; "
           f"robust/auction wall ratios {[round(r, 1) for r in wall_ratios]})")


# --- 7: convergence bound --------------------------------------------------------------


def test_criterion_7_convergence_bound(capsys):
    rows = convergence_study(count=500, seed=0,
                             topologies=("complete", "ring", "line"), n_agents=4)
    over = sum(1 for r in rows if r["rounds"] > r["bound"])
    not_converged = sum(1 for r in rows if not r["converged"])
    worst = max(r["rounds"] for r in rows)
    bound = max(r["bound"] for r in rows)
    ok = over == 0 and not_converged == 0 and len(rows) == 500
    report(capsys, 7, "convergence within tasks x diameter", ok,
           f"({len(rows)} runs over complete/ring/line, {over} over bound, "
           f"{not_converged} unconverged, max rounds {worst} vs largest "
           f"bound {bound})")


# --- 8: value-table equivalence ---------------------------------------------------------


def _all_subsets(n):
    out = [()]
    for j in range(n):
        out += [s + (j,) for s in out]
    return out


def test_criterion_8_value_equivalence(capsys):
    failures = 0
    checks = 0
    # (a) zero variance: table values equal exhaustive sequence enumeration
    for k in range(6):
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=0.0,
                             seed=derive_seed(17, 8, k))
        )
        agent = inst.agents[0]
        solver = ValueSolver(inst, quadrature_nodes=1)
        for subset in _all_subsets(4):
            checks += 1
            if solver.set_value(agent, subset) != best_over_attempt_sequences(
                inst, agent, subset, agent.speed.mean
            ):
                failures += 1
    # (b) stochastic: independent top-down recursion agrees to 1e-9
    for k in range(4):
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=0.1,
                             seed=derive_seed(17, 9, k))
        )
        agent = inst.agents[0]
        solver = ValueSolver(inst, quadrature_nodes=4)
        quad = build_quadrature(agent.speed, 4)
        for subset in _all_subsets(4):
            checks += 1
            got = solver.set_value(agent, subset)
            want = adaptive_value_oracle(inst, agent, subset, quad)
            if abs(got - want) > 1e-9:
                failures += 1
    # (c) grid slack: continuous clairvoyant enumeration brackets the table
    # value once windows are tightened by step * |subset|
    for k in range(6):
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=0.0,
                             seed=derive_seed(17, 10, k))
        )
        agent = inst.agents[0]
        solver = ValueSolver(inst, quadrature_nodes=1, grid_step=1.0)
        scenario = mean_scenario(inst)
        subset = tuple(range(4))
        checks += 1
        value = solver.set_value(agent, subset)
        upper = enumerate_schedules_continuous(inst, agent, subset, scenario)
        lower = enumerate_schedules_continuous(inst, agent, subset, scenario,
                                               slack=1.0 * len(subset))
        if not (lower - 1e-9 <= value <= upper + 1e-9):
            failures += 1
    # (d) 1000 sampled states satisfy the greedy-action identity exactly
    import numpy as np

    rng = np.random.default_rng(2024)
    states = 0
    while states < 1000:
        seed = derive_seed(17, 11, states)
        sigma, nodes = ((0.0, 1), (0.1, 4))[states % 2]
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=sigma, seed=seed)
        )
        agent = inst.agents[0]
        table = ValueSolver(inst, quadrature_nodes=nodes).table(
            agent, range(4)
        )
        for _ in range(50):
            states += 1
            remaining = {j for j in range(4) if rng.integers(2)}
            state = AgentState(
                time=float(rng.integers(0, 481)),
                at=int(rng.integers(0, 5)),
                remaining=remaining,
            )
            candidates = [Action(FINISH)]
            for j in sorted(remaining):
                candidates += [Action(SERVE, j), Action(SKIP, j)]
            best = max(action_value(table, state, a) for a in candidates)
            checks += 1
            if value_of(table, state) != best:
                failures += 1
            if states >= 1000:
                break
    report(capsys, 8, "table vs enumeration", failures == 0,
           f"({checks} checks: deterministic exact, stochastic to 1e-9, "
           f"grid-slack bracket, 1000-state greedy identity; "
           f"{failures} failures)")


# --- 9: CLI determinism -----------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def run(args):
        code = cli_main(args)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    mismatches = []

    def compare(label, first, second):
        if first != second:
            mismatches.append(label)

    inst_a = tmp_path / "a.json"
    inst_b = tmp_path / "b.json"
    compare("gen stdout",
            run(["gen", "--n", "3", "--m", "2", "--seed", "5"]),
            run(["gen", "--n", "3", "--m", "2", "--seed", "5"]))
    run(["gen", "--n", "4", "--m", "2", "--sigma", "0.1", "--seed", "6",
         "--out", str(inst_a)])
    run(["gen", "--n", "4", "--m", "2", "--sigma", "0.1", "--seed", "6",
         "--out", str(inst_b)])
    compare("gen file", inst_a.read_text(), inst_b.read_text())

    plan_a = tmp_path / "plan_a.json"
    plan_b = tmp_path / "plan_b.json"
    compare("solve stdout",
            run(["solve", str(inst_a), "--quadrature", "4",
                 "--out", str(plan_a)]),
            run(["solve", str(inst_a), "--quadrature", "4",
                 "--out", str(plan_b)]))
    compare("solve json", plan_a.read_text(), plan_b.read_text())
    json.loads(plan_a.read_text())  # must stay valid JSON

    csv_a = tmp_path / "v_a.csv"
    csv_b = tmp_path / "v_b.csv"
    compare("validate stdout",
            run(["validate", str(inst_a), "--rounds", "20",
                 "--quadrature", "4", "--samples", "10", "--out", str(csv_a)]),
            run(["validate", str(inst_a), "--rounds", "20",
                 "--quadrature", "4", "--samples", "10", "--out", str(csv_b)]))
    compare("validate csv", csv_a.read_text(), csv_b.read_text())

    bench_a = tmp_path / "b_a.csv"
    bench_b = tmp_path / "b_b.csv"
    compare("bench stdout",
            run(["bench", "--dims", "2,3", "--samples", "10", "--repeats", "1",
                 "--out", str(bench_a)]),
            run(["bench", "--dims", "2,3", "--samples", "10", "--repeats", "1",
                 "--out", str(bench_b)]))
    compare("bench csv minus wall times",
            strip_wall_columns(bench_a.read_text()),
            strip_wall_columns(bench_b.read_text()))

    compare("check stdout",
            run(["check", "--property", "monotonicity", "--trials", "5"]),
            run(["check", "--property", "monotonicity", "--trials", "5"]))

    report(capsys, 9, "CLI determinism", not mismatches,
           f"(gen/solve/validate/bench/check run twice; mismatches: "
           f"{mismatches if mismatches else 'none'})")
