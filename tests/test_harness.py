import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mdpauction.harness import (
    CSV_COLUMNS,
    WALL_COLUMNS,
    ExperimentConfig,
    PropertyReport,
    bench_complexity,
    brute_force_opt,
    check_monotonicity_V,
    check_submodularity_V,
    classify_r_submodular,
    convergence_study,
    derive_seed,
    optimality_study,
    rows_to_csv,
    run_experiment,
    strip_wall_columns,
    submodularity_study,
)
from mdpauction.auction import NetworkModel, run_auction
from mdpauction.baselines import RobustConfig
from mdpauction.instance import (
    AgentSpec,
    GenerationConfig,
    Location,
    MissionInstance,
    SpeedModel,
    Task,
    generate_instance,
)
from mdpauction.valuedp import ValueSolver
from mdpauction import baselines, harness, valuedp
from oracles import assignment_scenarios, classify_per_assignment, route_reward_per_scenario


def make_task(i, x, y=0.0, ready=0.0, due=480.0, tau=10.0):
    return Task(id=i, location=Location(x, y), price=1.0, ready_time=ready,
                due_time=due, service_duration=tau, windowed=True)


def make_instance(tasks, agent_starts, capacity=3, sigma=0.0):
    speed = SpeedModel(mean=1.0, variance=sigma, truncation_floor=0.1)
    agents = [
        AgentSpec(id=i, start=Location(*p), capacity=capacity, speed=speed)
        for i, p in enumerate(agent_starts)
    ]
    return MissionInstance(horizon=480.0, depot=Location(0.0, 0.0), penalty=1.0,
                           tasks=list(tasks), agents=agents)


# --- seeds and reports ----------------------------------------------------------


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    seen = {derive_seed(0, a, b) for a in range(6) for b in range(6)}
    assert len(seen) == 36
    assert all(0 <= s < 2**32 for s in seen)


def test_property_report_thresholds():
    report = PropertyReport(name="demo")
    report.record(0.0, {"case": 1}, 1e-9)
    report.record(5e-10, {"case": 2}, 1e-9)
    assert report.ok and report.checks == 2 and report.violations == 0
    report.record(2e-9, {"case": 3}, 1e-9)
    assert not report.ok
    assert report.worst == 2e-9
    assert report.witnesses == [{"case": 3}]


# --- value-table property checks ---------------------------------------------------


def test_submodularity_on_colocated_tasks():
    # everything at the depot: the value is just the subset size, which is
    # modular, so no violation can appear
    tasks = [make_task(i, 0.0) for i in range(3)]
    inst = make_instance(tasks, [(0.0, 0.0)])
    report = check_submodularity_V(inst, max_set=3)
    assert report.ok
    assert report.checks > 0
    assert classify_r_submodular(inst, quadrature_nodes=2)


def test_monotonicity_holds_on_generated_instances():
    for seed in range(4):
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=0.1, seed=seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=3)
        report = check_monotonicity_V(inst, solver=solver)
        assert report.ok, report.witnesses[:1]


def test_check_caps_instance_size():
    inst = generate_instance(
        GenerationConfig(n_tasks=5, n_agents=1, sigma_v_sq=0.0, seed=0)
    )
    with pytest.raises(ValueError):
        check_submodularity_V(inst, max_set=4)
    with pytest.raises(ValueError):
        check_monotonicity_V(inst, max_set=4)


def test_route_screen_finds_a_violating_geometry():
    # pinned draw from the study stream whose clairvoyant rewards are not
    # submodular under the 2-node speed grid
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=1, sigma_v_sq=0.2, seed=845058081)
    )
    assert not classify_r_submodular(inst, quadrature_nodes=2)


def test_route_screen_matches_per_assignment_oracle(monkeypatch):
    # 100 seeded draws over n = 1..3 and every variance, plus the pinned draw
    # the screen rejects: the verdict equals the one-assignment-at-a-time
    # screen's, and on every 7th assignment row each subset's reward equals
    # the scalar recursion's in hex
    calls = []
    batched = harness.deterministic_route_reward

    def recording(inst, agent, allocated, speeds, due_slack=0.0):
        rewards = batched(inst, agent, allocated, speeds, due_slack)
        calls.append((tuple(allocated), speeds, rewards))
        return rewards

    monkeypatch.setattr(harness, "deterministic_route_reward", recording)
    seeds = np.random.default_rng(12).integers(0, 2**32, size=100).tolist()
    cases = [(1 + i % 3, (0.0, 0.05, 0.1, 0.2)[i % 4], seed) for i, seed in enumerate(seeds)]
    verdicts = []
    for n, sigma, seed in cases + [(3, 0.2, 845058081)]:
        inst = generate_instance(
            GenerationConfig(n_tasks=n, n_agents=1, sigma_v_sq=sigma, seed=seed)
        )
        agent = inst.agents[0]
        calls.clear()
        verdict = classify_r_submodular(inst, quadrature_nodes=2)
        assert verdict == classify_per_assignment(inst, quadrature_nodes=2), (n, sigma, seed)
        verdicts.append(verdict)
        assert len(calls) == 2**n
        sampled = itertools.islice(assignment_scenarios(inst, agent, 2), 0, None, 7)
        for r, scenario in zip(itertools.count(0, 7), sampled):
            for subset, speeds, rewards in calls:
                assert np.array_equal(speeds[r], scenario.speeds), (seed, r)
                want = route_reward_per_scenario(inst, agent, subset, scenario)
                assert float(rewards[r]).hex() == want.hex(), (seed, r, subset)
    assert any(verdicts) and not all(verdicts)


def test_route_screen_refuses_oversized_grid_before_allocating():
    # n = 5 at Q = 2 has 25 arcs: 2^25 rows of 6x6 speeds, about 10 GB
    inst = generate_instance(
        GenerationConfig(n_tasks=5, n_agents=1, sigma_v_sq=0.1, seed=0)
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{2**25} speed rows"):
            classify_r_submodular(inst, quadrature_nodes=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_route_screen_at_zero_variance_scores_one_row(monkeypatch):
    # zero variance is one exact node whatever Q is: n = 5 at Q = 2, refused
    # above at sigma^2 0.1, scores a single speed row and gives a verdict
    inst = generate_instance(
        GenerationConfig(n_tasks=5, n_agents=1, sigma_v_sq=0.0, seed=0)
    )
    rows = set()
    batched = harness.deterministic_route_reward

    def recording(inst, agent, allocated, speeds, due_slack=0.0):
        rows.add(speeds.shape[0])
        return batched(inst, agent, allocated, speeds, due_slack)

    monkeypatch.setattr(harness, "deterministic_route_reward", recording)
    verdict = classify_r_submodular(inst, quadrature_nodes=2)
    assert rows == {1}
    assert verdict == classify_per_assignment(inst, quadrature_nodes=2)


# --- brute force -------------------------------------------------------------------


def test_brute_force_single_task():
    inst = make_instance([make_task(0, 10.0)], [(0.0, 0.0), (200.0, 0.0)])
    value, mapping = brute_force_opt(inst)
    assert value == 1.0
    owners = [a for a, tasks in mapping.items() if tasks]
    assert len(owners) == 1
    assert mapping[owners[0]] == [0]


def test_brute_force_parks_unreachable_task():
    # the objective only charges unassigned tasks, so the optimum assigns the
    # hopeless task somewhere (value 0) instead of paying the penalty
    inst = make_instance([make_task(0, 300.0, due=1.0)], [(0.0, 0.0)])
    value, mapping = brute_force_opt(inst)
    assert value == 0.0
    assert mapping == {0: [0]}


def test_brute_force_penalty_binds_over_capacity():
    # two hopeless tasks, one seat: one must stay unassigned and costs 1
    tasks = [make_task(0, 300.0, due=1.0), make_task(1, 310.0, due=1.0)]
    inst = make_instance(tasks, [(0.0, 0.0)], capacity=1)
    value, mapping = brute_force_opt(inst)
    assert value == -1.0
    assert len(mapping[0]) == 1


def test_brute_force_respects_capacity():
    tasks = [make_task(0, 0.0), make_task(1, 0.0)]
    inst = make_instance(tasks, [(0.0, 0.0)], capacity=1)
    value, mapping = brute_force_opt(inst)
    assert value == 0.0  # serve one, pay for the other
    assert len(mapping[0]) == 1


def test_brute_force_size_caps():
    inst = generate_instance(
        GenerationConfig(n_tasks=5, n_agents=2, sigma_v_sq=0.0, seed=0)
    )
    with pytest.raises(ValueError):
        brute_force_opt(inst)
    inst = generate_instance(
        GenerationConfig(n_tasks=2, n_agents=4, sigma_v_sq=0.0, seed=0)
    )
    with pytest.raises(ValueError):
        brute_force_opt(inst, max_agents=3)


def test_brute_force_upper_bounds_auction():
    for seed in range(6):
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=0.1, seed=seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=4)
        auction = run_auction(inst, solver=solver).expected_reward(inst)
        opt, _ = brute_force_opt(inst, solver=solver)
        assert opt >= auction - 1e-9


# --- studies -----------------------------------------------------------------------


def test_optimality_study_rows():
    rows = optimality_study(count=6, seed=0)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {
            "instance_seed", "sigma_v_sq", "auction_value", "opt_value", "ratio"
        }
        assert row["ratio"] >= 0.5
        assert row["auction_value"] <= row["opt_value"] + 1e-9
    assert rows == optimality_study(count=6, seed=0)


def test_submodularity_study_counts():
    summary = submodularity_study(count=5, seed=0)
    assert summary["checked"] == 5
    assert summary["screened"] >= 5
    assert summary["violations"] == 0


def test_convergence_study_rows():
    rows = convergence_study(count=12, seed=0, n_agents=4)
    assert len(rows) == 12
    diameters = {"complete": 1, "ring": 2, "line": 3}
    for row in rows:
        assert row["diameter"] == diameters[row["topology"]]
        assert row["converged"]
        assert row["rounds"] <= row["bound"]
        assert row["oscillating"] == 0


# --- experiment sweep ----------------------------------------------------------------


def small_config():
    return ExperimentConfig(
        dimensions=((2, 2),),
        sigma_grid=(0.0, 0.1),
        instances_per_cell=2,
        rollout_rounds=10,
        robust_samples=10,
        quadrature_nodes=4,
    )


def test_run_experiment_shape_and_determinism():
    cfg = small_config()
    first = run_experiment(cfg)
    assert not first.errors
    # 1 cell x 2 sigmas x 2 instances x 3 methods
    assert len(first.rows) == 12
    assert {row["method"] for row in first.rows} == {"auction", "cbba", "robust-cbba"}
    second = run_experiment(cfg)
    assert rows_to_csv(first.rows, include_wall=False) == rows_to_csv(
        second.rows, include_wall=False
    )


def test_parallel_sweep_records_errors_like_serial(monkeypatch):
    # n_agents=0 makes the second cell's instance generation raise
    cfg = ExperimentConfig(dimensions=((2, 2), (2, 0)), sigma_grid=(0.1,),
                           instances_per_cell=1, rollout_rounds=5,
                           robust_samples=5, quadrature_nodes=2)
    monkeypatch.delenv("MDPAUCTION_WORKERS", raising=False)
    serial = run_experiment(cfg)
    monkeypatch.setenv("MDPAUCTION_WORKERS", "2")
    parallel = run_experiment(cfg)
    assert len(serial.rows) == 3
    assert [e["n_agents"] for e in serial.errors] == [0]
    assert "n_agents must be >= 1" in serial.errors[0]["error"]
    assert rows_to_csv(parallel.rows, include_wall=False) == rows_to_csv(
        serial.rows, include_wall=False
    )
    assert parallel.errors == serial.errors


def test_sweep_records_repeated_methods_as_errors():
    cfg = dataclasses.replace(small_config(), methods=("cbba", "cbba"))
    result = run_experiment(cfg)
    assert result.rows == []
    assert len(result.errors) == 4  # one per mission
    for error in result.errors:
        assert error["error"].startswith("ValueError: method 'cbba' is repeated")
        assert "--methods" not in error["error"]  # the sweep has no such flag


def test_sweep_records_oversized_robust_batches_as_errors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no batch may be sampled")

    monkeypatch.setattr(baselines, "_sample_scenarios", refuse)
    cfg = dataclasses.replace(small_config(), methods=("robust-cbba",),
                              robust_samples=10**7)
    result = run_experiment(cfg)
    assert result.rows == []
    assert len(result.errors) == 4  # one per mission
    for error in result.errors:
        assert error["error"].startswith(
            "ValueError: sample_count 10000000 over n_tasks=2 needs")


def test_run_mission_without_rollouts_leaves_rollout_cells_empty():
    inst = generate_instance(GenerationConfig(n_tasks=3, n_agents=2, sigma_v_sq=0.1, seed=4))
    args = (inst, ("robust-cbba", "auction"), NetworkModel.complete(2),
            RobustConfig(10, 5), 4)
    with_rollouts = harness.run_mission(*args, rounds=10, seed=3)
    without = harness.run_mission(*args, rounds=0)
    assert [row["method"] for row in without] == ["robust-cbba", "auction"]
    for full, bare in zip(with_rollouts, without):
        assert "actual_reward_mean" not in bare
        assert full["rollout_count"] == 10
        kept = set(bare) - set(WALL_COLUMNS)
        assert {c: full[c] for c in kept} == {c: bare[c] for c in kept}


def test_sweep_runs_missions_beyond_the_subset_cap():
    # n = 13 > SUBSET_CAP: the auction fills one row store per start, as
    # `mdpauction validate` does, instead of prebuilding a table over all tasks
    cfg = ExperimentConfig(dimensions=((13, 4),), sigma_grid=(0.0,),
                           instances_per_cell=1, methods=("auction",),
                           rollout_rounds=10)
    result = run_experiment(cfg)
    assert result.errors == []
    (row,) = result.rows
    inst = generate_instance(GenerationConfig(
        n_tasks=13, n_agents=4, sigma_v_sq=0.0, seed=row["instance_seed"]))
    allocation = run_auction(inst, network=NetworkModel.complete(4),
                             solver=ValueSolver(inst))
    assert row["expected_reward"] == allocation.expected_reward(inst)


def test_sweep_records_a_row_store_over_the_byte_cap(monkeypatch):
    # 1 MiB is less than the serve transitions of n = 13 tasks on a one-minute grid
    monkeypatch.setattr(valuedp, "TABLE_BYTES_CAP", 1 << 20)
    cfg = ExperimentConfig(dimensions=((13, 2),), sigma_grid=(0.0,),
                           instances_per_cell=1, methods=("auction",), rollout_rounds=0)
    result = run_experiment(cfg)
    assert result.rows == []
    (error,) = result.errors
    assert error["n_tasks"] == 13
    assert error["error"].startswith(
        "ValueError: the value rows of one start over n=13 tasks with 481 time bins and "
        "Q=1 quadrature nodes would hold")


def test_rows_to_csv_layout():
    cfg = small_config()
    rows = run_experiment(cfg).rows
    full = rows_to_csv(rows)
    header = full.splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    assert strip_wall_columns(full) == rows_to_csv(rows, include_wall=False)
    stripped_header = strip_wall_columns(full).splitlines()[0].split(",")
    assert all(c not in stripped_header for c in WALL_COLUMNS)
    assert strip_wall_columns("") == ""


def test_sweep_csv_prints_numpy_sigmas_like_python_floats():
    cfg = dataclasses.replace(small_config(), methods=("auction",), rollout_rounds=0)
    as_numpy = dataclasses.replace(cfg, sigma_grid=tuple(np.array(cfg.sigma_grid)))
    assert rows_to_csv(run_experiment(as_numpy).rows, include_wall=False) == rows_to_csv(
        run_experiment(cfg).rows, include_wall=False
    )


def test_network_topologies():
    assert NetworkModel.from_name("ring", 4, seed=0).diameter == 2
    assert NetworkModel.from_name("line", 4, seed=0).diameter == 3
    with pytest.raises(ValueError):
        NetworkModel.from_name("nonsense", 4, seed=0)


def test_bench_counters_deterministic():
    kwargs = dict(n_values=(2, 3), n_agents=2, seed=0, robust_samples=10,
                  repeats=1, instances_per_n=2)
    rows = bench_complexity(**kwargs)
    assert len(rows) == 6
    by_key = {(r["n_tasks"], r["method"]): r for r in rows}
    for n in (2, 3):
        cbba = by_key[(n, "cbba")]["score_evaluations"]
        robust = by_key[(n, "robust-cbba")]["score_evaluations"]
        assert robust == 10 * cbba
    again = bench_complexity(**kwargs)
    assert [r["score_evaluations"] for r in rows] == [
        r["score_evaluations"] for r in again
    ]


@pytest.mark.parametrize("field", ["repeats", "instances_per_n"])
def test_bench_rejects_empty_counts(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
        bench_complexity(n_values=(2,), **{field: 0})
