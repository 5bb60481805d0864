import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from mdpauction.auction import AllocationResult, run_auction
from mdpauction.baselines import RobustConfig, run_cbba
from mdpauction.instance import (
    AgentSpec,
    GenerationConfig,
    Location,
    MissionInstance,
    SpeedModel,
    Task,
    generate_instance,
)
from mdpauction import valuedp
from mdpauction.harness import check_submodularity_V
from mdpauction.rollout import _execute_rows, _rewards, validate
from mdpauction.valuedp import SUBSET_CAP, ValueSolver, solve_value

from oracles import (
    scenario_per_seed,
    scenario_seeds,
    validate_per_scenario,
)


def make_task(i, x, y=0.0, ready=0.0, due=480.0, tau=10.0, windowed=True):
    return Task(id=i, location=Location(x, y), price=1.0, ready_time=ready,
                due_time=due, service_duration=tau, windowed=windowed)


def make_instance(tasks, agent_starts, capacity=3, sigma=0.0):
    speed = SpeedModel(mean=1.0, variance=sigma, truncation_floor=0.1)
    agents = [
        AgentSpec(id=i, start=Location(*p), capacity=capacity, speed=speed)
        for i, p in enumerate(agent_starts)
    ]
    return MissionInstance(horizon=480.0, depot=Location(0.0, 0.0), penalty=1.0,
                           tasks=list(tasks), agents=agents)


def manual_result(inst, assignment, unassigned, method="cbba", solver=None):
    return AllocationResult(
        method=method,
        assignment=assignment,
        paths={a: list(b) for a, b in assignment.items()},
        unassigned=list(unassigned),
        per_agent_value={a: 0.0 for a in assignment},
        rounds_to_converge=1,
        converged=True,
        score_evaluations=0,
        solver=solver,
    )


# --- scenario sampling --------------------------------------------------------------


def test_scenario_zero_variance_is_mean_everywhere(monkeypatch):
    inst = make_instance([make_task(0, 10.0), make_task(1, 20.0)], [(0.0, 0.0)])

    def refuse(seed):
        raise AssertionError("zero variance creates no generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    speeds = inst.speed.sample([99, 100], (3, 3))
    assert speeds.shape == (2, 3, 3)
    assert (speeds == 1.0).all()


def test_scenario_seed_determinism():
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=1, sigma_v_sq=0.1, seed=1)
    )
    a, b, c = inst.speed.sample([7, 7, 8], (4, 4))
    assert (a == b).all()
    assert not (a == c).all()
    # a row depends on its own seed only, not on the rows drawn before it
    assert (inst.speed.sample([8], (4, 4))[0] == c).all()


def test_scenario_floor_applied():
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=1, sigma_v_sq=0.5, seed=2)
    )
    floor = inst.agents[0].speed.truncation_floor
    speeds = inst.speed.sample(range(200), (4, 4))
    assert (speeds >= floor).all()
    assert (speeds == floor).any()  # at this variance the floor must actually bind


def test_scenario_arcs_uncorrelated():
    # opposite directions of one leg are separate draws; estimate their correlation
    inst = generate_instance(
        GenerationConfig(n_tasks=1, n_agents=1, sigma_v_sq=0.1, seed=0)
    )
    speeds = inst.speed.sample(range(100_000), (2, 2))
    assert abs(np.corrcoef(speeds[:, 0, 1], speeds[:, 1, 0])[0, 1]) < 0.02


# --- one scenario row ------------------------------------------------------------------


def execute_one(inst, result, seed=0):
    """(reward, served ids, failed ids) of `result` on the one scenario drawn from seed."""
    size = inst.n_tasks + 1
    speeds = inst.speed.sample([seed], (size, size))
    served, failed = _execute_rows(inst, result, speeds)
    reward = _rewards(inst, served, failed, len(result.unassigned))[0]
    return reward, np.flatnonzero(served[0]).tolist(), np.flatnonzero(failed[0]).tolist()


def test_execute_all_unassigned_pays_full_penalty():
    tasks = [make_task(i, 10.0 * (i + 1)) for i in range(3)]
    inst = make_instance(tasks, [(0.0, 0.0)])
    result = manual_result(inst, {0: []}, [0, 1, 2])
    reward, served, failed = execute_one(inst, result)
    assert reward == -3.0
    assert served == [] and failed == []
    assert result.unassigned == [0, 1, 2]


def test_execute_counts_failures_against_reward():
    # one reachable task, one already expired: net 1 - 1 = 0
    good = make_task(0, 10.0)
    stale = make_task(1, 300.0, due=100.0)
    inst = make_instance([good, stale], [(0.0, 0.0)])
    result = manual_result(inst, {0: [0, 1]}, [])
    assert execute_one(inst, result) == (0.0, [0], [1])


def test_execute_mixed_accounting():
    # served 2, failed 1, unassigned 1 at unit prices: 2 - 1 - 1 = 0
    tasks = [
        make_task(0, 10.0),
        make_task(1, 20.0),
        make_task(2, 400.0, due=50.0),
        make_task(3, 30.0),
    ]
    inst = make_instance(tasks, [(0.0, 0.0)])
    result = manual_result(inst, {0: [0, 1, 2]}, [3])
    assert execute_one(inst, result) == (0.0, [0, 1], [2])


def test_mdp_policy_skips_expired_tasks():
    # the table policy should walk away from the expired task instead of
    # flying, whatever order the frozen path lists
    good = make_task(0, 10.0)
    stale = make_task(1, 300.0, due=100.0)
    inst = make_instance([good, stale], [(0.0, 0.0)])
    solver = ValueSolver(inst, quadrature_nodes=1)
    result = manual_result(inst, {0: [1, 0]}, [], method="auction", solver=solver)
    assert execute_one(inst, result) == (0.0, [0], [1])


def test_arrival_exactly_at_due_time_is_served():
    # 10 minutes out at unit speed lands on the due time itself, which counts
    inst = make_instance([make_task(0, 10.0, due=10.0)], [(0.0, 0.0)])
    solver = ValueSolver(inst, quadrature_nodes=1)
    fixed = manual_result(inst, {0: [0]}, [])
    adaptive = manual_result(inst, {0: [0]}, [], method="auction", solver=solver)
    for result in (fixed, adaptive):
        assert execute_one(inst, result) == (1.0, [0], [])


def test_allocation_without_solver_flies_its_paths():
    # with no solver the frozen path is flown in its own order, whatever the
    # method is called: the expired task first, then the good one too late
    good = make_task(0, 10.0)
    stale = make_task(1, 300.0, due=100.0)
    inst = make_instance([good, stale], [(0.0, 0.0)])
    for method in ("cbba", "auction"):
        result = manual_result(inst, {0: [1, 0]}, [], method=method)
        assert execute_one(inst, result) == (-2.0, [], [0, 1])


# --- validate ----------------------------------------------------------------------


def test_validate_rejects_zero_rounds():
    inst = make_instance([make_task(0, 10.0)], [(0.0, 0.0)])
    result = manual_result(inst, {0: [0]}, [])
    with pytest.raises(ValueError):
        validate(inst, {"cbba": result}, rounds=0)


def test_reward_identity_unit_prices():
    # with unit prices the mean reward is fixed by the three counters
    for seed in range(6):
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=0.1, seed=seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=4)
        allocations = {
            "auction": run_auction(inst, solver=solver),
            "cbba": run_cbba(inst),
        }
        reports = validate(inst, allocations, rounds=40, seed=seed)
        for rep in reports.values():
            implied = (
                rep.served_total - rep.failed_total - rep.unassigned_total
            ) / rep.rollout_count
            assert rep.actual_reward_mean == pytest.approx(implied, abs=1e-9)


def test_reward_identity_full_assignment_arithmetic():
    # every task assigned: mean = n * (2 * finish_rate - 1); e.g. a rate of
    # 0.966 on two tasks implies a mean of 1.864
    assert 2 * (2 * 0.966 - 1) == pytest.approx(1.864)
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=2, sigma_v_sq=0.05, seed=3)
    )
    solver = ValueSolver(inst, quadrature_nodes=4)
    result = run_auction(inst, solver=solver)
    assert not result.unassigned  # construction check: all tasks assigned
    rep = validate(inst, {"auction": result}, rounds=200, seed=3)["auction"]
    assert rep.actual_reward_mean == pytest.approx(
        inst.n_tasks * (2 * rep.finish_rate - 1), abs=1e-9
    )


def test_zero_variance_actual_equals_expected():
    for seed in range(6):
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=0.0, seed=seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=1)
        result = run_auction(inst, solver=solver)
        rep = validate(inst, {"auction": result}, rounds=5, seed=seed)["auction"]
        assert rep.actual_reward_std == 0.0
        assert rep.actual_reward_mean == rep.expected_reward


def test_validate_is_paired_and_repeatable():
    inst = generate_instance(
        GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=0.1, seed=9)
    )
    twin = run_cbba(inst)
    clone = manual_result(inst, twin.assignment, twin.unassigned, method="robust-cbba")
    clone.paths = twin.paths
    reports = validate(inst, {"cbba": twin, "robust-cbba": clone}, rounds=60, seed=1)
    # identical plans on the shared scenario list must score identically
    a, b = reports["cbba"], reports["robust-cbba"]
    assert a.actual_reward_mean == b.actual_reward_mean
    assert a.actual_reward_std == b.actual_reward_std
    assert a.finish_rate == b.finish_rate
    again = validate(inst, {"cbba": twin, "robust-cbba": clone}, rounds=60, seed=1)
    for method in reports:
        lhs, rhs = reports[method].as_row(), again[method].as_row()
        lhs.pop("method"), rhs.pop("method")
        assert lhs == rhs


def test_adaptive_policy_dominates_frozen_path():
    # replanning on realized times can only help on average; paired rollouts
    total = 0.0
    count = 0
    for seed in range(10):
        inst = generate_instance(
            GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=0.1, seed=100 + seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=4)
        adaptive = run_auction(inst, solver=solver)
        frozen = dataclasses.replace(adaptive, solver=None)
        size = inst.n_tasks + 1
        speeds = inst.speed.sample(range(777_000 + seed * 1000, 777_100 + seed * 1000),
                                   (size, size))
        for result, sign in ((adaptive, 1.0), (frozen, -1.0)):
            rewards = _rewards(inst, *_execute_rows(inst, result, speeds), len(result.unassigned))
            total += sign * math.fsum(rewards)
        count += speeds.shape[0]
    assert count == 1000
    assert total / count > 0.5


# --- lockstep rollouts against the per-scenario loop ----------------------------------


def hex_row(report):
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.as_row().items()}


def assert_rows_match_oracle(inst, allocations, rounds, seed, stops=None):
    """validate's reports bit for bit, and every scenario's served and failed."""
    want, outcomes = validate_per_scenario(inst, allocations, rounds, seed, stops)
    got = validate(inst, allocations, rounds=rounds, seed=seed)
    assert list(got) == list(want)
    for method in allocations:
        assert hex_row(got[method]) == hex_row(want[method]), method
    seeds = scenario_seeds(seed, rounds)
    size = inst.n_tasks + 1
    speeds = inst.speed.sample(seeds, (size, size))
    for r, s in enumerate(seeds):
        assert speeds[r].tobytes() == scenario_per_seed(inst, s).speeds.tobytes()
    for method, allocation in allocations.items():
        served, failed = _execute_rows(inst, allocation, speeds)
        rewards = _rewards(inst, served, failed, len(allocation.unassigned))
        for r, (reward, served_ids, failed_ids) in enumerate(outcomes[method]):
            assert np.flatnonzero(served[r]).tolist() == served_ids, (method, r)
            assert np.flatnonzero(failed[r]).tolist() == failed_ids, (method, r)
            assert rewards[r].hex() == reward.hex(), (method, r)


SIGMAS = (0.0, 0.05, 0.1, 0.3)
NODES = (1, 3, 8)
GRIDS = (0.5, 1.0, 2.0)
HORIZONS = (480.0, 120.0, 60.0)
ROUNDS = (1, 7, 200)


def lockstep_case(i):
    """Case i of the diff test: every n in 0..13 (13 is beyond the subset cap)."""
    n = i % 14
    sigma = SIGMAS[(i // 14) % 4]
    nodes = NODES[i % 3]
    grid = GRIDS[(i // 3) % 3]
    horizon = HORIZONS[(i // 9) % 3]
    rounds = ROUNDS[(i // 2) % 3]
    m = 1 + i % 3 if n <= SUBSET_CAP else 3 + i % 2
    bins = horizon / grid
    # keep each case's tables small: the shortest horizon on the coarsest grid
    if (n > SUBSET_CAP and bins > 30) or (
        n <= SUBSET_CAP and (1 << n) * (n + 1) * bins * n * nodes > 2e7
    ):
        horizon, grid = 60.0, 2.0
    return n, m, sigma, nodes, grid, horizon, rounds


def test_lockstep_validate_bit_identical_to_per_scenario_loop():
    stops = Counter()
    for i in range(120):
        n, m, sigma, nodes, grid, horizon, rounds = lockstep_case(i)
        inst = generate_instance(GenerationConfig(
            n_tasks=n, n_agents=m, sigma_v_sq=sigma, seed=1000 + i, horizon=horizon))
        solver = ValueSolver(inst, quadrature_nodes=nodes, grid_step=grid)
        allocations = {
            "auction": run_auction(inst, solver=solver),
            "cbba": run_cbba(inst),
            "robust-cbba": run_cbba(inst, variant="robust",
                                   robust_cfg=RobustConfig(sample_count=8, seed=i)),
        }
        assert_rows_match_oracle(inst, allocations, rounds, i, stops)
    # late arrivals, runs that end past the horizon and runs that resolve
    # every task all occur
    assert stops["late"] and stops["horizon"] and stops["empty"], stops


@pytest.mark.parametrize("sigma, nodes, grid", [(0.0, 8, 1.0), (0.1, 4, 2.0)])
def test_beyond_cap_tables_and_rollouts(sigma, nodes, grid):
    # n > SUBSET_CAP: each start's row store answers every queried set
    inst = generate_instance(
        GenerationConfig(n_tasks=13, n_agents=4, sigma_v_sq=sigma, seed=5)
    )
    assert inst.n_tasks > SUBSET_CAP
    solver = ValueSolver(inst, quadrature_nodes=nodes, grid_step=grid)
    allocation = run_auction(inst, solver=solver)
    others = iter(range(inst.n_tasks))
    for agent in inst.agents:
        bundle = sorted(allocation.assignment.get(agent.id, []))
        assert solver.table(agent, bundle).task_ids == tuple(bundle)
        # a dense table over a superset answers every subset of the bundle
        wider = sorted(set(bundle) | {next(others), next(others)})
        dense = solve_value(inst, agent, wider, quad=solver.quad,
                            grid_step=grid)
        for size in range(len(bundle) + 1):
            for subset in itertools.combinations(bundle, size):
                want = float(dense.values[dense.mask_of(subset), 0, 0])
                assert solver.set_value(agent, subset).hex() == want.hex(), subset
        # sets that share rows with the bundle and with each other: the bundle
        # plus one or two more tasks, read after the bundle's rows are stored
        outside = [j for j in range(inst.n_tasks) if j not in bundle][:3]
        for extra in [(j,) for j in outside] + list(itertools.combinations(outside, 2)):
            grown = sorted(set(bundle) | set(extra))
            dense = solve_value(inst, agent, grown, quad=solver.quad, grid_step=grid)
            value = float(dense.values[dense.mask_of(grown), 0, 0])
            assert solver.set_value(agent, grown).hex() == value.hex(), grown
            for j in extra:
                rest = [i for i in grown if i != j]
                gain = value - float(dense.values[dense.mask_of(rest), 0, 0])
                assert solver.marginal_gain(agent, rest, j).hex() == gain.hex(), (rest, j)
    assert_rows_match_oracle(inst, {"auction": allocation}, 200, 13)


def test_validate_follows_the_tables_the_auction_planned_with(monkeypatch):
    # planned at Q = 2 on a 15-minute grid, the auction's allocation carries its
    # solver: validate re-reads those cached tables, solves none, and so
    # differs from rollouts on a default solver's (Q = 8, grid 1) tables
    inst = generate_instance(
        GenerationConfig(n_tasks=6, n_agents=2, sigma_v_sq=0.2, seed=3)
    )
    allocation = run_auction(inst, solver=ValueSolver(inst, quadrature_nodes=2, grid_step=15.0))
    want, _ = validate_per_scenario(inst, {"auction": allocation}, 200, 5)
    solves = Counter()
    solve = valuedp.solve_value

    def counting(*args, **kwargs):
        solves["tables"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(valuedp, "solve_value", counting)
    got = validate(inst, {"auction": allocation}, rounds=200, seed=5)
    assert solves["tables"] == 0
    assert hex_row(got["auction"]) == hex_row(want["auction"])
    default = dataclasses.replace(allocation, solver=ValueSolver(inst))
    other = validate(inst, {"auction": default}, rounds=200, seed=5)
    assert solves["tables"] > 0
    assert hex_row(other["auction"]) != hex_row(got["auction"])


def test_solve_value_computes_every_table_cell_a_solver_counts(monkeypatch):
    # the benchmark's tracer counts tables and cells by patching solve_value,
    # so every table a solver holds, re-solves included, must come from it,
    # and its cells must be counted as it returns
    returned = []
    solve = valuedp.solve_value

    def recording(*args, **kwargs):
        table = solve(*args, **kwargs)
        returned.append((table, table.computed))
        return table

    monkeypatch.setattr(valuedp, "solve_value", recording)
    inst = generate_instance(GenerationConfig(n_tasks=8, n_agents=3, sigma_v_sq=0.1, seed=81))
    shared = ValueSolver(inst)
    validate(inst, {"auction": run_auction(inst, solver=shared)}, rounds=200, seed=1)
    built = len(returned)
    # capacity 2 of 4 tasks: the check queries sets past the layer bound
    small = generate_instance(GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=0.1,
                                               seed=7, capacity=2))
    bounded = ValueSolver(small, quadrature_nodes=4)
    check_submodularity_V(small, solver=bounded)
    checked = len(returned)
    # n = 14 > SUBSET_CAP: a batch returns exactly the rows it added to the store
    wide = generate_instance(GenerationConfig(n_tasks=14, n_agents=3, sigma_v_sq=0.1, seed=81))
    stored = ValueSolver(wide, quadrature_nodes=3)
    validate(wide, {"auction": run_auction(wide, solver=stored)}, rounds=200, seed=1)
    for solver, solves in ((shared, returned[:built]), (bounded, returned[built:checked]),
                           (stored, returned[checked:])):
        assert len(solves) == solver.stats.tables_built > 0
        assert sum(cells for _, cells in solves) == solver.stats.cells_computed
        assert all(any(held is table for table, _ in solves)
                   for held in solver._tables.values())
    assert bounded.stats.tables_built == 2
    assert not stored._tables and len(stored._stores) == 1
    assert all(batch.policy.size == batch.values.size == cells
               for batch, cells in returned[checked:])
    (store,) = stored._stores.values()
    rows = [used - 1 for used in store.used]  # row 0 is mask 0's
    assert sum(table.rows for table, _ in returned[checked:]) == sum(rows) == store.rows
    assert stored.stats.cells_computed == sum(r * w for r, w in zip(rows, store.width))


@pytest.mark.parametrize("grid", [0.3, 0.7, 3.7])
def test_lockstep_validate_over_pruned_tables_matches_dense_tables(grid):
    # tables solved only through the capacity, on their readable cells, on
    # grids whose multiples are inexact in floating point (dues sit one float
    # step below one): every rollout reads solved cells only, and replays
    # exactly as over dense tables
    late = 0
    for i in range(6):
        n, m = 5 + i % 3, 2 + i % 2
        inst = generate_instance(GenerationConfig(
            n_tasks=n, n_agents=m, sigma_v_sq=0.3, seed=500 + i, horizon=160.0,
            mean_speed=2.0))
        tasks = []
        for task in inst.tasks:
            due = math.nextafter(math.floor(task.due_time / grid) * grid, 0.0)
            tasks.append(dataclasses.replace(task, due_time=due,
                                             ready_time=min(task.ready_time, due)))
        inst = dataclasses.replace(inst, tasks=tasks)
        solver = ValueSolver(inst, quadrature_nodes=3, grid_step=grid)
        allocation = run_auction(inst, solver=solver)
        assert all(solver.table(a).solved < n for a in inst.agents)
        got = validate(inst, {"auction": allocation}, rounds=1000, seed=i)
        wide = dataclasses.replace(
            inst, agents=[dataclasses.replace(a, capacity=n) for a in inst.agents])
        dense = ValueSolver(wide, quadrature_nodes=3, grid_step=grid)
        assert all(dense.table(a).solved == n for a in inst.agents)
        want = validate(inst, {"auction": dataclasses.replace(allocation, solver=dense)},
                        rounds=1000, seed=i)
        assert hex_row(got["auction"]) == hex_row(want["auction"])
        late += got["auction"].failed_total
    assert late > 0


def test_validate_memory_within_rollout_bytes():
    import tracemalloc

    from mdpauction.rollout import rollout_bytes

    for n, rounds in [(1, 5000), (6, 3000), (12, 1000)]:
        inst = generate_instance(GenerationConfig(n_tasks=n, n_agents=2, sigma_v_sq=0.1,
                                                  seed=n))
        allocations = {
            "auction": run_auction(inst, solver=ValueSolver(inst, quadrature_nodes=2,
                                                            grid_step=4.0)),
            "cbba": run_cbba(inst),
        }
        tracemalloc.start()
        try:
            validate(inst, allocations, rounds=rounds, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rollout_bytes(n, rounds), (n, peak)
