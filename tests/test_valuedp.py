import dataclasses
import itertools
import math
import random
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from mdpauction.instance import (
    AgentSpec,
    GenerationConfig,
    PLANE_SIDE,
    Location,
    MissionInstance,
    SpeedModel,
    Task,
    distance,
    generate_instance,
)
from mdpauction.harness import check_submodularity_V
from mdpauction.valuedp import (
    FINISH,
    LAYER_BLOCK_CELLS,
    SERVE,
    SKIP,
    UNSOLVED,
    Action,
    AgentState,
    QuadratureRule,
    RowBatch,
    Scenario,
    SolverStats,
    ValueSolver,
    action_value,
    build_quadrature,
    deterministic_route_reward,
    mean_scenario,
    next_action,
    solve_value,
    value_of,
)


def make_task(i, x, y=0.0, ready=0.0, due=480.0, tau=10.0, price=1.0, windowed=True):
    return Task(id=i, location=Location(x, y), price=price, ready_time=ready,
                due_time=due, service_duration=tau, windowed=windowed)


def make_instance(tasks, sigma=0.0, capacity=None, start=(0.0, 0.0), horizon=480.0):
    speed = SpeedModel(mean=1.0, variance=sigma, truncation_floor=0.1)
    agent = AgentSpec(id=0, start=Location(*start),
                      capacity=capacity or max(len(tasks), 1), speed=speed)
    return MissionInstance(horizon=horizon, depot=Location(*start), penalty=1.0,
                           tasks=list(tasks), agents=[agent])


# independent oracles live in oracles.py so the acceptance suite can share them
from oracles import (  # noqa: E402
    adaptive_value_oracle,
    best_over_attempt_sequences,
    enumerate_schedules_continuous,
    next_action_per_state,
    route_reward_per_scenario,
    scalar_value_tables,
    simulate_attempt_sequence,
)


# --- quadrature ---------------------------------------------------------------


def test_quadrature_degenerate():
    rule = build_quadrature(SpeedModel(1.0, 0.0, 0.1), 1)
    assert rule.speeds == (1.0,)
    assert rule.weights == (1.0,)


def test_quadrature_zero_variance_many_nodes():
    # zero variance is the one exact node whatever the count, even 0
    for q in (0, 8):
        rule = build_quadrature(SpeedModel(1.0, 0.0, 0.1), q)
        assert rule.speeds == (1.0,)
        assert rule.weights == (1.0,)


@pytest.mark.parametrize("sigma,q", [(0.1, 2), (0.1, 8), (0.2, 16), (0.05, 5)])
def test_quadrature_weights_normalized(sigma, q):
    rule = build_quadrature(SpeedModel(1.0, sigma, 0.1), q)
    assert len(rule.speeds) == q
    assert abs(sum(rule.weights) - 1.0) <= 1e-12
    assert all(w > 0 for w in rule.weights)
    assert all(s >= 0.1 for s in rule.speeds)


def test_quadrature_rejects_bad_count():
    with pytest.raises(ValueError):
        build_quadrature(SpeedModel(1.0, 0.1, 0.1), 0)


def test_quadrature_rejects_non_finite_rule(monkeypatch):
    # numpy's Gauss-Hermite weights overflow to NaN at 600 nodes; a NaN weight
    # would drop every serve from the table instead of failing
    model = SpeedModel(1.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="^node_count 600 gives a Gauss-Hermite rule"):
        build_quadrature(model, 600)
    # finite weights with no positive sum are refused too
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                        lambda n: (np.zeros(n), np.zeros(n)))
    with pytest.raises(ValueError, match="^node_count 3 gives a Gauss-Hermite rule"):
        build_quadrature(model, 3)


BAD_RULES = {
    # each would solve silently wrong: a NaN weight never wins a comparison,
    # so every serve drops out; a speed at or below 0 arrives before leaving
    # or divides by zero; weights that do not sum to 1 scale every value
    "no nodes": ((), (), "at least one node"),
    "unequal lengths": ((1.0, 2.0), (1.0,), "one weight per speed"),
    "nan speed": ((math.nan,), (1.0,), "speed nan"),
    "infinite speed": ((math.inf,), (1.0,), "speed inf"),
    "zero speed": ((0.0,), (1.0,), "speed 0.0"),
    "negative speed": ((-1.0,), (1.0,), "speed -1.0"),
    "nan weight": ((1.0, 2.0), (math.nan, 1.0), "weight nan"),
    "infinite weight": ((1.0, 2.0), (math.inf, 1.0), "weight inf"),
    "negative weight": ((1.0, 2.0), (1.5, -0.5), "weight -0.5"),
    "weights sum to 0.5": ((1.0, 2.0), (0.25, 0.25), "sum to 0.5"),
}


@pytest.mark.parametrize("name", BAD_RULES)
def test_quadrature_rule_the_dp_cannot_honour_is_refused(name):
    speeds, weights, message = BAD_RULES[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        QuadratureRule(speeds, weights)


def test_quadrature_rule_weight_sum_tolerance():
    QuadratureRule((1.0, 2.0), (0.5, 0.5 + 9e-10))
    with pytest.raises(ValueError, match="sum to"):
        QuadratureRule((1.0, 2.0), (0.5, 0.5 + 2e-9))


def test_quadrature_against_monte_carlo():
    # Monte Carlo reference for E[1/V] under the clamped normal speed.
    model = SpeedModel(1.0, 0.1, 0.1)
    rng = np.random.default_rng(20240831)
    draws = np.maximum(rng.normal(1.0, math.sqrt(0.1), 1_000_000), 0.1)
    inv = 1.0 / draws
    reference = inv.mean()
    se = inv.std(ddof=1) / math.sqrt(inv.size)

    def estimate(q):
        rule = build_quadrature(model, q)
        return math.fsum(w / s for s, w in zip(rule.speeds, rule.weights))

    # The clamp concentrates left-tail mass on a point the 8-node rule cannot
    # place a node at, which biases E[1/V] high by ~0.017; the rule converges
    # to the Monte Carlo value by Q=32.
    assert abs(estimate(8) - reference) < 0.02
    assert abs(estimate(32) - reference) <= 3 * se


# --- solve_value on hand-built geometries -------------------------------------


def test_empty_allocation_value_zero():
    inst = make_instance([make_task(0, 30.0)])
    table = solve_value(inst, inst.agents[0], ())
    state = AgentState(remaining=(), at=0, time=0.0)
    assert value_of(table, state) == 0.0
    assert next_action(table, state) == Action(FINISH, None)


def test_colocated_task_guaranteed():
    inst = make_instance([make_task(0, 0.0, due=480.0, windowed=False)])
    table = solve_value(inst, inst.agents[0], (0,))
    assert value_of(table, AgentState(remaining=(0,), at=0, time=0.0)) == 1.0


def test_two_task_ordering_example():
    # A at x=10 with window [0,40]; B at x=20 with window [0,25]; unit speed.
    # Serving A first makes B fail (arrive at 30 > 25); B first serves both.
    a = make_task(0, 10.0, ready=0.0, due=40.0, tau=10.0)
    b = make_task(1, 20.0, ready=0.0, due=25.0, tau=10.0)
    inst = make_instance([a, b])
    agent = inst.agents[0]
    table = solve_value(inst, agent, (0, 1))
    start = AgentState(remaining=(0, 1), at=0, time=0.0)
    assert value_of(table, start) == 2.0
    assert next_action(table, start) == Action(SERVE, 1)
    # the failing order really fails under the same grid semantics
    assert simulate_attempt_sequence(inst, agent, (0, 1), 1.0, 1.0) == 1.0
    assert simulate_attempt_sequence(inst, agent, (1, 0), 1.0, 1.0) == 2.0


def test_unreachable_task_zero_value():
    # due time before any possible arrival
    far = make_task(0, 100.0, due=20.0, tau=10.0)
    inst = make_instance([far])
    table = solve_value(inst, inst.agents[0], (0,))
    state = AgentState(remaining=(0,), at=0, time=0.0)
    assert value_of(table, state) == 0.0


def test_rejects_oversized_subset_and_bad_grid():
    tasks = [make_task(i, 5.0 * (i + 1)) for i in range(13)]
    inst = make_instance(tasks)
    with pytest.raises(ValueError):
        solve_value(inst, inst.agents[0], tuple(range(13)))
    with pytest.raises(ValueError):
        solve_value(inst, inst.agents[0], (0,), grid_step=0.0)


# --- oracle equivalence --------------------------------------------------------


def random_small_instance(seed, n=3, sigma=0.0):
    return generate_instance(
        GenerationConfig(n_tasks=n, n_agents=1, sigma_v_sq=sigma, seed=seed)
    )


@pytest.mark.parametrize("seed", range(12))
def test_deterministic_value_equals_sequence_enumeration(seed):
    inst = random_small_instance(seed, n=3, sigma=0.0)
    agent = inst.agents[0]
    ids = tuple(range(inst.n_tasks))
    table = solve_value(inst, agent, ids, grid_step=1.0)
    for r in range(len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            got = value_of(table, AgentState(remaining=subset, at=0, time=0.0))
            want = best_over_attempt_sequences(inst, agent, subset, 1.0)
            assert got == want, (subset, got, want)


@pytest.mark.parametrize("seed", range(8))
def test_stochastic_value_matches_adaptive_oracle(seed):
    inst = random_small_instance(seed, n=3, sigma=0.1)
    agent = inst.agents[0]
    ids = tuple(range(inst.n_tasks))
    quad = build_quadrature(agent.speed, 4)
    table = solve_value(inst, agent, ids, quad=quad, grid_step=1.0)
    got = value_of(table, AgentState(remaining=ids, at=0, time=0.0))
    want = adaptive_value_oracle(inst, agent, ids, quad)
    assert got == pytest.approx(want, abs=1e-9)


def test_value_independent_of_ground_set():
    # solving over a superset must give the same values for every sub-query
    inst = random_small_instance(3, n=4, sigma=0.1)
    agent = inst.agents[0]
    quad = build_quadrature(agent.speed, 4)
    full = solve_value(inst, agent, (0, 1, 2, 3), quad=quad)
    for subset in [(0,), (1, 3), (0, 2), (1, 2, 3)]:
        small = solve_value(inst, agent, subset, quad=quad)
        state = AgentState(remaining=subset, at=0, time=0.0)
        assert value_of(full, state) == value_of(small, state)


# --- differential test against the per-state solver --------------------------


def _differential_cases():
    """(k, sigma^2, Q, grid step, duplicate task 0) per case; k=0 and k=1 first."""
    rng = random.Random(20261017)
    cases = [(0, 0.1, 8, 1.0, False), (1, 0.0, 1, 1.0, False),
             (1, 0.3, 3, 0.5, False), (1, 0.05, 2, 3.7, False)]
    while len(cases) < 120:
        k = rng.randint(0, 8)
        cases.append((k, rng.choice([0.0, 0.05, 0.1, 0.3]), rng.choice([1, 2, 3, 8]),
                      rng.choice([0.5, 1.0, 2.0, 3.7]), k >= 2 and rng.random() < 0.25))
    return cases


DIFFERENTIAL_CASES = _differential_cases()


@pytest.mark.parametrize("case", range(len(DIFFERENTIAL_CASES)))
def test_layer_pass_bit_identical_to_scalar_solver(case):
    # every cell is compared, (mask, location) pairs unreachable from the
    # start included
    k, sigma, q, grid, duplicate = DIFFERENTIAL_CASES[case]
    inst = generate_instance(GenerationConfig(n_tasks=k + 2, n_agents=1,
                                              sigma_v_sq=sigma, seed=1000 + case))
    ids = sorted(random.Random(case).sample(range(inst.n_tasks), k))
    if duplicate:
        # an exact copy of task 0 forces ties between Serve rows
        tasks = list(inst.tasks)
        tasks[1] = dataclasses.replace(tasks[0], id=1)
        inst = dataclasses.replace(inst, tasks=tasks)
        ids = [0, 1] + sorted(random.Random(case).sample(range(2, k + 2), k - 2))
    agent = inst.agents[0]
    quad = build_quadrature(agent.speed, q)
    table = solve_value(inst, agent, ids, quad=quad, grid_step=grid)
    values, policy = scalar_value_tables(inst, agent, ids, quad, grid)
    assert table.values.shape == values.shape
    assert table.values.tobytes() == values.tobytes()
    assert table.policy.dtype == policy.dtype
    assert np.array_equal(table.policy, policy)


def test_layer_pass_scratch_memory_bound():
    # at a half-minute grid the largest layer (70 masks) spans three blocks
    inst = random_small_instance(4, n=8, sigma=0.1)
    agent = inst.agents[0]
    quad = build_quadrature(agent.speed, 8)
    tracemalloc.start()
    try:
        table = solve_value(inst, agent, range(8), quad=quad, grid_step=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k, nq, cells = 8, 8, 9 * table.time_bins
    bound = (12 * k * nq * cells + 48 * max(LAYER_BLOCK_CELLS, cells)
             + 32 * 2**k + 65536)  # as stated in the solve_value docstring
    scratch = peak - table.values.nbytes - table.policy.nbytes
    assert 0 < scratch <= bound, (scratch, bound)


# --- Bellman max-Q identity ----------------------------------------------------


@pytest.mark.parametrize("sigma,q", [(0.0, 1), (0.1, 4)])
def test_max_q_identity_sampled_states(sigma, q):
    inst = random_small_instance(11, n=4, sigma=sigma)
    agent = inst.agents[0]
    ids = tuple(range(inst.n_tasks))
    quad = build_quadrature(agent.speed, q)
    table = solve_value(inst, agent, ids, quad=quad)
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = int(rng.integers(0, len(ids) + 1))
        subset = tuple(sorted(rng.choice(ids, size=r, replace=False).tolist()))
        at = int(rng.integers(0, len(ids) + 1))
        t_bin = int(rng.integers(0, int(inst.horizon) + 1))
        state = AgentState(remaining=subset, at=at, time=float(t_bin))
        actions = [Action(FINISH, None)]
        for j in subset:
            actions.append(Action(SERVE, j))
            actions.append(Action(SKIP, j))
        qs = [action_value(table, state, a) for a in actions]
        assert value_of(table, state) == max(qs)
        # the stored argmax attains the value exactly
        chosen = next_action(table, state)
        assert action_value(table, state, chosen) == value_of(table, state)


def test_next_action_tie_priority():
    # two colocated free tasks: Serve beats Skip/Finish, lowest id first
    t0 = make_task(0, 0.0, windowed=False)
    t1 = make_task(1, 0.0, windowed=False)
    inst = make_instance([t0, t1])
    table = solve_value(inst, inst.agents[0], (0, 1))
    act = next_action(table, AgentState(remaining=(0, 1), at=0, time=0.0))
    assert act == Action(SERVE, 0)


@pytest.mark.parametrize("sigma,grid", [(0.0, 1.0), (0.1, 2.0), (0.3, 0.5)])
def test_lookup_matches_per_state_read(sigma, grid):
    # every (mask, location) at times on, between and past the bin edges
    inst = random_small_instance(7, n=4, sigma=sigma)
    inst = dataclasses.replace(inst, horizon=60.0)
    table = solve_value(inst, inst.agents[0], range(4), grid_step=grid)
    # solved tables hold only Serve codes here; random codes cover Skip and Finish
    codes = np.random.default_rng(int(grid * 10)).integers(0, 9, size=table.policy.shape)
    table = dataclasses.replace(table, policy=codes.astype(np.int16))
    times = [0.0, 0.3, grid, 1.7 * grid, 59.9, 60.0, 60.0 + grid / 2, 61.0, 500.0]
    states = [(mask, loc, t) for mask in range(16) for loc in range(5) for t in times]
    mask, loc, t = (np.array(col) for col in zip(*states))
    go, serve, local = table.lookup(mask, loc, t)
    assert go.shape == serve.shape == local.shape == (len(states),)
    for i, (m, at, time) in enumerate(states):
        state = AgentState(time, at, [j for j in range(4) if m >> j & 1])
        expected = next_action_per_state(table, state)
        assert next_action(table, state) == expected
        if expected.kind == FINISH:
            assert not go[i]
        else:
            assert go[i] and serve[i] == (expected.kind == SERVE)
            assert table.task_ids[local[i]] == expected.task_id


# --- structural invariants -------------------------------------------------------


def test_monotone_in_subsets():
    inst = random_small_instance(21, n=5, sigma=0.1)
    agent = inst.agents[0]
    ids = tuple(range(5))
    quad = build_quadrature(agent.speed, 3)
    table = solve_value(inst, agent, ids, quad=quad)

    def v(subset):
        return value_of(table, AgentState(remaining=subset, at=0, time=0.0))

    for r in range(len(ids) + 1):
        for big in itertools.combinations(ids, r):
            for small_r in range(r):
                for small in itertools.combinations(big, small_r):
                    assert v(big) >= v(small) - 1e-12


def test_value_bounds():
    for seed in range(6):
        inst = random_small_instance(seed + 50, n=4, sigma=0.2)
        agent = inst.agents[0]
        quad = build_quadrature(agent.speed, 4)
        table = solve_value(inst, agent, (0, 1, 2, 3), quad=quad)
        v = value_of(table, AgentState(remaining=(0, 1, 2, 3), at=0, time=0.0))
        assert 0.0 <= v <= sum(t.price for t in inst.tasks) + 1e-12


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_grid_refinement_monotone(sigma):
    inst = random_small_instance(33, n=3, sigma=sigma)
    agent = inst.agents[0]
    quad = build_quadrature(agent.speed, 1 if sigma == 0.0 else 4)
    values = []
    for step in (4.0, 2.0, 1.0, 0.5):
        table = solve_value(inst, agent, (0, 1, 2), quad=quad, grid_step=step)
        values.append(value_of(table, AgentState(remaining=(0, 1, 2), at=0,
                                                 time=0.0)))
    # nested grids: halving the step only relaxes the snapped-arrival checks
    for coarse, fine in zip(values, values[1:]):
        assert fine >= coarse - 1e-12
    r_max = max(t.price for t in inst.tasks)
    for coarse, fine in zip(values, values[1:]):
        assert fine - coarse <= 3 * r_max + 1e-12


# --- deterministic_route_reward ---------------------------------------------------


def test_route_reward_empty():
    inst = make_instance([make_task(0, 10.0)])
    assert deterministic_route_reward(inst, inst.agents[0], (),
                                      mean_scenario(inst).speeds[None])[0] == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_route_reward_matches_schedule_enumeration(seed):
    inst = random_small_instance(seed + 70, n=4, sigma=0.1)
    agent = inst.agents[0]
    rng = np.random.default_rng(seed)
    size = inst.n_tasks + 1
    speeds = np.maximum(rng.normal(1.0, 0.3, (size, size)), 0.1)
    scenario = Scenario(speeds)
    got = deterministic_route_reward(inst, agent, (0, 1, 2, 3), speeds[None])[0]
    want = enumerate_schedules_continuous(inst, agent, (0, 1, 2, 3), scenario)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_grid_value_bracketed_by_continuous_reward(seed):
    # V with snapped arrivals can lose at most one grid step per task of due
    # slack, and can never beat the clairvoyant continuous plan.
    inst = random_small_instance(seed + 90, n=3, sigma=0.0)
    agent = inst.agents[0]
    ids = (0, 1, 2)
    step = 1.0
    table = solve_value(inst, agent, ids, grid_step=step)
    v = value_of(table, AgentState(remaining=ids, at=0, time=0.0))
    speeds = mean_scenario(inst).speeds[None]
    upper = deterministic_route_reward(inst, agent, ids, speeds)[0]
    lower = deterministic_route_reward(inst, agent, ids, speeds,
                                       due_slack=step * len(ids))[0]
    assert lower - 1e-12 <= v <= upper + 1e-12


def test_route_reward_mean_scenario_tracks_fine_grid():
    inst = random_small_instance(123, n=3, sigma=0.0)
    agent = inst.agents[0]
    ids = (0, 1, 2)
    speeds = mean_scenario(inst).speeds[None]
    exact = deterministic_route_reward(inst, agent, ids, speeds)[0]
    table = solve_value(inst, agent, ids, grid_step=0.25)
    v = value_of(table, AgentState(remaining=ids, at=0, time=0.0))
    lower = deterministic_route_reward(inst, agent, ids, speeds,
                                       due_slack=0.25 * len(ids))[0]
    assert lower - 1e-12 <= v <= exact + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_route_reward_rows_bit_identical_to_scalar_oracle(seed):
    # every row of the batch is the one-scenario recursion, slack or not,
    # on every subset of n = 4 tasks; slow speeds make many legs late and
    # let the slack flip some of them
    inst = random_small_instance(seed + 300, n=4, sigma=0.2)
    agent = inst.agents[0]
    rng = np.random.default_rng(seed)
    size = inst.n_tasks + 1
    speeds = np.maximum(rng.normal(0.6, 0.4, (40, size, size)), 0.1)
    ids = tuple(range(inst.n_tasks))
    for slack in (0.0, 1.0, 2.5, 4.0):
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                got = deterministic_route_reward(inst, agent, subset, speeds, due_slack=slack)
                assert got.shape == (len(speeds),)
                want = [route_reward_per_scenario(inst, agent, subset, Scenario(row), slack)
                        for row in speeds]
                assert [g.hex() for g in got.tolist()] == [w.hex() for w in want], (
                    slack, subset)


# --- ValueSolver facade -------------------------------------------------------------


def test_solver_marginals_and_counter():
    inst = random_small_instance(7, n=3, sigma=0.0)
    agent = inst.agents[0]
    solver = ValueSolver(inst, quadrature_nodes=1)
    base = ()
    total = 0.0
    for j in range(3):
        total += solver.marginal_gain(agent, base, j)
        base = tuple(sorted(base + (j,)))
    assert total == pytest.approx(solver.set_value(agent, (0, 1, 2)), abs=1e-12)
    assert solver.total_evaluations == 3


def test_solver_zero_variance_collapses_quadrature():
    inst = random_small_instance(8, n=2, sigma=0.0)
    solver = ValueSolver(inst, quadrature_nodes=8)
    assert solver.quad.speeds == (1.0,)
    assert solver.quad.weights == (1.0,)


def _count_solves(monkeypatch):
    """Count solve_value calls made through the module global."""
    import mdpauction.valuedp as valuedp

    calls = []
    real = valuedp.solve_value

    def counted(*args, **kwargs):
        calls.append(args[1].id)
        return real(*args, **kwargs)

    monkeypatch.setattr(valuedp, "solve_value", counted)
    return calls


def test_solver_shares_table_across_identical_agents(monkeypatch):
    inst = generate_instance(GenerationConfig(n_tasks=4, n_agents=3, sigma_v_sq=0.1,
                                              seed=12))
    # capacity does not enter the DP, so it must not split the cache either
    agents = list(inst.agents)
    agents[2] = dataclasses.replace(agents[2], capacity=agents[2].capacity + 1)
    inst = dataclasses.replace(inst, agents=agents)
    calls = _count_solves(monkeypatch)
    solver = ValueSolver(inst, quadrature_nodes=4)
    tables = [solver.table(a) for a in inst.agents]
    assert calls == [0]
    assert tables[0] is tables[1] is tables[2]
    assert not hasattr(tables[0], "agent_id")


def test_solver_separates_agent_starts(monkeypatch):
    base = generate_instance(GenerationConfig(n_tasks=4, n_agents=3, sigma_v_sq=0.1,
                                              seed=13))
    a0, _, a2 = base.agents
    moved = dataclasses.replace(base.agents[1], start=Location(a0.start.x + 7.0,
                                                               a0.start.y))
    inst = dataclasses.replace(base, agents=[a0, moved, a2])
    calls = _count_solves(monkeypatch)
    solver = ValueSolver(inst, quadrature_nodes=4)
    tables = [solver.table(a) for a in inst.agents]
    assert calls == [0, 1]
    assert tables[0] is not tables[1] and tables[2] is tables[0]
    # tables stop at the capacity (3 < 4 tasks): compare the cells they solved
    for agent, table in zip(inst.agents, tables):
        own = solve_value(inst, agent, range(4), quad=solver.quad)
        solved = readable_cells(table, 3)
        assert table.solved == 3 and solved[1:].any()
        assert table.values[..., :-1][solved].tobytes() == own.values[..., :-1][solved].tobytes()
        assert np.array_equal(table.policy[solved], own.policy[solved])
    assert solver.table(moved) is tables[1]
    assert calls == [0, 1]


def test_solver_evaluations_stay_per_agent():
    inst = generate_instance(GenerationConfig(n_tasks=3, n_agents=3, sigma_v_sq=0.0,
                                              seed=14))
    solver = ValueSolver(inst, quadrature_nodes=1)
    a0, a1, _ = inst.agents
    solver.marginal_gain(a0, (), 0)
    solver.marginal_gain(a0, (0,), 1)
    solver.marginal_gain(a1, (), 2)
    assert solver.evaluations == {0: 2, 1: 1, 2: 0}
    assert solver.total_evaluations == 3


# --- layer bound, readable cells and extension ----------------------------------------


def earliest_bin(task, delta):
    """The earliest bin anyone reads at the task's location: the sooner of the
    service end after the ready time and the (floored) due time."""
    return max(0, min(math.ceil((task.ready_time + task.service_duration) / delta),
                      math.floor(task.due_time / delta)))


def readable_cells(table, layers):
    """Cells of a table solved through `layers` below its full set, by the rule:
    all of layer 0, and in layers 1..layers the start at bin 0 plus each
    location 1+b of a mask without b, from task b's earliest bin on."""
    k = len(table.task_ids)
    out = np.zeros(table.policy.shape, dtype=bool)
    out[0] = True
    for mask in range(1, 1 << k):
        if bin(mask).count("1") > layers:
            continue
        out[mask, 0, 0] = True
        for b, task in enumerate(table.tasks):
            if not mask >> b & 1:
                out[mask, 1 + b, earliest_bin(task, table.grid_step):] = True
    return out


def assert_serve_children_readable(table):
    """Every serve transition out of a readable cell lands on a readable cell.

    Recomputes the transitions from the task data, node by node: a child at
    task a's location must sit at or above a's earliest bin (or on the
    beyond-horizon pad).
    """
    k, delta = len(table.task_ids), table.grid_step
    pad = table.time_bins
    places = [table.origin] + [t.location for t in table.tasks]
    for src in range(k + 1):
        if src == 0:
            bins = np.array([0])
        else:
            bins = np.arange(earliest_bin(table.tasks[src - 1], delta), pad)
        t = bins * delta
        for a, task in enumerate(table.tasks):
            if a + 1 == src:
                continue
            dist = distance(places[src], task.location)
            for speed in table.quad.speeds:
                arrival = t + dist / speed
                arrival_bin = np.ceil(arrival / delta)
                ok = arrival_bin * delta <= task.due_time
                served = np.ceil((np.maximum(arrival, task.ready_time)
                                  + task.service_duration) / delta)
                child = np.minimum(np.where(ok, served, arrival_bin), pad)
                assert (child >= min(earliest_bin(task, delta), pad)).all(), (src, a)


def _pruned_cases():
    """(k, layer bound, sigma^2, Q, grid, horizon, dues on the grid, duplicate)."""
    rng = random.Random(20261020)
    cases = []
    for i in range(110):
        k = i % 11
        q = rng.choice([1, 3, 8])
        grid = rng.choice([0.3, 0.5, 1.0, 3.7])
        # large k: a shorter horizon keeps each dense reference solve small
        bins = max(40, 4_000_000 // (q * (1 << k) * (k + 1)))
        cases.append((k, rng.randint(1, k) if k else 0, rng.choice([0.0, 0.1, 0.3]), q,
                      grid, min(480.0, grid * bins), rng.random() < 0.5,
                      k >= 2 and rng.random() < 0.25))
    return cases


PRUNED_CASES = _pruned_cases()


def _on_grid(tasks, grid, rng):
    """Dues moved onto a grid multiple, or one float step either side of it; half
    the services end past the due time, so the due bounds the earliest bin."""
    out = []
    for task in tasks:
        edge = math.floor(task.due_time / grid) * grid
        due = rng.choice([edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)])
        ready = min(task.ready_time, due)
        service = task.service_duration
        if rng.random() < 0.5:
            service += due - ready
        out.append(dataclasses.replace(task, due_time=due, ready_time=ready,
                                       service_duration=service))
    return out


@pytest.mark.parametrize("case", range(len(PRUNED_CASES)))
def test_pruned_table_bit_identical_to_dense_on_solved_cells(case):
    k, bound, sigma, q, grid, horizon, on_grid, duplicate = PRUNED_CASES[case]
    inst = generate_instance(GenerationConfig(
        n_tasks=k + 2, n_agents=1, sigma_v_sq=sigma, seed=3000 + case,
        horizon=horizon, mean_speed=480.0 / horizon))
    rng = random.Random(case)
    tasks = list(inst.tasks)
    if on_grid:
        tasks = _on_grid(tasks, grid, rng)
    ids = sorted(rng.sample(range(inst.n_tasks), k))
    if duplicate:
        tasks[1] = dataclasses.replace(tasks[0], id=1)
        ids = [0, 1] + sorted(rng.sample(range(2, k + 2), k - 2))
    inst = dataclasses.replace(inst, tasks=tasks)
    agent = inst.agents[0]
    quad = build_quadrature(agent.speed, q)
    dense = solve_value(inst, agent, ids, quad=quad, grid_step=grid)
    assert dense.solved == k
    assert dense.computed == ((1 << k) - 1) * dense.policy[0].size
    levels = [bound] + ([rng.randint(bound + 1, k)] if bound < k else [])
    for level in levels:
        table = solve_value(inst, agent, ids, quad=quad, grid_step=grid, layers=level)
        solved = readable_cells(table, level) if level < k else np.ones(dense.policy.shape, bool)
        assert table.solved == level
        assert table.computed == solved[1:].sum()
        # unsolved cells are NaN with the sentinel code, and nothing else is
        assert np.array_equal(table.policy != UNSOLVED, solved)
        assert np.array_equal(~np.isnan(table.values[..., :-1]), solved)
        assert not table.values[..., -1].any()
        assert (table.values[..., :-1][solved].tobytes()
                == dense.values[..., :-1][solved].tobytes())
        assert np.array_equal(table.policy[solved], dense.policy[solved])
    if bound < k:
        assert_serve_children_readable(table)


def test_pruned_pass_scratch_memory_bound():
    # the per-location pass stays inside the dense pass's stated bound
    inst = random_small_instance(4, n=8, sigma=0.1)
    agent = inst.agents[0]
    quad = build_quadrature(agent.speed, 8)
    tracemalloc.start()
    try:
        table = solve_value(inst, agent, range(8), quad=quad, grid_step=0.5, layers=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k, nq, cells = 8, 8, 9 * table.time_bins
    bound = (12 * k * nq * cells + 48 * max(LAYER_BLOCK_CELLS, cells)
             + 32 * 2**k + 65536)
    assert peak - table.values.nbytes - table.policy.nbytes <= bound


def test_unsolved_cells_refuse_to_be_read():
    inst = random_small_instance(4, n=5, sigma=0.1)
    agent = inst.agents[0]
    table = solve_value(inst, agent, range(5), layers=2)
    late = max(range(5), key=lambda b: earliest_bin(inst.tasks[b], 1.0))
    assert earliest_bin(inst.tasks[late], 1.0) > 0
    unsolved = [
        AgentState(0.0, 0, (0, 1, 2)),  # above the layer bound
        AgentState(5.0, 0, (0, 1)),  # at the start after time 0
        AgentState(200.0, 1, (0, 3)),  # at task 0's location with task 0 left
        AgentState(earliest_bin(inst.tasks[late], 1.0) - 1.0, late + 1,
                   [j for j in (0, 1, 2, 3, 4) if j != late][:2]),  # below the earliest bin
    ]
    for state in unsolved:
        mask, loc = table.mask_of(state.remaining), table.loc_of(state.at)
        assert table.policy[mask, loc, table.bin_of(state.time)] == UNSOLVED
        with pytest.raises(ValueError, match="unsolved"):
            value_of(table, state)
        with pytest.raises(ValueError, match="unsolved"):
            next_action(table, state)
        with pytest.raises(ValueError, match="unsolved"):
            table.lookup(np.array([mask, 0]), loc, np.array([state.time, 0.0]))
    # a Serve value built from unsolved children refuses too
    with pytest.raises(ValueError, match="unsolved"):
        action_value(table, AgentState(0.0, 0, (0, 1, 2, 3)), Action(SERVE, 0))
    # a solved state still reads
    assert value_of(table, AgentState(0.0, 0, (0, 1))) >= 0.0


def test_solver_counts_the_readable_cells_it_solves():
    inst = generate_instance(GenerationConfig(n_tasks=8, n_agents=3, sigma_v_sq=0.1,
                                              seed=81))
    assert [a.capacity for a in inst.agents] == [4, 4, 4]
    solver = ValueSolver(inst)
    tables = [solver.table(a) for a in inst.agents]
    assert tables[0] is tables[1] is tables[2] and tables[0].solved == 4
    readable = readable_cells(tables[0], 4)[1:].sum()
    dense = (2**8 - 1) * tables[0].policy[0].size
    assert solver.stats == SolverStats(tables_built=1, cache_hits=2, cells_computed=readable)
    assert readable < dense
    # a query for six tasks re-solves the table through all eight, counted as
    # a second build
    solver.set_value(inst.agents[0], range(6))
    assert solver.stats == SolverStats(tables_built=2, cache_hits=2,
                                       cells_computed=readable + dense)
    assert solver.table(inst.agents[0]).solved == 8
    # a set with an unknown id is refused before any solve
    for _ in range(2):
        with pytest.raises(ValueError, match="task 8 is not in this table"):
            solver.set_value(inst.agents[0], range(9))
    assert solver.stats.tables_built == 2


def test_re_solve_drops_the_table_it_replaces(monkeypatch):
    import mdpauction.valuedp as valuedp

    inst = generate_instance(GenerationConfig(n_tasks=6, n_agents=1, sigma_v_sq=0.1,
                                              seed=81, capacity=2))
    agent = inst.agents[0]
    solver = ValueSolver(inst, quadrature_nodes=4)
    bounded = weakref.ref(solver.table(agent))
    freed = []
    solve = valuedp.solve_value

    def probed(*args, **kwargs):
        freed.append(bounded() is None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(valuedp, "solve_value", probed)
    solver.set_value(agent, range(4))
    assert freed == [True] and solver.table(agent).solved == 6


def test_submodularity_check_re_solves_the_capacity_bounded_table(monkeypatch):
    inst = generate_instance(GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=0.1,
                                              seed=7, capacity=3))
    agent = inst.agents[0]
    calls = _count_solves(monkeypatch)
    solver = ValueSolver(inst, quadrature_nodes=4)
    report = check_submodularity_V(inst, solver=solver)
    assert calls == [0, 0]
    assert solver.table(agent).solved == 4 and solver.stats.tables_built == 2
    dense = solve_value(inst, agent, range(4), quad=solver.quad)
    for size in range(5):
        for subset in itertools.combinations(range(4), size):
            want = float(dense.values[dense.mask_of(subset), 0, 0])
            assert solver.set_value(agent, subset).hex() == want.hex(), subset
    wide = dataclasses.replace(inst, agents=[dataclasses.replace(agent, capacity=4)])
    assert report == check_submodularity_V(wide, solver=ValueSolver(wide, quadrature_nodes=4))


def test_earliest_bin_keeps_a_float_margin_at_the_due_bin():
    # a due time one float step below m * 0.3, whose quotient still rounds to
    # m: a late arrival one step past it reads bin m, below floor(due/0.3) + 1
    grid = 0.3
    m = next(m for m in range(100, 1000)
             if math.floor(math.nextafter(m * grid, 0.0) / grid) == m
             and math.ceil(math.nextafter(math.nextafter(m * grid, 0.0), math.inf) / grid) == m)
    due = math.nextafter(m * grid, 0.0)
    late = math.nextafter(due, math.inf)
    assert m * grid > due and math.ceil(late / grid) == m
    # service ends past the due time, so the due bounds the earliest bin
    task = make_task(0, 20.0, ready=due - 5.0, due=due, tau=30.0)
    other = make_task(1, 0.0, due=480.0, tau=5.0, windowed=False)
    inst = make_instance([task, other], sigma=0.2)
    agent = inst.agents[0]
    quad = build_quadrature(agent.speed, 8)
    table = solve_value(inst, agent, (0, 1), quad=quad, grid_step=grid, layers=1)
    assert earliest_bin(task, grid) == m
    # the DP's late transitions into task 0's location, and a rollout that
    # failed it one float step late, both land on solved cells
    assert_serve_children_readable(table)
    go, _, _ = table.lookup(np.array([0b10]), 1, np.array([late]))
    dense = solve_value(inst, agent, (0, 1), quad=quad, grid_step=grid)
    assert table.values[0b10, 1, m].hex() == dense.values[0b10, 1, m].hex()
    assert go[0] == (dense.policy[0b10, 1, m] < 4)


# --- ids outside the task set, and the row store beyond the cap -----------------------


@pytest.mark.parametrize("n", [6, 13])
def test_solver_refuses_ids_outside_the_task_set(n):
    inst = generate_instance(GenerationConfig(n_tasks=n, n_agents=1, sigma_v_sq=0.1, seed=3))
    agent = inst.agents[0]
    solver = ValueSolver(inst)
    for bad in ([0, 99], [-1], [n]):
        for query in (solver.table, solver.set_value):
            with pytest.raises(ValueError, match=f"task {bad[-1]} is not in this table's "
                                                 f"task set, the mission's ids 0..{n - 1}"):
                query(agent, bad)
    # refused up front: nothing was solved or stored
    assert solver.stats == SolverStats()


def with_distinct_starts(inst, seed):
    """`inst` with every agent at its own random start, so no two share rows."""
    rng = np.random.default_rng(seed)
    agents = [dataclasses.replace(a, start=Location(*(float(v) for v in
                                                      rng.uniform(0.0, PLANE_SIDE, 2))))
              for a in inst.agents]
    return dataclasses.replace(inst, agents=agents)


def record_batches(monkeypatch):
    """Every `RowBatch` that `solve_value` returns from now on, in order."""
    import mdpauction.valuedp as valuedp

    batches = []
    solve = valuedp.solve_value

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        if isinstance(out, RowBatch):
            batches.append(out)
        return out

    monkeypatch.setattr(valuedp, "solve_value", recording)
    return batches


def assert_view_matches_dense(solver, agent, ids):
    """A set's view and stored rows against a dense `solve_value` over the set:
    V at the start bit for bit, the codes `lookup` returns on every readable
    cell, and every readable row's values with its beyond-horizon pad."""
    grid = solver.grid_step
    dense = solve_value(solver.instance, agent, ids, quad=solver.quad, grid_step=grid)
    full = dense.mask_of(ids)
    assert solver.set_value(agent, ids).hex() == float(dense.values[full, 0, 0]).hex(), ids
    view = solver.table(agent, ids)
    assert view.task_ids == dense.task_ids and view.time_bins == dense.time_bins
    readable = readable_cells(dense, len(ids))
    readable[0] = False
    mask, loc, b = np.nonzero(readable)
    got = view.lookup(mask, loc, b * grid)  # these grids divide bin times exactly
    want = dense.lookup(mask, loc, b * grid)
    assert all(np.array_equal(g, w) for g, w in zip(got, want)), ids
    store = view.store
    for m, here in sorted(set(zip(mask.tolist(), loc.tolist()))):
        place = view._place(here)
        row = store.index[view._key(m, here)]
        lb = store.first[place]
        stored = store.values[place][row]
        expect = dense.values[m, here, [0, -1]] if here == 0 else dense.values[m, here, lb:]
        assert stored.tobytes() == expect.tobytes(), (ids, m, here)


STORE_CASES = [(13 + (i // 2) % 4, (0.0, 0.1)[i % 2], q, grid)
               for i, (q, grid) in enumerate(itertools.product((1, 3, 8), (0.5, 1.0, 2.0)))]


@pytest.mark.parametrize("case", range(len(STORE_CASES)))
def test_row_store_bit_identical_to_dense_tables(case, monkeypatch):
    # growth passes of sets base + j, prefetched in shuffled orders, so batches
    # of every shape fill the store: every set read through it must equal a
    # dense table over the set, and no row may be computed twice
    n, sigma, q, grid = STORE_CASES[case]
    inst = with_distinct_starts(generate_instance(GenerationConfig(
        n_tasks=n, n_agents=2, sigma_v_sq=sigma, seed=600 + case)), case)
    batches = record_batches(monkeypatch)
    solver = ValueSolver(inst, quadrature_nodes=q, grid_step=grid)
    rng = random.Random(case)
    queried = []
    for agent in inst.agents:
        bases = [()]
        for _ in range(3):
            bases.append(bases[-1] + (rng.choice([j for j in range(n) if j not in bases[-1]]),))
        passes = [[tuple(sorted(base + (j,))) for j in range(n) if j not in base]
                  for base in bases]
        rng.shuffle(passes)
        for sets in passes:
            rng.shuffle(sets)
            solver.prefetch(agent, sets)
            queried += [(agent, ids) for ids in sets]
    built = solver.stats.tables_built
    assert built == len(batches) > 0
    for agent, ids in rng.sample(queried, 24):
        assert_view_matches_dense(solver, agent, ids)
    # every set read was prefetched: no further batch
    assert solver.stats.tables_built == built
    stores = solver._stores.values()
    assert len(stores) == 2
    assert sum(b.rows for b in batches) == solver.stats.rows_stored == sum(
        len(store.index) - (n + 1) for store in stores)
    assert sum(b.computed for b in batches) == solver.stats.cells_computed
    assert all(b.values.size == b.policy.size == b.computed for b in batches)
    assert solver.stats.bytes_held == sum(store.nbytes for store in stores)


def test_row_store_refuses_a_batch_over_the_byte_cap(monkeypatch):
    import mdpauction.valuedp as valuedp

    inst = with_distinct_starts(generate_instance(GenerationConfig(
        n_tasks=13, n_agents=1, sigma_v_sq=0.0, seed=5)), 5)
    agent = inst.agents[0]
    solver = ValueSolver(inst, grid_step=0.05)
    solver.set_value(agent, [0])
    store = solver._stores[agent.start]
    before = (solver.stats, store.rows, len(store.index), store.nbytes)
    arrays = [id(v) for v in store.values]
    # twelve tasks' own rows on a 0.05-minute grid need about 2.7 GB: refused
    # before the batch is planned
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            solver.set_value(agent, range(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert re.fullmatch(r"the value rows of one start over n=13 tasks with 9601 time bins "
                        r"and Q=1 quadrature nodes would hold 28659 rows in \d+ bytes; "
                        r"the cap is 1073741824", str(err.value)), str(err.value)
    # sets that fit alone, over a cap the planned batch passes: refused once
    # planned, before anything grows
    monkeypatch.setattr(valuedp, "TABLE_BYTES_CAP", store.nbytes + (1 << 20))
    with pytest.raises(ValueError, match=r"n=13 tasks with 9601 time bins and Q=1 "):
        solver.prefetch(agent, [(0, j) for j in range(1, 13)])
    assert (solver.stats, store.rows, len(store.index), store.nbytes) == before
    assert [id(v) for v in store.values] == arrays
    # a set over the subset cap is refused as a dense table over it would be
    with pytest.raises(ValueError, match="13 exceeds the subset cap 12"):
        solver.set_value(agent, range(13))
