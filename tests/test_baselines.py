import math
import tracemalloc

import numpy as np
import pytest

from mdpauction import baselines
from mdpauction.baselines import (
    EvalCounter,
    RobustConfig,
    _sample_scenarios,
    insertion_bid,
    path_reward,
    run_cbba,
)
from mdpauction.instance import (
    AgentSpec,
    GenerationConfig,
    Location,
    MissionInstance,
    SpeedModel,
    Task,
    generate_instance,
)
from mdpauction.valuedp import Scenario, mean_scenario
from mdpauction.auction import run_auction
from oracles import cbba_insertion_bid, scenario_batch_reference


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


# --- path_reward -----------------------------------------------------------------


def test_path_reward_empty():
    inst = make_instance([make_task(0, 10.0)], [(0.0, 0.0)])
    assert path_reward(inst, inst.agents[0], []).reward == 0.0


def test_path_reward_colocated():
    inst = make_instance([make_task(0, 0.0, windowed=False)], [(0.0, 0.0)])
    score = path_reward(inst, inst.agents[0], [0])
    assert score.reward == 1.0
    assert score.served == (0,)


def test_path_reward_waits_for_ready_time():
    t = make_task(0, 10.0, ready=50.0, due=100.0, tau=5.0)
    inst = make_instance([t], [(0.0, 0.0)])
    score = path_reward(inst, inst.agents[0], [0])
    assert score.reward == 1.0
    assert score.finish_time == 55.0  # waited to 50, then 5 minutes of service


def test_path_reward_passes_through_failures():
    # first stop already expired; second still feasible on the delayed clock
    t0 = make_task(0, 200.0, due=100.0)
    t1 = make_task(1, 200.0, y=10.0, due=300.0)
    inst = make_instance([t0, t1], [(0.0, 0.0)])
    score = path_reward(inst, inst.agents[0], [0, 1])
    assert score.served == (1,)
    assert score.reward == 1.0


def test_path_reward_rejects_duplicates():
    inst = make_instance([make_task(0, 10.0)], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        path_reward(inst, inst.agents[0], [0, 0])


def test_path_reward_matches_order_restricted_route():
    # fixing the order makes the path score an order-restricted route reward
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=1, sigma_v_sq=0.0, seed=31)
    )
    agent = inst.agents[0]
    scenario = mean_scenario(inst)
    for path in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        t = 0.0
        here, here_idx = agent.start, 0
        reward = 0.0
        for j in path:
            task = inst.tasks[j]
            d = math.dist((here.x, here.y), (task.location.x, task.location.y))
            arrival = t + d / scenario.speed(here_idx, j + 1)
            if arrival <= task.due_time:
                reward += task.price
                t = max(arrival, task.ready_time) + task.service_duration
            else:
                t = arrival
            here, here_idx = task.location, j + 1
        assert path_reward(inst, agent, path).reward == reward


# --- insertion_bid over the mean-speed scenario ------------------------------------


def test_insertion_empty_path():
    inst = make_instance([make_task(0, 10.0)], [(0.0, 0.0)])
    counter = EvalCounter()
    bid, pos = insertion_bid(inst, inst.agents[0], [], 0, [mean_scenario(inst)], counter)
    assert bid == 1.0
    assert pos == 0
    assert counter.count == 1


def test_insertion_counts_positions():
    tasks = [make_task(i, 10.0 * (i + 1)) for i in range(4)]
    inst = make_instance(tasks, [(0.0, 0.0)])
    counter = EvalCounter()
    insertion_bid(inst, inst.agents[0], [0, 1, 2], 3, [mean_scenario(inst)], counter)
    assert counter.count == 4  # |path| + 1


def test_insertion_interior_position():
    # A at 10 (loose), C at 20 due 45, B at 30 due 55: C fits only between
    a = make_task(0, 10.0, due=480.0)
    c = make_task(1, 20.0, due=45.0)
    b = make_task(2, 30.0, due=55.0)
    inst = make_instance([a, c, b], [(0.0, 0.0)])
    agent = inst.agents[0]
    bid, pos = insertion_bid(inst, agent, [0, 2], 1, [mean_scenario(inst)])
    assert pos == 1
    assert bid == 1.0
    # exhaustive check over the three positions
    scores = [path_reward(inst, agent, [1, 0, 2]).reward,
              path_reward(inst, agent, [0, 1, 2]).reward,
              path_reward(inst, agent, [0, 2, 1]).reward]
    assert scores == [2.0, 3.0, 2.0]


def test_insertion_does_not_mutate_path():
    tasks = [make_task(i, 10.0 * (i + 1)) for i in range(3)]
    inst = make_instance(tasks, [(0.0, 0.0)])
    path = [0, 1]
    insertion_bid(inst, inst.agents[0], path, 2, [mean_scenario(inst)])
    assert path == [0, 1]


def test_mean_scenario_bid_bit_identical_to_mean_speed_oracle():
    # the deterministic CBBA bid is the sampled bid over the one mean-speed
    # scenario: same bid bits, position and evaluation count as the
    # mean-speed oracle, on windowed and unwindowed tasks alike
    rng = np.random.default_rng(1009)
    seen = {"windowed": 0, "unwindowed": 0, "positive": 0, "nonpositive": 0,
            "interior": 0}
    for case in range(240):
        sigma = (0.0, 0.1)[case % 2]
        length = (case // 2) % 6
        inst = generate_instance(GenerationConfig(
            n_tasks=length + 1 + int(rng.integers(0, 3)), n_agents=2,
            sigma_v_sq=sigma, seed=int(rng.integers(2**31))))
        agent = inst.agents[case % 2]
        order = [int(j) for j in rng.permutation(inst.n_tasks)]
        path, task_id = order[:length], order[length]
        want_counter, got_counter = EvalCounter(), EvalCounter()
        want = cbba_insertion_bid(inst, agent, path, task_id, want_counter)
        got = insertion_bid(inst, agent, path, task_id, [mean_scenario(inst)],
                            got_counter)
        assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (case, path, task_id)
        assert got_counter.count == want_counter.count == length + 1
        seen["windowed" if inst.tasks[task_id].windowed else "unwindowed"] += 1
        seen["positive" if got[0] > 0.0 else "nonpositive"] += 1
        seen["interior"] += 0 < got[1] < length
    assert all(seen.values()), seen


# --- insertion_bid over sampled scenarios -------------------------------------------


def test_mean_speed_bids_are_shared_unwrapped():
    # Hand-built, unequal prices. In cycle 3 agent 2 holds task 1 at a bid of
    # 1.0 when task 6 (price 2) comes free; it bids its full gain 2.0, ties
    # agent 3 and wins on the lower id. A wrapped bid would be capped at 1.0
    # and task 6 would go to agent 3 instead.
    speed = SpeedModel(mean=1.0, variance=0.0, truncation_floor=0.1)
    spots = [(-3, -35, 2, 72), (-10, 1, 1, 105), (39, 35, 7, 110), (1, 28, 4, 54),
             (36, -13, 6, 97), (29, -39, 2, 89), (-19, -12, 2, 122)]
    tasks = [Task(id=i, location=Location(x, y), price=float(price), ready_time=0.0,
                  due_time=float(due), service_duration=10.0, windowed=True)
             for i, (x, y, price, due) in enumerate(spots)]
    starts = [((38, -18), 2), ((15, 23), 1), ((-10, 22), 3), ((-29, -24), 2)]
    agents = [AgentSpec(id=i, start=Location(*xy), capacity=cap, speed=speed)
              for i, (xy, cap) in enumerate(starts)]
    inst = MissionInstance(horizon=480.0, depot=Location(0.0, 0.0), penalty=1.0,
                           tasks=tasks, agents=agents)
    result = run_cbba(inst)
    assignment = {a: sorted(held) for a, held in result.assignment.items()}
    assert assignment == {0: [2, 4], 1: [0], 2: [1, 3, 6], 3: [5]}
    assert result.paths[2] == [3, 6, 1]


def test_robust_equals_deterministic_at_zero_variance():
    tasks = [make_task(i, 15.0 * (i + 1), due=100.0 + 40.0 * i) for i in range(3)]
    inst = make_instance(tasks, [(0.0, 0.0)], sigma=0.0)
    agent = inst.agents[0]
    scenarios = _sample_scenarios(inst, RobustConfig(sample_count=7, seed=5), 1)
    for path, j in ([[], 0], [[0], 1], [[0, 1], 2], [[1], 2]):
        det_bid, det_pos = insertion_bid(inst, agent, path, j, [mean_scenario(inst)])
        rob_bid, rob_pos = insertion_bid(inst, agent, path, j, scenarios)
        assert rob_bid == det_bid
        assert rob_pos == det_pos


def test_robust_counter_is_n_times_positions():
    tasks = [make_task(i, 10.0 * (i + 1)) for i in range(3)]
    inst = make_instance(tasks, [(0.0, 0.0)], sigma=0.1)
    counter = EvalCounter()
    scenarios = _sample_scenarios(inst, RobustConfig(sample_count=9, seed=2), 1)
    insertion_bid(inst, inst.agents[0], [0, 1], 2, scenarios, counter)
    assert counter.count == 9 * 3


def test_robust_mean_matches_reference_estimate():
    # Monte Carlo oracle: the N=1000 estimator must sit within 3 standard
    # errors of a 100k-sample reference drawn from a different stream.
    inst = generate_instance(
        GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=0.1, seed=13)
    )
    agent = inst.agents[0]
    path = [0, 1, 2]
    small = _sample_scenarios(inst, RobustConfig(sample_count=1000, seed=1), 1)
    scores = np.array([path_reward(inst, agent, path, sc).reward for sc in small])
    big = _sample_scenarios(inst, RobustConfig(sample_count=100_000, seed=2), 1)
    reference = math.fsum(
        path_reward(inst, agent, path, sc).reward for sc in big
    ) / len(big)
    se = scores.std(ddof=1) / math.sqrt(scores.size)
    assert abs(scores.mean() - reference) <= 3 * se


def test_scenario_batch_deterministic_and_floored():
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=1, sigma_v_sq=0.2, seed=4)
    )
    cfg = RobustConfig(sample_count=50, seed=11)
    a = _sample_scenarios(inst, cfg, 3)
    b = _sample_scenarios(inst, cfg, 3)
    assert all((x.speeds == y.speeds).all() for x, y in zip(a, b))
    assert all((x.speeds >= 0.1).all() for x in a)
    c = _sample_scenarios(inst, cfg, 4)
    assert not all((x.speeds == y.speeds).all() for x, y in zip(a, c))


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.1, 0.5])
def test_scenario_batch_bit_identical_to_reference(sigma):
    inst = generate_instance(
        GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=sigma, seed=6)
    )
    for seed, call, count in [(0, 0, 1), (5, 1, 7), (11, 3, 100), (2**40, 17, 33)]:
        got = _sample_scenarios(inst, RobustConfig(sample_count=count, seed=seed), call)
        want = scenario_batch_reference(inst, seed, call, count)
        assert len(got) == count
        assert np.stack([sc.speeds for sc in got]).tobytes() == want.tobytes()


def test_scenario_batch_memory_within_rollout_bytes():
    # the batch's speeds plus one Scenario view per row fit the rollout budget
    from mdpauction.rollout import rollout_bytes

    for n, count in [(1, 5000), (6, 3000), (12, 1000)]:
        inst = generate_instance(
            GenerationConfig(n_tasks=n, n_agents=1, sigma_v_sq=0.1, seed=n)
        )
        tracemalloc.start()
        try:
            batch = _sample_scenarios(inst, RobustConfig(sample_count=count), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batch) == count
        assert peak <= rollout_bytes(n, count), (n, peak)


def test_oversized_scenario_batch_is_refused_before_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no batch may be sampled")

    monkeypatch.setattr(baselines, "_sample_scenarios", refuse)
    inst = generate_instance(
        GenerationConfig(n_tasks=12, n_agents=3, sigma_v_sq=0.1, seed=4)
    )
    cfg = RobustConfig(sample_count=10**8)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^sample_count 100000000 over n_tasks=12 needs"):
            run_cbba(inst, variant="robust", robust_cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # the deterministic variant draws no batch, so the same config is harmless
    assert run_cbba(inst, robust_cfg=cfg).method == "cbba"


# --- run_cbba ----------------------------------------------------------------------


def test_counter_law_exact_full_build():
    # single agent, ample windows: every round adds a task, so the counter hits
    # the closed form sum over build depths exactly
    tasks = [make_task(i, 10.0 * (i + 1)) for i in range(3)]
    inst = make_instance(tasks, [(0.0, 0.0)], capacity=3)
    result = run_cbba(inst)
    n = k = 3
    expected = sum((n - m) * (m + 1) for m in range(k))
    assert result.score_evaluations == expected
    assert result.score_evaluations <= n * k * (k + 1) / 2
    robust = run_cbba(inst, variant="robust",
                      robust_cfg=RobustConfig(sample_count=6, seed=0))
    assert robust.score_evaluations == 6 * expected


def test_cbba_matches_auction_on_separated_clusters():
    # two tight clusters with open windows: both coordinators should split them
    cluster_a = [make_task(0, 5.0, windowed=False), make_task(1, 8.0, windowed=False)]
    cluster_b = [make_task(2, 95.0, windowed=False), make_task(3, 92.0, windowed=False)]
    inst = make_instance(cluster_a + cluster_b, [(0.0, 0.0), (100.0, 0.0)],
                         capacity=2)
    cbba = run_cbba(inst)
    auction = run_auction(inst)
    assert cbba.converged and auction.converged
    assert sorted(cbba.assignment[0]) == [0, 1]
    assert sorted(cbba.assignment[1]) == [2, 3]
    assert cbba.expected_reward(inst) == pytest.approx(
        auction.expected_reward(inst), abs=1e-9
    )


def test_robust_n1_repeatable():
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=2, sigma_v_sq=0.1, seed=21)
    )
    cfg = RobustConfig(sample_count=1, seed=8)
    a = run_cbba(inst, variant="robust", robust_cfg=cfg)
    b = run_cbba(inst, variant="robust", robust_cfg=cfg)
    assert a.assignment == b.assignment
    assert a.paths == b.paths
    assert a.per_agent_value == b.per_agent_value


def test_conflict_freedom_both_variants():
    for seed in range(10):
        inst = generate_instance(
            GenerationConfig(n_tasks=5, n_agents=2, sigma_v_sq=0.1, seed=seed)
        )
        for result in (
            run_cbba(inst),
            run_cbba(inst, variant="robust",
                     robust_cfg=RobustConfig(sample_count=10, seed=seed)),
        ):
            assert result.converged
            seen = set()
            for agent in inst.agents:
                tasks = result.assignment[agent.id]
                assert len(tasks) <= agent.capacity
                for j in tasks:
                    assert j not in seen
                    seen.add(j)


def test_rejects_unknown_variant():
    inst = generate_instance(
        GenerationConfig(n_tasks=2, n_agents=1, sigma_v_sq=0.0, seed=0)
    )
    with pytest.raises(ValueError):
        run_cbba(inst, variant="fancy")


def test_path_order_differs_from_bundle_order():
    # bundle records insertion order; path records execution order
    a = make_task(0, 10.0, due=480.0)
    c = make_task(1, 20.0, due=45.0)
    b = make_task(2, 30.0, due=55.0)
    inst = make_instance([a, c, b], [(0.0, 0.0)], capacity=3)
    result = run_cbba(inst)
    assert sorted(result.assignment[0]) == [0, 1, 2]
    path = result.paths[0]
    # execution order must respect the windows: C (id 1) before B (id 2)
    assert path.index(1) < path.index(2)
    score = path_reward(inst, inst.agents[0], list(path))
    assert score.reward == 3.0
