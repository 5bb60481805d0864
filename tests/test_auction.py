import dataclasses
import math

import numpy as np
import pytest

from mdpauction.auction import (
    TOPOLOGIES,
    UNASSIGNED,
    BundleState,
    NetworkModel,
    consensus_round,
    grow_bundle,
    marginal_offers,
    run_auction,
    run_coordination,
    wrap_bid,
)
from mdpauction.baselines import EvalCounter, RobustConfig, run_cbba
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
from oracles import (
    auction_set_value,
    build_bundle,
    build_insertion_bundle,
    cbba_path_value,
    reference_allocation,
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


def fresh_state(inst, agent_id=0):
    agent = inst.agents[agent_id]
    return BundleState(agent_id=agent.id, capacity=agent.capacity,
                       n_tasks=inst.n_tasks, n_agents=inst.n_agents)


# --- wrap_bid -------------------------------------------------------------------


def test_wrap_bid_below_standing():
    assert wrap_bid(5.0, [7.0, 6.0]) == 5.0


def test_wrap_bid_clipped_by_standing():
    assert wrap_bid(8.0, [7.0, 6.0]) == 6.0


def test_wrap_bid_empty_bundle():
    assert wrap_bid(8.0, []) == 8.0


def offers_of(inst, state, solver):
    """The auction's offers for one growth pass, as a list."""
    return list(marginal_offers(inst, inst.agents[state.agent_id], solver, state))


def grow(inst, state, solver, wrapping=True):
    """One auction build: grow the bundle from its marginal offers."""
    agent = inst.agents[state.agent_id]
    return grow_bundle(state, lambda: marginal_offers(inst, agent, solver, state), wrapping)


# --- marginal_offers -------------------------------------------------------------


def test_bids_from_empty_bundle_are_singleton_values():
    inst = make_instance([make_task(0, 10.0), make_task(1, 30.0)], [(0.0, 0.0)])
    solver = ValueSolver(inst)
    agent = inst.agents[0]
    state = fresh_state(inst)
    bids = {j: (gain, pos) for j, gain, pos in offers_of(inst, state, solver)}
    for j in (0, 1):
        assert bids[j] == (solver.set_value(agent, (j,)), 0)
        assert wrap_bid(bids[j][0], []) == bids[j][0]


def test_unreachable_task_bids_zero():
    inst = make_instance([make_task(0, 100.0, due=20.0)], [(0.0, 0.0)])
    solver = ValueSolver(inst)
    bids = offers_of(inst, fresh_state(inst), solver)
    assert bids[0][1] == 0.0


def test_identical_tasks_second_marginal_zero():
    # one window only fits one service: both tasks colocated, due at 12
    t0 = make_task(0, 10.0, due=12.0, tau=10.0)
    t1 = make_task(1, 10.0, due=12.0, tau=10.0)
    inst = make_instance([t0, t1], [(0.0, 0.0)])
    solver = ValueSolver(inst)
    state = fresh_state(inst)
    grow(inst, state, solver, True)
    assert state.bundle == [0]
    bids = offers_of(inst, state, solver)
    assert bids[0][0] == 1 and bids[0][1] == 0.0


def test_bids_invariant_under_bundle_order():
    inst = generate_instance(
        GenerationConfig(n_tasks=4, n_agents=1, sigma_v_sq=0.1, seed=17)
    )
    solver = ValueSolver(inst, quadrature_nodes=4)
    agent = inst.agents[0]

    def state_with_bundle(order):
        s = fresh_state(inst)
        for j in order:
            s.bundle.append(j)
            s.path.append(j)
            s.winning_bids[j] = 0.7
            s.winners[j] = agent.id
        return s

    a = offers_of(inst, state_with_bundle([0, 2]), solver)
    b = offers_of(inst, state_with_bundle([2, 0]), solver)
    assert [(j, gain) for j, gain, _ in a] == [(j, gain) for j, gain, _ in b]


# --- grow_bundle ----------------------------------------------------------------------


def test_build_skips_tasks_won_with_higher_bids():
    inst = make_instance([make_task(0, 10.0), make_task(1, 20.0)], [(0.0, 0.0)])
    solver = ValueSolver(inst)
    state = fresh_state(inst)
    state.winning_bids[:] = [2.0, 2.0]  # someone else holds both, bid > any gain
    state.winners[:] = [1, 1]
    changed = grow(inst, state, solver, True)
    assert not changed
    assert state.bundle == []


def test_build_capacity_one_takes_global_best():
    near = make_task(0, 5.0)
    far = make_task(1, 200.0, due=480.0)  # unreachable within its window? no: due 480
    inst = make_instance([near, far], [(0.0, 0.0)], capacity=1)
    solver = ValueSolver(inst)
    state = fresh_state(inst)
    grow(inst, state, solver, True)
    assert state.bundle == [0] or state.bundle == [1]
    # both are servable (value 1); the tie must go to the lowest task id
    assert state.bundle == [0]


def test_build_two_agent_three_task_hand_trace():
    # all tasks worth 1; t2 has a tight window reachable only directly
    t0 = make_task(0, 10.0)
    t1 = make_task(1, 20.0)
    t2 = make_task(2, 60.0, due=70.0, tau=10.0)
    inst = make_instance([t0, t1, t2], [(0.0, 0.0), (0.0, 0.0)], capacity=2)
    solver = ValueSolver(inst)
    result = run_auction(inst, solver=solver)
    # hand trace: both agents draft [t0, t1]; ties send them to agent 0; agent 1
    # rebuilds with t2, whose bid on t0/t1 cannot strictly beat the standing 1.0
    assert result.assignment[0] == [0, 1]
    assert result.assignment[1] == [2]
    assert result.unassigned == []
    assert result.total_value == pytest.approx(3.0)
    assert result.converged


# --- consensus ------------------------------------------------------------------------


def two_agent_states(n_tasks=5, m=2):
    states = []
    for i in range(m):
        states.append(BundleState(agent_id=i, capacity=3, n_tasks=n_tasks,
                                  n_agents=m))
    return states


def claim(state, task, bid, now=1.0):
    state.bundle.append(task)
    state.path.append(task)
    state.winning_bids[task] = bid
    state.winners[task] = state.agent_id
    state.timestamps[state.agent_id] = now


def test_consensus_dominance():
    s0, s1 = two_agent_states()
    claim(s0, 4, 2.5)
    claim(s1, 4, 3.0)
    m0, m1 = s0.snapshot(), s1.snapshot()
    consensus_round(s0, [m1], now=2.0)
    consensus_round(s1, [m0], now=2.0)
    assert s0.winners[4] == 1 and s0.winning_bids[4] == 3.0
    assert s1.winners[4] == 1 and s1.winning_bids[4] == 3.0
    assert s0.bundle == []  # lost its only entry


def test_consensus_equal_bids_lower_id_wins():
    states = [BundleState(agent_id=i, capacity=3, n_tasks=5, n_agents=3)
              for i in range(3)]
    claim(states[0], 2, 2.0)
    claim(states[2], 2, 2.0)
    snap = [s.snapshot() for s in states]
    consensus_round(states[2], [snap[0]], now=2.0)
    consensus_round(states[0], [snap[2]], now=2.0)
    assert states[2].winners[2] == 0
    assert states[2].bundle == []
    assert states[0].winners[2] == 0
    assert states[0].bundle == [2]


def test_consensus_truncates_after_lost_entry():
    s0, s1 = two_agent_states()
    for task, bid in ((1, 3.0), (2, 2.0), (3, 1.5)):
        claim(s0, task, bid)
    claim(s1, 2, 2.5)  # beats s0's 2.0 on the middle entry
    consensus_round(s0, [s1.snapshot()], now=2.0)
    assert s0.bundle == [1]
    assert s0.path == [1]
    assert s0.winners[2] == 1 and s0.winning_bids[2] == 2.5
    # the later entry is released entirely
    assert s0.winners[3] == UNASSIGNED and s0.winning_bids[3] == 0.0
    # the kept entry is untouched
    assert s0.winners[1] == 0 and s0.winning_bids[1] == 3.0


def test_consensus_drops_malformed_message(caplog):
    s0, s1 = two_agent_states()
    claim(s1, 0, 1.0)
    msg = s1.snapshot()
    bad = type(msg)(version=msg.version, sender=msg.sender,
                    winning_bids=msg.winning_bids[:3], winners=msg.winners,
                    timestamps=msg.timestamps)
    before = s0.winning_bids.copy()
    with caplog.at_level("WARNING"):
        changed = consensus_round(s0, [bad], now=2.0)
    assert not changed
    assert (s0.winning_bids == before).all()
    assert any("malformed" in r.message for r in caplog.records)


# --- networks ----------------------------------------------------------------------


def test_network_shapes_and_diameters():
    assert NetworkModel.complete(4).diameter == 1
    assert NetworkModel.ring(4).diameter == 2
    assert NetworkModel.line(4).diameter == 3
    assert NetworkModel.complete(1).diameter == 0 or NetworkModel.complete(1).diameter == 1


def test_network_from_name_builds_every_topology():
    diameters = {"complete": 1, "ring": 2, "line": 3}
    for name in TOPOLOGIES:
        net = NetworkModel.from_name(name, 4, seed=3)
        assert net.name == name and net.n_agents == 4
        if name in diameters:
            assert net.diameter == diameters[name]
    shapes = [NetworkModel.from_name("random", 6, seed=s).neighbors for s in range(10)]
    assert shapes == [NetworkModel.from_name("random", 6, seed=s).neighbors for s in range(10)]
    assert len({str(n) for n in shapes}) > 1  # the seed shapes the graph
    with pytest.raises(ValueError, match="unknown topology"):
        NetworkModel.from_name("star", 4, seed=0)


def test_network_rejects_disconnected():
    with pytest.raises(ValueError):
        NetworkModel([[1], [0], []])


def test_random_connected_is_connected():
    for seed in range(10):
        net = NetworkModel.random_connected(6, seed=seed)
        assert net.diameter >= 1  # diameter computation requires connectivity


# --- run_auction -----------------------------------------------------------------------


def test_single_agent_converges_first_cycle():
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=1, sigma_v_sq=0.0, seed=9)
    )
    result = run_auction(inst)
    assert result.converged
    assert result.rounds_to_converge <= 1
    # greedy bundle: all tasks it can gain from
    assert sorted(result.assignment[0]) == sorted(
        j for j in range(3) if j not in result.unassigned
    )


def test_two_agents_disjoint_best_tasks():
    t0 = make_task(0, 5.0, due=20.0)
    t1 = make_task(1, 95.0, due=20.0)
    inst = make_instance([t0, t1], [(0.0, 0.0), (100.0, 0.0)], capacity=1)
    result = run_auction(inst)
    assert result.converged
    assert result.rounds_to_converge <= 2
    assert result.assignment == {0: [0], 1: [1]}


def test_conflict_freedom_and_capacity_random():
    for seed in range(25):
        inst = generate_instance(
            GenerationConfig(n_tasks=5, n_agents=3, sigma_v_sq=0.1, seed=seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=4)
        result = run_auction(inst, solver=solver)
        assert result.converged
        seen = set()
        for agent in inst.agents:
            tasks = result.assignment[agent.id]
            assert len(tasks) <= agent.capacity
            for j in tasks:
                assert j not in seen
                seen.add(j)
        assert seen.isdisjoint(result.unassigned)
        assert seen | set(result.unassigned) == set(range(5))


def test_wrapped_bundle_bids_non_increasing_every_cycle():
    for seed in (0, 1, 2):
        inst = generate_instance(
            GenerationConfig(n_tasks=5, n_agents=2, sigma_v_sq=0.1, seed=seed)
        )
        solver = ValueSolver(inst, quadrature_nodes=4)
        network = NetworkModel.complete(2)
        states = [fresh_state(inst, i) for i in range(2)]

        def build(i, state):
            changed = grow(inst, state, solver, True)
            bids = [state.winning_bids[j] for j in state.bundle]
            assert all(a >= b - 1e-12 for a, b in zip(bids, bids[1:])), bids
            return changed

        run_coordination(inst, network, states, build)


def test_evaluation_counter_bound():
    for seed in range(8):
        inst = generate_instance(
            GenerationConfig(n_tasks=6, n_agents=1, sigma_v_sq=0.0, seed=seed)
        )
        solver = ValueSolver(inst)
        result = run_auction(inst, solver=solver)
        n = inst.n_tasks
        k = inst.agents[0].capacity
        assert result.score_evaluations <= n * k + n


def test_rerun_is_identical():
    inst = generate_instance(
        GenerationConfig(n_tasks=5, n_agents=3, sigma_v_sq=0.1, seed=77)
    )
    a = run_auction(inst, solver=ValueSolver(inst, quadrature_nodes=4))
    b = run_auction(inst, solver=ValueSolver(inst, quadrature_nodes=4))
    assert a.assignment == b.assignment
    assert a.per_agent_value == b.per_agent_value
    assert a.rounds_to_converge == b.rounds_to_converge


def test_non_convergence_report():
    inst = generate_instance(
        GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=0.0, seed=3)
    )
    result = run_auction(inst, max_rounds=1)
    assert not result.converged
    # diagnostic only: allocation still reported, oscillation list well formed
    assert isinstance(result.oscillating_tasks, list)


def test_expected_reward_includes_unassigned_penalty():
    far = make_task(0, 100.0, due=20.0)  # unreachable: stays unassigned
    near = make_task(1, 5.0)
    inst = make_instance([far, near], [(0.0, 0.0)])
    result = run_auction(inst)
    assert result.unassigned == [0]
    assert result.total_value == pytest.approx(1.0)
    assert result.expected_reward(inst) == pytest.approx(0.0)


# --- one growth loop and driver vs the reference loops -------------------------------


def _trace_fields(trace):
    return [
        (record["cycle"], [
            (msg.version, msg.sender, [float(y).hex() for y in msg.winning_bids],
             msg.winners.tolist(), msg.timestamps.tolist())
            for msg in record["messages"]
        ])
        for record in trace
    ]


def _result_fields(result):
    return {
        "assignment": result.assignment,
        "paths": result.paths,
        "unassigned": result.unassigned,
        "per_agent_value": {a: v.hex() for a, v in result.per_agent_value.items()},
        "rounds_to_converge": result.rounds_to_converge,
        "converged": result.converged,
        "oscillating_tasks": result.oscillating_tasks,
        "score_evaluations": result.score_evaluations,
    }


def _reference_fields(inst, states, outcome, value, evaluations):
    rounds, converged, oscillating = outcome
    assigned = {j for s in states for j in s.bundle}
    return {
        "assignment": {s.agent_id: list(s.bundle) for s in states},
        "paths": {s.agent_id: list(s.path) for s in states},
        "unassigned": sorted(set(range(inst.n_tasks)) - assigned),
        "per_agent_value": {a.id: value(a, s).hex() for a, s in zip(inst.agents, states)},
        "rounds_to_converge": rounds,
        "converged": converged,
        "oscillating_tasks": oscillating,
        "score_evaluations": evaluations,
    }


def _diff_cases():
    """Seeded missions over n 0-8, m 1-4, four variances and every topology.

    Odd cases move every agent to its own start so agents stop sharing
    tables and bids; every fifth case stops coordination after two rounds.
    """
    rng = np.random.default_rng(2024)
    for case in range(60):
        n = case % 9
        m = 1 + int(rng.integers(0, 4)) if case % 4 else 3 + int(rng.integers(0, 2))
        sigma = (0.0, 0.05, 0.1, 0.3)[case % 4]
        inst = generate_instance(GenerationConfig(
            n_tasks=n, n_agents=m, sigma_v_sq=sigma, seed=int(rng.integers(1000))))
        if case % 2:
            starts = rng.uniform(0.0, 100.0, (m, 2))
            inst = MissionInstance(
                horizon=inst.horizon, depot=inst.depot, penalty=inst.penalty,
                tasks=inst.tasks,
                agents=[dataclasses.replace(a, start=Location(*map(float, xy)))
                        for a, xy in zip(inst.agents, starts)])
        network = NetworkModel.from_name(TOPOLOGIES[(case // 2) % 4], m, seed=case)
        yield case, inst, network, (2 if case % 5 == 0 else None)


def test_run_auction_and_cbba_match_reference_growth_loops():
    seen = {"not converged": 0, "release": 0, "wrapping changes the allocation": 0}
    topologies = set()

    def watched(build):
        """`build`, counting bundles that shrank between an agent's builds."""
        grown_to = {}

        def build_fn(i, state):
            if len(state.bundle) < grown_to.get(i, 0):
                seen["release"] += 1
            grew = build(i, state)
            grown_to[i] = len(state.bundle)
            return grew

        return build_fn

    for case, inst, network, max_rounds in _diff_cases():
        topologies.add(network.name)
        solver = ValueSolver(inst, quadrature_nodes=3)
        allocations = {}
        for wrapping in (True, False):
            solver.evaluations = {a.id: 0 for a in inst.agents}
            want_trace = []
            states, outcome = reference_allocation(
                inst, network,
                watched(lambda i, s: build_bundle(inst, inst.agents[i], s, solver, wrapping)),
                max_rounds, trace=want_trace)
            want = _reference_fields(
                inst, states, outcome,
                lambda a, s: auction_set_value(solver, a, s.bundle),
                solver.total_evaluations)
            solver.evaluations = {a.id: 0 for a in inst.agents}
            got_trace = []
            got = run_auction(inst, network, solver, wrapping, max_rounds, trace=got_trace)
            assert _result_fields(got) == want, (case, wrapping)
            assert _trace_fields(got_trace) == _trace_fields(want_trace), (case, wrapping)
            seen["not converged"] += not got.converged
            allocations[wrapping] = got.assignment
        seen["wrapping changes the allocation"] += allocations[True] != allocations[False]

        cfg = RobustConfig(sample_count=(1, 7)[case % 2], seed=case)
        for robust_cfg in (None, cfg):
            counter = EvalCounter()
            call_states = [dict() for _ in inst.agents]
            want_trace = []
            states, outcome = reference_allocation(
                inst, network,
                watched(lambda i, s: build_insertion_bundle(
                    inst, inst.agents[i], s, counter, robust_cfg, call_states[i])),
                max_rounds, trace=want_trace)
            want = _reference_fields(
                inst, states, outcome,
                lambda a, s: cbba_path_value(inst, a, s.path, robust_cfg), counter.count)
            got_trace = []
            got = run_cbba(inst, network, "robust" if robust_cfg else "deterministic",
                           cfg, max_rounds, trace=got_trace)
            assert _result_fields(got) == want, (case, robust_cfg)
            assert _trace_fields(got_trace) == _trace_fields(want_trace), (case, robust_cfg)
            seen["not converged"] += not got.converged
    assert topologies == set(TOPOLOGIES)
    assert all(seen.values()), seen
