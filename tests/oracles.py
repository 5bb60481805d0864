"""Independent oracles shared by the unit and acceptance suites.

The value oracles re-implement the transition semantics with scalar
arithmetic and no lookup tables: arrivals snap up to the grid for the window
check, the running clock keeps exact minutes, and the next decision bin is the
ceiling of (service start + duration) / step. `scalar_value_tables` is the
per-state table solver kept as a bit-exact reference for the layer pass, and
`validate_per_scenario` is the one-scenario-at-a-time rollout loop, with its
own policy read and decoding, kept as a bit-exact reference for the lockstep
rollouts; `scenario_per_seed` and `scenario_batch_reference` are the two
speed draws the rollouts and the robust baseline wrote out before they shared
`SpeedModel.sample`. `cbba_insertion_bid` scores each insertion position once at mean
speed, with no scenario list, as a reference for `baselines.insertion_bid` over
the one mean-speed scenario. `route_reward_per_scenario` is the scalar
clairvoyant route reward on one scenario, and `classify_per_assignment` the
route screen built on it one speed assignment at a time, kept as bit-exact
references for the scenario-batched reward and screen. `build_bundle` (over
`compute_bids`) and `build_insertion_bundle` are the two bundle-growth loops
the auction and the CBBA variants each wrote out before they shared
`auction.grow_bundle`, and `reference_allocation` runs them through
`auction.run_coordination`, as bit-exact references for `run_auction` and
`run_cbba`.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from mdpauction.auction import BundleState, run_coordination, wrap_bid
from mdpauction.baselines import (
    _mean_reward,
    _sample_scenarios,
    insertion_bid,
    path_reward,
)
from mdpauction.instance import distance
from mdpauction.rollout import RolloutReport
from mdpauction.valuedp import (
    FINISH,
    SERVE,
    SKIP,
    Action,
    AgentState,
    RowView,
    Scenario,
    build_quadrature,
    mean_scenario,
    value_of,
)


def simulate_attempt_sequence(inst, agent, sequence, speed, grid_step):
    """Reward of attempting tasks in the given order at a single fixed speed."""
    t_bin = 0
    here = agent.start
    reward = 0.0
    for j in sequence:
        task = inst.tasks[j]
        arrival = t_bin * grid_step + distance(here, task.location) / speed
        arrival_bin = math.ceil(arrival / grid_step)
        if arrival_bin * grid_step <= task.due_time:
            reward += task.price
            depart = max(arrival, task.ready_time) + task.service_duration
            t_bin = math.ceil(depart / grid_step)
        else:
            t_bin = arrival_bin
        here = task.location
        if t_bin * grid_step > inst.horizon:
            t_bin = None
            break
    return reward


def best_over_attempt_sequences(inst, agent, allocated, speed, grid_step=1.0):
    """Deterministic optimum: max reward over every ordered subset of tasks."""
    best = 0.0
    ids = sorted(allocated)
    for r in range(len(ids) + 1):
        for seq in itertools.permutations(ids, r):
            best = max(best, simulate_attempt_sequence(inst, agent, seq, speed,
                                                       grid_step))
    return best


def adaptive_value_oracle(inst, agent, allocated, quad, grid_step=1.0):
    """Top-down expected value with the same quadrature, no shared tables."""
    horizon_bin = math.floor(inst.horizon / grid_step)
    memo = {}

    def loc(of):
        return agent.start if of == 0 else inst.tasks[of - 1].location

    def value(remaining, at, t_bin):
        if not remaining or t_bin > horizon_bin:
            return 0.0
        key = (remaining, at, t_bin)
        if key in memo:
            return memo[key]
        best = 0.0  # Finish
        for j in sorted(remaining):
            rest = remaining - {j}
            best = max(best, value(rest, at, t_bin))  # Skip
            task = inst.tasks[j]
            dist = distance(loc(at), task.location)
            acc = 0.0
            for speed, weight in zip(quad.speeds, quad.weights):
                arrival = t_bin * grid_step + dist / speed
                arrival_bin = math.ceil(arrival / grid_step)
                if arrival_bin * grid_step <= task.due_time:
                    depart = max(arrival, task.ready_time) + task.service_duration
                    child = value(rest, j + 1, math.ceil(depart / grid_step))
                    acc += weight * (task.price + child)
                else:
                    acc += weight * value(rest, j + 1, arrival_bin)
            best = max(best, acc)
        memo[key] = best
        return best

    return value(frozenset(allocated), 0, 0)


def enumerate_schedules_continuous(inst, agent, allocated, scenario, slack=0.0):
    """Clairvoyant continuous-time optimum over ordered attempt subsets."""
    best = 0.0
    ids = sorted(allocated)
    for r in range(len(ids) + 1):
        for seq in itertools.permutations(ids, r):
            t = 0.0
            here_idx = 0
            here = agent.start
            reward = 0.0
            for j in seq:
                task = inst.tasks[j]
                arrival = t + distance(here, task.location) / scenario.speed(
                    here_idx, j + 1
                )
                if arrival <= task.due_time - slack:
                    reward += task.price
                    t = max(arrival, task.ready_time) + task.service_duration
                else:
                    t = arrival
                here, here_idx = task.location, j + 1
            best = max(best, reward)
    return best


def scalar_value_tables(inst, agent, allocated, quad, grid_step=1.0):
    """Backward pass one (mask, source location) at a time.

    This is the per-state loop `valuedp.solve_value` used before its layer
    pass, kept as a differential oracle: it returns the (values, policy)
    arrays with the solver's layout, and the solver must reproduce both bit
    for bit on every cell, states unreachable from the start included.
    """
    delta = float(grid_step)
    task_ids = sorted(set(allocated))
    k = len(task_ids)
    T = int(math.floor(inst.horizon / delta))
    n_bins = T + 1
    n_loc = k + 1
    tasks = [inst.tasks[j] for j in task_ids]
    locations = [agent.start] + [t.location for t in tasks]

    t_minutes = np.arange(n_bins) * delta
    nq = len(quad)
    serve_child = np.empty((n_loc, k, nq, n_bins), dtype=np.int32)
    fail_child = np.empty_like(serve_child)
    succeeds = np.empty((n_loc, k, nq, n_bins), dtype=bool)
    for src in range(n_loc):
        for a, task in enumerate(tasks):
            dist = distance(locations[src], task.location)
            for q, speed in enumerate(quad.speeds):
                arrival = t_minutes + dist / speed
                arrival_bin = np.ceil(arrival / delta).astype(np.int64)
                ok = arrival_bin * delta <= task.due_time
                child = np.ceil(
                    (np.maximum(arrival, task.ready_time) + task.service_duration)
                    / delta
                ).astype(np.int64)
                succeeds[src, a, q] = ok
                serve_child[src, a, q] = np.minimum(child, T + 1)
                fail_child[src, a, q] = np.minimum(arrival_bin, T + 1)

    weights = np.asarray(quad.weights)
    prices = [t.price for t in tasks]
    values = np.zeros((1 << k, n_loc, n_bins + 1))
    policy = np.full((1 << k, n_loc, n_bins), 2 * k, dtype=np.int16)

    for mask in sorted(range(1, 1 << k), key=lambda m: m.bit_count()):
        members = [a for a in range(k) if mask & (1 << a)]
        for src in range(n_loc):
            # Candidate rows in tie-break priority order: Serve by ascending
            # task id, then Skip, then Finish. argmax picks the first maximum.
            rows = np.zeros((2 * len(members) + 1, n_bins))
            codes = np.empty(2 * len(members) + 1, dtype=np.int16)
            for r, a in enumerate(members):
                child = values[mask ^ (1 << a), 1 + a]
                acc = rows[r]
                for q in range(nq):
                    gain = np.where(
                        succeeds[src, a, q],
                        prices[a] + child[serve_child[src, a, q]],
                        child[fail_child[src, a, q]],
                    )
                    acc += weights[q] * gain
                codes[r] = a
            for r, a in enumerate(members):
                rows[len(members) + r] = values[mask ^ (1 << a), src, :n_bins]
                codes[len(members) + r] = k + a
            codes[-1] = 2 * k
            best = rows.argmax(axis=0)
            values[mask, src, :n_bins] = rows[best, np.arange(n_bins)]
            policy[mask, src] = codes[best]

    return values, policy


def scenario_seeds(seed, rounds):
    """The per-scenario seeds `rollout.validate` derives from its seed."""
    scenario_rng = np.random.default_rng((seed, 20240831))
    return [int(s) for s in scenario_rng.integers(0, 2**63 - 1, size=rounds)]


def scenario_per_seed(inst, seed):
    """One scenario drawn from its own generator, as rollouts sampled it."""
    speed = inst.speed
    n = inst.n_tasks + 1
    rng = np.random.default_rng(seed)
    if speed.variance == 0.0:
        return Scenario(np.full((n, n), speed.mean))
    draws = rng.normal(speed.mean, speed.std, size=(n, n))
    return Scenario(np.maximum(draws, speed.truncation_floor))


def scenario_batch_reference(inst, seed, call_index, count):
    """(count, L, L) speeds of robust batch `call_index`, as the baseline drew it:
    mean + std * one generator's standard normals, floored. At zero variance
    this is the mean everywhere, with no branch."""
    speed = inst.speed
    size = inst.n_tasks + 1
    rng = np.random.default_rng((seed, call_index))
    draws = speed.mean + speed.std * rng.standard_normal((count, size, size))
    return np.maximum(draws, speed.truncation_floor)


def next_action_per_state(table, state):
    """The table's stored action at one state, decoded here from the policy code.

    The snapped bin is ceil(time / step); beyond the last bin or with nothing
    left the action is Finish. Codes below k serve, below 2k skip, and anything
    else finishes. A row view's code is read from its store's row, in global
    task ids (k = n).
    """
    ids = table.task_ids
    mask = table.mask_of(state.remaining)
    loc = table.loc_of(state.at)
    b = table.bin_of(state.time)
    if b >= table.time_bins or mask == 0:
        return Action(FINISH)
    if isinstance(table, RowView):
        store = table.store
        ids = range(len(store.tasks))
        glob = sum(1 << j for a, j in enumerate(table.task_ids) if mask >> a & 1)
        place = 0 if loc == 0 else 1 + table.task_ids[loc - 1]
        row = store.index[glob * (len(ids) + 1) + place]
        code = int(store.policy[place][row, b - store.first[place]])
    else:
        code = int(table.policy[mask, loc, b])
    k = len(ids)
    if code < k:
        return Action(SERVE, ids[code])
    if code < 2 * k:
        return Action(SKIP, ids[code - k])
    return Action(FINISH)


def agent_plans(inst, allocation):
    """Each agent's plan: its bundle's table from the allocation's solver when it
    carries one, else its frozen path as a tuple."""
    if allocation.solver is None:
        return {a.id: tuple(allocation.paths.get(a.id, [])) for a in inst.agents}
    return {a.id: allocation.solver.table(a, allocation.assignment.get(a.id, []))
            for a in inst.agents}


def execute_agent_per_scenario(inst, agent, assigned, plan, scenario, stops=None):
    """(served, failed) task ids for one agent, one table read per step.

    A tuple `plan` is a frozen path, flown in order through failures; any
    other plan is a value table.

    `stops`, a Counter, tallies how each table-policy run ended: "empty"
    (nothing left), "finish" (the Finish action) or "horizon" (the snapped
    time is past the last bin with tasks left); it also counts "late" legs.
    """
    served = []
    t = 0.0
    here = agent.start
    here_index = 0
    stops = Counter() if stops is None else stops

    def fly_and_serve(j):
        nonlocal t, here, here_index
        task = inst.tasks[j]
        speed = scenario.speed(here_index, j + 1)
        arrival = t + distance(here, task.location) / speed
        if arrival <= task.due_time:
            served.append(j)
            t = max(arrival, task.ready_time) + task.service_duration
        else:
            stops["late"] += 1
            t = arrival
        here = task.location
        here_index = j + 1

    if isinstance(plan, tuple):
        for j in plan:
            fly_and_serve(j)
    else:
        table = plan
        remaining = set(assigned)
        while remaining:
            action = next_action_per_state(table, AgentState(t, here_index, remaining))
            if action.kind == FINISH:
                past = table.bin_of(t) >= table.time_bins
                stops["horizon" if past else "finish"] += 1
                break
            if action.kind == SKIP:
                remaining.discard(action.task_id)
                continue
            if action.kind == SERVE:
                fly_and_serve(action.task_id)
                remaining.discard(action.task_id)
        else:
            stops["empty"] += 1
    failed = sorted(set(assigned) - set(served))
    return served, failed


def execute_per_scenario(inst, allocation, plans, scenario, stops=None):
    """(reward, served, failed) of every agent's plan on one scenario."""
    served_all = []
    failed_all = []
    for agent in inst.agents:
        assigned = allocation.assignment.get(agent.id, [])
        served, failed = execute_agent_per_scenario(
            inst, agent, assigned, plans[agent.id], scenario, stops
        )
        served_all.extend(served)
        failed_all.extend(failed)
    reward = math.fsum(inst.tasks[j].price for j in served_all) - inst.penalty * (
        len(failed_all) + len(allocation.unassigned)
    )
    return reward, sorted(served_all), sorted(failed_all)


def validate_per_scenario(inst, allocations, rounds, seed, stops=None):
    """`rollout.validate` run one scenario at a time.

    Returns (reports, outcomes): outcomes[method][r] is scenario r's
    (reward, served, failed).
    """
    scenarios = [scenario_per_seed(inst, s) for s in scenario_seeds(seed, rounds)]
    reports, outcomes = {}, {}
    for method, allocation in allocations.items():
        plans = agent_plans(inst, allocation)
        runs = [execute_per_scenario(inst, allocation, plans, sc, stops)
                for sc in scenarios]
        rewards = [reward for reward, _, _ in runs]
        served_total = sum(len(served) for _, served, _ in runs)
        failed_total = sum(len(failed) for _, _, failed in runs)
        mean = math.fsum(rewards) / rounds
        var = math.fsum((r - mean) ** 2 for r in rewards) / rounds
        n_total = rounds * inst.n_tasks
        reports[method] = RolloutReport(
            instance_seed=inst.seed,
            method=method,
            rollout_count=rounds,
            expected_reward=allocation.expected_reward(inst),
            actual_reward_mean=mean,
            actual_reward_std=math.sqrt(var),
            finish_rate=(served_total / n_total) if n_total else 1.0,
            served_total=served_total,
            failed_total=failed_total,
            unassigned_total=rounds * len(allocation.unassigned),
        )
        outcomes[method] = runs
    return reports, outcomes


def cbba_insertion_bid(inst, agent, path, task_id, counter=None, base_score=None):
    """Best mean-speed insertion gain for task_id over all |path|+1 positions.

    Returns (bid, position); ties go to the lowest position. Counts one path
    evaluation per position.
    """
    if base_score is None:
        base_score = path_reward(inst, agent, path).reward
    best_gain, best_pos = None, 0
    for pos in range(len(path) + 1):
        candidate = path[:pos] + [task_id] + path[pos:]
        score = path_reward(inst, agent, candidate).reward
        if counter is not None:
            counter.count += 1
        gain = score - base_score
        if best_gain is None or gain > best_gain:
            best_gain, best_pos = gain, pos
    return best_gain, best_pos


def route_reward_per_scenario(inst, agent, allocated, scenario, due_slack=0.0):
    """Clairvoyant continuous-time optimum on one scenario, branching on a bitmask.

    Serves the remaining tasks in every order (skipping is implicit); a leg is
    served iff its exact arrival is no later than the due time minus
    `due_slack`, then waits for the ready time and adds the service duration.
    """
    task_ids = sorted(set(int(j) for j in allocated))
    tasks = [inst.tasks[j] for j in task_ids]
    k = len(tasks)
    locs = [agent.start] + [t.location for t in tasks]
    dist = [[distance(a, b) for b in locs] for a in locs]
    loc_index = [0] + [j + 1 for j in task_ids]  # scenario rows for start + tasks

    def best(mask, src, t):
        out = 0.0
        for a in range(k):
            bit = 1 << a
            if not mask & bit:
                continue
            task = tasks[a]
            speed = scenario.speed(loc_index[src], loc_index[1 + a])
            arrival = t + dist[src][1 + a] / speed
            if arrival <= task.due_time - due_slack:
                served = task.price + best(
                    mask ^ bit, 1 + a, max(arrival, task.ready_time) + task.service_duration
                )
            else:
                served = best(mask ^ bit, 1 + a, arrival)
            if served > out:
                out = served
        return out

    return best((1 << k) - 1, 0, 0.0)


def assignment_scenarios(inst, agent, quadrature_nodes):
    """One scenario per node assignment to the start->task and task->task arcs,
    in itertools.product order."""
    node_speeds = build_quadrature(agent.speed, quadrature_nodes).speeds
    ids = range(inst.n_tasks)
    arcs = [(0, j + 1) for j in ids] + [(i + 1, j + 1) for i in ids for j in ids if i != j]
    n = inst.n_tasks + 1
    for assignment in itertools.product(range(len(node_speeds)), repeat=len(arcs)):
        speeds = np.full((n, n), inst.speed.mean)
        for (a, b), q in zip(arcs, assignment):
            speeds[a, b] = node_speeds[q]
        yield Scenario(speeds)


def classify_per_assignment(inst, agent=None, quadrature_nodes=2, tolerance=1e-9):
    """The route screen one assignment at a time; stops at the first violation."""
    agent = inst.agents[0] if agent is None else agent
    ids = tuple(range(inst.n_tasks))
    subsets = [s for r in range(len(ids) + 1) for s in itertools.combinations(ids, r)]
    triples = [(small, big, j) for big in subsets for small in subsets
               if set(small) <= set(big) for j in ids if j not in big]
    for scenario in assignment_scenarios(inst, agent, quadrature_nodes):
        rewards = {s: route_reward_per_scenario(inst, agent, s, scenario) for s in subsets}
        for small, big, j in triples:
            gain_small = rewards[tuple(sorted(small + (j,)))] - rewards[small]
            gain_big = rewards[tuple(sorted(big + (j,)))] - rewards[big]
            if gain_big - gain_small > tolerance:
                return False
    return True


@dataclass(frozen=True)
class Bid:
    agent_id: int
    task_id: int
    value: float  # raw marginal gain
    wrapped_value: float  # after wrap_bid (== value when wrapping is off)


def compute_bids(inst, agent, state, solver, wrapping=True):
    """Marginal-gain bids for every task outside the bundle (one evaluation each)."""
    base = frozenset(state.bundle)
    standing = [float(state.winning_bids[j]) for j in state.bundle]
    bids = []
    for j in range(inst.n_tasks):
        if j in base:
            continue
        raw = solver.marginal_gain(agent, base, j)
        wrapped = wrap_bid(raw, standing) if wrapping else raw
        bids.append(Bid(agent.id, j, raw, wrapped))
    return bids


def build_bundle(inst, agent, state, solver, wrapping=True):
    """The auction's greedy growth: append the best strictly better bid until none is left."""
    grew = False
    while len(state.bundle) < state.capacity:
        best_task, best_bid = None, None
        for bid in compute_bids(inst, agent, state, solver, wrapping):
            offer = bid.wrapped_value
            if offer <= 0.0 or not offer > float(state.winning_bids[bid.task_id]):
                continue
            if best_bid is None or offer > best_bid:
                best_task, best_bid = bid.task_id, offer
        if best_task is None:
            break
        state.bundle.append(best_task)
        state.path.append(best_task)
        state.winning_bids[best_task] = best_bid
        state.winners[best_task] = state.agent_id
        grew = True
    return grew


def build_insertion_bundle(inst, agent, state, counter, robust_cfg, call_state):
    """CBBA's greedy growth: insert the best strictly better insertion bid at its position.

    A robust build (`robust_cfg` set) draws a fresh scenario batch per pass,
    numbered by the pass count kept in `call_state`, and wraps its bids.
    """
    robust = robust_cfg is not None
    grew = False
    while len(state.bundle) < state.capacity:
        if robust:
            call_state["calls"] = call_state.get("calls", 0) + 1
            scenarios = _sample_scenarios(
                inst, robust_cfg, call_state["calls"] * (agent.id + 1)
            )
        else:
            scenarios = [mean_scenario(inst)]
        base = _mean_reward(inst, agent, state.path, scenarios)
        best = None  # (offer, task, pos)
        for j in range(inst.n_tasks):
            if j in state.bundle:
                continue
            gain, pos = insertion_bid(
                inst, agent, state.path, j, scenarios, counter, base_mean=base
            )
            offer = (
                wrap_bid(gain, [float(state.winning_bids[b]) for b in state.bundle])
                if robust
                else gain
            )
            if offer <= 0.0 or not offer > float(state.winning_bids[j]):
                continue
            if best is None or offer > best[0]:
                best = (offer, j, pos)
        if best is None:
            break
        offer, j, pos = best
        state.path.insert(pos, j)
        state.bundle.append(j)
        state.winning_bids[j] = offer
        state.winners[j] = state.agent_id
        grew = True
    return grew


def reference_allocation(inst, network, build, max_rounds=None, trace=None):
    """Final states and (rounds, converged, oscillating) from `build(i, state)`."""
    states = [
        BundleState(agent_id=a.id, capacity=a.capacity, n_tasks=inst.n_tasks,
                    n_agents=inst.n_agents)
        for a in inst.agents
    ]
    outcome = run_coordination(inst, network, states, build, max_rounds, trace=trace)
    return states, outcome


def auction_set_value(solver, agent, bundle):
    """An agent's reported auction value: V at the start state holding its bundle."""
    if not bundle:
        return 0.0
    tasks = frozenset(bundle)
    return value_of(solver.table(agent, tasks), AgentState(0.0, 0, tasks))


def cbba_path_value(inst, agent, path, robust_cfg):
    """An agent's reported CBBA value: mean path reward over scenario batch 0."""
    scenarios = (
        _sample_scenarios(inst, robust_cfg, 0) if robust_cfg else [mean_scenario(inst)]
    )
    return _mean_reward(inst, agent, path, scenarios)
