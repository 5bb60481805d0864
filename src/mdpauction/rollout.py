"""Monte Carlo execution of allocations under realized speeds.

A scenario fixes one truncated-normal speed per ordered location pair; every
method is replayed on the same scenario list (paired comparison). Execution
keeps exact continuous times for rewards and feasibility; the value-table
policy only sees times snapped up to its grid when it is asked for the next
action. The global reward of one rollout is the summed price of served tasks
minus the penalty for every task that was assigned but not served, and for
every task left unassigned by the planner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .auction import AllocationResult
from .instance import AgentSpec, MissionInstance, distance
from .valuedp import (
    FINISH,
    SERVE,
    SKIP,
    AgentState,
    Scenario,
    ValueSolver,
    ValueTable,
    next_action,
)


@dataclass(frozen=True)
class MdpPolicy:
    """Re-queries the value table's argmax at every realized (snapped) state."""

    table: ValueTable


@dataclass(frozen=True)
class FixedPath:
    """Visits a frozen order, passing through failures."""

    path: tuple[int, ...]


ExecutionPolicy = Union[MdpPolicy, FixedPath]


@dataclass
class RolloutOutcome:
    reward: float
    served: list[int]
    failed: list[int]
    unassigned: list[int]


@dataclass
class RolloutReport:
    instance_seed: int | None
    method: str
    rollout_count: int
    expected_reward: float
    actual_reward_mean: float
    actual_reward_std: float
    finish_rate: float
    served_total: int
    failed_total: int
    unassigned_total: int

    def as_row(self) -> dict:
        return {
            "instance_seed": self.instance_seed,
            "method": self.method,
            "rollout_count": self.rollout_count,
            "expected_reward": self.expected_reward,
            "actual_reward_mean": self.actual_reward_mean,
            "actual_reward_std": self.actual_reward_std,
            "finish_rate": self.finish_rate,
            "served_total": self.served_total,
            "failed_total": self.failed_total,
            "unassigned_total": self.unassigned_total,
        }


def sample_scenario(inst: MissionInstance, seed: int) -> Scenario:
    """One truncated-normal speed per ordered location pair, deterministic in seed."""
    speed = inst.speed
    n = inst.n_tasks + 1
    rng = np.random.default_rng(seed)
    if speed.variance == 0.0:
        return Scenario(np.full((n, n), speed.mean))
    draws = rng.normal(speed.mean, speed.std, size=(n, n))
    return Scenario(np.maximum(draws, speed.truncation_floor))


def _execute_agent(
    inst: MissionInstance,
    agent: AgentSpec,
    assigned: list[int],
    policy: ExecutionPolicy,
    scenario: Scenario,
) -> tuple[list[int], list[int]]:
    """Returns (served, failed) task ids for one agent under one scenario."""
    served: list[int] = []
    t = 0.0
    here = agent.start
    here_index = 0

    def fly_and_serve(j: int) -> None:
        nonlocal t, here, here_index
        task = inst.tasks[j]
        speed = scenario.speed(here_index, j + 1)
        arrival = t + distance(here, task.location) / speed
        if arrival <= task.due_time:
            served.append(j)
            t = max(arrival, task.ready_time) + task.service_duration
        else:
            t = arrival
        here = task.location
        here_index = j + 1

    if isinstance(policy, FixedPath):
        for j in policy.path:
            fly_and_serve(j)
    else:
        remaining = set(assigned)
        while remaining:
            action = next_action(policy.table, AgentState(t, here_index, remaining))
            if action.kind == FINISH:
                break
            if action.kind == SKIP:
                remaining.discard(action.task_id)
                continue
            if action.kind == SERVE:
                fly_and_serve(action.task_id)
                remaining.discard(action.task_id)
    failed = sorted(set(assigned) - set(served))
    return served, failed


def execute(
    inst: MissionInstance,
    allocation: AllocationResult,
    policies: dict[int, ExecutionPolicy],
    scenario: Scenario,
) -> RolloutOutcome:
    """Replay every agent's policy on one scenario and account globally."""
    served_all: list[int] = []
    failed_all: list[int] = []
    for agent in inst.agents:
        assigned = allocation.assignment.get(agent.id, [])
        served, failed = _execute_agent(
            inst, agent, assigned, policies[agent.id], scenario
        )
        served_all.extend(served)
        failed_all.extend(failed)
    unassigned = list(allocation.unassigned)
    reward = math.fsum(inst.tasks[j].price for j in served_all) - inst.penalty * (
        len(failed_all) + len(unassigned)
    )
    return RolloutOutcome(
        reward=reward,
        served=sorted(served_all),
        failed=sorted(failed_all),
        unassigned=unassigned,
    )


def build_policies(
    inst: MissionInstance,
    allocation: AllocationResult,
    solver: ValueSolver | None = None,
) -> dict[int, ExecutionPolicy]:
    """Value-table policies for the auction method, fixed paths for baselines."""
    policies: dict[int, ExecutionPolicy] = {}
    if allocation.method == "auction":
        if solver is None:
            solver = ValueSolver(inst)
        for agent in inst.agents:
            policies[agent.id] = MdpPolicy(
                solver.table(agent, allocation.assignment.get(agent.id, []))
            )
    else:
        for agent in inst.agents:
            policies[agent.id] = FixedPath(tuple(allocation.paths.get(agent.id, [])))
    return policies


def validate(
    inst: MissionInstance,
    allocations: dict[str, AllocationResult],
    rounds: int = 100,
    seed: int = 0,
    solver: ValueSolver | None = None,
) -> dict[str, RolloutReport]:
    """Roll every method over the same scenario list and summarize.

    Scenario r is sampled from (seed, r), so reports are deterministic and the
    comparison across methods is paired.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    scenario_rng = np.random.default_rng((seed, 20240831))
    scenario_seeds = [int(s) for s in scenario_rng.integers(0, 2**63 - 1, size=rounds)]
    scenarios = [sample_scenario(inst, s) for s in scenario_seeds]
    reports: dict[str, RolloutReport] = {}
    for method, allocation in allocations.items():
        policies = build_policies(inst, allocation, solver)
        rewards = []
        served_total = failed_total = 0
        for sc in scenarios:
            outcome = execute(inst, allocation, policies, sc)
            rewards.append(outcome.reward)
            served_total += len(outcome.served)
            failed_total += len(outcome.failed)
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
    return reports
