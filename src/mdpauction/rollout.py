"""Monte Carlo execution of allocations under realized speeds.

A scenario fixes one truncated-normal speed per ordered location pair
(`SpeedModel.sample`); `validate` replays every method on the same scenario
list (paired comparison), running its agents over all scenarios in lockstep.
An allocation that carries a solver (the value-function auction's) has each
agent follow that solver's table for its bundle, re-reading the action at every
realized state, so the rollout executes the tables the bids came from; any
other allocation flies its frozen paths, passing through failures. Execution
keeps exact continuous times for rewards and feasibility; the value-table
policy only sees times snapped up to its grid when it is asked for the next
action. The global reward of one rollout is the summed price of served tasks
minus the penalty for every task that was assigned but not served, and for
every task left unassigned by the planner.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import compress

import numpy as np

from .auction import AllocationResult
from .instance import MissionInstance
from .valuedp import Legs, ValueTable

ROLLOUT_BYTES_CAP = 1 << 28  # bytes a rollout list or a robust batch of scenarios may hold


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
        return asdict(self)


def rollout_bytes(n_tasks: int, rounds: int) -> int:
    """Bytes `validate` holds for `rounds` scenario rows over L = n_tasks + 1
    locations: R*L^2*8 of speeds, plus under 32*L + 256 per row for its seed,
    served and failed flags, lockstep state and reward lists. A robust-CBBA
    batch of as many rows holds the same speeds plus a `Scenario` view per row,
    which the per-row term also covers."""
    size = n_tasks + 1
    return rounds * (8 * size * size + 32 * size + 256)


def check_rounds(inst: MissionInstance, rounds: int) -> None:
    """Refuse `rounds` below 1, or over ROLLOUT_BYTES_CAP, before allocating."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    need = rollout_bytes(inst.n_tasks, rounds)
    if need > ROLLOUT_BYTES_CAP:
        raise ValueError(f"{rounds} rounds over n={inst.n_tasks} tasks need {need} bytes "
                         f"of rollout state; the cap is {ROLLOUT_BYTES_CAP}")


def _fly_path(legs: Legs, path: tuple[int, ...], served: np.ndarray) -> None:
    """Visit `path` in order on every row, passing through failures."""
    t = np.zeros(served.shape[0])
    here = 0
    for j in path:
        ok, t = legs.fly(t, slice(None), here, j + 1)
        served[ok, j] = True
        here = j + 1


def _follow_table(legs: Legs, table: ValueTable, assigned: list[int],
                  served: np.ndarray) -> None:
    """Every row re-reads the table's action at its snapped state until it finishes.

    Rows step in lockstep; each step resolves one task or finishes the row, so
    at most k+1 steps run. `ValueTable.lookup` says when a row finishes.
    """
    place = np.array([0] + [j + 1 for j in table.task_ids])  # table loc -> location
    rows = np.arange(served.shape[0])
    t = np.zeros(rows.size)
    mask = np.full(rows.size, table.mask_of(assigned), dtype=np.int64)
    loc = np.zeros(rows.size, dtype=np.intp)
    while rows.size:
        go, serve, a = table.lookup(mask, loc, t)  # a: local task served or skipped
        rows, t, mask, loc, serve, a = rows[go], t[go], mask[go], loc[go], serve[go], a[go]
        mask ^= np.left_shift(1, a)
        at = rows[serve]
        to = place[1 + a[serve]]
        ok, t[serve] = legs.fly(t[serve], at, place[loc[serve]], to)
        served[at[ok], to[ok] - 1] = True
        loc[serve] = 1 + a[serve]


def _execute_rows(
    inst: MissionInstance, allocation: AllocationResult, speeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Served and failed tasks, each (R, n) bool, of every agent on R scenario rows.

    A task counts once per row: the auction and the baselines assign each task
    to at most one agent, on a path that visits it once.
    """
    served = np.zeros((speeds.shape[0], inst.n_tasks), dtype=bool)
    failed = np.zeros_like(served)
    for agent in inst.agents:
        legs = Legs.of(inst, agent, speeds)
        assigned = allocation.assignment.get(agent.id, [])
        if allocation.solver is not None:
            _follow_table(legs, allocation.solver.table(agent, assigned), assigned, served)
        else:
            _fly_path(legs, allocation.paths.get(agent.id, []), served)
        mine = sorted(set(assigned))
        failed[:, mine] = ~served[:, mine]
    return served, failed


def _rewards(inst: MissionInstance, served: np.ndarray, failed: np.ndarray,
             unassigned: int) -> list[float]:
    """Per row: summed price of served tasks minus the penalty per missed task."""
    prices = [t.price for t in inst.tasks]
    misses = (failed.sum(axis=1) + unassigned).tolist()
    return [math.fsum(compress(prices, row)) - inst.penalty * miss
            for row, miss in zip(served.tolist(), misses)]


def validate(
    inst: MissionInstance,
    allocations: dict[str, AllocationResult],
    rounds: int = 100,
    seed: int = 0,
) -> dict[str, RolloutReport]:
    """Roll every method over the same scenario list and summarize.

    Scenario r is drawn by `SpeedModel.sample` from the r-th seed of a stream
    seeded by `seed`, so reports are deterministic and the comparison across
    methods is paired. Each method's agents run over all scenarios at once;
    memory is at most `rollout_bytes`: R*L^2*8 bytes for the (R, L, L) speeds,
    with L = n + 1 locations, plus O(R*n) for the served and failed arrays and
    the per-row state (2.3 MB of speeds at R = 1000, n = 16).
    A scenario list over ROLLOUT_BYTES_CAP is refused before it is sampled.
    """
    check_rounds(inst, rounds)
    scenario_rng = np.random.default_rng((seed, 20240831))
    scenario_seeds = [int(s) for s in scenario_rng.integers(0, 2**63 - 1, size=rounds)]
    n = inst.n_tasks + 1
    speeds = inst.speed.sample(scenario_seeds, (n, n))
    reports: dict[str, RolloutReport] = {}
    for method, allocation in allocations.items():
        served, failed = _execute_rows(inst, allocation, speeds)
        rewards = _rewards(inst, served, failed, len(allocation.unassigned))
        served_total = int(served.sum())
        failed_total = int(failed.sum())
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
