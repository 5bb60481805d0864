"""Task-constrained value functions via backward induction over subsets.

An agent holding task set G faces states (remaining, location, time). Serving a
remaining task flies there at a random speed, succeeds iff the (grid-snapped)
arrival is no later than the task's due time, waits for the ready time if
early, collects the price, and spends the service duration. Skipping removes a
task for free; Finish ends the episode. Speed uncertainty enters through a
fixed quadrature rule; the value is the expectation over nodes of the optimal
continuation.

The table is indexed by (remaining-subset bitmask, location, time bin). Times
are snapped UP to the grid once per serve: the window check uses the snapped
arrival (conservative), the timeline accumulates exact minutes and the child
bin is ceil((max(arrival, t_r) + tau) / delta). A schedule feasible with
delta * |G| minutes of slack everywhere therefore stays feasible on the grid.
Values at any subset of G can be read from one table because the recursion
never references tasks outside `remaining`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .instance import AgentSpec, Location, MissionInstance, SpeedModel, distance

SUBSET_CAP = 12
LAYER_BLOCK_CELLS = 1 << 18  # (mask, location, bin) cells per layer-pass block
TABLE_BYTES_CAP = 1 << 30  # bytes a value table plus its solve's scratch may hold
UNSOLVED = -1  # policy code of a cell no layer pass has solved

SERVE, SKIP, FINISH = "serve", "skip", "finish"


@dataclass(frozen=True)
class QuadratureRule:
    """Speed nodes and probability weights; weights sum to 1.

    A rule the DP cannot honour is refused: it needs at least one node, one
    weight per speed, finite speeds above 0 (a leg takes a positive, finite
    time), finite weights at or above 0 (see `_solve_cells`) and a weight sum
    within 1e-9 of 1.
    """

    speeds: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.speeds) == 0 or len(self.weights) != len(self.speeds):
            raise ValueError(f"a quadrature rule needs one weight per speed and at least "
                             f"one node, got {len(self.speeds)} speeds and "
                             f"{len(self.weights)} weights")
        for v in self.speeds:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"quadrature speed {v} is not finite and > 0")
        for w in self.weights:
            if not (math.isfinite(w) and w >= 0.0):
                raise ValueError(f"quadrature weight {w} is not finite and >= 0")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"quadrature weights sum to {total}, not 1")

    def __len__(self) -> int:
        return len(self.speeds)


def build_quadrature(speed: SpeedModel, node_count: int) -> QuadratureRule:
    """Gauss-Hermite rule for the truncated speed distribution.

    Nodes are mapped through N(mean, variance), censored at the truncation
    floor, and the weights renormalized to sum to one exactly. Zero variance
    collapses to the one exact node at the mean, whatever `node_count` is. A
    rule with a non-finite node or weight, or without a positive finite weight
    sum (numpy's weights overflow at a few hundred nodes), is refused.
    """
    if speed.variance == 0.0:
        return QuadratureRule((speed.mean,), (1.0,))
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite.hermgauss(node_count)
        total = w.sum()  # not finite when any weight is not
    if not (np.isfinite(x).all() and 0.0 < total < math.inf):
        raise ValueError(f"node_count {node_count} gives a Gauss-Hermite rule with "
                         f"non-finite nodes, weights or weight sum")
    speeds = speed.mean + math.sqrt(2.0) * speed.std * x
    speeds = np.maximum(speeds, speed.truncation_floor)
    w = w / total
    return QuadratureRule(tuple(float(v) for v in speeds), tuple(float(v) for v in w))


@dataclass(frozen=True)
class AgentState:
    """Where an agent stands: minutes elapsed, location index, unresolved tasks.

    `at` uses instance location indexing (0 = depot, j+1 = task j);
    `remaining` holds task ids.
    """

    time: float
    at: int
    remaining: frozenset[int]

    def __init__(self, time: float, at: int, remaining: Iterable[int]):
        object.__setattr__(self, "time", float(time))
        object.__setattr__(self, "at", int(at))
        object.__setattr__(self, "remaining", frozenset(int(j) for j in remaining))


@dataclass(frozen=True)
class Action:
    kind: str
    task_id: int | None = None


@dataclass(frozen=True)
class Scenario:
    """Realized speed per ordered location pair (instance location indexing)."""

    speeds: np.ndarray  # shape (L, L)

    def speed(self, from_index: int, to_index: int) -> float:
        return float(self.speeds[from_index, to_index])


@dataclass(frozen=True)
class Legs:
    """One agent's flights over scenario rows, in scenario location indexing.

    Index 0 is the agent's start; task j is location j+1. Index 0 is never a
    destination, so the task arrays hold an unused entry there.
    """

    speeds: np.ndarray  # (R, L, L)
    dist: np.ndarray  # (L, L) from `instance.distance`; column 0 is unused
    due: np.ndarray  # (L,)
    ready: np.ndarray  # (L,)
    service: np.ndarray  # (L,)

    @classmethod
    def of(cls, inst: MissionInstance, agent: AgentSpec, speeds: np.ndarray) -> "Legs":
        """The agent's legs between its start and every task, on `speeds`."""
        places = [agent.start] + [t.location for t in inst.tasks]
        dist = np.array([[distance(a, b) for b in places] for a in places])
        due, ready, service = (
            np.array([0.0] + [getattr(t, name) for t in inst.tasks])
            for name in ("due_time", "ready_time", "service_duration")
        )
        return cls(speeds, dist, due, ready, service)

    def fly(self, t, rows, here, to):
        """Fly `rows` from `here` to `to`; returns (served, clock after the leg).

        A leg is served iff the exact arrival is no later than the due time;
        then the clock waits for the ready time and adds the service duration.
        """
        arrival = t + self.dist[here, to] / self.speeds[rows, here, to]
        ok = arrival <= self.due[to]
        return ok, np.where(ok, np.maximum(arrival, self.ready[to]) + self.service[to],
                            arrival)


def mean_scenario(inst: MissionInstance) -> Scenario:
    n = inst.n_tasks + 1
    return Scenario(np.full((n, n), inst.speed.mean))


class _SetReader:
    """A value function's coordinates over a task set: local task indices
    (positions in the sorted `task_ids`), table locations (0 = the start,
    1 + local index) and time bins of width `grid_step`."""

    task_ids: tuple[int, ...]
    grid_step: float
    _local: dict[int, int]

    def mask_of(self, remaining: Iterable[int]) -> int:
        mask = 0
        for j in remaining:
            if j not in self._local:
                raise ValueError(f"task {j} is not in this table's allocated set")
            mask |= 1 << self._local[j]
        return mask

    def loc_of(self, at: int) -> int:
        if at == 0:
            return 0
        j = at - 1
        if j not in self._local:
            raise ValueError(f"location index {at} is not covered by this table")
        return 1 + self._local[j]

    def bin_of(self, time: float) -> int:
        if time < 0.0 or not math.isfinite(time):
            raise ValueError(f"time {time} is out of range")
        return int(math.ceil(time / self.grid_step))


@dataclass
class ValueTable(_SetReader):
    """Backward-induction output over an allocated task set.

    It depends on the agent only through its start and speed model, so agents
    that share both can share the table.

    `solved` counts the popcount layers of remaining-sets `solve_value`
    solved; masks holding more tasks are unsolved. A table solved through its
    full set holds every cell; one solved below it (`solve_value`'s `layers`)
    also leaves every cell no reader can reach unsolved in the layers it did
    solve. An unsolved cell holds NaN in `values` and UNSOLVED in `policy`, so
    it never passes as a zero: `lookup` raises on an UNSOLVED code and
    `value_of` on a NaN. Layer 0 (nothing left: value 0, Finish) and the
    beyond-horizon time slot are always filled. `computed` counts the cells
    the layer passes solved.
    """

    task_ids: tuple[int, ...]  # sorted global ids; local index = position
    grid_step: float
    quad: QuadratureRule
    values: np.ndarray  # (2^k, k+1, T+2); last time slot is the beyond-horizon 0
    policy: np.ndarray  # (2^k, k+1, T+1) int16 coded actions
    origin: Location
    tasks: tuple  # Task objects aligned with task_ids
    solved: int
    computed: int
    _local: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._local = {j: a for a, j in enumerate(self.task_ids)}

    @property
    def time_bins(self) -> int:
        return self.policy.shape[2]

    def value_at(self, mask: int, loc: int, b: int) -> float:
        """V at (remaining mask, table location, bin b within the horizon)."""
        return _solved(self.values[mask, loc, b])

    def lookup(self, mask, loc, time):
        """The stored actions at (remaining mask, table location, exact time).

        Elementwise over arrays (or scalars); time snaps up to its bin. Returns
        (go, serve, local): go is False where the action is Finish, which it
        always is beyond the horizon or with nothing left; elsewhere the action
        serves (serve True) or skips the table's local task index `local`.
        Raises ValueError where it would read an unsolved cell.
        """
        k = len(self.task_ids)
        mask = np.asarray(mask)
        bins = np.ceil(np.asarray(time) / self.grid_step)
        asks = (bins < self.time_bins) & (mask != 0)
        b = np.where(asks, bins, 0).astype(np.intp)
        code = np.where(asks, self.policy[mask, loc, b], 2 * k).astype(np.intp)
        if (code == UNSOLVED).any():
            raise ValueError("lookup reads an unsolved value-table cell")
        return code < 2 * k, code < k, np.where(code < k, code, code - k)


def table_bytes(k: int, n_bins: int, nodes: int) -> int:
    """Bytes of a k-task table over `n_bins` time bins plus its solve's scratch.

    The table holds 8-byte values over n_bins + 1 time slots and 2-byte codes
    over n_bins, per (mask, location); the scratch is the bound `solve_value`
    states for Q = `nodes` quadrature nodes.
    """
    cells = (1 << k) * (k + 1)
    block = max(LAYER_BLOCK_CELLS, (k + 1) * n_bins)
    return (cells * (n_bins + 1) * 8 + cells * n_bins * 2
            + 12 * k * nodes * (k + 1) * n_bins + 48 * block + 32 * (1 << k) + 65536)


def solve_value(
    inst: MissionInstance,
    agent: AgentSpec,
    allocated: Iterable[int],
    quad: QuadratureRule | None = None,
    grid_step: float = 1.0,
    layers: int | None = None,
    store: RowStore | None = None,
) -> ValueTable | RowBatch:
    """Solve the subset DP for `allocated` and return its value table.

    With `store` (a `RowStore` of the agent's start, rule and grid),
    `allocated` is instead a collection of task sets: the call adds to the
    store every readable row of those sets it lacks (the readable cells
    below, as rows of global masks), through the same cell kernel, so each
    row is bit-identical to the cells of a table over any set that holds it.
    It returns a `RowBatch` of exactly the cells it computed; `layers` is
    unused, and `RowStore.solve` states the batch's byte bound.

    The backward pass handles one popcount layer of remaining-sets at a time,
    vectorised over the layer's masks and a (location, bin) selection, in
    blocks of at most LAYER_BLOCK_CELLS cells (one mask if a mask alone holds
    more). Each cell repeats the per-state recursion's arithmetic: a Serve
    value accumulates `acc += w[q] * (child + collected)` node by node, and the
    action is the first maximum over Serve by task id, Skip by task id, then
    Finish. With the finite, nonnegative weights every `QuadratureRule` holds,
    values and policy codes are bit-identical to a per-state loop on every
    cell the pass solves.

    With `layers` None (or at least k) every layer is solved and every state
    is stored, reachable from the start or not. A smaller `layers` solves
    layers 1..layers and, within them, only the cells a reader can reach from
    the start at time 0 holding at most `layers` tasks; the rest stay unsolved
    (see `ValueTable`). A reader needing more layers needs a new solve. The
    readable cells are:
    - the start (location 0) at bin 0 only: an agent stands there only at
      time 0, and a skip does not move the clock;
    - task b's location 1+b only for masks without b (b was just served), and
      only from bin lb_b = min(ceil((ready_b + service_b) / delta),
      floor(due_b / delta)) on.
    Why lb_b holds: a DP serve transition that meets the due time reads
    ceil((max(arrival, ready_b) + service_b) / delta), at least the first
    term, and a rollout's clock after an on-time arrival is at least
    ready_b + service_b, whose bin is no lower. A late DP transition reads the
    snapped arrival bin m with m * delta > due_b, so m >= floor(due_b /
    delta). A late rollout arrives at an exact x > due_b and reads ceil(x /
    delta) >= ceil(due_b / delta) >= floor(due_b / delta). The bound is
    floor(due_b / delta), not floor(due_b / delta) + 1: when due_b / delta
    lies just above an integer, rounding can give a late arrival's ceil(x /
    delta) that integer, one bin below the +1 bound. The margin costs one bin
    per location. Serve and skip children of a readable cell are readable
    (a skip keeps the location and the bin), so every cell a solved layer
    reads is solved.

    Scratch memory beyond the returned table, with Q quadrature nodes, T+1
    time bins and C = max(LAYER_BLOCK_CELLS, (k+1)(T+1)) cells per block, is
    at most 12*k*Q*(k+1)*(T+1) + 48*C + 32*2^k + 65536 bytes: an int32 child
    bin and a float64 collected price per (task, node, source, bin), under 48
    bytes per block cell for the running maximum, its action codes and one
    candidate row (or one (task, node) pair's temporaries while the
    transitions are built), a few integer arrays over the masks, and Python
    object overhead. A table solved below its full set runs one pass per
    location, so its blocks hold at most max(LAYER_BLOCK_CELLS, T+1) cells and
    the same bound holds. A solve whose table plus this bound (`table_bytes`)
    exceeds TABLE_BYTES_CAP is refused before anything is allocated.
    """
    n_bins = _bin_count(inst.horizon, grid_step)
    if quad is None:
        quad = build_quadrature(agent.speed, 8)
    if store is not None:
        if (agent.start, quad, float(grid_step)) != (store.origin, store.quad, store.grid_step):
            raise ValueError("the row store holds another start, quadrature rule or grid")
        return store.solve(allocated)
    task_ids = tuple(sorted(set(int(j) for j in allocated)))
    for j in task_ids:
        if not (0 <= j < inst.n_tasks):
            raise ValueError(f"unknown task id {j}")
    k = len(task_ids)
    if k > SUBSET_CAP:
        raise ValueError(f"|allocated| = {k} exceeds the subset cap {SUBSET_CAP}")

    delta = float(grid_step)
    T = n_bins - 1  # bins 0..T are within the horizon
    need = table_bytes(k, n_bins, len(quad))
    if need > TABLE_BYTES_CAP:
        raise ValueError(
            f"a value table over k={k} tasks with {n_bins} time bins (horizon "
            f"{inst.horizon}, grid {delta}) and Q={len(quad)} quadrature nodes needs "
            f"{need} bytes; the cap is {TABLE_BYTES_CAP}")
    layers = k if layers is None else max(0, min(int(layers), k))
    tasks = [inst.tasks[j] for j in task_ids]

    # The transitions are allocated before the table, so that their memory,
    # freed when the solve ends, lies below the table's and the next solve
    # reuses it. Allocated after the table, it would sit at the heap top, go
    # back to the system when freed, and be faulted in again by every solve
    # (about three times the page faults on a run of small cached tables).
    transitions = _serve_transitions(tasks, [agent.start] + [t.location for t in tasks],
                                     quad, delta, T)
    values = np.empty((1 << k, k + 1, n_bins + 1))
    policy = np.empty((1 << k, k + 1, n_bins), dtype=np.int16)
    if layers < k:  # a dense pass writes every cell; a pruned one leaves some
        values.fill(np.nan)
        policy.fill(UNSOLVED)
    values[0] = values[:, :, n_bins] = 0.0
    policy[0] = 2 * k
    cells = _solve_layers(values, policy, layers, *transitions, np.asarray(quad.weights),
                          None if layers == k else _first_bins(tasks, delta))
    return ValueTable(
        task_ids=task_ids,
        grid_step=delta,
        quad=quad,
        values=values,
        policy=policy,
        origin=agent.start,
        tasks=tuple(tasks),
        solved=layers,
        computed=cells,
    )


def _bin_count(horizon: float, grid_step: float) -> int:
    """T + 1: the time bins 0..T = floor(horizon / grid_step) within the horizon."""
    if not (grid_step > 0.0 and math.isfinite(grid_step)):
        raise ValueError(f"grid_step must be finite and > 0, got {grid_step}")
    if not math.isfinite(horizon / grid_step):
        raise ValueError(f"grid_step {grid_step} splits horizon {horizon} into "
                         f"infinitely many time bins")
    return int(math.floor(horizon / float(grid_step))) + 1


def _first_bins(tasks, delta) -> list[int]:
    """lb_b per local task b: the earliest bin read at b's location (see `solve_value`)."""
    return [max(0, min(math.ceil((t.ready_time + t.service_duration) / delta),
                       math.floor(t.due_time / delta))) for t in tasks]


def _serve_transitions(tasks, locations, quad, delta, T):
    """Serve outcomes per (local task, node, source location, departure bin).

    Returns the child bin to read (T+1 is the terminal pad) and the price
    collected there (0.0 when the snapped arrival misses the due time).
    """
    shape = (len(tasks), len(quad), len(locations), T + 1)
    child_bin = np.empty(shape, dtype=np.int32)
    collected = np.empty(shape)
    t_minutes = np.arange(T + 1) * delta
    for a, task in enumerate(tasks):
        dist = np.array([distance(src, task.location) for src in locations])
        for q, speed in enumerate(quad.speeds):
            arrival = t_minutes + (dist / speed)[:, None]
            arrival_bin = np.ceil(arrival / delta).astype(np.int64)
            ok = arrival_bin * delta <= task.due_time
            served = np.ceil(
                (np.maximum(arrival, task.ready_time) + task.service_duration) / delta
            ).astype(np.int64)
            np.minimum(np.where(ok, served, arrival_bin), T + 1, out=child_bin[a, q])
            collected[a, q] = np.where(ok, task.price, 0.0)
    return child_bin, collected


def _solve_layers(values, policy, top, child_bin, collected, weights, first_bin) -> int:
    """Solve the popcount layers 1..`top`, lowest first; returns the cells computed.

    With `first_bin` None each layer is one dense pass over every (location,
    bin) cell. Otherwise each layer runs one pass per location: the start at
    bin 0, and location 1+b over the masks without b from bin first_bin[b] on.
    """
    k = child_bin.shape[0]
    n_bins = policy.shape[2]
    masks = np.arange(1 << k)
    popcount = sum((masks >> a) & 1 for a in range(k))
    if first_bin is None:
        passes = [(None, slice(None), slice(0, n_bins))]
    else:
        passes = [(None, slice(0, 1), slice(0, 1))] + [
            (b, slice(1 + b, 2 + b), slice(lb, n_bins)) for b, lb in enumerate(first_bin)]
    cells = 0
    for size in range(1, top + 1):
        layer = masks[popcount == size]
        for b, locs, bins in passes:
            at = layer if b is None else layer[((layer >> b) & 1) == 0]
            width = policy[0, locs, bins].size
            if not (at.size and width):
                continue
            per_block = max(1, LAYER_BLOCK_CELLS // width)
            for lo in range(0, at.size, per_block):
                _solve_cells(values, policy, at[lo : lo + per_block], locs, bins,
                             child_bin, collected, weights)
            cells += at.size * width
    return cells


def _solve_cells(values, policy, masks, locs, bins, child_bin, collected, weights) -> None:
    """Fill `values` and `policy` at (masks, locs, bins), whose children are all solved."""
    k = child_bin.shape[0]
    best, code = _best_actions(
        masks.size, [(a, np.flatnonzero(masks & (1 << a))) for a in range(k)],
        lambda a, at: values[masks[at] ^ (1 << a), 1 + a],
        lambda a, at: values[masks[at] ^ (1 << a), locs, bins],
        child_bin[:, :, locs, bins], collected[:, :, locs, bins], weights, k)
    values[masks, locs, bins] = best
    policy[masks, locs, bins] = code


def _best_actions(size, members, serve_child, skip_child, child_bin, collected, weights, k):
    """The best value and action code of every cell of `size` remaining-sets.

    The cells are the sets' cells at one selection of (location, bin) cells.
    `members` lists (task a, positions of the sets that hold a) by increasing
    a; `serve_child(a, at)` gives the sets at `at` without a at a's location,
    one row of bins per set (the beyond-horizon pad last), and `skip_child(a,
    at)` the same sets without a at the selected cells. `child_bin[a, q]` and
    `collected[a, q]` are a serve of a's child column and price per selected
    cell at node q. Candidates come in the order Serve by task, Skip by task,
    Finish; codes are a, k + a and 2k. A NaN candidate never wins the strict
    `>`, so it would be dropped without an error: every input (weights,
    prices, children) must be finite.
    """
    nq = child_bin.shape[1]
    best = np.full((size,) + child_bin.shape[2:], -np.inf)
    code = np.full(best.shape, 2 * k, dtype=np.int16)
    acc = np.empty_like(best)
    gain = np.empty_like(best)

    def offer(row, at, row_code):
        # strict > keeps the earlier candidate on ties, as argmax does
        if at.size == size:  # every set: `at` is 0..size-1, so no gather
            better = row > best
            np.copyto(best, row, where=better)
            np.copyto(code, row_code, where=better)
            return
        held = best[at]
        better = row > held
        np.copyto(held, row, where=better)
        best[at] = held
        codes = code[at]
        np.copyto(codes, row_code, where=better)
        code[at] = codes

    for a, at in members:  # Serve rows
        if at.size:
            child = serve_child(a, at)
            out, scratch = acc[: at.size], gain[: at.size]
            # bins are always in range; "clip" lets take write `out` unbuffered
            child.take(child_bin[a, 0], axis=1, out=out, mode="clip")
            out += collected[a, 0]
            out *= weights[0]
            for q in range(1, nq):
                child.take(child_bin[a, q], axis=1, out=scratch, mode="clip")
                scratch += collected[a, q]
                scratch *= weights[q]
                out += scratch
            offer(out, at, a)
    for a, at in members:  # Skip rows
        if at.size:
            offer(skip_child(a, at), at, k + a)
    finish = best < 0.0  # Finish (worth 0.0) comes last, so it needs strictly more
    best[finish] = 0.0
    code[finish] = 2 * k
    return best, code


def _solved(value) -> float:
    """`value` as a float; a NaN (an unsolved cell) raises ValueError."""
    value = float(value)
    if math.isnan(value):
        raise ValueError("the state reads an unsolved value-table cell")
    return value


def value_of(table: ValueTable, state: AgentState) -> float:
    """Expected reward-to-go at `state`; 0 beyond the horizon."""
    mask = table.mask_of(state.remaining)
    loc = table.loc_of(state.at)
    b = table.bin_of(state.time)
    if b >= table.time_bins:
        return 0.0
    return table.value_at(mask, loc, b)


def next_action(table: ValueTable, state: AgentState) -> Action:
    """The stored argmax action; Finish beyond the horizon or with nothing left."""
    table.bin_of(state.time)  # rejects negative or non-finite times
    go, serve, local = table.lookup(
        table.mask_of(state.remaining), table.loc_of(state.at), state.time
    )
    if not go:
        return Action(FINISH)
    return Action(SERVE if serve else SKIP, table.task_ids[int(local)])


def action_value(table: ValueTable, state: AgentState, action: Action) -> float:
    """Recompute one action's expected value from the table's children.

    Mirrors the solver's arithmetic (same per-node accumulation order), so on
    stored states max over legal actions reproduces the stored value exactly.
    """
    mask = table.mask_of(state.remaining)
    loc = table.loc_of(state.at)
    b = table.bin_of(state.time)
    if b >= table.time_bins:
        raise ValueError("state lies beyond the horizon")
    if action.kind == FINISH:
        return 0.0
    j = action.task_id
    if j is None or j not in state.remaining:
        raise ValueError(f"task {j} is not available at this state")
    a = table.task_ids.index(j)
    child_mask = mask ^ (1 << a)
    if action.kind == SKIP:
        return _solved(table.values[child_mask, loc, b])
    if action.kind != SERVE:
        raise ValueError(f"unknown action kind {action.kind!r}")
    task = table.tasks[a]
    src = table.origin if loc == 0 else table.tasks[loc - 1].location
    dist = distance(src, task.location)
    delta = table.grid_step
    T = table.time_bins - 1
    child = table.values[child_mask, 1 + a]
    t = b * delta
    acc = 0.0
    for q, speed in enumerate(table.quad.speeds):
        arrival = t + dist / speed
        arrival_bin = int(np.ceil(arrival / delta))
        if arrival_bin * delta <= task.due_time:
            nxt = int(
                np.ceil((max(arrival, task.ready_time) + task.service_duration) / delta)
            )
            gain = task.price + child[min(nxt, T + 1)]
        else:
            gain = child[min(arrival_bin, T + 1)]
        acc += table.quad.weights[q] * gain
    return _solved(acc)


@dataclass
class RowBatch:
    """The cells one `solve_value(..., store=...)` call computed, row by row.

    The rows stay in the store; `values` and `policy` are flat copies of
    exactly the cells the call solved (no beyond-horizon pads), so `computed`
    is their size.
    """

    values: np.ndarray
    policy: np.ndarray
    rows: int

    @property
    def computed(self) -> int:
        return self.policy.size


def _index_bytes(n: int, entries: int) -> int:
    """A bound on the bytes of `entries` row-index entries over n tasks: a dict
    slot, an int row and an int key (mask * (n + 1) + location) each, at most
    160 bytes plus 4 bytes per 30 key bits while the dict grows."""
    return entries * (160 + 4 * ((n + (n + 1).bit_length()) // 30 + 1))


class RowStore:
    """The value rows of one start beyond the subset cap, by global (mask, location).

    A row holds V and the action code at one (remaining mask, location) on the
    bins a reader can reach (see `solve_value`): bin 0 at the start (location
    0), and bins lb_b..T at task b's location 1 + b, then the beyond-horizon
    pad (value 0). The rows of location l are one pair of growable arrays.
    `index` maps mask * (n + 1) + location to a row: a dict, so its memory
    grows with the rows stored, whatever n is. Codes use global task ids:
    serve j is j, skip j is n + j, Finish is 2n. `solve` adds every readable
    row of a set in one batch, so a set's start row is stored only with all of
    the set's rows. The first batch allocates the arrays, each with mask 0's
    row (value 0, Finish) first, and builds the serve transitions from every
    location to every task, once.
    """

    def __init__(self, inst: MissionInstance, origin: Location, quad: QuadratureRule,
                 grid_step: float):
        self.origin, self.quad = origin, quad
        self.grid_step = float(grid_step)
        self.tasks = tuple(inst.tasks)
        n = len(self.tasks)
        self.n_bins = _bin_count(inst.horizon, grid_step)
        # lb per location; a due time past the horizon can put lb_b past T
        self.first = [0] + [min(lb, self.n_bins)
                            for lb in _first_bins(self.tasks, self.grid_step)]
        self.width = [1] + [self.n_bins - lb for lb in self.first[1:]]
        self.values = [np.zeros((0, w + 1)) for w in self.width]
        # int16 holds every code 0..2n: the transitions' bytes alone refuse n > 9,458
        self.policy = [np.zeros((0, w), dtype=np.int16) for w in self.width]
        self.used = [0] * (n + 1)
        self.index: dict[int, int] = {}
        self.rows = 0  # rows solved (mask 0's not counted)
        self.child_bin = self.collected = None  # per (task, node, location, bin)

    @property
    def nbytes(self) -> int:
        """Bytes held: the row arrays, the transitions and the index bound."""
        arrays = sum(v.nbytes + p.nbytes for v, p in zip(self.values, self.policy))
        if self.child_bin is not None:
            arrays += self.child_bin.nbytes + self.collected.nbytes
        return arrays + _index_bytes(len(self.tasks), len(self.index))

    def mask(self, tasks: Iterable[int]) -> int:
        """The global mask of `tasks`; an id outside the task set raises."""
        mask = 0
        for j in map(int, tasks):
            if not 0 <= j < len(self.tasks):
                raise ValueError(f"unknown task id {j}")
            mask |= 1 << j
        return mask

    def holds(self, mask: int) -> bool:
        """Whether every readable row of the set `mask` is stored (the empty
        set has none to read: its value is 0)."""
        return mask == 0 or mask * (len(self.tasks) + 1) in self.index

    def _row_bytes(self, loc: int) -> int:
        width = self.width[loc]
        return (width + 1) * 8 + width * 2

    def _need(self, rows: int, arrays: int, scratch: int) -> int:
        """Bytes of `arrays` of row storage, an index of `rows` rows, the
        transitions and `scratch`."""
        n = len(self.tasks)
        transitions = 12 * n * len(self.quad) * (n + 1) * self.n_bins  # int32, float64
        return arrays + transitions + _index_bytes(n, rows) + scratch

    def _refuse_over_cap(self, rows: int, arrays: int, scratch: int) -> None:
        """Raise unless `_need` fits TABLE_BYTES_CAP, naming n, the bins, Q and the rows."""
        n, nodes = len(self.tasks), len(self.quad)
        need = self._need(rows, arrays, scratch)
        if need > TABLE_BYTES_CAP:
            raise ValueError(
                f"the value rows of one start over n={n} tasks with {self.n_bins} time "
                f"bins and Q={nodes} quadrature nodes would hold {rows} rows in {need} "
                f"bytes; the cap is {TABLE_BYTES_CAP}")

    def solve(self, sets: Iterable[Iterable[int]]) -> RowBatch:
        """Add every readable row of `sets` the store lacks; see `solve_value`.

        The new rows are the start row of each missing set T (every subset of
        a set included) and T's row at task b's location with b served, for
        each b in T. They are solved one popcount layer at a time, lowest
        first, in one pass per (layer, location) in blocks of at most
        LAYER_BLOCK_CELLS // (T + 2) masks. Scratch beyond the stored rows is
        under 48 bytes per (block mask, bin) and the flat copy the call
        returns, plus the planned masks (bounded like index entries). A batch
        whose rows, index, transitions and scratch would pass TABLE_BYTES_CAP
        is refused before it allocates: first on each set's own rows alone,
        before any planning, then on the planned batch.
        """
        n = len(self.tasks)
        stride = n + 1
        masks = [self.mask(s) for s in sets]
        for mask in masks:
            k = mask.bit_count()
            if k > SUBSET_CAP:
                raise ValueError(f"|allocated| = {k} exceeds the subset cap {SUBSET_CAP}")
            rows = (1 << k) - 1
            arrays = rows * self._row_bytes(0)
            for b in range(n):
                if mask >> b & 1:
                    rows += (1 << (k - 1)) - 1
                    arrays += ((1 << (k - 1)) - 1) * self._row_bytes(1 + b)
            self._refuse_over_cap(rows, arrays, 0)
        groups = self._plan(masks)
        self._reserve(groups)
        if self.child_bin is None:
            self.child_bin, self.collected = _serve_transitions(
                self.tasks, [self.origin] + [t.location for t in self.tasks], self.quad,
                self.grid_step, self.n_bins - 1)
            # a serve of b reads b's rows from lb_b on: child bins become columns
            self.child_bin -= np.array(self.first[1:], dtype=np.int32)[:, None, None, None]

        weights = np.asarray(self.quad.weights)
        per_block = max(1, LAYER_BLOCK_CELLS // (self.n_bins + 1))
        start = list(self.used)
        for size in range(1, max((s for s, _ in groups), default=0) + 1):
            layer = []
            for loc in range(stride):
                group = groups.get((size, loc))
                if group:
                    first = self.used[loc]
                    self.used[loc] += len(group)
                    for lo in range(0, len(group), per_block):
                        self._solve_rows(group[lo : lo + per_block], loc, first + lo, weights)
                    layer.append((group, loc, first))
            for group, loc, first in layer:  # the next layer reads these rows
                self.index.update((mask * stride + loc, first + i)
                                  for i, mask in enumerate(group))
        batch = RowBatch(
            values=np.concatenate([self.values[loc][start[loc] : self.used[loc], :w].ravel()
                                   for loc, w in enumerate(self.width)]),
            policy=np.concatenate([self.policy[loc][start[loc] : self.used[loc]].ravel()
                                   for loc in range(stride)]),
            rows=sum(self.used) - sum(start),
        )
        self.rows += batch.rows
        return batch

    def _plan(self, masks: list[int]) -> dict[tuple[int, int], list[int]]:
        """The missing rows of the sets `masks` and all their subsets, as the
        masks to solve per (popcount layer, location)."""
        todo = set()
        while masks:
            mask = masks.pop()
            if mask in todo or self.holds(mask):
                continue
            todo.add(mask)
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                masks.append(mask ^ low)
        groups: dict[tuple[int, int], list[int]] = {}
        for mask in sorted(todo):
            size = mask.bit_count()
            groups.setdefault((size, 0), []).append(mask)
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if mask != low:  # mask 0's rows are stored
                    # low.bit_length() is 1 + b for low = 1 << b
                    groups.setdefault((size - 1, low.bit_length()), []).append(mask ^ low)
        return groups

    def _reserve(self, groups: dict[tuple[int, int], list[int]]) -> None:
        """Grow the arrays to take the planned rows, or refuse over the cap.

        A growing array doubles, unless only its exact size fits the cap. The
        first batch also stores mask 0's rows.
        """
        n = len(self.tasks)
        fresh = not self.index
        added = [int(fresh)] * (n + 1)
        for (_, loc), group in groups.items():
            added[loc] += len(group)
        row_bytes = [self._row_bytes(loc) for loc in range(n + 1)]
        exact = [max(len(v), used + new) for v, used, new in zip(self.values, self.used, added)]
        doubled = [max(c, 2 * len(v)) if c > len(v) else c for c, v in zip(exact, self.values)]
        rows = len(self.index) + sum(added)
        scratch = (48 * max(LAYER_BLOCK_CELLS, self.n_bins + 1)
                   + sum(a * w for a, w in zip(added, self.width)) * 10  # the returned copy
                   + max((len(v) * b for v, c, b in zip(self.values, exact, row_bytes)
                          if c > len(v)), default=0)  # an array and its grown copy
                   + _index_bytes(n, 2 * sum(added)))  # the plan
        capacity = doubled
        if self._need(rows, sum(map(operator.mul, doubled, row_bytes)), scratch) \
                > TABLE_BYTES_CAP:
            capacity = exact
        self._refuse_over_cap(rows, sum(map(operator.mul, capacity, row_bytes)), scratch)
        for loc, size in enumerate(capacity):
            used = self.used[loc]
            if size > len(self.values[loc]):
                values = np.zeros((size, self.width[loc] + 1))
                values[:used] = self.values[loc][:used]
                policy = np.empty((size, self.width[loc]), dtype=np.int16)
                policy[:used] = self.policy[loc][:used]
                self.values[loc], self.policy[loc] = values, policy
        if fresh:  # the values are zeros already
            for loc in range(n + 1):
                self.policy[loc][0] = 2 * n
                self.index[loc] = 0
            self.used = [1] * (n + 1)

    def _solve_rows(self, masks: list[int], loc: int, first: int, weights) -> None:
        """Solve the rows of `masks` at `loc` into rows first.., children all stored."""
        stride = len(self.tasks) + 1
        index = self.index
        at, serve, skip = {}, {}, {}  # per task: mask positions, child rows
        for i, mask in enumerate(masks):
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                a = low.bit_length() - 1
                child = (mask ^ low) * stride
                if a not in at:
                    at[a], serve[a], skip[a] = [], [], []
                at[a].append(i)
                serve[a].append(index[child + 1 + a])
                skip[a].append(index[child + loc])
        lb, width = self.first[loc], self.width[loc]
        best, code = _best_actions(
            len(masks), [(a, np.array(at[a])) for a in sorted(at)],
            lambda a, _: self.values[1 + a][serve[a]],
            lambda a, _: self.values[loc][skip[a], :width],
            self.child_bin[:, :, loc, lb : lb + width],
            self.collected[:, :, loc, lb : lb + width], weights, len(self.tasks))
        self.values[loc][first : first + len(masks), :width] = best
        self.policy[loc][first : first + len(masks)] = code


class RowView(_SetReader):
    """One task set's value function in a `RowStore`, read like a `ValueTable`.

    It keeps the table's reader API in the set's own coordinates (`task_ids`,
    `mask_of`, `loc_of`, `bin_of`, `time_bins`, `lookup`, `value_at`), so
    `value_of`, `next_action` and the rollouts read it as they read a table. A
    read of a row or bin the store does not hold raises ValueError, as a read
    of an unsolved table cell does.
    """

    def __init__(self, store: RowStore, task_ids: tuple[int, ...]):
        self.store = store
        self.task_ids = task_ids
        self.grid_step = store.grid_step
        self._local = {j: a for a, j in enumerate(task_ids)}
        self._rows = self._codes = None  # built by the first lookup

    @property
    def time_bins(self) -> int:
        return self.store.n_bins

    def _place(self, loc: int) -> int:
        """The store location of table location `loc`."""
        return 0 if loc == 0 else 1 + self.task_ids[loc - 1]

    def _key(self, mask: int, loc: int) -> int:
        """The store index key of (local mask, table location)."""
        glob = 0
        for a, j in enumerate(self.task_ids):
            if mask >> a & 1:
                glob |= 1 << j
        return glob * (len(self.store.tasks) + 1) + self._place(loc)

    def value_at(self, mask: int, loc: int, b: int) -> float:
        """V at (local mask, table location, bin b within the horizon)."""
        if mask == 0:
            return 0.0
        place = self._place(loc)
        row = self.store.index.get(self._key(mask, loc))
        col = b - self.store.first[place]
        if row is None or col < 0:
            raise ValueError("the state reads an unsolved value-table cell")
        return float(self.store.values[place][row, col])

    def lookup(self, mask, loc, time):
        """`ValueTable.lookup` over the store's rows; codes come back local."""
        k = len(self.task_ids)
        store = self.store
        if self._rows is None:
            self._rows = np.array([[store.index.get(self._key(m, loc), -1)
                                    for loc in range(k + 1)] for m in range(1 << k)],
                                  dtype=np.intp)
            n = len(store.tasks)
            self._codes = np.full(2 * n + 1, 2 * k, dtype=np.intp)
            for a, j in enumerate(self.task_ids):
                self._codes[j], self._codes[n + j] = a, k + a
        mask, loc, bins = np.broadcast_arrays(
            np.asarray(mask), np.asarray(loc), np.ceil(np.asarray(time) / self.grid_step))
        asks = (bins < self.time_bins) & (mask != 0)
        code = np.full(mask.shape, 2 * k, dtype=np.intp)
        for here in range(k + 1):
            at = asks & (loc == here)
            if at.any():
                place = self._place(here)
                row = self._rows[mask[at], here]
                col = bins[at].astype(np.intp) - store.first[place]
                if (row < 0).any() or (col < 0).any():
                    raise ValueError("lookup reads an unsolved value-table cell")
                code[at] = self._codes[store.policy[place][row, col]]
        return code < 2 * k, code < k, np.where(code < k, code, code - k)


@dataclass
class SolverStats:
    """A `ValueSolver`'s deterministic work counters.

    `tables_built` counts `solve_value` calls, re-solves and row batches
    included; `cells_computed` counts the cells they solved (not the cells
    allocated). Beyond the subset cap, `rows_stored` counts the value rows the
    solver's row stores hold and `bytes_held` their bytes (`RowStore.nbytes`).
    """

    tables_built: int = 0
    cache_hits: int = 0
    cells_computed: int = 0
    rows_stored: int = 0
    bytes_held: int = 0


class ValueSolver:
    """Shared value functions plus marginal-gain instrumentation.

    One table over the full task set answers every subset query (the recursion
    never looks outside `remaining`), so marginal gains V(b + j) - V(b) are two
    lookups. Every agent shares the mission's speed model and so the one
    quadrature rule `quad`. Up to SUBSET_CAP tasks, tables are keyed by start,
    so agents that differ only in id or capacity share one solve. No agent's
    bundle outgrows its capacity, so a table is solved only through the
    largest capacity among the agents that share its start, and only on the
    cells they can read (`solve_value`'s `layers`); a query for a larger set
    re-solves the table through its full set.

    Beyond the cap, each start has one `RowStore` of value rows keyed by global
    (mask, location), and a set's value function is a `RowView` of it. Sets
    share their common rows, so each row is solved once. `prefetch` solves the
    missing rows of many sets in one `solve_value` batch; the auction calls it
    once per growth pass for every set its offers read, since a batch of one
    set costs more numpy calls than it saves.

    `evaluations` counts marginals per agent, which is the score accounting
    the coordination layer reports; `stats` counts the solver's work.
    """

    def __init__(
        self,
        inst: MissionInstance,
        quadrature_nodes: int = 8,
        grid_step: float = 1.0,
    ):
        self.instance = inst
        self.quad = build_quadrature(inst.speed, quadrature_nodes)
        self.grid_step = float(grid_step)
        self.evaluations: dict[int, int] = {a.id: 0 for a in inst.agents}
        self.stats = SolverStats()
        self._tables: dict[Location, ValueTable] = {}  # up to the cap, by start
        self._stores: dict[Location, RowStore] = {}  # beyond the cap, by start
        # the layer bound per start: the largest capacity of the agents there
        self._layers: dict[Location, int] = {}
        for a in inst.agents:
            self._layers[a.start] = max(self._layers.get(a.start, 0), a.capacity)

    @property
    def total_evaluations(self) -> int:
        return sum(self.evaluations.values())

    def table(self, agent: AgentSpec, allocated: Iterable[int] = ()) -> ValueTable | RowView:
        """A value function covering `allocated`, an iterable of task ids.

        An id outside the mission's task set is refused. Up to the cap it is
        the start's table over the full task set. The cached table serves when
        it is solved through `len(allocated)` layers; otherwise `solve_value`
        solves one, through the start's layer bound when `allocated` fits
        within it and through the full task set when not. It replaces the
        cached table, which is dropped before the solve so that the solver
        never holds two tables for one start. Beyond the cap it is a `RowView`
        of the start's row store, after `prefetch` solves any missing rows.
        """
        n = self.instance.n_tasks
        allocated = set(int(j) for j in allocated)
        for j in sorted(allocated):
            if not 0 <= j < n:
                raise ValueError(f"task {j} is not in this table's task set, the "
                                 f"mission's ids 0..{n - 1}")
        if n > SUBSET_CAP:
            store = self._store(agent)
            if store.holds(store.mask(allocated)):
                self.stats.cache_hits += 1
            else:
                self.prefetch(agent, [allocated])
            return RowView(store, tuple(sorted(allocated)))
        tab = self._tables.get(agent.start)
        if tab is not None and len(allocated) <= tab.solved:
            self.stats.cache_hits += 1
            return tab
        if tab is not None:
            del self._tables[agent.start], tab
        bound = self._layers.get(agent.start, n)
        tab = solve_value(
            self.instance,
            agent,
            range(n),
            quad=self.quad,
            grid_step=self.grid_step,
            layers=bound if len(allocated) <= bound else None,
        )
        self._tables[agent.start] = tab
        self.stats.tables_built += 1
        self.stats.cells_computed += tab.computed
        return tab

    def prefetch(self, agent: AgentSpec, sets: Iterable[Iterable[int]]) -> None:
        """Solve, in one batch, every row that reading any of `sets` needs.

        Beyond the cap, one `solve_value` call adds to the start's `RowStore`
        every readable row of the sets that it lacks. Up to the cap this does
        nothing: `table` solves the start's one table.
        """
        if self.instance.n_tasks <= SUBSET_CAP:
            return
        store = self._store(agent)
        sets = [s for s in map(tuple, sets) if not store.holds(store.mask(s))]
        if not sets:
            return
        batch = solve_value(self.instance, agent, sets, quad=self.quad,
                            grid_step=self.grid_step, store=store)
        self.stats.tables_built += 1
        self.stats.cells_computed += batch.computed
        self.stats.rows_stored += batch.rows
        self.stats.bytes_held = sum(s.nbytes for s in self._stores.values())

    def _store(self, agent: AgentSpec) -> RowStore:
        store = self._stores.get(agent.start)
        if store is None:
            store = RowStore(self.instance, agent.start, self.quad, self.grid_step)
            self._stores[agent.start] = store
        return store

    def set_value(self, agent: AgentSpec, task_set: Iterable[int]) -> float:
        """V at the agent's start state holding exactly `task_set`."""
        tasks = frozenset(int(j) for j in task_set)
        table = self.table(agent, tasks)
        return value_of(table, AgentState(0.0, 0, tasks))

    def marginal_gain(self, agent: AgentSpec, base: Iterable[int], task_id: int) -> float:
        """V(base + task) - V(base); counts one evaluation for the agent."""
        base = frozenset(int(j) for j in base)
        if task_id in base:
            raise ValueError(f"task {task_id} is already in the base set")
        self.evaluations[agent.id] = self.evaluations.get(agent.id, 0) + 1
        with_task = self.set_value(agent, base | {task_id})
        without = self.set_value(agent, base)
        return with_task - without


def deterministic_route_reward(
    inst: MissionInstance,
    agent: AgentSpec,
    allocated: Iterable[int],
    speeds: np.ndarray,
    due_slack: float = 0.0,
) -> np.ndarray:
    """Clairvoyant optimum per scenario row of the (R, L, L) `speeds`.

    Continuous time, no quadrature, no grid; legs follow `Legs.fly`. Serving
    order is optimized exactly by branching over which remaining task to serve
    next, for all rows at once; skipping is implicit (unserved tasks are simply
    never visited). `due_slack` tightens every due time, which turns the
    result into the grid DP's lower bracket. Returns one reward per row.
    """
    legs = Legs.of(inst, agent, speeds)
    legs = replace(legs, due=legs.due - due_slack)
    prices = [0.0] + [t.price for t in inst.tasks]

    def best(left: tuple[int, ...], here: int, t: np.ndarray) -> np.ndarray:
        out = np.zeros(t.shape)
        for i, to in enumerate(left):
            ok, after = legs.fly(t, slice(None), here, to)
            rest = best(left[:i] + left[i + 1 :], to, after)
            got = np.where(ok, prices[to] + rest, rest)
            out = np.where(got > out, got, out)
        return out

    places = tuple(j + 1 for j in sorted(set(int(j) for j in allocated)))
    return best(places, 0, np.zeros(speeds.shape[0]))
