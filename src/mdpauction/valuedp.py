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


@dataclass
class ValueTable:
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
) -> ValueTable:
    """Solve the subset DP for `allocated` and return its value table.

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
    if not (grid_step > 0.0 and math.isfinite(grid_step)):
        raise ValueError(f"grid_step must be finite and > 0, got {grid_step}")
    if not math.isfinite(inst.horizon / grid_step):
        raise ValueError(f"grid_step {grid_step} splits horizon {inst.horizon} into "
                         f"infinitely many time bins")
    task_ids = tuple(sorted(set(int(j) for j in allocated)))
    for j in task_ids:
        if not (0 <= j < inst.n_tasks):
            raise ValueError(f"unknown task id {j}")
    k = len(task_ids)
    if k > SUBSET_CAP:
        raise ValueError(f"|allocated| = {k} exceeds the subset cap {SUBSET_CAP}")
    if quad is None:
        quad = build_quadrature(agent.speed, 8)

    delta = float(grid_step)
    T = int(math.floor(inst.horizon / delta))  # bins 0..T are within the horizon
    n_bins = T + 1
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
    """Fill `values` and `policy` at (masks, locs, bins), whose children are all solved.

    A NaN candidate never wins the strict `>`, so it would be dropped without
    an error: every input (weights, prices, children) must be finite.
    """
    k, nq = child_bin.shape[:2]
    child_bin, collected = child_bin[:, :, locs, bins], collected[:, :, locs, bins]
    best = np.full((masks.size,) + child_bin.shape[2:], -np.inf)
    code = np.full(best.shape, 2 * k, dtype=np.int16)
    acc = np.empty_like(best)
    gain = np.empty_like(best)

    def offer(row, at, row_code):
        # strict > keeps the earlier candidate on ties, as argmax does
        held = best[at]
        better = row > held
        np.copyto(held, row, where=better)
        best[at] = held
        codes = code[at]
        np.copyto(codes, row_code, where=better)
        code[at] = codes

    # members[a]: positions in `masks` of the remaining-sets that hold task a
    members = [np.flatnonzero(masks & (1 << a)) for a in range(k)]
    for a, at in enumerate(members):  # Serve rows
        if at.size:
            child = values[masks[at] ^ (1 << a), 1 + a]
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
    for a, at in enumerate(members):  # Skip rows
        if at.size:
            offer(values[masks[at] ^ (1 << a), locs, bins], at, k + a)
    finish = best < 0.0  # Finish (worth 0.0) comes last, so it needs strictly more
    best[finish] = 0.0
    code[finish] = 2 * k
    values[masks, locs, bins] = best
    policy[masks, locs, bins] = code


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
    return _solved(table.values[mask, loc, b])


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
class SolverStats:
    """A `ValueSolver`'s deterministic work counters.

    `tables_built` counts `solve_value` calls, re-solves included;
    `cells_computed` counts the cells their layer passes solved (not the cells
    allocated).
    """

    tables_built: int = 0
    cache_hits: int = 0
    cells_computed: int = 0


class ValueSolver:
    """Shared value-table cache plus marginal-gain instrumentation.

    One table over the full task set answers every subset query (the recursion
    never looks outside `remaining`), so marginal gains V(b + j) - V(b) are two
    lookups. Every agent shares the mission's speed model and so the one
    quadrature rule `quad`; tables are keyed by (start, ground set), so agents
    that differ only in id or capacity share one solve. No agent's bundle
    outgrows its capacity, so a table is solved only through the largest
    capacity among the agents that share its start, and only on the cells they
    can read (`solve_value`'s `layers`); a query for a larger set re-solves the
    table through its full set. `evaluations` counts marginals per agent,
    which is the score accounting the coordination layer reports; `stats`
    counts the solver's work.
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
        # keyed by (start, ground set)
        self._tables: dict[tuple, ValueTable] = {}
        # the layer bound per start: the largest capacity of the agents there
        self._layers: dict[Location, int] = {}
        for a in inst.agents:
            self._layers[a.start] = max(self._layers.get(a.start, 0), a.capacity)

    @property
    def total_evaluations(self) -> int:
        return sum(self.evaluations.values())

    def table(self, agent: AgentSpec, allocated: Iterable[int] = ()) -> ValueTable:
        """A table covering `allocated`, solved at least through its size.

        The ground set is the full task set when it fits the cap, else
        `allocated`. The cached table serves when it is solved far enough;
        otherwise `solve_value` solves one, through the start's layer bound
        when `allocated` fits within it and through the full ground set when
        not. It replaces the cached table, which is dropped before the solve so
        that the solver never holds two tables for one key.
        """
        allocated = set(int(j) for j in allocated)
        if self.instance.n_tasks <= SUBSET_CAP:
            ground = tuple(range(self.instance.n_tasks))
        else:
            ground = tuple(sorted(allocated))
        key = (agent.start, ground)
        # ids outside the ground set are refused by the table's readers; they
        # must not make a dense table look short of layers
        needed = min(len(allocated), len(ground))
        tab = self._tables.get(key)
        if tab is not None and needed <= tab.solved:
            self.stats.cache_hits += 1
            return tab
        if tab is not None:
            del self._tables[key], tab
        bound = self._layers.get(agent.start, len(ground))
        tab = solve_value(
            self.instance,
            agent,
            ground,
            quad=self.quad,
            grid_step=self.grid_step,
            layers=bound if needed <= bound else None,
        )
        self._tables[key] = tab
        self.stats.tables_built += 1
        self.stats.cells_computed += tab.computed
        return tab

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
