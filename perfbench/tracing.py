"""Spans and counters around calls into the program's modules, from outside.

`Tracer.install()` replaces selected public functions in every `mdpauction`
module namespace that binds them, and `uninstall()` puts the originals back,
so the program's files are never edited. Span targets get a timed span;
counter targets only read the counts the program already reports (table
shapes, `score_evaluations`, `rounds_to_converge`, rollout totals) or count
calls that are too hot to time. Spans stay in memory until `write()`.

A layer is a package module. A span's self time is its duration minus its
direct children's (calls nest on one thread), and a layer's self time is the
sum over its spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from mdpauction import auction, baselines, cli, harness, instance, rollout, valuedp

LAYERS = ("instance", "valuedp", "auction", "baselines", "rollout", "harness", "cli")

# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_MAP = {
    "valuedp.self_s": "mission_rel.p50 on validate-n8 (most) and beyond-cap; little on sweep-small",
    "valuedp.cells": "mission_rel.p50 on validate-n8 (most) and beyond-cap; little on sweep-small",
    "valuedp.cells_per_s": "mission_rel.p50 on validate-n8 (most) and beyond-cap; little on sweep-small",
    "valuedp.tables_built": "mission_rel.p50 on validate-n8 (table sharing) and beyond-cap (anchored reuse)",
    "valuedp.table_requests": "base of valuedp.table_hit_ratio",
    "valuedp.table_hit_ratio": "mission_rel.p50 on validate-n8 (table sharing) and beyond-cap (anchored reuse)",
    "valuedp.table_mb": "peak_rss_mb on beyond-cap",
    "valuedp.marginal_evals": "mission_rel.p50 on beyond-cap",
    "valuedp.policy_queries": "mission_rel.p50 and missions_per_cpu_s on sweep-small",
    "baselines.self_s": "mission_rel.p50 and missions_per_cpu_s on sweep-small",
    "baselines.path_evals": "mission_rel.p50 and missions_per_cpu_s on sweep-small",
    "baselines.path_evals_per_s": "mission_rel.p50 and missions_per_cpu_s on sweep-small",
    "rollout.self_s": "mission_rel.p50 and missions_per_cpu_s on sweep-small",
    "rollout.rollouts": "base of rollout.rollouts_per_s",
    "rollout.rollouts_per_s": "mission_rel.p50 and missions_per_cpu_s on sweep-small",
    "rollout.served": "reward_mean.auction on every workload",
    "rollout.failed": "reward_mean.auction on every workload",
    "auction.self_s": "mission_rel.p50 on sweep-small (small everywhere)",
    "auction.consensus_s": "mission_rel.p50 on sweep-small (small everywhere)",
    "auction.rounds": "mission_rel.p50 on sweep-small (small everywhere)",
    "auction.messages": "mission_rel.p50 on sweep-small (small everywhere)",
    "auction.converged_ratio": "mission_rel.p50 on sweep-small (small everywhere)",
    "instance.self_s": "setup_s, and mission_rel.p50 through load_instance on validate-n8 and beyond-cap",
    "harness.self_s": "mission_rel.p50 and missions_per_cpu_s on sweep-small",
    "cli.self_s": "mission_rel.p50 on validate-n8 and beyond-cap",
    "trace.overhead_s": "none: traced minus untraced wall time of the same missions",
}

# (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    "instance.self_s": ("s", "lower"),
    "valuedp.self_s": ("s", "lower"),
    "valuedp.cells": ("count", "lower"),
    "valuedp.cells_per_s": ("1/s", "higher"),
    "valuedp.tables_built": ("count", "lower"),
    "valuedp.table_requests": ("count", "lower"),
    "valuedp.table_hit_ratio": ("ratio", "higher"),
    "valuedp.table_mb": ("MB", "lower"),
    "valuedp.marginal_evals": ("count", "lower"),
    "valuedp.policy_queries": ("count", "lower"),
    "baselines.self_s": ("s", "lower"),
    "baselines.path_evals": ("count", "lower"),
    "baselines.path_evals_per_s": ("1/s", "higher"),
    "rollout.self_s": ("s", "lower"),
    "rollout.rollouts": ("count", "higher"),
    "rollout.rollouts_per_s": ("1/s", "higher"),
    "rollout.served": ("count", "higher"),
    "rollout.failed": ("count", "lower"),
    "auction.self_s": ("s", "lower"),
    "auction.consensus_s": ("s", "lower"),
    "auction.rounds": ("count", "lower"),
    "auction.messages": ("count", "lower"),
    "auction.converged_ratio": ("ratio", "higher"),
    "harness.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Per-layer metrics that are counts: they must repeat exactly on the same code.
COUNT_METRICS = (
    "valuedp.cells", "valuedp.tables_built", "valuedp.table_requests",
    "valuedp.table_hit_ratio", "valuedp.table_mb", "valuedp.marginal_evals",
    "valuedp.policy_queries", "baselines.path_evals", "rollout.rollouts",
    "rollout.served", "rollout.failed", "auction.rounds", "auction.messages",
    "auction.converged_ratio",
)


def _count_solve(c, table, args, kwargs):
    c["tables_built"] += 1
    c["cells"] += table.policy.size
    c["table_bytes"] += table.values.nbytes + table.policy.nbytes


def _count_allocation(evals_key):
    def count(c, allocation, args, kwargs):
        c["allocations"] += 1
        c["rounds"] += allocation.rounds_to_converge
        c["converged"] += bool(allocation.converged)
        c[evals_key] += allocation.score_evaluations
    return count


def _count_messages(c, changed, args, kwargs):
    c["messages"] += len(args[1] if len(args) > 1 else kwargs["inbox"])


def _count_reports(c, reports, args, kwargs):
    for rep in reports.values():
        c["rollouts"] += rep.rollout_count
        c["served"] += rep.served_total
        c["failed"] += rep.failed_total


# (owner, attribute, layer, on_return): a timed span around each call.
SPAN_TARGETS = (
    (cli, "main", "cli", None),
    (harness, "run_cell_instance", "harness", None),
    (instance, "generate_instance", "instance", None),
    (instance, "load_instance", "instance", None),
    (instance, "save_instance", "instance", None),
    (auction, "run_auction", "auction", _count_allocation("marginal_evals")),
    (auction, "consensus_round", "auction", _count_messages),
    (baselines, "run_cbba", "baselines", _count_allocation("path_evals")),
    (rollout, "validate", "rollout", _count_reports),
    (valuedp, "solve_value", "valuedp", _count_solve),
    (valuedp.ValueSolver, "marginal_gain", "valuedp", None),
)

# (owner, attribute, counter): calls counted, not timed.
COUNT_TARGETS = (
    (valuedp.ValueSolver, "table", "table_requests"),
    (valuedp, "next_action", "policy_queries"),
)


class Tracer:
    def __init__(self):
        # span: [layer, name, mission, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = {}
        self.mission = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _counter(self) -> Counter:
        return self.counts.setdefault(self.mission, Counter())

    def _span(self, layer, name, fn, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, name, self.mission, clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][4] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self._counter(), result, args, kwargs)
            return result
        return traced

    def _count(self, key, fn):
        def counted(*args, **kwargs):
            self._counter()[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch_everywhere(self, owner, attr, make):
        original = getattr(owner, attr)
        wrapped = make(original)
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:  # every name any package module binds it to, aliases included
            bindings = [(mod, name) for mod_name, mod in list(sys.modules.items())
                        if mod_name.split(".")[0] == "mdpauction"
                        for name, value in list(vars(mod).items()) if value is original]
        for holder, name in bindings:
            self._patches.append((holder, name, original))
            setattr(holder, name, wrapped)

    def install(self) -> None:
        for owner, attr, layer, on_return in SPAN_TARGETS:
            name = f"{getattr(owner, '__name__', owner)}.{attr}".split("mdpauction.")[-1]
            self._patch_everywhere(
                owner, attr, lambda fn, l=layer, n=name, r=on_return: self._span(l, n, fn, r))
        for owner, attr, key in COUNT_TARGETS:
            self._patch_everywhere(owner, attr, lambda fn, k=key: self._count(k, fn))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def self_times(self, missions) -> dict[str, float]:
        """Self seconds per layer (and per solve_value kernel) over `missions`."""
        child = [0.0] * len(self.spans)
        for layer, name, mission, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        out["consensus"] = out["solve_value"] = 0.0
        for (layer, name, mission, start, end, parent), inner in zip(self.spans, child):
            if mission not in missions:
                continue
            own = end - start - inner
            out[layer] += own
            if name.endswith("consensus_round"):
                out["consensus"] += own
            elif name.endswith("solve_value"):
                out["solve_value"] += own
        return out

    def totals(self, missions) -> Counter:
        total = Counter()
        for mission in missions:
            total.update(self.counts.get(mission, Counter()))
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, mission, start, end, parent in self.spans:
                fh.write(json.dumps({"layer": layer, "name": name, "mission": mission,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(selfs: dict[str, float], c: Counter) -> dict[str, float]:
    """The per-layer metrics from self times and summed counts."""
    allocations = c["allocations"]
    return {
        "instance.self_s": selfs["instance"],
        "valuedp.self_s": selfs["valuedp"],
        "valuedp.cells": c["cells"],
        "valuedp.cells_per_s": _ratio(c["cells"], selfs["solve_value"]),
        "valuedp.tables_built": c["tables_built"],
        "valuedp.table_requests": c["table_requests"],
        "valuedp.table_hit_ratio": _ratio(c["table_requests"] - c["tables_built"],
                                          c["table_requests"]),
        "valuedp.table_mb": c["table_bytes"] / 1e6,
        "valuedp.marginal_evals": c["marginal_evals"],
        "valuedp.policy_queries": c["policy_queries"],
        "baselines.self_s": selfs["baselines"],
        "baselines.path_evals": c["path_evals"],
        "baselines.path_evals_per_s": _ratio(c["path_evals"], selfs["baselines"]),
        "rollout.self_s": selfs["rollout"],
        "rollout.rollouts": c["rollouts"],
        "rollout.rollouts_per_s": _ratio(c["rollouts"], selfs["rollout"]),
        "rollout.served": c["served"],
        "rollout.failed": c["failed"],
        "auction.self_s": selfs["auction"],
        "auction.consensus_s": selfs["consensus"],
        "auction.rounds": c["rounds"],
        "auction.messages": c["messages"],
        "auction.converged_ratio": _ratio(c["converged"], allocations),
        "harness.self_s": selfs["harness"],
        "cli.self_s": selfs["cli"],
    }
