"""Command-line front end.

Subcommands: gen, solve, validate, bench, check. All output except wall-time
columns is deterministic for a fixed seed; floats print through repr so reruns
compare byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import sys
from pathlib import Path

from .auction import TOPOLOGIES, NetworkModel
from .baselines import RobustConfig
from .harness import (
    METHODS,
    bench_complexity,
    check_monotonicity_V,
    convergence_study,
    csv_text,
    derive_seed,
    format_float,
    optimality_study,
    run_method,
    run_mission,
    submodularity_study,
)
from .instance import (
    GenerationConfig,
    InstanceFormatError,
    generate_instance,
    load_instance,
    save_instance,
    serialize_instance,
)
from .rollout import RolloutReport

def _non_negative_int(text: str) -> int:
    """argparse type for --seed: a bad value exits 2 with the flag named."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _task_counts(text: str) -> tuple[int, ...]:
    """argparse type for --dims: comma-separated task counts, blank entries skipped."""
    try:
        return tuple(int(d) for d in text.split(",") if d.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value in {text!r}") from None


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    cfg = GenerationConfig(
        n_tasks=args.n,
        n_agents=args.m,
        sigma_v_sq=args.sigma,
        seed=args.seed,
        capacity=args.capacity,
    )
    if args.count == 1:
        inst = generate_instance(cfg)
        if args.out:
            save_instance(inst, args.out)
        else:
            sys.stdout.write(serialize_instance(inst) + "\n")
        return 0
    if not args.out:
        raise ValueError("--out is required when --count > 1")
    stem = Path(args.out)
    for i in range(args.count):
        inst = generate_instance(dataclasses.replace(cfg, seed=derive_seed(args.seed, 1, i)))
        save_instance(inst, stem.with_name(f"{stem.stem}-{i:04d}{stem.suffix}"))
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    network = NetworkModel.from_name(args.topology, inst.n_agents, args.seed)
    allocation, _, _ = run_method(
        inst, args.method, network, RobustConfig(args.samples, args.seed),
        args.quadrature, args.grid, args.wrap,
    )
    out = io.StringIO()
    out.write(f"method: {allocation.method}\n")
    for agent in inst.agents:
        tasks = sorted(allocation.assignment.get(agent.id, []))
        path = list(allocation.paths.get(agent.id, []))
        value = allocation.per_agent_value.get(agent.id, 0.0)
        out.write(
            f"agent {agent.id}: tasks {tasks} path {path} value {format_float(value)}\n"
        )
    out.write(f"unassigned: {sorted(allocation.unassigned)}\n")
    out.write(f"total value: {format_float(allocation.total_value)}\n")
    out.write(f"expected reward: {format_float(allocation.expected_reward(inst))}\n")
    out.write(
        f"rounds: {allocation.rounds_to_converge} "
        f"converged: {allocation.converged} "
        f"evaluations: {allocation.score_evaluations}\n"
    )
    sys.stdout.write(out.getvalue())
    if args.out:
        import json

        doc = {
            "method": allocation.method,
            "assignment": {str(k): sorted(v) for k, v in allocation.assignment.items()},
            "paths": {str(k): list(v) for k, v in allocation.paths.items()},
            "unassigned": sorted(allocation.unassigned),
            "per_agent_value": {
                str(k): v for k, v in sorted(allocation.per_agent_value.items())
            },
            "total_value": allocation.total_value,
            "expected_reward": allocation.expected_reward(inst),
            "rounds_to_converge": allocation.rounds_to_converge,
            "converged": allocation.converged,
            "score_evaluations": allocation.score_evaluations,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_validate(args) -> int:
    if args.instance:
        inst = load_instance(args.instance)
    else:
        inst = generate_instance(
            GenerationConfig(
                n_tasks=args.n, n_agents=args.m, sigma_v_sq=args.sigma,
                seed=args.seed,
            )
        )
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError(f"--methods names no method: {args.methods!r}")
    if args.rounds < 1:
        raise ValueError("rounds must be >= 1")
    rows = run_mission(
        inst, methods, NetworkModel.from_name(args.topology, inst.n_agents, args.seed),
        RobustConfig(args.samples, args.seed), args.quadrature, args.grid, args.wrap,
        rounds=args.rounds, seed=args.seed,
    )
    for row in rows:
        sys.stdout.write(
            f"{row['method']}: expected {format_float(row['expected_reward'])} "
            f"actual {format_float(row['actual_reward_mean'])} "
            f"(std {format_float(row['actual_reward_std'])}) "
            f"finish_rate {format_float(row['finish_rate'])}\n"
        )
    if args.out:
        columns = [f.name for f in dataclasses.fields(RolloutReport)]
        Path(args.out).write_text(csv_text(rows, columns), newline="")
    return 0


def _cmd_bench(args) -> int:
    if not args.dims:
        raise ValueError("--dims names no task count")
    rows = bench_complexity(
        n_values=args.dims, n_agents=args.m, seed=args.seed,
        robust_samples=args.samples, repeats=args.repeats,
    )
    for row in rows:
        sys.stdout.write(
            f"n={row['n_tasks']} method={row['method']} "
            f"evaluations={row['score_evaluations']}\n"
        )
    if args.out:
        Path(args.out).write_text(csv_text(rows, list(rows[0])), newline="")
    return 0


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    violations = 0
    if args.property in ("submodularity", "all"):
        study = submodularity_study(count=args.trials, seed=args.seed)
        sys.stdout.write(
            f"property: submodularity screened={study['screened']} "
            f"checked={study['checked']} violations={study['violations']} "
            f"worst={format_float(study['worst'])}\n"
        )
        violations += study["violations"]
    if args.property in ("monotonicity", "all"):
        bad = 0
        checks = 0
        for i in range(args.trials):
            inst = generate_instance(
                GenerationConfig(
                    n_tasks=3, n_agents=1, sigma_v_sq=(0.0, 0.1)[i % 2],
                    seed=derive_seed(args.seed, 4, i),
                )
            )
            report = check_monotonicity_V(inst, max_set=3)
            checks += report.checks
            bad += report.violations
        sys.stdout.write(
            f"property: monotonicity checks={checks} violations={bad}\n"
        )
        violations += bad
    if args.property in ("optimality", "all"):
        rows = optimality_study(count=args.trials, seed=args.seed)
        worst = min(row["ratio"] for row in rows)
        bad = sum(1 for row in rows if row["ratio"] < 0.5 - 1e-9)
        sys.stdout.write(
            f"property: optimality instances={len(rows)} "
            f"min_ratio={format_float(worst)} violations={bad}\n"
        )
        violations += bad
    if args.property in ("convergence", "all"):
        rows = convergence_study(count=args.trials, seed=args.seed)
        bad = sum(1 for row in rows if row["rounds"] > row["bound"])
        not_converged = sum(1 for row in rows if not row["converged"])
        sys.stdout.write(
            f"property: convergence runs={len(rows)} over_bound={bad} "
            f"not_converged={not_converged}\n"
        )
        violations += bad + not_converged
    sys.stdout.write("PASS\n" if violations == 0 else "FAIL\n")
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpauction",
        description="Auction-based task allocation with MDP value bidding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance files")
    p.add_argument("--n", type=int, required=True, help="number of tasks")
    p.add_argument("--m", type=int, required=True, help="number of agents")
    p.add_argument("--sigma", type=float, default=0.1, help="speed variance")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="allocate one instance with one method")
    p.add_argument("instance", type=str)
    p.add_argument("--method", choices=METHODS, default="auction")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--quadrature", type=int, default=8)
    p.add_argument("--grid", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--wrap", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--topology", default="complete", choices=TOPOLOGIES)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="rollout study over methods")
    p.add_argument("instance", type=str, nargs="?", default=None)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--methods", type=str, default=",".join(METHODS))
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--quadrature", type=int, default=8)
    p.add_argument("--grid", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--wrap", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--topology", default="complete", choices=TOPOLOGIES)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bench", help="evaluation-count and wall-time sweep")
    p.add_argument("--dims", type=_task_counts, default="2,3,4,5",
                   help="comma-separated task counts")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check", help="property suites")
    p.add_argument("--property", default="all",
                   choices=("submodularity", "monotonicity", "optimality",
                            "convergence", "all"))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InstanceFormatError, ValueError, OSError, RuntimeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
