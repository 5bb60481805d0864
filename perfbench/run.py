"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 perfbench/run.py --workload validate-n8 --seed 1 --seconds 15 --trace 0

Run it from the repository root. The program is imported from `src/` of the
same checkout, with `MDPAUCTION_WORKERS` ignored (serial).

--trace 0 measures the end-to-end metrics. Timings are paired with the
reference program, `reference/mdpauction`: a frozen copy of the program as it
was when the benchmark was defined. On a shared 2-core machine the CPU speed
drifts by 20-30% within seconds and over minutes, so raw times are not steady;
a ratio to the reference measured on the same CPU at the same time is.

Setup (imports, generating and writing the inputs) runs in fresh processes,
alternating between the program and the reference, SETUP_PAIRS pairs of them.
setup_s is the median setup ratio times REFERENCE_SETUP_S, the reference's
median setup time on the machine where the benchmark was defined: the set-up
time in seconds at that machine's speed.

Then missions run until `--seconds` have passed and at least the workload's
reward prefix is done. The reference runs the same mission in a worker
process at the same time, both pinned to one CPU, so the scheduler interleaves
them finely and both see the same speed; each side's time is its process CPU
time for the mission (the program is serial), and mission_rel.p50 is the
median current-to-reference ratio. Back-to-back pairs of whole missions had a
per-pair spread of about 19%; these pairs have about 1%. Sharing the CPU
slows both sides alike; when one side finishes first, the other runs the rest
alone and faster, so the ratio understates a change a little, never inflates it.

Every mission's output is checked: conservation, the reward identity, and
byte identity with the reference's output and with the same mission's earlier
run. A mission that fails a check counts in `failed`.

--trace 1 runs the reward prefix twice, untraced and traced in turn, and
reports per-layer self times and program-reported counts from the traced
runs, plus trace.overhead_s (traced minus untraced wall time). Mission 0 runs
once more traced, and its counts must repeat exactly; the summed counts are
also compared with the last traced run of the same code, workload and seed.
A count that does not repeat makes the result not correct.

Inputs depend only on --seed (and --size; "tiny" is the smoke-check size).
Scratch files go to .bench_work/, result and span files to .bench_out/.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORKLOADS = ("validate-n8", "sweep-small", "beyond-cap")
# (unit, better) of every end-to-end metric.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "mission_rel.p50": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "reward_mean.auction": ("reward", "higher"),
}
# Setup probe pairs per run, by --size.
SETUP_PAIRS = {"full": 7, "tiny": 1}
# Median setup time of the reference program, in seconds, measured with
# perfbench/run.py's probes on a 2-vCPU Intel Xeon Linux VM (Python 3.11, numpy 2.4)
# where the benchmark was defined; it only scales the setup ratio.
REFERENCE_SETUP_S = {"validate-n8": 0.221, "sweep-small": 0.304, "beyond-cap": 0.317}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    # internal: the worker processes this script starts
    p.add_argument("--program", choices=("src", "reference"), default="src",
                   help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--mission-worker", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program(where: Path):
    """Import mdpauction from `where`, or exit 2 without a result."""
    if not (where / "mdpauction" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program at {where}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(where))
    os.environ.pop("MDPAUCTION_WORKERS", None)
    import mdpauction

    if where.resolve() not in Path(mdpauction.__file__).resolve().parents:
        sys.stderr.write(f"error: imported mdpauction from {mdpauction.__file__}\n")
        sys.exit(2)


def tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, numpy_version) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "commit": commit, "src_sha256": tree_sha256(SRC), "bench_sha256": tree_sha256(HERE),
    }


class Checker:
    """Runs missions and keeps the failures, one entry per failed mission run."""

    def __init__(self):
        self.seen: dict[int, str] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, wl, mission, clock=time.perf_counter):
        """Run one mission: (seconds on `clock`, outcome or None, problems found so far)."""
        self.attempted += 1
        start = clock()
        try:
            out = wl.run(mission)
        except Exception:  # noqa: BLE001 - a crashed mission is a failed mission
            return clock() - start, None, [traceback.format_exc()]
        elapsed = clock() - start
        problems = list(out.problems)
        if self.seen.setdefault(mission.index, out.digest) != out.digest:
            problems.append("output bytes differ from this mission's earlier run")
        return elapsed, out, problems

    def record(self, mission, problems) -> None:
        if problems:
            self.failures.append(f"mission {mission.index}: " + "; ".join(problems))


class Reference:
    """The reference program in a worker process that runs one mission per request."""

    def __init__(self, args, workdir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
             "--program", "reference", "--mission-worker", str(workdir)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference worker did not start")

    def start(self, index: int) -> None:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()

    def result(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_reference(wl) -> int:
    """Worker loop: read mission indices, run them, answer with CPU time and digest."""
    missions = wl.setup()
    reply = sys.stdout
    print("ready", file=reply, flush=True)
    for line in sys.stdin:
        mission = missions[int(line)]
        start = time.process_time()
        try:
            out = wl.run(mission)
            answer = {"cpu_s": time.process_time() - start, "digest": out.digest,
                      "problems": out.problems}
        except Exception:  # noqa: BLE001 - reported to the parent as a failed mission
            answer = {"cpu_s": time.process_time() - start, "digest": "",
                      "problems": [traceback.format_exc()]}
        print(json.dumps(answer), file=reply, flush=True)
    return 0


def tail_percentile(times: list[float]) -> dict:
    """The highest of p99/p95/p90 with at least ten samples beyond it, if any."""
    for p in (99, 95, 90):
        if len(times) * (100 - p) / 100 >= 10:
            return {f"mission_cpu_s.p{p}": statistics.quantiles(times, n=100)[p - 1]}
    return {}


def setup_probes(args, workdir: Path) -> dict[str, list[float]]:
    """Setup wall times of the program and the reference, in alternating fresh processes."""
    probes = {"src": [], "reference": []}
    for k in range(SETUP_PAIRS[args.size]):
        for program in ("src", "reference")[::1 if k % 2 == 0 else -1]:
            probe_dir = workdir / f"probe-{program}-{k}"
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
                 "--program", program, "--setup-probe", str(probe_dir)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            probes[program].append(time.perf_counter() - start)
            shutil.rmtree(probe_dir, ignore_errors=True)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return probes


def measure(args, wl, missions, checker, workdir) -> tuple[dict, dict]:
    # The worker inherits this: both sides of a pair run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probes = setup_probes(args, workdir)
    reference = Reference(args, workdir / "reference")
    times, ref_times, rewards = [], [], {}
    i = 0
    try:
        # No untimed warm-up: both sides run their first mission cold, side by side.
        loop_start = time.perf_counter()
        while (i < wl.reward_prefix or i % wl.group
               or time.perf_counter() - loop_start < args.seconds):
            mission = missions[i % len(missions)]
            reference.start(mission.index)
            elapsed, out, problems = checker.run(wl, mission, clock=time.process_time)
            ref = reference.result()
            problems += [f"reference: {p}" for p in ref["problems"]]
            if out is not None and out.digest != ref["digest"]:
                problems.append("output bytes differ from the reference program's")
            checker.record(mission, problems)
            times.append(elapsed)
            ref_times.append(ref["cpu_s"])
            if out is not None and i < wl.reward_prefix:
                for method, value in out.rewards.items():
                    rewards.setdefault(method, []).append(value)
            i += 1
    finally:
        reference.close()
    loop_s = time.perf_counter() - loop_start

    reward_means = {f"reward_mean.{m}": statistics.fmean(v) for m, v in rewards.items()}
    setup_rel = statistics.median(s / r for s, r in zip(probes["src"], probes["reference"]))
    metrics = {
        "setup_s": setup_rel * REFERENCE_SETUP_S[args.workload],
        "mission_rel.p50": statistics.median(t / r for t, r in zip(times, ref_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # 0.0 only when every prefix mission failed, and then the run is not correct
        "reward_mean.auction": reward_means.get("reward_mean.auction", 0.0),
    }
    detail = {
        "mission_cpu_s.p50": statistics.median(times), **tail_percentile(times),
        "missions_per_cpu_s": len(times) / sum(times),
        # a sum over a few pairs: one slow pair moves it, so it is not gated
        "throughput_rel": sum(ref_times) / sum(times),
        "reference_mission_cpu_s.p50": statistics.median(ref_times),
        "samples": len(times), "distinct_missions": min(i, len(missions)),
        "reward_prefix": wl.reward_prefix, "loop_s": loop_s,
        "setup_rel.p50": setup_rel, "setup_probes_s": probes["src"],
        "reference_setup_probes_s": probes["reference"], **reward_means,
        "mission_cpu_s": times, "reference_mission_cpu_s": ref_times,
    }
    return metrics, detail


def measure_traced(wl, checker, tracer, tracing) -> tuple[dict, dict]:
    def run(mission, trace_as=None):
        if trace_as is None:
            elapsed, _, problems = checker.run(wl, mission)
        else:
            tracer.install()
            tracer.mission = trace_as
            try:
                elapsed, _, problems = checker.run(wl, mission)
            finally:
                tracer.uninstall()
        checker.record(mission, problems)
        return elapsed

    tracer.install()
    tracer.mission = "setup"
    try:
        missions = wl.setup()
    finally:
        tracer.uninstall()
    plain, traced = [], []
    for i in range(wl.reward_prefix):
        # alternate which run goes first, so warm caches favour neither side
        if i % 2:
            traced.append(run(missions[i], trace_as=i))
            plain.append(run(missions[i]))
        else:
            plain.append(run(missions[i]))
            traced.append(run(missions[i], trace_as=i))
    run(missions[0], trace_as="repeat")

    prefix = list(range(wl.reward_prefix))
    metrics = tracing.layer_metrics(tracer.self_times(set(prefix) | {"setup"}),
                                    tracer.totals(prefix))
    metrics["trace.overhead_s"] = sum(traced) - sum(plain)
    again = tracing.layer_metrics(tracer.self_times({"repeat"}), tracer.totals(["repeat"]))
    first = tracing.layer_metrics(tracer.self_times({0}), tracer.totals([0]))
    unstable = [f"{k} (mission 0 rerun: {first[k]} vs {again[k]})"
                for k in tracing.COUNT_METRICS if first[k] != again[k]]
    return metrics, {"unstable_counts": unstable, "traced_s": sum(traced),
                     "untraced_s": sum(plain)}


def check_counts_across_runs(args, prov, metrics, outdir, count_metrics) -> list[str]:
    """Compare count metrics with the last traced run of the same code and inputs."""
    code = prov["src_sha256"][:16] + "-" + prov["bench_sha256"][:16]
    path = outdir / f"counts-{args.workload}-{args.size}-seed{args.seed}-{code}.json"
    counts = {k: metrics[k] for k in count_metrics}
    if path.exists():
        before = json.loads(path.read_text())
        return [f"{k} (previous run: {before.get(k)} vs {v})"
                for k, v in counts.items() if before.get(k) != v]
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program(REFERENCE if args.program == "reference" else SRC)
    import numpy
    import workloads

    if args.setup_probe or args.mission_worker:
        workdir = Path(args.setup_probe or args.mission_worker)
        wl = workloads.make(args.workload, args.seed, args.size, workdir)
        try:
            if args.mission_worker:
                return serve_reference(wl)
            wl.setup()
            return 0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.size}-seed{args.seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    prov = provenance(args, numpy.__version__)
    checker = Checker()
    wl = workloads.make(args.workload, args.seed, args.size, workdir)
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            metrics, detail = measure_traced(wl, checker, tracer, tracing)
            detail["unstable_counts"] += check_counts_across_runs(
                args, prov, metrics, outdir, tracing.COUNT_METRICS)
            detail["layer_map"] = tracing.LAYER_MAP
            units = tracing.PER_LAYER
            tracer.write(outdir / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl")
        else:
            missions = wl.setup()
            detail = {"setup_self_s": time.perf_counter() - T0}
            metrics, more = measure(args, wl, missions, checker, workdir)
            detail.update(more)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checker.failures)
    unstable = detail.get("unstable_counts", [])
    prov["missions"] = checker.attempted
    detail["failed_ratio"] = failed / checker.attempted
    report = {"provenance": prov, "metrics": metrics, "detail": detail,
              "failures": checker.failures[:20]}
    (outdir / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    for name, value in metrics.items():
        print(f"{name:28s} {value!r:>24} {units[name][0]}")
    for name, value in detail.items():
        if name not in ("layer_map", "mission_cpu_s", "reference_mission_cpu_s"):
            print(f"{name:28s} {json.dumps(value)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for failure in checker.failures[:5]:
        print("FAILED " + failure.strip().replace("\n", " | "))
    for count in unstable:
        print("UNSTABLE " + count)
    print(json.dumps({
        "correct": failed == 0 and not unstable,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
