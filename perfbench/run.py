"""Run one benchmark workload for one seed and print every metric with its unit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of the workload runs in a fresh interpreter (``child.py``)
that imports ``stablerings.cli`` from ``src/`` and calls ``cli.main(argv)``
once per command, one command after another (a closed loop with one
client).  Repetitions start while they fit in ``--seconds``, and a run makes
at least three.

``--trace 0`` measures the end-to-end metrics with tracing off, every time
at the machine's reference speed (``calib.py``).  ``--trace 1``
makes the traced run instead: the same repetition untraced, then with every
public function of every layer wrapped, then untraced again, and reports
per-layer self times and counts plus the tracing overhead.  The sweep is traced at one job, because
spans in pool workers are not collected.

Every command's exit code and report are checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import tracer
from workloads import WORKLOADS, verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SPAWNS = 4  # import-only interpreters before each repetition, for the setup_s median
CHILD_TIMEOUT_S = 150
MIN_REPS = 3  # the median then outvotes one repetition hit by a slow spell of the machine
TAIL_SAMPLES = 200  # commands per repetition that put ten samples above the 95th percentile

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
}
# per-layer self times, summed over the traced repetition
LAYER_SPANS = (
    "cli.build_parser",
    "cli.emit",
    "numsg.from_generators",
    "numsg.enumerate_semigroups",
    "relideal.end_semigroup",
    "relideal.blowup_tower",
    "relideal.ideal_sum",
    "relideal.is_stable",
    "relideal.enumerate_normalized_ideals",
    "ringlab.stable_ring_report",
    "ringlab.sally_check",
    "ringlab.two_generator_check",
    "ringlab.multiplicity_via_hilbert",
    "ringlab.is_monomial_quadratic",
    "quadalg.algebra_from_table",
    "quadalg.is_quadratic_over_base",
    "quadalg.maximal_ideal_count",
    "quadalg.classify_handelman",
    "idealization.series_mul",
    "idealization.reduce_rows",
    "idealization.is_stable_ideal",
    "idealization.hilbert_length",
    "idealization.make_ring",
)
LAYER_CALLS = ("relideal.ideal_sum", "idealization.series_mul", "idealization.ideal_from_generators")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    """Spawns the fresh interpreters of one benchmark run inside ``work``."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.spawned = 0

    def spawn(self, argvs: list, trace: str = "none", spans: Path | None = None) -> dict:
        self.spawned += 1
        spec_path = self.work / f"spec{self.spawned}.json"
        out_path = self.work / f"out{self.spawned}.json"
        spec = {"root": str(ROOT), "ops": argvs, "trace": trace, "out": str(out_path), "spans": spans and str(spans)}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,  # one process group: pool workers die with it
        )
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child failed:\n{err.decode(errors='replace')}")
        res = json.loads(out_path.read_text(encoding="utf-8"))
        res["setup_s"] = res["ready"] - spawned_at
        return res


def check_ops(ops, res: dict, failures: list) -> None:
    for op, out in zip(ops, res["ops"], strict=True):
        reason = verify(op, out["rc"], out["stdout"])
        if reason is not None:
            failures.append(f"{' '.join(op.argv)}: {reason} {out['stderr'][-400:]}".strip())


def timed_setup(runner: Runner) -> float:
    """One import-only spawn's set-up time, scaled by a reference spawn on each side."""
    before = calib.reference_spawn()
    setup = runner.spawn([])["setup_s"]
    return setup * 2 * calib.REF_SPAWN_S / (before + calib.reference_spawn())


def measure(w, seed: int, seconds: float, runner: Runner, jobs: int):
    """The end-to-end metrics, tracing off, each time at the reference speed."""
    start = time.monotonic()
    runner.spawn([])  # untimed: compiles bytecode and warms the file cache
    ops = w.make(seed, str(runner.work), jobs)
    setups, reps, failures, attempted = [], [], [], 0
    slowest = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - start + slowest <= seconds:
        began = time.monotonic()
        # spread over the run, so the median follows the same stretch of machine time
        setups += [timed_setup(runner) for _ in range(SETUP_SPAWNS)]
        res = runner.spawn([op.argv for op in ops])
        slowest = max(slowest, time.monotonic() - began)
        check_ops(ops, res, failures)
        attempted += len(ops)
        reps.append(res)
    workers = jobs if w.sweep and jobs > 1 else 0

    def per_op_medians(key: str) -> list[float]:
        # each command's median over the repetitions: a slow spell of the
        # machine that hits one command in one repetition is outvoted
        return [statistics.median(column) for column in zip(*([o[key] for o in r["ops"]] for r in reps))]

    latencies = per_op_medians("ref_s")
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": sum(latencies),
        "cpu_s": sum(per_op_medians("ref_cpu_s")),
        # main process plus each pool worker at the largest worker's peak
        "peak_rss_mb": statistics.median((r["maxrss_kb"] + workers * r["child_maxrss_kb"]) / 1024 for r in reps),
    }
    if len(latencies) >= TAIL_SAMPLES:
        metrics["query_p50_ms"] = 1000 * percentile(latencies, 0.50)
        metrics["query_p95_ms"] = 1000 * percentile(latencies, 0.95)
    else:
        # too few commands for percentiles (and they may differ in kind):
        # both report the mean command latency of a repetition
        per_command = 1000 * metrics["run_s"] / len(ops)
        metrics["query_p50_ms"] = metrics["query_p95_ms"] = per_command
    passes = [p for r in reps for p in r["passes"]]
    notes = {
        "repetitions": len(reps),
        "setup samples": len(setups),
        "query samples (commands, each its median over the repetitions)": len(latencies),
        "speed passes, this process": len(passes),
        "speed passes, pool workers": sum(r["forked_passes"] for r in reps),
        f"speed pass median ms (reference {1000 * calib.REF_S:g})": 1000 * statistics.median(passes),
        "wall run_s, unscaled": sum(per_op_medians("s")),
        "failed_ratio": len(failures) / attempted,
    }
    return metrics, END_TO_END, attempted, failures, notes


def traced(w, seed: int, runner: Runner, jobs: int):
    """The per-layer metrics from a traced repetition between two untraced ones.

    The untraced repetitions bracket the traced one, so their mean cancels a
    steady drift of the machine's speed out of the tracing overhead.
    """
    trace_jobs = 1 if w.sweep else jobs
    ops = w.make(seed, str(runner.work), trace_jobs)
    argvs = [op.argv for op in ops]
    failures: list[str] = []
    spans_path = WORK / f"spans-{w.name}.json"
    outer_paths = [runner.work / "outer-before.json", runner.work / "outer-after.json"]

    before = runner.spawn(argvs, trace="outer", spans=outer_paths[0])
    full = runner.spawn(argvs, trace="all", spans=spans_path)
    bases = [before, runner.spawn(argvs, trace="outer", spans=outer_paths[1])]
    for res in bases + [full]:
        check_ops(ops, res, failures)
    attempted = 3 * len(ops)
    outers, trace = [tracer.load(p) for p in outer_paths], tracer.load(spans_path)
    own = tracer.self_times(trace)
    calls, counts = trace["calls"], trace["counts"]

    metrics = {f"{name}_s": own.get(name, 0.0) for name in LAYER_SPANS}
    metrics.update({f"{name}_calls": calls.get(name, 0) for name in LAYER_CALLS})
    ideals = counts.get("relideal.normalized_ideals", 0)
    metrics["relideal.normalized_ideals"] = ideals
    metrics["ringlab.report_us_per_ideal"] = 1e6 * own.get("ringlab.stable_ring_report", 0.0) / ideals if ideals else 0.0
    verdicts = counts.get("idealization.verdicts", 0)
    metrics["idealization.conclusive_ratio"] = counts.get("idealization.conclusive", 0) / verdicts if verdicts else 0.0

    serial = statistics.mean(sum(tracer.durations(o, "sweep.run_sweep"), 0.0) for o in outers)
    metrics["sweep.serial_s"] = serial
    tasks = [d for o in outers for d in tracer.durations(o, "sweep.analyze_semigroup")]
    metrics["sweep.task_max_s"] = max(tasks, default=0.0)
    pool = 0.0
    if w.sweep:
        pool_ops = w.make(seed, str(runner.work), jobs)
        pool_path = runner.work / "pool.json"
        res = runner.spawn([op.argv for op in pool_ops], trace="outer", spans=pool_path)
        check_ops(pool_ops, res, failures)
        attempted += len(pool_ops)
        pool = sum(tracer.durations(tracer.load(pool_path), "sweep.run_sweep"), 0.0)
    metrics["sweep.pool_s"] = pool
    metrics["sweep.parallel_efficiency"] = serial / (jobs * pool) if pool else 0.0
    metrics["trace.overhead_ratio"] = full["wall_s"] / statistics.mean(b["wall_s"] for b in bases)

    units = {name: "s" for name in metrics if name.endswith("_s")}
    units.update({name: "count" for name in metrics if name.endswith("_calls")})
    units.update(
        {
            "relideal.normalized_ideals": "count",
            "ringlab.report_us_per_ideal": "us",
            "idealization.conclusive_ratio": "ratio",
            "sweep.parallel_efficiency": "ratio",
            "trace.overhead_ratio": "ratio",
        }
    )
    # the JSON result must hold every per-layer metric, so these read 0
    unreached = [f"{n}_s" for n in LAYER_SPANS if n not in own]
    unreached += [f"{n}_calls" for n in LAYER_CALLS if n not in calls]
    if not ideals:
        unreached += ["relideal.normalized_ideals", "ringlab.report_us_per_ideal"]
    if not verdicts:
        unreached.append("idealization.conclusive_ratio")
    if not w.sweep:
        unreached += ["sweep.serial_s", "sweep.task_max_s", "sweep.pool_s", "sweep.parallel_efficiency"]
    notes = {
        "not reached by this workload (reported as 0)": ", ".join(unreached) or "none",
        "traced jobs": trace_jobs,
        "spans": len(trace["spans"]),
        "spans file": str(spans_path.relative_to(ROOT)),
        "failed_ratio": len(failures) / attempted,
    }
    return metrics, units, attempted, failures, notes


def machine_facts() -> dict:
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        rev = proc.stdout.strip() or rev
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git revision": rev,
        "src lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stablerings" / "cli.py").is_file():
        print(f"error: no stablerings source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    facts = machine_facts()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        runner = Runner(work)
        if args.trace:
            metrics, units, attempted, failures, notes = traced(w, args.seed, runner, facts["nproc"])
        else:
            metrics, units, attempted, failures, notes = measure(
                w, args.seed, args.seconds, runner, facts["nproc"]
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    for key, value in {**facts, **notes}.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
