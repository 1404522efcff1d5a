"""Steadiness check: two sets of benchmark runs of the same code must agree.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]

For each workload it makes two sets of ``--runs`` runs of ``run.py`` with
tracing off, each run with its own seed (set 1 takes seeds 1..runs, set 2
the next ``--runs`` seeds), alternating between the sets.  For every end-to-end metric in
BENCHMARK.json it prints each set's median and quartiles, the spread
(quartile distance over median) and the change of the second median against
the first, and flags a metric whose spread exceeds its bound or whose
second median differs from the first, in either direction, by more than the
bound.  Every run must also report
``correct`` with no failed operation.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    flagged = []
    log = {}
    for name in workloads:
        sets = [[], []]
        # the sets alternate run by run, so a slow drift of the machine
        # reaches both alike instead of passing for a change between them
        for i in range(args.runs):
            for s, results in enumerate(sets):
                seed = 1 + s * args.runs + i
                began = time.monotonic()
                res = one_run(name, seed, bench["run_seconds"])
                results.append(res)
                print(f"{name} set {s + 1} seed {seed}: {time.monotonic() - began:.1f} s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
                if not res["correct"] or res["failed"]:
                    flagged.append(f"{name} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
        log[name] = sets
        print(f"\n{name}: {'metric':14s} {'set':>3s} {'q1':>10s} {'median':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
        for m in metrics:
            meds = []
            for s, results in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                mark = ""
                if spread > m["bound"]:
                    mark = "  SPREAD"
                    flagged.append(f"{name} {m['name']} set {s + 1}: spread {spread:.3f} > bound {m['bound']}")
                elif spread > m["bound"] / 3:
                    mark = "  (above a third of the bound)"
                print(f"  {m['name']:20s} {s + 1:3d} {q1:10.4f} {med:10.4f} {q3:10.4f} {spread:7.3f} {m['bound']:6.2f}{mark}")
            change = meds[1] / meds[0] - 1
            mark = ""
            if abs(change) > m["bound"]:
                mark = "  REPEAT"
                flagged.append(f"{name} {m['name']}: second median off by {change:+.3f}, bound {m['bound']}")
            print(f"  {m['name']:20s} second median vs first: {change:+.3f}{mark}")
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(log), encoding="utf-8")
    print("\nflagged:" if flagged else "\nall metrics repeat within their bounds")
    for f in flagged:
        print(f"  {f}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
