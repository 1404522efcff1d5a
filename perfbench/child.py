"""One fresh interpreter of a benchmark run: import the CLI, run commands, report.

Usage: python3 perfbench/child.py SPEC.json

The spec names the source tree, the argv of each command, the tracing level
(``none``, ``outer`` or ``all``) and where to write the result.  Each command
goes through ``stablerings.cli.main(argv)`` with stdout and stderr captured.
The result holds the moment the CLI finished importing (CLOCK_MONOTONIC, so
the parent can subtract its spawn time), each command's exit code, wall time
and output, its CPU time (this process plus the children it waited for, pool
workers included), the wall time of the commands, and the peak RSS of this
process and of its largest waited-for child.

Without tracing, a ``calib.Sampler`` times the machine's speed while the
commands run: one pass before the first, one every ``calib.PERIOD_S`` in this
process and in the pool workers it forks, and one after the last.  Each
command's result also holds its wall and CPU time at the reference speed
(``ref_s``, ``ref_cpu_s``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calib


def cpu_now() -> float:
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_times(op: dict, span: tuple, own: list, forked: list) -> dict:
    """The command's wall and CPU time at the reference speed (``calib.py``).

    The speed is measured where the work ran: by the passes of forked pool
    workers when any ran during the command, else by this process's passes
    during it and the two that bracket it.  Wall time loses this process's
    passes; CPU time loses every pass it counts.
    """
    start, end = span
    mine = [d for t, d in own if start <= t < end]
    theirs = [d for t, d in forked if start <= t < end]
    before = [d for t, d in own if t < start][-1]
    after = next(d for t, d in own if t >= end)
    speed = theirs or mine + [before, after]
    return {
        "ref_s": calib.at_reference_speed(op["s"], sum(mine), speed),
        "ref_cpu_s": calib.at_reference_speed(op["cpu_s"], sum(mine) + sum(theirs), speed),
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from stablerings import cli

    ready = time.monotonic()
    recorder = None
    if spec["trace"] != "none":
        import tracer

        recorder = tracer.install(spec["trace"])

    ops, spans = [], []
    # untraced runs time the machine's speed alongside the commands
    passes_dir = spec["out"] + ".passes"
    os.mkdir(passes_dir)
    sampler = calib.Sampler(passes_dir)
    with sampler if recorder is None else contextlib.nullcontext(sampler):
        sampler.tick()
        for i, argv in enumerate(spec["ops"]):
            out, err = io.StringIO(), io.StringIO()
            if recorder is not None:
                recorder.op = i
            began, cpu, start = time.monotonic(), cpu_now(), time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except Exception:  # a crash is a failed command, not a failed run
                    traceback.print_exc()
                    rc = -1
            took, cpu = time.perf_counter() - start, cpu_now() - cpu
            spans.append((began, time.monotonic()))
            ops.append({"rc": rc, "s": took, "cpu_s": cpu, "stdout": out.getvalue(), "stderr": err.getvalue()})
        sampler.tick()
    forked = sampler.forked_passes()
    for op, span in zip(ops, spans):
        op.update(reference_times(op, span, sampler.passes, forked))

    if recorder is not None:
        recorder.dump(spec["spans"])
    result = {
        "ready": ready,
        "wall_s": sum(op["s"] for op in ops),
        "ops": ops,
        "passes": [d for _, d in sampler.passes],
        "forked_passes": len(forked),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
