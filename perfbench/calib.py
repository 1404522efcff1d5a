"""A fixed Python kernel that measures how fast the machine runs Python now.

The benchmark's host is shared, and the speed at which it runs this
interpreter swings by up to a factor two within seconds; CPU time swings with
wall time, so neither clock alone repeats.  While the child runs its commands
a ``Sampler`` times one short pass of ``kernel()`` every ``PERIOD_S`` of wall
time, in the child and in every process it forks (the sweep's pool workers),
and ``at_reference_speed`` turns a command's time into the time it would take
at the speed at which a pass takes exactly ``REF_S``.  On identical work (one
80-trial Q idealization check, six times) that cut the range of the times
from 45% to 4%.  The kernel belongs to the benchmark, so no change to the
program moves it.

Set-up time (a fresh interpreter importing the CLI) slows down less than the
kernel does, so it is scaled instead by ``reference_spawn()``: a fresh
interpreter importing a fixed set of standard modules, at the reference
speed ``REF_SPAWN_S``.  That cut the quartile spread of single set-up times
from 0.21 to 0.07.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REF_S = 0.0015  # one pass at the reference speed (a quiet spell of a 2.1 GHz Xeon core)
PERIOD_S = 0.05  # wall time between two passes while sampling
REF_SPAWN_S = 0.060  # a reference spawn at the reference speed
REFERENCE_SPAWN = "import argparse, dataclasses, fractions, json, multiprocessing, random, time; print(time.monotonic())"


def kernel() -> int:
    """About 2 ms of interpreter-bound work of the program's kind: ints, Fractions, dicts, sets, sorting."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(1100):
        table[i % 97] = table.get(i % 97, 0) + i * i
        acc += len({j for j in range(i % 23)})
    f = Fraction(0)
    for i in range(1, 110):
        f += Fraction(1, i)
    xs = sorted((i * 7919) % 1009 for i in range(1500))
    return acc + len(table) + xs[7] + f.numerator % 3


def timed() -> float:
    """Wall seconds of one pass of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Times one pass every ``PERIOD_S`` of wall time from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the passes
    interleave with the work being measured.  A pass is kept as its start
    (``time.monotonic()``, one clock for every process) and its duration.
    Processes forked while the sampler is active sample too and append their
    passes to ``passes-<pid>.txt`` in ``workdir``, so a pool's workers report
    the speed at which the pool's work ran.  One sampler per process.
    """

    def __init__(self, workdir: str) -> None:
        self.passes: list[tuple[float, float]] = []
        self.workdir = workdir
        self._active = False
        self._log = None
        os.register_at_fork(after_in_child=self._forked)

    def tick(self, *_signal_args) -> None:
        start = time.monotonic()
        self.passes.append((start, timed()))
        if self._log is not None:
            self._log.write("%r %r\n" % self.passes[-1])

    def _forked(self) -> None:
        if self._active:
            self.passes = []
            path = os.path.join(self.workdir, f"passes-{os.getpid()}.txt")
            self._log = open(path, "w", encoding="utf-8", buffering=1)  # lines survive a terminate
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)  # timers are not inherited

    def __enter__(self) -> "Sampler":
        self._active = True
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._active = False

    def forked_passes(self) -> list[tuple[float, float]]:
        """Every pass the forked processes logged."""
        out = []
        for name in sorted(os.listdir(self.workdir)):
            if name.startswith("passes-"):
                with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
                    out += [tuple(float(v) for v in line.split()) for line in fh if line.endswith("\n")]
        return out


def at_reference_speed(seconds: float, overhead: float, passes: list[float]) -> float:
    """``seconds`` of work, less ``overhead`` seconds of passes, at the speed ``passes`` measured."""
    return (seconds - overhead) * statistics.mean(REF_S / p for p in passes)


def reference_spawn() -> float:
    """Seconds from spawning a fresh interpreter until it has run ``REFERENCE_SPAWN``'s imports."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_SPAWN], capture_output=True, text=True, check=True, timeout=60
    )
    return float(proc.stdout) - spawned
