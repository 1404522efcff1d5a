"""The exhaustive invariant suite over enumerated semigroups.

``analyze_semigroup`` runs every check on one semigroup: the
stable/quadratic/Bass agreement over all its normalized ideals, the
two-generated-power biconditional, the normalization generator count,
minimal multiplicity, the multiplicity triple (least element vs Hilbert
slope vs normalization generators), blow-up tower behavior, and (below the
Sally genus cap) the two-generated-power implication over every normalized
ideal, whose verdict is the same for every translate of the ideal.  Each
check goes through its one entry point in ``ringlab``: the ring report is
the dict that ``sg report`` prints, whose ``semigroup`` entry names the
semigroup in each violation line, the three checks on the powers of M read
one chain, ``ringlab.max_ideal_chain``, the tower's members are built only
for multiplicity 2 (one semigroup per genus), and ``ringlab.sally_check``
returns the (hypothesis, conclusion) verdict of every normalized ideal by
hole mask, from which the sweep counts the ideals and the boundary cases
(hypothesis met by an ideal other than S) and writes each violation line.

The sweep is one walk of the semigroup tree, split into subtrees as
Fromentin and Hivert split it ("Exploring the tree of numerical
semigroups", Math. Comp. 85, 2016).  The parent enumerates the semigroups
up to a root genus, and each task walks one subtree depth first: a root's
down to the sweep's genus, or N's down to the genus above the roots.  A
child's census counts come from its parent's, one top-level step of the
census recurrences, so they pass down the walk's stack and no memo holds
them.  The multiplicity sequence of S's blow-up tower is (m,) + that of
E(M), an oversemigroup of smaller genus that may lie outside the subtree;
a memo keyed by gap mask, owned by the walk, holds the sequences it has
seen, and E(M) is built only when the memo misses.  ``--jobs 1`` runs the
tasks in the parent; more jobs run them in workers that the parent forks
itself (``_pool``), without ``multiprocessing``, whose import and pool
start-up cost more than the forks and pipes.  Both run the same task
function, and the workers inherit the parent's modules as they are.

A task returns one aggregate: its semigroups by genus, its Sally counters
and the violations of each flagged semigroup, keyed by (genus, gaps).  The
merge sums the counts and orders the violations by that key, which is
enumeration order (``numsg.enumerate_semigroups``), so the report is
byte-stable regardless of worker count.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import starmap

from . import ringlab
from .errors import CapExceeded
from .numsg import NAT, NumericalSemigroup, check_genus, children, enumerate_semigroups
from .relideal import RelativeIdeal, _blowup_gap_mask, _census_counts, blowup_tower

SALLY_GENUS_CAP = 8
# `sweep --max-genus 16 --n-max 32 --sally-genus-cap C --jobs 2` takes 9.6-11.7 s
# at C = 14 and 31.7-31.9 s at C = 15 (2 runs each, C = 15 with this cap raised in
# a copy) in a fresh process on a shared 2-core 2.1 GHz Xeon with Python 3.11.7,
# and 14.1-16.8 s at C = 14 with `--max-genus 20` (3 runs); 15 fits the 120 s
# ceiling too, but 14 leaves room to raise the genus cap
SALLY_GENUS_CAP_MAX = 14


def analyze_semigroup(
    S: NumericalSemigroup,
    n_max: int,
    sally_cap: int,
    counts: tuple[int, int],
    sequence: tuple[int, ...],
) -> dict:
    """Run every per-semigroup check; violations come back verbatim.

    ``counts`` and ``sequence`` are S's census counts and the multiplicity
    sequence of its blow-up tower, from the sweep's walk.  ``run_sweep``
    checks ``n_max``.  The record holds what the merge reads: the violations
    and, below the Sally cap, the Sally counters.
    """
    report = ringlab.stable_ring_report(S, counts)
    violations: dict[str, list[str]] = {}

    def flag(check: str, msg: str) -> None:
        violations.setdefault(check, []).append(f"{report['semigroup']}: {msg}")

    all_stable, bass = report["all_stable"], report["bass"]
    if not report["agreement"]:
        flag("big_agreement", f"all_stable={all_stable} quadratic={report['quadratic']} bass={bass}")
    if bass != all_stable:
        flag("monomial_vs_bass", f"monomial verdict {all_stable} vs multiplicity verdict {bass}")

    chain = ringlab.max_ideal_chain(S)  # M, 2M, ...: read by the next three checks
    two = ringlab.two_generator_check(S, n_max, chain)
    if not two["agree"]:
        flag("two_generator", f"power_two_generated={two['power_two_generated']} mult_le_2={two['mult_le_2']}")

    gre = ringlab.greither_check(report)
    if not gre["agree"] or not gre["quadratic_when_two_generated"]:
        flag("greither", f"{gre}")

    mm = ringlab.minimal_multiplicity_check(S, chain)
    if not mm["ok"]:
        flag("minimal_multiplicity", f"{mm}")

    via_hilbert = ringlab.multiplicity_via_hilbert(S, chain)
    if not (S.multiplicity == via_hilbert == gre["mu_normalization"]):
        flag(
            "multiplicity_triple",
            f"m={S.multiplicity} hilbert={via_hilbert} mu_norm={gre['mu_normalization']}",
        )

    steps = len(sequence) - 1
    if sequence[-1] != 1:  # only the full monoid has multiplicity 1
        flag("tower", "blow-up tower did not reach the full monoid")
    elif steps > max(S.genus, 1):
        flag("tower", f"tower length {steps} exceeds genus {S.genus}")
    if S.multiplicity == 2:  # <2, 2g + 1>, one per genus: the only check that reads the tower's members
        if sequence != (2,) * S.genus + (1,):
            flag("tower", f"multiplicity sequence {sequence}")
        if steps != S.genus:
            flag("tower", f"stabilization index {steps} != genus {S.genus}")
        tower = blowup_tower(S)
        for i, (cur, nxt) in enumerate(zip(tower, tower[1:])):
            width = cur.conductor + 4
            m_i = cur.members_mask(width) & ~1  # M_i = S_i minus 0
            if m_i != nxt.members_mask(width - 2) << 2:
                flag("tower", f"M_{i} != 2 + S_{i + 1}")
            if cur.members_mask(width) != S.members_mask(width) | m_i:
                flag("tower", f"S_{i} != S union M_{i}")

    out = {"violations": violations}
    if S.genus <= sally_cap:
        verdicts = ringlab.sally_check(S, n_max)
        boundary = 0
        principal = S.gap_mask  # S itself, whose only generator is min(I) = 0
        for holes, (hypothesis, conclusion) in verdicts.items():
            if hypothesis and not conclusion:
                res = {"hypothesis": hypothesis, "conclusion": conclusion, "ok": False}
                flag("sally", f"ideal {RelativeIdeal(S, 0, holes).minimal_generators}: {res}")
            if hypothesis and holes != principal:
                boundary += 1
        out["sally"] = {"ideals": len(verdicts), "boundary": boundary}
    return out


CHECK_NAMES = (
    "big_agreement",
    "two_generator",
    "sally",
    "greither",
    "minimal_multiplicity",
    "multiplicity_triple",
    "tower",
    "monomial_vs_bass",
)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def clamp_jobs(jobs: int, tasks: int) -> int:
    """Worker processes to start: at least 1, at most the usable CPUs and the tasks, and 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(jobs, usable_cpus(), tasks))


def _walk(root: NumericalSemigroup, max_genus: int):
    """Yield (S, counts, sequence) for root and its subtree down to max_genus, depth first.

    ``counts`` is S's census pair, which a child derives from its parent's
    as the walk pushes it.  ``sequence`` is the multiplicity sequence of
    S's blow-up tower, (m,) + the sequence of E(M), memoized by gap mask
    for the walk alone.
    """
    sequences = {0: (1,)}  # the full monoid's

    def sequence(gaps: int, S: NumericalSemigroup | None) -> tuple[int, ...]:
        """The sequence of the semigroup with these gaps: S, or None if the caller has not built it."""
        if gaps not in sequences:
            S = S or NumericalSemigroup.from_gap_mask(gaps)
            sequences[gaps] = (S.multiplicity,) + sequence(_blowup_gap_mask(S), None)
        return sequences[gaps]

    stack = [(root, _census_counts(root))]
    while stack:
        S, counts = stack.pop()
        yield S, counts, sequence(S.gap_mask, S)
        if S.genus < max_genus:
            stack += [(child, _census_counts(child, counts)) for child in children(S)]


def _task(root: NumericalSemigroup, max_genus: int, n_max: int, sally_cap: int) -> tuple:
    """Analyze a subtree: its semigroups by genus, Sally counters and violations keyed by (genus, gaps)."""
    by_genus, sally, violations = Counter(), Counter(), []
    for S, counts, sequence in _walk(root, max_genus):
        rec = analyze_semigroup(S, n_max, sally_cap, counts, sequence)
        by_genus[S.genus] += 1
        if rec["violations"]:
            violations.append(((S.genus, S.gaps()), rec["violations"]))
        if "sally" in rec:
            sally.update(checked=1, **rec["sally"])
    return by_genus, sally, violations


def _serve(tasks: list[tuple], width: int, claims: int, reply: int) -> None:
    """A worker's loop: run the tasks whose indices arrive on ``claims`` until EOF, then answer on ``reply``.

    The answer is one pickled list of results, or the exception that stopped
    the worker; one that does not survive pickling is sent as a RuntimeError
    with its text.
    """
    import pickle

    try:
        done = []
        while index := os.read(claims, width):
            done.append(_task(*tasks[int(index)]))
        data = pickle.dumps(done)
    except Exception as exc:  # the parent re-raises it
        try:
            data = pickle.dumps(exc)
            pickle.loads(data)
        except Exception:
            data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    with open(reply, "wb") as fh:
        fh.write(data)


def _pool(tasks: list[tuple], jobs: int) -> list[tuple]:
    """``_task`` over every task in ``jobs`` forked workers: the results, in no set order.

    After the forks the parent writes each task's index, at one fixed width,
    to one pipe that every worker reads one index at a time.  A pipe write of
    at most PIPE_BUF bytes is atomic, so the pipe holds whole indices only
    and a read of that width takes one: a worker takes the next unclaimed
    task when it finishes one, and the first task goes first.  Each worker
    answers over a pipe of its own (``_serve``) and ends in ``os._exit``, so
    it never returns into its caller's frames or flushes the buffers it
    inherited.  The parent polls every answer pipe at once (``poll``, as
    ``select`` takes no descriptor past FD_SETSIZE) and takes each answer as
    it arrives, in no set order, reaping its worker then, so a worker that
    dies is seen when it dies, not after the workers forked before it have
    finished.  The results need no order: the merge sums the counts and
    orders the violations by their unique key.  A worker's exception is
    raised here, and a worker that ends without an answer raises
    ChildProcessError, an OSError, so the CLI exits 2.  Every worker is
    reaped before this returns or raises; on an error, those still running
    are killed first.  Forking is safe in a process without threads, and
    the package starts none.
    """
    import pickle
    import select

    width = len(str(len(tasks) - 1))
    claims, offers = os.pipe()
    pipes = [os.pipe() for _ in range(jobs)]  # (parent's end, worker's end)
    fds = {claims, offers}.union(*pipes)  # open in the parent
    # each worker's pid by the parent's end of its answer pipe, and those ends polled together
    pids, results, ready = {}, [], select.poll()

    def close(*ends: int) -> None:
        for fd in ends:
            fds.remove(fd)
            os.close(fd)

    try:
        for answer, reply in pipes:
            pid = os.fork()
            if not pid:
                try:
                    for fd in fds - {claims, reply}:
                        os.close(fd)
                    _serve(tasks, width, claims, reply)
                finally:
                    os._exit(0)
            pids[answer] = pid
            ready.register(answer, select.POLLIN)
        close(claims, *(reply for _, reply in pipes))
        try:
            for i in range(len(tasks)):
                os.write(offers, b"%0*d" % (width, i))
        except BrokenPipeError:  # every worker has ended; its answer, or its lack of one, says why
            pass
        close(offers)
        while pids:
            for answer, _ in ready.poll():
                ready.unregister(answer)
                fds.remove(answer)
                with open(answer, "rb") as fh:
                    data = fh.read()
                pid, _ = os.waitpid(pids.pop(answer), 0)
                if not data:
                    raise ChildProcessError(f"sweep worker {pid} ended without a result")
                done = pickle.loads(data)
                if isinstance(done, Exception):
                    raise done
                results += done
    except BaseException:
        import signal

        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        close(*list(fds))
        for pid in pids.values():
            os.waitpid(pid, 0)
    return results


def run_sweep(
    max_genus: int,
    jobs: int = 1,
    n_max: int = 8,
    sally_cap: int = SALLY_GENUS_CAP,
) -> dict:
    """Analyze every semigroup of genus <= max_genus, one task per subtree of the semigroup tree."""
    ringlab.check_n_max(n_max)
    check_genus(max_genus)
    if sally_cap < 0:
        raise ValueError("sally genus cap must be nonnegative")
    if min(sally_cap, max_genus) > SALLY_GENUS_CAP_MAX:
        raise CapExceeded(
            f"per-ideal sweep to genus {min(sally_cap, max_genus)} exceeds cap {SALLY_GENUS_CAP_MAX}"
        )
    # The roots are the semigroups of the root genus, and each task walks one
    # subtree: a root's down to max_genus, or N's down to the genus above the
    # roots.  The root genus is max_genus - 7, so no subtree below a root is
    # more than seven genera deep, but at least the Sally cap, so no semigroup
    # below a root runs the Sally pass.  That pass is the costliest check, and
    # its cost falls on the near-ordinary semigroups, which all lie in the
    # ordinary semigroup's subtree: at genus 12 and root genus 5 that one task
    # held 77% of the work.  At genus 20 the 1,001 semigroups of genus 13 are
    # the roots, and the ordinary one's subtree holds a third of the work.  N's
    # task goes first, as it is among the largest.
    root_genus = max(max_genus - 7, min(sally_cap, max_genus), 0)
    roots = [S for S in enumerate_semigroups(root_genus) if S.genus == root_genus]
    tasks = [(S, max_genus, n_max, sally_cap) for S in roots]
    if root_genus:
        tasks.insert(0, (NAT, root_genus - 1, n_max, sally_cap))
    jobs = clamp_jobs(jobs, len(tasks))
    results = _pool(tasks, jobs) if jobs > 1 else starmap(_task, tasks)
    genera, sallies, found = zip(*results)
    by_genus, sally = sum(genera, Counter()), sum(sallies, Counter())
    # each semigroup's violations once, in enumeration order: its (genus, gaps) key is unique
    ordered = [violations for _, violations in sorted(v for part in found for v in part)]
    checks = {}
    for name in CHECK_NAMES:
        key = "divergences" if name == "monomial_vs_bass" else "violations"
        checks[name] = {"checked": by_genus.total(), key: [line for v in ordered for line in v.get(name, ())]}
    checks["sally"].update(
        checked=sally["checked"], ideals_checked=sally["ideals"], boundary_cases=sally["boundary"]
    )
    return {
        "max_genus": max_genus,
        "n_max": n_max,
        "sally_genus_cap": sally_cap,
        "semigroup_count": by_genus.total(),
        "counts_by_genus": {str(g): by_genus[g] for g in sorted(by_genus)},
        "checks": checks,
        "violations_total": sum(len(lines) for v in ordered for lines in v.values()),
    }
