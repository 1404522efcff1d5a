"""The invariant-suite driver: structure, results, worker invariance."""

import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from stablerings import cli, ringlab, sweep
from stablerings.errors import CapExceeded
from stablerings.numsg import NAT, enumerate_semigroups, from_generators
from stablerings.relideal import (
    _blowup_gap_mask,
    _census_counts,
    blowup_tower,
    end_semigroup,
    enumerate_normalized_ideals,
    max_ideal,
)
from stablerings.sweep import (
    CHECK_NAMES,
    SALLY_GENUS_CAP,
    _walk,
    analyze_semigroup,
    clamp_jobs,
    run_sweep,
)


def _sequence(S):
    """The multiplicity sequence of S's blow-up tower, read off the tower."""
    return tuple(T.multiplicity for T in blowup_tower(S))


def _analyze(S, n_max=8, sally_cap=SALLY_GENUS_CAP):
    """One semigroup's record, its counts and sequence derived here rather than by the walk."""
    return analyze_semigroup(S, n_max, sally_cap, _census_counts(S), _sequence(S))


def test_analyze_single_semigroup():
    # the record holds what the merge reads and nothing else; no violation
    # means the report's stable, quadratic and Bass verdicts agree
    rec = _analyze(from_generators({2, 5}))
    assert rec == {"violations": {}, "sally": {"ideals": 3, "boundary": 2}}


def test_analyze_records_boundary_cases():
    rec = _analyze(from_generators({2, 3}))
    # the full monoid over <2,3> is two-generated, so its hypothesis fires
    assert rec["sally"]["boundary"] >= 1
    assert rec["violations"] == {}


def test_violation_messages_read_the_report(monkeypatch):
    # the report's verdicts forced apart on <2,5>: the counts (3, 2) make one
    # normalized ideal unstable, the quadratic test says no and the Hilbert
    # slope reads 3, while the multiplicity, and so the Bass verdict, stays 2
    monkeypatch.setattr(ringlab, "is_monomial_quadratic", lambda S: False)
    monkeypatch.setattr(ringlab, "multiplicity_via_hilbert", lambda S, chain: 3)
    S = from_generators({2, 5})
    rec = analyze_semigroup(S, 8, SALLY_GENUS_CAP, (3, 2), _sequence(S))
    greither = {"mu_normalization": 2, "bass": True, "agree": True, "quadratic_when_two_generated": False}
    verdicts = {
        "big_agreement": ["2,5: all_stable=False quadratic=False bass=True"],
        "monomial_vs_bass": ["2,5: monomial verdict False vs multiplicity verdict True"],
        "greither": [f"2,5: {greither}"],
        "multiplicity_triple": ["2,5: m=2 hilbert=3 mu_norm=2"],
    }
    assert rec["violations"] == verdicts
    # every other check fails too, and the tower's from crafted sequences; the
    # tower's members are <3,4,5> twice, which is neither 2 + <3,4,5> nor
    # <2,5> union its own maximal ideal
    two = {"agree": False, "power_two_generated": True, "mult_le_2": False}
    monkeypatch.setattr(ringlab, "two_generator_check", lambda *args: two)
    monkeypatch.setattr(ringlab, "minimal_multiplicity_check", lambda *args: {"ok": False})
    hard = (True, False)  # hypothesis without conclusion, on every normalized ideal
    monkeypatch.setattr(ringlab, "sally_check", lambda S, n_max: dict.fromkeys(enumerate_normalized_ideals(S), hard))
    monkeypatch.setattr(sweep, "blowup_tower", lambda S: [from_generators({3, 4, 5})] * 2)
    members = ["2,5: M_0 != 2 + S_1", "2,5: S_0 != S union M_0"]
    towers = {
        (3, 1): ["2,5: multiplicity sequence (3, 1)", "2,5: stabilization index 1 != genus 2"],
        (2, 2): [
            "2,5: blow-up tower did not reach the full monoid",
            "2,5: multiplicity sequence (2, 2)",
            "2,5: stabilization index 1 != genus 2",
        ],
        (2, 2, 2, 1): [
            "2,5: tower length 3 exceeds genus 2",
            "2,5: multiplicity sequence (2, 2, 2, 1)",
            "2,5: stabilization index 3 != genus 2",
        ],
    }
    for sequence, tower in towers.items():
        rec = analyze_semigroup(S, 8, SALLY_GENUS_CAP, (3, 2), sequence)
        assert rec == {
            "violations": {
                **verdicts,
                "two_generator": ["2,5: power_two_generated=True mult_le_2=False"],
                "minimal_multiplicity": ["2,5: {'ok': False}"],
                "tower": tower + members,
                "sally": [
                    "2,5: ideal (0,): {'hypothesis': True, 'conclusion': False, 'ok': False}",
                    "2,5: ideal (0, 3): {'hypothesis': True, 'conclusion': False, 'ok': False}",
                    "2,5: ideal (0, 1): {'hypothesis': True, 'conclusion': False, 'ok': False}",
                ],
            },
            "sally": {"ideals": 3, "boundary": 2},
        }


def test_memo_pass_matches_end_semigroup_and_tower():
    # the shifted-OR gap mask of E(M) against E(M) built from the generators
    # of M, and the walk's multiplicity sequences against the towers, over
    # the tasks of run_sweep(14, sally_cap=7): N's subtree down to genus 6,
    # and the subtree of each semigroup of genus 7 down to genus 14, each
    # walk with its own memo
    tasks = 0
    roots = [S for S in enumerate_semigroups(7) if S.genus == 7]
    for root, max_genus in [(NAT, 6)] + [(S, 14) for S in roots]:
        for S, _, sequence in _walk(root, max_genus):
            assert _blowup_gap_mask(S) == end_semigroup(max_ideal(S)).gap_mask, str(S)
            assert sequence == _sequence(S), str(S)
            tasks += 1
    assert tasks == 4107


def test_analyze_semigroup_derives_what_the_memo_passes():
    for S, counts, sequence in _walk(NAT, 7):
        assert analyze_semigroup(S, 8, 7, counts, sequence) == _analyze(S, 8, 7), str(S)


def test_run_sweep_structure():
    res = run_sweep(4, jobs=1)
    assert res["semigroup_count"] == 15
    assert res["counts_by_genus"] == {"0": 1, "1": 1, "2": 2, "3": 4, "4": 7}
    assert res["violations_total"] == 0
    assert set(res["checks"]) == set(CHECK_NAMES)
    assert res["checks"]["sally"]["checked"] == 15
    assert res["checks"]["monomial_vs_bass"]["divergences"] == []


def test_run_sweep_jobs_invariant(monkeypatch):
    # root genus 8, the Sally cap: 68 tasks, so jobs=3 starts a pool of two workers
    monkeypatch.setattr(sweep, "usable_cpus", lambda: 2)
    assert run_sweep(9, jobs=1) == run_sweep(9, jobs=3)


def _name(S):
    """The semigroup as a violation line names it: its minimal generators."""
    return ",".join(str(g) for g in S.minimal_generators)


def _flagging(monkeypatch, genera):
    """Make every semigroup of these genera report a tower violation and a monomial/Bass divergence."""

    def flagged(S, *args):
        rec = analyze_semigroup(S, *args)
        if S.genus in genera:
            name = _name(S)
            rec["violations"] = {"tower": [name + ": t"], "monomial_vs_bass": [name + ": m"]}
        return rec

    monkeypatch.setattr(sweep, "analyze_semigroup", flagged)


def test_run_sweep_merges_violations(monkeypatch):
    _flagging(monkeypatch, {2})
    res = run_sweep(3, jobs=1, sally_cap=1)
    names = [_name(S) for S in enumerate_semigroups(3) if S.genus == 2]
    assert list(res["checks"]) == list(CHECK_NAMES)
    assert res["checks"]["tower"] == {"checked": 8, "violations": [n + ": t" for n in names]}
    assert res["checks"]["monomial_vs_bass"] == {"checked": 8, "divergences": [n + ": m" for n in names]}
    assert res["checks"]["sally"] == {"checked": 2, "violations": [], "ideals_checked": 3, "boundary_cases": 1}
    assert res["violations_total"] == 2 * len(names) == 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_merges_violations_across_subtrees(monkeypatch, jobs):
    # root genus 2: genus 1 lies in the walk from N, and genera 3 and 4 in
    # the subtrees of both <3,4,5> and <2,5>, which walk them depth first
    _flagging(monkeypatch, {1, 3, 4})
    res = run_sweep(9, jobs=jobs, sally_cap=1)
    names = [_name(S) for S in enumerate_semigroups(4) if S.genus in (1, 3, 4)]
    assert len(names) == 12
    assert res["checks"]["tower"] == {"checked": 274, "violations": [n + ": t" for n in names]}
    assert res["checks"]["monomial_vs_bass"] == {"checked": 274, "divergences": [n + ": m" for n in names]}
    assert res["violations_total"] == 2 * len(names)
    assert res["counts_by_genus"] == {str(g): n for g, n in enumerate((1, 1, 2, 4, 7, 12, 23, 39, 67, 118))}


def _forked(monkeypatch):
    """The pids of the processes forked from here on; two CPUs, so ``jobs=2`` starts two workers."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    monkeypatch.setattr(sweep, "usable_cpus", lambda: 2)
    return pids


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _failing_root(monkeypatch, fail):
    """Make the walk from <2,17>, one of the 67 roots of run_sweep(9), call fail() in the worker."""
    walk = sweep._walk

    def failing(root, max_genus):
        if root.minimal_generators == (2, 17):
            fail()
        return walk(root, max_genus)

    monkeypatch.setattr(sweep, "_walk", failing)


def test_pool_reaps_its_workers(monkeypatch):
    pids = _forked(monkeypatch)
    assert run_sweep(9, jobs=2)["semigroup_count"] == 274
    _assert_reaped(pids)


def test_pool_answers_on_descriptors_past_fd_setsize(monkeypatch):
    # with 1,100 more descriptors open, the pool's pipes lie past FD_SETSIZE
    # (1,024), where select() refuses a descriptor with a ValueError
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if 0 <= hard < 1200:
        pytest.skip(f"the descriptor limit {hard} is below 1,200")
    pids = _forked(monkeypatch)
    taken = []
    try:
        if 0 <= soft < 1200:
            resource.setrlimit(resource.RLIMIT_NOFILE, (1200, hard))
        while len(taken) < 1100:
            taken.append(os.open(os.devnull, os.O_RDONLY))
        assert run_sweep(9, jobs=2) == run_sweep(9, jobs=1)
    finally:
        for fd in taken:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    _assert_reaped(pids)


def _cap_exceeded():
    raise CapExceeded("marked root")


def test_worker_error_keeps_its_type(monkeypatch, capsys):
    pids = _forked(monkeypatch)
    _failing_root(monkeypatch, _cap_exceeded)
    with pytest.raises(CapExceeded, match="marked root"):
        run_sweep(9, jobs=2)
    _assert_reaped(pids)
    # the CLI maps it to exit 3 and prints no report
    assert cli.main(["sweep", "--max-genus", "9", "--jobs", "2"]) == 3
    assert capsys.readouterr().out == ""
    _assert_reaped(pids)


def test_worker_error_that_cannot_be_pickled(monkeypatch):
    pids = _forked(monkeypatch)

    class LocalError(Exception):
        """Pickled by reference, and a local class has none."""

    def fail():
        raise LocalError("marked root")

    _failing_root(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="^LocalError: marked root$"):
        run_sweep(9, jobs=2)
    _assert_reaped(pids)


@contextmanager
def _alarm(seconds, message):
    """Raise TimeoutError(message) in the block once ``seconds`` have passed."""

    def expire(*_):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_that_dies_raises(monkeypatch, capsys):
    # a pool that waits for the dead worker's result hangs until the alarm
    pids = _forked(monkeypatch)
    _failing_root(monkeypatch, lambda: os._exit(1))
    with _alarm(30, "the pool waited for a dead worker"):
        with pytest.raises(ChildProcessError, match="ended without a result"):
            run_sweep(9, jobs=2)
        # an OSError: the CLI prints one error line, no report, and exits 2
        code = cli.main(["sweep", "--max-genus", "9", "--jobs", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ChildProcessError: sweep worker ") and err.count("\n") == 1
    _assert_reaped(pids)


def test_worker_that_dies_is_reported_when_it_dies(monkeypatch):
    # the first-forked worker stalls in its first task and the second dies in
    # its own: a pool that reads the answers in fork order waits on the
    # stalled worker until the alarm
    pids = _forked(monkeypatch)

    def stall_or_die(root, max_genus):
        if not pids:  # empty in the worker forked first
            time.sleep(60)
        os._exit(1)

    monkeypatch.setattr(sweep, "_walk", stall_or_die)
    with _alarm(15, "the pool waited for a stalled worker"):
        with pytest.raises(ChildProcessError, match="ended without a result"):
            run_sweep(9, jobs=2)
    assert len(pids) == 2
    _assert_reaped(pids)


def test_pool_whose_workers_have_all_ended_raises(monkeypatch):
    # 200,000 indices of six bytes overfill the claims pipe, so the parent is
    # still writing them when both workers have died: its write fails with EPIPE
    pids = _forked(monkeypatch)
    monkeypatch.setattr(sweep, "_task", lambda *args: os._exit(1))
    with _alarm(15, "the pool waited for dead workers"):
        with pytest.raises(OSError) as raised:
            sweep._pool([()] * 200_000, 2)
    assert raised.type is ChildProcessError  # not the write's BrokenPipeError
    _assert_reaped(pids)


def test_n_max_is_checked_once_per_sweep(monkeypatch):
    calls = []
    check = ringlab.check_n_max
    monkeypatch.setattr(ringlab, "check_n_max", lambda n_max: calls.append(n_max) or check(n_max))
    res = run_sweep(6, jobs=1, n_max=5)
    assert res["checks"]["sally"]["ideals_checked"] > 100
    assert calls == [5]
    with pytest.raises(ValueError):
        run_sweep(3, jobs=1, n_max=1)
    with pytest.raises(CapExceeded):
        run_sweep(3, jobs=1, n_max=ringlab.N_MAX_CAP + 1)


def test_sally_cap_limits_ideal_sweep():
    res = run_sweep(4, jobs=1, sally_cap=2)
    assert res["checks"]["sally"]["checked"] == 4  # genus 0, 1, 2 only
    assert res["violations_total"] == 0


def test_clamp_jobs(monkeypatch):
    monkeypatch.setattr(sweep, "usable_cpus", lambda: 4)
    assert clamp_jobs(100_000, 10**6) == 4
    assert clamp_jobs(100_000, 3) == 3
    assert clamp_jobs(2, 10) == 2
    assert clamp_jobs(0, 10) == clamp_jobs(-7, 10) == clamp_jobs(5, 0) == 1
    monkeypatch.setattr(sweep, "usable_cpus", lambda: 1)
    assert clamp_jobs(8, 10) == 1
    monkeypatch.setattr(sweep, "usable_cpus", lambda: 4)
    monkeypatch.delattr(sweep.os, "fork")
    assert clamp_jobs(8, 10) == 1


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    # the CPUs this process may run on, not the machine's count
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
    if hasattr(sweep.os, "sched_getaffinity"):
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0})
        assert sweep.usable_cpus() == 1
        monkeypatch.delattr(sweep.os, "sched_getaffinity")
    assert sweep.usable_cpus() == 8
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert sweep.usable_cpus() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_jobs_default_follows_the_affinity_set():
    # pinned to one CPU, a fresh process defaults --jobs to 1 and clamps 8 jobs to 1
    script = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from stablerings import cli, sweep; "
        "print(cli.build_parser().parse_args(['sweep', '--max-genus', '1']).jobs, sweep.clamp_jobs(8, 100))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sweep.__file__).parents[1]))
    argv = [sys.executable, "-c", script]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["1", "1"]
