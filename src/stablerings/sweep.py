"""The exhaustive invariant suite over enumerated semigroups.

One worker analyzes one semigroup: the stable/quadratic/Bass agreement over
all its normalized ideals, the two-generated-power biconditional, the
normalization generator count, minimal multiplicity, the multiplicity triple
(least element vs Hilbert slope vs normalization generators), blow-up tower
behavior, and (below the Sally genus cap) the two-generated-power
implication over every normalized ideal, whose verdict is the same for
every translate of the ideal.

The census counts and the blow-up tower of each semigroup come from one
memo pass in the parent process, keyed by gap mask and run in enumeration
order: S's parent S + {F(S)} and its blow-up E(M) both have smaller genus,
so their entries are already there, and S's entry costs one top-level step
of the census recurrences and one ``end_semigroup``.  Each task carries its
entry, and the workers run only the checks that stay per semigroup.  The
pool is forked before the pass starts, so the workers do not inherit the
memo, and the pass feeds the pool lazily, overlapping the workers.

The semigroups stream from the enumeration into the pass, which holds them
only through the memo's towers.  Results merge in enumeration order as they
arrive, so the aggregate report is byte-stable regardless of worker count
and no record outlives its merge.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import chain
from multiprocessing import Pool

from . import ringlab
from .errors import CapExceeded
from .numsg import NumericalSemigroup, enumerate_semigroups
from .relideal import TowerReport, _tree_entry, blowup_tower, enumerate_normalized_ideals

SALLY_GENUS_CAP = 8
# `sweep --max-genus 16 --n-max 32 --sally-genus-cap C` takes 21-22 s at C = 14
# and 72 s at C = 15 on a 2-core 2.1 GHz Xeon with Python 3.11.7, and 31 s at
# C = 14 with `--max-genus 20`; 15 fits the 120 s ceiling too, but 14 leaves
# room to raise the genus cap
SALLY_GENUS_CAP_MAX = 14


def _gens_str(S: NumericalSemigroup) -> str:
    return ",".join(str(g) for g in S.minimal_generators)


def analyze_semigroup(
    S: NumericalSemigroup,
    n_max: int = 8,
    sally_cap: int = SALLY_GENUS_CAP,
    counts: tuple[int, int] | None = None,
    tower: TowerReport | None = None,
) -> dict:
    """Run every per-semigroup check; violations come back verbatim.

    ``counts`` and ``tower`` are S's census counts and blow-up tower from the
    sweep's memo pass; without them they are derived here.  ``run_sweep``
    checks ``n_max``.
    """
    name = _gens_str(S)
    violations: dict[str, list[str]] = {}

    def flag(check: str, msg: str) -> None:
        violations.setdefault(check, []).append(f"{name}: {msg}")

    report = ringlab.stable_ring_report(S, counts)
    if not report.agreement:
        flag(
            "big_agreement",
            f"all_stable={report.all_stable} quadratic={report.quadratic_over_normalization} "
            f"bass={report.is_bass}",
        )
    if report.is_bass != report.all_stable:
        flag(
            "monomial_vs_bass",
            f"monomial verdict {report.all_stable} vs multiplicity verdict {report.is_bass}",
        )

    two = ringlab._two_generator(S, n_max)
    if not two["agree"]:
        flag("two_generator", f"power_two_generated={two['power_two_generated']} mult_le_2={two['mult_le_2']}")

    gre = ringlab.greither_check(S)
    if not gre["agree"] or not gre["quadratic_when_two_generated"]:
        flag("greither", f"{gre}")

    mm = ringlab.minimal_multiplicity_check(S)
    if not mm["ok"]:
        flag("minimal_multiplicity", f"{mm}")

    via_hilbert = ringlab.multiplicity_via_hilbert(S)
    if not (S.multiplicity == via_hilbert == gre["mu_normalization"]):
        flag(
            "multiplicity_triple",
            f"m={S.multiplicity} hilbert={via_hilbert} mu_norm={gre['mu_normalization']}",
        )

    tower = tower or blowup_tower(S)
    if not tower.reached_normalization:
        flag("tower", "blow-up tower did not reach the full monoid")
    elif tower.stabilization_index > max(S.genus, 1):
        flag("tower", f"tower length {tower.stabilization_index} exceeds genus {S.genus}")
    if S.multiplicity == 2:
        expected = (2,) * S.genus + (1,)
        if tower.multiplicity_sequence != expected:
            flag("tower", f"multiplicity sequence {tower.multiplicity_sequence}")
        if tower.stabilization_index != S.genus:
            flag("tower", f"stabilization index {tower.stabilization_index} != genus {S.genus}")
        for i in range(tower.stabilization_index):
            cur, nxt = tower.tower[i], tower.tower[i + 1]
            width = cur.conductor + 4
            m_i = cur.members_mask(width) & ~1  # M_i = S_i minus 0
            if m_i != nxt.members_mask(width - 2) << 2:
                flag("tower", f"M_{i} != 2 + S_{i + 1}")
            if cur.members_mask(width) != S.members_mask(width) | m_i:
                flag("tower", f"S_{i} != S union M_{i}")

    out = {
        "gens": name,
        "genus": S.genus,
        "report": report.to_payload(),
        "violations": violations,
    }

    if S.genus <= sally_cap:
        ideals = 0
        boundary = 0
        for I in enumerate_normalized_ideals(S):
            res = ringlab._sally(I, n_max)
            ideals += 1
            if not res["ok"]:
                flag("sally", f"ideal {I.minimal_generators}: {res}")
            if res["hypothesis"] and I.generator_mask != 1:  # min(I) = 0 is not the only generator
                boundary += 1
        out["sally"] = {"ideals": ideals, "boundary": boundary}
    return out


def _worker(args) -> dict:
    return analyze_semigroup(*args)


def _tasks(semigroups, n_max: int, sally_cap: int):
    """The memo pass: each semigroup's task with its census counts and tower.

    ``semigroups`` come genus by genus, so each one's parent and E(M) come before it.
    """
    memo: dict = {}
    for S in semigroups:
        yield (S, n_max, sally_cap, *_tree_entry(S, memo))


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


def clamp_jobs(jobs: int, tasks: int) -> int:
    """Worker processes to start: at least 1, at most the CPUs and the tasks."""
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def _records(tasks, jobs: int):
    """The per-semigroup records, in task order, from a pool of ``jobs`` or serially."""
    if jobs > 1:
        # forked before the memo pass starts, so no worker holds a copy of the memo
        with Pool(processes=jobs) as pool:
            yield from pool.imap(_worker, tasks, chunksize=16)
    else:
        yield from map(_worker, tasks)


def run_sweep(
    max_genus: int,
    jobs: int = 1,
    n_max: int = 8,
    sally_cap: int = SALLY_GENUS_CAP,
) -> dict:
    """Analyze every semigroup of genus <= max_genus, merging each record as it arrives."""
    ringlab.check_n_max(n_max)
    if min(sally_cap, max_genus) > SALLY_GENUS_CAP_MAX:
        raise CapExceeded(
            f"per-ideal sweep to genus {min(sally_cap, max_genus)} exceeds cap {SALLY_GENUS_CAP_MAX}"
        )
    semigroups = enumerate_semigroups(max_genus)
    root = next(semigroups)  # a bad max_genus raises here, before any worker starts
    tasks = _tasks(chain([root], semigroups), n_max, sally_cap)  # lazy: the pass runs as the tasks are drawn
    msgs: dict[str, list[str]] = {name: [] for name in CHECK_NAMES}
    by_genus = Counter()
    sally = Counter()
    # every genus up to max_genus has a semigroup, so there are never fewer tasks than jobs
    for rec in _records(tasks, clamp_jobs(jobs, max_genus + 1)):
        by_genus[str(rec["genus"])] += 1
        for name, found in rec["violations"].items():
            msgs[name] += found
        if "sally" in rec:
            sally.update(checked=1, **rec["sally"])
    total = sum(by_genus.values())
    checks = {}
    for name in CHECK_NAMES:
        key = "divergences" if name == "monomial_vs_bass" else "violations"
        checks[name] = {"checked": total, key: msgs[name]}
    checks["sally"].update(
        checked=sally["checked"], ideals_checked=sally["ideals"], boundary_cases=sally["boundary"]
    )
    return {
        "max_genus": max_genus,
        "n_max": n_max,
        "sally_genus_cap": sally_cap,
        "semigroup_count": total,
        "counts_by_genus": dict(by_genus),
        "checks": checks,
        "violations_total": sum(map(len, msgs.values())),
    }
