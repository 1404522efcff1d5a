"""The exhaustive invariant suite over enumerated semigroups.

One worker analyzes one semigroup: the stable/quadratic/Bass agreement over
all its normalized ideals, the two-generated-power biconditional, the
normalization generator count, minimal multiplicity, the multiplicity triple
(least element vs Hilbert slope vs normalization generators), blow-up tower
behavior, and (below the Sally genus cap) the two-generated-power
implication over every normalized ideal, whose verdict is the same for
every translate of the ideal.

The census counts and the blow-up tower's multiplicity sequence of each
semigroup come from one memo pass in the parent process, keyed by gap mask
and run in enumeration order: S's parent S + {F(S)} has genus one less and
its blow-up E(M) a smaller genus, so their entries are already there.  S's
entry costs one top-level step of the census recurrences and a few shifts
for the gap mask of E(M); the pass builds no semigroup, and it keeps counts
only for the genus below.  Each task carries S, its counts and its
sequence, and the workers run only the checks that stay per semigroup: the
three checks on the powers of M read one chain, the tower's members are
built only for multiplicity 2 (one semigroup per genus), and the Sally pass
runs on the bare hole masks of the normalized ideals.  The pool is forked
before the pass starts, so the workers do not inherit the memo, and the
pass feeds the pool lazily, overlapping the workers.

The semigroups stream from the enumeration into the pass, which holds none
of them.  Results merge in enumeration order as they arrive, so the
aggregate report is byte-stable regardless of worker count and no record
outlives its merge.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import chain
from multiprocessing import Pool

from . import ringlab
from .errors import CapExceeded
from .numsg import NumericalSemigroup, enumerate_semigroups
from .relideal import RelativeIdeal, _blowup_gap_mask, _census_counts, _normalized_holes, blowup_tower

SALLY_GENUS_CAP = 8
# `sweep --max-genus 16 --n-max 32 --sally-genus-cap C` takes 16 s at C = 14
# and 56 s at C = 15 on a 2-core 2.1 GHz Xeon with Python 3.11.7, and 25 s at
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
    sequence: tuple[int, ...] | None = None,
) -> dict:
    """Run every per-semigroup check; violations come back verbatim.

    ``counts`` and ``sequence`` are S's census counts and the multiplicity
    sequence of its blow-up tower, from the sweep's memo pass; without them
    they are derived here.  ``run_sweep`` checks ``n_max``.
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

    chain = ringlab._max_ideal_chain(S)  # M, 2M, ...: read by the next three checks
    two = ringlab._two_generator(S, n_max, chain)
    if not two["agree"]:
        flag("two_generator", f"power_two_generated={two['power_two_generated']} mult_le_2={two['mult_le_2']}")

    gre = ringlab._greither(S, report.max_mu, report.quadratic_over_normalization)
    if not gre["agree"] or not gre["quadratic_when_two_generated"]:
        flag("greither", f"{gre}")

    mm = ringlab._minimal_multiplicity(S, chain)
    if not mm["ok"]:
        flag("minimal_multiplicity", f"{mm}")

    via_hilbert = ringlab._hilbert_multiplicity(S, chain)
    if not (S.multiplicity == via_hilbert == gre["mu_normalization"]):
        flag(
            "multiplicity_triple",
            f"m={S.multiplicity} hilbert={via_hilbert} mu_norm={gre['mu_normalization']}",
        )

    sequence = sequence or blowup_tower(S).multiplicity_sequence
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
        tower = blowup_tower(S).tower
        for i, (cur, nxt) in enumerate(zip(tower, tower[1:])):
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
        ideals = _normalized_holes(S)
        boundary = 0
        principal = S.gap_mask  # S itself, whose only generator is min(I) = 0
        for holes in ideals:
            res = ringlab._sally(S, holes, n_max)
            if not res["ok"]:
                flag("sally", f"ideal {RelativeIdeal(S, 0, holes).minimal_generators}: {res}")
            if res["hypothesis"] and holes != principal:
                boundary += 1
        out["sally"] = {"ideals": len(ideals), "boundary": boundary}
    return out


def _worker(args) -> dict:
    return analyze_semigroup(*args)


def _tasks(semigroups, n_max: int, sally_cap: int):
    """The memo pass: each semigroup's task with its census counts and multiplicity sequence.

    ``semigroups`` come genus by genus.  The counts of S come from those of
    its tree parent S + {F(S)}, of genus one less, so only the genus below
    keeps its counts.  The sequence of S is its multiplicity followed by the
    sequence of E(M), of smaller genus, found by its gap mask.
    """
    below: dict[int, tuple[int, int]] = {}
    level: dict[int, tuple[int, int]] = {}
    sequences: dict[int, tuple[int, ...]] = {}
    genus = 0
    for S in semigroups:
        if S.genus != genus:
            genus, below, level = S.genus, level, {}
        gaps = S.gap_mask
        if S.is_full:
            counts, sequence = _census_counts(S), (1,)
        else:
            counts = _census_counts(S, below[gaps ^ 1 << S.frobenius])
            sequence = (S.multiplicity,) + sequences[_blowup_gap_mask(S)]
        level[gaps] = counts
        sequences[gaps] = sequence
        yield S, n_max, sally_cap, counts, sequence


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
