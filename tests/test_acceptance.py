"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just printed.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import oracles
from builders import (
    enumerate_f_algebras,
    f4_over_f2_algebra,
    ideal_sum,
    normalized_ideals,
    product_field_algebra,
    translate,
)
from stablerings.idealization import (
    hilbert_lengths,
    make_ring,
    square_zero_prime_check,
    stability_sweep,
)
from stablerings.numsg import enumerate_semigroups, from_generators
from stablerings.quadalg import (
    HandelmanClass,
    classify_handelman,
    is_quadratic_over_base,
    maximal_ideal_count,
)
from stablerings.relideal import (
    blowup_tower,
    end_semigroup,
    is_stable,
    max_ideal,
    minimal_generator_count,
)
from stablerings.ringlab import (
    greither_check,
    max_ideal_chain,
    multiplicity_via_hilbert,
    sally_check,
    stable_ring_report,
    two_generator_check,
)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_big_agreement_sweep():
    started = time.monotonic()
    checked = 0
    disagreements = []
    ideals = stable = max_mu = 0
    for S in enumerate_semigroups(12):
        rep = stable_ring_report(S)
        checked += 1
        ideals += rep["ideal_count"]
        stable += rep["stable_count"]
        max_mu = max(max_mu, rep["max_mu"])
        if not rep["agreement"]:
            disagreements.append(str(S))
    elapsed = time.monotonic() - started
    totals = (ideals, stable, max_mu)
    ok = not disagreements and totals == (514199, 88134, 13) and elapsed < 120.0
    report(
        1,
        ok,
        f"{checked} semigroups, {len(disagreements)} disagreements, "
        f"(ideals, stable, max mu) = {totals}, {elapsed:.1f}s < 120s",
    )


def test_criterion_2_two_generator_biconditional():
    violations = []
    checked = 0
    for S in enumerate_semigroups(12):
        checked += 1
        if not two_generator_check(S, 8, max_ideal_chain(S))["agree"]:
            violations.append(str(S))
    report(2, not violations, f"{checked} semigroups, {len(violations)} violations, exact")


def test_criterion_3_sally_sweep():
    hard = []
    boundary = 0
    ideals = 0
    for S in enumerate_semigroups(8):
        verdicts = sally_check(S, 8)
        for I in normalized_ideals(S):
            # the verdicts are keyed by hole mask, which every translate of I
            # shares, so this is the verdict of the integral I + conductor too
            hypothesis, conclusion = verdicts[I.holes]
            ideals += 1
            if hypothesis and not conclusion:
                hard.append((str(S), I.minimal_generators))
            if hypothesis and I.minimal_generators != (0,):
                boundary += 1
    report(
        3,
        not hard,
        f"{ideals} integral ideals, {len(hard)} hard violations, "
        f"{boundary} fractional boundary cases logged",
    )


def _criterion_4_semigroup(S):
    """Criterion 4 on one semigroup: (ideals checked, mismatches)."""
    M = max_ideal(S)
    checked = 0
    mismatches = []
    census = [0, 0, 0]
    for normalized in normalized_ideals(S):
        for I in (normalized, translate(normalized, S.conductor)):
            lo = I.min_element
            gens = oracles.reduce_generators(
                S, [z for z in range(lo, lo + S.conductor + 1) if I.contains(z)]
            )
            a = is_stable(I)
            b = oracles.is_stable_via_endomorphism(S, gens)
            c = oracles.is_stable_via_search(S, gens)
            checked += 1
            if not (
                a == b == c
                and I.minimal_generators == gens
                and minimal_generator_count(I) == len(gens)
                and end_semigroup(I).gaps() == oracles.endomorphism_gaps(S, gens)
                and ideal_sum(I, M).minimal_generators
                == oracles.ideal_sum(S, gens, S.minimal_generators)
            ):
                mismatches.append((str(S), gens, a, b, c))
            if I is normalized:
                census[0] += 1
                census[1] += b
                census[2] = max(census[2], len(gens))
    rep = stable_ring_report(S)
    if (rep["ideal_count"], rep["stable_count"], rep["max_mu"]) != tuple(census):
        mismatches.append((str(S), "report", census))
    return checked, mismatches


def test_criterion_4_stability_oracle_equivalence():
    # the bitmask core against the tuple oracles, on every normalized ideal
    # and its conductor translate: generators, mu, E(I), I + M, stability;
    # and the ring report's (count, stable count, max mu), read off the
    # masks, against the same totals taken ideal by ideal through the oracles.
    # One semigroup per task over worker processes, merged in enumeration order.
    with multiprocessing.Pool(os.cpu_count()) as pool:
        results = pool.map(_criterion_4_semigroup, list(enumerate_semigroups(10)), chunksize=1)
    checked = sum(n for n, _ in results)
    mismatches = [m for _, found in results for m in found]
    report(
        4,
        not mismatches and checked == 128302,
        f"{checked} ideals (128302 expected), three stability routes, generators, mu, "
        f"E(I), I+M and the ring reports against the oracles, {len(mismatches)} mismatches",
    )


def test_criterion_5_multiplicity_triple_agreement():
    failures = []
    checked = 0
    for S in enumerate_semigroups(12):
        checked += 1
        g = greither_check(stable_ring_report(S))
        if not (S.multiplicity == multiplicity_via_hilbert(S, max_ideal_chain(S)) == g["mu_normalization"]):
            failures.append(str(S))
        if ((g["mu_normalization"] <= 2) != g["bass"]) or not g["agree"]:
            failures.append(str(S))
    report(5, not failures, f"{checked} semigroups, {len(failures)} failures, exact")


def test_criterion_6_tower_properties():
    failures = []
    count = 0
    for S in enumerate_semigroups(12):
        if S.multiplicity != 2:
            continue
        count += 1
        tower = blowup_tower(S)
        sequence = tuple(T.multiplicity for T in tower)
        if sequence != (2,) * S.genus + (1,):
            failures.append(f"{S}: sequence {sequence}")
        if len(tower) - 1 != S.genus or not tower[-1].is_full:
            failures.append(f"{S}: index")
        for i, (cur, nxt) in enumerate(zip(tower, tower[1:])):
            width = cur.conductor + 4
            if cur.members_mask(width) & ~1 != nxt.members_mask(width - 2) << 2:
                failures.append(f"{S}: M_{i} != 2 + S_{i+1}")
    if [t.minimal_generators for t in blowup_tower(from_generators({3, 4, 5}))] != [(3, 4, 5), (1,)]:
        failures.append("<3,4,5> tower")
    report(6, not failures, f"{count} multiplicity-2 semigroups, {len(failures)} failures")


def test_criterion_7_handelman_exhaustion():
    started = time.monotonic()
    classified = 0
    quadratic = 0
    failures = []
    for dim in (1, 2, 3):
        for A in enumerate_f_algebras("F2", dim):
            cls = classify_handelman(A)  # raises Unclassifiable on inconsistency
            classified += 1
            if cls != HandelmanClass.NotQuadratic:
                quadratic += 1
                if maximal_ideal_count(A) > 3:
                    failures.append(f"dim {dim}: {cls}")
    if classify_handelman(product_field_algebra("F2", 3)) != HandelmanClass.FxFxF_overF2:
        failures.append("F2xF2xF2")
    if is_quadratic_over_base(product_field_algebra("F3", 3)):
        failures.append("F3xF3xF3 claimed quadratic")
    if classify_handelman(f4_over_f2_algebra()) != HandelmanClass.QuadraticFieldExtension:
        failures.append("F4/F2")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 60.0
    report(
        7,
        ok,
        f"{classified} valid F2 tables (d<=3), {quadratic} quadratic, "
        f"0 unclassifiable, {elapsed:.1f}s < 60s",
    )


def test_criterion_8_idealization_anchor():
    started = time.monotonic()
    failures = []
    for rank in (1, 2, 3):
        ring = make_ring("F2", rank, 16)
        lengths = dict(enumerate(hilbert_lengths(ring, 6), 1))
        for n in range(2, 7):
            if lengths[n] - lengths[n - 1] != 1 + rank:
                failures.append(f"rank {rank}: slope at n={n}")
        prime = square_zero_prime_check(ring)
        if not (prime["p_squared_zero"] and prime["quotient_is_dvr"]):
            failures.append(f"rank {rank}: square-zero prime")
        res = stability_sweep(ring, trials=100, seed=7)
        if res["not_stable"] != 0 or res["stable"] + res["inconclusive"] != 100:
            failures.append(f"rank {rank}: stability {res['stable']}/{res['not_stable']}")
        if res["inconclusive_rate"] >= 0.05:
            failures.append(f"rank {rank}: inconclusive rate {res['inconclusive_rate']}")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 30.0
    report(8, ok, f"ranks 1-3, 100 trials each, {failures or 'all stable'}, {elapsed:.1f}s < 30s")


def test_criterion_9_cli_determinism():
    argv = [
        sys.executable, "-m", "stablerings",
        "sweep", "--max-genus", "10", "--seed", "1", "--no-timing", "--json",
    ]
    outputs = []
    for jobs in ("1", "2", "4"):
        proc = subprocess.run(
            argv + ["--jobs", jobs], capture_output=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0])
    ok = ok and payload["result"]["violations_total"] == 0
    report(
        9,
        ok,
        f"3 runs (jobs 1/2/4) byte-identical: {len(outputs[0])} bytes, "
        f"violations {payload['result']['violations_total']}",
    )
