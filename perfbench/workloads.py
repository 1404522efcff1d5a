"""The benchmark's workloads: the CLI operations of one run and their checks.

Each workload turns a seed into the operations of one repetition; every
repetition of a run repeats them.  An operation is the argv of one ``stablerings`` command, the
exit code it must return, and a check of its JSON report.  The program sees only the argv and the algebra
files written here; every expected value is computed in this file from the
mathematics, never by calling the program.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional

# OEIS A007323: numerical semigroups of genus 0..12
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592)
SALLY_IDEALS_G12 = 7740  # normalized ideals checked below the Sally genus cap

Check = Callable[[dict], Optional[str]]


@dataclass
class Op:
    argv: list
    rc: int = 0
    check: Optional[Check] = None  # gets the parsed report, returns an error or None


@dataclass
class Workload:
    name: str
    make: Callable  # (seed, workdir, jobs) -> the operations of one repetition
    sweep: bool = False  # the traced run times run_sweep at 1 and at nproc jobs


def verify(op: Op, rc: int, stdout: str) -> Optional[str]:
    """None when the operation returned what it must, else the reason."""
    if rc != op.rc:
        return f"exit {rc}, expected {op.rc}"
    if op.rc != 0:
        return None if stdout == "" else "refused command printed a report"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    return op.check(payload["result"]) if op.check else None


def _expect(**want) -> Check:
    def check(res: dict) -> Optional[str]:
        bad = {k: res.get(k) for k, v in want.items() if res.get(k) != v}
        return f"got {bad}, expected {want}" if bad else None

    return check


# --- semigroup facts computed on the benchmark side --------------------------


def gaps_of(gens) -> list[int]:
    """Gaps of the semigroup generated by ``gens`` (gcd 1), by a membership scan."""
    m = min(gens)
    member = [True]
    run, z = 1 if m == 1 else 0, 0
    while run < m:
        z += 1
        member.append(any(g <= z and member[z - g] for g in gens))
        run = run + 1 if member[z] else 0
    return [x for x, ok in enumerate(member) if not ok]


def _coprime(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    while True:
        gens = sorted(rng.sample(range(lo, hi + 1), k))
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g == 1:
            return gens


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi], one from each of n equal bins (steady total cost)."""
    width = (hi - lo + 1) / n
    return [lo + int((i + rng.random()) * width) for i in range(n)]


def _info_two(a: int, b: int) -> Op:
    # Sylvester: F = ab - a - b and genus = (a-1)(b-1)/2 for coprime a < b
    return Op(
        ["sg", "info", f"{a},{b}", "--json"],
        check=_expect(
            frobenius=a * b - a - b,
            genus=(a - 1) * (b - 1) // 2,
            multiplicity=a,
            embedding_dimension=2,
        ),
    )


def _info_general(gens) -> Op:
    gaps = gaps_of(gens)
    return Op(
        ["sg", "info", _csv(gens), "--json"],
        check=_expect(
            gaps=_csv(gaps),
            genus=len(gaps),
            frobenius=gaps[-1] if gaps else -1,
            multiplicity=min(gens),
        ),
    )


def _ideal(gens, igens) -> Op:
    def check(res: dict) -> Optional[str]:
        mins = [int(v) for v in res["ideal"].split(",")]
        if res["min"] != min(igens) or min(mins) != min(igens):
            return f"ideal minimum {res['min']} != {min(igens)}"
        if res["mu"] != len(mins) or not set(mins) <= set(igens):
            return f"minimal generators {res['ideal']} not a subset of {igens}"
        return None if isinstance(res["stable"], bool) else "no stability verdict"

    return Op(["sg", "ideal", _csv(gens), f"--ideal={_csv(igens)}", "--json"], check=check)


def _tower(gens) -> Op:
    def check(res: dict) -> Optional[str]:
        seq = [int(v) for v in res["multiplicity_sequence"].split(",")]
        ok = (
            res["reached_normalization"] is True
            and res["tower"][-1] == "1"
            and seq[0] == min(gens)
            and seq[-1] == 1
            and res["stabilization_index"] == len(seq) - 1 <= max(len(gaps_of(gens)), 1)
        )
        return None if ok else f"tower {res} of {gens}"

    return Op(["sg", "tower", _csv(gens), "--json"], check=check)


def _two_gen(gens) -> Op:
    m2 = min(gens) <= 2
    return Op(
        ["sg", "two-gen", _csv(gens), "--json"],
        check=_expect(agree=True, mult_le_2=m2, power_two_generated=m2),
    )


def _report(gens) -> Op:
    def check(res: dict) -> Optional[str]:
        bass = min(gens) <= 2
        ok = (
            res["agreement"] is True
            and res["bass"] is bass
            and res["all_stable"] is bass
            and 1 <= res["stable_count"] <= res["ideal_count"]
        )
        return None if ok else f"report {res} of {gens}"

    return Op(["sg", "report", _csv(gens), "--json"], check=check)


# --- algebra families with known classes --------------------------------------


def _unit(d: int, i: int) -> list[int]:
    return [1 if k == i else 0 for k in range(d)]


def _table(d: int, products: dict) -> list:
    """Structure constants with e_0 = 1; products maps (i, j), 1 <= i <= j, to e_i*e_j."""
    table = [[None] * d for _ in range(d)]
    for j in range(d):
        table[0][j] = table[j][0] = _unit(d, j)
    for i in range(1, d):
        for j in range(i, d):
            table[i][j] = table[j][i] = products.get((i, j), [0] * d)
    return table


def _product_fields(field: str, k: int):
    # e_0 = (1, ..., 1), e_i the i-th primitive idempotent: e_i*e_i = e_i
    table = _table(k, {(i, i): _unit(k, i) for i in range(1, k)})
    cls = {1: "BaseField", 2: "FxF"}.get(k, "FxFxF_overF2" if field == "F2" else "NotQuadratic")
    return table, cls, k


def _quadratic(p: int, a0: int, a1: int):
    # F_p[x]/(x^2 - a1 x - a0): a field, F x F or local, by the roots in F_p
    roots = [x for x in range(p) if (x * x - a1 * x - a0) % p == 0]
    cls, k = {0: ("QuadraticFieldExtension", 1), 1: ("LocalSquareZeroMax", 1)}.get(
        len(roots), ("FxF", 2)
    )
    return _table(2, {(1, 1): [a0, a1]}), cls, k


def _cube_truncation(field: str):
    # F[x]/(x^3): x*x = x^2 is outside span{1, x}
    return _table(3, {(1, 1): [0, 0, 1]}), "NotQuadratic", 1


def _square_zero(field: str):
    # F[x, y]/(x, y)^2
    return _table(3, {}), "LocalSquareZeroMax", 1


def _algebra_specs(rng: random.Random, n: int) -> list:
    specs = []
    for field in ("F2", "F3", "F4", "F5"):
        specs += [(field, *_product_fields(field, k)) for k in (1, 2, 3)]
        specs.append((field, _table(2, {}), "LocalSquareZeroMax", 1))  # dual numbers
        specs.append((field, *_cube_truncation(field)))
    specs += [(f, *_square_zero(f)) for f in ("F2", "F3")]
    while len(specs) < n:
        p = rng.choice((2, 3, 5))
        specs.append((f"F{p}", *_quadratic(p, rng.randrange(p), rng.randrange(p))))
    return specs[:n]


def _classify(path: str, field: str, table, cls: str, k: int) -> Op:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"field": field, "dim": len(table), "table": table}, fh)
    return Op(
        ["alg", "classify", path, "--json"],
        check=_expect(field=field, dim=len(table), **{"class": cls}, maximal_ideals=k),
    )


# --- workloads ----------------------------------------------------------------


def _report_gens(rng: random.Random, genus: int) -> list[int]:
    """A semigroup of the given genus for the agreement report; some of multiplicity 2."""
    while True:
        if rng.random() < 0.2:
            gens = [2, 2 * genus + 1]
        else:
            m = rng.randint(3, 12)
            gens = _coprime(rng, rng.randint(2, 4), m, 3 * m)
            if min(gens) != m:
                continue
        if len(gaps_of(gens)) == genus:
            return gens


def make_queries(seed: int, workdir: str, jobs: int) -> list[Op]:
    # the stratified mix keeps the cost steady from seed to seed, and its
    # ~660 distinct commands keep the latency percentiles steady too
    rng = random.Random(seed)
    ops = []
    for _ in range(80):
        a = rng.randint(3, 25)
        b = rng.choice([b for b in range(a + 1, 61) if gcd(a, b) == 1])
        ops.append(_info_two(a, b))
    ops += [_info_general(_coprime(rng, rng.randint(3, 4), 4, 40)) for _ in range(100)]
    # single large objects: from_generators on conductors up to ~17,000
    ops += [_info_two(a, a + 1) for a in _stratified(rng, 48, 60, 130)]
    ops += [_tower(_coprime(rng, rng.randint(2, 4), 3, 30)) for _ in range(40)]
    ops += [_tower([a, a + 1]) for a in _stratified(rng, 63, 20, 40)]  # each a three times
    for _ in range(70):
        gens = _coprime(rng, rng.randint(2, 4), 3, 20)
        igens = sorted(set(rng.randint(-4, 25) for _ in range(rng.randint(1, 3))))
        ops.append(_ideal(gens, igens))
    for i in range(60):
        gens = [2, 2 * rng.randint(1, 15) + 1] if i % 3 == 0 else _coprime(rng, rng.randint(2, 4), 3, 25)
        ops.append(_two_gen(gens))
    ops += [_report(_report_gens(rng, 8 + i % 5)) for i in range(120)]
    for i, spec in enumerate(_algebra_specs(rng, 60)):
        ops.append(_classify(os.path.join(workdir, f"alg{i}.json"), *spec))

    # refused inputs: usage errors exit 2, the genus cap exits 3
    for gens in ("4,6", "6,9,15", "10,14,22"):
        ops.append(Op(["sg", "info", gens, "--json"], rc=2))
    ops.append(Op(["sg", "tower", "3,x", "--json"], rc=2))
    for a in rng.sample(range(7, 12), 3):  # genus (a-1)a/2 > 16
        ops.append(Op(["sg", "report", f"{a},{a + 1}", "--json"], rc=3))
    bad = os.path.join(workdir, "not_commutative.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump({"field": "F2", "dim": 3, "table": _table(3, {})[:2] + [[[0, 0, 1], [0, 1, 0], [0, 0, 0]]]}, fh)
    ops.append(Op(["alg", "classify", bad, "--json"], rc=2))

    rng.shuffle(ops)
    return ops


def _sweep(seed: int, workdir: str, jobs: int) -> list[Op]:
    # deterministic: the seed is not used
    def check(res: dict) -> Optional[str]:
        counts = [res["counts_by_genus"].get(str(g)) for g in range(13)]
        if counts != list(A007323):
            return f"counts_by_genus {counts} != A007323"
        if res["violations_total"] != 0:
            return f"{res['violations_total']} violations"
        got = res["checks"]["sally"]["ideals_checked"]
        return None if got == SALLY_IDEALS_G12 else f"sally ideals_checked {got}"

    argv = ["sweep", "--max-genus", "12", "--jobs", str(jobs), "--json", "--no-timing"]
    return [Op(argv, check=check)]


def _idealization(field: str, prec: int, trials: int, seed: int) -> Op:
    def check(res: dict) -> Optional[str]:
        st = res["stability"]
        ok = res["pass"] is True and st["not_stable"] == 0 and st["trials"] == trials
        return None if ok else f"{field}: pass={res['pass']} stability={ {k: st[k] for k in ('stable', 'not_stable', 'inconclusive')} }"

    argv = ["idealization", "check", "--field", field, "--rank", "3", "--prec", str(prec)]
    argv += ["--trials", str(trials), "--seed", str(seed), "--json", "--no-timing"]
    return Op(argv, check=check)


# the seed goes to the program unchanged, so every repetition does the same work
def _ideal_q(seed: int, workdir: str, jobs: int) -> list[Op]:
    # one trial's cost varies widely with its random ideal (coefficient of
    # variation 0.46 at --prec 40, 0.32 at --prec 16), so many cheaper trials
    # keep a run's cost steady from seed to seed
    return [_idealization("Q", 16, 160, seed)]


def _ideal_fp(seed: int, workdir: str, jobs: int) -> list[Op]:
    return [_idealization(f, 64, 60, seed) for f in ("F2", "F3", "F5")]


# why each workload is here: the "why" lines of BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-g12", _sweep, sweep=True),
        Workload("ideal-q", _ideal_q),
        Workload("ideal-fp", _ideal_fp),
        Workload("queries", make_queries),
    )
}
