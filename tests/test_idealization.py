"""Truncated idealization rings: series, reduction, stability, lengths."""

import hashlib
import json
import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerings import cli, idealization
from stablerings.errors import (
    BadPrecision,
    BadRank,
    EmptyInput,
    NotRegular,
    PrecisionTooLow,
    UnsupportedField,
)
from stablerings.idealization import (
    DOMAINS,
    IdealizationRing,
    TruncatedSeries,
    hilbert_lengths,
    ideal_from_generators,
    is_stable_ideal,
    make_ring,
    reduce_rows,
    series_class,
    square_zero_prime_check,
    stability_sweep,
)
from stablerings.idealization import (
    _in_module,
    _is_zero,
    _products,
    _random_element,
    _random_p_element,
    _random_regular_generators,
    _random_series,
    _square,
)

import oracles
from builders import element, ideal_power, ideal_product, series
from oracles import k_dimension


R1 = make_ring("F2", 1, 16)
R2 = make_ring("F2", 2, 16)
RQ = make_ring("Q", 3, 8)


def test_series_basic_arithmetic():
    s = series(R1, [1, 1])
    assert s.valuation() == 0
    assert oracles.dense(s * s)[:3] == (1, 0, 1)
    t = series(R1, [0, 1])
    assert t.valuation() == 1
    assert (t * t).valuation() == 2
    assert not any(series(R1, []))
    assert series(R1, []).valuation() == R1.prec


def test_series_valuation_additivity():
    rng = random.Random(11)
    for _ in range(50):
        a = _random_element(RQ, rng, regular=False)[0]
        b = _random_element(RQ, rng, regular=False)[0]
        if a.valuation() + b.valuation() < RQ.prec:
            assert (a * b).valuation() == a.valuation() + b.valuation()


def test_rational_coefficients_are_exact():
    big = 2**64 + 1
    a = series(RQ, [big, -3 * big])
    b = dict(a * a)
    assert b[0] == big**2
    assert b[1] == -6 * big**2


def test_make_ring_guards():
    with pytest.raises(BadRank):
        make_ring("F2", 0, 16)
    with pytest.raises(BadPrecision):
        make_ring("F2", 1, 3)
    with pytest.raises(UnsupportedField):
        make_ring("F7", 1, 16)
    with pytest.raises(BadRank):  # the rank is refused first, then the precision, then the field
        make_ring("F7", 0, 3)
    make_ring("Q", 3, 8)  # valid


@pytest.mark.parametrize("field", ["F2", "F3", "F5", "Q"])
def test_monomial_matches_dense_builder(field):
    # t^k in component c, zero elsewhere, and zero from t^N on
    ring = make_ring(field, 2, 8)
    for c in range(3):
        for k in range(10):
            coeffs = [[0] * k + [1] if i == c else [] for i in range(3)]
            assert ring.monomial(c, k) == element(ring, coeffs[0], coeffs[1:])
    assert _is_zero(ring.monomial(1, 8)) and _is_zero(ring.monomial(0, 9))


def test_multiplication_law_examples():
    t = R1.monomial(0, 1)
    e1 = R1.monomial(1, 0)
    p = R1.mul(t, e1)
    assert not any(p[0]) and p[1] == series(R1, [0, 1])

    # P squares to zero elementwise
    x = element(R1, [], [[1, 1, 0, 1]])
    y = element(R1, [], [[0, 1]])
    assert _is_zero(R1.mul(x, y))

    a = element(R2, [1, 1], [[1], []])
    b = element(R2, [1], [[], [1]])
    assert R2.mul(a, b) == (series(R2, [1, 1]), series(R2, [1]), series(R2, [1, 1]))


def test_regularity_flags():
    # a nonzerodivisor has a nonzero V-component; the stability test needs one below N/2
    assert R1.monomial(0, 1)[0].valuation() < R1.prec // 2
    assert not any(R1.monomial(1, 0)[0])
    with pytest.raises(NotRegular):
        is_stable_ideal(R1, [R1.monomial(1, 0)])
    with pytest.raises(NotRegular):
        is_stable_ideal(R1, [])
    half = R1.prec // 2
    with pytest.raises(NotRegular):
        is_stable_ideal(R1, [R1.monomial(1, 0), R1.monomial(0, half)])
    assert is_stable_ideal(R1, [R1.monomial(1, 0), R1.monomial(0, half - 1)])["margin"] == half


def test_ideal_reduction_examples():
    # principal (t, 0): module rows (t,0) and (0,t), both pivots at valuation 1
    I = ideal_from_generators(R1, [R1.monomial(0, 1)])
    assert [v for _, v in I] == [1, 1]

    unit = ideal_from_generators(R1, [R1.monomial(0, 0)])
    assert [v for _, v in unit] == [0, 0]

    J = [R1.monomial(1, 0)]
    assert len(ideal_from_generators(R1, J)) == 1
    with pytest.raises(NotRegular):
        is_stable_ideal(R1, J)

    with pytest.raises(EmptyInput):
        ideal_from_generators(R1, [])


def test_pivot_valuations_nondecreasing():
    rng = random.Random(5)
    for _ in range(60):
        gens = [_random_element(R2, rng, regular=False) for _ in range(3)]
        if all(map(_is_zero, gens)):
            continue
        pivots = ideal_from_generators(R2, gens)
        vals = [v for _, v in pivots]
        assert vals == sorted(vals)
        cols = [c for c, _ in pivots]
        assert len(cols) == len(set(cols))


def test_membership_of_generators_and_idempotence():
    rng = random.Random(3)
    for _ in range(60):
        gens = [_random_element(R2, rng, regular=False) for _ in range(2)]
        if all(map(_is_zero, gens)):
            continue
        got = ideal_from_generators(R2, gens)
        rows = oracles.ideal_rows(R2, gens)
        basis, pivots = oracles.reduce_rows(R2, rows)
        assert pivots == got
        for g in gens:
            for x in (g, R2.mul(g, R2.monomial(0, 1))):
                # a member leaves the pivots unchanged
                assert reduce_rows(R2, rows + [x]) == got
                assert oracles.contains_row(basis, pivots, x)
        assert reduce_rows(R2, basis) == got
        assert oracles.reduce_rows(R2, basis) == (basis, pivots)


def _pivots_and_canonical(gens):
    """The pivots of the ideal of gens, and its canonical basis and pivots from the series oracle."""
    return ideal_from_generators(R2, gens), oracles.ideal_basis(R2, gens)


def test_reduction_canonical_across_generating_sets():
    rng = random.Random(9)
    unit = element(R2, [1, 0, 1])
    for _ in range(40):
        gens = [_random_element(R2, rng, regular=True) for _ in range(2)]
        other = [R2.mul(unit, gens[1]), gens[0], oracles.row_add(gens[0], gens[1])]
        assert _pivots_and_canonical(gens) == _pivots_and_canonical(other)


def test_product_commutative_associative():
    rng = random.Random(17)
    for _ in range(15):
        A = [_random_element(R2, rng, True)]
        B = [_random_element(R2, rng, True), _random_element(R2, rng, False)]
        C = [_random_element(R2, rng, True)]
        AB, BA = ideal_product(R2, A, B), ideal_product(R2, B, A)
        assert _pivots_and_canonical(AB) == _pivots_and_canonical(BA)
        left, right = ideal_product(R2, AB, C), ideal_product(R2, A, ideal_product(R2, B, C))
        assert _pivots_and_canonical(left) == _pivots_and_canonical(right)


def test_stability_examples():
    v = is_stable_ideal(R1, [R1.monomial(0, 1), R1.monomial(1, 0)])
    assert v["stable"] is True
    assert v["witness_valuation"] == 1
    assert v["margin"] == 8

    v = is_stable_ideal(R1, [R1.monomial(0, 0)])
    assert v["stable"] is True and v["witness_valuation"] == 0

    with pytest.raises(NotRegular):
        is_stable_ideal(R1, [R1.monomial(1, 0)])


def test_stability_verdict_payload():
    payload = is_stable_ideal(R1, [R1.monomial(0, 1)])
    assert payload == {"stable": True, "witness_valuation": 1, "margin": 8}


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_stability_small_sweeps(rank):
    ring = make_ring("F2", rank, 16)
    res = stability_sweep(ring, 30, seed=7)
    assert res["trials"] == 30
    assert res["not_stable"] == 0
    assert res["inconclusive_rate"] < 0.05
    assert len(res["per_trial"]) == 30


def test_sweep_is_seed_deterministic():
    ring = make_ring("F3", 2, 16)
    assert stability_sweep(ring, 12, seed=5) == stability_sweep(ring, 12, seed=5)


# sha256 of the sorted-key JSON of stability_sweep(make_ring(F, 2, 16), 40, seed=11),
# recorded from the Fraction-coefficient implementation this one replaced
SWEEP_GOLDEN = {
    "F2": "eccdbc4468cb790969c221abb8b46ea8f04497cbfed85d959caf42e9260f7cc5",
    "F3": "bf0333173f5289b60859731020d8253e055dc24ccedc93a2c540d1ba67a12a43",
    "F5": "1978ffcfe64225e8bea194e0a51e1652fdecb1ad5591227b14a81d0bd84622ce",
    "Q": "310f835a6f3f933e8e20933ae0b792cf9fb7d9852a02186d17901e21f05ba308",
}


@pytest.mark.parametrize("field", sorted(SWEEP_GOLDEN))
def test_sweep_golden_verdicts(field):
    res = stability_sweep(make_ring(field, 2, 16), 40, seed=11)
    digest = hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest()
    assert digest == SWEEP_GOLDEN[field]


@pytest.mark.parametrize("field", ["F2", "F3", "F5", "Q"])
def test_sweep_matches_reduced_trial_ideals(field):
    # the sweep compares pivots; the oracle compares the canonical bases of I^2 and x*I
    ring = make_ring(field, 3, 12)
    rng = random.Random(19)
    expected = [oracles.witness_verdict(ring, _random_regular_generators(ring, rng)) for _ in range(40)]
    assert stability_sweep(ring, 40, seed=19)["per_trial"] == expected
    # F2 draws no inconclusive trial here; test_witness_candidates_lie_in_square covers it
    assert {p["stable"] for p in expected} >= ({True} if field == "F2" else {True, None})


def test_stability_sweeps_other_coefficient_fields():
    for field in ("F3", "F5", "Q"):
        ring = make_ring(field, 2, 16)
        res = stability_sweep(ring, 40, seed=11)
        assert res["not_stable"] == 0, (field, res)
        assert res["inconclusive_rate"] < 0.05, (field, res)


@pytest.mark.parametrize(
    "rank, n, expected", [(1, 1, 1), (2, 3, 7), (3, 2, 5)]
)
def test_hilbert_length_examples(rank, n, expected):
    ring = make_ring("F2", rank, 16)
    assert hilbert_lengths(ring, n)[-1] == expected


def test_hilbert_length_formula_all_fields():
    for field in ("F2", "F3", "F5", "Q"):
        ring = make_ring(field, 2, 12)
        for n in range(1, 7):
            assert hilbert_lengths(ring, n)[-1] == 3 * n - 2


@pytest.mark.parametrize("field", ["F2", "F3", "F5", "Q"])
def test_length_from_pivots_matches_k_elimination(field):
    p = DOMAINS[field]
    rng = random.Random(31)
    for rank in (1, 2, 3):
        for prec in (6, 10, 16):
            ring = make_ring(field, rank, prec)
            ideals = []
            while len(ideals) < 25:
                gens = [
                    _random_element(ring, rng, regular=rng.random() < 0.5)
                    for _ in range(rng.randint(1, 3))
                ]
                if not all(map(_is_zero, gens)):
                    ideals.append(gens)
            powers = [ideal_power(ring, ring.maximal_ideal(), n) for n in range(1, prec // 2 + 1)]
            # the k-dimension of the span of every (v, l) and (0, v*e_k) row
            dims = [k_dimension(oracles.ideal_rows(ring, I), p) for I in ideals + powers]
            for I, dim in zip(ideals, dims):
                assert sum(prec - v for _, v in ideal_from_generators(ring, I)) == dim
            for n, dim in enumerate(dims[len(ideals) :], 1):
                assert hilbert_lengths(ring, n)[-1] == (1 + rank) * prec - dim


def test_hilbert_length_guard():
    with pytest.raises(PrecisionTooLow):
        hilbert_lengths(R1, 9)
    with pytest.raises(PrecisionTooLow):
        hilbert_lengths(make_ring("F2", 1, 4), 3)


def test_square_zero_prime_check():
    for ring in (R1, R2, RQ, make_ring("F5", 2, 8)):
        assert square_zero_prime_check(ring) == {
            "p_squared_zero": True,
            "quotient_is_dvr": True,
        }


def test_maximal_ideal_power_structure():
    # M^n = t^n V + t^(n-1) L: pivot valuations n, then n-1 repeated
    for rank in (1, 2):
        ring = make_ring("F2", rank, 16)
        units = [[[1] if c == k else [] for c in range(rank)] for k in range(rank)]
        assert ring.maximal_ideal() == [element(ring, [0, 1])] + [element(ring, [], ell) for ell in units]
        for n in (1, 2, 3):
            P = ideal_from_generators(ring, ideal_power(ring, ring.maximal_ideal(), n))
            vals = sorted(v for _, v in P)
            assert vals == sorted([n] + [n - 1] * rank)


def test_random_regular_ideal_is_regular():
    rng = random.Random(23)
    for _ in range(30):
        g1, _ = _random_regular_generators(R2, rng)
        assert g1[0].valuation() < R2.prec // 2


def test_series_class_guard():
    message = r"^supported coefficient domains are \['F2', 'F3', 'F5', 'Q'\], not 'F11'$"
    with pytest.raises(UnsupportedField, match=message):
        series_class("F11", 16)


FIELDS = ("F2", "F3", "F5", "Q")


def _check_ring_law(ring, rng):
    """Commutativity, associativity and the identity (1, 0) on 16 seeded triples of elements."""
    mul, one = ring.mul, ring.monomial(0, 0)
    for _ in range(16):
        a, b, c = (_random_element(ring, rng, regular=False) for _ in range(3))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(one, a) == a


@pytest.mark.parametrize("field", FIELDS)
def test_ring_law_grid(field):
    for rank in (1, 3, 8):
        for prec in (4, 16, 256):
            _check_ring_law(make_ring(field, rank, prec), random.Random(0xA11CE))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(1, idealization.RANK_CAP),
    st.integers(4, idealization.PREC_CAP),
    st.integers(0, 2**32 - 1),
)
def test_ring_law_admitted_shapes(field, rank, prec, seed):
    _check_ring_law(make_ring(field, rank, prec), random.Random(seed))


def _random_row(ring, rng, top):
    return tuple(
        _random_series(ring, rng, (0, top)) if rng.random() < 0.7 else series(ring, [])
        for _ in range(1 + ring.rank)
    )


def _integral(row):
    """The row times the lcm of its coefficients' denominators, a unit of V: the same span, integer coefficients."""
    den = lcm(*(c.denominator for s in row for _, c in s))
    return tuple(type(s)((e, int(c * den)) for e, c in s) for s in row)


def _random_rows(ring, rng, kinds=None):
    """A row set with random rows, all-zero rows, rows tying on their pivot
    (valuation, column) and reduced rows, whose oracle coefficients over Q
    are Fractions, with their denominators cleared."""
    top = rng.choice([2, ring.prec // 2, ring.prec])
    rows = []
    if rng.random() < 0.25:
        gens = [_random_element(ring, rng, regular=rng.random() < 0.5) for _ in range(2)]
        if not all(map(_is_zero, gens)):
            basis = oracles.ideal_basis(ring, gens)[0]
            basis += oracles.ideal_basis(ring, [ring.mul(a, b) for a in gens for b in gens])[0]
            rows += map(_integral, basis)
            if kinds is not None:
                kinds["reduced"] += 1
                kinds["cleared"] += any(c.denominator > 1 for row in basis for s in row for _, c in s)
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.1:
            rows.append((series(ring, []),) * (1 + ring.rank))
            kind = "zero"
        elif kind < 0.35 and rows:
            # adding t^(v+1) * anything keeps the (valuation, column) of the row's minimum
            base = rng.choice(rows)
            v = min(s.valuation() for s in base)
            if v + 1 >= ring.prec:
                continue
            shift = series(ring, [0] * (v + 1) + [1])
            extra = _random_row(ring, rng, top)
            rows.append(oracles.row_add(base, tuple(shift * b for b in extra)))
            kind = "tie"
        else:
            rows.append(_random_row(ring, rng, top))
            kind = "random"
        if kinds is not None:
            kinds[kind] += 1
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", FIELDS)
def test_reduce_rows_matches_series_oracle(field):
    # 4 x 260 row sets, ranks 1-4, precisions 6-40
    rng = random.Random(41)
    kinds = dict.fromkeys(("zero", "tie", "random", "reduced", "cleared"), 0)
    memberships = set()
    for _ in range(260):
        rank, prec = rng.randint(1, 4), rng.randint(6, 40)
        ring = IdealizationRing(series_class(field, prec), rank)
        rows = _random_rows(ring, rng, kinds)
        pivots = reduce_rows(ring, rows)
        basis, expected = oracles.reduce_rows(ring, rows)
        assert pivots == expected
        t = series(ring, [0, 1])
        for probe in (rng.choice(rows), tuple(t * s for s in rng.choice(rows)),
                      _random_row(ring, rng, ring.prec)):
            member = reduce_rows(ring, rows + [probe]) == pivots
            assert member == oracles.contains_row(basis, pivots, probe)
            memberships.add(member)
    assert all(n for kind, n in kinds.items() if kind != "cleared"), kinds
    assert memberships == {True, False}
    assert kinds["cleared"] or field != "Q"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(6, 24), st.randoms(use_true_random=False))
def test_reduce_rows_is_canonical(field, rank, prec, rnd):
    # permuting the rows and multiplying each by a unit of V spans the same module
    ring = IdealizationRing(series_class(field, prec), rank)
    rows = _random_rows(ring, rnd)
    expected = reduce_rows(ring, rows)
    rnd.shuffle(rows)
    d = ring.domain
    scaled = []
    for row in rows:
        lead = d.rand_nonzero(rnd) if d.p else d.rand_nonzero(rnd) * rnd.randint(1, 5)
        unit = series(ring, [lead] + [d.rand(rnd) for _ in range(rnd.randint(0, 4))])
        scaled.append(tuple(unit * s for s in row))
    assert reduce_rows(ring, scaled) == expected
    assert oracles.reduce_rows(ring, scaled) == oracles.reduce_rows(ring, rows)


def _random_generators(ring, rng, kinds):
    """1-3 generators, among them all-zero ones, ones with a zero V-component
    and ones tying the V-valuation of an earlier one."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.1:
            g, kind = element(ring, []), "zero"
        elif kind < 0.35:
            ell = tuple(_random_series(ring, rng) for _ in range(ring.rank))
            g, kind = (series(ring, []), *ell), "zero_v"
        elif kind < 0.55 and gens and min(h[0].valuation() for h in gens) < ring.prec:
            v = rng.choice([h[0].valuation() for h in gens if h[0].valuation() < ring.prec])
            unit = _random_series(ring, rng, (0, 0))
            g = _random_element(ring, rng, regular=False)
            g, kind = (series(ring, [0] * v + [1]) * unit, *g[1:]), "tie"
        else:
            g, kind = _random_element(ring, rng, regular=rng.random() < 0.5), "random"
        gens.append(g)
        kinds[kind] += 1
    return gens


@pytest.mark.parametrize("field", FIELDS)
def test_ideal_rows_match_per_generator_rows(field):
    # one set of rows (0, t^a*e_k) per ideal spans what (0, v*e_k) per generator does
    rng = random.Random(43)
    kinds = dict.fromkeys(("zero", "zero_v", "tie", "random", "no_l_rows"), 0)
    for _ in range(150):
        rank, prec = rng.randint(1, 4), rng.randint(6, 40)
        ring = IdealizationRing(series_class(field, prec), rank)
        gens = _random_generators(ring, rng, kinds)
        kinds["no_l_rows"] += all(not any(g[0]) for g in gens)
        # the rows of I lie in the ring ideal, so equal pivots mean equal modules
        assert ideal_from_generators(ring, gens) == reduce_rows(ring, oracles.ideal_rows(ring, gens))
        # the stability test's I^2, from unordered pairs, against the product of all pairs
        assert _square(ring, _products(ring, gens)) == ideal_from_generators(ring, ideal_product(ring, gens, gens))
    assert all(kinds.values()), kinds


def _signature(pivots, margin: int):
    """The pivots, or None when some pivot valuation reaches the margin, as ``is_stable_ideal`` trusts them."""
    return None if any(v >= margin for _, v in pivots) else pivots


@pytest.mark.parametrize("field", FIELDS)
def test_witness_candidates_lie_in_square(field):
    # xI lies inside I^2, so comparing pivots decides what comparing canonical bases does
    rng = random.Random(47)
    cases = dict.fromkeys(("equal", "rejected", "unclear"), 0)
    for _ in range(40):
        rank, prec = rng.randint(1, 3), rng.choice([8, 12, 16])
        ring = IdealizationRing(series_class(field, prec), rank)
        gens = _random_regular_generators(ring, rng) + [_random_element(ring, rng, regular=False)]
        gens = gens[: rng.randint(2, 3)]
        margin = ring.prec // 2
        squares = [ring.mul(a, b) for a in gens for b in gens]
        basis, pivots = oracles.ideal_basis(ring, squares)
        square_sig = _signature(_square(ring, _products(ring, gens)), margin)
        expected_sig = oracles.margin_signature(ring, squares, margin)
        for x in oracles.witness_candidates(gens):
            products = [ring.mul(x, g) for g in gens]
            for row in oracles.ideal_rows(ring, products):
                assert oracles.contains_row(basis, pivots, row)
            sig = _signature(ideal_from_generators(ring, products), margin)
            oracle_sig = oracles.margin_signature(ring, products, margin)
            assert (sig is None or square_sig is None) == (oracle_sig is None or expected_sig is None)
            if oracle_sig is None or expected_sig is None:
                cases["unclear"] += 1
            else:
                assert (sig == square_sig) == (oracle_sig == expected_sig)
                cases["equal" if sig == square_sig else "rejected"] += 1
        # I^2 = gI exactly for the least-valuation generator g, which is the witness
        g = min(gens, key=lambda h: h[0].valuation())
        assert ideal_from_generators(ring, [ring.mul(g, h) for h in gens]) == _square(ring, _products(ring, gens))
        payload = is_stable_ideal(ring, gens)
        assert oracles.witness_verdict(ring, gens) == payload
        if payload["stable"]:
            assert payload["witness_valuation"] == g[0].valuation()
    assert all(cases.values()), cases


def _table_with(key, element):
    """A stand-in for ``_products`` whose table holds ``element`` at ``key``."""
    products = idealization._products
    return lambda ring, gens: {**products(ring, gens), key: element}


def test_mismatch_with_square_is_not_stable(monkeypatch):
    # I^2 = gI is proved, so only a fault puts a product outside gI; the verdict must still report it
    monkeypatch.setattr(idealization, "_products", _table_with((1, 1), R1.monomial(0, 0)))
    verdict = is_stable_ideal(R1, [R1.monomial(0, 1), R1.monomial(1, 0)])
    assert verdict["stable"] is False and verdict["witness_valuation"] is None
    # t^9 lies outside gI = (t^10, t^5*e_1), and I^2 then has the pivot t^9 past the margin 8
    monkeypatch.setattr(idealization, "_products", _table_with((1, 1), R1.monomial(0, 9)))
    verdict = is_stable_ideal(R1, [R1.monomial(0, 5), R1.monomial(1, 0)])
    assert verdict["stable"] is None and verdict["witness_valuation"] is None
    # t^7 lies outside gI too, whose pivot t^10 reaches the margin, but I^2 = (t^7, t^5*e_1) does not:
    # the verdict must come from I^2
    monkeypatch.setattr(idealization, "_products", _table_with((1, 1), R1.monomial(0, 7)))
    verdict = is_stable_ideal(R1, [R1.monomial(0, 5), R1.monomial(1, 0)])
    assert verdict["stable"] is False and verdict["witness_valuation"] is None


def _factors(ring, rng):
    """Random ring elements: regular and not, in P, zero, and over Q with coefficients past 2**64."""
    out = [_random_element(ring, rng, regular=rng.random() < 0.5) for _ in range(4)]
    out += [_random_p_element(ring, rng), element(ring, []), ring.monomial(0, 0), ring.monomial(0, ring.prec - 1)]
    if ring.domain.p is None:
        out.append(element(ring, [2**64 + 1, 0, -(2**65 + 7)], [[0, 5 * 2**64]] * ring.rank))
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_fused_product_matches_definition(field):
    # each module part v1*l2 + v2*l1 is one pass of the kernel; the oracle adds two series products
    rng = random.Random(53)
    for rank in (1, 2, 3):
        for prec in (4, 5, 16):
            ring = make_ring(field, rank, prec)
            xs = _factors(ring, rng)
            for a in xs:
                for b in xs:
                    assert ring.mul(a, b) == oracles.ring_product(a, b)
                    assert ring.mul(a, b)[0] == oracles.series_product(a[0], b[0])


@pytest.mark.parametrize("field", FIELDS)
def test_series_mul_counts_ring_products(field, monkeypatch):
    # perfbench's tracer counts ring products by patching TruncatedSeries.__mul__ by name,
    # which a field class that defined its own __mul__ would bypass
    assert "__mul__" not in vars(series_class(field, 8))
    calls = []
    series_mul = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: calls.append(1) or series_mul(a, b))
    ring = make_ring(field, 2, 8)
    xs = _factors(ring, random.Random(61))
    for a in xs:
        for b in xs:
            calls.clear()
            assert ring.mul(a, b) == oracles.ring_product(a, b)
            assert len(calls) == 1


@pytest.mark.parametrize("field", FIELDS)
def test_product_table_gives_square_and_g_times_i(field, monkeypatch):
    # is_stable_ideal reduces g*I, g's row of the product table, once and tests the other
    # products for membership in it; I^2 is reduced from the whole table only when one fails
    reduced = []
    monkeypatch.setattr(idealization, "ideal_from_generators",
                        lambda ring, gens: reduced.append(gens) or ideal_from_generators(ring, gens))
    rng = random.Random(59)
    cases = dict.fromkeys(("g_not_first", "unclear", "fault"), 0)
    for _ in range(30):
        ring = make_ring(field, rng.randint(1, 3), rng.choice([6, 8, 12, 16]))
        gens = _random_regular_generators(ring, rng) + [_random_element(ring, rng, regular=False)]
        gens = gens[: rng.randint(1, 3)]
        rng.shuffle(gens)
        k = min(range(len(gens)), key=lambda j: gens[j][0].valuation())
        g = gens[k]
        reduced.clear()
        verdict = is_stable_ideal(ring, gens)
        assert reduced == [[ring.mul(g, h) for h in gens]]
        if verdict["stable"] is None:
            cases["unclear"] += 1
        else:
            assert verdict["stable"] is True and verdict["witness_valuation"] == g[0].valuation()
            cases["g_not_first"] += k != 0
        if len(gens) > 1 and g[0].valuation() > 0:
            # a unit outside g's row is no member of g*I, whose V-components lie in t^(2v(g))V
            j = (k + 1) % len(gens)
            table = {**_products(ring, gens), (j, j): ring.monomial(0, 0)}
            with monkeypatch.context() as m:
                m.setattr(idealization, "_products", lambda ring, gens: table)
                reduced.clear()
                verdict = is_stable_ideal(ring, gens)
            assert reduced[1:] == [list(dict.fromkeys(table.values()))]
            assert verdict["stable"] is False and verdict["witness_valuation"] is None
            cases["fault"] += 1
    assert all(cases.values()), cases


def _span_member(ring, rng, rows):
    """A V-combination of the rows, times a unit of V, whose lead over Q is not a unit of the integers."""
    d = ring.domain
    out = element(ring, [])
    for row in rows:
        c = _random_series(ring, rng, (0, ring.prec))
        out = oracles.row_add(out, tuple(c * s for s in row))
    lead = d.rand_nonzero(rng) if d.p else d.rand_nonzero(rng) * rng.randint(2, 5)
    unit = series(ring, [lead] + [d.rand(rng) for _ in range(rng.randint(0, 3))])
    return tuple(unit * s for s in out)


@pytest.mark.parametrize("field", FIELDS)
def test_membership_matches_contains_row_oracle(field):
    # the stability test's membership check, against reduction by the canonical basis
    rng = random.Random(67)
    kinds = dict.fromkeys(("zero", "member", "other_in", "other_out"), 0)
    for _ in range(120):
        rank, prec = rng.randint(1, 3), rng.randint(4, 24)
        ring = IdealizationRing(series_class(field, prec), rank)
        rows = _random_rows(ring, rng)
        pivots = reduce_rows(ring, rows)
        basis, expected = oracles.reduce_rows(ring, rows)
        assert pivots == expected and len(pivots.rows) == len(pivots)
        zero = element(ring, [])
        assert _in_module(ring, pivots, zero) and oracles.contains_row(basis, expected, zero)
        kinds["zero"] += 1
        member = _span_member(ring, rng, rows)
        assert _in_module(ring, pivots, member) and oracles.contains_row(basis, expected, member)
        kinds["member"] += 1
        t = series(ring, [0, 1])
        for probe in (_random_row(ring, rng, ring.prec), tuple(t * s for s in member),
                      oracles.row_add(member, _random_row(ring, rng, rng.choice([2, ring.prec])))):
            inside = oracles.contains_row(basis, expected, probe)
            assert _in_module(ring, pivots, probe) == inside
            kinds["other_in" if inside else "other_out"] += 1
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("field", FIELDS)
def test_stability_matches_old_pivot_comparison(field):
    # the membership test against the comparison of the pivots of I^2 and g*I that it replaced
    rng = random.Random(71)
    kinds = dict.fromkeys(("zero", "zero_v", "tie", "random"), 0)
    verdicts = dict.fromkeys((True, None, "not_regular"), 0)
    for _ in range(100):
        rank, prec = rng.randint(1, 3), rng.choice([4, 5, 6, 8, 9, 12, 16])
        ring = IdealizationRing(series_class(field, prec), rank)
        gens = _random_generators(ring, rng, kinds)
        if min(g[0].valuation() for g in gens) >= ring.prec // 2:
            with pytest.raises(NotRegular):
                is_stable_ideal(ring, gens)
            verdicts["not_regular"] += 1
            continue
        payload = is_stable_ideal(ring, gens)
        assert payload == oracles.pivot_verdict(ring, gens)
        verdicts[payload["stable"]] += 1
    assert all(kinds.values()), kinds
    assert all(verdicts.values()), verdicts


# sha256 of the stdout of `idealization check --field F --rank 8 --prec 256 --trials 4
# --seed 1 --json --no-timing`, the densest admitted rank and precision, recorded
# before I^2 and g*I shared their products
DENSE_GOLDEN = {
    "F2": "f7f508562563f42dc133bf5eade1bf1f36f3a01d68a98b5c96a66c7c02a98bcb",
    "F3": "37a87eac2f795a596242deddeb73351846d93c83fc0801db1572b903959fa949",
    "F5": "e3da13c48596c6c95e122a1db4dfdd66b68467d6e4d4c13e7e131e054ad99a46",
    "Q": "c5e8d87ed4f30a49cfa00b5df77218c8992564b7edc734bac7b6478428888107",
}


@pytest.mark.parametrize("field", sorted(DENSE_GOLDEN))
def test_densest_check_golden(field, capsys):
    argv = ["idealization", "check", "--field", field, "--rank", "8", "--prec", "256"]
    assert cli.main(argv + ["--trials", "4", "--seed", "1", "--json", "--no-timing"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DENSE_GOLDEN[field]


# (sha256 of the stdout, exit code) of `idealization check --field F --rank 2 --prec P
# --trials 40 --seed 1 --json --no-timing`: at these precisions the margin N//2 is 2, 2
# and 4, 11-22 of the 40 trials are inconclusive and every check exits 1
LOW_PREC_GOLDEN = {
    ("F2", 4): ("097d63ac62c445568f405d7850b8d9330c75b53716498e29973c1a2170c09398", 1),
    ("F2", 5): ("b03037200b5b5a67c6bececd57974adda7d138c382d2c343b155d28a3f42510d", 1),
    ("F2", 9): ("55ed533a20070c4e4864eb4f9852a0ab1d8fb4fd028b8a04a373a7a1366bffca", 1),
    ("F3", 4): ("6e355a0541f34e648d6aeb45103e5566de5b83156bcbe3d14d2e038ac08fda86", 1),
    ("F3", 5): ("5967715298ce79622efdda4967306b7267ac67216e3783f8f8ceb56c52f701e4", 1),
    ("F3", 9): ("963d3f6617c152edaba3d372497e050450c8476d29a85d1b91c4136b82e8aa11", 1),
    ("F5", 4): ("563ba933fbf7a9570fa8a9c8f721bc34b8393f765dfefb6b93e29522160f7156", 1),
    ("F5", 5): ("4e0a39d64ebc5358482f00fb9cd7fcb85eb2f5ab194667f969ad62cd626caa4b", 1),
    ("F5", 9): ("3cfed8d709158fcd6ef218cb1f96fb85c15fb378fec54231e2e84421767a5735", 1),
    ("Q", 4): ("ab00c584e51b5f4bfda2d9920423615dc3ba68ec9d503f0a26a9aa397efc57fe", 1),
    ("Q", 5): ("46544c24783de420af91619a80567d447f09cde2a55f07710ae066e2a9608937", 1),
    ("Q", 9): ("b1510aaf7a6870baa1c69817be70f5b06eca48572b7ec4cf5f2be47cbac5e942", 1),
}


@pytest.mark.parametrize("field, prec", sorted(LOW_PREC_GOLDEN))
def test_low_precision_check_golden(field, prec, capsys):
    argv = ["idealization", "check", "--field", field, "--rank", "2", "--prec", str(prec)]
    code = cli.main(argv + ["--trials", "40", "--seed", "1", "--json", "--no-timing"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == LOW_PREC_GOLDEN[field, prec]


# sha256 over the stdout and exit code of `idealization check --field F --rank R --prec N
# --trials T --seed S --json --no-timing`, for F in FIELDS, (R, N, T) in GRID_POINTS and S
# in (1, 2), in that order, recorded before series became (exponent, coefficient) pairs;
# the checks at precisions 4, 5 and 9 have inconclusive trials and exit 1
GRID_POINTS = ((1, 4, 30), (2, 5, 30), (3, 9, 30), (2, 16, 30), (4, 40, 8), (8, 64, 4))
GRID_GOLDEN = "82a79f68b2bf59d11c113562eb70643ba8bedab8a61f4c883b9d1b169618bd5b"


def test_check_grid_golden(capsys):
    digest = hashlib.sha256()
    for field in FIELDS:
        for rank, prec, trials in GRID_POINTS:
            for seed in (1, 2):
                argv = ["idealization", "check", "--field", field, "--rank", str(rank), "--prec", str(prec)]
                code = cli.main(argv + ["--trials", str(trials), "--seed", str(seed), "--json", "--no-timing"])
                digest.update(capsys.readouterr().out.encode() + f"exit {code}\n".encode())
    assert digest.hexdigest() == GRID_GOLDEN


@pytest.mark.parametrize("rank, prec", [(1, 4), (1, 64), (8, 4), (8, 64)])
def test_rational_checks_feed_the_kernel_integers(rank, prec, monkeypatch, capsys):
    # over Q the kernel takes integer coefficients only: a generator scaled by a
    # nonzero constant spans the same ideal, so the checks never make a Fraction
    seen = {"reduce_rows": 0, "_in_module": 0}

    def spy(name):
        kernel = getattr(idealization, name)

        def call(ring, *args):
            rows = [*args[0].rows, args[1]] if name == "_in_module" else args[0]
            assert {type(c) for row in rows for s in row for _, c in s} <= {int}
            seen[name] += 1
            return kernel(ring, *args)

        return call

    for name in seen:
        monkeypatch.setattr(idealization, name, spy(name))
    argv = ["idealization", "check", "--field", "Q", "--rank", str(rank), "--prec", str(prec)]
    cli.main(argv + ["--trials", "30", "--seed", "1", "--json", "--no-timing"])
    capsys.readouterr()
    assert all(seen.values()), seen


def _is_canonical(ring, s):
    """Is s a series of the ring in the kernel's one form: ascending exponents below N,
    no zero coefficient, and over F_p each coefficient reduced mod p?"""
    exps = [e for e, _ in s]
    p = ring.domain.p
    return (
        type(s) is ring.domain
        and exps == sorted(set(exps))
        and all(0 <= e < ring.prec for e in exps)
        and all(0 < c < p if p else c != 0 for _, c in s)
    )


def _drawn_series(ring, data):
    """A series of one of five kinds: zero, random, one with a nonzero coefficient at t^(N-1),
    one built from coefficients that are multiples of p or out of range, and a power of t
    times the oracle's inverse of a unit, whose lead over Q is 1 or -1, so that the inverse
    has integer coefficients."""
    n, p = ring.prec, ring.domain.p
    kind = data.draw(st.sampled_from(["zero", "random", "top", "unreduced", "inverse"]))
    coeffs = [0] * n
    if kind == "zero":
        return series(ring, []), kind
    if kind == "inverse":
        lead = data.draw(st.sampled_from([1, -1] if p is None else range(1, p)))
        unit = series(ring, [lead] + data.draw(st.lists(st.integers(-3, 3), max_size=3)))
        shift = data.draw(st.integers(0, n - 1))
        inverse = series(ring, [int(c) for c in oracles._inverse(oracles.dense(unit), p)])
        return series(ring, [0] * shift + [1]) * inverse, kind
    terms = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3), max_size=4))
    for e, c in terms.items():
        coeffs[e] = c
    if kind == "top":
        coeffs[n - 1] = data.draw(st.sampled_from([1, -1, 2]))
    elif kind == "unreduced":
        coeffs[data.draw(st.integers(0, n - 1))] = (p or 7) * data.draw(st.integers(-2, 2))
        coeffs[data.draw(st.integers(0, n - 1))] = (p or 7) + 1
    return series(ring, coeffs), kind


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(4, 64), st.data())
def test_sparse_kernel_matches_dense_oracles(field, rank, prec, data):
    # the pair-form kernel against the dense oracles: canonical form, products that overflow
    # t^(N-1), multiples of inverses, and the pivots and membership of the rows and their products
    ring = IdealizationRing(series_class(field, prec), rank)
    t = series(ring, [0, 1])
    top = series(ring, [0] * (prec - 1) + [1])
    assert t.valuation() == 1 and top.valuation() == prec - 1 and not t * top
    xs = [tuple(_drawn_series(ring, data)[0] for _ in range(1 + rank)) for _ in range(3)]
    xs.append(element(ring, [1]))
    for s in (t, top, *(s for x in xs for s in x)):
        assert _is_canonical(ring, s)
        assert oracles.dense(s) == tuple(dict(s).get(e, 0) for e in range(prec))
    products = []
    for x in xs:
        for y in xs:
            product = ring.mul(x, y)
            assert all(_is_canonical(ring, s) for s in product)
            assert product == oracles.ring_product(x, y)
            assert x[0] * y[0] == oracles.series_product(x[0], y[0])
            products.append(product)
    rows = xs + products[: data.draw(st.integers(0, len(products)))]
    pivots = reduce_rows(ring, rows)
    basis, expected = oracles.reduce_rows(ring, rows)
    assert pivots == expected
    extra = tuple(_drawn_series(ring, data)[0] for _ in range(1 + rank))
    for probe in (element(ring, []), rows[-1], tuple(t * s for s in rows[0]), extra, oracles.row_add(rows[0], extra)):
        assert _in_module(ring, pivots, probe) == oracles.contains_row(basis, expected, probe)
