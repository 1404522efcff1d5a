"""Fractional-ideal calculus: minimal generators, E(I), stability, towers."""

import math
import random

import oracles
import pytest
from builders import AmbientMismatch, ideal_sum, max_ideal, nfold, normalized_ideals, translate
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerings.errors import CapExceeded, EmptyInput
from stablerings.numsg import ENUMERATION_GENUS_CAP, GENERATOR_CAP, NAT, enumerate_semigroups, from_generators
from stablerings.relideal import (
    RelativeIdeal,
    _blowup_gap_mask,
    _census_counts,
    _generator_mask,
    _offsets,
    blowup_tower,
    end_semigroup,
    enumerate_normalized_ideals,
    is_stable,
    make_ideal,
    minimal_generator_count,
)
from stablerings.ringlab import stable_ring_report
from stablerings.sweep import _walk

S34 = from_generators({3, 4})
S345 = from_generators({3, 4, 5})
S25 = from_generators({2, 5})
S27 = from_generators({2, 7})


def ideal_members(I, limit):
    """Raw union of generator translates, for oracle comparisons."""
    return sorted(
        {g + s for g in I.minimal_generators for s in range(limit) if I.ambient.contains(s)}
    )


def test_make_ideal_reduces_generators():
    assert make_ideal(S345, {3, 4, 5, 6}).minimal_generators == (3, 4, 5)
    assert make_ideal(S345, {0}).minimal_generators == (0,)
    assert make_ideal(S345, {0, 1}).minimal_generators == (0, 1)
    # negative generators are fine: fractional ideals
    assert make_ideal(S25, {-2, 0}).minimal_generators == (-2,)
    assert make_ideal(S25, {-2, 1}).minimal_generators == (-2, 1)
    with pytest.raises(EmptyInput):
        make_ideal(S345, [])


def test_make_ideal_caps_its_generators():
    # the cap is checked where an ideal is built from outside generators
    assert make_ideal(S345, range(GENERATOR_CAP)).min_element == 0
    try:
        make_ideal(S345, range(GENERATOR_CAP + 1))
        message = None
    except CapExceeded as exc:
        message = str(exc)
    assert message == f"{GENERATOR_CAP + 1} distinct ideal generators exceed cap {GENERATOR_CAP}"


def test_ideal_membership_matches_raw_union():
    I = make_ideal(S345, {0, 1})
    raw = set(ideal_members(I, 40))
    for z in range(-5, 30):
        assert I.contains(z) == (z in I) == (z in raw or z > 30)


def test_in_is_membership():
    # the record's own fields would answer, and 9 is none of them
    I = make_ideal(from_generators([3, 5]), [0])
    assert 9 in I and 4 not in I and -1 not in I


def test_sum_examples():
    M = max_ideal(S34)
    assert ideal_sum(M, M).minimal_generators == (6, 7, 8)
    M5 = max_ideal(S345)
    assert ideal_sum(M5, M5).minimal_generators == (6, 7, 8)
    assert ideal_sum(M5, M5) == translate(M5, 3)
    with pytest.raises(AmbientMismatch):
        ideal_sum(M, M5)


def test_translate_and_nfold():
    I = make_ideal(S345, {0, 1})
    assert translate(I, 0) == I
    assert translate(I, 5).minimal_generators == (5, 6)
    assert nfold(I, 1) == I
    assert nfold(max_ideal(S34), 2) == ideal_sum(max_ideal(S34), max_ideal(S34))
    with pytest.raises(ValueError):
        nfold(I, 0)


def test_end_semigroup_examples():
    assert end_semigroup(max_ideal(S345)) == NAT
    # z=5 endomorphs M over <3,4>: 5+3=8 and 5+4=9 are both in M
    assert end_semigroup(max_ideal(S34)) == S345
    assert end_semigroup(make_ideal(S345, {0})) == S345
    assert end_semigroup(max_ideal(S27)) == from_generators({2, 5})
    assert end_semigroup(max_ideal(NAT)) == NAT


def test_end_semigroup_contains_ambient():
    for S in enumerate_semigroups(6):
        for I in normalized_ideals(S):
            E = end_semigroup(I)
            for z in range(S.conductor + 2):
                if S.contains(z):
                    assert E.contains(z)


def test_end_semigroup_matches_endomorphism_oracle():
    # ideals of several generators with a negative minimum: the normalized
    # ideals of mu >= 2 moved down past 0, and two ideals of <130,131>
    cases = [
        (S, [g - S.multiplicity - 1 for g in I.minimal_generators])
        for S in enumerate_semigroups(7)
        for I in normalized_ideals(S)
        if len(I.minimal_generators) >= 2
    ]
    S = from_generators({130, 131})
    cases += [(S, [-7, 0, 1, 65]), (S, [-130, -1, 262])]
    for S, gens in cases:
        assert end_semigroup(make_ideal(S, gens)).gaps() == oracles.endomorphism_gaps(S, gens), (str(S), gens)
    assert len(cases) > 1000


def test_stability_examples():
    assert is_stable(max_ideal(S345)) is True
    assert is_stable(max_ideal(S34)) is False
    assert is_stable(make_ideal(S34, {5})) is True
    assert is_stable(make_ideal(S345, {0, 1})) is False


def test_stability_three_routes_agree():
    for S in enumerate_semigroups(6):
        for I in normalized_ideals(S):
            a = is_stable(I)
            assert oracles.is_stable_via_endomorphism(S, I.minimal_generators) == a
            assert oracles.is_stable_via_search(S, I.minimal_generators) == a


def test_far_generators_are_dropped_before_any_mask():
    # a generator at or past min + conductor lies in min + S; the core must
    # drop it up front, or the masks grow with the distance
    I = make_ideal(S345, [0, 10**12])
    assert I.minimal_generators == (0,)
    J = make_ideal(S345, [-(10**12), 0])
    assert J.minimal_generators == (-(10**12),)
    for K in (I, J):
        assert is_stable(K)
        assert end_semigroup(K) == S345


def test_stability_translation_invariant():
    for S in enumerate_semigroups(5):
        for I in normalized_ideals(S):
            assert is_stable(translate(I, S.conductor)) == is_stable(I)
            assert is_stable(translate(I, -3)) == is_stable(I)


def test_generator_witness_forces_min():
    # if I+I = x+I for any generator x, then x is the least one and I is stable
    for S in enumerate_semigroups(5):
        for I in normalized_ideals(S):
            K = ideal_sum(I, I)
            for x in I.minimal_generators:
                if translate(I, x) == K:
                    assert x == I.min_element
                    assert is_stable(I)


def test_minimal_generator_count():
    assert minimal_generator_count(max_ideal(S345)) == 3
    assert minimal_generator_count(max_ideal(S25)) == 2
    assert minimal_generator_count(make_ideal(S25, {4})) == 1


def test_mu_equals_nakayama_count():
    # mu(I) = |I \ (M+I)| with M the maximal ideal
    for S in enumerate_semigroups(6):
        M = max_ideal(S)
        for I in normalized_ideals(S):
            MI = ideal_sum(M, I)
            lo, width = I.min_element, 3 * (S.conductor + S.frobenius + 2)
            residue = sum(
                1
                for z in range(lo, lo + width)
                if I.contains(z) and not MI.contains(z)
            )
            assert residue == minimal_generator_count(I)


def test_max_ideal_examples():
    assert max_ideal(S345).minimal_generators == (3, 4, 5)
    assert max_ideal(NAT).minimal_generators == (1,)
    assert max_ideal(S27).minimal_generators == (2, 7)
    checked = 0
    for S in enumerate_semigroups(12):
        assert max_ideal(S) == make_ideal(S, S.minimal_generators), str(S)
        checked += 1
    assert checked == 1413


def naive_normalized_ideals(S):
    """Oracle: filter all gap subsets by T + S inside S union T over a window."""
    gaps = S.gaps()
    window = 4 * (S.conductor + 1)
    members = {z for z in range(window) if S.contains(z)}
    out = []
    for mask in range(1 << len(gaps)):
        T = {gaps[i] for i in range(len(gaps)) if mask >> i & 1}
        full = members | T
        if all(t + s in full or t + s >= window for t in T for s in members):
            out.append(tuple(sorted(T)))
    return sorted(out)


def test_enumerate_normalized_ideals_examples():
    assert len(enumerate_normalized_ideals(NAT)) == 1
    assert len(enumerate_normalized_ideals(from_generators({2, 3}))) == 2
    got = {I.minimal_generators for I in normalized_ideals(S345)}
    assert got == {(0,), (0, 1), (0, 2), (0, 1, 2)}


def test_enumerate_normalized_ideals_against_oracle():
    for S in enumerate_semigroups(6):
        got = sorted(
            tuple(g for g in I.minimal_generators if g != 0 or False)
            for I in normalized_ideals(S)
        )
        # compare as member sets: reconstruct gap subsets from the ideals
        got_sets = sorted(
            tuple(z for z in range(S.conductor) if I.contains(z) and not S.contains(z))
            for I in normalized_ideals(S)
        )
        assert got_sets == naive_normalized_ideals(S)
        assert len(got) <= 2**S.genus


def test_enumerate_normalized_ideals_matches_filter_in_order():
    # the gap-by-gap generation against the 2^genus filter, order included
    total = 0
    for S in enumerate_semigroups(11):
        got = enumerate_normalized_ideals(S)
        assert got == oracles.normalized_hole_masks(S), str(S)
        total += len(got)
    assert total == 181724


def test_offsets_read_the_set_bits():
    assert _offsets(0) == []
    assert _offsets(1) == [0]
    assert _offsets(1 << 885_000) == [885_000]
    sparse = [3, 700, 99_999, (1 << 20) - 1]
    assert _offsets(sum(1 << k for k in sparse)) == sparse
    rng = random.Random(13)
    for _ in range(200):
        mask = rng.getrandbits(rng.randint(1, 300))
        assert _offsets(mask) == [k for k, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def test_census_matches_per_mask_shapes():
    # the generators and stability the oracle walk carries, against
    # _generator_mask and is_stable run on every finished mask
    totals = [0, 0, 0]
    for S in enumerate_semigroups(12):
        nodes = oracles.normalized_walk(S)
        shapes = []
        for holes, _, _ in nodes:
            gens = _generator_mask(S, holes)
            shapes.append((gens, is_stable(RelativeIdeal(S, 0, holes))))
        assert [(gens, stable) for _, gens, stable in nodes] == shapes, str(S)
        census = (
            len(shapes),
            sum(stable for _, stable in shapes),
            max(gens.bit_count() for gens, _ in shapes),
        )
        assert oracles.normalized_census(S) == census, str(S)
        totals = [totals[0] + census[0], totals[1] + census[1], max(totals[2], census[2])]
    assert totals == [514199, 88134, 13]


def test_census_matches_oracle_walk():
    # the counting census against the census read off the full walk: per call,
    # up the ancestor chain, and down the sweep's walk
    totals = [0, 0, 0]
    for S, counts, _ in _walk(NAT, 13):
        census = oracles.normalized_census(S)
        report = stable_ring_report(S)
        assert (report["ideal_count"], report["stable_count"], report["max_mu"]) == census, str(S)
        assert counts == census[:2], str(S)
        totals = [totals[0] + census[0], totals[1] + census[1], max(totals[2], census[2])]
    assert totals == [1448090, 206095, 14]


def test_census_past_the_walk_genus():
    # the oracle tests above stop at genus 13; multiplicities 2 and 3 keep the
    # walk short up to the genus cap, and max_mu is the multiplicity
    for gens in ({2, 29}, {2, 41}, {3, 16}, {3, 20}, {3, 22, 23}, {3, 31, 32}):
        S = from_generators(gens)
        assert 14 <= S.genus <= ENUMERATION_GENUS_CAP
        report = stable_ring_report(S)
        census = oracles.normalized_census(S)
        assert (report["ideal_count"], report["stable_count"], report["max_mu"]) == census, str(S)
        assert report["max_mu"] == S.multiplicity


def test_census_cap():
    # multiplicity 2 keeps the census cheap, so only the cap can refuse it
    S = from_generators({2, 2 * ENUMERATION_GENUS_CAP + 3})
    assert S.genus == ENUMERATION_GENUS_CAP + 1
    with pytest.raises(CapExceeded):
        _census_counts(S)


# random semigroups from 2-4 generators below 16, genus at most 14
random_semigroups = (
    st.lists(st.integers(2, 15), min_size=2, max_size=4)
    .filter(lambda gens: math.gcd(*gens) == 1)
    .map(from_generators)
    .filter(lambda S: S.genus <= 14)
)


@settings(max_examples=150, deadline=None)
@given(random_semigroups)
def test_normalized_ideals_closed_random(S):
    ideals = normalized_ideals(S)
    full = (1 << S.conductor) - 1
    for I in ideals:
        members = full & ~I.holes
        assert I.min_element == 0 and I.holes & ~S.gap_mask == 0
        assert all(members << s & I.holes == 0 for s in S.minimal_generators)
    assert len(ideals) == len(oracles.normalized_hole_masks(S))


def test_enumerate_normalized_ideals_cap():
    with pytest.raises(CapExceeded):
        enumerate_normalized_ideals(from_generators({2, 2 * ENUMERATION_GENUS_CAP + 3}))


def multiplicities(tower):
    return tuple(T.multiplicity for T in tower)


def test_blowup_tower_examples():
    tower = blowup_tower(S27)
    assert [t.minimal_generators for t in tower] == [(2, 7), (2, 5), (2, 3), (1,)]
    assert multiplicities(tower) == (2, 2, 2, 1)
    assert len(tower) - 1 == 3
    assert tower[-1].is_full

    assert blowup_tower(NAT) == (NAT,)

    tower = blowup_tower(S345)
    assert [t.minimal_generators for t in tower] == [(3, 4, 5), (1,)]
    assert multiplicities(tower) == (3, 1)


def test_blowup_tower_cap_reported_not_raised():
    tower = blowup_tower(from_generators({5, 7, 9}), cap=1)
    assert not tower[-1].is_full
    assert len(tower) == 2


def test_blowup_gap_mask_is_end_semigroup_of_max_ideal():
    # the shifted-OR gap mask of E(M) against E(M) built from the generators
    # of M, semigroup by semigroup: the sweep's walk and the tower both read it
    for S in enumerate_semigroups(8):
        assert _blowup_gap_mask(S) == end_semigroup(max_ideal(S)).gap_mask, str(S)


def test_tower_stabilizes_within_genus():
    for S, _, sequence in _walk(NAT, 12):
        tower = blowup_tower(S)
        seq = multiplicities(tower)
        assert sequence == seq, str(S)  # the sweep's walk
        # each step against E(M) of the step before, built through the generators of M
        assert tower[1:] == tuple(end_semigroup(max_ideal(T)) for T in tower[:-1]), str(S)
        assert tower[-1].is_full
        assert len(tower) - 1 <= max(S.genus, 1)
        assert seq[-1] == 1
        # multiplicities never increase along the tower
        assert all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


def test_multiplicity_two_tower_structure():
    for S in enumerate_semigroups(10):
        if S.multiplicity != 2:
            continue
        tower = blowup_tower(S)
        assert multiplicities(tower) == (2,) * S.genus + (1,)
        assert len(tower) - 1 == S.genus
        for cur, nxt in zip(tower, tower[1:]):
            width = cur.conductor + 4
            m_i = cur.members_mask(width) & ~1  # M_i = S_i minus 0
            assert m_i == nxt.members_mask(width - 2) << 2
            assert cur.members_mask(width) == S.members_mask(width) | m_i


# random ideals over the semigroups of genus <= 7, generators in [-12, 30)
SEMIGROUPS = list(enumerate_semigroups(7))
semigroups = st.sampled_from(SEMIGROUPS)
generator_sets = st.lists(st.integers(-12, 29), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(semigroups, generator_sets, generator_sets, generator_sets, st.integers(-20, 20))
def test_sum_commutative_associative_translation_invariant(S, a, b, c, t):
    I, J, K = (make_ideal(S, g) for g in (a, b, c))
    assert ideal_sum(I, J) == ideal_sum(J, I)
    assert ideal_sum(ideal_sum(I, J), K) == ideal_sum(I, ideal_sum(J, K))
    assert ideal_sum(translate(I, t), J) == translate(ideal_sum(I, J), t)
    assert ideal_sum(I, J).minimal_generators == oracles.ideal_sum(
        S, I.minimal_generators, J.minimal_generators
    )


@settings(max_examples=300, deadline=None)
@given(semigroups, generator_sets)
def test_end_semigroup_contains_ambient_random(S, gens):
    E = end_semigroup(make_ideal(S, gens))
    assert all(E.contains(z) for z in range(S.conductor + 2) if S.contains(z))


@settings(max_examples=300, deadline=None)
@given(semigroups, generator_sets)
def test_mu_is_nakayama_count_random(S, gens):
    # mu(I) = |I \ (M + I)|, counted over a window past every generator
    I = make_ideal(S, gens)
    MI = ideal_sum(max_ideal(S), I)
    lo = I.min_element
    residue = sum(
        1 for z in range(lo, lo + 2 * S.conductor + 40) if I.contains(z) and not MI.contains(z)
    )
    assert residue == minimal_generator_count(I)
    assert I.minimal_generators == oracles.reduce_generators(S, gens)
    # generators are incongruent mod the multiplicity, whatever the least element
    assert minimal_generator_count(I) <= S.multiplicity
