"""Numerical semigroup arithmetic against brute-force oracles."""

import random
from itertools import combinations
from math import gcd

import pytest

import oracles
from builders import from_gaps
from oracles import apery_set
from stablerings.errors import CapExceeded, EmptyInput, GcdNotOne
from stablerings.numsg import (
    GENERATOR_CAP,
    NAT,
    WINDOW_CAP,
    NumericalSemigroup,
    children,
    enumerate_semigroups,
    from_generators,
    invariants,
)


def naive_members(gens, limit):
    """Additive closure of {0} and the generators, by direct DP."""
    mem = [False] * limit
    mem[0] = True
    for z in range(1, limit):
        mem[z] = any(z >= g and mem[z - g] for g in gens)
    return [z for z in range(limit) if mem[z]]


@pytest.mark.parametrize(
    "gens, mingens, frob, cond, mult, genus",
    [
        ({4, 3, 7}, (3, 4), 5, 6, 3, 3),
        ({1}, (1,), -1, 0, 1, 0),
        ({2, 7}, (2, 7), 5, 6, 2, 3),
        ({3, 4, 5}, (3, 4, 5), 2, 3, 3, 2),
        ({2, 3}, (2, 3), 1, 2, 2, 1),
        ({6, 10, 15}, (6, 10, 15), 29, 30, 6, 15),
        ({100, 101, 10**7}, (100, 101), 9899, 9900, 100, 4950),  # 10^7 is past the window
    ],
)
def test_from_generators(gens, mingens, frob, cond, mult, genus):
    S = from_generators(gens)
    assert S.minimal_generators == mingens
    assert S.frobenius == frob
    assert S.conductor == cond
    assert S.multiplicity == mult
    assert S.genus == genus


def test_membership_matches_naive_closure():
    for gens in [{3, 4}, {2, 7}, {5, 7, 9}, {4, 6, 9}, {6, 10, 15}]:
        S = from_generators(gens)
        limit = 3 * S.conductor + 10
        naive = naive_members(gens, limit)
        assert [z for z in range(limit) if S.contains(z)] == naive


def test_contains_examples():
    S = from_generators({3, 4})
    assert not S.contains(5)
    assert S.contains(8)
    assert S.contains(0)
    assert not S.contains(-3)
    assert S.contains(10**9)


def test_gaps():
    assert from_generators({2, 7}).gaps() == (1, 3, 5)
    assert NAT.gaps() == ()


@pytest.mark.parametrize(
    "gens, k, expected",
    [({3, 4}, 3, [0, 4, 8]), ({1}, 1, [0]), ({2, 5}, 2, [0, 5])],
)
def test_apery_set(gens, k, expected):
    assert apery_set(from_generators(gens), k) == expected


def test_apery_frobenius_identity():
    for S in enumerate_semigroups(10):
        ap = apery_set(S, S.multiplicity)
        assert max(ap) - S.multiplicity == S.frobenius


def test_apery_rejects_nonmembers():
    S = from_generators({3, 4})
    with pytest.raises(ValueError):
        apery_set(S, 5)
    with pytest.raises(ValueError):
        apery_set(S, 0)


def test_invariants_examples():
    assert invariants(from_generators({3, 4, 5})) == {
        "multiplicity": 3,
        "embedding_dimension": 3,
        "frobenius": 2,
        "conductor": 3,
        "genus": 2,
    }
    assert invariants(from_generators({2, 3}))["embedding_dimension"] == 2
    assert invariants(NAT) == {
        "multiplicity": 1,
        "embedding_dimension": 1,
        "frobenius": -1,
        "conductor": 0,
        "genus": 0,
    }


def test_construction_errors():
    with pytest.raises(EmptyInput):
        from_generators([])
    with pytest.raises(GcdNotOne):
        from_generators({2, 4})
    # the CLI's message, checked before the generator cap
    for gens in ([0, 3], range(-1, GENERATOR_CAP + 1)):
        with pytest.raises(ValueError, match="^semigroup generators must be positive$"):
            from_generators(gens)


def test_from_gaps_roundtrip():
    for S in enumerate_semigroups(7):
        assert from_gaps(S.gaps()) == S


def test_mask_constructor_matches_scan_oracles_on_the_tree():
    for S in enumerate_semigroups(12):
        width = S.conductor + 1
        scanned = oracles.semigroup_from_member_scan(S.members_mask(width), width)
        assert from_gaps(S.gaps()) == scanned == S
        assert from_generators(S.minimal_generators) == oracles.semigroup_by_window_scan(S.minimal_generators) == S


def test_from_generators_matches_window_scan_on_random_sets():
    rng = random.Random(20161)
    checked = 0
    while checked < 500:
        gens = rng.sample(range(1, 60), rng.randint(2, 5))
        if gcd(*gens) != 1:
            continue
        assert from_generators(gens) == oracles.semigroup_by_window_scan(gens), gens
        checked += 1


def _refused(gaps: int) -> bool:
    """Does ``from_gap_mask`` raise ValueError on this mask?"""
    try:
        NumericalSemigroup.from_gap_mask(gaps)
    except ValueError:
        return True
    return False


def test_closure_is_checked_on_wide_windows():
    # 300 is a member but 300 + 300 is not: a mask past 512 bits
    wide = sum(1 << z for z in [*range(1, 300), *range(301, 601)])
    # 1 + 2999 lands on the gap 3000; with bit 0 set, 0 is no member either
    for gaps in (wide, 1 << 3000, 1 << 3000 | 1):
        assert _refused(gaps), gaps.bit_length()


def _scanned_semigroups():
    """The tree to genus 10 and <130,131>, each with its member scan on [0, conductor + multiplicity + 2)."""
    for S in [*enumerate_semigroups(10), from_generators([130, 131])]:
        yield S, oracles.member_scan(S.minimal_generators, S.conductor + S.multiplicity + 2)


def test_contains_matches_member_scan():
    for S, scan in _scanned_semigroups():
        for z in range(-3, S.conductor + S.multiplicity + 2):
            assert S.contains(z) == (z >= 0 and bool(scan >> z & 1)), (str(S), z)
        assert not any(S.contains(z) for z in S.gaps())
        assert S.contains(S.conductor) and S.contains(10**12) and not S.contains(-(10**12))


def test_members_mask_matches_member_scan():
    # widths below, at and above the conductor
    for S, scan in _scanned_semigroups():
        c = S.conductor
        for width in (0, c // 2, max(c - 1, 0), c, c + 1, c + S.multiplicity + 2):
            assert S.members_mask(width) == scan & ((1 << width) - 1), (str(S), width)


def test_gap_mask_round_trip():
    for S, _ in _scanned_semigroups():
        assert NumericalSemigroup.from_gap_mask(S.gap_mask) == S
    for gaps in (1, -2):  # 0 a gap; infinitely many gaps
        with pytest.raises(ValueError):
            NumericalSemigroup.from_gap_mask(gaps)


def test_construction_caps_at_their_boundaries():
    assert from_generators([1024, 1025]).conductor == 1023 * 1024
    with pytest.raises(CapExceeded):
        from_generators([1025, 1026])  # the window would double past the cap
    with pytest.raises(CapExceeded):
        from_generators([WINDOW_CAP + 1, WINDOW_CAP + 2])
    many = range(1000, 1001 + GENERATOR_CAP)
    with pytest.raises(CapExceeded):
        from_generators(many)
    assert from_generators(list(many)[:GENERATOR_CAP]).multiplicity == 1000


def gap_subset_count(genus):
    """Independent enumeration: gap sets are subsets of [1, 2g-1] whose
    complement is additively closed."""
    if genus == 0:
        return 1
    count = 0
    for G in combinations(range(1, 2 * genus), genus):
        gaps = set(G)
        lim = 2 * max(gaps) + 2
        members = [z for z in range(lim) if z not in gaps and z >= 0]
        ok = True
        for i, a in enumerate(members):
            if not ok or 2 * a >= lim:
                break
            for b in members[i:]:
                if a + b >= lim:
                    break
                if a + b in gaps:
                    ok = False
                    break
        count += ok
    return count


def test_enumeration_counts_match_gap_subset_oracle():
    counts = {}
    for S in enumerate_semigroups(6):
        counts[S.genus] = counts.get(S.genus, 0) + 1
    for g in range(7):
        assert counts[g] == gap_subset_count(g)


def test_enumeration_examples():
    assert [str(S) for S in enumerate_semigroups(0)] == ["<1>"]
    got = [S.minimal_generators for S in enumerate_semigroups(1)]
    assert got == [(1,), (2, 3)]
    assert sum(1 for _ in enumerate_semigroups(3)) == 8
    # OEIS A007323: the number of numerical semigroups of each genus, up to the cap
    counts = [0] * 21
    for S in enumerate_semigroups(20):
        counts[S.genus] += 1
    assert counts == [
        1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467, 22464, 37396
    ]


def test_enumeration_is_duplicate_free_and_deterministic():
    seen = [S.minimal_generators for S in enumerate_semigroups(8)]
    assert len(seen) == len(set(seen)) == 156
    assert seen == [S.minimal_generators for S in enumerate_semigroups(8)]


def test_enumeration_order_is_gap_order():
    # the sweep merges its subtrees' violations by (genus, gaps), which must be enumeration order
    keys = [(S.genus, S.gaps()) for S in enumerate_semigroups(12)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == 1413


def test_children_remove_one_generator_above_frobenius():
    # a child has one gap more, its new Frobenius number, so S is its parent S + {F}
    for S in enumerate_semigroups(8):
        kids = list(children(S))
        assert [T.frobenius for T in kids] == [g for g in S.minimal_generators if g > S.frobenius]
        assert all(T.gaps()[:-1] == S.gaps() for T in kids)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):  # the cap is 20; genus 21 stays refused
        list(enumerate_semigroups(21))
    with pytest.raises(ValueError):
        list(enumerate_semigroups(-1))


def test_closure_property():
    for S in enumerate_semigroups(8):
        members = [z for z in range(2 * S.conductor + 1) if S.contains(z)]
        for a in members:
            for b in members:
                if a + b <= 2 * S.conductor:
                    assert S.contains(a + b)


def test_embedding_dimension_at_most_multiplicity():
    for S in enumerate_semigroups(10):
        assert S.embedding_dimension <= S.multiplicity


def test_minimal_generators_are_not_sums():
    for S in enumerate_semigroups(8):
        members = [z for z in range(1, 3 * (S.conductor + 1)) if S.contains(z)]
        for g in S.minimal_generators:
            assert S.contains(g)
            assert not any(S.contains(g - t) for t in members if 0 < t < g)
