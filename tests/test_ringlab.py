"""Hilbert functions, quadratic tests, and the equivalence reports."""

import oracles
import pytest
from builders import hilbert_function, ideal_sum, nfold, normalized_ideals, translate

from stablerings import ringlab
from stablerings.errors import CapExceeded, NotStabilized
from stablerings.numsg import NAT, enumerate_semigroups, from_generators
from stablerings.relideal import (
    RelativeIdeal,
    enumerate_normalized_ideals,
    is_stable,
    make_ideal,
    max_ideal,
    minimal_generator_count,
)
from stablerings.ringlab import (
    N_MAX_CAP,
    check_n_max,
    greither_check,
    is_monomial_quadratic,
    max_ideal_chain,
    minimal_multiplicity_check,
    multiplicity_via_hilbert,
    sally_check,
    stable_ring_report,
    two_generator_check,
)

S23 = from_generators({2, 3})
S25 = from_generators({2, 5})
S27 = from_generators({2, 7})
S345 = from_generators({3, 4, 5})


def naive_hilbert(S, n):
    """|S \\ nM| by raw set arithmetic."""
    if n == 0:
        return 0
    limit = 20 * (n + S.conductor + 2)
    members = [z for z in range(limit) if S.contains(z)]
    power = {z for z in members if z > 0}
    for _ in range(n - 1):
        power = {a + b for a in power for b in members if b > 0 and a + b < limit}
    return len([z for z in members if z < limit // 2 and z not in power])


def test_hilbert_examples():
    assert [hilbert_function(NAT, n) for n in range(5)] == [0, 1, 2, 3, 4]
    assert [hilbert_function(S23, n) for n in (1, 2, 3)] == [1, 3, 5]
    assert [hilbert_function(S345, n) for n in (1, 2)] == [1, 4]


def test_hilbert_matches_naive():
    for S in [S23, S25, S345, from_generators({4, 6, 9}), from_generators({5, 7, 9})]:
        for n in range(5):
            assert hilbert_function(S, n) == naive_hilbert(S, n)


def test_hilbert_equals_ideal_power_complement():
    for S in enumerate_semigroups(6):
        M = max_ideal(S)
        for n in (1, 2, 3):
            P = nfold(M, n)
            count = sum(
                1
                for z in range(4 * (S.conductor + n * S.minimal_generators[-1] + 2))
                if S.contains(z) and not P.contains(z)
            )
            assert hilbert_function(S, n) == count


def test_hilbert_tail_matches_explicit_powers():
    # past the end of the power chain, up to the probes of
    # multiplicity_via_hilbert at 2*conductor + 4 and 2*conductor + 5
    probes = 0
    for S in enumerate_semigroups(8):
        M = max_ideal(S)
        P = M
        for n in range(1, 2 * S.conductor + 6):
            count = sum(
                1 for z in range(P.min_element + S.conductor) if S.contains(z) and not P.contains(z)
            )
            assert hilbert_function(S, n) == count, (str(S), n)
            probes += 1
            P = ideal_sum(P, M)
    assert probes == 4256


def test_multiplicity_via_hilbert():
    assert multiplicity_via_hilbert(NAT, max_ideal_chain(NAT)) == 1
    assert multiplicity_via_hilbert(S23, max_ideal_chain(S23)) == 2
    assert multiplicity_via_hilbert(S345, max_ideal_chain(S345)) == 3
    for S in enumerate_semigroups(8):
        assert multiplicity_via_hilbert(S, max_ideal_chain(S)) == S.multiplicity


def test_multiplicity_via_hilbert_refuses_an_unstabilized_window():
    # a chain that runs to the last probe, 2*conductor + 5, and gains a hole
    # there: the last two Hilbert differences then disagree
    for S in (NAT, S23, S345):
        chain = max_ideal_chain(S)
        top = 2 * S.conductor + 4
        padded = chain + [chain[-1]] * (top - len(chain))
        assert multiplicity_via_hilbert(S, padded) == S.multiplicity
        with pytest.raises(NotStabilized):
            multiplicity_via_hilbert(S, padded + [chain[-1] | 1])


def test_monomial_quadratic_examples():
    assert is_monomial_quadratic(S25) is True
    assert is_monomial_quadratic(S345) is False
    assert oracles.is_monomial_quadratic(S345, S345) is True
    with pytest.raises(ValueError):
        oracles.is_monomial_quadratic(NAT, S25)


def test_monomial_quadratic_equals_multiplicity_two():
    for S in enumerate_semigroups(9):
        assert is_monomial_quadratic(S) == (S.multiplicity <= 2)
        assert is_monomial_quadratic(S) == oracles.is_monomial_quadratic(S, NAT)


def test_monomial_quadratic_via_raw_pairs():
    # independent check of the pair condition over the full window
    for S in [S25, S27, S345, from_generators({4, 5, 6, 7})]:
        c = S.conductor
        expected = all(
            S.contains(x) or S.contains(y) or S.contains(x + y)
            for x in range(c)
            for y in range(c)
        )
        assert is_monomial_quadratic(S) == expected


def test_stable_ring_report_examples():
    r = stable_ring_report(S25)
    assert (r["all_stable"], r["quadratic"], r["bass"]) == (True, True, True)
    assert r["max_mu"] == 2 and r["agreement"]

    r = stable_ring_report(S345)
    assert (r["all_stable"], r["quadratic"], r["bass"]) == (False, False, False)
    assert r["agreement"]
    # the module S + (1+S) is the stability failure: its square is everything
    I = make_ideal(S345, {0, 1})
    assert ideal_sum(I, I).minimal_generators == (0, 1, 2)
    assert not is_stable(I)

    r = stable_ring_report(NAT)
    assert r["all_stable"] and r["agreement"] and r["ideal_count"] == 1


def test_stable_count_is_oversemigroup_count():
    # a normalized ideal is stable iff it is a semigroup T containing S, and
    # every such T has genus <= g(S), so it is in the tree below genus 12
    semigroups = list(enumerate_semigroups(12))
    gap_masks = [T.gap_mask for T in semigroups]
    total = 0
    for S, gaps in zip(semigroups, gap_masks):
        over = sum(1 for t in gap_masks if not t & ~gaps)
        assert stable_ring_report(S)["stable_count"] == over, str(S)
        total += over
    assert total == 88134


def test_report_payload_field_names():
    # the text form prints the keys in this order
    payload = stable_ring_report(S25)
    assert list(payload) == [
        "semigroup",
        "ideal_count",
        "stable_count",
        "max_mu",
        "all_stable",
        "quadratic",
        "bass",
        "agreement",
    ]
    assert payload["semigroup"] == "2,5"


def test_two_generator_examples():
    r = two_generator_check(S27, 8, max_ideal_chain(S27))
    assert r == {"power_two_generated": True, "mult_le_2": True, "agree": True}
    assert nfold(max_ideal(S27), 2).minimal_generators == (4, 9)

    r = two_generator_check(S345, 8, max_ideal_chain(S345))
    assert r == {"power_two_generated": False, "mult_le_2": False, "agree": True}
    for n in range(2, 9):
        assert nfold(max_ideal(S345), n).minimal_generators == (3 * n, 3 * n + 1, 3 * n + 2)

    assert two_generator_check(NAT, 8, max_ideal_chain(NAT))["agree"]
    # n_max is checked where it enters, for both checks that read it
    with pytest.raises(ValueError):
        check_n_max(1)
    with pytest.raises(CapExceeded):
        check_n_max(N_MAX_CAP + 1)
    check_n_max(2)
    check_n_max(N_MAX_CAP)
    assert two_generator_check(S345, N_MAX_CAP, max_ideal_chain(S345))["agree"]


def test_sally_examples():
    # (hypothesis, conclusion) by hole mask, over every normalized ideal of S
    assert sally_check(S25, 3)[max_ideal(S25).holes] == (True, True)

    # principal ideals satisfy everything
    assert sally_check(S345, 2)[make_ideal(S345, {3}).holes] == (True, True)

    # mu(2I) = 2 for I = (2,5): the square is (4,7) and 2+I = (4,7)
    I = make_ideal(S25, {2, 5})
    assert ideal_sum(I, I).minimal_generators == (4, 7)
    assert sally_check(S25, 3)[I.holes] == (True, True)

    # <3,4,5>: S, S + {2}, S + {1} and N by hole mask; S + {2} is stable on
    # the generators 0 and 2, and S + {1} has the generators 0 and 1 but its
    # square is N, which has three
    verdicts = {0b110: (True, True), 0b10: (True, True), 0b100: (False, False), 0: (False, False)}
    assert sally_check(S345, 2) == verdicts


def test_sally_power_missing_from_the_table_raises(monkeypatch):
    # every power of a normalized ideal is one; a power outside the table is
    # an error, not a power with more than two generators
    enumerate_all = ringlab.enumerate_normalized_ideals
    monkeypatch.setattr(ringlab, "enumerate_normalized_ideals", lambda S: [h for h in enumerate_all(S) if h])
    with pytest.raises(KeyError):
        sally_check(S345, 2)


def test_sally_translation_invariance():
    for S in enumerate_semigroups(5):
        verdicts = sally_check(S, 6)
        for I in normalized_ideals(S):
            # the check reads only the hole mask; the oracle sees the least element
            assert verdicts[I.holes] == _oracle_sally(I, 6) == _oracle_sally(translate(I, S.conductor), 6)


def _oracle_sally(I, n_max):
    hypothesis = oracles.power_two_generated(I, n_max)
    conclusion = minimal_generator_count(I) <= 2 and is_stable(I)
    return hypothesis, conclusion


def _oracle_two_generator(S, n_max):
    power_two_generated = oracles.power_two_generated(max_ideal(S), n_max)
    mult_le_2 = S.multiplicity <= 2
    return {
        "power_two_generated": power_two_generated,
        "mult_le_2": mult_le_2,
        "agree": power_two_generated == mult_le_2,
    }


@pytest.mark.parametrize("n_max", [2, 8, N_MAX_CAP])
def test_power_chain_matches_ideal_sum_oracle(n_max):
    # every normalized ideal of genus <= 8 and its conductor translate
    ideals = 0
    for S in enumerate_semigroups(8):
        verdicts = sally_check(S, n_max)
        for I in normalized_ideals(S):
            for J in (I, translate(I, S.conductor)):
                assert verdicts[J.holes] == _oracle_sally(J, n_max)
            ideals += 1
    assert ideals == 7740
    # the maximal ideal of every semigroup of genus <= 12; M - m is a
    # normalized ideal of S, and its Sally verdict is read off S's table for
    # genus 11 and 12 (test_one_chain_and_bare_mask_verdicts compares every
    # normalized ideal of genus <= 10)
    fired = checked = 0
    for S in enumerate_semigroups(12):
        M = max_ideal(S)
        assert two_generator_check(S, n_max, max_ideal_chain(S)) == _oracle_two_generator(S, n_max)
        if S.genus >= 11:
            verdict = sally_check(S, n_max)[M.holes]
            assert verdict == _oracle_sally(M, n_max)
            fired += verdict[0]
            checked += 1
    assert checked == 935 and 0 < fired < checked


@pytest.mark.parametrize("n_max", [2, 3, 8, N_MAX_CAP])
def test_one_chain_and_bare_mask_verdicts(n_max):
    # the three checks the sweep reads off one chain of M, against the oracles;
    # the Sally verdict on bare hole masks, against the oracle on every
    # normalized ideal of genus <= 10
    ideals = 0
    for S in enumerate_semigroups(10):
        chain = max_ideal_chain(S)
        assert chain[-1] == chain[-2] and len(chain) <= S.conductor + 2, str(S)  # ends at its repeat
        assert two_generator_check(S, n_max, chain) == _oracle_two_generator(S, n_max), str(S)
        mm = minimal_multiplicity_check(S, chain)
        assert mm["m_stable"] == oracles.is_stable_via_search(S, max_ideal(S).minimal_generators), str(S)
        assert multiplicity_via_hilbert(S, chain) == S.multiplicity
        verdicts = sally_check(S, n_max)
        assert list(verdicts) == enumerate_normalized_ideals(S)
        for holes, verdict in verdicts.items():
            assert verdict == _oracle_sally(RelativeIdeal(S, 0, holes), n_max), str(S)
            ideals += 1
    assert ideals == 64151


def test_greither_examples():
    r = greither_check(stable_ring_report(from_generators({2, 9})))
    assert r["mu_normalization"] == 2 and r["bass"] and r["agree"]
    assert r["quadratic_when_two_generated"]

    r = greither_check(stable_ring_report(S345))
    assert r["mu_normalization"] == 3 and not r["bass"] and r["agree"]

    assert greither_check(stable_ring_report(NAT))["mu_normalization"] == 1


def test_greither_mu_equals_multiplicity():
    for S in enumerate_semigroups(9):
        assert greither_check(stable_ring_report(S))["mu_normalization"] == S.multiplicity


def test_greither_from_the_report_matches_the_check():
    # the check reads mu of the normalization and the quadratic test off the
    # report; here mu is counted on the ideal N itself and the quadratic test
    # is the pair oracle
    for S in enumerate_semigroups(9):
        mu = minimal_generator_count(RelativeIdeal(S, 0, 0))
        bass = S.multiplicity <= 2
        expected = {
            "mu_normalization": mu,
            "bass": bass,
            "agree": (mu <= 2) == bass,
            "quadratic_when_two_generated": mu > 2 or oracles.is_monomial_quadratic(S, NAT),
        }
        assert greither_check(stable_ring_report(S)) == expected, str(S)


def test_minimal_multiplicity_examples():
    assert minimal_multiplicity_check(S345, max_ideal_chain(S345)) == {
        "m_stable": True,
        "edim_eq_mult": True,
        "ok": True,
    }
    S34 = from_generators({3, 4})
    r = minimal_multiplicity_check(S34, max_ideal_chain(S34))
    assert r["m_stable"] is False and r["ok"] is True
    assert minimal_multiplicity_check(NAT, max_ideal_chain(NAT))["ok"]


def test_minimal_multiplicity_property():
    for S in enumerate_semigroups(9):
        assert minimal_multiplicity_check(S, max_ideal_chain(S))["ok"]


def test_bass_forward_direction():
    # multiplicity <= 2 forces every normalized ideal two-generated and stable
    for S in enumerate_semigroups(8):
        if S.multiplicity > 2:
            continue
        r = stable_ring_report(S)
        assert r["all_stable"] and r["max_mu"] <= 2
