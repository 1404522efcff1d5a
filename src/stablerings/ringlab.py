"""Theorem-level predicates on the monomial model.

This module evaluates, for the monomial ring of a numerical semigroup S, the
ring-theoretic quantities that the stability theory ties together: the
multiplicity read off the Hilbert function, the quadratic-extension test
against the normalization, stability of every normalized module between S
and its normalization, the Bass verdict (multiplicity at most 2), and the
two-generated-power and minimal-multiplicity equivalences.

Each check has one form, the one the sweep runs, and it takes masks, not
ideal objects.  Each returns the dict that the CLI prints, the ring report
included: ``stable_ring_report`` returns the ``sg report`` payload, and the
sweep and ``greither_check`` read it by its keys.  The census of the
normalized ideals lists none of them: the count and the stable count come
from ``relideal._census_counts``, by a recurrence along the semigroup tree
(the sweep passes in the pair its walk derived from the parent's), and the
largest mu is mu of the normalization, which ``greither_check`` reads off
the report with the quadratic test.  The powers of M are one chain,
``max_ideal_chain``: the hole masks of ``relideal._power_chain`` below the
conductor, through the first repeat.  ``two_generator_check`` counts the
generators of M^2 ... M^n_max with ``relideal._generator_mask``,
``minimal_multiplicity_check`` asks whether the chain repeats at 2M, and
``multiplicity_via_hilbert`` takes its three Hilbert-function probes, each
a power of M against the gap mask of S, off the same chain; the caller
builds it once per semigroup and passes it to all three.  ``sally_check``
is one pass over S's normalized ideals, as bare hole masks: it reads each
ideal's generator mask once, into one table, and looks the generator count
of every power up there, as each power is itself a normalized ideal; it
returns each ideal's (hypothesis, conclusion) verdict, from which the sweep
derives its counts and violation lines.  The power range ``n_max`` is
checked by ``check_n_max`` where it enters, in the sweep and the CLI, not
by the checks.

Quadratic test note: the extension test only needs pairs of gaps of S.  If
x is a member of S then x + y always lies in y + S, and symmetrically for y.
So the test is one shift-AND of the gap mask per gap x: the mask shifted by
x meets itself iff x plus some gap is a gap.
"""

from __future__ import annotations

from . import Payload
from .errors import CapExceeded, NotStabilized
from .numsg import NumericalSemigroup
from .relideal import (
    RelativeIdeal,
    _census_counts,
    _generator_mask,
    _power_chain,
    enumerate_normalized_ideals,
    max_ideal,
    minimal_generator_count,
)

# Past the reduction number, which is below the multiplicity, the powers of
# an ideal repeat one mask, and the sweep's multiplicities are at most 17.
N_MAX_CAP = 32


def _hilbert_length(S: NumericalSemigroup, n: int, holes: int) -> int:
    """|S minus nM|, given the hole mask of nM relative to its least element."""
    x = n * S.multiplicity
    gaps_from_x = S.gap_mask >> x
    return x - S.genus + gaps_from_x.bit_count() + (holes & ~gaps_from_x).bit_count()


def max_ideal_chain(S: NumericalSemigroup) -> list[int]:
    """The hole masks of M, 2M, ... through the first repeat: every power of M that a check reads.

    M's generator offsets hold 0, so each mask lies inside the one before
    and the chain repeats within conductor + 2 powers, inside the
    2*conductor + 5 that the Hilbert probes reach; later powers repeat the
    last mask.
    """
    M = max_ideal(S)
    return list(_power_chain(S, M.holes, M.generator_mask, 2 * S.conductor + 5))


def multiplicity_via_hilbert(S: NumericalSemigroup, chain: list[int]) -> int:
    """Recover the multiplicity as the stabilized Hilbert difference, off ``max_ideal_chain(S)``.

    Probes n up to 2*conductor + 4 and requires the last two differences in
    the window to agree; the window provably reaches the linear regime
    (n*multiplicity >= conductor there), and anchoring at the end is immune
    to accidental early plateaus.
    """
    top = 2 * S.conductor + 4
    h_prev, h_top, h_last = (
        _hilbert_length(S, n, chain[min(n, len(chain)) - 1]) for n in (top - 1, top, top + 1)
    )
    d_last = h_last - h_top
    d_prev = h_top - h_prev
    if d_last != d_prev:
        raise NotStabilized(f"Hilbert differences {d_prev} != {d_last} at window end")
    return d_last


def is_monomial_quadratic(S: NumericalSemigroup) -> bool:
    """Is the normalization quadratic over S at monomial level?

    True iff every pair x, y of nonnegative integers has x + y in
    (x + S) union (y + S) union S, that is, no two gaps (possibly equal)
    sum to a gap.
    """
    gaps = S.gap_mask
    return not any(gaps << x & gaps for x in S.gaps())


def stable_ring_report(S: NumericalSemigroup, counts: tuple[int, int] | None = None) -> dict:
    """Check the stable / quadratic / Bass equivalence over all normalized ideals.

    The report is the dict the CLI prints: ``semigroup`` (the minimal
    generators, comma-separated), ``ideal_count`` and ``stable_count`` of
    the normalized ideals, their largest mu ``max_mu``, the three verdicts
    ``all_stable``, ``quadratic`` (the normalization is quadratic over S)
    and ``bass`` (multiplicity at most 2), and their ``agreement``.

    ``counts`` is (count, stable count) when the caller has them already;
    without it they are derived up S's ancestor chain.

    The largest mu is mu of the normalization N, which is the multiplicity
    m.  Two minimal generators x < y of a relative ideal I are incongruent
    mod m: y = x + km with k >= 1 would put y in M + I.  So mu(I) <= m for
    every I, and N, itself a normalized ideal, has the m generators
    0, ..., m - 1.
    """
    ideal_count, stable_count = counts or _census_counts(S)
    all_stable = stable_count == ideal_count
    quadratic = is_monomial_quadratic(S)
    bass = S.multiplicity <= 2
    return Payload(
        semigroup=",".join(str(g) for g in S.minimal_generators),
        ideal_count=ideal_count,
        stable_count=stable_count,
        max_mu=minimal_generator_count(RelativeIdeal(S, 0, 0)),
        all_stable=all_stable,
        quadratic=quadratic,
        bass=bass,
        agreement=all_stable == quadratic == bass,
    )


def check_n_max(n_max: int) -> None:
    """The power range 2..n_max must be nonempty and at most N_MAX_CAP; checked where it enters."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > N_MAX_CAP:
        raise CapExceeded(f"n_max {n_max} exceeds cap {N_MAX_CAP}")


def two_generator_check(S: NumericalSemigroup, n_max: int, chain: list[int]) -> dict:
    """Does some power M^n (2 <= n <= n_max) drop to two generators?  Read off ``max_ideal_chain(S)``.

    The biconditional under test: such a power exists iff the multiplicity is
    at most 2.
    """
    power_two_generated = any(_generator_mask(S, holes).bit_count() <= 2 for holes in chain[1:n_max])
    mult_le_2 = S.multiplicity <= 2
    return {
        "power_two_generated": power_two_generated,
        "mult_le_2": mult_le_2,
        "agree": power_two_generated == mult_le_2,
    }


def sally_check(S: NumericalSemigroup, n_max: int) -> dict[int, tuple[bool, bool]]:
    """Two-generated power implies two-generated and stable, over every normalized ideal of S.

    Returns each ideal's (hypothesis, conclusion) by its hole mask, in the
    order of ``enumerate_normalized_ideals``.  hypothesis: some n-fold sum
    of I with 2 <= n <= n_max has at most two minimal generators.
    conclusion: I itself has at most two and is stable.  Both sides are
    translation-invariant, so the verdict is the same for every least
    element of I.  Each ideal's generator mask is read once, into one
    table.  Every power nI - n min(I) is itself a normalized ideal of S, so
    its count is looked up there, and a power missing from the table raises
    KeyError.
    """
    table = {holes: _generator_mask(S, holes) for holes in enumerate_normalized_ideals(S)}
    verdicts = {}
    for holes, gens in table.items():
        powers = _power_chain(S, holes, gens, n_max)
        next(powers)  # I itself
        double = next(powers)  # n_max >= 2
        hypothesis = table[double].bit_count() <= 2
        if not hypothesis:
            for power in powers:  # a plain loop: any() over a generator costs more
                if table[power].bit_count() <= 2:
                    hypothesis = True
                    break
        verdicts[holes] = hypothesis, gens.bit_count() <= 2 and double == holes  # stable: repeats at 2I
    return verdicts


def greither_check(report: dict) -> dict:
    """Generator count of the normalization as an S-module, vs the Bass verdict.

    mu_normalization is mu_S of the full monoid, which equals the
    multiplicity (the report's ``max_mu``); agree ties mu <= 2 to the Bass
    verdict, and the quadratic consequence of two-generation is asserted
    alongside.
    """
    mu = report["max_mu"]
    return {
        "mu_normalization": mu,
        "bass": report["bass"],
        "agree": (mu <= 2) == report["bass"],
        "quadratic_when_two_generated": (mu > 2) or report["quadratic"],
    }


def minimal_multiplicity_check(S: NumericalSemigroup, chain: list[int]) -> dict:
    """Stable maximal ideal forces embedding dimension = multiplicity.  Read off ``max_ideal_chain(S)``."""
    m_stable = chain[1] == chain[0]  # M + M = m + M: the chain repeats at 2M
    edim_eq_mult = S.embedding_dimension == S.multiplicity
    return {
        "m_stable": m_stable,
        "edim_eq_mult": edim_eq_mult,
        "ok": (not m_stable) or edim_eq_mult,
    }
