"""Theorem-level predicates on the monomial model.

This module evaluates, for the monomial ring of a numerical semigroup S, the
ring-theoretic quantities that the stability theory ties together: the
multiplicity read off the Hilbert function, the quadratic-extension test
against the normalization, stability of every normalized module between S
and its normalization, the Bass verdict (multiplicity at most 2), and the
two-generated-power and minimal-multiplicity equivalences.

The census of the normalized ideals lists none of them: the count and the
stable count come from ``relideal._census_counts``, by a recurrence along
the semigroup tree (the sweep passes in the pair its memo pass derived from
the parent), and the largest mu is mu of the normalization, the one
``greither_check`` reports.  The powers nI
of one ideal are read off ``relideal._power_chain``, hole masks below the
conductor that stop once a power repeats the one before: the
two-generated-power checks count each power's generators with
``relideal._generator_mask``, and the multiplicity reader reads its three
Hilbert-function probes, each a power of M against the gap mask of S, off
one chain.

Quadratic test note: the extension test only needs pairs of gaps of S.  If
x is a member of S then x + y always lies in y + S, and symmetrically for y.
So the test is one shift-AND of the gap mask per gap x: the mask shifted by
x meets itself iff x plus some gap is a gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, NotStabilized
from .numsg import NumericalSemigroup
from .relideal import (  # private per-mask helpers: public calls stay per semigroup or ideal
    RelativeIdeal,
    _census_counts,
    _generator_mask,
    _power_chain,
    is_stable,
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


def multiplicity_via_hilbert(S: NumericalSemigroup) -> int:
    """Recover the multiplicity as the stabilized Hilbert difference.

    Probes n up to 2*conductor + 4 and requires the last two differences in
    the window to agree; the window provably reaches the linear regime
    (n*multiplicity >= conductor there), and anchoring at the end is immune
    to accidental early plateaus.
    """
    top = 2 * S.conductor + 4
    chain = list(_power_chain(max_ideal(S), top + 1))  # a chain cut short repeats its last mask
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


@dataclass(frozen=True)
class StableRingReport:
    """The three-way equivalence data for one semigroup."""

    semigroup: NumericalSemigroup
    ideal_count: int
    stable_count: int
    max_mu: int
    all_stable: bool
    quadratic_over_normalization: bool
    is_bass: bool
    agreement: bool

    def to_payload(self) -> dict:
        """JSON-stable field names."""
        return {
            "semigroup": ",".join(str(g) for g in self.semigroup.minimal_generators),
            "ideal_count": self.ideal_count,
            "stable_count": self.stable_count,
            "max_mu": self.max_mu,
            "all_stable": self.all_stable,
            "quadratic": self.quadratic_over_normalization,
            "bass": self.is_bass,
            "agreement": self.agreement,
        }


def stable_ring_report(S: NumericalSemigroup, counts: tuple[int, int] | None = None) -> StableRingReport:
    """Check the stable / quadratic / Bass equivalence over all normalized ideals.

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
    return StableRingReport(
        semigroup=S,
        ideal_count=ideal_count,
        stable_count=stable_count,
        max_mu=minimal_generator_count(RelativeIdeal(S, 0, 0)),
        all_stable=all_stable,
        quadratic_over_normalization=quadratic,
        is_bass=bass,
        agreement=all_stable == quadratic == bass,
    )


def check_n_max(n_max: int) -> None:
    """The power range 2..n_max must be nonempty and at most N_MAX_CAP; checked where it enters."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > N_MAX_CAP:
        raise CapExceeded(f"n_max {n_max} exceeds cap {N_MAX_CAP}")


def _power_two_generated(I: RelativeIdeal, n_max: int) -> bool:
    """Does some n-fold sum of I with 2 <= n <= n_max have at most two generators?"""
    powers = _power_chain(I, n_max)
    next(powers)  # I itself
    return any(_generator_mask(I.ambient, holes).bit_count() <= 2 for holes in powers)


def two_generator_check(S: NumericalSemigroup, n_max: int = 8) -> dict:
    """Does some power M^n (2 <= n <= n_max) drop to two generators?

    The biconditional under test: such a power exists iff the multiplicity is
    at most 2.
    """
    check_n_max(n_max)
    return _two_generator(S, n_max)


def _two_generator(S: NumericalSemigroup, n_max: int) -> dict:
    power_two_generated = _power_two_generated(max_ideal(S), n_max)
    mult_le_2 = S.multiplicity <= 2
    return {
        "power_two_generated": power_two_generated,
        "mult_le_2": mult_le_2,
        "agree": power_two_generated == mult_le_2,
    }


def sally_check(I: RelativeIdeal, n_max: int = 8) -> dict:
    """Two-generated power implies two-generated and stable.

    hypothesis: some n-fold sum of I with 2 <= n <= n_max has at most two
    minimal generators.  conclusion: I itself has at most two and is stable.
    Both sides are translation-invariant, so the verdict is the same for an
    ideal and any of its integral translates.
    """
    check_n_max(n_max)
    return _sally(I, n_max)


def _sally(I: RelativeIdeal, n_max: int) -> dict:
    hypothesis = _power_two_generated(I, n_max)
    conclusion = I.generator_mask.bit_count() <= 2 and is_stable(I)
    return {
        "hypothesis": hypothesis,
        "conclusion": conclusion,
        "ok": (not hypothesis) or conclusion,
    }


def greither_check(S: NumericalSemigroup) -> dict:
    """Generator count of the normalization as an S-module, vs the Bass verdict.

    mu_normalization is mu_S of the full monoid, which equals the
    multiplicity; agree ties mu <= 2 to the Bass verdict, and the quadratic
    consequence of two-generation is asserted alongside.
    """
    mu = minimal_generator_count(RelativeIdeal(S, 0, 0))  # min 0, no holes
    bass = S.multiplicity <= 2
    return {
        "mu_normalization": mu,
        "bass": bass,
        "agree": (mu <= 2) == bass,
        "quadratic_when_two_generated": (mu > 2) or is_monomial_quadratic(S),
    }


def minimal_multiplicity_check(S: NumericalSemigroup) -> dict:
    """Stable maximal ideal forces embedding dimension = multiplicity."""
    m_stable = is_stable(max_ideal(S))
    edim_eq_mult = S.embedding_dimension == S.multiplicity
    return {
        "m_stable": m_stable,
        "edim_eq_mult": edim_eq_mult,
        "ok": (not m_stable) or edim_eq_mult,
    }
