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
``greither_check`` reports.  The powers of M are one chain,
``_max_ideal_chain``: the hole masks of ``relideal._power_chain`` below the
conductor, through the first repeat.  The two-generated-power test counts
the generators of M^2 ... M^n_max with ``relideal._generator_mask``, the
minimal-multiplicity test asks whether the chain repeats at 2M, and the
multiplicity reader takes its three Hilbert-function probes, each a power
of M against the gap mask of S, off the same chain, which the sweep builds
once per semigroup.  The Sally check runs on S and a bare hole mask, so the
sweep's per-ideal pass builds no ideal object.

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
    return _hilbert_multiplicity(S, _max_ideal_chain(S))


def _max_ideal_chain(S: NumericalSemigroup) -> list[int]:
    """The hole masks of M, 2M, ... through the first repeat: every power of M that a check reads.

    M's generator offsets hold 0, so each mask lies inside the one before
    and the chain repeats within conductor + 2 powers, inside the
    2*conductor + 5 that the Hilbert probes reach; later powers repeat the
    last mask.
    """
    M = max_ideal(S)
    return list(_power_chain(S, M.holes, M.generator_mask, 2 * S.conductor + 5))


def _hilbert_multiplicity(S: NumericalSemigroup, chain: list[int]) -> int:
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


def _power_two_generated(S: NumericalSemigroup, powers) -> bool:
    """Does one of these hole masks, each a power of an ideal of S, have at most two generators?"""
    for holes in powers:  # a plain loop: any() over a generator costs a tenth of the Sally pass
        if _generator_mask(S, holes).bit_count() <= 2:
            return True
    return False


def two_generator_check(S: NumericalSemigroup, n_max: int = 8) -> dict:
    """Does some power M^n (2 <= n <= n_max) drop to two generators?

    The biconditional under test: such a power exists iff the multiplicity is
    at most 2.
    """
    check_n_max(n_max)
    return _two_generator(S, n_max, _max_ideal_chain(S))


def _two_generator(S: NumericalSemigroup, n_max: int, chain: list[int]) -> dict:
    power_two_generated = _power_two_generated(S, chain[1:n_max])
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
    return _sally(I.ambient, I.holes, n_max)


def _sally(S: NumericalSemigroup, holes: int, n_max: int) -> dict:
    """The Sally verdict of the ideal of S with this hole mask, whatever its least element."""
    gens = _generator_mask(S, holes)
    powers = _power_chain(S, holes, gens, n_max)
    next(powers)  # I itself
    double = next(powers)  # n_max >= 2
    hypothesis = _generator_mask(S, double).bit_count() <= 2 or _power_two_generated(S, powers)
    conclusion = gens.bit_count() <= 2 and double == holes  # stable: the chain repeats at 2I
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
    # the verdict reads the quadratic test only when mu <= 2
    return _greither(S, mu, mu <= 2 and is_monomial_quadratic(S))


def _greither(S: NumericalSemigroup, mu: int, quadratic: bool) -> dict:
    """The Greither verdict from mu of the normalization and the quadratic test.

    The sweep reads both off the semigroup's ring report.
    """
    bass = S.multiplicity <= 2
    return {
        "mu_normalization": mu,
        "bass": bass,
        "agree": (mu <= 2) == bass,
        "quadratic_when_two_generated": (mu > 2) or quadratic,
    }


def minimal_multiplicity_check(S: NumericalSemigroup) -> dict:
    """Stable maximal ideal forces embedding dimension = multiplicity."""
    return _minimal_multiplicity(S, _max_ideal_chain(S))


def _minimal_multiplicity(S: NumericalSemigroup, chain: list[int]) -> dict:
    m_stable = chain[1] == chain[0]  # M + M = m + M: the chain repeats at 2M
    edim_eq_mult = S.embedding_dimension == S.multiplicity
    return {
        "m_stable": m_stable,
        "edim_eq_mult": edim_eq_mult,
        "ok": (not m_stable) or edim_eq_mult,
    }
