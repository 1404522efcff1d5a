"""Relative (fractional) ideals of a numerical semigroup.

A relative ideal of S is a nonempty subset I of the integers with
I + S contained in I that admits a translate inside S.  It is the monomial
model of a fractional ideal of k[[S]]: generators may be negative, the
module generated is the union of the translates g + S, and translating by
b = conductor - min(I) always lands inside S, which is the fractionality
witness.

An ideal is stored as its least element and the bitmask of the holes of
I - min(I): the nonnegative integers it misses.  Since min(I) + S lies in I,
the holes are gaps of S, so the mask lies below the conductor, exactly like
the gap mask of the semigroup itself.  The form is canonical, so equality is
field equality, and every operation is a few shifts of one mask.  The
stability test I+I = min(I)+I checks only the forced candidate x = min(I):
at monomial level min(I+I) = 2 min(I), which pins the translation amount.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import AmbientMismatch, CapExceeded, EmptyInput
from .numsg import ENUMERATION_GENUS_CAP, NumericalSemigroup, from_gaps


@dataclass(frozen=True)
class RelativeIdeal:
    """A relative ideal: its least element and the holes of I - min(I).

    Bit k of ``holes`` is set iff min_element + k is not a member; every
    hole lies below the conductor of the ambient semigroup.
    """

    ambient: NumericalSemigroup
    min_element: int
    holes: int

    @cached_property
    def minimal_generators(self) -> tuple[int, ...]:
        """The members outside M + I, ascending (M the maximal ideal of S).

        M + I is the union of s + I over the minimal generators s of S, and
        every member from min + conductor + multiplicity on lies in
        multiplicity + I, so that window holds every generator.
        """
        S = self.ambient
        m = ((1 << (S.conductor + S.multiplicity)) - 1) & ~self.holes
        covered = 0
        for s in S.minimal_generators:
            covered |= m << s
        gens = m & ~covered
        out = []
        while gens:
            low = gens & -gens
            out.append(self.min_element + low.bit_length() - 1)
            gens ^= low
        return tuple(out)

    def contains(self, z: int) -> bool:
        k = z - self.min_element
        return k >= 0 and not self.holes >> k & 1

    def __contains__(self, z: int) -> bool:
        return self.contains(z)

    def members_mask(self, lo: int, width: int) -> int:
        """Bitmask of membership on [lo, lo + width)."""
        shift = self.min_element - lo
        span = width - shift  # the offsets from min_element the window reaches
        if span <= 0:
            return 0
        mask = ((1 << span) - 1) & ~self.holes
        return mask << shift if shift >= 0 else mask >> -shift

    def __add__(self, other: "RelativeIdeal") -> "RelativeIdeal":
        return ideal_sum(self, other)

    def __str__(self) -> str:
        gens = ",".join(str(g) for g in self.minimal_generators)
        return f"({gens})+{self.ambient}"


def make_ideal(S: NumericalSemigroup, gens) -> RelativeIdeal:
    """The relative ideal of S generated by ``gens``."""
    gens = set(gens)
    if not gens:
        raise EmptyInput("need at least one ideal generator")
    lo = min(gens)
    c = S.conductor
    members = 0
    for g in gens:
        # a generator at or past lo + conductor lies in lo + S and adds
        # nothing; skipping it keeps the mask below the conductor
        k = g - lo
        if k < c:
            members |= S.members_mask(c - k) << k
    return RelativeIdeal(S, lo, ((1 << c) - 1) & ~members)


def ideal_sum(I: RelativeIdeal, J: RelativeIdeal) -> RelativeIdeal:
    """The ideal generated by all pairwise generator sums (the product IJ).

    I + J is the union of g + I over the generators g of J; its holes lie
    below the conductor, so the shifted masks are cut there.
    """
    if I.ambient != J.ambient:
        raise AmbientMismatch("ideals live over different semigroups")
    full = (1 << I.ambient.conductor) - 1
    m = full & ~I.holes
    members = 0
    for g in J.minimal_generators:
        members |= m << (g - J.min_element)
    return RelativeIdeal(I.ambient, I.min_element + J.min_element, full & ~members)


def translate(I: RelativeIdeal, t: int) -> RelativeIdeal:
    """The ideal t + I."""
    return RelativeIdeal(I.ambient, I.min_element + t, I.holes)


def nfold(I: RelativeIdeal, n: int) -> RelativeIdeal:
    """The n-fold sum I + ... + I (the ideal power), n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = I
    for _ in range(n - 1):
        out = ideal_sum(out, I)
    return out


def end_semigroup(I: RelativeIdeal) -> NumericalSemigroup:
    """The endomorphism semigroup E(I) = {z : z + I inside I}.

    E(I) always contains the ambient S and is itself a numerical semigroup:
    negative z would push min(I) below itself, and z >= conductor(S) acts via
    z + g in g + S.  So the scan window [0, conductor) is complete.  There z
    is a member iff z + g lies in I for every generator g, an AND of I's mask
    shifted down by each generator offset.
    """
    c = I.ambient.conductor
    offsets = [g - I.min_element for g in I.minimal_generators]
    m = I.members_mask(I.min_element, c + offsets[-1])
    members = (1 << c) - 1
    for k in offsets:
        members &= m >> k
    return from_gaps(z for z in range(1, c) if not members >> z & 1)


def max_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """The maximal ideal M = S minus 0, generated by the minimal generators."""
    return make_ideal(S, S.minimal_generators)


def minimal_generator_count(I: RelativeIdeal) -> int:
    """mu(I): the number of minimal generators (graded Nakayama count)."""
    return len(I.minimal_generators)


def is_stable(I: RelativeIdeal) -> bool:
    """True iff I + I = min(I) + I."""
    return ideal_sum(I, I).holes == I.holes


def enumerate_normalized_ideals(
    S: NumericalSemigroup, cap: int = ENUMERATION_GENUS_CAP
) -> list[RelativeIdeal]:
    """Every relative ideal I with min(I) = 0 and I inside the integers >= 0.

    These are exactly the S-modules between S and its normalization: each
    misses a subset H of the gaps of S such that the members, shifted by any
    minimal generator of S, never land in H.  There are at most 2^genus of
    them; they come in descending order of H, which is ascending order of
    the added gap set.
    """
    if S.genus > cap:
        raise CapExceeded(f"genus {S.genus} exceeds cap {cap}")
    c = S.conductor
    full = (1 << c) - 1
    gap_mask = full & ~S.small_members
    # a generator at or past the conductor shifts every member out of range
    shifts = [s for s in S.minimal_generators if s < c]
    out = []
    holes = gap_mask
    while True:
        members = full ^ holes
        for s in shifts:
            if members << s & holes:
                break
        else:
            out.append(RelativeIdeal(S, 0, holes))
        if not holes:
            return out
        holes = (holes - 1) & gap_mask


@dataclass(frozen=True)
class TowerReport:
    """The blow-up chain S_0, S_1, ... with S_{i+1} = E(max ideal of S_i)."""

    tower: tuple[NumericalSemigroup, ...]
    multiplicity_sequence: tuple[int, ...]
    stabilization_index: int
    reached_normalization: bool


def blowup_tower(S: NumericalSemigroup, cap: int = 64) -> TowerReport:
    """Iterate S -> E(M) until the full monoid is reached or cap steps pass.

    The chain strictly increases until it stabilizes at the normalization
    (the Frobenius number joins E(M) at every proper step), so it reaches the
    full monoid within genus(S) steps; cap exhaustion is reported in the
    record rather than raised.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    tower = [S]
    while not tower[-1].is_full and len(tower) <= cap:
        tower.append(end_semigroup(max_ideal(tower[-1])))
    return TowerReport(
        tower=tuple(tower),
        multiplicity_sequence=tuple(t.multiplicity for t in tower),
        stabilization_index=len(tower) - 1,
        reached_normalization=tower[-1].is_full,
    )
