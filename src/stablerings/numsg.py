"""Exact arithmetic and enumeration of numerical semigroups.

A numerical semigroup S is a cofinite additive submonoid of the nonnegative
integers.  It is the combinatorial skeleton of the monomial local ring
k[[t^s : s in S]]: the maximal ideal is S minus 0, the multiplicity is the
least positive element, and the embedding dimension is the number of minimal
generators.

Membership is tabulated once on the window [0, c] where c is the conductor
(the least c with [c, oo) inside S); cofiniteness makes that window complete
information, so every query reduces to it.  One constructor,
``NumericalSemigroup.from_member_mask``, builds every value from a
membership bitmask with whole-mask operations, recomputing the minimal
generators (so two values are equal iff their generator tuples are) and
checking closure under each.  ``from_generators`` sizes its window by
doubling, so it refuses more than ``GENERATOR_CAP`` distinct generators or
a window past ``WINDOW_CAP`` bits with :class:`CapExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CapExceeded, EmptyInput, GcdNotOne, NotAMember

ENUMERATION_GENUS_CAP = 16
WINDOW_CAP = 1 << 20
GENERATOR_CAP = 256


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup in canonical form.

    ``small_members`` is a bitmask over [0, conductor]: bit z is set iff z is
    a member.  Everything above the conductor is a member, everything
    negative is not.
    """

    minimal_generators: tuple[int, ...]
    conductor: int
    frobenius: int
    multiplicity: int
    genus: int
    small_members: int

    @classmethod
    def from_member_mask(cls, mask: int, width: int) -> "NumericalSemigroup":
        """The semigroup whose membership on [0, width) is ``mask``.

        Every z in [width, oo) counts as a member, and bit width - 1 must be
        set, so the window reaches the conductor.  The minimal generators are
        found in ascending order: each is the least positive member outside
        the union of g + S over the generators g found before it.  Every
        member is a sum of them, so S is closed under addition iff it is
        closed under adding each one; a mask that is not raises ValueError.
        """
        if not mask & 1:
            raise ValueError("0 must be a member")
        holes = ((1 << width) - 1) & ~mask
        conductor = holes.bit_length()
        if conductor >= width:
            raise ValueError("window does not reach the conductor")
        low = (holes | 1) + 1 & ~holes  # lowest clear bit of holes | 1
        multiplicity = low.bit_length() - 1
        # a minimal generator s > multiplicity has s - multiplicity a gap,
        # so every one is at most conductor + multiplicity
        members = ((1 << (conductor + multiplicity + 1)) - 1) & ~holes
        mingens = []
        rest = members & ~1  # the positive members not yet sums of found generators
        while rest:
            g = (rest & -rest).bit_length() - 1
            if holes >> g & members:
                raise ValueError(f"membership mask not closed under adding {g}")
            mingens.append(g)
            rest &= ~(members << g)
        return cls(
            minimal_generators=tuple(mingens),
            conductor=conductor,
            frobenius=conductor - 1,
            multiplicity=multiplicity,
            genus=holes.bit_count(),
            small_members=members & ((1 << (conductor + 1)) - 1),
        )

    def contains(self, z: int) -> bool:
        """Membership test; constant time via the tabulated window."""
        if z < 0:
            return False
        if z >= self.conductor:
            return True
        return bool(self.small_members >> z & 1)

    def __contains__(self, z: int) -> bool:
        return self.contains(z)

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)

    @property
    def is_full(self) -> bool:
        """True iff S is all of the nonnegative integers."""
        return self.conductor == 0

    def gaps(self) -> tuple[int, ...]:
        """The finitely many nonnegative integers outside S, ascending."""
        holes = ((1 << self.conductor) - 1) & ~self.small_members
        bits = bin(holes)[:1:-1]  # character z is bit z
        return tuple(z for z, bit in enumerate(bits) if bit == "1")

    def members_mask(self, width: int) -> int:
        """Bitmask of membership on [0, width)."""
        full_above = ((1 << max(width - self.conductor, 0)) - 1) << self.conductor
        return (self.small_members | full_above) & ((1 << width) - 1)

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.minimal_generators) + ">"


def from_generators(gens) -> NumericalSemigroup:
    """The numerical semigroup generated by ``gens``.

    Redundant generators are dropped; conductor, gaps and the membership
    table are computed exactly.  Raises :class:`GcdNotOne` when the given
    integers do not generate a cofinite monoid, and :class:`CapExceeded`
    past ``GENERATOR_CAP`` distinct generators or when the membership window
    would outgrow ``WINDOW_CAP`` bits.
    """
    gens = set(gens)
    if not gens:
        raise EmptyInput("need at least one generator")
    if len(gens) > GENERATOR_CAP:
        raise CapExceeded(f"{len(gens)} distinct generators exceed cap {GENERATOR_CAP}")
    gens = sorted(gens)
    if gens[0] < 1:
        raise ValueError("generators must be positive integers")
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise GcdNotOne(f"gcd of generators is {g}, semigroup is not cofinite")

    # close a window under each generator by shift-OR doubling, doubling the
    # window until its top m bits are members; m consecutive members put
    # every larger integer in S.  A generator past the window adds nothing
    # to it, and one already inside is a sum of earlier ones.
    m = gens[0]
    width = m
    while True:
        if width > WINDOW_CAP:
            raise CapExceeded(f"membership window of {width} bits exceeds cap {WINDOW_CAP}")
        window = (1 << width) - 1
        mask = 1
        for a in gens:
            if a >= width:
                break
            if mask >> a & 1:
                continue
            step = a
            while step < width:
                mask = (mask | mask << step) & window
                step *= 2
        if mask >> (width - m) == (1 << m) - 1:
            return NumericalSemigroup.from_member_mask(mask, width)
        width *= 2


def from_gaps(gaps) -> NumericalSemigroup:
    """The semigroup whose gap set is ``gaps``; raises ValueError if none is."""
    gaps = set(gaps)
    if gaps and min(gaps) < 1:
        raise ValueError("gaps must be positive integers")
    width = max(gaps, default=-1) + 2
    holes = sum(1 << z for z in gaps)
    return NumericalSemigroup.from_member_mask(((1 << width) - 1) & ~holes, width)


NAT = from_generators([1])


def apery_set(S: NumericalSemigroup, k: int) -> list[int]:
    """The least member of S in each residue class mod k, for k in S.

    Entry i of the result is the least member congruent to i mod k; the
    largest entry minus k is the Frobenius number.
    """
    if k <= 0 or not S.contains(k):
        raise NotAMember(f"{k} is not a positive member of {S}")
    out: list[int | None] = [None] * k
    remaining = k
    z = 0
    while remaining:
        if out[z % k] is None and S.contains(z):
            out[z % k] = z
            remaining -= 1
        z += 1
    return [v for v in out if v is not None]


def invariants(S: NumericalSemigroup) -> dict:
    """The five classical invariants, as a plain record."""
    return {
        "multiplicity": S.multiplicity,
        "embedding_dimension": S.embedding_dimension,
        "frobenius": S.frobenius,
        "conductor": S.conductor,
        "genus": S.genus,
    }


def enumerate_semigroups(max_genus: int, cap: int = ENUMERATION_GENUS_CAP):
    """Yield every numerical semigroup of genus <= max_genus exactly once.

    Walks the semigroup tree rooted at the full monoid: the children of S are
    obtained by removing one minimal generator larger than the Frobenius
    number, which raises the genus by exactly one.  Order is deterministic:
    genus by genus, parents in enumeration order, children by removed
    generator.
    """
    if max_genus < 0:
        raise ValueError("max_genus must be nonnegative")
    if max_genus > cap:
        raise CapExceeded(f"max_genus {max_genus} exceeds cap {cap}")
    level = [NAT]
    yield NAT
    for _ in range(max_genus):
        nxt = []
        for S in level:
            for g in S.minimal_generators:
                if g > S.frobenius:
                    child = S.members_mask(g + 2) & ~(1 << g)
                    nxt.append(NumericalSemigroup.from_member_mask(child, g + 2))
        level = nxt
        yield from level
