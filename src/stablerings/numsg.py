"""Exact arithmetic and enumeration of numerical semigroups.

A numerical semigroup S is a cofinite additive submonoid of the nonnegative
integers.  It is the combinatorial skeleton of the monomial local ring
k[[t^s : s in S]]: the maximal ideal is S minus 0, the multiplicity is the
least positive element, and the embedding dimension is the number of minimal
generators.

A value is stored as its gap mask: bit z is set iff z is a gap, a
nonnegative integer outside S.  Cofiniteness makes the mask finite, and its
bit length is the conductor (the least c with [c, oo) inside S), so every
membership query is one shift of it.  One constructor,
``NumericalSemigroup.from_gap_mask``, builds every value from a gap mask
with whole-mask operations, recomputing the minimal generators (so two
values are equal iff their generator tuples are) and checking closure
under each.  ``from_generators`` sizes its window by doubling, so it
refuses more than ``GENERATOR_CAP`` distinct generators or a window past
``WINDOW_CAP`` bits with :class:`CapExceeded`.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import CapExceeded, EmptyInput, GcdNotOne

# a whole `sweep --max-genus 20` run at 2 jobs takes 3.7-6.4 s in a fresh process
# on a shared 2-core 2.1 GHz Xeon with Python 3.11.7 (9 runs, in three sets of 3
# at different times), and 14.1-16.8 s with `--sally-genus-cap 14 --n-max 32`
# (3 runs), inside the 120 s ceiling; `sg report 7,8`, of genus 21, stays refused
ENUMERATION_GENUS_CAP = 20
WINDOW_CAP = 1 << 20
GENERATOR_CAP = 256


class NumericalSemigroup(NamedTuple):
    """A numerical semigroup in canonical form.

    ``gap_mask`` is the bitmask of the gaps: bit z is set iff z >= 0 is not
    a member.  Every z at or past its bit length, the conductor, is a
    member, and every negative z is not.
    """

    minimal_generators: tuple[int, ...]
    conductor: int
    multiplicity: int
    genus: int
    gap_mask: int

    @classmethod
    def from_gap_mask(cls, gaps: int) -> "NumericalSemigroup":
        """The semigroup whose gap mask is ``gaps``.

        The minimal generators are found in ascending order: each is the
        least positive member outside the union of g + S over the generators
        g found before it.  Every member is a sum of them, so S is closed
        under addition iff it is closed under adding each one; a mask that
        is not raises ValueError, and so does a mask with bit 0 set or a
        negative one, whose gaps would not be finitely many.
        """
        if gaps & 1 or gaps < 0:
            raise ValueError("0 must be a member and the gaps finitely many")
        conductor = gaps.bit_length()
        low = (gaps | 1) + 1 & ~gaps  # lowest clear bit of gaps | 1
        multiplicity = low.bit_length() - 1
        # a minimal generator s > multiplicity has s - multiplicity a gap,
        # so every one is at most conductor + multiplicity
        members = ((1 << (conductor + multiplicity + 1)) - 1) & ~gaps
        mingens = []
        rest = members & ~1  # the positive members not yet sums of found generators
        while rest:
            g = (rest & -rest).bit_length() - 1
            if gaps >> g & members:
                raise ValueError(f"gap mask not closed under adding {g}")
            mingens.append(g)
            rest &= ~(members << g)
        return cls(
            minimal_generators=tuple(mingens),
            conductor=conductor,
            multiplicity=multiplicity,
            genus=gaps.bit_count(),
            gap_mask=gaps,
        )

    def contains(self, z: int) -> bool:
        """Membership test: one shift of the gap mask."""
        return z >= 0 and not self.gap_mask >> z & 1

    __contains__ = contains  # `z in S` tests membership, not the record's fields

    @property
    def frobenius(self) -> int:
        """The largest integer outside S; -1 for the full monoid."""
        return self.conductor - 1

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)

    @property
    def is_full(self) -> bool:
        """True iff S is all of the nonnegative integers."""
        return self.conductor == 0

    def gaps(self) -> tuple[int, ...]:
        """The finitely many nonnegative integers outside S, ascending."""
        # a string reader: relideal._offsets rewrites the whole mask per set bit,
        # 11.5 ms against 0.74 ms on the dense gap mask of <130,131> (conductor
        # 16,770) on a 2-core 2.1 GHz Xeon with Python 3.11.7
        bits = bin(self.gap_mask)[:1:-1]  # character z is bit z
        return tuple(z for z, bit in enumerate(bits) if bit == "1")

    def members_mask(self, width: int) -> int:
        """Bitmask of membership on [0, width)."""
        return ((1 << width) - 1) & ~self.gap_mask

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.minimal_generators) + ">"


def from_generators(gens) -> NumericalSemigroup:
    """The numerical semigroup generated by ``gens``.

    Redundant generators are dropped; the conductor and the gap mask are
    computed exactly.  Raises ValueError on a generator below 1, before
    any cap, :class:`GcdNotOne` when the given integers do not generate a
    cofinite monoid, and :class:`CapExceeded` past ``GENERATOR_CAP``
    distinct generators or when the membership window would outgrow
    ``WINDOW_CAP`` bits.
    """
    gens = set(gens)
    if not gens:
        raise EmptyInput("need at least one generator")
    if min(gens) < 1:
        raise ValueError("semigroup generators must be positive")
    if len(gens) > GENERATOR_CAP:
        raise CapExceeded(f"{len(gens)} distinct generators exceed cap {GENERATOR_CAP}")
    gens = sorted(gens)
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
            return NumericalSemigroup.from_gap_mask(window & ~mask)
        width *= 2


NAT = from_generators([1])


def invariants(S: NumericalSemigroup) -> dict:
    """The five classical invariants, as a plain record."""
    return {
        "multiplicity": S.multiplicity,
        "embedding_dimension": S.embedding_dimension,
        "frobenius": S.frobenius,
        "conductor": S.conductor,
        "genus": S.genus,
    }


def children(S: NumericalSemigroup):
    """Yield the children of S in the semigroup tree, by removed generator ascending.

    Removing a minimal generator g > F(S) leaves a semigroup of genus one
    more, whose Frobenius number is g.  Every numerical semigroup T but N
    is the child of exactly one, its parent T + {F(T)}.
    """
    for g in S.minimal_generators:
        if g > S.frobenius:
            yield NumericalSemigroup.from_gap_mask(S.gap_mask | 1 << g)


def check_genus(genus: int) -> None:
    """A genus, or a bound on one, must lie in [0, ENUMERATION_GENUS_CAP]; checked before any work."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus > ENUMERATION_GENUS_CAP:
        raise CapExceeded(f"genus {genus} exceeds cap {ENUMERATION_GENUS_CAP}")


def enumerate_semigroups(max_genus: int):
    """Yield every numerical semigroup of genus <= max_genus exactly once.

    Walks the semigroup tree rooted at the full monoid, breadth first.
    Order is deterministic: genus by genus, parents in enumeration order,
    children by removed generator.  The generators removed on the path from
    N to S are the gaps of S in ascending order, so within a genus this is
    lexicographic order of ``S.gaps()``.
    """
    check_genus(max_genus)
    level = [NAT]
    yield NAT
    for _ in range(max_genus):
        level = [child for S in level for child in children(S)]
        yield from level
