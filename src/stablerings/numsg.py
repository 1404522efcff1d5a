"""Exact arithmetic and enumeration of numerical semigroups.

A numerical semigroup S is a cofinite additive submonoid of the nonnegative
integers.  It is the combinatorial skeleton of the monomial local ring
k[[t^s : s in S]]: the maximal ideal is S minus 0, the multiplicity is the
least positive element, and the embedding dimension is the number of minimal
generators.

Membership is tabulated once on the window [0, c] where c is the conductor
(the least c with [c, oo) inside S); cofiniteness makes that window complete
information, so every query reduces to it.  Minimal generators are always
recomputed from the membership table rather than trusted, which makes the
type canonical: two values are equal iff their minimal generator tuples are.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CapExceeded, EmptyInput, GcdNotOne, NotAMember

ENUMERATION_GENUS_CAP = 16


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
        return tuple(z for z in range(self.conductor) if not self.small_members >> z & 1)

    def members_mask(self, width: int) -> int:
        """Bitmask of membership on [0, width)."""
        full_above = ((1 << max(width - self.conductor, 0)) - 1) << self.conductor
        return (self.small_members | full_above) & ((1 << width) - 1)

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.minimal_generators) + ">"


def _from_member_mask(mask: int, width: int) -> NumericalSemigroup:
    """Build the canonical value from a membership bitmask.

    ``mask`` must describe membership on [0, width) for a set that contains
    every z in [conductor, width); the window must reach past the conductor.
    """
    if not mask & 1:
        raise ValueError("0 must be a member")
    # conductor: start of the trailing all-ones run of the window
    conductor = width
    while conductor > 0 and mask >> (conductor - 1) & 1:
        conductor -= 1
    if conductor >= width:
        raise ValueError("window does not reach the conductor")
    frobenius = conductor - 1
    genus = conductor - (mask & ((1 << conductor) - 1)).bit_count()

    def is_member(z: int) -> bool:
        return z >= conductor or bool(mask >> z & 1)

    multiplicity = 1
    while not is_member(multiplicity):
        multiplicity += 1

    # minimal generators: positive members that are not sums of two positive
    # members; all of them lie below conductor + multiplicity
    limit = conductor + multiplicity
    members = [z for z in range(1, limit + 1) if is_member(z)]
    mingens = []
    for s in members:
        if not any(is_member(s - t) for t in members if t < s):
            mingens.append(s)

    # closure sanity check on the tabulated window; quadratic, so only for
    # windows of the size the enumeration and sweeps actually produce
    if limit <= 512:
        for a in members:
            if 2 * a > limit:
                break
            for b in members:
                if b < a:
                    continue
                s = a + b
                if s > limit:
                    break
                if not is_member(s):
                    raise ValueError(f"membership table not closed: {a}+{b}")

    return NumericalSemigroup(
        minimal_generators=tuple(mingens),
        conductor=conductor,
        frobenius=frobenius,
        multiplicity=multiplicity,
        genus=genus,
        small_members=mask & ((1 << (conductor + 1)) - 1),
    )


def from_generators(gens) -> NumericalSemigroup:
    """The numerical semigroup generated by ``gens``.

    Redundant generators are dropped; conductor, gaps and the membership
    table are computed exactly.  Raises :class:`GcdNotOne` when the given
    integers do not generate a cofinite monoid.
    """
    gens = sorted(set(gens))
    if not gens:
        raise EmptyInput("need at least one generator")
    if gens[0] < 1:
        raise ValueError("generators must be positive integers")
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise GcdNotOne(f"gcd of generators is {g}, semigroup is not cofinite")

    m = gens[0]
    # grow the closure window until m consecutive members appear; from there
    # on every integer is a member
    width = max(gens) + 1
    while True:
        width *= 2
        mask = 1
        for z in range(1, width):
            for a in gens:
                if a > z:
                    break
                if mask >> (z - a) & 1:
                    mask |= 1 << z
                    break
        run = 0
        found = False
        for z in range(width):
            run = run + 1 if mask >> z & 1 else 0
            if run >= m:
                found = True
                break
        if found:
            return _from_member_mask(mask, width)


def from_gaps(gaps) -> NumericalSemigroup:
    """The semigroup whose gap set is ``gaps`` (which must be valid)."""
    gaps = sorted(set(gaps))
    if gaps and gaps[0] < 1:
        raise ValueError("gaps must be positive integers")
    width = (gaps[-1] + 2) if gaps else 1
    mask = (1 << width) - 1
    for z in gaps:
        mask &= ~(1 << z)
    return _from_member_mask(mask, width)


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
                    nxt.append(from_gaps(S.gaps() + (g,)))
        level = nxt
        yield from level
