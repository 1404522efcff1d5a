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
generators are held in one form, the ``generator_mask`` property that
``_generator_mask`` reads off a hole mask: ``mu`` is its bit count, and
``_offsets`` is the one reader of its set bits, the generator offsets from
min(I) that E(I) and the powers shift by.  The powers I, 2I, ... are one
chain of hole masks, ``_power_chain``, which takes bare masks, so a caller
that walks many ideals builds no ideal object.  Stability I+I = min(I)+I is
the chain repeating at 2I: at monomial level min(I+I) = 2 min(I), which
pins the translation amount.  The normalized ideals are generated gap by
gap, never filtered, and ``enumerate_normalized_ideals`` returns them as
bare hole masks, the one form the sweep's Sally pass reads.  The ring
report's census lists none of them.  It reads the count and the stable
count off those of the tree parent S + {F(S)}, whose gap poset is S's
without the maximal gap F(S): an ideal holds F(S) and is the parent's plus
F(S), or misses the down-set of F(S).  The sweep's walk passes the
parent's pair down its stack, from parent to child.  A single call walks
the ancestor chain on S's own masks: each ancestor is S plus the gaps
above some gap f, and its gap poset is the prefix of S's up to f, with S's
order.  E(I) is read off I's holes by one shift-OR, ``_end_gap_mask``:
z misses E(I) iff z + k is a hole for some generator offset k.  With S's
gap mask and minimal generators the same shift-OR gives the gap mask of
E(M), ``_blowup_gap_mask``, for each step of the blow-up tower and for the
sweep's multiplicity sequences, and ``NumericalSemigroup.from_gap_mask``
builds the semigroup from either.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceeded, EmptyInput
from .numsg import GENERATOR_CAP, NumericalSemigroup, check_genus

# A blow-up step makes a few conductor-wide mask operations per minimal
# generator, and about as many as eight generators would besides: the work
# of a tower is (embedding dimension + 8) x conductor, summed over its steps.
TOWER_WORK_CAP = 3 * 10**9


class RelativeIdeal(NamedTuple):
    """A relative ideal: its least element and the holes of I - min(I).

    Bit k of ``holes`` is set iff min_element + k is not a member; every
    hole lies below the conductor of the ambient semigroup.
    """

    ambient: NumericalSemigroup
    min_element: int
    holes: int

    @property
    def generator_mask(self) -> int:
        """Bit k is set iff min_element + k is a minimal generator."""
        return _generator_mask(self.ambient, self.holes)

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """The members outside M + I, ascending (M the maximal ideal of S), for display."""
        return tuple(self.min_element + k for k in _offsets(self.generator_mask))

    def contains(self, z: int) -> bool:
        k = z - self.min_element
        return k >= 0 and not self.holes >> k & 1

    __contains__ = contains  # `z in I` tests membership, not the record's fields


def make_ideal(S: NumericalSemigroup, gens) -> RelativeIdeal:
    """The relative ideal of S generated by ``gens``.

    Raises :class:`CapExceeded` past ``GENERATOR_CAP`` distinct generators.
    """
    gens = set(gens)
    if not gens:
        raise EmptyInput("need at least one ideal generator")
    if len(gens) > GENERATOR_CAP:
        raise CapExceeded(f"{len(gens)} distinct ideal generators exceed cap {GENERATOR_CAP}")
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


def end_semigroup(I: RelativeIdeal) -> NumericalSemigroup:
    """The endomorphism semigroup E(I) = {z : z + I inside I}.

    E(I) always contains the ambient S and is itself a numerical semigroup:
    negative z would push min(I) below itself.  Its gap mask is
    ``_end_gap_mask`` of I's holes and generator offsets.
    """
    return NumericalSemigroup.from_gap_mask(_end_gap_mask(I.holes, _offsets(I.generator_mask)))


def minimal_generator_count(I: RelativeIdeal) -> int:
    """mu(I): the number of minimal generators (graded Nakayama count)."""
    return I.generator_mask.bit_count()


def is_stable(I: RelativeIdeal) -> bool:
    """True iff I + I = min(I) + I: both start at 2 min(I), so iff the power chain repeats at 2I."""
    holes, double = _power_chain(I.ambient, I.holes, I.generator_mask, 2)
    return double == holes


def _generator_mask(S: NumericalSemigroup, holes: int) -> int:
    """Bit k is set iff min + k is a member outside M + I, for the ideal with these holes.

    M + I is the union of s + I over the minimal generators s of S; the
    window up to conductor + multiplicity holds every generator.
    """
    m = ((1 << (S.conductor + S.multiplicity)) - 1) & ~holes
    covered = 0
    for s in S.minimal_generators:
        covered |= m << s
    return m & ~covered


def _offsets(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending, one step per set bit.

    Meant for sparse masks such as generator masks: each step rewrites the whole mask.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _power_chain(S: NumericalSemigroup, holes: int, gens: int, k: int):
    """Yield the hole masks of I, 2I, ..., kI, each relative to its least element.

    I is the ideal of S with hole mask ``holes`` and generator mask ``gens``.
    The members of nI - n min(I) below the conductor are those of
    (n-1)I - (n-1) min(I) shifted by each generator offset of I.  Once a
    mask repeats the one before, every later power has it too, so the chain
    stops just after the first repeat.
    """
    full = (1 << S.conductor) - 1
    offsets = _offsets(gens)
    yield holes
    for _ in range(k - 1):
        members = full & ~holes
        power = 0
        for j in offsets:
            power |= members << j
        power = full & ~power
        yield power
        if power == holes:
            return
        holes = power


def enumerate_normalized_ideals(S: NumericalSemigroup) -> list[int]:
    """The hole masks of the normalized ideals of S: every relative ideal I with min(I) = 0.

    These are exactly the S-modules between S and its normalization.  Each
    misses a subset H of the gaps of S such that the members, shifted
    by any minimal generator of S, never land in H.  There are at most
    2^genus of them, and only the valid ones are generated, gap by gap from
    the largest down: a gap a may join the added set only after every gap
    a + s (s a minimal generator) has, and each partial ideal is extended by
    "a stays a hole" before "a joins".  They come in descending order of H,
    which is ascending order of the added gap set.
    """
    check_genus(S.genus)
    nodes = [S.gap_mask]
    for a in reversed(S.gaps()):
        need = sum(1 << (a + s) for s in S.minimal_generators)
        bit = 1 << a
        grown = []
        for holes in nodes:
            grown.append(holes)
            if not holes & need:
                grown.append(holes ^ bit)
        nodes = grown
    return nodes


def _census_counts(S: NumericalSemigroup, parent: tuple[int, int] | None = None) -> tuple[int, int]:
    """(count, stable count) of the normalized ideals of S, from S's parent in the tree.

    Each is S plus an up-set U of the gap poset, t below u iff u - t is in S.
    The parent S + {F}, F the Frobenius number, has as gap poset the one of
    S without its maximal element F.
    Count: U holds F, and U - F is an up-set of the parent, or U misses the
    down-set of F, so count(S) = count(parent) + count(gaps minus down F).
    count(R) counts the up-sets inside R: they miss the least gap y of R or
    hold all of its up-set, so count(R) = count(R - y) + count(R - up(y)),
    memoized on R.  R lies inside the gaps, so R - up(y) is R minus
    (y + S), one shift of the gap mask.
    Stable count: the stable ones are the semigroups containing S, and those
    holding F contain the parent, so stable(S) = stable(parent) + the
    oversemigroups with F a hole.  Only gaps outside the down-set of F may
    join them (F - a in S would put F = a + (F - a) in), and gap 1 never
    does (a semigroup holding 1 is N).  They are walked from the largest
    such gap down; when a joins, every sum a + x with x > 0 in the ideal
    lies above a and is decided, so a node is kept iff none of them is a
    hole.

    ``parent`` is the parent's pair, which the sweep's walk carries down
    from parent to child, and then only f = F(S) is read.  Without it the
    ancestors are walked too, one for each gap f, with one count memo:
    each is S + {the gaps above its own Frobenius number f}, so its gap
    mask is a prefix of S's, its order is S's (u - t < f for gaps u, t up
    to f), its up-sets are S's cut to the prefix, and count(R) for R inside
    the prefix needs no other cut.
    """
    check_genus(S.genus)
    gap_mask = S.gap_mask
    memo = {0: 1}

    def count(rest: int) -> int:
        # every count is at least 1, so a memo miss is the only falsy lookup
        low = rest & -rest
        a, b = rest ^ low, rest & ~(~gap_mask << low.bit_length() - 1)
        memo[rest] = n = (memo.get(a) or count(a)) + (memo.get(b) or count(b))
        return n

    # bit F(S) - z is set iff z <= F(S) is in S; shifted down by F(S) - f, the down-set of f
    mirror = int(format(gap_mask ^ (1 << S.conductor) - 1, f"0{S.conductor}b")[::-1], 2)
    ideals, stable = parent or (1, 1)  # N has one normalized ideal, itself
    for f in S.gaps() if parent is None else (S.frobenius,):
        full = (2 << f) - 1
        prefix = gap_mask & full
        rest = prefix & ~(mirror >> (S.frobenius - f))
        ideals += memo.get(rest) or count(rest)
        nodes = [prefix]
        joining = rest & ~2
        while joining:
            a = joining.bit_length() - 1
            bit = 1 << a
            joining ^= bit
            nodes += [h for holes in nodes if not (full ^ (h := holes ^ bit)) << a & h]
        stable += len(nodes)
    return ideals, stable


def blowup_tower(S: NumericalSemigroup, cap: int = 64) -> tuple[NumericalSemigroup, ...]:
    """The blow-up chain S, E(M), ...: iterate S -> E(M) until the full monoid or cap steps.

    The chain strictly increases until it stabilizes at the normalization
    (the Frobenius number joins E(M) at every proper step), so it reaches the
    full monoid within genus(S) steps; when cap steps pass first, the chain
    ends short of it rather than raising.  Past ``TOWER_WORK_CAP`` the tower
    raises :class:`CapExceeded` before the next step, whatever ``cap`` is.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    tower = [S]
    work = 0
    while not tower[-1].is_full and len(tower) <= cap:
        work += (tower[-1].embedding_dimension + 8) * tower[-1].conductor
        if work > TOWER_WORK_CAP:
            raise CapExceeded(f"blow-up tower work exceeds cap {TOWER_WORK_CAP} after {len(tower) - 1} steps")
        tower.append(NumericalSemigroup.from_gap_mask(_blowup_gap_mask(tower[-1])))
    return tuple(tower)


def _end_gap_mask(holes: int, offsets) -> int:
    """The gap mask of E(I), for the ideal I - t with these holes and generator offsets.

    z >= 0 misses E(I) iff z + g misses I for some minimal generator g of
    I, that is iff z + k is a hole for the offset k = g - t: an OR of the
    hole mask shifted down by each offset.  Any t <= min(I) serves.
    """
    out = 0
    for k in offsets:
        out |= holes >> k
    return out


def _blowup_gap_mask(S: NumericalSemigroup) -> int:
    """The gap mask of E(M), M the maximal ideal of S, with no semigroup built.

    M's minimal generators are S's, and M - 0 misses the gaps and 0; as
    z + s > 0, it is ``_end_gap_mask`` of S's gap mask and generators.
    """
    return _end_gap_mask(S.gap_mask, S.minimal_generators)
