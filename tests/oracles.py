"""Reference implementations the production code is checked against.

The relative-ideal calculus: tuple-arithmetic routes for the bitmask core
in ``stablerings.relideal``.  An ideal is given as its ambient semigroup and
a tuple of generators; membership is only ever read through
``NumericalSemigroup.contains``, never through the core's masks.

The normalized ideals: ``normalized_hole_masks`` filters all 2^genus gap
subsets, where ``stablerings.relideal`` generates only the valid ones.

The ideal powers: ``power_two_generated`` builds each power as an ideal
object with ``stablerings.relideal.ideal_sum`` and reads its generator
count, where ``stablerings.ringlab`` shifts one membership mask.

The idealization length: ``k_dimension`` counts the k-dimension of a
V-span by Gaussian elimination over k, where ``stablerings.idealization``
reads it off the pivots.

The idealization row reduction: ``reduce_rows`` is the series-based
elimination that makes each pivot monic with its series inverse and clears
the other rows with exact coefficients; ``contains_row`` decides membership
by reduction against the pivots.  ``stablerings.idealization`` reduces
integer rows up to a unit instead.

Semigroup construction: ``semigroup_by_window_scan`` closes a window one
integer at a time and ``semigroup_from_member_scan`` reads the minimal
generators off a membership mask with a quadratic scan, where
``stablerings.numsg`` works on whole masks.  ``apery_set`` lists the least
member of each residue class by scanning the integers.

The quadratic-extension test: ``is_monomial_quadratic`` scans the pairs of
integers of T missing from S through ``contains``, for any oversemigroup T;
``stablerings.ringlab`` tests T = N with one shift-AND of the gap mask per
gap.
"""

from fractions import Fraction
from math import gcd

from stablerings.idealization import TruncatedSeries
from stablerings.numsg import NumericalSemigroup
from stablerings.relideal import RelativeIdeal, minimal_generator_count
from stablerings.relideal import ideal_sum as relideal_sum


def reduce_generators(S: NumericalSemigroup, gens) -> tuple[int, ...]:
    """Drop every generator lying in another generator's translate of S."""
    out: list[int] = []
    for g in sorted(set(gens)):
        if not any(S.contains(g - h) for h in out):
            out.append(g)
    return tuple(out)


def normalized_hole_masks(S: NumericalSemigroup) -> list[int]:
    """The hole masks of the normalized ideals of S, by filtering every gap subset.

    A subset H of the gaps is the hole set of an S-module containing S iff
    the members below the conductor, shifted by any minimal generator of S,
    never land in H.  The masks are tried, and so come out, in descending
    order.
    """
    c = S.conductor
    full = (1 << c) - 1
    gap_mask = full & ~S.small_members
    # a generator at or past the conductor shifts every member out of range
    shifts = [s for s in S.minimal_generators if s < c]
    out = []
    holes = gap_mask
    while True:
        members = full ^ holes
        if not any(members << s & holes for s in shifts):
            out.append(holes)
        if not holes:
            return out
        holes = (holes - 1) & gap_mask


def power_two_generated(I: RelativeIdeal, n_max: int) -> bool:
    """Does some n-fold sum of I with 2 <= n <= n_max have at most two generators?"""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    power = I
    for _ in range(2, n_max + 1):
        power = relideal_sum(power, I)
        if minimal_generator_count(power) <= 2:
            return True
    return False


def contains(S: NumericalSemigroup, gens, z: int) -> bool:
    """Is z in the union of the translates g + S?"""
    return any(S.contains(z - g) for g in gens)


def ideal_sum(S: NumericalSemigroup, gens, other) -> tuple[int, ...]:
    """Minimal generators of the ideal generated by all pairwise sums."""
    return reduce_generators(S, {a + b for a in gens for b in other})


def endomorphism_gaps(S: NumericalSemigroup, gens) -> tuple[int, ...]:
    """The gaps of E(I) = {z : z + I inside I}, scanned on [0, conductor(S))."""
    return tuple(
        z
        for z in range(1, S.conductor)
        if not all(contains(S, gens, z + g) for g in gens)
    )


def is_stable_via_endomorphism(S: NumericalSemigroup, gens) -> bool:
    """Stability route: I equals min(I) + E(I).

    E(I) is an S-module generated by its members up to conductor(S); the test
    compares that module, translated to min(I), with I itself.
    """
    gens = reduce_generators(S, gens)
    gaps = endomorphism_gaps(S, gens)
    e_gens = [gens[0] + z for z in range(S.conductor + 1) if z not in gaps]
    return reduce_generators(S, e_gens) == gens


def is_stable_via_search(S: NumericalSemigroup, gens) -> bool:
    """Stability route: exhaustive witness search.

    Tries every member x of I up to max generator + conductor(S) as the
    translation witness for I + I = x + I; past that window every integer
    above min(I) is a member and the sums only grow.
    """
    gens = reduce_generators(S, gens)
    square = ideal_sum(S, gens, gens)
    return any(
        tuple(g + x for g in gens) == square
        for x in range(gens[0], gens[-1] + S.conductor + 1)
        if contains(S, gens, x)
    )


def k_dimension(rows, p=None) -> int:
    """Dimension over k of the V-span of module rows, inside k^{(1+r)N}.

    Each row is a tuple of 1+r coefficient tuples of length N, over F_p or,
    when p is None, over Q.  The span is spanned by the shifts t^s * row for
    s < N, flattened to vectors and eliminated over k.
    """
    vectors = []
    for row in rows:
        n = len(row[0])
        for shift in range(n):
            vec = [c for coeffs in row for c in ((0,) * shift + coeffs)[:n]]
            if any(vec):
                vectors.append(vec)
    pivot_rows: dict[int, list] = {}
    for vec in vectors:
        for col, prow in pivot_rows.items():
            if vec[col]:
                f = vec[col] * pow(prow[col], -1, p) if p else Fraction(vec[col]) / prow[col]
                vec = [a - f * b for a, b in zip(vec, prow)]
                if p:
                    vec = [a % p for a in vec]
        lead = next((c for c, a in enumerate(vec) if a), None)
        if lead is not None:
            pivot_rows[lead] = vec
    return len(pivot_rows)


def _shift_down(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """Divide by t^k; requires valuation >= k for exactness."""
    return TruncatedSeries(s.domain, s.prec, s.coeffs[k:] + (0,) * k)


def _row_min(row) -> tuple[int, int]:
    """(valuation, column) of the minimal-valuation entry of a row."""
    best_v, best_c = row[0].prec, len(row)
    for c, s in enumerate(row):
        v = s.valuation()
        if v < best_v:
            best_v, best_c = v, c
    return best_v, best_c


def reduce_rows(ring, rows) -> tuple[tuple, tuple]:
    """Canonical valuation-pivot echelon form, on series rows.

    Pivots are chosen by minimal (valuation, column), ties to the earliest
    row, made monic by their series inverse and cleared from every other
    row, work and result alike.
    """
    n = ring.prec
    work = [list(r) for r in rows if any(not s.is_zero() for s in r)]
    result = []
    pivots = []
    while work:
        best = None
        for idx, row in enumerate(work):
            v, c = _row_min(row)
            if v < n and (best is None or (v, c) < (best[0], best[1])):
                best = (v, c, idx)
        if best is None:
            break
        v, col, idx = best
        pivot = work.pop(idx)
        unit = _shift_down(pivot[col], v).unit_inverse()
        pivot = [s * unit for s in pivot]
        for row in work + result:
            q = _shift_down(row[col], v)
            if not q.is_zero():
                for c in range(len(row)):
                    row[c] = row[c] - q * pivot[c]
        work = [r for r in work if any(not s.is_zero() for s in r)]
        result.append(pivot)
        pivots.append((col, v))
    return tuple(tuple(r) for r in result), tuple(pivots)


def contains_row(basis, pivots, row) -> bool:
    """Membership of a module row, by reduction against the pivots in order."""
    row = list(row)
    for (col, v), prow in zip(pivots, basis):
        e = row[col]
        if e.valuation() >= v:
            q = _shift_down(e, v)
            for c in range(len(row)):
                row[c] = row[c] - q * prow[c]
    return all(s.is_zero() for s in row)


def semigroup_from_member_scan(mask: int, width: int) -> NumericalSemigroup:
    """The semigroup with membership ``mask`` on [0, width), read one integer at a time.

    A positive member is a minimal generator iff it is not the sum of two
    positive members; closure is checked pair by pair on the tabulated
    window, but only while that window is at most 512 wide.
    """
    if not mask & 1:
        raise ValueError("0 must be a member")
    conductor = width
    while conductor > 0 and mask >> (conductor - 1) & 1:
        conductor -= 1
    if conductor >= width:
        raise ValueError("window does not reach the conductor")
    genus = conductor - (mask & ((1 << conductor) - 1)).bit_count()

    def is_member(z: int) -> bool:
        return z >= conductor or bool(mask >> z & 1)

    multiplicity = 1
    while not is_member(multiplicity):
        multiplicity += 1
    limit = conductor + multiplicity
    members = [z for z in range(1, limit + 1) if is_member(z)]
    mingens = []
    for s in members:
        if not any(is_member(s - t) for t in members if t < s):
            mingens.append(s)
    if limit <= 512:
        for a in members:
            for b in members:
                if a + b <= limit and not is_member(a + b):
                    raise ValueError(f"membership table not closed: {a}+{b}")
    return NumericalSemigroup(
        minimal_generators=tuple(mingens),
        conductor=conductor,
        frobenius=conductor - 1,
        multiplicity=multiplicity,
        genus=genus,
        small_members=mask & ((1 << (conductor + 1)) - 1),
    )


def semigroup_by_window_scan(gens) -> NumericalSemigroup:
    """The semigroup generated by ``gens``, closing a window one integer at a time.

    z joins when z - a is a member for some generator a; the window doubles,
    starting from twice the largest generator, until m consecutive members
    appear (m the least generator).
    """
    gens = sorted(set(gens))
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise ValueError("gcd of generators is not 1")
    m = gens[0]
    width = max(gens) + 1
    while True:
        width *= 2
        mask = 1
        for z in range(1, width):
            if any(a <= z and mask >> (z - a) & 1 for a in gens):
                mask |= 1 << z
        run = 0
        for z in range(width):
            run = run + 1 if mask >> z & 1 else 0
            if run >= m:
                return semigroup_from_member_scan(mask, width)


def apery_set(S: NumericalSemigroup, k: int) -> list[int]:
    """The least member of S in each residue class mod k, for k in S.

    Entry i of the result is the least member congruent to i mod k; the
    largest entry minus k is the Frobenius number.
    """
    if k <= 0 or not S.contains(k):
        raise ValueError(f"{k} is not a positive member of {S}")
    out: list[int | None] = [None] * k
    remaining = k
    z = 0
    while remaining:
        if out[z % k] is None and S.contains(z):
            out[z % k] = z
            remaining -= 1
        z += 1
    return [v for v in out if v is not None]


def is_monomial_quadratic(S: NumericalSemigroup, T: NumericalSemigroup) -> bool:
    """The quadratic-extension test for S inside T at monomial level.

    True iff every pair x, y of members of T below conductor(S) satisfies
    x + y in (x + S) union (y + S) union S; membership of x + y in x + S is
    just y in S, so the test reduces to pairs of gaps of S lying in T.
    Raises ValueError if S is not inside T.
    """
    for z in range(T.conductor):
        if S.contains(z) and not T.contains(z):
            raise ValueError(f"{z} is in S but not in T")
    c = S.conductor
    pairs = [z for z in range(c) if T.contains(z) and not S.contains(z)]
    for i, x in enumerate(pairs):
        for y in pairs[i:]:
            if not S.contains(x + y):
                return False
    return True
