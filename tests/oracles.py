"""Reference implementations the production code is checked against.

The relative-ideal calculus: tuple-arithmetic routes for the bitmask core
in ``stablerings.relideal``.  An ideal is given as its ambient semigroup and
a tuple of generators; membership is only ever read through
``NumericalSemigroup.contains``, never through the core's masks.

The normalized ideals: ``normalized_hole_masks`` filters all 2^genus gap
subsets, where ``stablerings.relideal`` generates only the valid ones.
``normalized_walk`` generates them all and carries each one's generators
and stability, and ``normalized_census`` reads the count, the stable count
and the largest mu off that list, where ``stablerings.relideal`` counts
up-sets, matches comparable gaps and walks only the stable ideals.

The ideal powers: ``power_two_generated`` builds each power as an ideal
object with ``builders.ideal_sum`` and reads its generator count, where
``stablerings.ringlab`` shifts one membership mask.  It stops once a power
is min(I) plus the one before, since (n+2)I = (n+1)I + I = min(I) + (n+1)I
makes every later power a translate too.

The idealization series: the oracles compute on dense series, the tuples
of all N coefficients, where ``stablerings.idealization`` keeps only the
(exponent, coefficient) pairs of the nonzero ones.  ``dense`` reads a
kernel series into that form, and each oracle takes and returns kernel
series, converting at its edges, so the kernel and the oracles can be
compared and mixed.

The idealization product: ``ring_product`` is (v1*v2, v1*l2 + v2*l1) by
``series_product``, which writes out the convolution, and coefficient-wise
sums, where ``stablerings.idealization`` builds each part with its kernel
and each module part in one pass.  A ring element is the tuple (v, l_1,
..., l_r) of its series there, and here too; ``row_add`` and ``row_sub``
add and subtract such rows coefficient by coefficient, since ``+`` on
tuples concatenates.

The idealization length: ``k_dimension`` counts the k-dimension of a
V-span by Gaussian elimination over k, where ``stablerings.idealization``
reads it off the pivots.

The idealization row reduction: ``reduce_rows`` is the dense-series
elimination that makes each pivot monic with its series inverse and clears
the other rows with exact coefficients, giving the canonical basis;
``contains_row`` decides membership by reduction against its pivots.
``stablerings.idealization`` reduces integer rows up to a unit and keeps
only the pivots.  ``ideal_rows`` spans an ideal by the rows (v, l) and
(0, v*e_k) of each generator (v, l), where ``stablerings.idealization``
adds one set of rows (0, t^a*e_k) per ideal.

The idealization witness search: ``witness_verdict`` tries the generators
and their pairwise sums and differences in order of V-valuation, comparing
the canonical bases of I^2 and x*I, pivots and coefficients below the
margin, built from all ordered generator products by ``ring_product``, where
``stablerings.idealization`` reduces g*I alone, for the one least-valuation
generator g, from the unordered products, and tests the other products for
membership in it.  ``pivot_verdict`` is the comparison that test replaced:
the pivots of I^2 against those of g*I, here from the canonical bases.

Semigroup construction: ``member_scan`` decides membership one integer at
a time, ``semigroup_by_window_scan`` closes a window with it and
``semigroup_from_member_scan`` reads the minimal generators off a
membership mask with a quadratic scan, where ``stablerings.numsg`` works on
whole gap masks.  ``apery_set`` lists the least member of each residue
class by scanning the integers.

The quadratic-extension test: ``is_monomial_quadratic`` scans the pairs of
integers of T missing from S through ``contains``, for any oversemigroup T;
``stablerings.ringlab`` tests T = N with one shift-AND of the gap mask per
gap.

The quadratic-algebra pair test: ``is_quadratic_by_elimination`` decides
whether x*y lies in span{1, x, y} by Gaussian elimination on the d x 3
system, with inverses and negatives found by searching the field, where
``stablerings.quadalg`` looks x*y + c*y up in the set span{1, x}.
"""

from fractions import Fraction
from math import gcd
from operator import add, sub

from builders import ideal_sum as relideal_sum
from stablerings.idealization import TruncatedSeries
from stablerings.numsg import NumericalSemigroup
from stablerings.relideal import RelativeIdeal, minimal_generator_count


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
    gap_mask = S.gap_mask
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


def normalized_walk(S: NumericalSemigroup) -> list[tuple[int, int, bool]]:
    """(holes, generators, stable) for every normalized ideal of S, holes descending.

    The full gap-by-gap walk, carrying each ideal's generator mask and
    stability as it goes: when gap a joins, a joins the generators (a - s is
    a gap not yet decided) and the a + s it forces leave them, and every sum
    a + x with x > 0 in the ideal lies above a and is decided, so the ideal
    stays closed under addition iff none of them is a hole.
    """
    c = S.conductor
    full = (1 << c) - 1
    gap_mask = S.gap_mask
    nodes = [(gap_mask, 1, True)]
    for a in range(c - 1, 0, -1):
        if not gap_mask >> a & 1:
            continue
        need = sum(1 << (a + s) for s in S.minimal_generators)
        bit = 1 << a
        grown = []
        for node in nodes:
            grown.append(node)
            holes, gens, stable = node
            if not holes & need:
                holes ^= bit
                grown.append((holes, (gens | bit) & ~need, stable and not (full ^ holes) << a & holes))
        nodes = grown
    return nodes


def normalized_census(S: NumericalSemigroup) -> tuple[int, int, int]:
    """(count, stable count, largest mu), read off the list of ``normalized_walk``."""
    nodes = normalized_walk(S)
    return (
        len(nodes),
        sum(stable for _, _, stable in nodes),
        max(gens.bit_count() for _, gens, _ in nodes),
    )


def power_two_generated(I: RelativeIdeal, n_max: int) -> bool:
    """Does some n-fold sum of I with 2 <= n <= n_max have at most two generators?"""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    power = I
    for _ in range(2, n_max + 1):
        previous, power = power, relideal_sum(power, I)
        if minimal_generator_count(power) <= 2:
            return True
        if power.holes == previous.holes:  # power = min(I) + previous, and so is every later one
            return False
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

    Each row is a tuple of 1+r series, over F_p or, when p is None, with
    integer coefficients standing for elements of Q.  The span is
    spanned by the shifts t^s * row for s < N, flattened to vectors and
    eliminated over k without division: a vector becomes a*vec - c*prow for
    the pivot entry a and the vector's entry c, then is reduced mod p or
    divided by the gcd of its entries.
    """
    vectors = []
    for row in map(_dense_row, rows):
        n = len(row[0])
        for shift in range(n):
            vec = [c for coeffs in row for c in ((0,) * shift + coeffs)[:n]]
            if any(vec):
                vectors.append(vec)
    pivot_rows: dict[int, list] = {}
    for vec in vectors:
        for col, prow in pivot_rows.items():
            c = vec[col]
            if c:
                vec = [prow[col] * a - c * b for a, b in zip(vec, prow)]
                if p:
                    vec = [a % p for a in vec]
                elif any(vec):
                    g = gcd(*vec)
                    vec = [a // g for a in vec]
        lead = next((c for c, a in enumerate(vec) if a), None)
        if lead is not None:
            pivot_rows[lead] = vec
    return len(pivot_rows)


def dense(s: TruncatedSeries) -> tuple:
    """The N coefficients of a kernel series, zeros included."""
    out = [0] * type(s).n
    for e, c in s:
        out[e] = c
    return tuple(out)


def _dense_row(row) -> list:
    return [dense(s) for s in row]


def _sparse(cls: type[TruncatedSeries], coeffs) -> TruncatedSeries:
    """The kernel series of these N coefficients, reduced mod p over F_p."""
    p = cls.p
    return cls((e, c % p if p else c) for e, c in enumerate(coeffs) if (c % p if p else c))


def _sparse_row(cls, row) -> tuple:
    return tuple(_sparse(cls, s) for s in row)


def _valuation(s: tuple) -> int:
    """Least index of a nonzero coefficient of a dense series; N when zero."""
    return next((i for i, c in enumerate(s) if c), len(s))


def _convolve(a: tuple, b: tuple, p=None) -> tuple:
    """The coefficients sum_{i+j=k} a_i*b_j for k < len(a), reduced mod p when p is given."""
    n = len(a)
    out = [0] * n
    for j in (j for j in range(n) if b[j]):
        for i in (i for i in range(n - j) if a[i]):
            out[i + j] += a[i] * b[j]
    return tuple(c % p for c in out) if p else tuple(out)


def _dense_op(op, s: tuple, u: tuple, p=None) -> tuple:
    """op(s_k, u_k) for each k, reduced mod p when p is given."""
    cs = map(op, s, u)
    return tuple(c % p for c in cs) if p else tuple(cs)


def _inverse(u: tuple, p=None) -> tuple:
    """The inverse of a dense unit: w_0 = 1/u_0, then w_k from sum_{i<=k} u_i*w_(k-i) = 0."""
    w = [pow(u[0], p - 2, p) if p else 1 / Fraction(u[0])]
    terms = [i for i in range(1, len(u)) if u[i]]
    for k in range(1, len(u)):
        x = -w[0] * sum(u[i] * w[k - i] for i in terms if i <= k)
        w.append(x % p if p else x)
    return tuple(w)


def _coefficientwise(op, s: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    """The series of op(s_k, u_k), reduced mod p over F_p."""
    return _sparse(type(s), _dense_op(op, dense(s), dense(u), type(s).p))


def row_add(x, y) -> tuple:
    """x + y, series by series and coefficient by coefficient."""
    return tuple(_coefficientwise(add, s, u) for s, u in zip(x, y))


def row_sub(x, y) -> tuple:
    """x - y, series by series and coefficient by coefficient."""
    return tuple(_coefficientwise(sub, s, u) for s, u in zip(x, y))


def _shift_down(s: tuple, k: int) -> tuple:
    """Divide a dense series by t^k; requires valuation >= k for exactness."""
    return s[k:] + (0,) * k


def _row_min(row) -> tuple[int, int]:
    """(valuation, column) of the minimal-valuation entry of a dense row."""
    best_v, best_c = len(row[0]), len(row)
    for c, s in enumerate(row):
        v = _valuation(s)
        if v < best_v:
            best_v, best_c = v, c
    return best_v, best_c


def reduce_rows(ring, rows) -> tuple[tuple, tuple]:
    """Canonical valuation-pivot echelon form, on dense series rows.

    Pivots are chosen by minimal (valuation, column), ties to the earliest
    row, made monic by their series inverse and cleared from every other
    row, work and result alike.  The basis comes back as kernel rows.
    """
    n, p = ring.prec, ring.domain.p
    work = [r for r in map(_dense_row, rows) if any(map(any, r))]
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
        unit = _inverse(_shift_down(pivot[col], v), p)
        pivot = [_convolve(s, unit, p) for s in pivot]
        for row in work + result:
            q = _shift_down(row[col], v)
            if any(q):
                for c in range(len(row)):
                    row[c] = _dense_op(sub, row[c], _convolve(q, pivot[c], p), p)
        work = [r for r in work if any(map(any, r))]
        result.append(pivot)
        pivots.append((col, v))
    return tuple(_sparse_row(ring.domain, r) for r in result), tuple(pivots)


def contains_row(basis, pivots, row) -> bool:
    """Membership of a module row, by reduction against the pivots in order, on dense series."""
    p = type(row[0]).p
    row = _dense_row(row)
    for (col, v), prow in zip(pivots, map(_dense_row, basis)):
        e = row[col]
        if _valuation(e) >= v:
            q = _shift_down(e, v)
            row = [_dense_op(sub, s, _convolve(q, ps, p), p) for s, ps in zip(row, prow)]
    return not any(map(any, row))


def ideal_rows(ring, gens) -> list[tuple]:
    """Module rows spanning the ring ideal of gens: (v, l) and (0, v*e_k) per generator."""
    zero = ring.series([])
    rows = []
    for g in gens:
        rows.append(g)
        for k in range(ring.rank):
            ell = [zero] * ring.rank
            ell[k] = g[0]
            rows.append((zero, *ell))
    return rows


def ideal_basis(ring, elements) -> tuple[tuple, tuple]:
    """(basis, pivots): the canonical basis of the ring ideal of elements."""
    return reduce_rows(ring, ideal_rows(ring, elements))


def margin_signature(ring, elements, margin: int):
    """(column, valuation, coefficients below the margin) per canonical basis row
    of the ring ideal of elements; None when a pivot valuation reaches the margin."""
    basis, pivots = ideal_basis(ring, elements)
    if any(v >= margin for _, v in pivots):
        return None
    return tuple(
        (col, v, tuple(dense(s)[:margin] for s in row)) for (col, v), row in zip(pivots, basis)
    )


def series_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a*b by the written-out convolution of the dense series."""
    return _sparse(type(a), _convolve(dense(a), dense(b), type(a).p))


def ring_product(a, b) -> tuple:
    """(v1*v2, v1*l2 + v2*l1) from the definition, by dense series products and sums."""
    series = type(a[0])
    p = series.p
    v1, v2 = dense(a[0]), dense(b[0])
    ell = (
        _dense_op(add, _convolve(v1, dense(lb), p), _convolve(v2, dense(la), p), p)
        for la, lb in zip(a[1:], b[1:])
    )
    return tuple(_sparse(series, s) for s in (_convolve(v1, v2, p), *ell))


def witness_candidates(gens) -> list:
    """The generators, then a + b and a - b per pair, without repeats, by V-valuation."""
    cands = list(gens)
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            cands += (row_add(a, b), row_sub(a, b))
    return sorted(dict.fromkeys(cands), key=lambda g: g[0].valuation())


def witness_verdict(ring, gens) -> dict:
    """The payload of the stability verdict for the ideal of gens, by signatures.

    The first nonzero candidate x whose x*I has the signature of I^2 is the
    witness; with none, the verdict is inconclusive if some signature was
    None and not stable otherwise.
    """
    margin = ring.prec // 2
    square = margin_signature(ring, [ring_product(a, b) for a in gens for b in gens], margin)
    unclear = square is None
    for x in [] if unclear else witness_candidates(gens):
        if not any(map(any, x)):
            continue
        sig = margin_signature(ring, [ring_product(x, g) for g in gens], margin)
        if sig == square:
            return {"stable": True, "witness_valuation": x[0].valuation(), "margin": margin}
        unclear = unclear or sig is None
    return {"stable": None if unclear else False, "witness_valuation": None, "margin": margin}


def pivot_verdict(ring, gens) -> dict:
    """The payload of the stability verdict by comparing the pivots of I^2 and g*I.

    g is the first generator of least V-valuation, which must lie below the
    margin.  The verdict is inconclusive if a pivot of I^2 reaches the
    margin, stable if g*I has the pivots of I^2, and not stable otherwise.
    """
    margin = ring.prec // 2
    g = min(gens, key=lambda h: h[0].valuation())
    square = ideal_basis(ring, [ring_product(a, b) for a in gens for b in gens])[1]
    if any(v >= margin for _, v in square):
        return {"stable": None, "witness_valuation": None, "margin": margin}
    if ideal_basis(ring, [ring_product(g, h) for h in gens])[1] == square:
        return {"stable": True, "witness_valuation": g[0].valuation(), "margin": margin}
    return {"stable": False, "witness_valuation": None, "margin": margin}


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
        multiplicity=multiplicity,
        genus=genus,
        gap_mask=((1 << conductor) - 1) & ~mask,
    )


def member_scan(gens, width: int) -> int:
    """The membership mask on [0, width) of the monoid generated by ``gens``, one integer at a time.

    z > 0 is a member iff z - a is one for some generator a <= z.
    """
    mask = 1
    for z in range(1, width):
        if any(a <= z and mask >> (z - a) & 1 for a in gens):
            mask |= 1 << z
    return mask


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
        mask = member_scan(gens, width)
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


def in_span3(alg, x, y, target) -> bool:
    """Is target a combination c0*1 + c1*x + c2*y over the base field?"""
    f = alg.field

    def inv(a):
        return next(b for b in f.elements() if f.mul(a, b) == 1)

    def neg(a):
        return next(b for b in f.elements() if f.add(a, b) == 0)

    cols = [alg.one(), x, y]
    rows = [[cols[0][r], cols[1][r], cols[2][r], target[r]] for r in range(alg.dimension)]
    pivots = 0
    for col in range(3):
        pr = next((r for r in range(pivots, len(rows)) if rows[r][col] != 0), None)
        if pr is None:
            continue
        rows[pivots], rows[pr] = rows[pr], rows[pivots]
        a = inv(rows[pivots][col])
        rows[pivots] = [f.mul(a, v) for v in rows[pivots]]
        for r in range(len(rows)):
            if r != pivots and rows[r][col] != 0:
                c = neg(rows[r][col])
                rows[r] = [f.add(u, f.mul(c, v)) for u, v in zip(rows[r], rows[pivots])]
        pivots += 1
    return all(row[3] == 0 for row in rows[pivots:])


def is_quadratic_by_elimination(alg) -> bool:
    """True iff x*y lies in span{1, x, y} for every pair of elements, by elimination."""
    elems = list(alg.elements())
    return all(
        in_span3(alg, x, y, alg.mul(x, y)) for i, x in enumerate(elems) for y in elems[i:]
    )
