"""Exact finite-precision model of Nagata idealizations V*L.

V is a complete DVR modeled by truncated power series k[[t]]/t^N over an
exact coefficient field (F2, F3, F5, or the rationals); L = V^r is a free
module of finite rank r >= 1.  The ring V*L is V + L with multiplication
(v1,l1)(v2,l2) = (v1*v2, v1*l2 + v2*l1); P = 0*L satisfies P^2 = 0 exactly,
by the multiplication law, and the quotient by P is V.

Coefficients are plain Python integers: reduced mod p over F_p, and
integers over Q too.  Every question asked here (stability, Hilbert
lengths, P^2 = 0) is about ideals, and scaling a generator by a nonzero
constant, a unit of V, leaves its ideal unchanged; so a generator with
rational coefficients is given by a multiple with integer ones, and no
coefficient here has a denominator.  A series is the tuple of the ascending
(exponent, coefficient) pairs of its nonzero coefficients below N, and its
class, ``series_class(field, N)``, is its coefficient field at precision N.
A ring is that class and its rank, and reads N off the class.  A series has
one arithmetic operation, ``*``.
Products, elimination, membership, pivot keys and valuations all run over
the pairs, so their cost follows the nonzeros, not N.  A ring element (v, l)
is the tuple (v, l_1, ..., l_r) of its series, which is also its row in
V^{1+r}.  ``ring.mul`` is the ring product, and it makes each module part
v1*l2 + v2*l1 in one pass.  ``ring.monomial(c, k)``, t^k in component c,
is the one element built from its pairs: the generators of M, the rows
(0, t^a*e_k) and the probes of P^2 = 0.  Every other element is a seeded
draw or a product.

An ideal is the list of its ring generators, and ``ideal_from_generators``
returns its one computed form, the pivots of its module span with their
pivot rows: I^2 is the table of products over unordered generator pairs
and g*I its row at g, and M^k is M^(k-1) times the generators [t, e_1, ...,
e_r] of M.  Pivots carry no generators, so equal pivots say nothing about
two ideals unless one lies inside the other.

Ideals are handled as V-submodules of V^{1+r}, spanned by the rows (v, l)
of the ring generators and the rows (0, t^a*e_k) for k = 1..r, with a the
least valuation of the v's (V/t^N is a chain ring, so the v's generate
t^a*V).  The rows are reduced to valuation pivots: pivots are selected
globally by minimal valuation (ties to the smallest column, then the
earliest row), so pivot valuations are nondecreasing and pivot columns
distinct.  They are the pivots of the module's canonical echelon form, each
pivot made monic and cleared from the other rows, which is never built:
each of its rows is t^v times a row that completes to a V-basis and spans
N - v dimensions over k, so the length of V^{1+r} over the span is read off
the pivots.  Two modules, one inside the other, are equal exactly when
their pivots are.  The pivot rows, as the reduction chose them, form an
echelon: each is zero in the columns of the pivots before it and has no
entry below its own valuation.  So a row lies in the module exactly when
reducing it against them in pivot order, each column cleared as the
reduction clears it, leaves zero.

The reduction runs on rows of integer pairs.  A row matters only up to
a unit of V, and a nonzero constant is one, so it is kept small: reduced
mod p, or divided by the gcd of its coefficients over Q.  With the pivot's
entry t^v*U and a row's entry t^v*Q in the pivot column, the row becomes
U*row - Q*pivot: the elimination needs no inverse, and the new row is U
times the row an exact elimination with a monic pivot gives, with the same
valuations and so the same pivot choices (fraction-free elimination;
Bareiss, Math. Comp. 22, 1968).

Precision semantics: every stability verdict is the dict a trial prints,
``stable``, ``witness_valuation`` and ``margin``, and it carries the margin
N//2 at which it was certified.  Every ideal I with a regular generator is
stable, with the witness g, a generator whose V-component has the least
valuation (Lipman, Amer. J. Math. 93, 1971; Sally and Vasconcelos, J. Pure
Appl. Algebra 4, 1974): every h in I is c*g + p with c in V and p in I ∩ P,
and P^2 = 0, so h*h' = g*(c*c'*g + c*p' + c'*p) and I^2 = g*I holds
exactly, in V/t^N too.  The test reduces g*I once and checks that every other
generator product lies in it; g*I lies in I^2, so then the two are equal
and have the same pivots.  The verdict is trusted only when every pivot
valuation of I^2 lies below the margin; otherwise it is inconclusive.  A
product outside g*I at a clean margin, stable=False, means that the proved
identity failed, which is a fault of this program, not a property of the
ideal.  The margin rule is this module's own convention for
finite-precision certification.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from functools import cache
from math import gcd

from . import Payload
from .errors import (
    BadPrecision,
    BadRank,
    BadTrials,
    CapExceeded,
    EmptyInput,
    NotRegular,
    PrecisionTooLow,
    UnsupportedField,
)

# Size caps, checked where the sizes enter (the CLI), before a ring is built.
# A series has nonzeros only below PREC_CAP.  WORK_CAP bounds
# trials * (1+r)^2 * N, but a trial's cost no longer grows with N: the kernel
# runs over the nonzeros.  So the costliest admitted checks have the most
# trials the caps allow, not the largest ring.  Whole `idealization check
# --field Q --seed 1` runs in-process on a shared 2-core Xeon with Python
# 3.11.7, three each: rank 1, N = 16, 10,000 trials in 1.16-1.20 s; rank 3,
# N = 16, 3,906 trials in 1.03-1.06 s; against rank 8, N = 256, 48 trials in
# 0.07-0.10 s and rank 1, N = 250, 1,000 trials in 0.13-0.16 s.
PREC_CAP = 256
RANK_CAP = 8
TRIALS_CAP = 10_000
WORK_CAP = 1_000_000


def check_caps(rank: int, prec: int, trials: int) -> None:
    """Raise CapExceeded when a check at these sizes would exceed a cap."""
    if trials < 0:
        raise BadTrials(f"trials must be nonnegative, got {trials}")
    if rank > RANK_CAP:
        raise CapExceeded(f"rank {rank} exceeds the cap of {RANK_CAP}")
    if prec > PREC_CAP:
        raise CapExceeded(f"precision {prec} exceeds the cap of {PREC_CAP}")
    if trials > TRIALS_CAP:
        raise CapExceeded(f"{trials} trials exceed the cap of {TRIALS_CAP}")
    work = trials * (1 + rank) ** 2 * prec
    if work > WORK_CAP:
        raise CapExceeded(
            f"{trials} trials at rank {rank} and precision {prec} exceed the work cap: "
            f"trials*(1+rank)^2*prec = {work:,} > {WORK_CAP:,}"
        )


class TruncatedSeries(tuple):
    """A power series modulo t^n: the (exponent, coefficient) pairs of its nonzero coefficients.

    The pairs ascend by exponent, every exponent lies below n, and no
    coefficient is zero; over F_p each coefficient is reduced mod p.  So a
    series has one form, and equality and hashing are those of the tuple.
    The coefficient field and the precision are the class: ``series_class``
    makes one subclass per field and n, which sets ``p``, the characteristic
    of F_p, or None over Q, and ``n``, and defines no method of its own.
    ``*`` is the one series operation, and a series is zero exactly when it
    is empty.
    """

    __slots__ = ()
    p: int | None
    n: int

    @classmethod
    def reduced(cls, pairs) -> "TruncatedSeries":
        """The series of these ascending (exponent, coefficient) pairs, reduced mod p over F_p, zeros dropped."""
        p = cls.p
        return cls([(e, c % p) for e, c in pairs if c % p] if p else [ec for ec in pairs if ec[1]])

    @classmethod
    def _mul_add(cls, a, x, b=(), y=()) -> "TruncatedSeries":
        """a*x + b*y modulo t^n, over the pairs of the operands; reduced mod p over F_p, zeros dropped."""
        n, out = cls.n, {}
        for f, g in ((a, x), (b, y)):
            for i, c in f:
                for j, e in g:
                    k = i + j
                    if k >= n:
                        break
                    out[k] = out[k] + c * e if k in out else c * e
        return cls.reduced(sorted(out.items()))

    @classmethod
    def _primitive(cls, row) -> list:
        """A unit multiple of an integer row: over Q divided by its content; over F_p, reduced already, itself."""
        if cls.p:
            return row
        g = gcd(*[c for s in row for _, c in s])
        return [[(e, c // g) for e, c in s] for s in row] if g > 1 else row

    @classmethod
    def rand(cls, rng: random.Random):
        return rng.randrange(cls.p) if cls.p else rng.randrange(-3, 4)

    @classmethod
    def rand_nonzero(cls, rng: random.Random):
        return rng.randrange(1, cls.p) if cls.p else rng.choice([-3, -2, -1, 1, 2, 3])

    def valuation(self) -> int:
        """Least exponent of a nonzero coefficient; n when zero at precision."""
        return self[0][0] if self else self.n

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._mul_add(self, other)


# the coefficient fields by name: the characteristic of F_p, or None over Q
DOMAINS = {"F2": 2, "F3": 3, "F5": 5, "Q": None}


@cache
def series_class(field: str, n: int) -> type[TruncatedSeries]:
    """The class of series over the named coefficient field modulo t^n."""
    if field not in DOMAINS:
        raise UnsupportedField(f"supported coefficient domains are {sorted(DOMAINS)}, not {field!r}")
    return type(field, (TruncatedSeries,), {"__slots__": (), "p": DOMAINS[field], "n": n})


class IdealizationRing(namedtuple("IdealizationRing", "domain rank")):
    """The ring V*L at fixed rank and precision.

    An element (v, l) is the tuple (v, l_1, ..., l_r) of its series, which
    is also its row in V^{1+r}; ``mul`` is the ring product and ``monomial``
    the one element builder.  ``domain`` is the field's series class at
    this precision, ``series_class(field, N)``, and ``prec`` reads N off it.
    """

    __slots__ = ()

    @property
    def prec(self) -> int:
        return self.domain.n

    def monomial(self, c: int, k: int) -> tuple:
        """The element with t^k in component c (0 is V, c >= 1 is e_c) and zero elsewhere; zero when k >= N."""
        d = self.domain
        row = [d()] * (1 + self.rank)
        row[c] = d([(k, 1)] if k < self.prec else [])
        return tuple(row)

    def maximal_ideal(self) -> list:
        """The generators [t, e_1, ..., e_r] of the maximal ideal tV + L."""
        return [self.monomial(0, 1)] + [self.monomial(c, 0) for c in range(1, self.rank + 1)]

    def mul(self, x: tuple, y: tuple) -> tuple:
        """(v1,l1)(v2,l2) = (v1*v2, v1*l2 + v2*l1), each module part in one pass."""
        a, b = x[0], y[0]
        mul_add = self.domain._mul_add
        return (a * b, *(mul_add(a, lb, b, la) for la, lb in zip(x[1:], y[1:])))


def _is_zero(x: tuple) -> bool:
    """Is every series of the element x zero?"""
    return not any(x)


def make_ring(field: str, r: int, N: int) -> IdealizationRing:
    """Build V*L over the named coefficient field with L = V^r at precision N.

    The multiplication law (commutativity, associativity, identity) is a
    property of ``IdealizationRing.mul``, not of the field, rank or
    precision asked for, so it is not checked here: ``test_ring_law_grid``
    and ``test_ring_law_admitted_shapes`` in tests/test_idealization.py
    hold it.
    """
    if r < 1:
        raise BadRank("L must be a nonzero free module: rank >= 1")
    if N < 4:
        raise BadPrecision("precision must be at least 4")
    return IdealizationRing(series_class(field, N), r)


def _random_series(ring: IdealizationRing, rng: random.Random, val_range=(0, 4)) -> TruncatedSeries:
    d, v = ring.domain, rng.randrange(val_range[0], val_range[1] + 1)
    top = min(v + 4, ring.prec)
    return d.reduced([(v, d.rand_nonzero(rng))] + [(i, d.rand(rng)) for i in range(v + 1, top)] if v < top else [])


def _random_element(ring: IdealizationRing, rng: random.Random, regular: bool) -> tuple:
    val_range = (0, min(2, ring.prec // 2 - 1)) if regular else (0, 4)
    v = _random_series(ring, rng, val_range)
    zero = ring.domain()
    ell = (_random_series(ring, rng) if rng.random() < 0.8 else zero for _ in range(ring.rank))
    return (v, *ell)


def _random_p_element(ring: IdealizationRing, rng: random.Random) -> tuple:
    """A seeded random element (0, l) of P = 0*L."""
    return (ring.domain(), *(_random_series(ring, rng) for _ in range(ring.rank)))


# --- module reduction -------------------------------------------------------


def _row_key(row, n: int) -> tuple[int, int]:
    """(valuation, column) of the minimal-valuation entry; (n, len) for zero."""
    v, col = n, len(row)
    for c, s in enumerate(row):
        if s and s[0][0] < v:
            v, col = s[0][0], c
    return v, col


def _eliminate(d: type[TruncatedSeries], row, u, pivot, col: int, v: int) -> list:
    """u*row - q*pivot, for the pivot's entry t^v*u and the row's entry t^v*q in column col.

    Neither entry has a coefficient below t^v, so that clears column col;
    every other entry s of the row becomes u*s - q*p for the pivot's entry p.
    """
    q = [(e - v, -c) for e, c in row[col]]
    mul_add = d._mul_add
    return [() if c == col else mul_add(u, s, q, p) if s or p else s for c, (s, p) in enumerate(zip(row, pivot))]


class Pivots(tuple):
    """The (column, valuation) pivots of a module, valuations nondecreasing.

    ``rows`` holds the pivot rows in pivot order: the integer rows, up to a
    unit, that the reduction chose, each zero in the columns of the pivots
    before it and with no entry below its own pivot's valuation.
    """

    def __new__(cls, pivots, rows):
        self = super().__new__(cls, pivots)
        self.rows = rows
        return self


def reduce_rows(ring: IdealizationRing, rows) -> Pivots:
    """The valuation pivots of the module spanned by a list of rows.

    Returns the (column, valuation) pairs of the canonical echelon form,
    valuations nondecreasing, with the pivot rows.  The rows are reduced as
    integer rows up to a unit; see the module docstring.
    """
    d, n = ring.domain, ring.prec
    work = []
    for r in rows:
        row = d._primitive(r)
        key = _row_key(row, n)
        if key[0] < n:
            work.append((key, row))
    pivots, pivot_rows = [], []
    while work:
        keys = [key for key, _ in work]
        idx = keys.index(min(keys))
        (v, col), pivot = work.pop(idx)
        u = [(e - v, c) for e, c in pivot[col]]
        remaining = []
        for key, row in work:
            if row[col]:
                row = d._primitive(_eliminate(d, row, u, pivot, col, v))
                key = _row_key(row, n)
                if key[0] == n:
                    continue
            remaining.append((key, row))
        work = remaining
        pivots.append((col, v))
        pivot_rows.append(pivot)
    return Pivots(pivots, pivot_rows)


def _in_module(ring: IdealizationRing, pivots: Pivots, row) -> bool:
    """Does the row lie in the module of these pivots?

    It is reduced against the pivot rows in pivot order; see the module
    docstring.  The rows from a pivot on have no entry below its valuation,
    so an entry below it in the pivot's column is never cleared.
    """
    d = ring.domain
    for (col, v), pivot in zip(pivots, pivots.rows):
        s = row[col]
        if s:
            if s[0][0] < v:
                return False
            row = d._primitive(_eliminate(d, row, [(e - v, c) for e, c in pivot[col]], pivot, col, v))
    return _is_zero(row)


def ideal_from_generators(ring: IdealizationRing, gens) -> Pivots:
    """The pivots of the module span of the ring ideal generated by ``gens``.

    R*(v, l) is spanned over V by (v, l) and the (0, v*e_k), so the ideal is
    spanned by the rows (v, l) of the generators and the rows (0, t^a*e_k)
    for every k, where a is the least valuation of their V-components: V/t^N
    is a chain ring, so those components generate t^a*V.  The generators
    are rows themselves.  When every V-component is zero at precision, a is
    N and the rows (0, t^a*e_k) are zero, which the reduction drops.
    """
    gens = list(gens)
    if not gens:
        raise EmptyInput("need at least one ideal generator")
    a = min(g[0].valuation() for g in gens)
    # first, so that a tie on the pivot key picks a row with one nonzero entry
    rows = [ring.monomial(k, a) for k in range(1, ring.rank + 1)]
    return reduce_rows(ring, rows + gens)


def _products(ring: IdealizationRing, gens) -> dict:
    """The table of products gens[i]*gens[j], keyed by (i, j) with i <= j."""
    return {(i, j): ring.mul(a, gens[j]) for i, a in enumerate(gens) for j in range(i, len(gens))}


def _square(ring: IdealizationRing, products: dict) -> tuple:
    """The pivots of I^2 from the product table, each product once, at its first place."""
    return ideal_from_generators(ring, list(dict.fromkeys(products.values())))


def is_stable_ideal(ring: IdealizationRing, gens) -> dict:
    """Does I^2 = g*I hold, at the margin, for the ideal I generated by gens?

    The verdict is the dict a trial prints: ``stable``, ``witness_valuation``
    and ``margin``.  ``stable`` is True when I^2 = g*I is certified, None
    when the verdict is inconclusive at the margin, and False only on a
    program fault.  ``witness_valuation`` is the valuation of g's
    V-component when stable is True, else None; ``margin`` is N//2.

    g is the generator whose V-component has the least valuation (the first
    such generator on a tie), and I^2 = g*I holds exactly; see the module
    docstring.  I^2 and g*I share one product table, and g*I, its row at g,
    is the one reduction: I^2 is g*I exactly when every product outside that
    row lies in g*I.  Then the pivots of g*I are those of I^2, and below the
    margin N//2 they certify the verdict; an I^2 whose pivots reach the
    margin is inconclusive.  A product outside g*I is a program fault: I^2
    is then reduced from the whole table, and the verdict is stable=False,
    or inconclusive if those pivots reach the margin.
    """
    margin = ring.prec // 2
    vals = [h[0].valuation() for h in gens]
    k = min(range(len(gens)), key=vals.__getitem__, default=None)
    if k is None or vals[k] >= margin:
        raise NotRegular("no generator has V-component valuation below N/2")
    products = _products(ring, gens)
    g_row = [products[min(k, j), max(k, j)] for j in range(len(gens))]
    g_times_i = ideal_from_generators(ring, g_row)
    others = dict.fromkeys(x for key, x in products.items() if k not in key)
    stable = all(_in_module(ring, g_times_i, x) for x in others)
    square = g_times_i if stable else _square(ring, products)
    if any(v >= margin for _, v in square):
        stable = None
    return Payload(stable=stable, witness_valuation=vals[k] if stable else None, margin=margin)


def hilbert_lengths(ring: IdealizationRing, n: int) -> list[int]:
    """dim_k R/M^k for k = 1, ..., n, from one chain of powers M, M^2, ..., M^n.

    Each length is read off the pivots of M^k inside V^{1+r}: a row of the
    canonical form with pivot valuation v is t^v times a row that completes
    to a V-basis, so it spans N - v dimensions over k, and the rows' spans
    are independent because their pivot columns are distinct.  Must equal
    (1+r)k - r.
    """
    if not 1 <= n <= ring.prec // 2:
        raise PrecisionTooLow(f"need 1 <= n <= {ring.prec // 2}, got {n}")
    M = power = ring.maximal_ideal()
    lengths = []
    for k in range(1, n + 1):
        if k > 1:
            power = list(dict.fromkeys(ring.mul(a, b) for a in power for b in M))
        pivots = ideal_from_generators(ring, power)
        lengths.append((1 + ring.rank - len(pivots)) * ring.prec + sum(v for _, v in pivots))
    return lengths


def square_zero_prime_check(ring: IdealizationRing) -> dict:
    """P = 0*L squares to zero exactly, and R/P is a DVR.

    P^2 = 0 is an identity of the multiplication law (both components of
    (0,l1)(0,l2) carry a factor v = 0); it is verified here on module basis
    pairs at full precision.  R/P is V itself, and ``quotient_is_dvr``
    checks its two facts at precision: t has valuation 1, so it generates
    the maximal ideal, and t^N = 0 witnesses separatedness.
    """
    rng = random.Random(7)
    probes = [ring.monomial(k, shift) for k in range(1, ring.rank + 1) for shift in (0, 1)]
    probes += [_random_p_element(ring, rng) for _ in range(4)]
    p_squared_zero = all(_is_zero(ring.mul(a, b)) for a in probes for b in probes)
    t = ring.monomial(0, 1)[0]
    quotient_is_dvr = t.valuation() == 1 and not any(t * ring.monomial(0, ring.prec - 1)[0])
    return {"p_squared_zero": p_squared_zero, "quotient_is_dvr": quotient_is_dvr}


def _random_regular_generators(ring: IdealizationRing, rng: random.Random) -> list:
    """Two seeded random generators; the first has V-valuation below N/2."""
    g1 = _random_element(ring, rng, regular=True)
    if rng.random() < 0.3:
        g2 = _random_p_element(ring, rng)
        if _is_zero(g2):
            g2 = ring.monomial(1, 0)
    else:
        g2 = _random_element(ring, rng, regular=False)
    return [g1, g2]


def stability_sweep(ring: IdealizationRing, trials: int, seed: int) -> dict:
    """Run the stability test over seeded random regular ideals."""
    rng = random.Random(seed)
    per_trial = [is_stable_ideal(ring, _random_regular_generators(ring, rng)) for _ in range(trials)]
    counts = Counter(t["stable"] for t in per_trial)
    return {
        "trials": trials,
        "stable": counts[True],
        "not_stable": counts[False],
        "inconclusive": counts[None],
        "inconclusive_rate": counts[None] / trials if trials else 0.0,
        "per_trial": per_trial,
    }
