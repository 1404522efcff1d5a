"""Exact finite-precision model of Nagata idealizations V*L.

V is a complete DVR modeled by truncated power series k[[t]]/t^N over an
exact coefficient field (F2, F3, F5, or the rationals); L = V^r is a free
module of finite rank r >= 1.  The ring V*L is V + L with multiplication
(v1,l1)(v2,l2) = (v1*v2, v1*l2 + v2*l1); P = 0*L satisfies P^2 = 0 exactly,
by the multiplication law, and the quotient by P is V.

Coefficients are plain Python numbers: integers reduced mod p for F_p, and
exact ints or Fractions for Q.  A series is the tuple of its N coefficients,
and its class is its coefficient field (``DOMAINS``).  Its one arithmetic
operation is ``*``, reduced mod p over F_p only, and a coefficient is zero
exactly when it is falsy.  A ring element (v, l) is the tuple (v, l_1, ...,
l_r) of its series, which is also its row in V^{1+r}.  ``ring.mul`` is the
ring product, and it makes each module part v1*l2 + v2*l1 in one pass.

An ideal is the list of its ring generators, and ``ideal_from_generators``
returns its one computed form, the pivots of its module span: I^2 is the
table of products over unordered generator pairs and g*I its row at g, and
M^k is M^(k-1) times the generators [t, e_1, ..., e_r] of M.  Pivots carry
no generators, so equal pivots say nothing about two ideals unless one lies
inside the other.

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
their pivots are.

The reduction runs on integer coefficient lists.  A row matters only up to
a unit of V, and a nonzero constant is one, so it is kept small: reduced
mod p, or divided by the gcd of its coefficients over Q.  With the pivot's
entry t^v*U and a row's entry t^v*Q in the pivot column, the row becomes
U*row - Q*pivot: the elimination needs no inverse, and the new row is U
times the row an exact elimination with a monic pivot gives, with the same
valuations and so the same pivot choices (fraction-free elimination;
Bareiss, Math. Comp. 22, 1968).

Precision semantics: every stability verdict carries the margin N//2 at
which it was certified.  Every ideal I with a regular generator is stable,
with the witness g, a generator whose V-component has the least valuation
(Lipman, Amer. J. Math. 93, 1971; Sally and Vasconcelos, J. Pure Appl.
Algebra 4, 1974): every h in I is c*g + p with c in V and p in I ∩ P, and
P^2 = 0, so h*h' = g*(c*c'*g + c*p' + c'*p) and I^2 = g*I holds exactly,
in V/t^N too.  The one comparison of the pivots of I^2 and g*I is trusted
only when every pivot valuation of I^2 lies below the margin; otherwise the
verdict is inconclusive.  A clean mismatch, stable=False, means that the
proved identity failed, which is a fault of this program, not a property of
the ideal.  The margin rule is this module's own convention for
finite-precision certification.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm

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

# Size caps, checked before anything is allocated.  Each series holds at most
# PREC_CAP coefficients.  A trial's cost grows about as (1+r)^2 * N (its
# random series are sparse), so WORK_CAP bounds trials * (1+r)^2 * N.  The
# costliest admitted checks, whole `idealization check --field Q --seed 1`
# runs on a shared 2-core Xeon with Python 3.11.7: rank 8, N = 256, 48
# trials in 0.7-0.8 s; rank 1, N = 250, 1,000 trials in 0.8-0.9 s.
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
    """A power series modulo t^N: the tuple of its N exact coefficients.

    The coefficient field is the class: each ``DOMAINS`` entry is a subclass
    that sets ``p``, the characteristic of F_p, or None over Q.  ``*`` is the
    one series operation, and a series is zero exactly when no coefficient
    is truthy.
    """

    __slots__ = ()
    p: int | None

    @classmethod
    def reduced(cls, coeffs) -> "TruncatedSeries":
        """The series of these coefficients, reduced mod p over F_p only."""
        p = cls.p
        return cls([c % p for c in coeffs] if p else coeffs)

    @classmethod
    def _primitive(cls, row) -> list:
        """A unit multiple of an integer row: reduced mod p, or over Q divided by its content."""
        if cls.p:
            p = cls.p
            return [[x % p for x in s] for s in row]
        g = gcd(*(gcd(*s) for s in row))
        return [[x // g for x in s] for s in row] if g > 1 else row

    @classmethod
    def rand(cls, rng: random.Random):
        return rng.randrange(cls.p) if cls.p else rng.randint(-3, 3)

    @classmethod
    def rand_nonzero(cls, rng: random.Random):
        return rng.randrange(1, cls.p) if cls.p else rng.choice([-3, -2, -1, 1, 2, 3])

    def valuation(self) -> int:
        """Least index of a nonzero coefficient; N when zero at precision."""
        return next(compress(range(len(self)), self), len(self))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.reduced(_mul_add(self, other))

    def unit_inverse(self) -> "TruncatedSeries":
        """Inverse of a unit (valuation 0): w_0 = 1/u_0, w_k = -w_0 * sum_{i>=1} u_i*w_(k-i)."""
        if self.valuation() != 0:
            raise ValueError("only units (valuation 0) are invertible")
        p, n = self.p, len(self)
        terms = [(i, self[i]) for i in compress(range(1, n), self[1:])]
        w = [pow(self[0], p - 2, p) if p else 1 / Fraction(self[0])]
        for k in range(1, n):
            x = -w[0] * sum(c * w[k - i] for i, c in terms if i <= k)
            w.append(x % p if p else x)
        return type(self)(w)


DOMAINS = {
    name: type(name, (TruncatedSeries,), {"__slots__": (), "p": p})
    for name, p in (("F2", 2), ("F3", 3), ("F5", 5), ("Q", None))
}


def get_domain(name: str) -> type[TruncatedSeries]:
    try:
        return DOMAINS[name]
    except KeyError:
        raise UnsupportedField(
            f"supported coefficient domains are {sorted(DOMAINS)}, not {name!r}"
        ) from None


@dataclass(frozen=True)
class IdealizationRing:
    """The ring V*L at fixed rank and precision.

    An element (v, l) is the tuple (v, l_1, ..., l_r) of its series, which
    is also its row in V^{1+r}; ``mul`` is the ring product.
    """

    domain: type[TruncatedSeries]
    rank: int
    prec: int

    def series(self, coeffs) -> TruncatedSeries:
        cs = list(coeffs[: self.prec])
        return self.domain.reduced(cs + [0] * (self.prec - len(cs)))

    def element(self, v_coeffs, ell_coeffs=None) -> tuple:
        ell = ell_coeffs or [[] for _ in range(self.rank)]
        if len(ell) != self.rank:
            raise ValueError(f"need {self.rank} module components")
        return (self.series(v_coeffs), *map(self.series, ell))

    def t_power(self, k: int) -> tuple:
        return self.element([0] * k + [1])

    def basis_ell(self, k: int, shift: int = 0) -> tuple:
        """The element (0, t^shift * e_k), 1-indexed k."""
        ell = [[] for _ in range(self.rank)]
        ell[k - 1] = [0] * shift + [1]
        return self.element([], ell)

    def maximal_ideal(self) -> list:
        """The generators [t, e_1, ..., e_r] of the maximal ideal tV + L."""
        return [self.t_power(1)] + [self.basis_ell(k) for k in range(1, self.rank + 1)]

    def mul(self, x: tuple, y: tuple) -> tuple:
        """(v1,l1)(v2,l2) = (v1*v2, v1*l2 + v2*l1), each module part in one pass."""
        a, b = x[0], y[0]
        reduced = self.domain.reduced
        return (a * b, *(reduced(_mul_add(a, lb, b, la)) for la, lb in zip(x[1:], y[1:])))


def _is_zero(x: tuple) -> bool:
    """Is every coefficient of the element x zero?"""
    return not any(chain(*x))


def make_ring(field: str, r: int, N: int) -> IdealizationRing:
    """Build V*L over the named coefficient field with L = V^r at precision N.

    The multiplication law is validated by seeded randomized axiom checks
    (commutativity, associativity, identity) at construction.
    """
    if r < 1:
        raise BadRank("L must be a nonzero free module: rank >= 1")
    if N < 4:
        raise BadPrecision("precision must be at least 4")
    check_caps(r, N, 0)
    ring = IdealizationRing(get_domain(field), r, N)
    mul, one = ring.mul, ring.t_power(0)
    rng = random.Random(0xA11CE)
    for _ in range(16):
        a, b, c = (_random_element(ring, rng, regular=False) for _ in range(3))
        if mul(a, b) != mul(b, a):
            raise AssertionError("multiplication law is not commutative")
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            raise AssertionError("multiplication law is not associative")
        if mul(one, a) != a:
            raise AssertionError("(1,0) is not an identity")
    return ring


def _random_series(ring: IdealizationRing, rng: random.Random, val_range=(0, 4)) -> TruncatedSeries:
    d = ring.domain
    v = rng.randint(*val_range)
    coeffs = [0] * ring.prec
    if v < ring.prec:
        coeffs[v] = d.rand_nonzero(rng)
        for i in range(v + 1, min(v + 4, ring.prec)):
            coeffs[i] = d.rand(rng)
    return d.reduced(coeffs)


def _random_element(ring: IdealizationRing, rng: random.Random, regular: bool) -> tuple:
    val_range = (0, min(2, ring.prec // 2 - 1)) if regular else (0, 4)
    v = _random_series(ring, rng, val_range)
    zero = ring.series([])
    ell = (_random_series(ring, rng) if rng.random() < 0.8 else zero for _ in range(ring.rank))
    return (v, *ell)


def _random_p_element(ring: IdealizationRing, rng: random.Random) -> tuple:
    """A seeded random element (0, l) of P = 0*L."""
    return (ring.series([]), *(_random_series(ring, rng) for _ in range(ring.rank)))


# --- module reduction -------------------------------------------------------


def _mul_add(a, x, b=(), y=()) -> list:
    """a*x + b*y modulo t^len(x), on coefficient lists no longer than x."""
    n = len(x)
    out = [0] * n
    for f, g in ((a, x), (b, y)):
        terms = [(j, g[j]) for j in compress(range(n), g)]
        if terms:
            for i in compress(range(n), f):
                c = f[i]
                for j, e in terms:
                    if i + j >= n:
                        break
                    out[i + j] += c * e
    return out


def _row_key(row, n: int) -> tuple[int, int]:
    """(valuation, column) of the minimal-valuation entry; (n, len) for zero."""
    v, col = n, len(row)
    for c, s in enumerate(row):
        i = next(compress(range(v), s), v)
        if i < v:
            v, col = i, c
    return v, col


def _integer_row(row) -> list:
    """A nonzero constant multiple of a row of series over Q, with integer entries."""
    if {int}.issuperset(map(type, chain(*row))):
        return [list(s) for s in row]
    den = lcm(*(x.denominator for x in chain(*row)))
    return [[x.numerator * (den // x.denominator) for x in s] for s in row]


def _eliminate(row, u, q, pivot, col: int) -> list:
    """u*row - q*pivot, for a pivot whose entry in column col is t^v*u.

    q is the entry of row in column col divided by t^v.  Neither row has a
    coefficient below t^v, so u*q*t^v - q*u*t^v clears that entry and every
    other entry is t^v times (u*s - q*p) for the entries' parts s and p
    above t^v.
    """
    q = [-c for c in q]
    return [
        [0] * len(s) if c == col else _mul_add(u, s, q, p) if any(s) or any(p) else s
        for c, (s, p) in enumerate(zip(row, pivot))
    ]


def reduce_rows(ring: IdealizationRing, rows) -> tuple:
    """The valuation pivots of the module spanned by a list of rows.

    Returns the tuple of (column, valuation) pairs of the canonical echelon
    form, valuations nondecreasing.  The rows are reduced as integer rows up
    to a unit; see the module docstring.
    """
    d, n = ring.domain, ring.prec
    work = []
    for r in rows:
        row = d._primitive(r if d.p else _integer_row(r))  # F_p coefficients are ints by construction
        key = _row_key(row, n)
        if key[0] < n:
            work.append((key, row))
    pivots: list[tuple[int, int]] = []
    while work:
        idx = min(range(len(work)), key=lambda i: work[i][0])
        (v, col), pivot = work.pop(idx)
        u = pivot[col][v:]
        remaining = []
        for key, row in work:
            q = row[col][v:]
            if any(q):
                row = d._primitive(_eliminate(row, u, q, pivot, col))
                key = _row_key(row, n)
                if key[0] == n:
                    continue
            remaining.append((key, row))
        work = remaining
        pivots.append((col, v))
    return tuple(pivots)


def ideal_from_generators(ring: IdealizationRing, gens) -> tuple:
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
    zero, t_a = ring.series([]), ring.series([0] * a + [1])
    # first, so that a tie on the pivot key picks a row with one nonzero entry
    rows = [(zero,) * k + (t_a,) + (zero,) * (ring.rank - k) for k in range(1, ring.rank + 1)]
    return reduce_rows(ring, rows + gens)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the stability test: stable=None is inconclusive, False a fault.

    ``witness`` is the least-valuation generator g when stable is True.
    """

    stable: bool | None
    witness: tuple | None
    margin: int

    def to_payload(self) -> dict:
        witness = self.witness[0].valuation() if self.witness is not None else None
        return {"stable": self.stable, "witness_valuation": witness, "margin": self.margin}


def _products(ring: IdealizationRing, gens) -> dict:
    """The table of products gens[i]*gens[j], keyed by (i, j) with i <= j."""
    return {(i, j): ring.mul(a, gens[j]) for i, a in enumerate(gens) for j in range(i, len(gens))}


def _square(ring: IdealizationRing, products: dict) -> tuple:
    """The pivots of I^2 from the product table, each product once, at its first place."""
    return ideal_from_generators(ring, list(dict.fromkeys(products.values())))


def is_stable_ideal(ring: IdealizationRing, gens) -> StabilityVerdict:
    """Does I^2 = g*I hold, at the margin, for the ideal I generated by gens?

    g is the generator whose V-component has the least valuation (the first
    such generator on a tie), and I^2 = g*I holds exactly; see the module
    docstring; I^2 and g*I share one product table.  The pivots of I^2
    below the margin N//2 certify the verdict, and an I^2 whose pivots reach
    the margin is inconclusive.  A g*I whose pivots differ from those of I^2
    is a program fault, reported as stable=False.
    """
    margin = ring.prec // 2
    vals = [h[0].valuation() for h in gens]
    k = min(range(len(gens)), key=vals.__getitem__, default=None)
    if k is None or vals[k] >= margin:
        raise NotRegular("no generator has V-component valuation below N/2")
    products = _products(ring, gens)
    square = _square(ring, products)
    if any(v >= margin for _, v in square):
        return StabilityVerdict(stable=None, witness=None, margin=margin)
    g_times_i = [products[min(k, j), max(k, j)] for j in range(len(gens))]
    if ideal_from_generators(ring, g_times_i) == square:
        return StabilityVerdict(stable=True, witness=gens[k], margin=margin)
    return StabilityVerdict(stable=False, witness=None, margin=margin)


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
    pairs at full precision.  R/P is V itself: maximal ideal generated by t,
    with t^N = 0 witnessing separatedness at precision.
    """
    rng = random.Random(7)
    probes = [ring.basis_ell(k, shift) for k in range(1, ring.rank + 1) for shift in (0, 1)]
    probes += [_random_p_element(ring, rng) for _ in range(4)]
    p_squared_zero = all(_is_zero(ring.mul(a, b)) for a in probes for b in probes)
    t = ring.series([0, 1])
    quotient_is_dvr = (
        t.valuation() == 1
        and not any(t * ring.t_power(ring.prec - 1)[0])
        and ring.series([1]).unit_inverse() == ring.series([1])
    )
    return {"p_squared_zero": p_squared_zero, "quotient_is_dvr": quotient_is_dvr}


def _random_regular_generators(ring: IdealizationRing, rng: random.Random) -> list:
    """Two seeded random generators; the first has V-valuation below N/2."""
    g1 = _random_element(ring, rng, regular=True)
    if rng.random() < 0.3:
        g2 = _random_p_element(ring, rng)
        if _is_zero(g2):
            g2 = ring.basis_ell(1)
    else:
        g2 = _random_element(ring, rng, regular=False)
    return [g1, g2]


def stability_sweep(ring: IdealizationRing, trials: int, seed: int) -> dict:
    """Run the stability test over seeded random regular ideals."""
    check_caps(ring.rank, ring.prec, trials)
    rng = random.Random(seed)
    per_trial = [
        is_stable_ideal(ring, _random_regular_generators(ring, rng)).to_payload() for _ in range(trials)
    ]
    counts = Counter(t["stable"] for t in per_trial)
    return {
        "trials": trials,
        "stable": counts[True],
        "not_stable": counts[False],
        "inconclusive": counts[None],
        "inconclusive_rate": counts[None] / trials if trials else 0.0,
        "per_trial": per_trial,
    }
