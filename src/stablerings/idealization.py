"""Exact finite-precision model of Nagata idealizations V*L.

V is a complete DVR modeled by truncated power series k[[t]]/t^N over an
exact coefficient field (F2, F3, F5, or the rationals); L = V^r is a free
module of finite rank r >= 1.  The ring V*L is V + L with multiplication
(v1,l1)(v2,l2) = (v1*v2, v1*l2 + v2*l1); P = 0*L satisfies P^2 = 0 exactly,
by the multiplication law, and the quotient by P is V.

Coefficients are plain Python numbers: integers reduced mod p for F_p, and
exact ints or Fractions for Q.  Series arithmetic is ``+ - *`` followed by
one ``CoeffDomain.norm`` per output coefficient, and a coefficient is zero
exactly when it is falsy.

Ideals are handled as V-submodules of V^{1+r}: each ring generator (v, l)
contributes the module generators (v, l) and (0, v*e_k) for k = 1..r, and
the generator matrix is reduced to a canonical valuation-pivot echelon form.
Pivots are selected globally by minimal valuation (ties to the smallest
column), normalized monic, and cleared from every other row, so pivot
valuations are nondecreasing and membership is decided by reduction against
the pivots in order.  Each reduced row is t^v times a row that completes to
a V-basis, so the length of V^{1+r} over the span is read off the pivots.

Precision semantics: every stability verdict carries the margin N//2 at
which it was certified.  Equality of reduced bases is compared on
coefficients below the margin; a negative verdict is issued only when every
candidate witness fails cleanly below the margin, and trials whose pivot
data reach the margin report inconclusive instead.  The margin rule is this
module's own convention for finite-precision certification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import (
    BadPrecision,
    BadRank,
    CapExceeded,
    EmptyInput,
    NotRegular,
    PrecisionTooLow,
    RingMismatch,
    UnsupportedField,
)

# Size caps, checked before anything is allocated.  One trial at rank 3 and
# precision 256 takes seconds; each series holds PREC_CAP coefficients.
PREC_CAP = 256
RANK_CAP = 8
TRIALS_CAP = 10_000


@dataclass(frozen=True)
class CoeffDomain:
    """An exact coefficient field: F_p (coefficients are ints mod p) or Q (p None).

    Arithmetic is Python's own ``+ - *``; ``norm`` brings a result back to
    its canonical representative.
    """

    name: str
    p: int | None

    def norm(self, x):
        return x % self.p if self.p else x

    def inv(self, a):
        return pow(a, self.p - 2, self.p) if self.p else 1 / Fraction(a)

    def rand(self, rng: random.Random):
        return rng.randrange(self.p) if self.p else rng.randint(-3, 3)

    def rand_nonzero(self, rng: random.Random):
        if self.p:
            return rng.randrange(1, self.p)
        return rng.choice([-3, -2, -1, 1, 2, 3])


DOMAINS = {
    "F2": CoeffDomain("F2", 2),
    "F3": CoeffDomain("F3", 3),
    "F5": CoeffDomain("F5", 5),
    "Q": CoeffDomain("Q", None),
}


def get_domain(name: str) -> CoeffDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise UnsupportedField(
            f"supported coefficient domains are {sorted(DOMAINS)}, not {name!r}"
        ) from None


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series modulo t^N with exact coefficients."""

    domain: CoeffDomain
    prec: int
    coeffs: tuple

    @staticmethod
    def make(domain: CoeffDomain, prec: int, coeffs) -> "TruncatedSeries":
        cs = [domain.norm(c) for c in coeffs[:prec]]
        return TruncatedSeries(domain, prec, tuple(cs) + (0,) * (prec - len(cs)))

    def valuation(self) -> int:
        """Least index of a nonzero coefficient; prec when zero at precision."""
        return next((i for i, c in enumerate(self.coeffs) if c), self.prec)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        norm = self.domain.norm
        return TruncatedSeries(
            self.domain, self.prec, tuple(norm(a + b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        norm = self.domain.norm
        return TruncatedSeries(
            self.domain, self.prec, tuple(norm(a - b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self.prec
        out = [0] * n
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    if i + j >= n:
                        break
                    out[i + j] += a * b
        return TruncatedSeries(self.domain, n, tuple(map(self.domain.norm, out)))

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by t^k; requires valuation >= k for exactness."""
        return TruncatedSeries(self.domain, self.prec, self.coeffs[k:] + (0,) * k)

    def unit_inverse(self) -> "TruncatedSeries":
        """Inverse of a unit (valuation 0), by coefficient recursion."""
        d = self.domain
        if self.valuation() != 0:
            raise ValueError("only units (valuation 0) are invertible")
        a = self.coeffs
        inv0 = d.inv(a[0])
        out = [inv0]
        for k in range(1, self.prec):
            out.append(d.norm(-inv0 * sum(a[i] * out[k - i] for i in range(1, k + 1))))
        return TruncatedSeries(d, self.prec, tuple(out))


@dataclass(frozen=True)
class IdealizationRing:
    """The ring V*L at fixed rank and precision."""

    domain: CoeffDomain
    rank: int
    prec: int

    def series(self, coeffs) -> TruncatedSeries:
        return TruncatedSeries.make(self.domain, self.prec, coeffs)

    def zero_series(self) -> TruncatedSeries:
        return self.series([])

    def element(self, v_coeffs, ell_coeffs=None) -> "RingElement":
        ell = ell_coeffs or [[] for _ in range(self.rank)]
        if len(ell) != self.rank:
            raise ValueError(f"need {self.rank} module components")
        return RingElement(
            self, self.series(v_coeffs), tuple(self.series(c) for c in ell)
        )

    def one(self) -> "RingElement":
        return self.element([1])

    def t_power(self, k: int) -> "RingElement":
        return self.element([0] * k + [1])

    def basis_ell(self, k: int, shift: int = 0) -> "RingElement":
        """The element (0, t^shift * e_k), 1-indexed k."""
        ell = [[] for _ in range(self.rank)]
        ell[k - 1] = [0] * shift + [1]
        return self.element([], ell)

    def maximal_ideal(self) -> "IdealizationIdeal":
        gens = [self.t_power(1)] + [self.basis_ell(k) for k in range(1, self.rank + 1)]
        return ideal_from_generators(self, gens)


@dataclass(frozen=True)
class RingElement:
    """An element (v, l) of V*L."""

    ring: IdealizationRing
    v: TruncatedSeries
    ell: tuple

    def is_zero(self) -> bool:
        return self.v.is_zero() and all(c.is_zero() for c in self.ell)

    def is_regular(self) -> bool:
        """Nonzerodivisor test: the V-component is nonzero at precision."""
        return self.v.valuation() < self.ring.prec

    def precision_warning(self) -> bool:
        """Set when the V-component valuation reaches the safe margin N/2."""
        return self.v.valuation() >= self.ring.prec // 2

    def __add__(self, other: "RingElement") -> "RingElement":
        _same_ring(self, other)
        return RingElement(
            self.ring, self.v + other.v, tuple(a + b for a, b in zip(self.ell, other.ell))
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        _same_ring(self, other)
        return RingElement(
            self.ring, self.v - other.v, tuple(a - b for a, b in zip(self.ell, other.ell))
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        """(v1,l1)(v2,l2) = (v1*v2, v1*l2 + v2*l1)."""
        _same_ring(self, other)
        ell = tuple(self.v * lb + other.v * la for la, lb in zip(self.ell, other.ell))
        return RingElement(self.ring, self.v * other.v, ell)


def _same_ring(a: RingElement, b: RingElement) -> None:
    if a.ring != b.ring:
        raise RingMismatch("elements belong to different idealization rings")


def make_ring(field: str, r: int, N: int) -> IdealizationRing:
    """Build V*L over the named coefficient field with L = V^r at precision N.

    The multiplication law is validated by seeded randomized axiom checks
    (commutativity, associativity, identity) at construction.
    """
    if r < 1:
        raise BadRank("L must be a nonzero free module: rank >= 1")
    if N < 4:
        raise BadPrecision("precision must be at least 4")
    if r > RANK_CAP:
        raise CapExceeded(f"rank {r} exceeds the cap of {RANK_CAP}")
    if N > PREC_CAP:
        raise CapExceeded(f"precision {N} exceeds the cap of {PREC_CAP}")
    ring = IdealizationRing(get_domain(field), r, N)
    rng = random.Random(0xA11CE)
    for _ in range(16):
        a, b, c = (_random_element(ring, rng, regular=False) for _ in range(3))
        if a * b != b * a:
            raise AssertionError("multiplication law is not commutative")
        if (a * b) * c != a * (b * c):
            raise AssertionError("multiplication law is not associative")
        if ring.one() * a != a:
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
    return TruncatedSeries.make(d, ring.prec, coeffs)


def _random_element(ring: IdealizationRing, rng: random.Random, regular: bool) -> RingElement:
    val_range = (0, min(2, ring.prec // 2 - 1)) if regular else (0, 4)
    v = _random_series(ring, rng, val_range)
    ell = tuple(
        _random_series(ring, rng) if rng.random() < 0.8 else ring.zero_series()
        for _ in range(ring.rank)
    )
    return RingElement(ring, v, ell)


# --- module reduction -------------------------------------------------------


def _row_min(row) -> tuple[int, int]:
    """(valuation, column) of the minimal-valuation entry of a row."""
    best_v, best_c = row[0].prec, len(row)
    for c, s in enumerate(row):
        v = s.valuation()
        if v < best_v:
            best_v, best_c = v, c
    return best_v, best_c


def reduce_rows(ring: IdealizationRing, rows) -> tuple[tuple, tuple]:
    """Canonical valuation-pivot echelon form of a list of module rows.

    Returns (basis, pivots) where basis is a tuple of row tuples and pivots
    the matching tuple of (column, valuation) pairs, valuations nondecreasing.
    """
    n = ring.prec
    work = [list(r) for r in rows if any(not s.is_zero() for s in r)]
    result: list[list[TruncatedSeries]] = []
    pivots: list[tuple[int, int]] = []
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
        unit = pivot[col].shift_down(v).unit_inverse()
        pivot = [s * unit for s in pivot]
        for row in work:
            e = row[col]
            if not e.is_zero():
                q = e.shift_down(v)
                for c in range(len(row)):
                    row[c] = row[c] - q * pivot[c]
        for row in result:
            # remove the coefficients of degree >= v, keeping the rest
            q = row[col].shift_down(v)
            if not q.is_zero():
                for c in range(len(row)):
                    row[c] = row[c] - q * pivot[c]
        work = [r for r in work if any(not s.is_zero() for s in r)]
        result.append(pivot)
        pivots.append((col, v))
    basis = tuple(tuple(r) for r in result)
    return basis, tuple(pivots)


@dataclass(frozen=True)
class IdealizationIdeal:
    """A ring ideal of V*L with its canonical reduced module basis."""

    ring: IdealizationRing
    ring_generators: tuple = dataclass_field(compare=False)
    basis: tuple
    pivots: tuple

    def is_regular(self) -> bool:
        margin = self.ring.prec // 2
        return any(g.v.valuation() < margin for g in self.ring_generators)

    def contains_row(self, row) -> bool:
        """Membership of a module vector, by reduction against the pivots."""
        row = list(row)
        for (col, v), prow in zip(self.pivots, self.basis):
            e = row[col]
            if e.valuation() >= v:
                q = e.shift_down(v)
                for c in range(len(row)):
                    row[c] = row[c] - q * prow[c]
        return all(s.is_zero() for s in row)

    def contains(self, x: RingElement) -> bool:
        return self.contains_row(_element_row(x))

    def margin_signature(self, margin: int):
        """Pivot and truncated-coefficient data below the margin.

        Returns None when some pivot valuation reaches the margin, in which
        case comparisons at this margin are not trustworthy.
        """
        if any(v >= margin for _, v in self.pivots):
            return None
        return tuple(
            (col, v, tuple(s.coeffs[:margin] for s in row))
            for (col, v), row in zip(self.pivots, self.basis)
        )


def _element_row(x: RingElement) -> tuple:
    return (x.v,) + x.ell


def ideal_from_generators(ring: IdealizationRing, gens) -> IdealizationIdeal:
    """The ring ideal generated by ``gens``, with reduced module basis.

    Each ring generator (v, l) contributes the module rows (v, l) and
    (0, v*e_k) for every k, which together span R*(v, l) as a V-module.
    """
    gens = list(gens)
    if not gens:
        raise EmptyInput("need at least one ideal generator")
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generator belongs to a different ring")
    zero = ring.zero_series()
    rows = []
    for g in gens:
        rows.append(_element_row(g))
        for k in range(ring.rank):
            ell = [zero] * ring.rank
            ell[k] = g.v
            rows.append((zero, *ell))
    basis, pivots = reduce_rows(ring, rows)
    return IdealizationIdeal(
        ring=ring, ring_generators=tuple(gens), basis=basis, pivots=pivots
    )


def ideal_product(I: IdealizationIdeal, J: IdealizationIdeal) -> IdealizationIdeal:
    """The ring-ideal product, generated by pairwise generator products."""
    if I.ring != J.ring:
        raise RingMismatch("ideals belong to different rings")
    products = dict.fromkeys(a * b for a in I.ring_generators for b in J.ring_generators)
    return ideal_from_generators(I.ring, list(products))


def ideal_power(I: IdealizationIdeal, n: int) -> IdealizationIdeal:
    if n < 1:
        raise ValueError("n must be at least 1")
    out = I
    for _ in range(n - 1):
        out = ideal_product(out, I)
    return out


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the witness search; stable=None means inconclusive."""

    stable: bool | None
    witness: RingElement | None
    margin: int

    def to_payload(self) -> dict:
        return {
            "stable": self.stable,
            "witness_valuation": (
                self.witness.v.valuation() if self.witness is not None else None
            ),
            "margin": self.margin,
        }


def is_stable_ideal(I: IdealizationIdeal) -> StabilityVerdict:
    """Does I^2 = x*I hold for some x in I, at the safe precision margin?

    Candidates are the ring generators and their pairwise sums and
    differences (the two-generator argument yields difference-style
    witnesses; in characteristic 2 the two coincide), in order of
    V-component valuation.  Equality is certified on coefficients below the
    margin N//2; a candidate whose comparison data reaches the margin is
    neither accepted nor counted as a clean failure.
    """
    ring = I.ring
    margin = ring.prec // 2
    if not I.is_regular():
        raise NotRegular("no generator has V-component valuation below N/2")
    gens = list(I.ring_generators)
    cands = list(gens)
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            # a-b and b-a generate the same ideal: one representative suffices
            cands += (a + b, a - b)
    ordered = sorted(dict.fromkeys(cands), key=lambda g: g.v.valuation())
    I2 = ideal_product(I, I)
    sig2 = I2.margin_signature(margin)
    saw_unclear = sig2 is None
    if sig2 is not None:
        for x in ordered:
            if x.is_zero():
                continue
            xI = ideal_from_generators(ring, [x * g for g in gens])
            sig_x = xI.margin_signature(margin)
            if sig_x is None:
                saw_unclear = True
                continue
            if sig_x == sig2:
                return StabilityVerdict(stable=True, witness=x, margin=margin)
    if saw_unclear:
        return StabilityVerdict(stable=None, witness=None, margin=margin)
    return StabilityVerdict(stable=False, witness=None, margin=margin)


def hilbert_length(ring: IdealizationRing, n: int) -> int:
    """dim_k R/M^n for the maximal ideal M = (t, e_1, ..., e_r).

    Read off the pivots of the reduced basis of M^n inside V^{1+r}: a row
    with pivot valuation v is t^v times a row that completes to a V-basis,
    so it spans N - v dimensions over k, and the rows' spans are independent
    because their pivot columns are distinct.  Must equal (1+r)n - r.
    """
    if not 1 <= n <= ring.prec // 2:
        raise PrecisionTooLow(f"need 1 <= n <= {ring.prec // 2}, got {n}")
    pivots = ideal_power(ring.maximal_ideal(), n).pivots
    return (1 + ring.rank - len(pivots)) * ring.prec + sum(v for _, v in pivots)


def square_zero_prime_check(ring: IdealizationRing) -> dict:
    """P = 0*L squares to zero exactly, and R/P is a DVR.

    P^2 = 0 is an identity of the multiplication law (both components of
    (0,l1)(0,l2) carry a factor v = 0); it is verified here on module basis
    pairs at full precision.  R/P is V itself: maximal ideal generated by t,
    with t^N = 0 witnessing separatedness at precision.
    """
    rng = random.Random(7)
    p_squared_zero = True
    probes = [
        ring.basis_ell(k, shift) for k in range(1, ring.rank + 1) for shift in (0, 1)
    ]
    probes += [
        RingElement(ring, ring.zero_series(), tuple(_random_series(ring, rng) for _ in range(ring.rank)))
        for _ in range(4)
    ]
    for a in probes:
        for b in probes:
            if not (a * b).is_zero():
                p_squared_zero = False
    t = ring.series([0, 1])
    quotient_is_dvr = (
        t.valuation() == 1
        and (t * ring.t_power(ring.prec - 1).v).is_zero()
        and ring.series([1]).unit_inverse() == ring.series([1])
    )
    return {"p_squared_zero": p_squared_zero, "quotient_is_dvr": quotient_is_dvr}


def random_regular_ideal(ring: IdealizationRing, rng: random.Random) -> IdealizationIdeal:
    """A seeded random two-generated regular ideal."""
    g1 = _random_element(ring, rng, regular=True)
    if rng.random() < 0.3:
        g2 = RingElement(
            ring,
            ring.zero_series(),
            tuple(_random_series(ring, rng) for _ in range(ring.rank)),
        )
        if g2.is_zero():
            g2 = ring.basis_ell(1)
    else:
        g2 = _random_element(ring, rng, regular=False)
    return ideal_from_generators(ring, [g1, g2])


def stability_sweep(ring: IdealizationRing, trials: int, seed: int) -> dict:
    """Run the stability test over seeded random regular ideals."""
    if trials > TRIALS_CAP:
        raise CapExceeded(f"{trials} trials exceed the cap of {TRIALS_CAP}")
    rng = random.Random(seed)
    per_trial = []
    stable = not_stable = inconclusive = 0
    for _ in range(trials):
        ideal = random_regular_ideal(ring, rng)
        verdict = is_stable_ideal(ideal)
        per_trial.append(verdict.to_payload())
        if verdict.stable is True:
            stable += 1
        elif verdict.stable is False:
            not_stable += 1
        else:
            inconclusive += 1
    return {
        "trials": trials,
        "stable": stable,
        "not_stable": not_stable,
        "inconclusive": inconclusive,
        "inconclusive_rate": inconclusive / trials if trials else 0.0,
        "per_trial": per_trial,
    }
