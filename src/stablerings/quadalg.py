"""Finite-dimensional commutative algebras over small finite fields.

An algebra is given by structure constants: table[i][j] is the coordinate
vector of e_i * e_j in the basis e_0, ..., e_{d-1}, with e_0 the
multiplicative identity.  Commutativity, associativity and the identity law
are verified exhaustively at construction.

The quadratic-extension test asks whether every product x*y lies in the span
of {1, x, y}; over the supported fields F2, F3, F4, F5 this is decidable by
checking all pairs.  span{1, x, y} is the union of the translates
c*y + span{1, x} over the scalars c, so a pair passes iff x*y + c*y lies in
the set span{1, x}, at most q^2 vectors built once per x, for some scalar c
(c and -c run over the same scalars, so nothing is subtracted or inverted).
Quadratic algebras fall into exactly five classes (the base field, a
degree-2 field extension, a local ring with square-zero maximal ideal,
F x F, and F2 x F2 x F2), and a quadratic algebra has at most three maximal
ideals.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from itertools import product
from typing import NamedTuple

from .errors import (
    NoIdentity,
    NotAssociative,
    NotCommutative,
    TooLarge,
    Unclassifiable,
    UnsupportedField,
)

# Cap on the unordered element pairs of the pair test, whose cost is quadratic
# in the size (the 32,896 pairs of a dimension-8 F2 algebra take about 0.5 s on
# a 2.1 GHz Xeon).  algebra_from_table refuses an algebra past it, so every
# scan over the elements of a built algebra sees at most 315 of them.
PAIR_TEST_BOUND = 50_000


class SmallField(NamedTuple):
    """Arithmetic for one of F2, F3, F4, F5.

    Elements are the integers 0..q-1.  The prime fields use arithmetic mod p;
    F4 is F2[w]/(w^2+w+1) with 2 <-> w and 3 <-> w+1.
    """

    name: str
    q: int
    add: Callable[[int, int], int]
    mul: Callable[[int, int], int]

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
    if isinstance(name, str) and name in FIELDS:
        return FIELDS[name]
    raise UnsupportedField(f"supported fields are {sorted(FIELDS)}, not {name!r}")


class StructureAlgebra(NamedTuple):
    """A validated commutative unital algebra given by structure constants."""

    field: SmallField
    dimension: int
    table: tuple[tuple[tuple[int, ...], ...], ...]

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


def algebra_from_table(field_name: str, dim: int, table) -> StructureAlgebra:
    """Validate and build an algebra from its structure constants.

    The one validator of an algebra.  Checks that ``dim`` is an int, the
    field, ``dim >= 1`` and then, from the field and ``dim`` alone, the pair
    bound: validating the table costs about dim^5 steps.  Then the table's
    shape, commutativity (table symmetry), the identity law for e_0, and
    associativity of all basis triples.
    """
    if type(dim) is not int:  # JSON true is not a dimension
        raise ValueError("dim must be an integer")
    field = get_field(field_name)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    _check_pair_bound(field.q, dim)

    def has_dim_entries(v) -> bool:
        return isinstance(v, (list, tuple)) and len(v) == dim

    if not has_dim_entries(table) or not all(
        has_dim_entries(row) and all(map(has_dim_entries, row)) for row in table
    ):
        raise ValueError("table must be d x d vectors of length d")
    for row in table:
        for v in row:
            for c in v:
                if type(c) is not int or not 0 <= c < field.q:  # a bool is not a coefficient
                    raise ValueError(f"coefficient {c!r} outside {field.name}")
    rows = tuple(tuple(tuple(v) for v in row) for row in table)

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


def _check_pair_bound(q: int, dim: int) -> None:
    """Refuse an F_q-algebra of dimension dim whose element pairs pass the bound."""
    cut = PAIR_TEST_BOUND.bit_length()  # q >= 2, so q**cut passes it: a huge dim costs nothing
    size = q ** min(dim, cut)
    pairs = size * (size + 1) // 2
    if pairs > PAIR_TEST_BOUND:
        count = pairs if dim <= cut else f"more than {pairs}"
        raise TooLarge(f"{count} element pairs exceed the pair-test bound of {PAIR_TEST_BOUND}")


def is_quadratic_over_base(A: StructureAlgebra) -> bool:
    """True iff x*y lies in span{1, x, y} for every pair of elements.

    The pair passes iff x*y + c*y lies in span{1, x} for some scalar c.
    """
    add, mul, scalars = A.field.add, A.field.mul, A.field.elements()
    elems = list(A.elements())
    # multiples[i][c] = c * elems[i]; multiples[i][0] is zero
    multiples = [[tuple(mul(c, t) for t in v) for c in scalars] for v in elems]
    for i, x in enumerate(elems):
        # span{1, x}: the multiples of x with a scalar added to the e_0 coordinate
        span = {(add(a, bx[0]),) + bx[1:] for bx in multiples[i] for a in scalars}
        for y, ys in zip(elems[i:], multiples[i:]):
            xy = A.mul(x, y)
            if not any(tuple(map(add, xy, cy)) in span for cy in ys):
                return False
    return True


class HandelmanClass(Enum):
    BaseField = "BaseField"
    QuadraticFieldExtension = "QuadraticFieldExtension"
    LocalSquareZeroMax = "LocalSquareZeroMax"
    FxF = "FxF"
    FxFxF_overF2 = "FxFxF_overF2"
    NotQuadratic = "NotQuadratic"


# the maximal ideals of each quadratic class: a classified algebra needs no idempotent scan
CLASS_MAXIMAL_IDEALS = {
    HandelmanClass.BaseField: 1,
    HandelmanClass.QuadraticFieldExtension: 1,
    HandelmanClass.LocalSquareZeroMax: 1,
    HandelmanClass.FxF: 2,
    HandelmanClass.FxFxF_overF2: 3,
}


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
    n = sum(1 for x in A.elements() if A.mul(x, x) == x)
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
    Only the object and its keys are checked here; ``algebra_from_table``
    checks the values.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload must be an object")
    missing = {"field", "dim", "table"} - payload.keys()
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    return algebra_from_table(payload["field"], payload["dim"], payload["table"])
