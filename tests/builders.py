"""Constructors that only the tests use.

Sample algebras for the quadratic-algebra stack, idealization series and
elements from dense coefficient lists, sums of monomial ideals and
products of idealization ideals with the powers built from them, translates
of monomial ideals, the maximal ideal and the normalized ideals as ideal
objects, semigroups from their gap sets and single values of the Hilbert
function: the production code reads powers off one chain
(``stablerings.idealization.hilbert_lengths``,
``stablerings.relideal._power_chain``), never adds two different ideals,
never needs a single power or a single Hilbert value, never translates an
ideal, reads the maximal ideal and walks the normalized ideals as bare
hole masks, builds semigroups from generators or member masks, and builds
idealization elements from coefficients only as monomials
(``IdealizationRing.monomial``).
An idealization ideal is the list of its generators, each the row
(v, l_1, ..., l_r) of its series, as in ``stablerings.idealization``, and
``ideal_product`` is the one product of two such lists in a ring.
``ideal_sum`` is the only raiser of ``AmbientMismatch``, so that error
lives here too.
"""

from itertools import product

from stablerings.errors import NoIdentity, NotAssociative, NotCommutative, StableringsError
from stablerings.numsg import NumericalSemigroup
from stablerings.quadalg import StructureAlgebra, algebra_from_table, get_field
from stablerings.relideal import RelativeIdeal, _offsets, _power_chain, enumerate_normalized_ideals
from stablerings.ringlab import _hilbert_length


class AmbientMismatch(StableringsError):
    """Two ideals over different ambient semigroups were combined."""


def product_field_algebra(field_name: str, k: int) -> StructureAlgebra:
    """The product of k copies of the base field, F x ... x F.

    Basis: e_0 = (1,...,1) and e_i = the i-th primitive idempotent for
    i = 1..k-1, so e_i*e_j = 0 for distinct nonzero i, j and e_i^2 = e_i.
    """
    if k < 1:
        raise ValueError("need at least one factor")
    field = get_field(field_name)
    d = k
    table = [[None] * d for _ in range(d)]

    def vec(*coords):
        return tuple(coords)

    e = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    for j in range(d):
        table[0][j] = e[j]
        table[j][0] = e[j]
    for i in range(1, d):
        for j in range(1, d):
            table[i][j] = e[i] if i == j else vec(*([0] * d))
    return algebra_from_table(field_name, d, table)


def dual_numbers_algebra(field_name: str) -> StructureAlgebra:
    """F[x]/(x^2): dimension 2, e_1^2 = 0."""
    return algebra_from_table(field_name, 2, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]])


def f4_over_f2_algebra() -> StructureAlgebra:
    """F4 as a 2-dimensional F2-algebra: e_1^2 = e_1 + 1."""
    return algebra_from_table("F2", 2, [[(1, 0), (0, 1)], [(0, 1), (1, 1)]])


def quadratic_extension_algebra(field_name: str, a0: int, a1: int) -> StructureAlgebra:
    """F[x]/(x^2 - a1*x - a0): dimension 2 with e_1^2 = a0 + a1*e_1."""
    return algebra_from_table(field_name, 2, [[(1, 0), (0, 1)], [(0, 1), (a0, a1)]])


def square_zero_algebra(field_name: str, d: int) -> StructureAlgebra:
    """F[x_1, ..., x_{d-1}]/(x_1, ..., x_{d-1})^2: e_i*e_j = 0 for nonzero i, j."""
    unit = [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]
    zero = (0,) * d
    return algebra_from_table(
        field_name, d, [[unit[i + j] if i * j == 0 else zero for j in range(d)] for i in range(d)]
    )


def enumerate_f_algebras(field_name: str, dim: int):
    """Every valid commutative unital algebra table of the given dimension.

    Free entries are table[i][j] for 1 <= i <= j < dim; identity and
    commutativity fix the rest.  Candidates failing validation are skipped.
    """
    field = get_field(field_name)
    free = [(i, j) for i in range(1, dim) for j in range(i, dim)]
    vectors = list(product(field.elements(), repeat=dim))
    for choice in product(vectors, repeat=len(free)):
        table = [[None] * dim for _ in range(dim)]
        for j in range(dim):
            e_j = tuple(1 if k == j else 0 for k in range(dim))
            table[0][j] = e_j
            table[j][0] = e_j
        for (i, j), v in zip(free, choice):
            table[i][j] = v
            table[j][i] = v
        try:
            yield algebra_from_table(field_name, dim, table)
        except (NotAssociative, NotCommutative, NoIdentity):
            continue


def series(ring, coeffs):
    """The series of a dense coefficient list in the ring's domain, cut at its precision."""
    return ring.domain.reduced(enumerate(coeffs[: ring.prec]))


def element(ring, v_coeffs, ell_coeffs=None) -> tuple:
    """The ring element (v, l) of dense coefficient lists; l is zero when left out."""
    ell = ell_coeffs or [[]] * ring.rank
    if len(ell) != ring.rank:
        raise ValueError(f"need {ring.rank} module components")
    return (series(ring, v_coeffs), *(series(ring, c) for c in ell))


def ideal_product(ring, I: list, J: list) -> list:
    """The generators of the ring-ideal product IJ: the pairwise products, first occurrences kept."""
    return list(dict.fromkeys(ring.mul(a, b) for a in I for b in J))


def ideal_power(ring, I: list, n: int) -> list:
    """The generators of the n-fold product I ... I, n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = I
    for _ in range(n - 1):
        out = ideal_product(ring, out, I)
    return out


def ideal_sum(I: RelativeIdeal, J: RelativeIdeal) -> RelativeIdeal:
    """The ideal generated by all pairwise generator sums (the product IJ).

    I + J is the union of g + I over the generators g of J; its holes lie
    below the conductor, so the shifted masks are cut there.
    """
    if I.ambient != J.ambient:
        raise AmbientMismatch("ideals live over different semigroups")
    full = (1 << I.ambient.conductor) - 1
    m = full & ~I.holes
    members = 0
    for k in _offsets(J.generator_mask):
        members |= m << k
    return RelativeIdeal(I.ambient, I.min_element + J.min_element, full & ~members)


def nfold(I: RelativeIdeal, n: int) -> RelativeIdeal:
    """The n-fold sum I + ... + I (the ideal power), n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = I
    for _ in range(n - 1):
        out = ideal_sum(out, I)
    return out


def translate(I: RelativeIdeal, t: int) -> RelativeIdeal:
    """The ideal t + I."""
    return RelativeIdeal(I.ambient, I.min_element + t, I.holes)


def max_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """The maximal ideal M = S minus 0: M - m misses the gaps above m, the multiplicity."""
    return RelativeIdeal(S, S.multiplicity, S.gap_mask >> S.multiplicity)


def normalized_ideals(S: NumericalSemigroup) -> list[RelativeIdeal]:
    """The normalized ideals of S as ideal objects, in the order of their hole masks."""
    return [RelativeIdeal(S, 0, holes) for holes in enumerate_normalized_ideals(S)]


def from_gaps(gaps) -> NumericalSemigroup:
    """The semigroup whose gap set is ``gaps``; raises ValueError if none is."""
    gaps = set(gaps)
    if gaps and min(gaps) < 1:
        raise ValueError("gaps must be positive integers")
    return NumericalSemigroup.from_gap_mask(sum(1 << z for z in gaps))


def hilbert_function(S: NumericalSemigroup, n: int) -> int:
    """The length of R/M^n in the monomial model: |S minus nM| (0 for n=0).

    The least element of nM is x = n*multiplicity, so S minus nM is the
    members of S below x plus those on the holes of nM, read off the last
    mask of the power chain of M.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    M = max_ideal(S)
    *_, holes = _power_chain(S, M.holes, M.generator_mask, n)
    return _hilbert_length(S, n, holes)
