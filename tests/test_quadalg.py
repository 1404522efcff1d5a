"""Structure-constant algebras: validation, quadratic test, classification."""

import hashlib

import oracles
import pytest
from builders import (
    dual_numbers_algebra,
    enumerate_f_algebras,
    f4_over_f2_algebra,
    product_field_algebra,
    quadratic_extension_algebra,
    square_zero_algebra,
)
from stablerings import quadalg
from stablerings.errors import (
    NoIdentity,
    NotAssociative,
    NotCommutative,
    StableringsError,
    Unclassifiable,
    UnsupportedField,
)
from stablerings.quadalg import (
    FIELDS,
    HandelmanClass,
    algebra_from_table,
    classify_handelman,
    get_field,
    is_quadratic_over_base,
    load_algebra_payload,
    maximal_ideal_count,
)


def test_field_axioms_exhaustively():
    for name, f in FIELDS.items():
        elems = list(f.elements())
        for a in elems:
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            if a != 0:
                assert any(f.mul(a, b) == 1 for b in elems)
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in elems:
                    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_f4_table():
    f4 = get_field("F4")
    assert f4.mul(2, 2) == 3  # w^2 = w + 1
    assert f4.mul(2, 3) == 1  # w(w+1) = 1
    assert f4.mul(3, 3) == 2


def test_unsupported_field():
    with pytest.raises(UnsupportedField):
        get_field("F7")
    with pytest.raises(UnsupportedField):
        algebra_from_table("F9", 1, [[(1,)]])


def test_construction_examples():
    dual = dual_numbers_algebra("F2")
    assert dual.mul((0, 1), (0, 1)) == (0, 0)
    f4alg = f4_over_f2_algebra()
    assert f4alg.mul((0, 1), (0, 1)) == (1, 1)


def test_construction_errors():
    with pytest.raises(NotCommutative):
        algebra_from_table("F2", 2, [[(1, 0), (0, 1)], [(1, 1), (0, 0)]])
    with pytest.raises(NoIdentity):
        algebra_from_table("F2", 2, [[(1, 0), (1, 1)], [(1, 1), (0, 0)]])
    with pytest.raises(NotAssociative) as err:
        algebra_from_table(
            "F2",
            3,
            [
                [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                [(0, 1, 0), (0, 0, 1), (1, 0, 0)],
                [(0, 0, 1), (1, 0, 0), (1, 0, 0)],
            ],
        )
    assert "(i,j,k)" in str(err.value)
    with pytest.raises(ValueError):
        algebra_from_table("F2", 2, [[(1, 0)], [(0, 1), (0, 0)]])
    with pytest.raises(ValueError):
        algebra_from_table("F2", 2, [[(1, 0), (0, 1)], [(0, 1), (0, 7)]])


def test_quadratic_examples():
    assert is_quadratic_over_base(product_field_algebra("F2", 3)) is True
    assert is_quadratic_over_base(product_field_algebra("F3", 3)) is False
    assert is_quadratic_over_base(algebra_from_table("F3", 1, [[(1,)]])) is True


def test_quadratic_rejects_cubic_extension():
    # F8 over F2 is a degree-3 field extension: x^3 = x + 1
    f8 = algebra_from_table(
        "F2",
        3,
        [
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 1, 0), (0, 0, 1), (1, 1, 0)],
            [(0, 0, 1), (1, 1, 0), (0, 1, 1)],
        ],
    )
    assert is_quadratic_over_base(f8) is False
    assert classify_handelman(f8) == HandelmanClass.NotQuadratic


def test_classification_examples():
    assert classify_handelman(dual_numbers_algebra("F2")) == HandelmanClass.LocalSquareZeroMax
    assert classify_handelman(f4_over_f2_algebra()) == HandelmanClass.QuadraticFieldExtension
    assert classify_handelman(product_field_algebra("F2", 3)) == HandelmanClass.FxFxF_overF2
    assert classify_handelman(product_field_algebra("F2", 2)) == HandelmanClass.FxF
    assert classify_handelman(product_field_algebra("F5", 2)) == HandelmanClass.FxF
    assert classify_handelman(algebra_from_table("F2", 1, [[(1,)]])) == HandelmanClass.BaseField
    assert classify_handelman(product_field_algebra("F3", 3)) == HandelmanClass.NotQuadratic
    assert classify_handelman(dual_numbers_algebra("F5")) == HandelmanClass.LocalSquareZeroMax
    # F9 over F3: x^2 = x + 1 is irreducible mod 3
    assert (
        classify_handelman(quadratic_extension_algebra("F3", 1, 1))
        == HandelmanClass.QuadraticFieldExtension
    )


def test_maximal_ideal_counts():
    assert maximal_ideal_count(product_field_algebra("F2", 3)) == 3
    assert maximal_ideal_count(dual_numbers_algebra("F2")) == 1
    assert maximal_ideal_count(f4_over_f2_algebra()) == 1
    assert maximal_ideal_count(product_field_algebra("F3", 2)) == 2


def _refusal(field_name, dim, table=()):
    """``type: message`` of the error that building this algebra raises, or None."""
    try:
        algebra_from_table(field_name, dim, table)
    except (StableringsError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def test_size_guard():
    # the pair bound refuses an algebra as it is built, from its field and dim
    # before its table is validated: the empty table would be a ValueError
    bound = "element pairs exceed the pair-test bound of 50000"
    assert _refusal("F5", 4) == f"TooLarge: 195625 {bound}"
    assert _refusal("F2", 10**9) == f"TooLarge: more than 2147516416 {bound}"
    assert _refusal("F2", 8) == "ValueError: table must be d x d vectors of length d"  # 32,896 pairs pass
    # before the bound: the type of dim, then the field, then dim >= 1
    assert _refusal("F9", True) == "ValueError: dim must be an integer"
    assert _refusal("F9", 10**9).startswith("UnsupportedField: ")
    assert _refusal("F2", -(10**9)) == "ValueError: dimension must be at least 1"


# sha256 of the "field dim class" lines of the 808 enumerated F2 and F3
# algebras of dimension at most 3, in enumeration order, one per line
ENUMERATION_CLASSES_SHA256 = "09e1fbc8086a7c646b15effb511c5861d309735e582593cf7b7558a87d80e5d2"


def test_exhaustive_f2_f3_small_dimensions():
    seen_classes = set()
    lines = []
    for name in ("F2", "F3"):
        for dim in (1, 2, 3):
            for A in enumerate_f_algebras(name, dim):
                cls = classify_handelman(A)  # must never raise Unclassifiable
                seen_classes.add((name, cls))
                lines.append(f"{name} {dim} {cls.value}")
                if cls != HandelmanClass.NotQuadratic:
                    assert maximal_ideal_count(A) <= 3
                if cls == HandelmanClass.QuadraticFieldExtension:
                    assert A.dimension == 2
                if cls == HandelmanClass.FxFxF_overF2:
                    assert A.field.q == 2
    assert ("F2", HandelmanClass.FxFxF_overF2) in seen_classes
    assert ("F3", HandelmanClass.FxFxF_overF2) not in seen_classes
    assert ("F3", HandelmanClass.QuadraticFieldExtension) in seen_classes
    assert len(lines) == 808
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ENUMERATION_CLASSES_SHA256


def test_unclassifiable_names_its_maximal_ideals(monkeypatch):
    # a quadratic algebra with four maximal ideals fits no class
    monkeypatch.setattr(quadalg, "maximal_ideal_count", lambda A: 4)
    with pytest.raises(Unclassifiable, match="4 maximal ideals"):
        classify_handelman(dual_numbers_algebra("F2"))


def test_pair_test_matches_elimination_exhaustively():
    verdicts = []
    for name in ("F2", "F3"):
        for dim in (1, 2, 3):
            for A in enumerate_f_algebras(name, dim):
                verdicts.append(is_quadratic_over_base(A))
                assert verdicts[-1] is oracles.is_quadratic_by_elimination(A)
    assert (len(verdicts), sum(verdicts)) == (808, 32)


def test_pair_test_matches_elimination_on_families():
    algebras = [f4_over_f2_algebra()]
    for name in FIELDS:
        algebras += [product_field_algebra(name, k) for k in (1, 2, 3)]
        algebras.append(dual_numbers_algebra(name))
    for name, q in (("F2", 2), ("F3", 3), ("F5", 5)):
        algebras += [quadratic_extension_algebra(name, a, b) for a in range(q) for b in range(q)]
    for name, d in (("F2", 5), ("F3", 4), ("F4", 3), ("F5", 3)):
        algebras.append(square_zero_algebra(name, d))
    verdicts = [is_quadratic_over_base(A) for A in algebras]
    assert verdicts == [oracles.is_quadratic_by_elimination(A) for A in algebras]
    assert (len(verdicts), sum(verdicts)) == (59, 56)


def test_unique_quadratic_triple_product():
    # the product of three copies of the base field is quadratic only over F2
    for name in FIELDS:
        expected = name == "F2"
        assert is_quadratic_over_base(product_field_algebra(name, 3)) is expected


def test_load_payload():
    A = load_algebra_payload(
        {"field": "F2", "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}
    )
    assert classify_handelman(A) == HandelmanClass.LocalSquareZeroMax
    with pytest.raises(ValueError):
        load_algebra_payload({"field": "F2", "dim": 2})
    with pytest.raises(ValueError):
        load_algebra_payload({"field": "F2", "dim": "2", "table": []})
