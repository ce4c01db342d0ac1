import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnc.errors import ParameterError
from secnc.gf import (
    DEFAULT_MODULI_GF2,
    FIELD_LIMIT,
    ExtField,
    PrimeField,
    find_irreducible,
    is_irreducible,
)


# GF(2^3) mod x^3 + x + 1.  Values below were frozen from hand reduction:
# x * x^2 = x^3 = x + 1 -> 3, and 1/x found by exhaustive search (x * a = 1
# only for a = x^2 + 1 -> 5).
@pytest.fixture(scope="module")
def f8():
    return ExtField(2, 3)


def test_gf8_known_values(f8):
    assert f8.add(0b010, 0b011) == 0b001
    assert f8.mul(0b010, 0b100) == 0b011
    assert f8.inv(0b010) == 0b101
    assert f8.sub(0b010, 0b011) == 0b001


def test_gf8_inverse_matches_exhaustive_search(f8):
    for a in f8.nonzero_elements():
        hits = [b for b in f8.elements() if f8.mul(a, b) == 1]
        assert hits == [f8.inv(a)]


def test_gf16_known_inverse():
    F = ExtField(2, 4)
    assert F.modulus == (1, 1, 0, 0, 1)
    assert F.inv(2) == 9


@pytest.mark.parametrize("q,m", [(2, 3), (2, 4), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(q, m):
    F = ExtField(q, m)
    n = F.order
    mt = F.mul_table()
    at = F.add_table()
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    assert (at == at.T).all()
    assert (mt == mt.T).all()
    assert (at[i, 0] == i[:, 0, None]).all()
    assert (mt[i, 1] == i[:, 0, None]).all()
    # associativity and distributivity over the full triple grid
    a = np.arange(n)[:, None, None]
    b = np.arange(n)[None, :, None]
    c = np.arange(n)[None, None, :]
    assert (mt[mt[a, b], c] == mt[a, mt[b, c]]).all()
    assert (at[at[a, b], c] == at[a, at[b, c]]).all()
    assert (mt[a, at[b, c]] == at[mt[a, b], mt[a, c]]).all()
    # every nonzero element invertible
    assert all((mt[x, 1:] == 1).sum() == 1 for x in range(1, n))


def test_frobenius_is_field_automorphism():
    F = ExtField(2, 4)
    for a in F.elements():
        assert F.frobenius(a, 0) == a
        assert F.frobenius(a, F.m) == a
        assert F.frobenius(a) == F.mul(a, a)
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b), 2) == F.add(
                F.frobenius(a, 2), F.frobenius(b, 2)
            )
            assert F.frobenius(F.mul(a, b), 2) == F.mul(
                F.frobenius(a, 2), F.frobenius(b, 2)
            )


def test_frobenius_fixes_prime_subfield():
    F = ExtField(3, 2)
    # GF(3) sits inside GF(9) as {0, 1, 2}
    for a in range(3):
        assert F.frobenius(a) == a


def test_row_vector_roundtrip(f8):
    assert f8.as_row(0b011) == (1, 1, 0)
    assert f8.from_row((1, 1, 0)) == 0b011
    for a in f8.elements():
        assert f8.from_row(f8.as_row(a)) == a
    with pytest.raises(ParameterError):
        f8.from_row((1, 1))
    with pytest.raises(ParameterError):
        f8.from_row((1, 2, 0))


def test_element_text_form(f8):
    assert f8.format_element(3) == "110"
    assert f8.parse_element("110") == 3
    G = ExtField(3, 2)
    assert G.format_element(5) == "21"
    assert G.parse_element("21") == 5
    # q > 10 falls back to space-separated digits
    H = ExtField(11, 2, find_irreducible(11, 2))
    text = H.format_element(25)
    assert text == "3 2"
    assert H.parse_element(text) == 25


def test_irreducibility_check():
    assert is_irreducible((1, 1, 0, 1), 2)
    assert is_irreducible((1, 1, 1), 2)
    assert not is_irreducible((1, 0, 0, 1), 2)  # x^3+1 = (x+1)(x^2+x+1)
    assert not is_irreducible((0, 0, 1), 2)     # x^2
    assert not is_irreducible((1, 0, 1), 2)     # (x+1)^2
    assert is_irreducible((1, 0, 1), 3)
    assert not is_irreducible((2, 0, 1), 3)     # x^2+2 = (x+1)(x+2)


def test_default_moduli_all_irreducible():
    for m, mod in DEFAULT_MODULI_GF2.items():
        assert len(mod) == m + 1
        assert is_irreducible(mod, 2)


@pytest.mark.parametrize("q,m", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_find_irreducible(q, m):
    mod = find_irreducible(q, m)
    assert len(mod) == m + 1 and mod[-1] == 1
    assert is_irreducible(mod, q)


def test_field_construction_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        ExtField(2, 3, (1, 0, 0, 1))        # reducible
    with pytest.raises(ParameterError):
        ExtField(2, 3, (1, 1, 1))           # wrong degree
    with pytest.raises(ParameterError):
        ExtField(3, 2, (1, 0, 2))           # not monic
    with pytest.raises(ParameterError):
        ExtField(4, 2)                      # base order not prime
    with pytest.raises(ParameterError):
        ExtField(2, 0)


def test_fields_beyond_the_limit_are_refused_before_any_search():
    assert FIELD_LIMIT == 1 << 20
    for build in (lambda: PrimeField(1048583),      # the first prime > 2^20
                  lambda: PrimeField(2 ** 61 - 1),
                  lambda: ExtField(4294967291, 1),
                  lambda: ExtField(2, 21),
                  lambda: ExtField(3, 13),          # 1,594,323
                  lambda: ExtField(7, 10 ** 18)):
        with pytest.raises(ParameterError, match="largest supported order"):
            build()
    assert PrimeField(1048573).order == 1048573     # the last prime < 2^20
    assert ExtField(1048573, 1).order == 1048573


def test_prime_field():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.pow(3, -1) == 5
    with pytest.raises(ParameterError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_element_range_check(f8):
    with pytest.raises(ParameterError):
        f8.check(8)
    with pytest.raises(ParameterError):
        f8.check(-1)
    assert f8.check(7) == 7


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_gf256_axioms_sampled(a, b, c):
    F = ExtField(2, 8)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a:
        assert F.mul(a, F.inv(a)) == 1
        assert F.div(F.mul(a, b), a) == b


def test_large_field_fallback_path():
    # order 2^17 exceeds the table limit, exercising raw polynomial arithmetic
    F = ExtField(2, 17, find_irreducible(2, 17))
    assert F.primitive is None
    a, b = 0b1011011, 0b111000111
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.inv(a)) == 1
    assert F.frobenius(a, F.m) == a
    assert F.pow(a, 5) == F.mul(a, F.mul(a, F.mul(a, F.mul(a, a))))


def test_primitive_element_generates(f8):
    seen = set()
    v = 1
    for _ in range(f8.order - 1):
        seen.add(v)
        v = f8.mul(v, f8.primitive)
    assert seen == set(f8.nonzero_elements())


ROW_OP_FIELDS = [PrimeField(2), PrimeField(5), ExtField(2, 4), ExtField(3, 2),
                 ExtField(2, 17)]  # the last has no exp/log tables


@pytest.mark.parametrize("field", ROW_OP_FIELDS, ids=repr)
def test_row_operations_match_scalar_operations(field):
    rng = np.random.default_rng(29)
    for _ in range(40):
        dst, src = ([int(x) for x in rng.integers(0, field.order, size=6)]
                    for _ in range(2))
        for f in (0, 1, int(rng.integers(1, field.order))):
            assert field.scale_row(f, src) == [field.mul(f, y) for y in src]
            assert field.sub_scaled_row(dst, f, src) == [
                field.sub(x, field.mul(f, y)) for x, y in zip(dst, src)]


# ----------------------------------------------------------------------
# Vector operations against the scalar ones
# ----------------------------------------------------------------------

VECTOR_FIELDS = [ExtField(2, 4), ExtField(3, 2), ExtField(5, 2), ExtField(2, 8),
                 ExtField(3, 4), PrimeField(2), PrimeField(5), PrimeField(7)]


@pytest.mark.parametrize("field", VECTOR_FIELDS, ids=repr)
def test_vector_operations_match_scalar_operations_on_every_pair(field):
    n = field.order
    a, b = np.divmod(np.arange(n * n), n)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert field.vmul(a, b).tolist() == [field.mul(x, y) for x, y in pairs]
    assert field.vsub(a, b).tolist() == [field.sub(x, y) for x, y in pairs]
    e = np.arange(n)
    assert field.vneg(e).tolist() == [field.neg(x) for x in range(n)]
    assert field.vinv(e[1:]).tolist() == [field.inv(x) for x in range(1, n)]
    with pytest.raises(ZeroDivisionError):
        field.vinv(e)
    if isinstance(field, ExtField):
        assert field.vectorised
        for i in range(field.m + 1):
            assert field.vfrobenius(e, i).tolist() == [
                field.frobenius(x, i) for x in range(n)]
        # a per-entry exponent broadcasts against the elements
        i = np.arange(n) % (field.m + 1)
        assert field.vfrobenius(e, i).tolist() == [
            field.frobenius(x, x % (field.m + 1)) for x in range(n)]


def test_vector_operations_broadcast():
    F = ExtField(3, 2)
    col, row = np.arange(9)[:, None], np.arange(9)[None, :]
    assert F.vmul(col, row).tolist() == [[F.mul(x, y) for y in range(9)]
                                         for x in range(9)]
    assert F.vsub(col, row).tolist() == [[F.sub(x, y) for y in range(9)]
                                         for x in range(9)]


def test_table_less_field_has_no_vector_operations():
    F = ExtField(2, 17)
    assert not F.vectorised
    with pytest.raises(ParameterError):
        F.vmul(np.array([1]), np.array([1]))
