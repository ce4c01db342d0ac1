import re
import tracemalloc
from pathlib import Path

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
    for a in range(1, f8.order):
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
    a = np.arange(n)
    mt = F.vmul(a[:, None], a[None, :])
    at = F.vsub(a[:, None], F.vneg(a[None, :]))
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
    with pytest.raises(ParameterError, match="must be integers"):
        f8.from_row([1.5, 0, 0])  # refused, not truncated to 1


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


@pytest.mark.parametrize("modulus, message", [
    ((1, 1.5, 0, 0, 1), "must be integers"),
    ((1, None, 0, 0, 1), "must be integers"),
    ((1, 1, 0, 0, 3), "must be digits 0..1"),
    ((-1, 1, 0, 0, 1), "must be digits 0..1"),
])
def test_modulus_coefficients_are_read_as_digits(modulus, message):
    # x^4 + x + 1 is irreducible: each of these once built it silently
    with pytest.raises(ParameterError, match=message):
        ExtField(2, 4, modulus)
    assert ExtField(2, 4, (1, 1, 0, 0, 1)).modulus == (1, 1, 0, 0, 1)


def test_fields_beyond_the_limit_are_refused_before_any_search():
    assert FIELD_LIMIT == 1 << 16
    for build in (lambda: PrimeField(65537),        # the first prime > 2^16
                  lambda: PrimeField(1048583),
                  lambda: PrimeField(2 ** 61 - 1),
                  lambda: ExtField(4294967291, 1),
                  lambda: ExtField(2, 17),
                  lambda: ExtField(3, 11),          # 177,147
                  lambda: ExtField(2, 21),
                  lambda: ExtField(3, 13),
                  lambda: ExtField(7, 10 ** 18)):
        with pytest.raises(ParameterError, match="largest supported order"):
            build()
    assert PrimeField(65521).order == 65521         # the last prime < 2^16
    assert ExtField(65521, 1).order == 65521


def test_readme_states_the_field_limit():
    # every "2^e (`gf.FIELD_LIMIT`)" in the README names the constant's value
    readme = Path(__file__).resolve().parents[1] / "README.md"
    stated = re.findall(r"2\^(\d+)\s+\(`gf\.FIELD_LIMIT`\)",
                        readme.read_text(encoding="utf-8"))
    assert len(stated) >= 2
    assert {1 << int(e) for e in stated} == {FIELD_LIMIT}


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


# moduli over which x is not primitive, so the primitive element is not x
NON_PRIMITIVE_MODULI = [(2, 4, (1, 1, 1, 1, 1)),            # x^5 = 1
                        (2, 6, (1, 0, 0, 1, 0, 0, 1)),      # x^9 = 1
                        (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # x^51 = 1
                        (3, 2, (1, 0, 1)),                  # x^4 = 1
                        (5, 2, (2, 0, 1))]                  # x^8 = 1


@pytest.mark.parametrize(
    "q,m,modulus",
    [(2, 3, None), (3, 2, None), (5, 2, None), (7, 2, None), (3, 5, None),
     (13, 1, None)] + NON_PRIMITIVE_MODULI,
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else None)
def test_primitive_element_generates(q, m, modulus):
    F = ExtField(q, m, modulus)
    seen = set()
    v = 1
    for _ in range(F.order - 1):
        seen.add(v)
        v = F.mul(v, F.primitive)
    assert seen == set(range(1, F.order))


ROW_OP_FIELDS = [PrimeField(2), PrimeField(5), ExtField(2, 4), ExtField(3, 2),
                 ExtField(2, 16)]  # the largest GF(2^m)


@pytest.mark.parametrize("field", ROW_OP_FIELDS, ids=repr)
def test_row_operations_match_scalar_operations(field):
    rng = np.random.default_rng(29)
    for _ in range(40):
        dst, src = ([int(x) for x in rng.integers(0, field.order, size=6)]
                    for _ in range(2))
        # the elimination step acts on the field's row form: pivoting
        # column 0 at row 0 swaps up the first row holding it, of entry s,
        # scales it by inv(s) and clears column 0 from the row of entry f
        for s in (1, int(rng.integers(1, field.order))):
            for f in (0, 1, int(rng.integers(1, field.order))):
                top, low = [s] + src[1:], [f] + dst[1:]
                M = field.pack(np.array([[0] * 6, top, low], dtype=np.int64))
                assert field.eliminate(M, 0, 0)
                pivot = [field.mul(field.inv(s), y) for y in top]
                want = [pivot, [0] * 6,
                        [field.sub(x, field.mul(f, y)) for x, y in zip(low, pivot)]]
                assert field.unpack(M, 0, 6) == want
                assert not field.eliminate(M, 1, 0)  # no row below holds column 0
                assert field.unpack(M, 0, 6) == want
        # dot against a sum of mul terms, also for a row of base-field
        # constants, as matvec applies a base-field map to packets
        consts = [int(x) for x in rng.integers(0, field.q, size=6)]
        for row in (dst, consts, [0] * 6):
            want = 0
            for a, y in zip(row, src):
                want = field.add(want, field.mul(a, y))
            assert field.dot(row, src) == want
    assert field.dot([], []) == 0


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


@pytest.mark.parametrize("q,m", [(2, 16), (3, 10), (251, 2), (65521, 1)])
def test_vector_products_match_scalar_products_at_the_top_of_the_range(q, m):
    # every field up to FIELD_LIMIT has tables, so every one has vmul,
    # vinv and vfrobenius; checked on random elements, as the largest
    # fields are too big for every pair
    F = ExtField(q, m)
    rng = np.random.default_rng(q * 100 + m)
    a, b = rng.integers(1, F.order, size=(2, 500))
    a[:5] = 0  # zeros go through the zero tail of the vector exp table
    i = rng.integers(0, m + 1, size=500)
    pairs = list(zip(a.tolist(), b.tolist(), i.tolist()))
    assert F.vmul(a, b).tolist() == [F.mul(x, y) for x, y, _ in pairs]
    assert F.vinv(b).tolist() == [F.inv(y) for _, y, _ in pairs]
    assert F.vfrobenius(a, i).tolist() == [F.frobenius(x, e) for x, _, e in pairs]


# ----------------------------------------------------------------------
# Sums against a reference built from digit lists
# ----------------------------------------------------------------------

def _digit_sum(F, a, b, s):
    """a + s*b from the coefficient lists, without the field's own sums."""
    return F.from_row([(x + s * y) % F.q for x, y in zip(F.as_row(a), F.as_row(b))])


def _check_sums(F, pairs):
    for a, b in pairs:
        assert F.add(a, b) == _digit_sum(F, a, b, 1)
        assert F.sub(a, b) == _digit_sum(F, a, b, -1)
        assert F.neg(a) == _digit_sum(F, 0, a, -1)


@pytest.mark.parametrize("q,m", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_sums_match_digit_lists_on_every_pair(q, m):
    F = ExtField(q, m)
    _check_sums(F, [(a, b) for a in F.elements() for b in F.elements()])


@pytest.mark.parametrize("q,m", [(3, 8), (5, 6), (3, 10), (2, 16)])
def test_sums_match_digit_lists_on_random_pairs(q, m):
    # the last two are the largest fields at q = 3 and q = 2
    F = ExtField(q, m)
    rng = np.random.default_rng(q * 100 + m)
    pairs = rng.integers(0, F.order, size=(2000, 2)).tolist()
    _check_sums(F, pairs)


@pytest.mark.parametrize("q,m", [(2, 4), (3, 4), (5, 2), (7, 2)])
def test_vector_sums_match_digit_lists(q, m):
    F = ExtField(q, m)
    rng = np.random.default_rng(q * 10 + m)
    col = rng.integers(0, F.order, size=(12, 1))
    row = rng.integers(0, F.order, size=(1, 9))
    got = F.vsub(col, row)
    assert got.shape == (12, 9) and got.dtype == np.int64
    assert got.tolist() == [[_digit_sum(F, a, b, -1) for b in row[0].tolist()]
                            for a in col[:, 0].tolist()]
    a = rng.integers(0, F.order, size=(3, 5, 4))
    want = [[[_digit_sum(F, 0, x, -1) for x in r] for r in p] for p in a.tolist()]
    assert F.vneg(a).tolist() == want
    assert F.vsub(0, a).tolist() == want
    assert F.vsub(a, 0).tolist() == a.tolist()


# ----------------------------------------------------------------------
# Tables against a reference built from polynomial products
# ----------------------------------------------------------------------

def _schoolbook_mul(F, a, b):
    """a * b from the digit lists: the schoolbook product, reduced by the
    modulus from the top degree down; no tables and no linear map."""
    q, m = F.q, F.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(F.as_row(a)):
        for j, y in enumerate(F.as_row(b)):
            prod[i + j] = (prod[i + j] + x * y) % q
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d]
        for j, r in enumerate(F.modulus):
            prod[d - m + j] = (prod[d - m + j] - c * r) % q
    return F.from_row(prod[:m])


def _schoolbook_pow(F, a, e):
    out = 1
    while e:
        if e & 1:
            out = _schoolbook_mul(F, out, a)
        a = _schoolbook_mul(F, a, a)
        e >>= 1
    return out


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _generates(F, c):
    """The order test: c^((order-1)/p) != 1 for every prime p | order-1."""
    n1 = F.order - 1
    return all(_schoolbook_pow(F, c, n1 // p) != 1 for p in _prime_factors(n1))


def _small_fields():
    for q in range(2, 257):
        if all(q % d for d in range(2, int(q ** 0.5) + 1)):
            m = 1
            while q ** m <= 256:
                yield q, m, None
                m += 1
    yield from NON_PRIMITIVE_MODULI


def test_tables_match_schoolbook_products_in_every_small_field():
    # every prime power up to 256, as criterion 8, and the moduli over
    # which x is not primitive: the primitive element is the least c that
    # passes the order test, and exp walks its powers over two periods
    for q, m, modulus in _small_fields():
        F = ExtField(q, m, modulus)
        n1 = F.order - 1
        want = next(c for c in range(1, F.order) if _generates(F, c))
        assert F.primitive == want, (q, m, modulus)
        powers = [1]
        for _ in range(n1 - 1):
            powers.append(_schoolbook_mul(F, powers[-1], want))
        # two periods, then a zero tail that log 0 points into
        assert F._exp[: 2 * n1] == powers * 2, (q, m, modulus)
        assert F._exp[2 * n1:] == [0] * (2 * n1 + 1), (q, m, modulus)
        assert [F._log[v] for v in powers] == list(range(n1)), (q, m, modulus)
        assert F._log[0] == 2 * n1, (q, m, modulus)


def test_the_largest_table_build_stays_small():
    # the digit product is taken in row chunks: a 2^16 x 16 float64 array,
    # of the digits or of their product with M_c, is 8 MB, and the build
    # must not hold two of them at once
    tracemalloc.start()
    try:
        ExtField(2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("q, m", [(2, 16), (3, 10)])
def test_frobenius_and_inverse_tables_are_built_on_first_use_and_stay_small(q, m):
    # the constructor builds neither; once built, the Frobenius table is
    # m x order int64, 8.4 MB at GF(2^16), and with the inverse table, the
    # exp/log copies of vmul (5 orders) and the build's temporaries the
    # traced peak stays under (m + 9) order int64 entries, 12.6 MB there
    F = ExtField(q, m)
    assert not {"_frobenius_table", "_inv_table"} & set(vars(F))
    tracemalloc.start()
    try:
        one = np.array([1])
        assert F.vinv(one).tolist() == F.vfrobenius(one, 1).tolist() == [1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F._frobenius_table.nbytes == m * F.order * 8
    assert F._inv_table.nbytes == F.order * 8
    assert peak < (m + 9) * F.order * 8


@pytest.mark.parametrize("q,m", [(3, 10), (251, 2), (65521, 1)])
def test_tables_match_schoolbook_products_at_the_top_of_the_range(q, m):
    # too big for every entry: sampled powers, the successor of each, and
    # the order test on every candidate below the primitive element
    F = ExtField(q, m)
    n1 = F.order - 1
    g = F.primitive
    assert _generates(F, g)
    assert not any(_generates(F, c) for c in range(1, g))
    rng = np.random.default_rng(q + m)
    for i in rng.integers(0, n1, size=50).tolist():
        v = F._exp[i]
        assert v == _schoolbook_pow(F, g, i) == F._exp[i + n1]
        assert F._log[v] == i
        assert F._exp[(i + 1) % n1] == _schoolbook_mul(F, v, g)


@pytest.mark.parametrize("q, m", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_inverse_of_zero_is_refused(q, m):
    # inv keeps its zero case: zero is a table entry for products only
    with pytest.raises(ZeroDivisionError, match="^0 has no inverse$"):
        ExtField(q, m).inv(0)
