"""How caller values are read: each field reads its own arrays (`read`),
and one rule, `errors.read_count`, reads counts.  Every malformed value
is refused with a ParameterError, never a bare error or a wrong answer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnc import linalg as la
from secnc.audit import reliability_audit, secrecy_audit
from secnc.errors import ParameterError, ValidationError, read_count
from secnc.gf import ExtField, PrimeField
from secnc.network import sample_realization
from secnc.rankmetric import GabidulinCode
from secnc.scheme import SchemeParams, build_instance

P1 = SchemeParams(2, 4, 4, 1, 1, 1)
INST = build_instance(P1)
F16 = ExtField(2, 4)
F2 = PrimeField(2)


def _rng():
    return np.random.default_rng(0)


def _tabled():
    """INST with each of its maps applied twice: the q = 2 tables exist."""
    for _ in range(2):
        INST.code.decode(INST.encode([1], force_v=[2]), 1)
    assert INST.code._w[1]._tables and INST._encoder._tables
    return INST


# A non-element must be refused before it indexes a table: a list read at
# -1 wraps, silently.
NOT_ELEMENTS = [(-1, r"-1 is not an element of GF\(2\^4\)"),
                (16, r"16 is not an element of GF\(2\^4\)"),
                (1.5, "{} must be integers"), (None, "{} must be integers")]
AFTER_TABLES = [
    (lambda x=x: _tabled().code.decode([0, 0, 0, x], 1),
     message.format("received word entries"), f"decode-{x}-after-tables")
    for x, message in NOT_ELEMENTS] + [
    (lambda x=x: _tabled().code.encode([0, x]),
     message.format("message entries"), f"code-encode-{x}-after-tables")
    for x, message in NOT_ELEMENTS] + [
    (lambda x=x: _tabled().encode([x], force_v=[0]),
     message.format("message entries"), f"scheme-encode-{x}-after-tables")
    for x, message in NOT_ELEMENTS]


@pytest.mark.parametrize("run, message", [
    (lambda: la.rank(F16, [[16, 1]]), r"16 is not an element of GF\(2\^4\)"),
    (lambda: la.rank(F16, [[-1, 1]]), r"-1 is not an element of GF\(2\^4\)"),
    (lambda: la.kernel_vector(F16, [[-1, 1]]), r"-1 is not an element of GF\(2\^4\)"),
    (lambda: la.row_reduce_transform(F16, [[99, 1]]),
     r"99 is not an element of GF\(2\^4\)"),
    (lambda: la.rank(F2, [[1, 0], [1]]), "matrix has rows of unequal lengths"),
    (lambda: la.left_inverse(F2, [[1, 0], [1]], [[0], [0]]),
     "matrix has rows of unequal lengths"),
    (lambda: INST.code.decode_stack([[0, 0, 0, 0], [0, 0, 0]], 1),
     "received word has rows of unequal lengths"),
    (lambda: reliability_audit(INST, "sampled", _rng(), trials=1.5),
     "trials must be an integer, got 1.5"),
    (lambda: reliability_audit(INST, random_transfers=1.5, rng=_rng()),
     "random_transfers must be an integer, got 1.5"),
    (lambda: reliability_audit(INST, N=4.5), "N must be an integer, got 4.5"),
    (lambda: secrecy_audit(INST, tap_rows=1.5), "tap_rows must be an integer, got 1.5"),
    (lambda: secrecy_audit(INST, "sampled", _rng(), samples=2.5),
     "samples must be an integer, got 2.5"),
    (lambda: GabidulinCode(F16, 1.5, 1), "n must be an integer, got 1.5"),
    (lambda: GabidulinCode(F16, 4, 1.5), "k must be an integer, got 1.5"),
    (lambda: ExtField(2, 1.5), "m must be an integer, got 1.5"),
    (lambda: PrimeField(2.5), "q must be an integer, got 2.5"),
    (lambda: sample_realization(P1, 4.5, _rng()), "N must be an integer, got 4.5"),
    (lambda: la.random_full_rank(F2, 1.5, 2, _rng()),
     "rows must be an integer, got 1.5"),
    (lambda: INST.code.decode([0, 0, 0, 0], 0.5), "t must be an integer, got 0.5"),
    (lambda: INST.code.decode_stack([[0, 0, 0, 0]], 0.5),
     "t must be an integer, got 0.5"),
    (lambda: build_instance(SchemeParams(2, 4, 4, 0.5, 1, 1)),
     "t must be an integer, got 0.5"),
    (lambda: la.expand(F16, [1.5]), "vector entries must be integers"),
    (lambda: la.expand(F16, [None]), "vector entries must be integers"),
    (lambda: la.expand(F16, [2**63]), "vector entries must be below 2\\^63"),
    (lambda: la.expand(F16, [2**64]), "vector entries must be integers"),
] + [case[:2] for case in AFTER_TABLES], ids=["rank-16", "rank-negative", "kernel-negative", "transform-99",
        "rank-ragged", "left-inverse-ragged", "decode-stack-ragged", "trials",
        "random-transfers", "audit-N", "tap-rows", "samples", "code-n", "code-k",
        "field-m", "field-q", "realization-N", "random-full-rank-rows", "decode-t",
        "decode-stack-t", "params-t", "expand-float", "expand-none",
    "expand-2^63", "expand-2^64"] + [case[2] for case in AFTER_TABLES])
def test_malformed_values_are_refused(run, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        run()


def test_expand_takes_an_empty_vector():
    assert la.expand(F16, []).shape == (0, 4)


def test_a_non_integer_parameter_is_a_shape_rejection():
    with pytest.raises(ValidationError) as e:
        SchemeParams(2, 4, 4, 0.5, 1, 1).validate()
    assert e.value.reason == "shape"


@pytest.mark.parametrize("value, low, high, message", [
    (2.0, 0, None, "x must be an integer, got 2.0"),
    (None, 0, None, "x must be an integer, got None"),
    (-1, 0, None, "x = -1 must be >= 0"),
    (4, 1, 3, r"x = 4 must be in 1\.\.3"),
])
def test_read_count_refuses_what_is_not_a_count_in_range(value, low, high, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        read_count(value, "x", low, high)


def test_read_count_returns_an_int():
    assert read_count(np.int64(3), "x", 1, 3) == 3
    assert type(read_count(np.int64(3), "x")) is int
    assert read_count(-5, "x", None) == -5


READ_FIELDS = [PrimeField(2), PrimeField(3), ExtField(2, 4), ExtField(3, 2)]


@st.composite
def _int_arrays(draw):
    """(field, int64 array of 1..3 rows of 1..4 columns), entries any int64
    in a GF(q) array, elements in a GF(q^m) array."""
    field = draw(st.sampled_from(READ_FIELDS))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entries = (st.integers(-(2 ** 63), 2 ** 63 - 1) if isinstance(field, PrimeField)
               else st.integers(0, field.order - 1))
    A = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return field, np.array(A, dtype=np.int64)


@given(_int_arrays())
@settings(max_examples=200, deadline=None)
def test_read_returns_a_valid_int_array(case):
    field, A = case
    narrow = [A.astype(np.uint16)] if isinstance(field, ExtField) else []
    for M in [A, A.tolist()] + narrow:
        got = field.read(M, "x")
        assert got.dtype == np.int64 and got.shape == A.shape
        assert (got == (A % field.q if isinstance(field, PrimeField) else A)).all()


@given(_int_arrays(), st.data())
@settings(max_examples=200, deadline=None)
def test_read_refuses_what_is_not_an_array_of_elements(case, data):
    field, A = case
    rows, cols = A.shape
    i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    bad = []
    for x in (int(A[i, j]) + 0.5, None):
        M = A.tolist()
        M[i][j] = x
        bad.append((M, "x entries must be integers"))
    if rows > 1:
        M = A.tolist()
        M[i] = M[i] + [0]
        bad.append((M, "x has rows of unequal lengths"))
    if isinstance(field, ExtField):
        for x in (-1, field.order, 2 ** 63, 2 ** 70,
                  data.draw(st.integers(field.order, 2 ** 80)),
                  data.draw(st.integers(-(2 ** 80), -1))):
            M = A.tolist()
            M[i][j] = x
            bad.append((M, rf"{x} is not an element of GF\({field.q}\^{field.m}\)"))
    for M, message in bad:
        with pytest.raises(ParameterError, match=f"^{message}$"):
            field.read(M, "x")
