"""Gabidulin codes: frozen generators, exact distances, decoder vs oracle."""

import itertools

import numpy as np
import pytest

from secnc import linalg as la
from secnc.audit import brute_force_decode
from secnc.errors import (BudgetExceededError, InconsistentSystemError,
                          ParameterError, check_budget)
from secnc.gf import FIELD_LIMIT, ExtField, PrimeField
from secnc.rankmetric import (_SPAN_CHUNK, DECODE_FAILURE, DEFAULT_ENUM_BUDGET,
                              GabidulinCode)
from secnc.scheme import SchemeParams, build_broken_instance, build_instance
from test_linalg import _rank_matrices


def min_rank_weight(F, rows, budget=DEFAULT_ENUM_BUDGET):
    """Least rank weight of a nonzero vector in the span of `rows`, by
    enumeration (`linalg._rref_stack` on `linalg.span` chunks, taken
    batch-last) stopping at weight 1; None when the span is zero.

    A nonzero c of GF(q^m) keeps the rank weight (expand(c v) = expand(v) M_c
    with M_c invertible), so only the combinations whose leading nonzero
    coefficient is 1 are ranked: the index ranges [Q^j, 2 Q^j) for j below
    the number K of rows, Q = q^m.  The budget counts all Q^K combinations.
    """
    K, Q = len(rows), F.order
    check_budget(Q ** K, budget, "codeword enumeration")
    best = None
    for j in range(K):
        for lo in range(Q ** j, 2 * Q ** j, _SPAN_CHUNK):
            _, E = la.span(F, rows, np.arange(lo, min(lo + _SPAN_CHUNK, 2 * Q ** j)))
            r = la._rref_stack(F.base, E.transpose(1, 2, 0))[2]
            r = r[r > 0]
            if len(r) and (best is None or r.min() < best):
                best = int(r.min())
                if best == 1:
                    return best
    return best


def min_rank_distance_exhaustive(matrices, q, *, budget=DEFAULT_ENUM_BUDGET):
    """Exact minimum rank distance over all distinct pairs of equal-shape
    base-field matrices, refused (not sampled) past the budget: the
    pairwise oracle for `min_rank_weight`, as it assumes no linearity."""
    mats = [np.asarray(M, dtype=np.int64) for M in matrices]
    if len(mats) < 2:
        raise ParameterError("need at least two matrices")
    check_budget(len(mats) * (len(mats) - 1) // 2, budget,
                 "pairwise rank computations")
    return min(la.rank(PrimeField(q), (X - Y) % q)
               for X, Y in itertools.combinations(mats, 2))


@pytest.fixture(scope="module")
def F16():
    return ExtField(2, 4)


@pytest.fixture(scope="module")
def code42(F16):
    return GabidulinCode(F16, 4, 2)


def test_generator_matrix_frozen(code42):
    # default evaluation points 1, x, x^2, x^3; second row is their squares
    assert [tuple(r) for r in code42.generator_matrix()] == [
        (1, 2, 4, 8),
        (1, 4, 3, 12),
    ]


def test_generator_row_is_frobenius_of_previous(F16, code42):
    g0, g1 = code42.generator_matrix()
    assert [F16.mul(a, a) for a in g0] == g1


def test_encode_frozen_and_matches_direct_sum(F16, code42):
    c = code42.encode((3, 7))
    assert tuple(c) == (4, 9, 5, 9)
    rows = code42.generator_matrix()
    manual = [
        F16.add(F16.mul(3, rows[0][j]), F16.mul(7, rows[1][j])) for j in range(4)
    ]
    assert list(c) == manual


def _parity_check(F, G):
    """H with H c = 0 for every codeword c = G^T u: the rows of E past the
    rank, for E G^T in RREF."""
    E, _, pivots = la.row_reduce_transform(F, la.transpose(G))
    return E[len(pivots):]


def test_parity_check_annihilates_code(F16, code42):
    H = _parity_check(F16, code42.generator_matrix())
    assert len(H) == 2
    for u in [(0, 0), (1, 0), (5, 11), (15, 15)]:
        c = code42.encode(u)
        assert all(v == 0 for v in la.matvec(F16, H, c))


def test_contains_rejects_non_codeword(F16, code42):
    H = _parity_check(F16, code42.generator_matrix())
    c = code42.encode((3, 7))
    c[0] ^= 1
    assert any(la.matvec(F16, H, c))


def test_min_distance_meets_singleton_equality(F16):
    # distance n - k + 1 attained for every dimension, the defining MRD fact
    for k in (1, 2, 3):
        code = GabidulinCode(F16, 4, k)
        d = min_rank_weight(F16, code.generator_matrix())
        assert d == 4 - k + 1
        assert F16.order ** k == 2 ** (4 * (4 - d + 1))  # q^(m(n - d + 1))


def test_small_code_distance_frozen():
    F8 = ExtField(2, 3)
    assert min_rank_weight(F8, GabidulinCode(F8, 3, 1).generator_matrix()) == 3


def test_nonbinary_code_distance():
    F9 = ExtField(3, 2)
    code = GabidulinCode(F9, 2, 1)
    assert [tuple(r) for r in code.generator_matrix()] == [(1, 3)]
    assert min_rank_weight(F9, code.generator_matrix()) == 2


def test_distance_over_several_span_chunks():
    # 256^2 combinations, of which min_rank_weight ranks the 257 with a
    # leading coefficient of 1; none has weight 1
    code = GabidulinCode(ExtField(2, 8), 3, 2)
    assert min_rank_weight(code.F, code.generator_matrix()) == 2


def test_codeword_table_is_one_encode_per_message():
    # P2's outer [4, 2] code over GF(3^4)
    code = GabidulinCode(ExtField(3, 4), 4, 2)
    msgs, words = code.codeword_table()
    want = [(u, code.encode(u))
            for u in itertools.product(range(code.F.order), repeat=2)]
    assert msgs == [u for u, _ in want]
    assert words.tolist() == [c for _, c in want]


def test_codeword_table_across_span_chunks():
    code = GabidulinCode(ExtField(2, 8), 3, 2)
    msgs, words = code.codeword_table()
    assert msgs == list(itertools.product(range(256), repeat=2))
    for i in list(range(16380, 16390)) + list(range(0, 65536, 997)) + [65535]:
        assert words[i].tolist() == code.encode(msgs[i])


def test_pairwise_distance_of_explicit_set():
    Z = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    I = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert min_rank_distance_exhaustive([Z, I], 2) == 3
    R1 = [[1, 1, 0], [0, 0, 0], [1, 1, 0]]
    # pairs: d(Z,I)=3, d(Z,R1)=1, d(I,R1)=2
    assert min_rank_distance_exhaustive([Z, I, R1], 2) == 1


def test_distance_budget_refusal():
    Z = [[0]]
    with pytest.raises(BudgetExceededError) as ei:
        min_rank_distance_exhaustive([Z] * 100, 2, budget=10)
    assert ei.value.needed == 100 * 99 // 2


def test_subcode_of_consecutive_rows_distance(F16):
    # rows k..k+extra of the Moore matrix span another MRD code
    big = GabidulinCode(F16, 4, 3)
    sub = big.moore[1:3]
    assert [tuple(r) for r in sub] == [(1, 4, 3, 12), (1, 3, 5, 15)]
    words = []
    for u in itertools.product(range(16), repeat=2):
        w = []
        for j in range(4):
            acc = 0
            for i in range(2):
                acc = F16.add(acc, F16.mul(u[i], sub[i][j]))
            w.append(acc)
        words.append(la.expand(F16, w))
    assert min_rank_distance_exhaustive(words, 2) == 3


def test_decode_clean_and_all_rank_one_errors(F16, code42):
    u = (9, 2)
    c = code42.encode(u)
    out = code42.decode(c, 1)
    assert out.ok and out.message == u and out.error_rank == 0
    for E in _rank_matrices(2, 4, 4, [1]):
        e = la.contract(F16, np.array(E))
        y = [F16.add(a, b) for a, b in zip(c, e)]
        out = code42.decode(y, 1)
        assert out.ok and out.message == u and out.error_rank == 1


def test_decode_matches_brute_force_on_arbitrary_words(F16, code42):
    # t = 1 <= (d-1)/2, so the oracle set has at most one member and the
    # decoder must succeed exactly when it is nonempty
    rng = np.random.default_rng(20260814)
    for _ in range(250):
        y = [int(v) for v in rng.integers(0, 16, size=4)]
        oracle = brute_force_decode(code42, y, 1)
        out = code42.decode(y, 1)
        assert len(oracle) <= 1
        if oracle:
            assert out.ok and out.message == next(iter(oracle))
        else:
            assert not out.ok


def test_decode_beyond_promise_consistent_with_oracle(F16):
    # rank-2 corruption at t=1: failure or a legal nearest codeword, never junk
    code = GabidulinCode(F16, 4, 1)
    rng = np.random.default_rng(7)
    miscorrections = 0
    for _ in range(60):
        u = (int(rng.integers(0, 16)),)
        c = code.encode(u)
        E = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        P = la.random_full_rank(F16.base, 4, 4, rng)
        e = la.contract(F16, (P @ E) % 2)
        y = [F16.add(a, b) for a, b in zip(c, e)]
        oracle = brute_force_decode(code, y, 1)
        out = code.decode(y, 1)
        if out.ok:
            assert {out.message} == oracle
            if out.message != u:
                miscorrections += 1
        else:
            assert oracle == set()
    assert miscorrections >= 0  # may legally be zero on this sample


def test_decode_rejects_bad_radius(code42):
    with pytest.raises(ParameterError):
        code42.decode([0, 0, 0, 0], 2)  # 2t = 4 > n - k = 2
    with pytest.raises(ParameterError):
        code42.decode([0, 0, 0, 0], -1)


def _seen(code, Ap):
    """The code that a full-rank base-field A' sees: Gabidulin at A' g."""
    return GabidulinCode(code.F, len(Ap), code.k, g=la.matvec(code.F, Ap, code.g))


def test_erasure_decode_exhaustive_all_full_rank_maps(F16, code42):
    # every full-rank 2x4 A' yields an injective system; spot messages recover
    messages = [(0, 0), (3, 7), (15, 1), (8, 8)]
    cws = {u: code42.encode(u) for u in messages}
    count = 0
    for Ap in _rank_matrices(2, 2, 4, [2]):
        count += 1
        for u, c in cws.items():
            y = la.matvec(F16, Ap, c)
            out = _seen(code42, Ap).decode(y, 0)
            assert out.ok and out.message == u
    assert count == 210


def test_erasure_inconsistency_detected(F16, code42):
    # 3 equations, 2 unknowns: corrupting y' lands outside the image
    Ap = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    c = code42.encode((5, 12))
    y = la.matvec(F16, Ap, c)
    ok = _seen(code42, Ap).decode(y, 0)
    assert ok.ok and ok.message == (5, 12)
    bad = None
    for delta in range(1, 16):
        y2 = [F16.add(y[0], delta)] + y[1:]
        out = _seen(code42, Ap).decode(y2, 0)
        if not out.ok:
            bad = out
            break
    assert bad is not None and bad.reason == DECODE_FAILURE


def test_erasure_parameter_rejections(code42):
    # rho > n - k leaves fewer points than the code's dimension
    with pytest.raises(ParameterError, match=r"^k = 2 must be in 1\.\.1$"):
        _seen(code42, [[1, 0, 0, 0]])
    with pytest.raises(ParameterError, match="received word length 3 != n = 2"):
        _seen(code42, [[1, 0, 0, 0], [0, 1, 0, 0]]).decode([0, 0, 0], 0)


def test_construction_rejections(F16):
    with pytest.raises(ParameterError):
        GabidulinCode(F16, 5, 1)  # n > m
    with pytest.raises(ParameterError):
        GabidulinCode(F16, 4, 0)
    with pytest.raises(ParameterError):
        GabidulinCode(F16, 4, 5)
    with pytest.raises(ParameterError):
        GabidulinCode(F16, 3, 1, g=(1, 2, 3))  # 3 = x+1 dependent on 1, x


def test_codeword_iteration_budget():
    F = ExtField(2, 8)
    code = GabidulinCode(F, 8, 3)
    with pytest.raises(BudgetExceededError) as ei:
        code.codeword_table(budget=1000)
    assert ei.value.needed == 256 ** 3


def test_brute_force_decode_radius_zero(code42):
    c = code42.encode((6, 6))
    assert brute_force_decode(code42, c, 0) == {(6, 6)}
    c2 = list(c)
    c2[3] ^= 2
    assert brute_force_decode(code42, c2, 0) == set()


def test_min_rank_weight_agrees_with_pairwise_oracle():
    rng = np.random.default_rng(29)
    for F in (ExtField(2, 3), ExtField(3, 2)):
        for _ in range(4):
            rows = rng.integers(0, F.order, size=(2, 3)).tolist()
            words = {
                tuple(la.matvec(F, la.transpose(rows), u))
                for u in itertools.product(range(F.order), repeat=2)
            }
            mats = [la.expand(F, w) for w in sorted(words)]
            assert min_rank_weight(F, rows) == min_rank_distance_exhaustive(mats, F.q)
    assert min_rank_weight(ExtField(2, 3), [[0, 0, 0]]) is None
    with pytest.raises(BudgetExceededError) as ei:
        min_rank_weight(ExtField(2, 3), [[1, 0, 0], [0, 1, 0]], budget=10)
    assert ei.value.needed == 64


# ----------------------------------------------------------------------
# The stack decoder against the scalar one
# ----------------------------------------------------------------------

STACK_CODES = [((2, 3), 3, 1), ((2, 4), 4, 2), ((2, 8), 8, 4), ((2, 8), 8, 2),
               ((3, 4), 4, 2), ((3, 5), 5, 1), ((5, 3), 3, 1), ((5, 4), 4, 2)]


def _received_words(code, t, count, rng):
    """Codewords plus errors of rank 0..t+1, and about 20% random words."""
    F, n = code.F, code.n
    words = []
    for _ in range(count):
        if rng.random() < 0.2:
            words.append(rng.integers(0, F.order, size=n).tolist())
            continue
        c = code.encode(rng.integers(0, F.order, size=code.k).tolist())
        r = int(rng.integers(0, t + 2))
        E = (rng.integers(0, F.q, size=(n, r)) @ rng.integers(0, F.q, size=(r, F.m))
             % F.q)
        words.append([F.sub(a, b) for a, b in zip(c, la.contract(F, E))])
    return words


def _assert_stack_matches_scalar(code, words, t):
    ok, msgs, ranks = code.decode_stack(words, t)
    assert ok.shape == ranks.shape == (len(words),)
    assert msgs.shape == (len(words), code.k)
    for j, y in enumerate(words):
        out = code.decode(y, t)
        assert bool(ok[j]) == out.ok
        if out.ok:
            assert tuple(msgs[j].tolist()) == out.message
            assert ranks[j] == out.error_rank
        else:
            assert ranks[j] == -1 and not msgs[j].any()


@pytest.mark.parametrize("qm, n, k", STACK_CODES, ids=str)
def test_decode_stack_equals_decode(qm, n, k):
    code = GabidulinCode(ExtField(*qm), n, k)
    rng = np.random.default_rng(sum(qm) * 100 + n * 10 + k)
    for t in range((n - k) // 2 + 1):  # t = 0 included
        _assert_stack_matches_scalar(code, _received_words(code, t, 150, rng), t)


def test_decode_stack_equals_decode_in_the_largest_binary_field():
    # GF(2^16) is the top of the range, and as every field it has tables,
    # so decode_stack takes its vector path there too
    code = GabidulinCode(ExtField(2, 16), 6, 2)
    rng = np.random.default_rng(16)
    for t in range(3):
        _assert_stack_matches_scalar(code, _received_words(code, t, 12, rng), t)


@pytest.mark.parametrize("params", [(2, 3, 3, 1, 0, 1), (2, 8, 8, 2, 2, 2),
                                    (2, 9, 9, 3, 1, 2), (2, 16, 6, 2, 1, 1),
                                    (3, 4, 4, 1, 1, 1)], ids=str)
def test_a_linear_map_agrees_with_matvec_and_the_float64_product(params):
    # GF(2^9) has a 1-bit chunk and GF(2^16) two byte chunks.  A map's first
    # application runs the float64 product (an encoder's, matvec), its
    # second builds W and the q = 2 tables and later ones read them (odd q:
    # the float64 product): each against matvec for the encoders
    # (the outer code's G^T, which the instance shares, and a broken
    # instance's own G0^T) and against expand(y) W_t mod q for y -> E Yf
    q, m, n, t, mu, k = params
    inst = build_instance(SchemeParams(*params))
    code, F = inst.code, inst.F
    assert inst._encoder is code._encoder
    W = code._w_t(t).astype(np.float64)
    maps = [(code._encoder, k + mu, la.transpose(code.moore[: k + mu])),
            (la.LinearMap(F, code._w_t(t)), n, W)]
    if mu:
        broken = build_broken_instance(SchemeParams(*params))
        assert broken._encoder is not code._encoder
        maps.append((broken._encoder, k + mu, broken._G0t))
    rng = np.random.default_rng(sum(params))
    for f, size, A in maps:
        for i in range(12):
            x = rng.integers(0, F.order, size=size).tolist()
            if A is W:
                D = la.mod(la.expand(F, x).reshape(-1) @ W, F.q)
                want = (D.reshape(-1, F.m) @ F.digit_weights).tolist()
            else:
                want = la.matvec(F, A, x)
            assert f(x) == want
            assert (f._tables is not None) == (q == 2 and i > 0)


def test_decode_stack_on_the_whole_p0_reliability_grid():
    # P0 = (q, m, n, t, mu, k) = (2, 3, 3, 1, 0, 1): every codeword of the
    # [3, 1] outer code plus every rank-<= 1 error, row by row
    F = ExtField(2, 3)
    code = GabidulinCode(F, 3, 1)
    words = [[a ^ b for a, b in zip(code.encode([u]), la.contract(F, E))]
             for E in _rank_matrices(2, 3, 3, range(2)) for u in range(8)]
    assert len(words) == 400
    _assert_stack_matches_scalar(code, words, 1)
    assert code.decode_stack(words, 1)[0].all()


def test_decode_stack_on_a_whole_odd_characteristic_grid():
    # the same over GF(3^3): every codeword of the [3, 1] code plus every
    # rank-<= 1 error, row by row, so the elimination's odd-q path meets
    # every error the radius admits
    F = ExtField(3, 3)
    code = GabidulinCode(F, 3, 1)
    words = [[F.add(a, b) for a, b in zip(code.encode([u]), la.contract(F, E))]
             for E in _rank_matrices(3, 3, 3, range(2)) for u in range(27)]
    assert len(words) == 27 * 339
    _assert_stack_matches_scalar(code, words, 1)
    assert code.decode_stack(words, 1)[0].all()


def test_decode_stack_longer_than_an_audit_chunk(F16):
    # every codeword of the [4, 2] code plus every rank-<= 1 error: 57,856
    # words, past the audit's 2^14-case chunks; all decode to their message
    code = GabidulinCode(F16, 4, 2)
    msgs, cw = code.codeword_table()
    errs = np.array([la.contract(F16, np.array(E))
                     for E in _rank_matrices(2, 4, 4, range(2))])
    words = (cw[None, :, :] ^ errs[:, None, :]).reshape(-1, 4)
    ok, got, ranks = code.decode_stack(words, 1)
    assert ok.all()
    assert (got == np.tile(np.array(msgs), (len(errs), 1))).all()
    assert (ranks == np.repeat([la.vector_rank(F16, e) for e in errs.tolist()],
                               len(msgs))).all()
    _assert_stack_matches_scalar(code, words[::211].tolist(), 1)


def test_decode_stack_validates_its_input(code42):
    with pytest.raises(ParameterError):
        code42.decode_stack([[0, 0, 0]], 1)
    with pytest.raises(ParameterError):
        code42.decode_stack([[0, 0, 0, 16]], 1)
    with pytest.raises(ParameterError):
        code42.decode_stack([[0, 0, 0, 0]], 2)
    ok, msgs, ranks = code42.decode_stack(np.zeros((0, 4), dtype=np.int64), 1)
    assert ok.shape == (0,) and msgs.shape == (0, 2)


def test_decode_stack_refuses_ints_past_int64_as_decode_does():
    # P0's outer code: an entry >= 2^63 is refused with decode's message,
    # not an OverflowError from the int64 conversion
    code = GabidulinCode(ExtField(2, 3), 3, 1)
    for y in ([2 ** 70, 0, 0], [0, 2 ** 63, 0], [0, 0, -1]):
        with pytest.raises(ParameterError) as scalar:
            code.decode(y, 1)
        with pytest.raises(ParameterError) as stack:
            code.decode_stack([y], 1)
        assert str(stack.value) == str(scalar.value)
        assert "is not an element of GF(2^3)" in str(stack.value)


@pytest.mark.parametrize("qm, n, k", [((2, 4), 4, 2), ((3, 4), 4, 2), ((2, 8), 8, 4)],
                         ids=str)
def test_decode_stack_takes_any_layout_and_integer_dtype(qm, n, k):
    # decode_stack works on the (n, B) transpose: views that are not
    # C-contiguous, narrow dtypes, one word and t = 0 must decode as each
    # word does alone, and leave the input as it was
    code = GabidulinCode(ExtField(*qm), n, k)
    rng = np.random.default_rng(sum(qm) + n)
    for t in (0, (n - k) // 2):
        words = np.array(_received_words(code, t, 60, rng), dtype=np.int64)
        wide = np.zeros((len(words), n + 3), dtype=np.int64)
        wide[:, 2 : 2 + n] = words
        for Y in (np.ascontiguousarray(words.T).T, wide[:, 2 : 2 + n],
                  np.asfortranarray(words), words.astype(np.int32),
                  words.astype(np.uint8), words[:1], words[::-7]):
            before = Y.copy()
            _assert_stack_matches_scalar(code, Y, t)
            assert (Y == before).all() and Y.dtype == before.dtype


# Each entry point that reads GF(q^m) elements refuses a non-integer, as
# the fields' readers do, where int() would truncate it: decode([0.5, 0, 0, 0], 1)
# returned ok with message (0, 0), and encode([1.9, 0]) encoded (1, 0).
NOT_INTEGERS = [0.5, 1.9, np.float64(1.0), None]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_decode_refuses_entries_that_are_not_integers(code42, bad):
    with pytest.raises(ParameterError,
                       match="^received word entries must be integers$"):
        code42.decode([bad, 0, 0, 0], 1)


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_encode_refuses_entries_that_are_not_integers(code42, bad):
    with pytest.raises(ParameterError, match="^message entries must be integers$"):
        code42.encode([bad, 0])


@pytest.mark.parametrize("Y", [
    np.full((3, 4), 0.5), np.zeros((2, 4)), [[0, 0, 1.0, 0]],
    np.array([[0, None, 0, 0]], dtype=object),
], ids=["halves", "float-zeros", "list-float", "object-none"])
def test_decode_stack_refuses_entries_that_are_not_integers(code42, Y):
    # refused before the int64 cast, which would truncate them
    with pytest.raises(ParameterError,
                       match="^received word entries must be integers$"):
        code42.decode_stack(Y, 1)


def test_evaluation_points_must_be_integers(F16):
    with pytest.raises(ParameterError, match="^evaluation points must be integers$"):
        GabidulinCode(F16, 4, 2, g=[1, 2, 4, 8.0])


def test_integer_types_are_read_as_their_values(code42):
    # numpy integers and bools are integers: read, not refused
    y = code42.encode([np.int64(3), True])
    assert y == code42.encode([3, 1])
    out = code42.decode(np.array(y, dtype=np.uint8), 1)
    assert out.ok and out.message == (3, 1)


# ----------------------------------------------------------------------
# The split interpolation system against the full one
# ----------------------------------------------------------------------

def _full_system(code, y, t):
    """The n x (2t + k + 1) interpolation system [y_j^(q^i) | -g_j^(q^l)]
    in the unknowns (v_0..v_t, nn_0..nn_{k+t-1})."""
    F = code.F
    return [[F.frobenius(y[j], i) for i in range(t + 1)]
            + [F.neg(code.moore[l][j]) for l in range(code.k + t)]
            for j in range(code.n)]


def _interpolation_kernel(code, y, t):
    """The full system's (kernel dimension, first free column)."""
    _, _, pivots = la.row_reduce_transform(code.F, _full_system(code, y, t))
    free = [c for c in range(2 * t + code.k + 1) if c not in pivots]
    return len(free), free[0] if free else None


def _full_system_decode(code, y, t):
    """(ok, message, error rank) from the first kernel vector of the full
    system, followed by decode's own division, re-encode and rank check."""
    F = code.F
    sol = la.kernel_vector(F, _full_system(code, y, t))
    u = None if sol is None else code._divide_left(sol[: t + 1], sol[t + 1:])
    if u is None:
        return False, None, None
    r = la.vector_rank(F, [F.sub(a, b) for a, b in zip(y, code.encode(u))])
    return (True, tuple(u), r) if r <= t else (False, None, None)


def _assert_decode_matches_full_system(code, words, t):
    for y in words:
        out = code.decode(y, t)
        assert (out.ok, out.message, out.error_rank) == _full_system_decode(code, y, t)


@pytest.mark.parametrize("qm, n, k", STACK_CODES, ids=str)
def test_decode_equals_the_full_interpolation_system(qm, n, k):
    code = GabidulinCode(ExtField(*qm), n, k)
    rng = np.random.default_rng(sum(qm) * 100 + n * 10 + k + 1)
    for t in range((n - k) // 2 + 1):
        _assert_decode_matches_full_system(code, _received_words(code, t, 120, rng), t)


def _words_by_error_rank(code, t, per, rng):
    """`per` uniformly random words, then, for each r <= t + 1, `per`
    codewords plus an error of rank exactly r."""
    F, n = code.F, code.n
    words = rng.integers(0, F.order, size=(per, n)).tolist()
    for r in range(t + 2):
        got = 0
        while got < per:
            E = (rng.integers(0, F.q, size=(n, r)) @ rng.integers(0, F.q, size=(r, F.m))
                 % F.q)
            if la.rank_fq(E, F.q) == r:
                c = code.encode(rng.integers(0, F.order, size=code.k).tolist())
                words.append([F.add(a, b) for a, b in zip(c, la.contract(F, E))])
                got += 1
    return words


@pytest.mark.parametrize("qm, n, k", [c for c in STACK_CODES
                                      if c[0][0] ** (c[0][1] * c[2]) <= 1 << 16],
                         ids=str)
def test_decode_equals_brute_force_on_every_small_codebook(qm, n, k):
    # codebooks of at most 2^16 words; the oracle ranks y - c for every c
    code = GabidulinCode(ExtField(*qm), n, k)
    msgs = code.codeword_table()[0]
    per = 10 if len(msgs) <= 1 << 13 else 1  # the [8, 2] oracle: 0.3 s a word
    rng = np.random.default_rng(sum(qm) * 100 + n * 10 + k + 2)
    for t in range((n - k) // 2 + 1):
        for y in _words_by_error_rank(code, t, per, rng):
            oracle = brute_force_decode(code, y, t)
            out = code.decode(y, t)
            assert len(oracle) <= 1
            assert out.ok == bool(oracle)
            if out.ok:
                assert {out.message} == oracle


@pytest.mark.parametrize("qm, n, k, t", [((2, 3), 3, 3, 0), ((3, 3), 3, 3, 0),
                                         ((2, 4), 4, 2, 1), ((2, 8), 8, 4, 2),
                                         ((3, 4), 4, 2, 1), ((5, 4), 4, 2, 1)],
                         ids=str)
def test_decode_at_the_edge_shapes_of_the_split(qm, n, k, t):
    # k = n, t = 0: E_bot is empty and v = e_0; n - k = 2t: E_bot has t rows
    code = GabidulinCode(ExtField(*qm), n, k)
    F = code.F
    E = code._split(t)
    M = la.transpose(code.moore[: k + t])
    assert la.matmul(F, E, M) == np.eye(n, k + t, dtype=int).tolist()
    rng = np.random.default_rng(n * 100 + k * 10 + t)
    words = _received_words(code, t, 150, rng)
    _assert_decode_matches_full_system(code, words, t)
    _assert_stack_matches_scalar(code, words, t)


@pytest.mark.parametrize("qm, n, k", [((2, 4), 4, 2), ((2, 8), 8, 4),
                                      ((3, 3), 3, 1), ((5, 3), 3, 1)], ids=str)
def test_w_t_is_the_base_field_matrix_of_e_yf(qm, n, k):
    # E Yf with scalar field operations, entry for entry against
    # expand(y) W_t mod q: on every basis word x^d e_j, so on every row of
    # W_t, and on received words
    code = GabidulinCode(ExtField(*qm), n, k)
    F = code.F
    basis = [[F.q ** d if i == j else 0 for i in range(n)]
             for j in range(n) for d in range(F.m)]
    rng = np.random.default_rng(n * 10 + k)
    for t in range((n - k) // 2 + 1):
        E, W = code._split(t), code._w_t(t)
        assert W.shape == (n * F.m, n * (t + 1) * F.m)
        for y in basis + _received_words(code, t, 40, rng):
            want = [[0] * (t + 1) for _ in range(n)]
            for l in range(n):
                for i in range(t + 1):
                    for j in range(n):
                        term = F.mul(int(E[l][j]), F.frobenius(y[j], i))
                        want[l][i] = F.add(want[l][i], term)
            got = la.expand(F, y).reshape(-1) @ W % F.q
            assert got.reshape(n, t + 1, F.m).tolist() == la.expand(F, want).tolist()


def test_the_float64_product_with_w_t_is_exact_in_every_field():
    # an entry of expand(y) W_t sums n m products of digits < q, and n <= m:
    # below 2^53, so exact in float64, for every prime q and q^m <= FIELD_LIMIT
    prime = np.ones(FIELD_LIMIT + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, int(FIELD_LIMIT ** 0.5) + 1):
        if prime[p]:
            prime[p * p::p] = False
    fields = [(q, m) for q in np.flatnonzero(prime).tolist()
              for m in range(1, 17) if q ** m <= FIELD_LIMIT]
    assert prime.sum() == 6542  # the primes below 2^16
    assert (2, 16) in fields and (3, 10) in fields and (65521, 1) in fields
    assert max(m * m * (q - 1) ** 2 for q, m in fields) < 2 ** 53


def test_the_split_of_one_radius_is_not_reused_at_another():
    # decode at t = 0 first, then at t = 1: the same outcomes as codes that
    # never decoded at t = 0
    F = ExtField(2, 6)
    used = GabidulinCode(F, 6, 2)
    words = _received_words(used, 1, 150, np.random.default_rng(37))
    for y in words:
        used.decode(y, 0)
    used.decode_stack(words, 0)
    fresh = GabidulinCode(F, 6, 2)
    assert [used.decode(y, 1) for y in words] == [fresh.decode(y, 1) for y in words]
    got, want = used.decode_stack(words, 1), GabidulinCode(F, 6, 2).decode_stack(words, 1)
    assert all((a == b).all() for a, b in zip(got, want))
    assert sum(fresh.decode(y, 1).ok for y in words) > sum(fresh.decode(y, 0).ok
                                                            for y in words)


def test_decode_stack_builds_e_and_no_w_t():
    # the audits decode stacks only: they cache E per radius and no W_t;
    # the first decode at a radius builds W_t from that E and applies its
    # map once, by the float64 product, and the re-encode's, by matvec, so
    # it builds no tables; the second decode builds them
    F = ExtField(2, 6)
    code, other = GabidulinCode(F, 6, 2), GabidulinCode(F, 6, 2)
    words = _received_words(other, 2, 40, np.random.default_rng(41))
    for t in (1, 2):
        code.decode_stack(words, t)
    assert set(code._splits) == {1, 2} and not code._w
    assert code._encoder._tables is None
    E = code._split(2)
    y, z = [w for w in words if other.decode(w, 2).ok][:2]
    code.decode(y, 2)
    assert set(code._w) == {2} and code._split(2) is E
    assert code._w[2]._tables is None and code._encoder._tables is None
    code.decode(z, 2)
    assert code._w[2]._tables and code._encoder._tables
    _assert_stack_matches_scalar(code, words, 2)


@pytest.mark.parametrize("qm, n, k", [((2, 5), 5, 1), ((2, 6), 6, 2)], ids=str)
def test_decode_stack_with_an_overdetermined_bottom_block(qm, n, k):
    # t = 1: E_bot Yf has n - k - t = 3 or 3 rows for t + 1 = 2 columns
    code = GabidulinCode(ExtField(*qm), n, k)
    assert n - k - 1 > 1
    rng = np.random.default_rng(n * 10 + k)
    _assert_stack_matches_scalar(code, _received_words(code, 1, 300, rng), 1)


@pytest.mark.parametrize("qm, n", [((2, 3), 3), ((2, 4), 4), ((3, 3), 3)], ids=str)
def test_decode_stack_with_an_empty_bottom_block(qm, n):
    # k = n, t = 0: the code is all of GF(q^m)^n and E_bot Yf has no rows
    code = GabidulinCode(ExtField(*qm), n, n)
    rng = np.random.default_rng(n)
    words = rng.integers(0, code.F.order, size=(200, n)).tolist()
    _assert_stack_matches_scalar(code, words, 0)
    ok, msgs, ranks = code.decode_stack(words, 0)
    assert ok.all() and not ranks.any()
    assert [code.encode(u) for u in msgs.tolist()] == words


@pytest.mark.parametrize("qm, n, k, t", [((2, 8), 8, 2, 3), ((2, 6), 6, 2, 2),
                                         ((3, 4), 4, 2, 1), ((5, 4), 4, 2, 1)],
                         ids=str)
def test_decode_stack_when_the_interpolation_kernel_is_not_a_line(qm, n, k, t):
    # the zero word, codewords and errors of rank < t leave the full system
    # a kernel of dimension > 1, and for codewords its first free column
    # lies in the N block, where the reduced system takes v = e_0
    code = GabidulinCode(ExtField(*qm), n, k)
    F = code.F
    rng = np.random.default_rng(sum(qm) + n + k + t)
    words = [[0] * n]
    for r in range(t):
        for _ in range(40):
            c = code.encode(rng.integers(0, F.order, size=k).tolist())
            E = (rng.integers(0, F.q, size=(n, r)) @ rng.integers(0, F.q, size=(r, F.m))
                 % F.q)
            words.append([F.sub(a, b) for a, b in zip(c, la.contract(F, E))])
    kernels = [_interpolation_kernel(code, y, t) for y in words]
    assert all(dim > 1 for dim, _ in kernels)
    assert any(first > t for _, first in kernels)
    _assert_stack_matches_scalar(code, words, t)
    assert code.decode_stack(words, t)[0].all()


# ----------------------------------------------------------------------
# Erasures: the code seen through A' against the linear solve
# ----------------------------------------------------------------------

def _erasure_solve(code, Ap, y):
    """(ok, message) of the GF(q^m) system (A' G^T) u = y'."""
    M = la.matmul(code.F, Ap, la.transpose(code.generator_matrix()))
    try:
        return True, tuple(la.rref_solve(code.F, M, y))
    except InconsistentSystemError:
        return False, None


@pytest.mark.parametrize("qm", [(2, 4), (3, 3), (5, 3)], ids=str)
def test_a_base_field_map_of_a_moore_matrix_is_the_moore_matrix_of_the_map(qm):
    # (A' G^T)_il = sum_j A'_ij g_j^(q^l) = (A' g)_i^(q^l): Frobenius is
    # GF(q)-linear, so the rows A' sees are a Gabidulin code at A' g
    F = ExtField(*qm)
    n = F.m
    code = GabidulinCode(F, n, n)
    rng = np.random.default_rng(sum(qm))
    for rows in range(1, n + 1):
        for _ in range(20):
            Ap = la.random_full_rank(F.base, rows, n, rng)
            points = la.matvec(F, Ap, code.g)
            moore = [[F.frobenius(x, l) for l in range(n)] for x in points]
            assert la.matmul(F, Ap, la.transpose(code.moore)) == moore
            assert la.vector_rank(F, points) == rows


# the [n, k + mu] outer codes of the scheme sets (q, m, n, t, mu, k) =
# (2,4,4,1,1,1), (3,4,4,1,1,1), (2,5,5,1,1,2) and (5,3,3,1,0,1)
@pytest.mark.parametrize("qm, n, k", [((2, 4), 4, 2), ((3, 4), 4, 2), ((2, 5), 5, 3),
                                      ((5, 3), 3, 1)], ids=str)
def test_erasure_decode_equals_the_linear_solve(qm, n, k):
    # every rho <= n - k, clean and corrupted y'; at rho = n - k the code
    # seen through A' is all of GF(q^m)^k and decode's E_bot is empty
    code = GabidulinCode(ExtField(*qm), n, k)
    F = code.F
    rng = np.random.default_rng(sum(qm) + n + k)
    outcomes = set()
    for rho in range(n - k + 1):
        for _ in range(40):
            Ap = la.random_full_rank(F.base, n - rho, n, rng)
            y = la.matvec(F, Ap, code.encode(rng.integers(0, F.order, size=k).tolist()))
            bad = y[:]
            i = int(rng.integers(n - rho))
            bad[i] = F.add(bad[i], int(rng.integers(1, F.order)))
            noise = rng.integers(0, F.order, size=n - rho).tolist()
            for word in (y, bad, noise):
                out = _seen(code, Ap).decode(word, 0)
                assert out.error_rank == (0 if out.ok else None)
                assert (out.ok, out.message) == _erasure_solve(code, Ap, word)
                outcomes.add((rho, out.ok))
    assert {(0, True), (0, False), (n - k, True)} <= outcomes
    assert (n - k, False) not in outcomes


def test_erasure_names_a_rank_deficient_transfer(code42):
    # the seen code's point check is the one rank check of the erasure path
    F27 = ExtField(3, 3)
    for code, Ap in ((code42, [[1, 0, 0, 0], [1, 0, 0, 0]]),
                     (code42, [[1, 1, 0, 0], [0, 0, 0, 0]]),
                     (GabidulinCode(F27, 3, 1), [[1, 2, 0], [2, 1, 0]])):
        with pytest.raises(ParameterError, match="must be linearly independent"):
            _seen(code, Ap)


@pytest.mark.parametrize("build, message", [
    (lambda F: GabidulinCode(F, 4, 2, g=[1, 2, 4]),
     "expected 4 evaluation points, got 3"),
    (lambda F: GabidulinCode(F, 4, 2).encode([1]), r"message length 1 != k = 2"),
    (lambda F: GabidulinCode(F, 4, 2).encode([1, 2, 3]),
     r"message length 3 != k = 2"),
], ids=["points", "short-message", "long-message"])
def test_code_refuses_wrong_lengths(build, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        build(ExtField(2, 4))


@pytest.mark.parametrize("q, m, n", [(2, 1, 1), (2, 4, 4), (3, 3, 2), (5, 2, 2)])
def test_default_points_are_the_monomials(q, m, n):
    F = ExtField(q, m)
    g = GabidulinCode(F, n, 1).g
    assert g == tuple(q ** i for i in range(n))
    if m > 1:  # the int q is x, so q^i is x^i below degree m
        assert g == tuple(F.pow(q, i) for i in range(n))
