"""Gabidulin codes: frozen generators, exact distances, decoder vs oracle."""

import itertools

import numpy as np
import pytest

from secnc import linalg as la
from secnc.audit import brute_force_decode
from secnc.errors import BudgetExceededError, ParameterError
from secnc.gf import ExtField
from secnc.rankmetric import (
    GabidulinCode,
    code_min_rank_distance,
    min_rank_distance_exhaustive,
    min_rank_weight,
    singleton_bound,
)


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


def test_parity_check_annihilates_code(F16, code42):
    H = code42.parity_check_matrix()
    assert la.dims(H)[0] == 2
    for u in [(0, 0), (1, 0), (5, 11), (15, 15)]:
        c = code42.encode(u)
        assert all(v == 0 for v in la.matvec(F16, H, c))
        assert code42.contains(c)


def test_contains_rejects_non_codeword(code42):
    c = code42.encode((3, 7))
    c[0] ^= 1
    assert not code42.contains(c)


def test_min_distance_meets_singleton_equality(F16):
    # distance n - k + 1 attained for every dimension, the defining MRD fact
    for k in (1, 2, 3):
        code = GabidulinCode(F16, 4, k)
        d = code_min_rank_distance(code)
        assert d == 4 - k + 1
        assert F16.order ** k == singleton_bound(4, 4, d, 2)


def test_small_code_distance_frozen():
    F8 = ExtField(2, 3)
    assert code_min_rank_distance(GabidulinCode(F8, 3, 1)) == 3


def test_nonbinary_code_distance():
    F9 = ExtField(3, 2)
    code = GabidulinCode(F9, 2, 1)
    assert [tuple(r) for r in code.generator_matrix()] == [(1, 3)]
    assert code_min_rank_distance(code) == 2


def test_singleton_bound_values():
    assert singleton_bound(3, 3, 3, 2) == 8
    assert singleton_bound(4, 4, 1, 2) == 65536
    assert singleton_bound(3, 5, 2, 2) == 1024
    with pytest.raises(ParameterError):
        singleton_bound(4, 4, 0, 2)
    with pytest.raises(ParameterError):
        singleton_bound(4, 4, 5, 2)


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
    sub = big.generator_rows(1, 3)
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
    for E in la.iter_rank_exactly(2, 4, 4, 1):
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


def test_erasure_decode_exhaustive_all_full_rank_maps(F16, code42):
    # every full-rank 2x4 A' yields an injective system; spot messages recover
    messages = [(0, 0), (3, 7), (15, 1), (8, 8)]
    cws = {u: code42.encode(u) for u in messages}
    count = 0
    for Ap in la.iter_full_rank(2, 2, 4):
        count += 1
        for u, c in cws.items():
            y = la.matvec(F16, Ap, c)
            out = code42.erasure_decode(Ap, y, 2)
            assert out.ok and out.message == u
    assert count == 210


def test_erasure_inconsistency_detected(F16, code42):
    # 3 equations, 2 unknowns: corrupting y' lands outside the image
    Ap = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    c = code42.encode((5, 12))
    y = la.matvec(F16, Ap, c)
    ok = code42.erasure_decode(Ap, y, 1)
    assert ok.ok and ok.message == (5, 12)
    bad = None
    for delta in range(1, 16):
        y2 = [F16.add(y[0], delta)] + y[1:]
        out = code42.erasure_decode(Ap, y2, 1)
        if not out.ok:
            bad = out
            break
    assert bad is not None and "outside" in bad.reason


def test_erasure_parameter_rejections(code42):
    with pytest.raises(ParameterError):
        code42.erasure_decode([[1, 0, 0, 0]], [0], 3)  # rho > n - k
    with pytest.raises(ParameterError):
        code42.erasure_decode([[1, 0, 0, 0], [1, 0, 0, 0]], [0, 0], 2)  # rank 1


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
        list(code.iter_codewords(budget=1000))
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


def test_decode_stack_falls_back_row_by_row_without_tables():
    code = GabidulinCode(ExtField(2, 17), 6, 2)
    assert not code.F.vectorised
    rng = np.random.default_rng(17)
    for t in range(3):
        _assert_stack_matches_scalar(code, _received_words(code, t, 12, rng), t)


def test_decode_stack_on_the_whole_p0_reliability_grid():
    # P0 = (q, m, n, t, mu, k) = (2, 3, 3, 1, 0, 1): every codeword of the
    # [3, 1] outer code plus every rank-<= 1 error, row by row
    F = ExtField(2, 3)
    code = GabidulinCode(F, 3, 1)
    words = [[a ^ b for a, b in zip(code.encode([u]), la.contract(F, E))]
             for E in la.iter_rank_at_most(2, 3, 3, 1) for u in range(8)]
    assert len(words) == 400
    _assert_stack_matches_scalar(code, words, 1)
    assert code.decode_stack(words, 1)[0].all()


def test_decode_stack_longer_than_an_audit_chunk(F16):
    # every codeword of the [4, 2] code plus every rank-<= 1 error: 57,856
    # words, past the audit's 2^14-case chunks; all decode to their message
    code = GabidulinCode(F16, 4, 2)
    msgs, cw = code.codeword_table()
    errs = np.array([la.contract(F16, np.array(E))
                     for E in la.iter_rank_at_most(2, 4, 4, 1)])
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
