import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnc import linalg as la
from secnc.errors import (
    InconsistentSystemError,
    ParameterError,
    SingularMatrixError,
    UnderdeterminedSystemError,
)
from secnc.gf import ExtField, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)
F8 = ExtField(2, 3)


def test_rank_trivia():
    assert la.rank(F2, np.zeros((3, 5), dtype=int)) == 0
    assert la.rank(F2, np.eye(4, dtype=int)) == 4
    assert la.rank(F2, [[1, 1], [1, 1]]) == 1


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(7)
    for _ in range(30):
        M = rng.integers(0, 3, size=(4, 6))
        assert la.rank(F3, M) == la.rank(F3, M.T)
    for _ in range(30):
        M = rng.integers(0, 8, size=(3, 5))
        assert la.rank(F8, M) == la.rank(F8, la.transpose(M))


def test_rank_gf2_matches_generic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        M = rng.integers(0, 2, size=(5, 7))
        packed = [la.pack_row_gf2(row) for row in M]
        generic = len(la.rref(F2, M)[1])
        assert la.rank_gf2(packed) == generic == la.rank(F2, M)


def test_rank_distance():
    I3 = np.eye(3, dtype=int)
    assert la.rank_distance(F2, I3, I3) == 0
    assert la.rank_distance(F2, I3, np.zeros((3, 3), dtype=int)) == 3
    with pytest.raises(ParameterError):
        la.rank_distance(F2, I3, np.zeros((2, 3), dtype=int))


def test_rank_distance_is_a_metric_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(40):
        X, Y, Z = (rng.integers(0, 2, size=(3, 4)) for _ in range(3))
        dxy = la.rank_distance(F2, X, Y)
        assert dxy == la.rank_distance(F2, Y, X)
        assert (dxy == 0) == (X == Y).all()
        assert dxy <= la.rank_distance(F2, X, Z) + la.rank_distance(F2, Z, Y)


def test_rref_solve_identity_and_inconsistent():
    Y = [[1, 0], [0, 1], [1, 1]]
    assert la.rref_solve(F2, np.eye(3, dtype=int), Y) == Y
    with pytest.raises(InconsistentSystemError):
        la.rref_solve(F2, np.zeros((2, 2), dtype=int), [1, 0])
    with pytest.raises(UnderdeterminedSystemError):
        la.rref_solve(F2, [[1, 1], [1, 1]], [1, 1])
    with pytest.raises(UnderdeterminedSystemError):
        la.rref_solve(F2, [[1, 1, 0]], [1])


def test_rref_solve_round_trip_over_extension_field():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = la.random_full_rank(F8, 3, 3, rng)
        x = [int(v) for v in rng.integers(0, 8, size=3)]
        y = la.matvec(F8, A, x)
        assert la.rref_solve(F8, A, y) == x


def test_rref_solve_matrix_rhs_round_trip():
    rng = np.random.default_rng(6)
    A = la.random_full_rank(F3, 4, 4, rng)
    X = rng.integers(0, 3, size=(4, 2))
    Y = la.matmul(F3, A, X)
    assert la.rref_solve(F3, A, Y) == X.tolist()


def test_inverse():
    rng = np.random.default_rng(9)
    A = la.random_full_rank(F8, 3, 3, rng)
    Inv = la.inverse(F8, A)
    assert la.matmul(F8, Inv, A) == la.identity(3)
    assert la.matmul(F8, A, Inv) == la.identity(3)
    with pytest.raises(SingularMatrixError):
        la.inverse(F2, [[1, 1], [1, 1]])
    with pytest.raises(ParameterError):
        la.inverse(F2, [[1, 1]])


def test_left_inverse():
    A = [[1, 0], [0, 1], [0, 0]]
    assert la.left_inverse(F2, A) == [[1, 0, 0], [0, 1, 0]]
    rng = np.random.default_rng(13)
    for _ in range(20):
        B = la.random_full_rank(F2, 5, 3, rng)
        L = la.left_inverse(F2, B)
        assert la.matmul(F2, L, B) == la.identity(3)
    sq = la.random_full_rank(F3, 3, 3, rng)
    assert la.left_inverse(F3, sq) == la.inverse(F3, sq)
    with pytest.raises(SingularMatrixError):
        la.left_inverse(F2, [[1, 1], [1, 1], [0, 0]])


def test_null_space():
    ns = la.null_space(F2, [[1, 1, 0], [0, 0, 1]])
    assert ns == [[1, 1, 0]]
    assert la.kernel_vector(F2, np.eye(3, dtype=int)) is None
    A = [[1, 2, 0, 1], [0, 0, 1, 2]]
    for v in la.null_space(F3, A):
        assert la.matvec(F3, A, v) == [0, 0]
    assert len(la.null_space(F3, A)) == 2


def test_row_reduce_transform_invariant():
    rng = np.random.default_rng(17)
    for _ in range(10):
        M = rng.integers(0, 8, size=(4, 5))
        E, R, pivots = la.row_reduce_transform(F8, M)
        assert la.matmul(F8, E, M) == R
        assert len(pivots) == la.rank(F8, M)
        assert la.rank(F8, E) == 4


def test_expand_contract():
    v = [3, 5, 0]
    M = la.expand(F8, v)
    assert M.tolist() == [[1, 1, 0], [1, 0, 1], [0, 0, 0]]
    assert la.contract(F8, M) == v
    assert la.expand(F8, [2]).tolist() == [[0, 1, 0]]
    assert (la.expand(F8, [0, 0]) == 0).all()
    with pytest.raises(ParameterError):
        la.contract(F8, np.zeros((2, 4), dtype=int))


def test_expand_commutes_with_base_field_maps():
    # expand(A v) = A expand(v): the property that makes the outer code
    # independent of the network code
    rng = np.random.default_rng(19)
    for _ in range(30):
        v = [int(x) for x in rng.integers(0, 8, size=4)]
        A = rng.integers(0, 2, size=(3, 4))
        lhs = la.expand(F8, la.matvec(F8, A, v))
        rhs = (A @ la.expand(F8, v)) % 2
        assert (lhs == rhs).all()
    G9 = ExtField(3, 2)
    for _ in range(30):
        v = [int(x) for x in rng.integers(0, 9, size=3)]
        A = rng.integers(0, 3, size=(2, 3))
        lhs = la.expand(G9, la.matvec(G9, A, v))
        rhs = (A @ la.expand(G9, v)) % 3
        assert (lhs == rhs).all()


def test_random_full_rank():
    rng = np.random.default_rng(23)
    assert la.random_full_rank(F2, 1, 1, rng).tolist() == [[1]]
    for rows, cols in [(2, 2), (3, 5), (5, 3), (4, 4)]:
        M = la.random_full_rank(F3, rows, cols, rng)
        assert la.rank(F3, M) == min(rows, cols)
    with pytest.raises(ParameterError):
        la.random_full_rank(F2, 0, 3, rng)


def test_full_rank_fraction_2x2_gf2():
    # exhaustive count oracle: 6 of the 16 binary 2x2 matrices are invertible
    total = full = 0
    for bits in range(16):
        M = [[bits & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]]
        total += 1
        full += la.rank(F2, M) == 2
    assert (full, total) == (6, 16)
    assert sum(1 for _ in la.iter_invertible(2, 2)) == 6


def test_enumeration_counts():
    assert sum(1 for _ in la.iter_full_col_rank(2, 4, 1)) == 15
    assert sum(1 for _ in la.iter_rref_full_row_rank(2, 2, 4)) == 35
    assert la.gaussian_binomial(4, 2, 2) == 35
    assert sum(1 for _ in la.iter_full_rank(2, 2, 4)) == 210
    assert sum(1 for _ in la.iter_rank_exactly(2, 4, 4, 1)) == 225
    assert sum(1 for _ in la.iter_rank_at_most(2, 4, 4, 1)) == 226
    assert la.count_rank_exactly(2, 4, 4, 1) == 225
    assert la.count_rank_at_most(2, 4, 4, 1) == 226


def test_enumeration_is_exact_and_duplicate_free():
    for q, rows, cols, t in [(2, 3, 4, 2), (3, 2, 3, 1)]:
        field = PrimeField(q)
        seen = set()
        for r in range(t + 1):
            for E in la.iter_rank_exactly(q, rows, cols, r):
                assert la.rank(field, E) == r
                key = tuple(tuple(row) for row in E)
                assert key not in seen
                seen.add(key)
        assert len(seen) == la.count_rank_at_most(q, rows, cols, t)


def test_matmul_shapes():
    with pytest.raises(ParameterError):
        la.matmul(F2, [[1, 0]], [[1, 0]])
    assert la.matmul(F2, la.identity(2), [[1], [0]]) == [[1], [0]]


@given(st.integers(0, 2**12 - 1))
@settings(max_examples=60, deadline=None)
def test_gf2_rank_bounds(bits):
    rows = [(bits >> (3 * i)) & 0b111 for i in range(4)]
    r = la.rank_gf2(rows)
    assert 0 <= r <= 3
    assert (r == 0) == all(x == 0 for x in rows)


# ----------------------------------------------------------------------
# Properties of the elimination kernel over prime and extension fields
# ----------------------------------------------------------------------

KERNEL_FIELDS = [F2, F3, PrimeField(5), ExtField(2, 4), ExtField(3, 2)]


@st.composite
def field_and_matrix(draw, min_rows=1, max_rows=5, max_cols=6, tall=False):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(1, rows if tall else max_cols))
    entries = st.integers(0, field.order - 1)
    M = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return field, M


def _product(field, A, B):
    if isinstance(field, PrimeField):
        return ((np.array(A, dtype=np.int64) @ np.array(B, dtype=np.int64))
                % field.q).tolist()
    return la.matmul(field, A, B)


@given(field_and_matrix())
@settings(max_examples=150, deadline=None)
def test_row_reduce_transform_properties(fm):
    field, M = fm
    rows, cols = len(M), len(M[0])
    E, R, pivots = la.row_reduce_transform(field, M)
    assert la.rank(field, E) == rows
    assert _product(field, E, M) == R
    # R is in RREF at the returned pivots
    assert pivots == sorted(set(pivots)) and all(p < cols for p in pivots)
    for r, p in enumerate(pivots):
        assert all(x == 0 for x in R[r][:p]) and R[r][p] == 1
        assert all(R[i][p] == 0 for i in range(rows) if i != r)
    assert all(x == 0 for row in R[len(pivots):] for x in row)


@given(field_and_matrix(tall=True))
@settings(max_examples=100, deadline=None)
def test_left_inverse_is_a_left_inverse(fm):
    field, A = fm
    cols = len(A[0])
    if la.rank(field, A) < cols:
        with pytest.raises(SingularMatrixError):
            la.left_inverse(field, A)
        return
    B = la.left_inverse(field, A)
    assert _product(field, B, A) == la.identity(cols)


@given(st.sampled_from([ExtField(2, 4), ExtField(3, 2), ExtField(3, 3)]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_vector_rank_is_rank_of_expansion(F, data):
    v = data.draw(st.lists(st.integers(0, F.order - 1), min_size=1, max_size=5))
    want = la.rank(F.base, la.expand(F, v))
    assert la.vector_rank(F, v) == want
    assert want == len(la.rref(F.base, la.expand(F, v))[1])


@pytest.mark.parametrize("q, rows, r", [
    (2, 3, 2), (2, 3, 3), (2, 4, 3), (3, 3, 2), (5, 2, 2), (3, 2, 1),
])
def test_iter_full_col_rank_is_ordered_distinct_and_full_rank(q, rows, r):
    mats = list(la.iter_full_col_rank(q, rows, r))
    assert len(mats) == la.count_full_col_rank(q, rows, r)
    cols = [tuple(zip(*M)) for M in mats]
    assert cols == sorted(set(cols))  # lexicographic in the columns, no repeats
    # full column rank: no nonzero x has M x = 0
    xs = np.array(list(itertools.product(range(q), repeat=r))[1:]).T
    for M in mats:
        assert ((np.array(M) @ xs) % q).any(axis=0).all()


# ----------------------------------------------------------------------
# The stack kernel and stack-shaped expansion
# ----------------------------------------------------------------------

@st.composite
def field_and_stack(draw):
    """A (B, R, C) stack with some rows and columns zeroed and some rows
    copied, so ranks mix within one stack."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    B, R, C = (draw(st.integers(1, hi)) for hi in (6, 5, 6))
    entries = draw(st.lists(st.integers(0, field.order - 1),
                            min_size=B * R * C, max_size=B * R * C))
    M = np.array(entries, dtype=np.int64).reshape(B, R, C)
    zero_rows = draw(st.lists(st.booleans(), min_size=B * R, max_size=B * R))
    M[np.array(zero_rows).reshape(B, R)] = 0
    zero_cols = draw(st.lists(st.booleans(), min_size=B * C, max_size=B * C))
    b, c = np.array(zero_cols).reshape(B, C).nonzero()
    M[b, :, c] = 0
    if R > 1 and draw(st.booleans()):
        M[:, -1] = M[:, 0]
    return field, M


@given(field_and_stack())
@settings(max_examples=200, deadline=None)
def test_rref_stack_equals_rref_in_place_matrix_by_matrix(fs):
    field, M = fs
    before = M.copy()
    R, pivots, ranks = la._rref_stack(field, M)
    assert (M == before).all()  # the input is left alone
    for b in range(len(M)):
        want = M[b].tolist()
        piv = la._rref_in_place(field, want)
        assert R[b].tolist() == want
        assert np.flatnonzero(pivots[b]).tolist() == piv
        assert ranks[b] == len(piv)


def test_rref_stack_of_zero_and_identity_blocks():
    F = ExtField(2, 4)
    M = np.zeros((3, 3, 4), dtype=np.int64)
    M[1, :, :3] = np.eye(3, dtype=np.int64) * 7
    M[2, 0, 3] = 5
    R, pivots, ranks = la._rref_stack(F, M)
    assert ranks.tolist() == [0, 3, 1]
    assert (R[0] == 0).all()
    assert R[1, :, :3].tolist() == np.eye(3, dtype=int).tolist()
    assert pivots.tolist() == [[False] * 4, [True, True, True, False],
                               [False, False, False, True]]


def test_expand_and_contract_accept_stacks():
    rng = np.random.default_rng(4)
    for F in (F8, ExtField(3, 2)):
        V = rng.integers(0, F.order, size=(5, 2, 3))
        E = la.expand(F, V)
        assert E.shape == (5, 2, 3, F.m)
        assert E[4, 1].tolist() == la.expand(F, V[4, 1].tolist()).tolist()
        assert (la.contract(F, E) == V).all()
        assert isinstance(la.contract(F, E[0, 0]), list)


@pytest.mark.parametrize("q, rows, cols, r", [
    (2, 3, 3, 0), (2, 3, 3, 1), (2, 4, 3, 2), (2, 3, 4, 3), (3, 3, 3, 1),
    (3, 2, 3, 2),
])
def test_iter_rank_exactly_is_the_c_times_r_product_in_order(q, rows, cols, r):
    rrefs = list(la.iter_rref_full_row_rank(q, r, cols))
    want = [[[sum(C[i][k] * R[k][j] for k in range(r)) % q for j in range(cols)]
             for i in range(rows)]
            for C in la.iter_full_col_rank(q, rows, r) for R in rrefs]
    got = list(la.iter_rank_exactly(q, rows, cols, r))
    assert got == want
    assert all(type(x) is int for M in got for row in M for x in row)
