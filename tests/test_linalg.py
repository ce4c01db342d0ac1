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
        packed = F2.pack(M)
        generic = len(la.row_reduce_transform(F2, M)[2])
        assert la.rank_gf2(packed) == generic == la.rank(F2, M)
        assert la.rank(ExtField(2, 1), M) == generic


def _rank_matrices(q, rows, cols, ranks):
    """Every matrix of `la.iter_rank_blocks`, as nested lists in block order."""
    return [M for block in la.iter_rank_blocks(q, rows, cols, ranks)
            for M in block.tolist()]


def _full_col_rank(q, rows, r, per=la._ENUM_CHUNK):
    """The C's of `la._full_col_rank_stacks` as nested lists, `per` ranked at
    a time; the one rows x 0 matrix when r = 0."""
    if r == 0:
        return [[[] for _ in range(rows)]]
    return [C for Cs in la._full_col_rank_stacks(q, rows, r, per)
            for C in Cs.tolist()]


def _rank_distance(field, X, Y):
    return la.rank(field, (np.asarray(Y) - np.asarray(X)) % field.q)


def test_rank_distance():
    I3 = np.eye(3, dtype=int)
    assert _rank_distance(F2, I3, I3) == 0
    assert _rank_distance(F2, I3, np.zeros((3, 3), dtype=int)) == 3


def test_rank_distance_is_a_metric_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(40):
        X, Y, Z = (rng.integers(0, 2, size=(3, 4)) for _ in range(3))
        dxy = _rank_distance(F2, X, Y)
        assert dxy == _rank_distance(F2, Y, X)
        assert (dxy == 0) == (X == Y).all()
        assert dxy <= _rank_distance(F2, X, Z) + _rank_distance(F2, Z, Y)


def test_rref_solve_identity_and_inconsistent():
    y = [1, 0, 1]
    assert la.rref_solve(F2, np.eye(3, dtype=int), y) == y
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


def _left_inverse_matrix(field, A):
    """The B with B A = I_n that `left_inverse` applies, read from it beside
    Y = I_N: packet i holds row i of B as base-q digits, digit 0 lowest."""
    N, q = len(A), field.q
    packets = la.left_inverse(field, A, np.eye(N, dtype=np.int64))
    return [[x // q ** j % q for j in range(N)] for x in packets]


def test_inverse():
    # over GF(q^m) the inverse is the E of the transform; left_inverse is
    # the prime field's
    rng = np.random.default_rng(9)
    A = la.random_full_rank(F8, 3, 3, rng)
    Inv = la.row_reduce_transform(F8, A)[0]
    assert la.matmul(F8, Inv, A) == np.eye(3, dtype=int).tolist()
    assert la.matmul(F8, A, Inv) == np.eye(3, dtype=int).tolist()
    A = la.random_full_rank(F3, 3, 3, rng)
    Inv = _left_inverse_matrix(F3, A)
    assert _product(F3, Inv, A) == _product(F3, A, Inv) == np.eye(3, dtype=int).tolist()
    with pytest.raises(SingularMatrixError):
        la.left_inverse(F2, [[1, 1], [1, 1]], [[0], [0]])
    with pytest.raises(ParameterError):
        la.left_inverse(F2, [[1, 1]], [[0]])


def test_left_inverse():
    A = [[1, 0], [0, 1], [0, 0]]
    assert _left_inverse_matrix(F2, A) == [[1, 0, 0], [0, 1, 0]]
    rng = np.random.default_rng(13)
    for _ in range(20):
        B = la.random_full_rank(F2, 5, 3, rng)
        L = _left_inverse_matrix(F2, B)
        assert la.matmul(F2, L, B) == np.eye(3, dtype=int).tolist()
    with pytest.raises(SingularMatrixError):
        la.left_inverse(F2, [[1, 1], [1, 1], [0, 0]], np.zeros((3, 1), dtype=int))


def test_null_space():
    assert la.kernel_vector(F2, [[1, 1, 0], [0, 0, 1]]) == [1, 1, 0]
    assert la.kernel_vector(F2, np.eye(3, dtype=int)) is None
    # no rows: every vector is in the kernel
    no_rows = np.zeros((0, 3), dtype=np.int64)
    assert la.kernel_vector(F3, no_rows) == [1, 0, 0]
    A = [[1, 2, 0, 1], [0, 0, 1, 2]]
    v = la.kernel_vector(F3, A)
    assert v == [1, 1, 0, 0] and la.matvec(F3, A, v) == [0, 0]
    assert len(la.row_reduce_transform(F3, A)[2]) == 2  # kernel dimension 2


@given(st.sampled_from([F2, F3, ExtField(2, 4), ExtField(3, 2)]), st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_vector_has_a_one_in_the_first_free_column(field, data):
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, field.order - 1), min_size=cols, max_size=cols)
    A = np.array(data.draw(st.lists(entries, min_size=rows, max_size=rows)),
                 dtype=np.int64).reshape(rows, cols)
    p = la.row_reduce_transform(field, A)[2]
    v = la.kernel_vector(field, A)
    if len(p) == cols:
        assert v is None
        return
    first = next(c for c in range(cols) if c >= len(p) or p[c] != c)
    free = [c for c in range(cols) if c not in p]
    assert free[0] == first and v[first] == 1
    assert all(v[c] == 0 for c in free[1:])
    if rows:
        assert la.matvec(field, A, v) == [0] * rows


def test_base_field_entries_are_reduced_mod_q():
    # as PrimeField.read reads them: 2 is 0 in GF(2), 3 is 0 in GF(3)
    assert la.rank(F2, [[2, 0]]) == 0
    assert la.rank(F3, [[3, 1]]) == 1
    with pytest.raises(SingularMatrixError):
        la.left_inverse(F2, [[2, 0], [0, 1]], [[1], [1]])


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


@pytest.mark.parametrize("F", [ExtField(2, 4), ExtField(3, 2), ExtField(5, 2),
                               ExtField(2, 16)], ids=repr)
def test_matvec_applies_base_field_maps_to_packets(F):
    # entries < q of A are constants of GF(q^m): A v = contract(A expand(v));
    # GF(3^2) and GF(5^2) take dot's mul/add path, GF(2^4) and GF(2^16)
    # its XOR gather
    rng = np.random.default_rng(F.q * 100 + F.m)
    for rows, cols in [(3, 5), (5, 3), (1, 1), (4, 4)]:
        for _ in range(25):
            A = rng.integers(0, F.q, size=(rows, cols))
            v = rng.integers(0, F.order, size=cols).tolist()
            assert la.matvec(F, A, v) == la.contract(F, A @ la.expand(F, v) % F.q)


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
    assert len(_rank_matrices(2, 2, 2, [2])) == 6


def test_enumeration_counts():
    assert len(_full_col_rank(2, 4, 1)) == 15
    assert sum(1 for _ in la.iter_rref_full_row_rank(2, 2, 4)) == 35
    assert la.gaussian_binomial(4, 2, 2) == 35
    assert len(_rank_matrices(2, 2, 4, [2])) == 210
    assert len(_rank_matrices(2, 4, 4, [1])) == 225
    assert len(_rank_matrices(2, 4, 4, range(2))) == 226
    assert la.count_rank_exactly(2, 4, 4, 1) == 225
    assert la.count_rank_at_most(2, 4, 4, 1) == 226


def test_enumeration_is_exact_and_duplicate_free():
    for q, rows, cols, t in [(2, 3, 4, 2), (3, 2, 3, 1)]:
        field = PrimeField(q)
        seen = set()
        for r in range(t + 1):
            for E in _rank_matrices(q, rows, cols, [r]):
                assert la.rank(field, E) == r
                key = tuple(tuple(row) for row in E)
                assert key not in seen
                seen.add(key)
        assert len(seen) == la.count_rank_at_most(q, rows, cols, t)


def test_matmul_shapes():
    with pytest.raises(ParameterError):
        la.matmul(F2, [[1, 0]], [[1, 0]])
    assert la.matmul(F2, np.eye(2, dtype=int), [[1], [0]]) == [[1], [0]]


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
def field_and_matrix(draw, min_rows=1, max_rows=5, max_cols=6, tall=False,
                     fields=KERNEL_FIELDS):
    field = draw(st.sampled_from(fields))
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


@given(field_and_matrix(tall=True, fields=KERNEL_FIELDS[:3]))
@settings(max_examples=100, deadline=None)
def test_left_inverse_is_a_left_inverse(fm):
    # left_inverse is the prime fields' (its packets are `contract`ed)
    field, A = fm
    cols = len(A[0])
    if la.rank(field, A) < cols:
        with pytest.raises(SingularMatrixError):
            _left_inverse_matrix(field, A)
        return
    B = _left_inverse_matrix(field, A)
    assert _product(field, B, A) == np.eye(cols, dtype=int).tolist()


@st.composite
def transfer_and_observation(draw):
    """(q, A, Y): an N x n transfer over GF(q), N = n..n+3, often of full
    column rank, and an N x m observation, its packets over 63 bits wide
    at q = 2 as often as not."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    N = draw(st.integers(n, n + 3))
    m = draw(st.integers(1, 128 if q == 2 else 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 3)):
        A = la.random_full_rank(PrimeField(q), N, n, rng)
    else:
        A = rng.integers(0, q, size=(N, n))
    return q, A, rng.integers(0, q, size=(N, m))


@given(transfer_and_observation())
@settings(max_examples=150, deadline=None)
def test_left_inverse_beside_an_observation_is_the_product(qAY):
    # the packets of B @ Y, read as base-q numbers in Python ints, digit 0
    # lowest: the contract of the product at any width
    # B is the top n rows of the E of the transform; rank r < n is refused
    q, A, Y = qAY
    field = PrimeField(q)
    n = A.shape[1]
    E, _, pivots = la.row_reduce_transform(field, A)
    if len(pivots) < n:
        with pytest.raises(SingularMatrixError,
                           match=f"^matrix has column rank {len(pivots)} < {n}$"):
            la.left_inverse(field, A, Y)
        return
    want = [sum(int(d) * q ** i for i, d in enumerate(row))
            for row in np.array(E[:n]) @ Y % q]
    assert la.left_inverse(field, A, Y) == want


def test_left_inverse_beside_an_observation_refuses_as_without():
    # a short A is singular, so one except catches every rank-deficient transfer
    with pytest.raises(SingularMatrixError, match="^left inverse requires rows >= cols$"):
        la.left_inverse(F2, [[1, 1]], [[1, 0, 1]])
    with pytest.raises(ParameterError, match="rhs has 2 rows, expected 3"):
        la.left_inverse(F3, [[1, 0], [0, 1], [1, 1]], [[1, 2], [0, 1]])
    with pytest.raises(SingularMatrixError, match="^matrix has column rank 1 < 2$"):
        la.left_inverse(F2, [[1, 1], [1, 1], [0, 0]], np.ones((3, 70), dtype=int))


@given(field_and_matrix(), st.data())
@settings(max_examples=200, deadline=None)
def test_rref_solve_agrees_with_the_ranks_of_a_and_a_y(fm, data):
    field, A = fm
    rows, cols = len(A), len(A[0])
    row = st.lists(st.integers(0, field.order - 1), min_size=1, max_size=1)
    Y = _product(field, A, data.draw(st.lists(row, min_size=cols, max_size=cols)))
    if data.draw(st.booleans()):  # an arbitrary Y, mostly inconsistent
        Y = data.draw(st.lists(row, min_size=rows, max_size=rows))
    rank_a = la.rank(field, A)
    rank_ay = la.rank(field, [a + y for a, y in zip(A, Y)])
    rhs = [y[0] for y in Y]
    if rank_ay > rank_a:
        with pytest.raises(InconsistentSystemError):
            la.rref_solve(field, A, rhs)
    elif rank_a < cols:
        with pytest.raises(UnderdeterminedSystemError):
            la.rref_solve(field, A, rhs)
    else:
        got = la.rref_solve(field, A, rhs)
        assert _product(field, A, [[x] for x in got]) == Y


@given(st.sampled_from([ExtField(2, 4), ExtField(3, 2), ExtField(3, 3)]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_vector_rank_is_rank_of_expansion(F, data):
    v = data.draw(st.lists(st.integers(0, F.order - 1), min_size=1, max_size=5))
    want = la.rank(F.base, la.expand(F, v))
    assert la.vector_rank(F, v) == want
    assert want == len(la.row_reduce_transform(F.base, la.expand(F, v))[2])


@given(st.sampled_from([ExtField(2, 4), ExtField(2, 8), ExtField(3, 3),
                        ExtField(5, 2)]), st.data())
@settings(max_examples=150, deadline=None)
def test_vector_rank_of_a_stack_is_the_scalar_rank_row_by_row(F, data):
    B, n = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 5))
    V = np.array(data.draw(st.lists(st.integers(0, F.order - 1),
                                    min_size=B * n, max_size=B * n)),
                 dtype=np.int64).reshape(B, n)
    zero = data.draw(st.lists(st.booleans(), min_size=B * n, max_size=B * n))
    V[np.array(zero, dtype=bool).reshape(B, n)] = 0
    if n > 2 and data.draw(st.booleans()):
        V[:, -1] = F.vsub(V[:, 0], V[:, 1])  # a dependent row
    before = V.copy()
    ranks = la.vector_rank(F, V)
    assert (V == before).all()
    assert ranks.dtype == np.int64 and ranks.shape == (B,)
    assert ranks.tolist() == [la.vector_rank(F, v) for v in V.tolist()]
    assert la.vector_rank(F, np.zeros((0, n), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("F", [ExtField(2, 4), ExtField(2, 8), ExtField(3, 2)],
                         ids=repr)
@pytest.mark.parametrize("B, n", [(0, 3), (0, 0), (4, 0), (6, 1), (6, 3)])
def test_vector_rank_of_a_stack_at_edge_shapes(F, B, n):
    # no rows, no entries, one entry, and views that are not C-contiguous:
    # a column slice, a transpose and a Fortran-ordered copy
    W = np.random.default_rng(B * 10 + n).integers(0, F.order, size=(B, 2 * n))
    stacks = [W[:, :n], W[:, ::2], np.ascontiguousarray(W[:, :n].T).T,
              np.asfortranarray(W[:, n:])]
    for V in stacks:
        assert V.shape == (B, n)
        ranks = la.vector_rank(F, V)
        assert ranks.dtype == np.int64 and ranks.shape == (B,)
        assert ranks.tolist() == [la.vector_rank(F, v) for v in V.tolist()]


@pytest.mark.parametrize("q", [2, 3, 5, 65521])
def test_mod_equals_python_remainder(q):
    rng = np.random.default_rng(q)
    a, b = rng.integers(0, q, size=(2, 300))
    Y = rng.integers(0, q, size=(20, 4, 3))
    Es = rng.integers(0, q, size=(20, 4, 3))
    edge = np.array([2 ** 62, 2 ** 62 + 1, 2 ** 63 - 1, -2 ** 62, -2 ** 62 - 1,
                     -2 ** 63, -1, 0, 1])
    # int64: the unreduced differences of vsub and of Y - Es, negative ones
    # among them, and entries near +-2^62
    for X in (a - b, -a, Y - Es, edge):
        got = la.mod(X, q)
        assert got.dtype == np.int64
        assert got.ravel().tolist() == [x % q for x in X.ravel().tolist()]
    # float64 products of digit arrays: all-(q - 1) rows sum K m (q - 1)^2,
    # with K m = 3, the most `span` takes at q = 65521 (K m log2 q < 63);
    # and integers at the edges of the floor rule, 2^53 and q - 2^53
    U = np.full((2, 3), q - 1.0)
    U[1] = rng.integers(0, q, size=3)
    W = np.full((3, 4), q - 1.0)
    W[:, 0] = rng.integers(0, q, size=3)
    P = U @ W
    top = 2.0 ** 53 - np.arange(1, 2000, 7, dtype=np.float64)
    bottom = q - 2.0 ** 53 + np.arange(0, 2000, 7, dtype=np.float64)
    for X in (P, top, bottom, -P):
        got = la.mod(X, q)
        assert got.dtype == np.int64
        assert got.ravel().tolist() == [int(x) % q for x in X.ravel().tolist()]
    assert la.mod(np.zeros((0, 3)), q).shape == (0, 3)


@pytest.mark.parametrize("q, rows, cols, t", [
    (2, 3, 3, 0), (2, 4, 3, 1), (2, 3, 4, 2), (2, 2, 3, 5), (3, 3, 2, 1),
    (3, 2, 3, 4),
])
def test_rank_blocks_concatenate_to_iter_rank_at_most(q, rows, cols, t):
    # the blocks hold every matrix of rank at most t, found here by ranking
    # all q^(rows cols) matrices
    blocks = list(la.iter_rank_blocks(q, rows, cols, range(t + 1)))
    assert all(b.dtype == np.int64 and b.shape[1:] == (rows, cols) for b in blocks)
    got = np.concatenate(blocks).tolist()
    field = PrimeField(q)
    every = np.array(list(itertools.product(range(q), repeat=rows * cols)))
    want = [M for M in every.reshape(-1, rows, cols).tolist()
            if la.rank(field, M) <= t]
    assert sorted(got) == want
    assert len(got) == la.count_rank_at_most(q, rows, cols, t)
    assert len({str(M) for M in got}) == len(got)
    assert max(la.rank(field, M) for M in got) == min(t, rows, cols)


@pytest.mark.parametrize("q, rows, r", [
    (2, 3, 2), (2, 3, 3), (2, 4, 3), (3, 3, 2), (5, 2, 2), (3, 2, 1),
])
def test_iter_full_col_rank_is_ordered_distinct_and_full_rank(q, rows, r):
    mats = _full_col_rank(q, rows, r)
    assert len(mats) == la.count_full_col_rank(q, rows, r)
    cols = [tuple(zip(*M)) for M in mats]
    assert cols == sorted(set(cols))  # lexicographic in the columns, no repeats
    # full column rank: no nonzero x has M x = 0
    xs = np.array(list(itertools.product(range(q), repeat=r))[1:]).T
    for M in mats:
        assert ((np.array(M) @ xs) % q).any(axis=0).all()


@pytest.mark.parametrize("q, rows, r, chunk", [
    (2, 3, 2, 5), (2, 4, 3, 7), (3, 2, 2, 4), (3, 3, 1, 5), (5, 2, 2, 11),
    (5, 2, 1, 3),
])
def test_iter_full_col_rank_keeps_its_order_across_chunks(q, rows, r, chunk):
    # every rows x r matrix in lexicographic column order (column 0, in it
    # row 0, most significant), kept when its columns are independent
    field = PrimeField(q)
    want = []
    for digits in itertools.product(range(q), repeat=rows * r):
        M = [[digits[c * rows + i] for c in range(r)] for i in range(rows)]
        if la.rank(field, M) == r:
            want.append(M)
    assert q ** (rows * r) > chunk  # the candidates span several chunks
    assert _full_col_rank(q, rows, r, per=chunk) == want


def _kept_by_rref_stack(rows, r):
    """The rows x r candidates over GF(2) in index order that `_rref_stack`
    ranks r: the filter `_full_col_rank_stacks` runs at odd q, on the
    (r, rows, b) stack of their transposes."""
    w = 2 ** np.arange(rows * r - 1, -1, -1)
    Cs = (np.arange(2 ** (rows * r))[:, None] // w % 2).reshape(-1, r, rows)
    Cs = Cs.transpose(0, 2, 1)
    return Cs[la._rref_stack(F2, Cs.transpose(2, 1, 0))[2] == r]


# every rows <= 5 and r <= rows; per = 1 and 3 only while the candidates
# fill at most 2^12 stacks
@pytest.mark.parametrize("rows, r, per", [
    (rows, r, per) for rows in range(1, 6) for r in range(1, rows + 1)
    for per in (1, 3, la._ENUM_CHUNK) if 2 ** (rows * r) <= per << 12])
def test_packed_gf2_filter_keeps_the_cs_of_rref_stack_rank_r(rows, r, per):
    # at q = 2 each candidate is ranked by its columns, read as bitmasks
    # from its index; it must keep what _rref_stack keeps, in that order.
    # Past 2^16 candidates (5 x 4 and 5 x 5) the reference takes seconds
    # to minutes, so there the count is checked, a stack at a time
    stacks = la._full_col_rank_stacks(2, rows, r, per)
    if rows * r > 16:
        assert sum(len(Cs) for Cs in stacks) == la.count_full_col_rank(2, rows, r)
        return
    stacks = list(stacks)
    assert all(0 < len(Cs) <= per and Cs.shape[1:] == (rows, r) for Cs in stacks)
    want = _kept_by_rref_stack(rows, r)
    assert len(want) == la.count_full_col_rank(2, rows, r)
    assert np.concatenate(stacks).tolist() == want.tolist()


@pytest.mark.parametrize("q, rows, cols, t, chunk", [
    (2, 3, 3, 1, 10), (2, 4, 3, 2, 30), (3, 3, 2, 2, 8), (5, 2, 2, 2, 1),
])
def test_rank_blocks_are_bounded_by_the_chunk(monkeypatch, q, rows, cols, t, chunk):
    want = _rank_matrices(q, rows, cols, range(t + 1))
    monkeypatch.setattr(la, "_ENUM_CHUNK", chunk)
    blocks = list(la.iter_rank_blocks(q, rows, cols, range(t + 1)))
    assert np.concatenate(blocks).tolist() == want
    for r in range(1, t + 1):
        n_rrefs = la.gaussian_binomial(cols, r, q)
        per = max(1, chunk // n_rrefs)  # C's a block holds
        sizes = [len(b) for b in blocks if la.rank(PrimeField(q), b[0]) == r]
        assert len(sizes) > 1
        assert max(sizes) <= per * n_rrefs
        assert sum(sizes) == la.count_rank_exactly(q, rows, cols, r)


def test_full_col_rank_candidates_past_int64_are_refused():
    with pytest.raises(ParameterError):
        _full_col_rank(2, 8, 8)


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
    # the kernel takes the stack batch-last, (R, C, B), matrix b in M[b]
    field, M = fs
    before = M.copy()
    R, lead, ranks = la._rref_stack(field, M.transpose(1, 2, 0))
    assert (M == before).all()  # the input is left alone
    _assert_rref_stack_is_rref_in_place(field, M, R, lead, ranks)


def _assert_rref_stack_is_rref_in_place(field, M, R, lead, ranks):
    """The (R, C, B) result of `_rref_stack` is, matrix by matrix, what
    `_rref_in_place` makes of the (B, R, C) stack M: the same rows, the
    pivots as the leads below the rank and C past it."""
    B, rows, C = M.shape
    assert R.shape == (rows, C, B) and lead.shape == (rows, B) and ranks.shape == (B,)
    for b in range(B):
        packed = field.pack(M[b])
        piv = la._rref_in_place(field, packed, C)
        assert R[:, :, b].tolist() == field.unpack(packed, 0, C)
        assert lead[:, b].tolist() == piv + [C] * (rows - len(piv))
        assert ranks[b] == len(piv)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("B, rows, C", [(0, 3, 4), (5, 0, 4), (12, 7, 3), (12, 6, 1),
                                        (3, 72, 70)])
def test_rref_stack_of_edge_shapes(field, B, rows, C):
    # no matrices, matrices with no rows, and tall matrices (R > C) whose
    # bottom rows copy rows above them, so some stay zero once reduced; at
    # C = 70 a GF(2) row is a bitmask wider than one int64
    M = np.random.default_rng(field.order + rows).integers(
        0, field.order, size=(B, rows, C))
    M[:, 3:] = M[:, : rows - 3]
    _assert_rref_stack_is_rref_in_place(field, M, *la._rref_stack(
        field, M.transpose(1, 2, 0)))


def test_rref_stack_of_zero_and_identity_blocks():
    F = ExtField(2, 4)
    M = np.zeros((3, 4, 3), dtype=np.int64)  # (R, C, B)
    M[:, :3, 1] = np.eye(3, dtype=np.int64) * 7
    M[0, 3, 2] = 5
    R, lead, ranks = la._rref_stack(F, M)
    assert ranks.tolist() == [0, 3, 1]
    assert (R[:, :, 0] == 0).all()
    assert R[:, :3, 1].tolist() == np.eye(3, dtype=int).tolist()
    assert R[:, :, 2].tolist() == [[0, 0, 0, 1], [0] * 4, [0] * 4]
    assert lead.T.tolist() == [[4, 4, 4], [0, 1, 2], [3, 4, 4]]


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
    got = _rank_matrices(q, rows, cols, [r])
    assert got == _c_times_r(q, rows, cols, [r])
    assert all(type(x) is int for M in got for row in M for x in row)


def _c_times_r(q, rows, cols, ranks):
    """Every C R, rank by rank, C-major, each product summed entry by entry:
    the order `iter_rank_blocks` gives its matrices in."""
    return [[[sum(C[i][k] * R[k][j] for k in range(r)) % q for j in range(cols)]
             for i in range(rows)]
            for r in ranks for C in _full_col_rank(q, rows, r)
            for R in la.iter_rref_full_row_rank(q, r, cols)]


@pytest.mark.parametrize("q, rows, cols, ranks", [
    (2, 3, 3, (0, 1)), (3, 2, 3, (2, 1)), (2, 4, 3, (1, 2)),
])
@pytest.mark.parametrize("over", [0, 1])
def test_rank_blocks_are_kept_up_to_the_chunk(monkeypatch, q, rows, cols, ranks, over):
    # an enumeration of exactly _ENUM_CHUNK matrices is built once and kept
    # read-only; one of _ENUM_CHUNK + 1 is built on every call, never kept
    want = _c_times_r(q, rows, cols, ranks)
    memo = {}
    monkeypatch.setattr(la, "_RANK_BLOCKS", memo)
    monkeypatch.setattr(la, "_ENUM_CHUNK", len(want) - over)
    first, second = (list(la.iter_rank_blocks(q, rows, cols, ranks)) for _ in range(2))
    for blocks in (first, second):
        assert np.concatenate(blocks).tolist() == want
    if over:
        assert memo == {}
        assert all(a is not b for a, b in zip(first, second))
    else:
        assert list(memo) == [(q, rows, cols, ranks)]
        assert all(a is b for a, b in zip(first, second))
        for block in first:
            with pytest.raises(ValueError):
                block[0, 0, 0] = 1


def _span_oracle(F, rows, i):
    """The i-th message of itertools.product order and its combination of
    rows, by one scalar matvec."""
    u = []
    for _ in rows:
        i, d = divmod(i, F.order)
        u.insert(0, d)
    return u, la.expand(F, la.matvec(F, la.transpose(rows), u)).tolist()


@pytest.mark.parametrize("q, m, K, n", [(2, 4, 2, 3), (3, 2, 3, 2), (5, 2, 2, 3)])
def test_span_equals_a_scalar_matvec_per_message(q, m, K, n):
    F = ExtField(q, m)
    rng = np.random.default_rng(q * m)
    rows = rng.integers(0, F.order, size=(K, n)).tolist()
    idx = np.arange(F.order ** K)
    U, E = la.span(F, rows, idx)
    assert U.shape == (len(idx), K) and E.shape == (len(idx), n, m)
    assert U.tolist() == [list(u) for u in itertools.product(range(F.order), repeat=K)]
    for j in idx.tolist():
        u, want = _span_oracle(F, rows, j)
        assert U[j].tolist() == u and E[j].tolist() == want


def test_span_in_the_largest_binary_field():
    # span gathers its products g x^i from the field's vector tables, so
    # it is checked in GF(2^16), whose tables are the largest
    F = ExtField(2, 16)
    rng = np.random.default_rng(17)
    rows = rng.integers(0, F.order, size=(2, 3)).tolist()
    idx = rng.integers(0, F.order ** 2, size=5)
    U, E = la.span(F, rows, idx)
    for j, i in enumerate(idx.tolist()):
        u, want = _span_oracle(F, rows, i)
        assert U[j].tolist() == u and E[j].tolist() == want


# ----------------------------------------------------------------------
# Packed GF(2) rows against the list-row elimination loop
# ----------------------------------------------------------------------

def _list_rref_gf2(M, cols):
    """The elimination loop on list rows, with XOR row operations: the
    reference for GF(2) rows packed into bitmasks.  Same pivot search
    (the first nonzero row at or below r) and same swap as the kernel;
    at GF(2) every pivot is 1, so no row is scaled."""
    rows = len(M)
    pivots = []
    r = 0
    for c in range(cols):
        for pr in range(r, rows):
            if M[pr][c]:
                break
        else:
            continue
        M[r], M[pr] = M[pr], M[r]
        for i in range(rows):
            if M[i][c] and i != r:
                M[i] = [x ^ y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _list_transform_gf2(M):
    """(E, R, pivots) from [M | I] reduced by `_list_rref_gf2`."""
    rows, cols = len(M), len(M[0])
    aug = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(M)]
    pivots = _list_rref_gf2(aug, cols)
    return [row[cols:] for row in aug], [row[:cols] for row in aug], pivots


def _gf2_matrices(rng, count):
    """1 x 1 matrices, then random GF(2) matrices, wide and tall, some of
    their rows and columns zeroed."""
    yield from (np.array([[0]]), np.array([[1]]))
    for _ in range(count):
        rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
        M = rng.integers(0, 2, size=(rows, cols))
        M[rng.random(rows) < 0.2] = 0
        M[:, rng.random(cols) < 0.2] = 0
        yield M


def test_packed_gf2_transform_equals_the_list_row_loop():
    rng = np.random.default_rng(41)
    for M in _gf2_matrices(rng, 300):
        assert la.row_reduce_transform(F2, M) == _list_transform_gf2(M.tolist())


def _check_left_inverse_gf2(A):
    n = A.shape[1]
    E, _, pivots = _list_transform_gf2(A.tolist())
    if len(pivots) < n:
        with pytest.raises(SingularMatrixError,
                           match=rf"^matrix has column rank {len(pivots)} < {n}$"):
            _left_inverse_matrix(F2, A)
        return False
    B = _left_inverse_matrix(F2, A)
    assert B == E[:n]
    assert (np.array(B) @ A % 2 == np.eye(n, dtype=np.int64)).all()
    return True


@pytest.mark.parametrize("n, t", [(1, 0), (2, 1), (4, 1), (8, 2)])
def test_packed_gf2_left_inverse_equals_the_list_row_loop(n, t):
    rng = np.random.default_rng(43 + n)
    for N in (n, n + 1, n + t):
        ok = [_check_left_inverse_gf2(rng.integers(0, 2, size=(N, n)))
              for _ in range(60)]
        assert any(ok) and not all(ok)  # full rank and rank-deficient seen


@pytest.mark.parametrize("N", [63, 64, 70, 130])
def test_packed_gf2_rows_wider_than_int64(N):
    # a row of [A | I_N] has n + N bits, past what an int64 holds
    rng = np.random.default_rng(N)
    n = 4
    A = la.random_full_rank(F2, N, n, rng)
    assert la.row_reduce_transform(F2, A) == _list_transform_gf2(A.tolist())
    assert _check_left_inverse_gf2(A)
    A[:, -1] = A[:, 0]  # column rank n - 1
    assert not _check_left_inverse_gf2(A)
    A[:, 1:] = 0
    assert not _check_left_inverse_gf2(A)


def test_matmul_is_the_matvec_of_each_column():
    rng = np.random.default_rng(47)
    for F in (F8, ExtField(3, 2), F3):
        for ra, ca, cb in ((3, 4, 2), (1, 1, 1), (2, 3, 0), (4, 2, 5)):
            A = rng.integers(0, F.order, size=(ra, ca)).tolist()
            B = rng.integers(0, F.order, size=(ca, cb)).tolist()
            cols = [la.matvec(F, A, col) for col in la.transpose(B)]
            want = la.transpose(cols) if cols else [[] for _ in range(ra)]
            assert la.matmul(F, A, B) == want


@pytest.mark.parametrize("run, message", [
    (lambda: la.rref_solve(F2, np.eye(3, dtype=int), [1, 0]),
     "rhs has 2 rows, expected 3"),
    (lambda: la.contract(F8, [[1, 0, 2]]), r"entries must be digits of GF\(2\)"),
    (lambda: la.contract(F8, [[1, 0, -1]]), r"entries must be digits of GF\(2\)"),
    (lambda: la.contract(ExtField(2, 4), np.array([[0.5, 0, 0, 0]])),
     "digit matrix entries must be integers"),
    (lambda: la.rank_fq(np.array([[1.9, 0], [0, 1]]), 2),
     "matrix entries must be integers"),
    (lambda: la.rank(F3, [[None, 1]]), "matrix entries must be integers"),
    (lambda: la.row_reduce_transform(F8, [[0.5, 1]]), "matrix entries must be integers"),
    (lambda: la.matvec(F8, [[1, 0, 1], [0, 1, 1]], [1, 2]),
     "cannot multiply 2x3 by 2x1"),
    (lambda: la.matmul(F8, [[1, 0, 1]], [[1, 0, 1]]), "cannot multiply 1x3 by 1x3"),
    (lambda: la.matmul(ExtField(2, 4), [[99, 1]], [[1], [1]]),
     r"99 is not an element of GF\(2\^4\)"),
    (lambda: la.matmul(F8, [[1, 2]], [[0.5], [1]]), "matrix entries must be integers"),
    (lambda: la.span(ExtField(2, 4), [[99, 1]], [0, 1, 2]),
     r"99 is not an element of GF\(2\^4\)"),
    (lambda: la.span(F8, [[1, 2.5]], [0]), "matrix entries must be integers"),
], ids=["rref-solve-rows", "contract-digit-2", "contract-negative",
        "contract-float", "rank-float", "rank-none", "transform-float", "matvec",
        "matmul-shape", "matmul-element", "matmul-float", "span-element",
        "span-float"])
def test_linalg_refusals(run, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        run()
