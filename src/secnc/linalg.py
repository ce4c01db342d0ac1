"""Matrix algebra over GF(q) and GF(q^m).

Matrices over the base field are numpy integer arrays (entries reduced
mod q); matrices over the extension field are lists of lists of packed
field elements.  Every elimination runs one kernel, `_rref_in_place`,
written against the field protocol of `gf` (inv and the row operations
scale_row / sub_scaled_row); only GF(2) rank packs rows into bitmasks,
in `rank_gf2`.  Stacks of matrices, as int64 arrays of shape (B, R, C),
are reduced together by `_rref_stack` with the fields' vector
operations.  Every matrix-vector product, base-field maps applied to
packets included, runs `matvec`.

The expand/contract pair identifies a length-n column vector over
GF(q^m) with an n x m matrix over GF(q), row i being the coefficient
vector of entry i.  Left multiplication by base-field matrices commutes
with this identification, which is what lets one outer code survive any
linear network code.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    InconsistentSystemError,
    ParameterError,
    SingularMatrixError,
    UnderdeterminedSystemError,
)
from .gf import PrimeField


def to_lists(M) -> list[list[int]]:
    if isinstance(M, np.ndarray) and M.ndim == 2 and M.dtype.kind in "iu":
        return M.tolist()  # Python ints, without a call per entry
    return [list(map(int, row)) for row in M]


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity(n: int, one: int = 1) -> list[list[int]]:
    return [[one if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(M) -> list[list[int]]:
    M = to_lists(M)
    if not M:
        return []
    return [list(col) for col in zip(*M)]


def dims(M) -> tuple[int, int]:
    M = list(M)
    return (len(M), len(M[0]) if M else 0)


# ----------------------------------------------------------------------
# Elimination: one kernel, row operations supplied by the field
# ----------------------------------------------------------------------

def _rref_in_place(field, M: list[list[int]], cols: int | None = None) -> list[int]:
    """Reduce M to RREF, pivoting in its first `cols` columns (default all).

    Row operations apply to whole rows, so columns past `cols` carry
    along whatever was appended to M.  Returns the pivot column list.
    """
    rows = len(M)
    if cols is None:
        cols = len(M[0]) if rows else 0
    scale_row, sub_scaled_row = field.scale_row, field.sub_scaled_row
    pivots = []
    r = 0
    for c in range(cols):
        for pr in range(r, rows):
            if M[pr][c]:
                break
        else:
            continue
        M[r], M[pr] = M[pr], M[r]
        s = field.inv(M[r][c])
        if s != 1:
            M[r] = scale_row(s, M[r])
        pivot = M[r]
        for i in range(rows):
            f = M[i][c]
            if f and i != r:
                M[i] = sub_scaled_row(M[i], f, pivot)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _rref_stack(field, M):
    """Reduce every matrix of the (B, R, C) stack M to RREF at once.

    Returns (reduced stack, pivot mask (B, C), ranks (B,)); matrix b of
    the result equals what `_rref_in_place` makes of M[b].
    """
    M = np.array(M, dtype=np.int64)
    B, R, C = M.shape
    pivots = np.zeros((B, C), dtype=bool)
    r = np.zeros(B, dtype=np.int64)  # the next pivot row of each matrix
    rows = np.arange(R)
    for c in range(C):
        # first row at or below r[b] with a nonzero entry in column c
        cand = (M[:, :, c] != 0) & (rows >= r[:, None])
        hit = np.flatnonzero(cand.any(axis=1))
        if not len(hit):
            continue
        top, pr = r[hit], cand[hit].argmax(axis=1)
        pivot = M[hit, pr]
        M[hit, pr] = M[hit, top]
        pivot = field.vmul(field.vinv(pivot[:, c])[:, None], pivot)
        M[hit, top] = pivot
        f = M[hit, :, c]
        f[np.arange(len(hit)), top] = 0
        M[hit] = field.vsub(M[hit], field.vmul(f[:, :, None], pivot[:, None, :]))
        pivots[hit, c] = True
        r[hit] += 1
    return M, pivots, r


def rref(field, M) -> tuple[list[list[int]], list[int]]:
    M = to_lists(M)
    return M, _rref_in_place(field, M)


def rank(field, M) -> int:
    M = to_lists(M)
    if M and field.order == 2:
        return rank_gf2([pack_row_gf2(row) for row in M])
    return len(_rref_in_place(field, M))


def vector_rank(F, v) -> int:
    """Rank over GF(q) of expand(F, v): the rank weight of v over GF(q^m)."""
    if F.q == 2:
        return rank_gf2(v)  # an element int already is its row bitmask
    return rank(F.base, expand(F, v))


def row_reduce_transform(field, M) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Returns (E, R, pivots) with E square invertible and E @ M = R in RREF.

    Reduces [M | I], pivoting in M only; the right block records E.
    """
    M = to_lists(M)
    cols = len(M[0]) if M else 0
    aug = [row + e for row, e in zip(M, identity(len(M), field.one))]
    pivots = _rref_in_place(field, aug, cols)
    E = [row[cols:] for row in aug]
    R = [row[:cols] for row in aug]
    return E, R, pivots


def rref_solve(field, A, Y):
    """Solve A X = Y for the unique X, Y a vector or a matrix.

    Raises InconsistentSystemError when no solution exists and
    UnderdeterminedSystemError when there are many.
    """
    A = to_lists(A)
    if isinstance(Y, np.ndarray):
        vector_rhs = Y.ndim == 1
    else:
        Y = list(Y)
        vector_rhs = bool(Y) and not isinstance(Y[0], (list, tuple, np.ndarray))
    Yl = [[int(y)] for y in Y] if vector_rhs else to_lists(Y)
    rows, cols = dims(A)
    if len(Yl) != rows:
        raise ParameterError(f"rhs has {len(Yl)} rows, expected {rows}")
    aug = [A[i] + Yl[i] for i in range(rows)]
    pivots = _rref_in_place(field, aug)
    if any(p >= cols for p in pivots):
        raise InconsistentSystemError("A X = Y has no solution")
    if len(pivots) < cols:
        raise UnderdeterminedSystemError(
            f"solution space has dimension {cols - len(pivots)}"
        )
    X = [row[cols:] for row in aug[:cols]]  # the pivots are 0..cols-1
    return [row[0] for row in X] if vector_rhs else X


def inverse(field, A) -> list[list[int]]:
    A = to_lists(A)
    n, c = dims(A)
    if n != c:
        raise ParameterError("inverse requires a square matrix")
    return left_inverse(field, A)


def left_inverse(field, A) -> list[list[int]]:
    """For A of shape N x n with full column rank, a B with B @ A = I_n."""
    A = to_lists(A)
    rows, cols = dims(A)
    if rows < cols:
        raise ParameterError("left inverse requires rows >= cols")
    E, _, pivots = row_reduce_transform(field, A)
    if len(pivots) != cols:
        raise SingularMatrixError(
            f"matrix has column rank {len(pivots)} < {cols}"
        )
    return E[:cols]


def null_space(field, A) -> list[list[int]]:
    """Basis of the right kernel of A, one vector per free column."""
    A = to_lists(A)
    rows, cols = dims(A)
    R, pivots = rref(field, A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * cols
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = field.neg(R[r][f])
        basis.append(v)
    return basis


def kernel_vector(field, A):
    """One nonzero kernel vector, or None when the kernel is trivial."""
    basis = null_space(field, A)
    return basis[0] if basis else None


# ----------------------------------------------------------------------
# Products
# ----------------------------------------------------------------------

def matmul(field, A, B) -> list[list[int]]:
    A = to_lists(A)
    B = to_lists(B)
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise ParameterError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    Bt = list(zip(*B)) if B else []
    out = zeros(ra, cb)
    for i in range(ra):
        Ai = A[i]
        for j in range(cb):
            acc = field.zero
            col = Bt[j]
            for k in range(ca):
                a = Ai[k]
                if a != field.zero:
                    acc = field.add(acc, field.mul(a, col[k]))
            out[i][j] = acc
    return out


def matvec(field, A, v) -> list[int]:
    """A v over `field`.  A base-field A applies to packets as is: its
    entries < q are the constant polynomials, and expand(A v) = A expand(v).
    """
    if isinstance(A, np.ndarray):
        A = A.tolist()
    if isinstance(v, np.ndarray):
        v = v.tolist()
    cols = len(A[0]) if A else 0
    if cols != len(v):
        raise ParameterError(f"cannot multiply {len(A)}x{cols} by {len(v)}x1")
    add, mul = field.add, field.mul
    out = []
    for row in A:
        acc = field.zero
        for a, x in zip(row, v):
            if a and x:
                acc = add(acc, x if a == 1 else mul(a, x))
        out.append(acc)
    return out


def mat_sub(field, A, B) -> list[list[int]]:
    A, B = to_lists(A), to_lists(B)
    if dims(A) != dims(B):
        raise ParameterError("dimension mismatch")
    return [[field.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


# ----------------------------------------------------------------------
# The vector <-> matrix identification and rank distance
# ----------------------------------------------------------------------

def expand(F, v) -> np.ndarray:
    """Column vector over GF(q^m) -> n x m matrix over GF(q); a stack of
    vectors (..., n) -> (..., n, m)."""
    v = np.asarray(v, dtype=np.int64)
    return (v[..., None] // F.q ** np.arange(F.m, dtype=np.int64)) % F.q


def contract(F, M):
    """The inverse of expand: a list for one n x m matrix, an int64 array
    (..., n) for a stack (..., n, m).  Exact in int64: q^m <= FIELD_LIMIT."""
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != F.m:
        raise ParameterError(f"expected an n x {F.m} matrix, got shape {M.shape}")
    if ((M < 0) | (M >= F.q)).any():
        raise ParameterError(f"entries must be digits of GF({F.q})")
    x = M.astype(np.int64) @ F.q ** np.arange(F.m, dtype=np.int64)
    return x.tolist() if M.ndim == 2 else x


def rank_distance(field, X, Y) -> int:
    X, Y = to_lists(X), to_lists(Y)
    if dims(X) != dims(Y):
        raise ParameterError(f"shapes differ: {dims(X)} vs {dims(Y)}")
    return rank(field, mat_sub(field, Y, X))


# ----------------------------------------------------------------------
# GF(2) fast path: a row is a bitmask, a matrix a tuple of bitmasks
# ----------------------------------------------------------------------

def pack_row_gf2(row) -> int:
    out = 0
    for i, x in enumerate(row):
        if int(x) & 1:
            out |= 1 << i
    return out


def rank_fq(M, q: int) -> int:
    """Rank over GF(q) for prime q; packed fast path when q = 2."""
    return rank(PrimeField(q), M)


def rank_gf2(rows) -> int:
    """Rank over GF(2) of a matrix given as an iterable of row bitmasks."""
    pivots = {}
    r = 0
    for row in rows:
        row = int(row)
        while row:
            hb = row.bit_length() - 1
            piv = pivots.get(hb)
            if piv is None:
                pivots[hb] = row
                r += 1
                break
            row ^= piv
    return r


# ----------------------------------------------------------------------
# Sampling and enumeration of base-field matrices
# ----------------------------------------------------------------------

def random_matrix(field, rows: int, cols: int, rng) -> np.ndarray:
    return np.asarray(
        rng.integers(0, field.order, size=(rows, cols)), dtype=np.int64
    )


def random_full_rank(field, rows: int, cols: int, rng) -> np.ndarray:
    """Rejection-sample a matrix of rank min(rows, cols)."""
    if rows < 1 or cols < 1:
        raise ParameterError("dimensions must be >= 1")
    target = min(rows, cols)
    while True:
        M = random_matrix(field, rows, cols, rng)
        if rank(field, M) == target:
            return M


def iter_rref_full_row_rank(q: int, r: int, c: int):
    """All r x c RREF matrices of rank r (one per r-dim subspace of Fq^c)."""
    if r == 0:
        yield []
        return
    if r > c:
        return
    for pivots in itertools.combinations(range(c), r):
        free = [
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, c)
            if j not in pivots
        ]
        for vals in itertools.product(range(q), repeat=len(free)):
            M = [[0] * c for _ in range(r)]
            for i, p in enumerate(pivots):
                M[i][p] = 1
            for (i, j), v in zip(free, vals):
                M[i][j] = v
            yield M


def iter_full_col_rank(q: int, rows: int, r: int):
    """All rows x r matrices over GF(q) with linearly independent columns."""
    if r == 0:
        yield [[] for _ in range(rows)]
        return

    field = PrimeField(q)

    def walk(cols):
        if len(cols) == r:
            yield [[col[i] for col in cols] for i in range(rows)]
            return
        for cand in itertools.product(range(q), repeat=rows):
            if rank(field, cols + [cand]) > len(cols):
                yield from walk(cols + [list(cand)])

    yield from walk([])


def iter_rank_exactly(q: int, rows: int, cols: int, r: int):
    """All rows x cols matrices of rank exactly r, each exactly once.

    Every rank-r matrix factors uniquely as C @ R with C full column
    rank and R in RREF with full row rank.
    """
    if r == 0:
        yield [[0] * cols for _ in range(rows)]
        return
    rrefs = np.array(list(iter_rref_full_row_rank(q, r, cols)), dtype=np.int64)
    for C in iter_full_col_rank(q, rows, r):
        yield from (np.array(C, dtype=np.int64) @ rrefs % q).tolist()


def iter_rank_at_most(q: int, rows: int, cols: int, t: int):
    for r in range(min(t, rows, cols) + 1):
        yield from iter_rank_exactly(q, rows, cols, r)


def iter_full_rank(q: int, rows: int, cols: int):
    yield from iter_rank_exactly(q, rows, cols, min(rows, cols))


def iter_invertible(q: int, n: int):
    yield from iter_rank_exactly(q, n, n, n)


def gaussian_binomial(c: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of Fq^c."""
    if r < 0 or r > c:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (c - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_full_col_rank(q: int, rows: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= q ** rows - q ** i
    return out


def count_rank_exactly(q: int, rows: int, cols: int, r: int) -> int:
    return gaussian_binomial(cols, r, q) * count_full_col_rank(q, rows, r)


def count_rank_at_most(q: int, rows: int, cols: int, t: int) -> int:
    return sum(
        count_rank_exactly(q, rows, cols, r)
        for r in range(min(t, rows, cols) + 1)
    )
