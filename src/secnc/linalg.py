"""Matrix algebra over GF(q) and GF(q^m).

Matrices over the base field are numpy integer arrays, those over the
extension field lists of lists of packed field elements, each read by
its field (`gf`'s read: mod q, or refused unless elements of GF(q^m),
as `contract` refuses non-digits); `matmul` and `span` read theirs too,
while `matvec`, `vector_rank`, `expand` and a `LinearMap`, on the
per-case path, take elements as given, `expand`
refusing only entries that are not integers or are past 2^63.  `rank`,
`row_reduce_transform`, `left_inverse`, `rref_solve` (of one vector)
and `kernel_vector` each pack an int64 matrix, run one
kernel, `_rref_in_place`, on the row form of `gf` (pack, unpack, column,
contract and eliminate, the step that pivots a column), and read only
the columns and rows they return.  A row is the field's: a Python-int
bitmask at GF(2), bit c holding column c, so a step is one XOR per row
holding the pivot, at any width; a list of entries in every other field.
`kernel_vector` reads its matrix for `kernel_vector_of_rows`, the one
kernel vector of both Gabidulin decoders (a 1 in the first free column,
the first c whose pivot is not c); `GabidulinCode.decode` hands that
rule its own rows unread.  `left_inverse` of a transfer A beside its
observation Y, its one form, reduces [A | Y] and reads the un-mixed
packets straight from the rows (the base field's `contract`); the matrix
is the top rows of `row_reduce_transform`'s E.  GF(2) ranks take the
packed rows to `rank_gf2`.  One packed GF(2) stack
rank, `_rank_gf2_stack`, ranks an (n, B) stack of row bitmasks with the
batch axis last, so each step is one elementwise pass over the batch; it
serves `vector_rank` of a stack of GF(2^m) vectors, whose element ints
already are their expanded rows, and the full-column-rank enumeration at
q = 2.  Stacks of matrices, int64 (R, C, B) with the batch axis last
too, are reduced row by row by `_rref_stack` with vector operations.
Arrays are reduced mod q by one rule, `mod`: & 1 at q = 2, an int64 %
otherwise, and for a float64 product whose sums stay below 2^53 the
exact X - q floor(X / q).  One builder, `_combination_matrix`, gathers
the block matrix of products g x^i of a GF(q^m) matrix with one `vmul`:
`span` takes its product with every message in float64, one BLAS call,
and a `LinearMap` given the rows takes it as the W of u -> G^T u for one
message, an encoder.  A `LinearMap` applies a fixed GF(q)-linear map,
given by its base-field matrix W, to a list of elements: its first
application is the float64 product expand(x) W mod q (`matvec` for a
map given by rows, which builds W only on the next); at q = 2 its
second builds one table per byte of each input element, each entry the
XOR of the rows of W its bits select, packed as one Python int, and from
then on the map is one lookup and one XOR per byte and the output the
int's bytes.  At odd q every application is the float64 product.  The
second-use rule keeps the table build off a map applied once, such as
those of the code `scheme` builds for one erasure decode.  `expand` at
q = 2 unpacks the low bytes of each element into its m bits.  Every
other product runs the field-supplied inner product `dot`: `matvec` one
per row, base-field maps applied to packets included, and `matmul` one
per entry.  Every enumeration of GF(q^m)-combinations of rows (codebooks,
audit payloads) runs `span`; every enumeration of base-field matrices by
rank runs `iter_rank_blocks`, which the audits consume as int64 blocks.
It keeps every enumeration of at most _ENUM_CHUNK matrices it has made,
as one read-only block, so an audit's fixed error and tap grids are
built once per process; a larger enumeration streams.  It
builds the full-column-rank factors C as whole stacks: candidates
enumerated by index in bounded chunks, kept by their rank (at q = 2 the
packed stack rank of the columns read from the index bits, at odd q
`_rref_stack` of their transposes), each block one broadcast product
with the stack of every RREF.

The expand/contract pair identifies a length-n column vector over
GF(q^m) with an n x m matrix over GF(q), row i being the coefficient
vector of entry i.  Left multiplication by base-field matrices commutes
with this identification, which is what lets one outer code survive any
linear network code.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .errors import (
    InconsistentSystemError,
    ParameterError,
    SingularMatrixError,
    UnderdeterminedSystemError,
    read_count,
)
from .gf import PrimeField

_GF2 = PrimeField(2)


def to_lists(M) -> list[list[int]]:
    if isinstance(M, np.ndarray) and M.ndim == 2 and M.dtype.kind in "iu":
        return M.tolist()  # Python ints, without a call per entry
    return [list(map(int, row)) for row in M]


def transpose(M) -> list[list[int]]:
    return [list(col) for col in zip(*to_lists(M))]


def mod(X, q: int) -> np.ndarray:
    """X mod q entrywise, an int64 array in [0, q): the one rule for
    reducing an int64 array or a float64 product.

    At q = 2 it is & 1 (exact for negative int64 entries too, in two's
    complement), else an int64 %.  A float64 X must hold integers x with
    q - 2^53 <= x < 2^53, as a product of digit arrays does while its sums
    stay below 2^53; it is reduced as X - q floor(X / q), exact on those
    integers and several times cheaper than an int64 or float64 %.
    """
    if X.dtype == np.float64:
        if q == 2:
            return X.astype(np.int64) & 1
        return (X - q * np.floor(X / q)).astype(np.int64)
    return X & 1 if q == 2 else X % q


def _int_matrix(field, M) -> np.ndarray:
    """M as an int64 array of elements (`field.read`); [] is the 0 x 0 matrix."""
    A = field.read(M, "matrix")
    return A.reshape(0, 0) if A.ndim == 1 and not A.size else A


# ----------------------------------------------------------------------
# Elimination: one kernel, its step supplied by the field
# ----------------------------------------------------------------------

def _rref_in_place(field, M: list, cols: int) -> list[int]:
    """Reduce the rows M, in `field`'s row form (`field.pack`), to RREF,
    pivoting in their first `cols` columns, one `field.eliminate` step a
    column.  A step works on whole rows, so columns past `cols` carry
    along whatever was appended to M.  Returns the pivot column list."""
    rows, step = len(M), field.eliminate
    pivots = []
    for c in range(cols):
        if len(pivots) == rows:
            break
        if step(M, len(pivots), c):
            pivots.append(c)
    return pivots


def _rref_stack(field, M):
    """Reduce every matrix M[:, :, b] of the (R, C, B) stack M to RREF.

    The entries of M must be elements of `field`, reduced: the vector
    operations do not reduce their inputs (at q = 2 they are AND and XOR).
    Row i in turn pivots on its first nonzero column, is scaled to a
    leading 1 and subtracted from every other row, one pass over the
    stack; sorting the leads, C for a zero row, then orders the rows.
    Returns (RREF (R, C, B), leads (R, B), ranks (B,)), as `_rref_in_place`
    reduces each matrix (the RREF is unique).  Work grows with R, so a
    caller after ranks alone passes the orientation with fewer rows.
    """
    M = np.array(M, dtype=np.int64, order="C")
    R, C, B = M.shape
    lead = np.empty((R, B), dtype=np.int64)
    ar, weight = np.arange(B), np.arange(C, 0, -1)[:, None]  # column c weighs C - c
    for i in range(R):
        lead[i] = C - ((M[i] != 0) * weight).max(axis=0)
        c = np.minimum(lead[i], C - 1)
        pivot = M[i, c, ar]  # 0 in a zero row, which stays zero
        M[i] = field.vmul(M[i], field.vinv(np.where(pivot != 0, pivot, 1)))
        if R > 1:  # a single row, scaled, is its own RREF
            f = M[:, c, ar]  # each row's entry in the pivot column
            f[i] = 0
            M = field.vsub(M, field.vmul(f[:, None], M[i]))
    if R > 1:  # order the rows by their leads
        order = np.argsort(lead, axis=0)  # zero rows tie, and are equal
        M, lead = M[order[:, None], np.arange(C)[:, None], ar], lead[order, ar]
    return M, lead, (lead < C).sum(axis=0)


def rank(field, M) -> int:
    A = _int_matrix(field, M)
    if field.order == 2:  # GF(2^1) has the elements of GF(2)
        return rank_gf2(_GF2.pack(A))
    return len(_rref_in_place(field, field.pack(A), A.shape[1]))


def vector_rank(F, v):
    """Rank over GF(q) of expand(F, v): the rank weight of v over GF(q^m).

    A (B, n) int64 stack of vectors gives the (B,) array of their ranks.
    At q = 2 an element int already is its row bitmask, so both forms
    eliminate the ints with XOR, a stack as its (n, B) transpose in
    `_rank_gf2_stack`.  At odd q a stack runs `_rref_stack` on its
    expansions, n x m or m x n, whichever has fewer rows.
    """
    if isinstance(v, np.ndarray) and v.ndim == 2:
        if F.q != 2:
            E = expand(F, v).transpose((1, 2, 0) if v.shape[1] <= F.m else (2, 1, 0))
            return _rref_stack(F.base, E)[2]
        return _rank_gf2_stack(np.array(v.T, dtype=np.int64, order="C"))
    if F.q == 2:
        return rank_gf2(v)
    return rank(F.base, expand(F, v))


def _rank_gf2_stack(V):
    """Ranks over GF(2) of the (n, B) int64 stack V of nonnegative row
    bitmasks, matrix b being the n rows V[:, b]: the (B,) array of ranks.

    Row i, in turn, pivots on its lowest set bit and is XORed into every
    later row holding that bit, one elementwise pass across the batch per
    row; the rows left nonzero then have distinct pivots absent from the
    rows below, so they count the rank.  V is reduced in place.
    """
    for i in range(len(V) - 1):
        pivot, rest = V[i], V[i + 1:]
        rest ^= pivot * ((rest & (pivot & -pivot)) != 0)
    return (V != 0).sum(axis=0)


def _reduce_beside(field, A: np.ndarray, B: np.ndarray):
    """[A | B] in `field`'s row form, reduced pivoting in A only: (rows,
    pivots).  The right block of the rows is E B, for the E with E A in
    RREF; B = I records E itself."""
    aug = field.pack(np.concatenate([A, B], axis=1))
    return aug, _rref_in_place(field, aug, A.shape[1])


def row_reduce_transform(field, M) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Returns (E, R, pivots) with E square invertible and E @ M = R in RREF."""
    A = _int_matrix(field, M)
    rows, cols = A.shape
    aug, pivots = _reduce_beside(field, A, np.eye(rows, dtype=np.int64))
    return field.unpack(aug, cols, cols + rows), field.unpack(aug, 0, cols), pivots


def rref_solve(field, A, y) -> list[int]:
    """Solve A x = y for the unique vector x.

    Raises InconsistentSystemError when no solution exists and
    UnderdeterminedSystemError when there are many.
    """
    A = _int_matrix(field, A)
    y = _int_matrix(field, y).reshape(-1, 1)
    rows, cols = A.shape
    if len(y) != rows:
        raise ParameterError(f"rhs has {len(y)} rows, expected {rows}")
    aug, pivots = _reduce_beside(field, A, y)
    # the rows past the rank are zero in A: y must be zero there too
    if any(field.column(aug[len(pivots):], cols)):
        raise InconsistentSystemError("A x = y has no solution")
    if len(pivots) < cols:
        raise UnderdeterminedSystemError(
            f"solution space has dimension {cols - len(pivots)}"
        )
    return field.column(aug[:cols], cols)  # the pivots are 0..cols-1


def left_inverse(field, A, Y) -> list[int]:
    """B Y for A, N x n with full column rank, and Y, N x m, over the prime
    field `field`, where B A = I_n: n elements of GF(q^m) (`field.contract`).

    [A | Y] is reduced pivoting in A, so B is the first n rows of E of
    `row_reduce_transform`, and no N x N block is built.
    """
    A, Y = _int_matrix(field, A), _int_matrix(field, Y)
    rows, cols = A.shape
    if rows < cols:
        raise SingularMatrixError("left inverse requires rows >= cols")
    if len(Y) != rows:
        raise ParameterError(f"rhs has {len(Y)} rows, expected {rows}")
    aug, pivots = _reduce_beside(field, A, Y)
    if len(pivots) != cols:
        raise SingularMatrixError(f"matrix has column rank {len(pivots)} < {cols}")
    return field.contract(aug[:cols], cols, cols + Y.shape[1])


def kernel_vector(field, A):
    """`kernel_vector_of_rows` of the matrix A, read by the field."""
    A = _int_matrix(field, A)
    return kernel_vector_of_rows(field, field.pack(A), A.shape[1])


def kernel_vector_of_rows(field, R: list, cols: int):
    """The kernel vector of the rows R, in `field`'s row form, of `cols`
    columns, taken as given and reduced in place: 1 in the first free
    column, the first c with pivots[c] != c (else the rank), 0 in the
    later ones and minus that column at the pivots; None at full rank."""
    pivots = _rref_in_place(field, R, cols)
    free = next((c for c, p in enumerate(pivots) if p != c), len(pivots))
    if free == cols:
        return None
    v = [0] * cols
    v[free] = 1
    for p, x in zip(pivots, field.column(R, free)):
        v[p] = field.neg(x)
    return v


# ----------------------------------------------------------------------
# Products
# ----------------------------------------------------------------------

def matmul(field, A, B) -> list[list[int]]:
    """A B over `field`, one `field.dot` per entry; A and B read by the field."""
    A, B = _int_matrix(field, A), _int_matrix(field, B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != len(B):
        ra, rb = ("x".join(map(str, M.shape)) for M in (A, B))
        raise ParameterError(f"cannot multiply {ra} by {rb}")
    dot, cols = field.dot, B.T.tolist()
    return [[dot(row, col) for col in cols] for row in A.tolist()]


def matvec(field, A, v) -> list[int]:
    """A v over `field`, one `field.dot` per row.  A base-field A applies to
    packets as is: its entries < q are the constant polynomials, and
    expand(A v) = A expand(v).
    """
    if isinstance(A, np.ndarray):
        A = A.tolist()
    cols = len(A[0]) if A else 0
    if cols != len(v):
        raise ParameterError(f"cannot multiply {len(A)}x{cols} by {len(v)}x1")
    dot = field.dot
    return [dot(row, v) for row in A]


class LinearMap:
    """A fixed GF(q)-linear map of lists of GF(q^m) elements, given by its
    base-field matrix W, (a m) x (b m): x of a elements goes to the b
    elements whose expansion is expand(x) W mod q.  Given instead the
    a x b matrix rows over GF(q^m), it is u -> rows^T u, an encoder, and W
    is `_combination_matrix`'s.  x must hold elements of F: at q = 2 they
    index tables unchecked.  Rows are taken as given.

    It runs the float64 product expand(x) W mod q, exact while the sums
    a m (q - 1)^2 stay below 2^53, as they do for a <= m at every order up
    to FIELD_LIMIT; a map given by rows runs `matvec` instead on its first
    application and builds W on its second.  At q = 2 its second
    application builds, and every later one reads, one table per chunk of
    each input element, its low 8 bits and, when m > 8, its high ones:
    entry v is the XOR of the rows of W that v's bits select, packed as
    one Python int in which output element l takes bytes l w to
    l w + w - 1, w = 1 when m <= 8, else 2.
    Then x W is one lookup and one XOR per chunk, and the outputs are the
    int's bytes (the method of Four Russians).  A map applied once, such
    as those of a code built for one decode, builds no tables.
    """

    def __init__(self, F, W=None, rows=None):
        self.F = F
        self._W, self._rows = W, rows  # one of them given
        self._width = 1 if F.m <= 8 else 2  # bytes per output element
        self._applied = False
        self._tables = None

    @cached_property
    def W(self):
        """The base-field matrix, float64; a map given by rows builds it here."""
        if self._W is None:
            self._W = _combination_matrix(self.F, np.array(self._rows, dtype=np.int64))
        return np.asarray(self._W, dtype=np.float64)

    def __call__(self, x) -> list[int]:
        if self._tables is None:
            F = self.F
            if self._applied and F.q == 2:
                self._tables = self._build_tables()
            elif not self._applied and self._rows is not None:
                self._applied = True
                return matvec(F, transpose(self._rows), x)
            else:
                self._applied = True
                # exact integers, few of them: an int64 % takes fewer calls
                # than mod's float64 rule
                D = mod((expand(F, x).reshape(-1) @ self.W).astype(np.int64), F.q)
                return (D.reshape(-1, F.m) @ F.digit_weights).tolist()
        if self._width == 2:
            x = [c for a in x for c in (a & 255, a >> 8)]
        acc = 0
        for T, c in zip(self._tables, x):
            acc ^= T[c]
        out = acc.to_bytes(self._bytes, "little")
        return list(out) if self._width == 1 else np.frombuffer(out, "<u2").tolist()

    def _build_tables(self):
        """The tables, one per chunk, in input order."""
        m = self.F.m
        self._bytes = self._width * self.W.shape[1] // m  # of the packed output
        W = self.W.astype(np.uint8).reshape(len(self.W), -1, m)
        W = np.pad(W, ((0, 0), (0, 0), (0, 8 * self._width - m)))
        rows, tables = _GF2.pack(W.reshape(len(W), -1)), []
        for j in range(0, len(rows), m):
            for s in range(0, m, 8):
                T = [0]
                for row in rows[j + s: j + min(s + 8, m)]:
                    T += [v ^ row for v in T]
                tables.append(T)
        return tables


def _combination_matrix(F, rows):
    """The (K m) x (n m) base-field matrix W with expand(u . rows) =
    expand(u) W for the K x n int64 array rows over GF(q^m): row (i, d)
    expands g x^d for the entries g of row i."""
    K, n = rows.shape
    W = expand(F, F.vmul(rows[:, None], F.digit_weights[:, None]))  # (K, m, n, m)
    return W.reshape(K * F.m, n * F.m)



# ----------------------------------------------------------------------
# The vector <-> matrix identification
# ----------------------------------------------------------------------

def expand(F, v) -> np.ndarray:
    """Column vector over GF(q^m) -> n x m matrix over GF(q); a stack of
    vectors (..., n) -> (..., n, m).  At q = 2 the digits are the low m
    bits, unpacked from each entry's two low bytes (m <= 16)."""
    v = np.asarray(v)
    if v.size and v.dtype.kind != "i":  # int64, the decoder's, passes at once
        if v.dtype.kind not in "bu":  # a float, None, or past uint64
            raise ParameterError("vector entries must be integers")
        if v.max() > np.iinfo(np.int64).max:  # as int64 it would wrap
            raise ParameterError("vector entries must be below 2^63")
    v = v.astype(np.int64, copy=False)[..., None]
    if F.q == 2:
        low = v.astype("<u2").view(np.uint8)
        return np.unpackbits(low, axis=-1, count=F.m, bitorder="little").astype(np.int64)
    return mod(v // F.digit_weights, F.q)


def contract(F, M):
    """The inverse of expand: a list for one n x m matrix, an int64 array
    (..., n) for a stack (..., n, m).  Exact in int64: q^m <= FIELD_LIMIT."""
    D = F.base.read(M, "digit matrix")
    if D.ndim < 2 or D.shape[-1] != F.m:
        raise ParameterError(f"expected an n x {F.m} matrix, got shape {D.shape}")
    if (D != M).any():  # read reduced a digit out of range
        raise ParameterError(f"entries must be digits of GF({F.q})")
    x = D @ F.digit_weights
    return x.tolist() if D.ndim == 2 else x


def span(F, rows, idx):
    """The combinations U . rows over GF(q^m) for the messages U with
    itertools.product indices idx: returns (U, expand(U . rows)), an int64
    (B, K) array and a (B, n, m) stack.

    One product over GF(q): expand(g u) = expand(u) M_g, where row i of
    M_g expands g x^i, so expand(U . rows) is expand(U) times the block
    matrix of the M_g for the entries g of rows, read by `F.read`.
    """
    rows = _int_matrix(F, rows)
    if rows.ndim != 2:
        raise ParameterError(f"rows must be a matrix, got shape {rows.shape}")
    K, n = rows.shape
    idx = np.asarray(idx, dtype=np.int64)
    U = idx[:, None] // F.order ** np.arange(K - 1, -1, -1, dtype=np.int64) % F.order
    # one float64 product, exact: its sums stay <= K m (q - 1)^2 < 2^53,
    # as int64 indices the order^K messages, so K m log2 q < 63
    E = (expand(F, U).reshape(len(U), K * F.m).astype(np.float64)
         @ _combination_matrix(F, rows).astype(np.float64))
    return U, mod(E, F.q).reshape(len(U), n, F.m)


# ----------------------------------------------------------------------
# GF(2) fast path: a row is a bitmask, a matrix a tuple of bitmasks
# ----------------------------------------------------------------------

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
    rows, cols = read_count(rows, "rows", 1), read_count(cols, "cols", 1)
    target = min(rows, cols)
    while True:
        M = random_matrix(field, rows, cols, rng)
        if rank(field, M) == target:
            return M


def iter_rref_full_row_rank(q: int, r: int, c: int):
    """All r x c RREF matrices of rank r (one per r-dim subspace of Fq^c)."""
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


# About the matrices of one `iter_rank_blocks` block (at least one C times
# every RREF), and so the most candidates `_full_col_rank_stacks` ranks
# at a time.
_ENUM_CHUNK = 1 << 14


def _full_col_rank_stacks(q: int, rows: int, r: int, per: int):
    """Every rows x r matrix over GF(q) with linearly independent columns,
    as int64 stacks (b <= per, rows, r), lexicographic in the columns.

    Candidates are enumerated by index, column 0 and in it row 0 the
    most significant digit, `per` at a time, and kept when of rank r, at
    least a fraction prod_i (1 - q^(i - rows)) >= 0.288.  At q = 2 column
    c is the bit field c of the index, ranked as a row bitmask by
    `_rank_gf2_stack`, and only the kept indices become matrices; at odd q
    `_rref_stack` ranks their transposes, of r <= rows rows.
    """
    field = PrimeField(q)
    total = q ** (rows * r)
    if total > 1 << 63:
        raise ParameterError(f"{total} candidate {rows} x {r} matrices exceed int64")
    bits = np.arange(rows * r - 1, -1, -1, dtype=np.int64)
    shifts = rows * np.arange(r - 1, -1, -1, dtype=np.int64)[:, None]
    for lo in range(0, total, per):
        idx = np.arange(lo, min(lo + per, total), dtype=np.int64)
        if q == 2:
            idx = idx[_rank_gf2_stack((idx >> shifts) & ((1 << rows) - 1)) == r]
            Ct = ((idx[:, None] >> bits) & 1).reshape(-1, r, rows)
        else:  # C^T, of r <= rows rows, ranked
            Ct = mod(idx[:, None] // q ** bits, q).reshape(-1, r, rows)
            Ct = Ct[_rref_stack(field, Ct.transpose(1, 2, 0))[2] == r]
        if len(Ct):
            yield Ct.transpose(0, 2, 1)


# Every enumeration of at most _ENUM_CHUNK matrices that `iter_rank_blocks`
# has made, as one read-only block, by (q, rows, cols, ranks).
_RANK_BLOCKS: dict = {}


def iter_rank_blocks(q: int, rows: int, cols: int, ranks):
    """All rows x cols matrices whose rank is in `ranks`, each exactly once,
    as int64 blocks (b, rows, cols): rank by rank in the order given.

    Every rank-r matrix factors uniquely as C @ R with C full column
    rank and R in RREF with full row rank, and ranks above min(rows,
    cols) have no matrices.  An enumeration of at most _ENUM_CHUNK
    matrices in all is built once per process and kept as one read-only
    block (none when it is empty).  A larger one streams, built afresh on
    every call and never kept: each block is one broadcast product of a
    stack of C's, from `_full_col_rank_stacks`, with the stack of every
    R, C-major, and holds at most max(1, _ENUM_CHUNK // #R) C's.
    """
    ranks = tuple(ranks)
    if sum(count_rank_exactly(q, rows, cols, r) for r in ranks) > _ENUM_CHUNK:
        return _rank_blocks(q, rows, cols, ranks)
    key = (q, rows, cols, ranks)
    if key not in _RANK_BLOCKS:
        blocks = list(_rank_blocks(q, rows, cols, ranks))
        _RANK_BLOCKS[key] = (np.concatenate(blocks),) if blocks else ()
        for block in _RANK_BLOCKS[key]:
            block.setflags(write=False)
    return iter(_RANK_BLOCKS[key])


def _rank_blocks(q: int, rows: int, cols: int, ranks):
    """The blocks of `iter_rank_blocks`, built as they are drawn."""
    for r in ranks:
        if r == 0:
            yield np.zeros((1, rows, cols), dtype=np.int64)
        elif r <= min(rows, cols):
            rrefs = np.array(list(iter_rref_full_row_rank(q, r, cols)), dtype=np.int64)
            per = max(1, _ENUM_CHUNK // len(rrefs))
            for Cs in _full_col_rank_stacks(q, rows, r, per):
                yield mod(Cs[:, None] @ rrefs[None], q).reshape(-1, rows, cols)


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
