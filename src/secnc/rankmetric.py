"""Gabidulin codes and rank-metric decoding.

A codeword is a column vector over GF(q^m); its rank weight is the rank
of the n x m base-field matrix obtained by expanding each entry to its
coefficient row.  Gabidulin codes with evaluation points g_0..g_{n-1}
(linearly independent over GF(q), so m >= n) attain the rank-metric
Singleton bound: minimum distance n - k + 1.

Error decoding is by linearized-polynomial reconstruction: find a
nonzero pair (V, N) with V(y_j) = N(g_j) for all j, where V has
q-degree <= t and N has q-degree <= t + k - 1.  When y is within rank
distance t of a codeword f(g), every nonzero solution satisfies
N = V o f, so the message polynomial f falls out of symbolic left
division.  The final re-encode check rejects anything outside the
promised radius, so a wrong message is never returned silently.  This
is the Welch-Berlekamp-like reconstruction of P. Loidreau, "A
Welch-Berlekamp like algorithm for decoding Gabidulin codes" (WCC 2005).

`decode` handles one word with scalar field operations; `decode_stack`
takes the same steps on a whole (B, n) stack of words with the fields'
vector operations and `linalg._rref_stack`, for the exhaustive audits.
Every nonzero interpolation solution yields the same message when a
codeword lies within the radius, and the re-encode check settles the
rest, so the two agree row for row; the scalar decoder stays as the
cross-check of the stack one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import (
    BudgetExceededError,
    InconsistentSystemError,
    ParameterError,
    UnderdeterminedSystemError,
)
from .gf import ExtField, PrimeField

# Cap on exhaustive codeword/pair enumeration; callers may raise it.
DEFAULT_ENUM_BUDGET = 1 << 20

# The reason of every failed error decode.
DECODE_FAILURE = "no codeword within rank radius"


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of a decoding attempt.

    On success `message` holds the recovered column of k elements and
    `error_rank` the rank of the error actually removed (None for
    erasure decoding, where no additive error is present).
    """

    ok: bool
    message: tuple | None = None
    error_rank: int | None = None
    reason: str = ""

    @staticmethod
    def success(message, error_rank=None):
        return DecodeOutcome(True, tuple(int(x) for x in message), error_rank)

    @staticmethod
    def failure(reason: str):
        return DecodeOutcome(False, None, None, reason)


class GabidulinCode:
    """[n, k] Gabidulin code over GF(q^m) with evaluation points g.

    The full n x n Moore matrix of the points (row i holds the q^i-th
    Frobenius powers) is precomputed; the generator is its top k rows
    and the secrecy layer slices other consecutive row bands.
    """

    def __init__(self, F: ExtField, n: int, k: int, g=None):
        if n < 1 or not 0 < k <= n:
            raise ParameterError(f"need 0 < k <= n >= 1, got n={n}, k={k}")
        if F.m < n:
            raise ParameterError(
                f"Gabidulin construction needs m >= n, got m={F.m}, n={n}"
            )
        if g is None:
            g = [F.pow(F.x, i) for i in range(n)] if F.m > 1 else [1]
        g = [F.check(int(x)) for x in g]
        if len(g) != n:
            raise ParameterError(f"expected {n} evaluation points, got {len(g)}")
        if la.vector_rank(F, g) != n:
            raise ParameterError(
                "evaluation points must be linearly independent over the base field"
            )
        self.F = F
        self.n = n
        self.k = k
        self.g = tuple(g)
        self.d = n - k + 1
        # moore[i][j] = g_j^(q^i), i = 0..n-1
        self.moore = [list(g)]
        for _ in range(n - 1):
            self.moore.append([F.frobenius(x) for x in self.moore[-1]])
        self._Gt = la.transpose(self.moore[:k])
        self._H = None
        self._table = None

    def generator_matrix(self) -> list[list[int]]:
        return [row[:] for row in self.moore[: self.k]]

    def generator_rows(self, start: int, stop: int) -> list[list[int]]:
        """Rows start..stop-1 of the Moore matrix (a consecutive-row subcode)."""
        if not 0 <= start < stop <= self.n:
            raise ParameterError(f"bad row band [{start}, {stop})")
        return [row[:] for row in self.moore[start:stop]]

    def parity_check_matrix(self) -> list[list[int]]:
        """(n-k) x n matrix H with H c = 0 exactly on codewords."""
        if self._H is None:
            self._H = la.null_space(self.F, self.generator_matrix())
        return [row[:] for row in self._H]

    def contains(self, y) -> bool:
        H = self.parity_check_matrix()
        return all(v == 0 for v in la.matvec(self.F, H, [int(x) for x in y]))

    def encode(self, u) -> list[int]:
        """Codeword G^T u as a column of n elements."""
        u = [self.F.check(int(x)) for x in u]
        if len(u) != self.k:
            raise ParameterError(f"message length {len(u)} != k = {self.k}")
        return la.matvec(self.F, self._Gt, u)

    def iter_codewords(self, budget: int = DEFAULT_ENUM_BUDGET):
        total = self.F.order ** self.k
        if total > budget:
            raise BudgetExceededError(total, budget, "codeword enumeration")
        for u in itertools.product(range(self.F.order), repeat=self.k):
            yield u, self.encode(u)

    def codeword_table(self, budget: int = DEFAULT_ENUM_BUDGET):
        """The cached full codebook: ([messages], array of codeword symbols).

        Feeds exhaustive searches; one encode pass regardless of how many
        queries follow.
        """
        total = self.F.order ** self.k
        if total > budget:
            raise BudgetExceededError(total, budget, "codeword enumeration")
        if self._table is None:
            msgs, words = [], []
            for u, c in self.iter_codewords(budget):
                msgs.append(u)
                words.append(c)
            self._table = (msgs, np.array(words, dtype=np.int64))
        return self._table

    # -- decoding -------------------------------------------------------

    def decode(self, y, t: int) -> DecodeOutcome:
        """Correct up to t rank errors; requires 2t <= n - k.

        Returns a failure outcome when no codeword lies within rank
        distance t of y.
        """
        F = self.F
        y = [F.check(int(v)) for v in y]
        if len(y) != self.n:
            raise ParameterError(f"received word length {len(y)} != n = {self.n}")
        self._check_radius(t)
        # interpolation system: V(y_j) = N(g_j), unknowns (v_0..v_t,
        # n_0..n_{k+t-1}) as one homogeneous row per position
        rows = []
        for j in range(self.n):
            row = [F.frobenius(y[j], i) for i in range(t + 1)]
            row += [F.neg(self.moore[l][j]) for l in range(self.k + t)]
            rows.append(row)
        sol = la.kernel_vector(F, rows)
        if sol is None:
            return DecodeOutcome.failure(DECODE_FAILURE)
        v = sol[: t + 1]
        nn = sol[t + 1 :]
        u = self._divide_left(v, nn)
        if u is None:
            return DecodeOutcome.failure(DECODE_FAILURE)
        c = self.encode(u)
        residual = [F.sub(a, b) for a, b in zip(y, c)]
        r = la.vector_rank(F, residual)
        if r > t:
            return DecodeOutcome.failure(DECODE_FAILURE)
        return DecodeOutcome.success(u, r)

    def _check_radius(self, t: int) -> None:
        if t < 0 or 2 * t > self.n - self.k:
            raise ParameterError(
                f"t = {t} exceeds the unique-decoding radius (2t <= n-k = "
                f"{self.n - self.k})"
            )

    def decode_stack(self, Y, t: int):
        """`decode` of every row of the (B, n) array Y of received words.

        Returns (ok, messages, error_ranks): bool (B,), int64 (B, k) and
        int64 (B,) arrays; a row that fails has a zero message and error
        rank -1.  A field without tables decodes row by row with `decode`.
        """
        F, n, k = self.F, self.n, self.k
        Y = np.array(Y, dtype=np.int64)
        if Y.ndim != 2 or Y.shape[1] != n:
            raise ParameterError(f"expected received words of length n = {n}, "
                                 f"got an array of shape {Y.shape}")
        self._check_radius(t)
        if ((Y < 0) | (Y >= F.order)).any():
            raise ParameterError(f"received words must hold elements of "
                                 f"GF({F.q}^{F.m})")
        B = len(Y)
        if not F.vectorised:
            outs = [self.decode(y, t) for y in Y.tolist()]
            return (np.array([o.ok for o in outs], dtype=bool),
                    np.array([o.message or (0,) * k for o in outs],
                             dtype=np.int64).reshape(B, k),
                    np.array([o.error_rank if o.ok else -1 for o in outs],
                             dtype=np.int64))
        moore = np.array(self.moore, dtype=np.int64)
        ar = np.arange(B)
        # 1. interpolation rows [y_j^(q^i), i <= t | -g_j^(q^l), l < k + t]
        interp = np.concatenate(
            [F.vfrobenius(Y[:, :, None], np.arange(t + 1)),
             np.broadcast_to(F.vneg(moore[: k + t].T), (B, n, k + t))], axis=2)
        # 2. the kernel vector of the first free column, as null_space's first
        R, pivots, rank = la._rref_stack(F, interp)
        free = ~pivots
        ok = free.any(axis=1)
        first = free.argmax(axis=1)
        sol = np.zeros(pivots.shape, dtype=np.int64)
        sol[ar, first] = 1
        lead = (R != 0).argmax(axis=2)  # each row's pivot column
        for i in range(n):
            live = ar[i < rank]
            sol[live, lead[live, i]] = F.vneg(R[live, i, first[live]])
        v, nn = sol[:, : t + 1], sol[:, t + 1:]
        # 3. _divide_left with each row's tau, the q-degree of V
        ok &= (v != 0).any(axis=1)
        tau = np.where(v != 0, np.arange(t + 1), 0).max(axis=1)
        lead_inv = F.vinv(np.where(ok, v[ar, tau], 1))
        f = np.zeros((B, k), dtype=np.int64)
        for d in range(k - 1, -1, -1):
            acc = nn[ar, d + tau]
            for l in range(d + 1, k):
                i = d + tau - l  # < 0 where l is past min(k, d + tau + 1)
                j = np.maximum(i, 0)
                term = F.vmul(v[ar, j], F.vfrobenius(f[:, l], j))
                acc = F.vsub(acc, np.where(i >= 0, term, 0))
            f[:, d] = F.vfrobenius(F.vmul(acc, lead_inv), (F.m - tau) % F.m)
        # 4. re-encode; 5. the residual's rank over the base field
        residual = Y
        for l in range(k):
            residual = F.vsub(residual, F.vmul(moore[l], f[:, l : l + 1]))
        _, _, r = la._rref_stack(F.base, la.expand(F, residual))
        ok &= r <= t
        return ok, np.where(ok[:, None], f, 0), np.where(ok, r, -1)

    def _divide_left(self, v, nn):
        """f of q-degree < k from the top k coefficients of V o f = N; None
        when V is zero.  Exact whenever a codeword lies within the radius;
        otherwise decode's re-encode check rejects f."""
        F = self.F
        tau = max((i for i, x in enumerate(v) if x), default=None)
        if tau is None:
            return None
        lead_inv = F.inv(v[tau])
        f = [0] * self.k
        for d in range(self.k - 1, -1, -1):
            acc = nn[d + tau]
            for l in range(d + 1, min(self.k, d + tau + 1)):
                i = d + tau - l
                if v[i] and f[l]:
                    acc = F.sub(acc, F.mul(v[i], F.frobenius(f[l], i)))
            f[d] = F.frobenius(F.mul(acc, lead_inv), (F.m - tau) % F.m)
        return f

    def erasure_decode(self, A_prime, y_prime, rho: int) -> DecodeOutcome:
        """Recover u from A' G^T u = y' when A' lost rho of its n rows.

        A' is a full-rank (n - rho) x n base-field matrix.  Injectivity
        holds because two preimages would differ by a codeword of rank
        at most rho <= n - k < d.
        """
        F = self.F
        A_prime = la.to_lists(A_prime)
        ar, ac = la.dims(A_prime)
        if rho < 0 or rho > self.n - self.k:
            raise ParameterError(f"rho = {rho} exceeds n - k = {self.n - self.k}")
        if ar != self.n - rho or ac != self.n:
            raise ParameterError(
                f"expected a {self.n - rho} x {self.n} matrix, got {ar} x {ac}"
            )
        if la.rank(F.base, A_prime) != self.n - rho:
            raise ParameterError("A' must have full row rank")
        y_prime = [F.check(int(v)) for v in y_prime]
        if len(y_prime) != ar:
            raise ParameterError(f"received word length {len(y_prime)} != {ar}")
        # (A' G^T) u = y' over the extension field; A' embeds entrywise
        M = la.matmul(F, A_prime, self._Gt)
        try:
            u = la.rref_solve(F, M, y_prime)
        except InconsistentSystemError:
            return DecodeOutcome.failure("received word outside the code image")
        except UnderdeterminedSystemError:
            # unreachable when the preconditions hold (A' G^T is injective)
            return DecodeOutcome.failure("erasure system underdetermined")
        return DecodeOutcome.success(u)

    def __repr__(self):
        return (
            f"GabidulinCode(n={self.n}, k={self.k}, q={self.F.q}, m={self.F.m})"
        )


def singleton_bound(n: int, m: int, d: int, q: int) -> int:
    """Largest cardinality of a length-n code over GF(q^m) with rank distance d."""
    if not 1 <= d <= min(n, m):
        raise ParameterError(f"need 1 <= d <= min(n, m) = {min(n, m)}, got d={d}")
    return q ** (max(n, m) * (min(n, m) - d + 1))


def min_rank_distance_exhaustive(matrices, q: int, *,
                                 budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Exact minimum rank distance over all distinct pairs.

    `matrices` is a sequence of equal-shape base-field matrices.  The
    pairwise oracle for `min_rank_weight`: it assumes no linearity.
    Refuses (rather than samples) when the required rank computations
    exceed the budget.
    """
    mats = [la.to_lists(M) for M in matrices]
    if len(mats) < 2:
        raise ParameterError("need at least two matrices")
    field = PrimeField(q)
    needed = len(mats) * (len(mats) - 1) // 2
    if needed > budget:
        raise BudgetExceededError(needed, budget, "pairwise rank computations")
    best = None
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            d = la.rank(field, la.mat_sub(field, mats[i], mats[j]))
            if best is None or d < best:
                best = d
                if best == 0:
                    return 0
    return best


def min_rank_weight(F: ExtField, rows, budget: int = DEFAULT_ENUM_BUDGET):
    """Least rank weight of a nonzero vector in the span of `rows`, by
    enumeration stopping at weight 1; None when the span is zero.
    """
    total = F.order ** len(rows)
    if total > budget:
        raise BudgetExceededError(total, budget, "codeword enumeration")
    cols = la.transpose(rows)
    best = None
    for u in itertools.product(range(F.order), repeat=len(rows)):
        r = la.vector_rank(F, la.matvec(F, cols, u))
        if r and (best is None or r < best):
            best = r
            if best == 1:
                break
    return best


def code_min_rank_distance(code: GabidulinCode,
                           budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Minimum rank distance of a Gabidulin code by full enumeration."""
    return min_rank_weight(code.F, code.generator_matrix(), budget)
