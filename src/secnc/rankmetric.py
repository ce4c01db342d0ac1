"""Gabidulin codes and rank-metric decoding.

A codeword is a column vector over GF(q^m); its rank weight is the rank
of the n x m base-field matrix obtained by expanding each entry to its
coefficient row.  Gabidulin codes with evaluation points g_0..g_{n-1}
(linearly independent over GF(q), so m >= n; by default the monomials
x^i, the ints q^i, i < n) attain the rank-metric Singleton bound:
minimum distance n - k + 1.

Error decoding is by linearized-polynomial reconstruction: find a
nonzero pair (V, N) with V(y_j) = N(g_j) for all j, where V has
q-degree <= t and N has q-degree <= t + k - 1.  When y is within rank
distance t of a codeword f(g), every nonzero solution satisfies
N = V o f, so the message polynomial f falls out of symbolic left
division.  The final re-encode check rejects anything outside the
promised radius, so a wrong message is never returned silently.  This
is the Welch-Berlekamp-like reconstruction of P. Loidreau, "A
Welch-Berlekamp like algorithm for decoding Gabidulin codes" (WCC 2005).

The interpolation system Yf v = M nn, with Yf_ji = y_j^(q^i) (i <= t)
and the constant Moore block M_jl = g_j^(q^l) (l < k + t), splits by an
E with E M = [I; 0] (M has full column rank) into E_bot Yf v = 0 and
nn = E_top Yf v; the kernels correspond one to one.  E depends only on
t, so each code reduces M once per radius (`linalg.row_reduce_transform`)
and caches E.  Both decoders then eliminate only the
(n - k - t) x (t + 1) block P_bot of P = E Yf and take its kernel vector
by one rule: 1 in the first free column, the first c whose pivot is not
c, 0 in the later ones, and minus that column at the pivots
(`linalg.kernel_vector_of_rows`, on the rows of P that `decode` built;
`decode_stack` reads the pivots from the leads of `linalg._rref_stack`).
So V is never zero (`_divide_left` needs it nonzero), and it is e_0
when P_bot has no rows (k + t = n).  P is GF(q)-linear in y, as
Frobenius is, so `decode` caches, from its first call at a radius, the
`linalg.LinearMap` y -> P of base-field matrix W_t, then uses scalar
field operations; its re-encode G^T u is the code's `linalg.LinearMap`
too, which `encode` and a `scheme.SchemeInstance` built on the code
share.  The first application of y -> P is one float64 product
expand(y) W_t mod q, that of the re-encode a `matvec`; at q = 2 a map's
second application builds byte tables and every later one is a lookup
and an XOR per input byte.  A code built for one decode, as the
erasure path builds one, so never pays for tables.  `decode_stack`
accumulates P for a (B, n) stack of words with the fields' vector
operations and eliminates with `linalg._rref_stack`, for the audits,
whose stacks span their phases (a product with W_t would take ~270 MB
for 2^14 words at m = 16); it never builds W_t.  It works in the (..., B) layout, the batch axis last: the
words as (n, B) and every later array (Yf, P, the reduced P_bot, v, nn,
f, the residual) with B as its trailing axis, so that each step is one
elementwise pass over the batch, not many passes over axes of length
t + 1.  Both rank the residual with `linalg.vector_rank`, which at q = 2
eliminates the element ints as row bitmasks.  The two compute P
independently, take the same kernel vector and agree row for row, so
`decode_stack` checks W_t.  Their oracles are independent of the split:
`audit.brute_force_decode`, a nearest-codeword search over the codebook,
and, in the tests, the full n x (2t + k + 1) system reduced as it stands.

The codebook enumerates the messages' combinations of the generator rows
with `linalg.span`, in bounded chunks; the certificates of the distance
d = n - k + 1 and of Proposition 1 are the tests' and enumerate the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg as la
from .errors import ParameterError, check_budget, read_count
from .gf import ExtField

# Cap on an exhaustive enumeration; callers may raise it.
DEFAULT_ENUM_BUDGET = 1 << 20

# Combinations per `linalg.span` call: bounds a stack's memory.
_SPAN_CHUNK = 1 << 14

# The reason of every failed error decode.
DECODE_FAILURE = "no codeword within rank radius"


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of a decoding attempt.

    On success `message` holds the recovered column of k elements and
    `error_rank` the rank of the error actually removed; `error_rank` is
    None only on failure.
    """

    ok: bool
    message: tuple | None = None
    error_rank: int | None = None
    reason: str = ""

    @staticmethod
    def success(message, error_rank: int):
        return DecodeOutcome(True, tuple(int(x) for x in message), error_rank)

    @staticmethod
    def failure(reason: str):
        return DecodeOutcome(False, None, None, reason)

    @staticmethod
    def stack(outs, k: int):
        """The outcomes as `GabidulinCode.decode_stack` returns a stack:
        (ok, messages, error_ranks) arrays, a failure as a zero message of
        length k and error rank -1."""
        return (np.array([o.ok for o in outs], dtype=bool),
                np.array([o.message or (0,) * k for o in outs],
                         dtype=np.int64).reshape(len(outs), k),
                np.array([o.error_rank if o.ok else -1 for o in outs],
                         dtype=np.int64))


class GabidulinCode:
    """[n, k] Gabidulin code over GF(q^m) with evaluation points g.

    The full n x n Moore matrix of the points (row i holds the q^i-th
    Frobenius powers) is precomputed; the generator is its top k rows.
    Any band of consecutive rows of `moore` generates an MRD code too;
    the scheme's secrecy rows are such a band, which `SchemeInstance`
    takes directly as G0[k:] of its outer generator.
    """

    def __init__(self, F: ExtField, n: int, k: int, g=None):
        n = read_count(n, "n", 1)
        k = read_count(k, "k", 1, n)
        if F.m < n:
            raise ParameterError(
                f"Gabidulin construction needs m >= n, got m={F.m}, n={n}"
            )
        if g is None:
            g = [F.q ** i for i in range(n)]  # x^i, i < n <= m
        g = F.elements_of(g, "evaluation points")
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
        self._table = None
        self._splits = {}  # t -> E as an int64 array
        self._w = {}  # t -> the map y -> E Yf, of matrix W_t, for decode only

    def generator_matrix(self) -> list[list[int]]:
        return [row[:] for row in self.moore[: self.k]]

    def encode(self, u) -> list[int]:
        """Codeword G^T u as a column of n elements."""
        u = self.F.elements_of(u, "message entries")
        if len(u) != self.k:
            raise ParameterError(f"message length {len(u)} != k = {self.k}")
        return self._encoder(u)

    @cached_property
    def _encoder(self):
        """The map u -> G^T u, for encode and decode's re-encode."""
        return la.LinearMap(self.F, rows=self.moore[: self.k])

    def codeword_table(self, budget: int = DEFAULT_ENUM_BUDGET):
        """The cached full codebook: ([messages], array of codeword symbols),
        messages in itertools.product order.

        Feeds exhaustive searches; built once by `linalg.span` regardless of
        how many queries follow.
        """
        F = self.F
        total = F.order ** self.k
        check_budget(total, budget, "codeword enumeration")
        if self._table is None:
            G = self.generator_matrix()
            msgs, words = [], []
            for lo in range(0, total, _SPAN_CHUNK):
                U, E = la.span(F, G, np.arange(lo, min(lo + _SPAN_CHUNK, total)))
                msgs += map(tuple, U.tolist())
                words.append(la.contract(F, E))
            self._table = (msgs, np.concatenate(words))
        return self._table

    # -- decoding -------------------------------------------------------

    def decode(self, y, t: int) -> DecodeOutcome:
        """Correct up to t rank errors; requires 2t <= n - k.

        Returns a failure outcome when no codeword lies within rank
        distance t of y.  P = E Yf is the cached map of matrix W_t (module
        docstring); v is P_bot's kernel vector and nn = P_top v.
        """
        F, n, k = self.F, self.n, self.k
        y = F.elements_of(y, "received word entries")  # a table index at q = 2
        if len(y) != n:
            raise ParameterError(f"received word length {len(y)} != n = {n}")
        t = read_count(t, "t", 0, (n - k) // 2)
        if t not in self._w:
            self._w[t] = la.LinearMap(F, self._w_t(t))
        P = self._w[t](y)  # E Yf, row by row
        P = [P[i: i + t + 1] for i in range(0, n * (t + 1), t + 1)]  # handed on unread
        v = la.kernel_vector_of_rows(F, P[k + t:], t + 1)  # e_0 when P_bot has no rows
        if v is None:
            return DecodeOutcome.failure(DECODE_FAILURE)
        u = self._divide_left(v, la.matvec(F, P[: k + t], v))
        c = self._encoder(u)
        residual = [F.sub(a, b) for a, b in zip(y, c)]
        r = la.vector_rank(F, residual)
        if r > t:
            return DecodeOutcome.failure(DECODE_FAILURE)
        return DecodeOutcome.success(u, r)

    def _split(self, t: int):
        """E, int64, cached per t: E M = [I; 0] for the n x (k + t) Moore
        block M_jl = g_j^(q^l)."""
        if t not in self._splits:
            M = la.transpose(self.moore[: self.k + t])
            self._splits[t] = np.array(la.row_reduce_transform(self.F, M)[0],
                                       dtype=np.int64)
        return self._splits[t]

    def _w_t(self, t: int):
        """W_t, int64 (n m) x (n (t + 1) m), the base-field matrix of
        y -> E Yf: row (j, d) expands E_lj (x^d)^(q^i) over (l, i), so
        expand(y) W_t = expand(E Yf) mod q.  `decode` keeps its
        `linalg.LinearMap` per t."""
        F, n, m = self.F, self.n, self.F.m
        E = self._split(t)
        x = F.vfrobenius(F.digit_weights[:, None], np.arange(t + 1))
        W = la.expand(F, F.vmul(E.T[:, None, :, None], x[None, :, None, :]))
        return W.reshape(n * m, -1)

    def decode_stack(self, Y, t: int):
        """`decode` of every row of the (B, n) array Y of received words.

        Returns (ok, messages, error_ranks): bool (B,), int64 (B, k) and
        int64 (B,) arrays; a row that fails has a zero message and error
        rank -1.  Y is read by the field (`gf`'s read), with `decode`'s refusals.

        Works on the (..., B) layout, the batch axis last, so that every
        step is one elementwise pass over B: Y as (n, B), Yf as
        (t + 1, n, B), P = -E Yf as (n, t + 1, B), v as (t + 1, B), and
        nn, f and the residual as (k + t, B), (k, B) and (n, B).  Takes
        the cached E of `decode` and eliminates only the bottom block
        E_bot Yf, with `linalg._rref_stack` on the (n - k - t, t + 1, B)
        block P[k + t:] as it lies, and scatters the same kernel vector v
        from its rows by their leads; nn = E_top Yf v.  E Yf is accumulated
        with vector operations, not taken from W_t (module docstring).
        """
        F, n, k = self.F, self.n, self.k
        words = F.read(Y, "received word")
        if words.ndim != 2 or words.shape[1] != n:
            raise ParameterError(f"expected received words of length n = {n}, "
                                 f"got an array of shape {words.shape}")
        t = read_count(t, "t", 0, (n - k) // 2)
        Y = np.array(words.T, order="C")
        B = Y.shape[1]
        moore = np.array(self.moore[:k], dtype=np.int64)
        ar = np.arange(B)
        # 1. P = -E Yf, accumulated with vsub; -E_bot Yf has E_bot Yf's kernel
        E = self._split(t)
        Yf = F.vfrobenius(Y, np.arange(t + 1)[:, None, None])
        P = np.zeros((n, t + 1, B), dtype=np.int64)
        for j in range(n):
            P = F.vsub(P, F.vmul(E[:, j, None, None], Yf[:, j]))
        # 2. v from the first free column of E_bot Yf, as kernel_vector's;
        # nn = E_top Yf v = -P_top v
        R, lead, _ = la._rref_stack(F, P[k + t:])
        # the leads rise: the first free column ends the run lead[i] = i
        head = lead[: t + 1]
        first = (head == np.arange(len(head))[:, None]).cumprod(axis=0).sum(axis=0)
        ok = first <= t  # else no column is free
        v = np.zeros((t + 2, B), dtype=np.int64)  # row t + 1 catches zero rows
        v[first, ar] = 1
        v[lead, ar] = F.vneg(R[:, np.minimum(first, t), ar])
        v = v[: t + 1]
        nn = np.zeros((k + t, B), dtype=np.int64)
        for i in range(t + 1):
            nn = F.vsub(nn, F.vmul(P[: k + t, i], v[i]))
        # 3. _divide_left with each word's tau, the q-degree of V
        tau = np.where(v != 0, np.arange(t + 1)[:, None], 0).max(axis=0)
        lead_inv = F.vinv(np.where(ok, v[tau, ar], 1))
        f = np.zeros((k, B), dtype=np.int64)
        for d in range(k - 1, -1, -1):
            acc = nn[d + tau, ar]
            for l in range(d + 1, k):
                i = d + tau - l  # < 0 where l is past min(k, d + tau + 1)
                j = np.maximum(i, 0)
                term = F.vmul(v[j, ar], F.vfrobenius(f[l], j))
                acc = F.vsub(acc, np.where(i >= 0, term, 0))
            f[d] = F.vfrobenius(F.vmul(acc, lead_inv), (F.m - tau) % F.m)
        # 4. re-encode; 5. the residual's rank over the base field
        residual = Y
        for l in range(k):
            residual = F.vsub(residual, F.vmul(moore[l, :, None], f[l]))
        r = la.vector_rank(F, residual.T)
        ok &= r <= t
        return ok, np.ascontiguousarray(np.where(ok, f, 0).T), np.where(ok, r, -1)

    def _divide_left(self, v, nn):
        """f of q-degree < k from the top k coefficients of V o f = N, for
        a nonzero V: the kernel vector, with a 1 in its first free column.
        Exact whenever a codeword lies within the radius; otherwise
        decode's re-encode check rejects f."""
        F = self.F
        tau = max(i for i, x in enumerate(v) if x)
        lead_inv = F.inv(v[tau])
        f = [0] * self.k
        for d in range(self.k - 1, -1, -1):
            acc = nn[d + tau]
            for l in range(d + 1, min(self.k, d + tau + 1)):
                i = d + tau - l
                acc = F.sub(acc, F.mul(v[i], F.frobenius(f[l], i)))
            f[d] = F.frobenius(F.mul(acc, lead_inv), (F.m - tau) % F.m)
        return f

    def __repr__(self):
        return (
            f"GabidulinCode(n={self.n}, k={self.k}, q={self.F.q}, m={self.F.m})"
        )
