"""Coset coding for secrecy and the combined secure error-correcting scheme.

The transmitter holds a message S of k packets, draws mu packets V of
fresh uniform randomness, and sends X = G0^T [S; V], where G0 generates
an [n, k+mu] Gabidulin code.  The last mu rows of G0 generate an
[n, mu] MRD code, which is what makes every mu-link eavesdropper's view
statistically independent of S; the outer code's distance
n-(k+mu)+1 >= 2t+1 is what lets the receiver correct injections of rank
tau and rho lost dimensions of the transfer when 2 tau + rho <= 2t.
Parameters are accepted exactly when 0 < k <= n - 2t - mu and m >= n.

Secrecy holds only if V is drawn uniformly and never reused: two
transmissions sharing V (or a biased V) leak, and no audit here will
catch misuse across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg as la
from .errors import ParameterError, SingularMatrixError, ValidationError, read_count
from .gf import ExtField
from .rankmetric import DecodeOutcome, GabidulinCode

# The most (S, V) pairs a payload table holds and stays kept: one of the
# audits' stacks.
_TABLE_LIMIT = 1 << 14


@dataclass(frozen=True)
class SchemeParams:
    """Parameter set (q, m, n, t, mu, k) with optional field/code overrides."""

    q: int
    m: int
    n: int
    t: int
    mu: int
    k: int
    modulus: tuple | None = None
    g: tuple | None = None

    def validate(self) -> None:
        """Reject invalid parameters with a named reason.

        Raises ValidationError with reason "shape" (a field that is not an
        integer, or n < 1, t < 0 or mu < 0, as `read_count` reads counts),
        "packet_length" (m < n), or "rate_bound" (k outside 1..n-2t-mu).
        """
        try:
            for name, low in dict(q=None, m=None, n=1, t=0, mu=0, k=None).items():
                read_count(getattr(self, name), name, low)
        except ParameterError as e:
            raise ValidationError("shape", str(e)) from None
        if self.m < self.n:
            raise ValidationError(
                "packet_length",
                f"packet length m = {self.m} is shorter than the batch "
                f"size n = {self.n}; the construction needs m >= n",
            )
        kmax = self.n - 2 * self.t - self.mu
        if not 1 <= self.k <= kmax:
            raise ValidationError(
                "rate_bound",
                f"message size k = {self.k} outside 1 <= k <= n - 2t - mu "
                f"= {kmax}",
            )

    @property
    def min_distance(self) -> int:
        """Designed rank distance of the outer code, n - (k+mu) + 1."""
        return self.n - self.k - self.mu + 1

    @property
    def rate_bits(self) -> float:
        return self.k * self.m * math.log2(self.q)


class SchemeInstance:
    """A built scheme: the outer code and its generator split.

    Immutable after construction.  `broken` marks the deliberately
    non-MRD negative-control variant, on which only encoding (and hence
    the secrecy audit) is meaningful.  It caches its encoder, the
    `linalg.LinearMap` u -> G0^T u (the outer code's own when G0 is its
    generator), and its payload table (`payload_table`), built on first
    use and read-only, when it has at most _TABLE_LIMIT pairs.
    """

    def __init__(self, params: SchemeParams, F: ExtField, code, G0,
                 broken: bool = False):
        self.params = params
        self.F = F
        self.code = code
        self.G0 = [list(r) for r in G0]
        self.broken = broken
        self._G0t = la.transpose(self.G0)
        self._payloads = None

    def payload_table(self):
        """All q^(m(k+mu)) payload expansions G0^T u, a (pairs, n, m) stack
        indexed by the (S, V) grid in itertools.product order, and the S of
        each as an int64 (pairs, k) array; one `linalg.span`, both arrays
        read-only.

        Kept from the first call when it has at most _TABLE_LIMIT pairs; a
        larger one is built on every call, so its size is the caller's to
        bound (the audits check their budgets first).
        """
        if self._payloads is not None:
            return self._payloads
        p = self.params
        U, payloads = la.span(self.F, self.G0, np.arange(self.F.order ** (p.k + p.mu)))
        table = (payloads, U[:, : p.k])
        for a in table:
            a.setflags(write=False)
        if len(U) <= _TABLE_LIMIT:
            self._payloads = table
        return table

    # -- encoding ---------------------------------------------------------

    def encode(self, S, rng=None, force_v=None) -> list[int]:
        """Payload X = G0^T [S; V], V uniform unless forced for tests."""
        p = self.params
        S = self.F.elements_of(S, "message entries")
        if len(S) != p.k:
            raise ParameterError(f"message length {len(S)} != k = {p.k}")
        if force_v is not None:
            V = self.F.elements_of(force_v, "forced V entries")
            if len(V) != p.mu:
                raise ParameterError(f"forced V length {len(V)} != mu = {p.mu}")
        else:
            if rng is None:
                raise ParameterError("encode needs an rng when V is not forced")
            V = [int(x) for x in rng.integers(0, self.F.order, size=p.mu)]
        return self._encoder(S + V)

    @cached_property
    def _encoder(self):
        """The map u -> G0^T u: the outer code's own when G0 is its generator."""
        if self.code is not None and self.G0 == self.code.generator_matrix():
            return self.code._encoder
        return la.LinearMap(self.F, rows=self.G0)

    # -- decoding ---------------------------------------------------------

    def _require_decodable(self):
        if self.code is None:
            raise ParameterError("this instance has no decodable outer code")

    def coherent_decode(self, Y, A) -> DecodeOutcome:
        """Recover S from Y = A expand(X) + D Z when the transfer A is known.

        Decodes whenever 2 rank(D Z) + rho <= 2t, rho = n - rank(A), at any
        row count N: `_unmix`, then one Gabidulin decode.  A and Y are read
        by the base field (`gf`'s read): entries mod q.
        """
        self._require_decodable()
        p, F = self.params, self.F
        A = F.base.read(A, "transfer matrix")
        Y = F.base.read(Y, "observation")
        if A.ndim != 2 or A.shape[1] != p.n:
            raise ParameterError(f"transfer matrix must have {p.n} columns")
        N = A.shape[0]
        if Y.shape != (N, p.m):
            raise ParameterError(f"observation must be {N} x {p.m}, got {Y.shape}")
        word, code, radius = self._unmix(A, Y)
        out = code.decode(word, radius)
        if not out.ok:
            return out
        return DecodeOutcome.success(out.message[: p.k], out.error_rank)

    def _unmix(self, A, Y):
        """The front end of a known transfer: (word, code, radius) to decode,
        for the read N x n transfer A and N x m observation Y.

        At rho = 0 one elimination of [A | Y] over GF(q) un-mixes the n
        packets (`linalg.left_inverse`: expansion commutes with base-field
        maps), leaving expand(X) plus an error of rank <= rank(D Z), for the
        outer code at radius t.  Else the rho lost dimensions are erasures:
        with E A = R in RREF (`linalg.row_reduce_transform`), the top n - rho
        rows of E Y are R' expand(X) plus an error of rank <= rank(D Z), and
        R' G0^T is the Moore matrix of the points R' g, as Frobenius is
        GF(q)-linear (D. Silva and F. R. Kschischang, arXiv:0809.3546); they
        go to the Gabidulin code at those points, of distance >= 2t - rho + 1,
        at radius (2t - rho) // 2.  rho > 2t is refused.
        """
        p, F = self.params, self.F
        try:
            return la.left_inverse(F.base, A, Y), self.code, p.t
        except SingularMatrixError:
            E, R, pivots = la.row_reduce_transform(F.base, A)
        r = len(pivots)
        if p.n - r > 2 * p.t:
            raise SingularMatrixError(f"transfer matrix has rank {r} < "
                                      f"n - 2t = {p.n - 2 * p.t}")
        seen = GabidulinCode(F, r, p.k + p.mu, g=la.matvec(F, R[:r], self.code.g))
        EY = la.mod(np.array(E[:r], dtype=np.int64) @ Y, p.q)
        return la.contract(F, EY), seen, (2 * p.t - p.n + r) // 2

    def __repr__(self):
        p = self.params
        tag = ", broken" if self.broken else ""
        return (
            f"SchemeInstance(q={p.q}, m={p.m}, n={p.n}, t={p.t}, "
            f"mu={p.mu}, k={p.k}{tag})"
        )


def build_instance(params: SchemeParams) -> SchemeInstance:
    """Validate parameters and construct the scheme of the stated bounds."""
    params.validate()
    F = ExtField(params.q, params.m, params.modulus)
    code = GabidulinCode(F, params.n, params.k + params.mu, g=params.g)
    return SchemeInstance(params, F, code, code.generator_matrix())


def build_broken_instance(params: SchemeParams) -> SchemeInstance:
    """Negative control: replace the secrecy rows with a non-MRD generator.

    The last row of G0 becomes the all-ones vector, whose expansion has
    rank 1, so the randomness code contains a low-rank codeword and
    some eavesdropper matrix B sees through it.  Only encoding (and the
    secrecy audit) are meaningful on the result.
    """
    params.validate()
    if params.mu < 1:
        raise ParameterError("the broken variant needs mu >= 1")
    F = ExtField(params.q, params.m, params.modulus)
    code = GabidulinCode(F, params.n, params.k + params.mu, g=params.g)
    G0 = code.generator_matrix()
    G0[-1] = [1] * params.n
    if la.rank(F, G0) != params.k + params.mu:
        raise ParameterError(
            "all-ones replacement collapsed the generator; choose other "
            "evaluation points"
        )
    return SchemeInstance(params, F, None, G0, broken=True)
