"""The adversarial linear network channel and the noncoherent lifting.

A destination observes Y = A expand(X) + D Z: A is the network's
transfer matrix (rank n, or n - rho with rho lost dimensions), D routes up
to t injected packets Z, and an eavesdropper with mu taps sees
W = B expand(X).  Nothing is stochastic beyond the caller's sampling
choices; transmission itself is exact matrix arithmetic over GF(q).

For noncoherent operation the source sends the lifted matrix [I | X].
The received header block then *is* an effective transfer matrix:
Y_p = Y_h Xbar + D Z' with rank(D Z') <= rank(D) <= t, so the decoder
never needs to learn A itself.  One `lift` makes [I | Xbar] from digits,
for one payload or a stack, and serves `transmit_lifted` and both
audits; one reader, `_read_lifted`, checks a lifted observation for the
decoder and its consistency oracle alike.  From outside, (A, D, Z, B)
and the observations are read by the base field (`gf`'s read, mod q).

Realizations are drawn at random (`sample_realization`).  The exhaustive
checks of both decoders, every (S, V) against every error of rank <= t,
are `audit.reliability_audit` and its `lifted` mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import (
    InconsistentSystemError,
    ParameterError,
    UnderdeterminedSystemError,
    check_budget,
    read_count,
)
from .gf import ExtField, PrimeField
from .rankmetric import DEFAULT_ENUM_BUDGET, DecodeOutcome
from .scheme import SchemeInstance


@dataclass(frozen=True)
class ChannelRealization:
    """One concrete (A, D, Z, B) draw from the adversary's quantifiers.

    Shapes: A is N x n of any rank (n - rank(A) lost dimensions are
    erasures), D is N x t', Z is t' x c (c = m, or n + m for lifted
    transmissions), B is mu' x n.  t' and mu' are the number of links the
    adversary actually uses, at most t and mu.
    """

    q: int
    A: np.ndarray
    D: np.ndarray
    Z: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        field = PrimeField(self.q)
        for name in ("A", "D", "Z", "B"):
            M = field.read(getattr(self, name), name)
            object.__setattr__(self, name, M)
            if M.ndim != 2:
                raise ParameterError(f"{name} must be a matrix")
        N, n = self.A.shape
        if n < 1:
            raise ParameterError(f"transfer matrix {N} x {n} has no columns")
        if self.D.shape[0] != N:
            raise ParameterError(
                f"D has {self.D.shape[0]} rows, expected N = {N}"
            )
        if self.Z.shape[0] != self.D.shape[1]:
            raise ParameterError(
                f"Z has {self.Z.shape[0]} rows but D has {self.D.shape[1]} columns"
            )
        if self.B.shape[1] != n:
            raise ParameterError(f"B must have n = {n} columns")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def effective_error(self) -> np.ndarray:
        return la.mod(self.D @ self.Z, self.q)


@dataclass(frozen=True)
class TransmissionResult:
    Y: np.ndarray
    W: np.ndarray


def _send(real: ChannelRealization, M) -> TransmissionResult:
    """Destination and eavesdropper views of the base-field rows M."""
    if real.n != M.shape[0]:
        raise ParameterError(
            f"payload has {M.shape[0]} packets, channel carries {real.n}"
        )
    if real.Z.shape[1] != M.shape[1]:
        raise ParameterError(
            f"injected packets are {real.Z.shape[1]} symbols wide, expected "
            f"{M.shape[1]}"
        )
    Y = la.mod(real.A @ M + real.effective_error(), real.q)
    W = la.mod(real.B @ M, real.q)
    return TransmissionResult(Y, W)


def transmit(F: ExtField, X, real: ChannelRealization) -> TransmissionResult:
    """Destination and eavesdropper views of one payload transmission."""
    return _send(real, la.expand(F, F.elements_of(X, "payload entries")))


def lift(Xbar) -> np.ndarray:
    """[I | Xbar] for the (..., n, m) digits Xbar of one payload or a stack."""
    *lead, n, _ = Xbar.shape
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), (*lead, n, n))
    return np.concatenate([eye, Xbar], axis=-1)


def transmit_lifted(F: ExtField, X, real: ChannelRealization) -> TransmissionResult:
    """The views of one transmission of [I | X]."""
    return _send(real, lift(la.expand(F, F.elements_of(X, "payload entries"))))


def sample_realization(params, N: int, rng, *,
                       lifted: bool = False) -> ChannelRealization:
    """Draw A full-rank N x n, D, Z uniform with t injected packets, and B
    full-rank mu x n."""
    q, n, m, t = params.q, params.n, params.m, params.t
    cols = n + m if lifted else m
    N = read_count(N, "N", n)
    field = PrimeField(q)
    A = la.random_full_rank(field, N, n, rng)
    D = la.random_matrix(field, N, t, rng)
    Z = la.random_matrix(field, t, cols, rng)
    B = (
        la.random_full_rank(field, params.mu, n, rng)
        if params.mu
        else np.zeros((0, n), dtype=np.int64)
    )
    return ChannelRealization(q, A, D, Z, B)


# ----------------------------------------------------------------------
# Noncoherent decoding
# ----------------------------------------------------------------------

def candidate_spaces(q: int, N: int, t: int) -> int:
    """The error spaces, of dimension <= t in GF(q)^N, that
    `noncoherent_decode` solves for on an N-row observation."""
    return sum(la.gaussian_binomial(N, r, q) for r in range(t + 1))


def _read_lifted(inst: SchemeInstance, Y) -> np.ndarray:
    """The lifted observation Y mod q, N x (n + m) with N >= n."""
    p = inst.params
    Y = inst.F.base.read(Y, "lifted observation")
    if Y.ndim != 2 or Y.shape[1] != p.n + p.m:
        raise ParameterError(f"lifted observation must have {p.n + p.m} columns")
    if Y.shape[0] < p.n:
        raise ParameterError(f"observation has {Y.shape[0]} < n = {p.n} rows")
    return Y


def noncoherent_decode(inst: SchemeInstance, Y) -> DecodeOutcome:
    """Recover S from a lifted transmission without knowing A.

    Writing Y = [Y_h | Y_p], any codeword x consistent with the channel
    promise satisfies rank(Y_p - Y_h expand(x)) <= t, and under the
    promise exactly one codeword does (two would force a codeword
    difference of rank < d through the full-rank A).  The search runs
    over candidate column spaces U of the error (r x N in RREF, r <= t).
    Y_p - Y_h expand(G0^T u) has its columns in the row space of U
    exactly when Y_h G0^T u + U^T w = y_p for some w over GF(q^m): one
    linear system per candidate, in the unknowns (u, w).  It fixes u
    exactly when rank(P Y_h) >= k + mu for rows P annihilating U (the
    channel with U projected out, error-free but possibly rank-deficient),
    because a codeword that channel erases has rank <= n - rank(P Y_h) < d.
    Refuses before the search when it would visit more than
    DEFAULT_ENUM_BUDGET candidates.
    """
    p = inst.params
    F = inst.F
    q, n, t = p.q, p.n, p.t
    Y = _read_lifted(inst, Y)
    N = Y.shape[0]
    check_budget(candidate_spaces(q, N, t), DEFAULT_ENUM_BUDGET,
                 "candidate error spaces")
    Yh, Yp = Y[:, :n], Y[:, n:]
    G0t = inst._G0t
    YhG = la.matmul(F, Yh, G0t)
    yp = la.contract(F, Yp)
    found = {}
    for r in range(t + 1):
        for U in la.iter_rref_full_row_rank(q, r, N):
            M = [YhG[i] + [row[i] for row in U] for i in range(N)]
            try:
                u = la.rref_solve(F, M, yp)[: p.k + p.mu]
            except (InconsistentSystemError, UnderdeterminedSystemError):
                continue
            found.setdefault(tuple(u[: p.k]), tuple(u))
    if not found:
        return DecodeOutcome.failure("no message consistent with <= t injections")
    if len(found) > 1:
        return DecodeOutcome.failure(
            f"{len(found)} distinct messages consistent; promise violated"
        )
    (S, u), = found.items()
    Xbar = la.expand(F, la.matvec(F, G0t, list(u)))
    err = la.rank_fq(Yp - Yh @ Xbar, q)
    return DecodeOutcome.success(S, err)
