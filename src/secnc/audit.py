"""Exhaustive verification of the zero-error and zero-leakage claims.

The secrecy audit enumerates every message and every randomness draw,
computes the eavesdropper's view under every full-rank tap matrix B,
and reports the mutual information I(S; W) per B from exact integer
counts.  Zero leakage is detected exactly, by comparing the conditional
count vectors across messages, before any floating-point arithmetic;
a report of 0 means identical distributions, not a small number.

The reliability audit replays every effective error of rank at most t
against every (S, V) and records decode failures.  Every mode builds
stacks of received words, un-mixes each with a left inverse of its
transfer computed once per transfer, and decodes them in enumeration
order, a bounded chunk at a time, through `GabidulinCode.decode_stack`;
what the scalar `coherent_decode` would report for each case comes out
in the same order.  Both audits take their payloads from one stacked
product G0^T u over the whole (S, V) grid.

Brute-force oracles (nearest codeword; explanation consistency for
lifted transmissions) anchor the efficient decoders: the oracles share
no algorithmic machinery with them beyond field arithmetic and the
base-field rank.  The odd-q nearest-codeword search ranks its
differences with `linalg._rref_stack`, which the stack decoder also
uses; it is checked against the scalar `decode`, which shares no stack
code, and `decode_stack` is checked against `decode` directly.

Entropy unit: bits throughout; one packet is m*log2(q) bits.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import BudgetExceededError, InconsistentSystemError, ParameterError
from .rankmetric import DECODE_FAILURE, DEFAULT_ENUM_BUDGET, GabidulinCode
from .scheme import SchemeInstance

DEFAULT_AUDIT_BUDGET = 1 << 22

# Cases decoded (or codewords compared) per stack: bounds the memory of
# a stack whatever the budget admits.
_CHUNK = 1 << 14


# ----------------------------------------------------------------------
# Entropy helpers
# ----------------------------------------------------------------------

def entropy_of_distribution(counts) -> float:
    """Shannon entropy in bits of a distribution given by raw counts."""
    if hasattr(counts, "values"):
        counts = counts.values()
    counts = [int(c) for c in counts if c]
    if any(c < 0 for c in counts):
        raise ParameterError("counts must be nonnegative")
    total = sum(counts)
    if total == 0:
        raise ParameterError("cannot take the entropy of all-zero counts")
    return math.log2(total) - sum(c * math.log2(c) for c in counts) / total


def mutual_information_from_joint(joint) -> float:
    """I(S;W) in bits from exact joint counts {(s, w): count}."""
    s_marg = Counter()
    w_marg = Counter()
    for (s, w), c in joint.items():
        s_marg[s] += c
        w_marg[w] += c
    mi = (
        entropy_of_distribution(s_marg)
        + entropy_of_distribution(w_marg)
        - entropy_of_distribution(joint)
    )
    # floating-point dust from the three-term sum; information is >= 0
    return 0.0 if abs(mi) < 1e-12 else mi


def _matrix_id(M, q: int) -> str:
    """Canonical hex id: row-major digits, first digit least significant."""
    val = 0
    for d in reversed(np.asarray(M, dtype=np.int64).reshape(-1)):
        val = val * q + int(d)
    return hex(val)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SecrecyReport:
    exhaustive: bool
    lifted: bool
    tap_rows: int
    pairs_per_tap: int
    records: tuple  # ((tap id hex, leakage bits), ...)

    @property
    def max_leakage(self) -> float:
        return max((leak for _, leak in self.records), default=0.0)

    @property
    def worst_tap(self):
        worst = max(self.records, key=lambda r: r[1], default=None)
        return worst[0] if worst else None

    @property
    def passed(self) -> bool:
        return self.max_leakage == 0.0

    def lines(self) -> list[str]:
        def fmt(v: float) -> str:
            return "0" if v == 0.0 else f"{v:.6g}"

        return [f"B={tid} leakage_bits={fmt(leak)}" for tid, leak in self.records]

    def text(self) -> str:
        head = [
            f"secrecy_audit exhaustive={str(self.exhaustive).lower()} "
            f"lifted={str(self.lifted).lower()}",
            f"taps={len(self.records)} rows={self.tap_rows} "
            f"pairs_per_tap={self.pairs_per_tap}",
        ]
        tail = [
            f"max_leakage_bits={'0' if self.max_leakage == 0.0 else repr(self.max_leakage)}"
            f" worst_tap={self.worst_tap}",
            f"verdict={'pass' if self.passed else 'FAIL'}",
        ]
        return "\n".join(head + self.lines() + tail) + "\n"


@dataclass(frozen=True)
class ReliabilityReport:
    exhaustive: bool
    cases: int
    failures: int
    exemplars: tuple
    error_rank_counts: tuple  # sorted ((rank, count), ...)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def text(self) -> str:
        lines = [
            f"reliability_audit exhaustive={str(self.exhaustive).lower()}",
            f"cases={self.cases} failures={self.failures}",
            "error_ranks=" + ",".join(f"{r}:{c}" for r, c in self.error_rank_counts),
        ]
        for ex in self.exemplars:
            lines.append(f"exemplar {ex}")
        lines.append(f"verdict={'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Secrecy
# ----------------------------------------------------------------------

def _payload_table(inst: SchemeInstance):
    """All q^(m(k+mu)) payload expansions, indexed by the (S, V) grid in
    itertools.product order, and the S of each.

    One stacked product over GF(q): expand(g u) = expand(u) M_g, where
    row i of M_g expands g x^i, so expand(G0^T u) is expand(u) times the
    block matrix of the M_g for the entries g of G0.
    """
    p, F = inst.params, inst.F
    ku = p.k + p.mu
    U = np.stack(np.unravel_index(np.arange(F.order ** ku), (F.order,) * ku),
                 axis=1).astype(np.int64)
    basis = [F.q ** i for i in range(F.m)]
    W = la.expand(F, [[[F.mul(g, x) for g in row] for x in basis] for row in inst.G0])
    payloads = la.expand(F, U).reshape(len(U), -1) @ W.reshape(ku * F.m, -1) % F.q
    return payloads.reshape(len(U), p.n, F.m), [tuple(S) for S in U[:, : p.k].tolist()]


def _view_keys(views, q: int):
    """One int64 per view, equal exactly when the views are equal."""
    flat = views.reshape(len(views), -1)
    if q ** flat.shape[1] < 1 << 63:
        return flat @ q ** np.arange(flat.shape[1], dtype=np.int64)
    return np.unique(flat, axis=0, return_inverse=True)[1].ravel()


def secrecy_audit(inst: SchemeInstance, mode: str = "exhaustive", rng=None, *,
                  tap_rows: int | None = None, lifted: bool = False,
                  samples: int = 20,
                  budget: int = DEFAULT_AUDIT_BUDGET) -> SecrecyReport:
    """Exact I(S;W) per eavesdropper matrix B; all B in exhaustive mode.

    A sampled run draws `samples` random full-rank taps instead (the
    (S, V) enumeration stays exhaustive) and is labeled non-exhaustive.
    """
    p = inst.params
    q = p.q
    rows = p.mu if tap_rows is None else tap_rows
    if rows < 0 or rows > p.n:
        raise ParameterError(f"tap rows must be in 0..{p.n}")
    n_pairs = inst.F.order ** (p.k + p.mu)
    if mode == "exhaustive":
        n_taps = la.count_rank_exactly(q, rows, p.n, rows) if rows else 1
    elif mode == "sampled":
        if rng is None:
            raise ParameterError("sampled mode needs an rng")
        if samples < 1:
            raise ParameterError(f"samples must be >= 1, got {samples}")
        n_taps = samples if rows else 1
    else:
        raise ParameterError(f"unknown audit mode {mode!r}")
    needed = n_pairs * n_taps
    if needed > budget:
        raise BudgetExceededError(needed, budget, "secrecy enumeration")

    payloads, s_index = _payload_table(inst)
    if lifted:
        eye = np.eye(p.n, dtype=np.int64)
        payloads = np.concatenate(
            [np.broadcast_to(eye, (len(payloads), p.n, p.n)), payloads], axis=2
        )
    if rows == 0:
        taps = [np.zeros((0, p.n), dtype=np.int64)]
    elif mode == "exhaustive":
        taps = [np.array(B, dtype=np.int64) for B in la.iter_full_rank(q, rows, p.n)]
    else:
        taps = [la.random_full_rank(inst.F.base, rows, p.n, rng)
                for _ in range(samples)]

    records = []
    for B in taps:
        views = np.matmul(B, payloads) % q
        # each message's views, sorted: equal rows are equal conditionals
        keys = np.sort(_view_keys(views, q).reshape(inst.F.order ** p.k, -1), axis=1)
        if (keys == keys[0]).all():
            leak = 0.0  # identical conditionals: exactly zero, no floats involved
        else:
            joint = Counter()
            for S, w in zip(s_index, views):
                joint[(S, w.tobytes())] += 1
            leak = mutual_information_from_joint(joint)
        records.append((_matrix_id(B, q), leak))
    return SecrecyReport(
        exhaustive=(mode == "exhaustive"),
        lifted=lifted,
        tap_rows=rows,
        pairs_per_tap=n_pairs,
        records=tuple(records),
    )


# ----------------------------------------------------------------------
# Reliability
# ----------------------------------------------------------------------

def reliability_audit(inst: SchemeInstance, mode: str = "exhaustive", rng=None, *,
                      random_transfers: int = 20, trials: int = 1000,
                      budget: int = DEFAULT_AUDIT_BUDGET) -> ReliabilityReport:
    """Replay every rank-<= t error against every (S, V); count failures.

    Exhaustive mode drives the identity transfer through the full
    (S, V) x error grid, then each of `random_transfers` random
    rectangular full-rank transfers through the full error grid at a
    random (S, V).  Sampled mode runs `trials` fully random cases.
    """
    p = inst.params
    F = inst.F
    q, n, m, t = p.q, p.n, p.m, p.t
    if inst.code is None:
        raise ParameterError("this instance has no decodable outer code")
    exemplars = []
    rank_counts = Counter()
    failures = 0
    cases = 0

    def check(Y, S, tag):
        """Decode the un-mixed words Y (B, n, m) of the messages S (B, k);
        tag(j) names case j of the stack."""
        nonlocal failures, cases
        ok, msgs, ranks = inst.code.decode_stack(la.contract(F, Y), t)
        good = ok & (msgs[:, : p.k] == S).all(axis=1)
        bad = np.flatnonzero(~good)
        cases += len(good)
        failures += len(bad)
        for j in bad[: 5 - len(exemplars)]:
            got = tuple(msgs[j, : p.k].tolist()) if ok[j] else repr(DECODE_FAILURE)
            exemplars.append(f"{tag(j)} S={tuple(S[j].tolist())} got={got}")
        for r, c in enumerate(np.bincount(ranks[good]).tolist()):
            if c:
                rank_counts[r] += c

    if mode == "exhaustive":
        if random_transfers < 0:
            raise ParameterError(
                f"random_transfers must be >= 0, got {random_transfers}")
        n_pairs = F.order ** (p.k + p.mu)
        n_err_sq = la.count_rank_at_most(q, n, m, t)
        N = n + t
        n_err_rect = la.count_rank_at_most(q, N, m, t)
        needed = n_pairs * n_err_sq + random_transfers * n_err_rect
        if needed > budget:
            raise BudgetExceededError(needed, budget, "reliability enumeration")
        if rng is None and random_transfers:
            raise ParameterError("the random-transfer phase needs an rng")
        payloads, s_index = _payload_table(inst)
        msgs = np.array(s_index, dtype=np.int64).reshape(n_pairs, p.k)
        for Es, e, w in _grid(la.iter_rank_at_most(q, n, m, t), n_pairs):
            check((payloads[w] + Es[e]) % q, msgs[w],
                  lambda j: f"A=I E={_matrix_id(Es[e[j]], q)}")
        for j in range(random_transfers):
            A = la.random_full_rank(F.base, N, n, rng)
            uidx = int(rng.integers(0, len(payloads)))
            Aplus = np.array(la.left_inverse(F.base, A), dtype=np.int64)
            X = A @ payloads[uidx]
            for Es, e, _ in _grid(la.iter_rank_at_most(q, N, m, t), 1):
                check(Aplus @ ((X + Es) % q) % q, msgs[[uidx] * len(e)],
                      lambda i: f"A#{j} E={_matrix_id(Es[i], q)}")
        exhaustive = True
    elif mode == "sampled":
        if rng is None:
            raise ParameterError("sampled mode needs an rng")
        if trials < 1:
            raise ParameterError(f"trials must be >= 1, got {trials}")
        if trials > budget:
            raise BudgetExceededError(trials, budget, "reliability trials")
        from .network import sample_realization, transmit

        words, msgs = [], []
        for trial in range(trials):
            S = [int(x) for x in rng.integers(0, F.order, size=p.k)]
            X = inst.encode(S, rng=rng)
            real = sample_realization(p, n + t, rng)
            Aplus = np.array(la.left_inverse(F.base, real.A), dtype=np.int64)
            words.append(Aplus @ transmit(F, X, real).Y % q)
            msgs.append(S)
            if len(words) == _CHUNK or trial == trials - 1:
                check(np.array(words), np.array(msgs, dtype=np.int64),
                      lambda j: "sampled")
                words, msgs = [], []
        exhaustive = False
    else:
        raise ParameterError(f"unknown audit mode {mode!r}")

    return ReliabilityReport(
        exhaustive=exhaustive,
        cases=cases,
        failures=failures,
        exemplars=tuple(exemplars),
        error_rank_counts=tuple(sorted(rank_counts.items())),
    )


def _grid(errors, n_words: int):
    """The (error, word) grid, error-major, in chunks of at most _CHUNK
    cases: (Es, e, w), e and w indexing the errors Es and the words."""
    per = max(1, _CHUNK // n_words)
    while block := list(itertools.islice(errors, per)):
        Es = np.array(block, dtype=np.int64)
        for lo in range(0, len(Es) * n_words, _CHUNK):
            e, w = np.divmod(np.arange(lo, min(lo + _CHUNK, len(Es) * n_words)),
                             n_words)
            yield Es, e, w


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------

def brute_force_decode(code: GabidulinCode, y, t: int,
                       budget: int = DEFAULT_ENUM_BUDGET) -> set:
    """Every message whose codeword lies within rank distance t of y.

    Pure nearest-codeword search over the full codebook; the oracle the
    algebraic decoder is measured against.
    """
    F = code.F
    y = [F.check(int(v)) for v in y]
    if len(y) != code.n:
        raise ParameterError(f"received word length {len(y)} != n = {code.n}")
    msgs, words = code.codeword_table(budget)
    if F.q == 2:
        # element ints are exactly the expanded rows over GF(2)
        diffs = words ^ np.array(y, dtype=np.int64)
        if t == 0:
            hits = ~diffs.any(axis=1)
        elif t == 1:
            # rank <= 1 over GF(2): every nonzero row equals the max row
            mx = diffs.max(axis=1, keepdims=True)
            hits = ((diffs == 0) | (diffs == mx)).all(axis=1)
        else:
            hits = np.fromiter(
                (la.rank_gf2(row) <= t for row in diffs.tolist()),
                dtype=bool,
                count=len(msgs),
            )
        return {msgs[i] for i in np.nonzero(hits)[0]}
    # digit-wise differences y - c, ranked over GF(q) a chunk at a time
    ey = la.expand(F, y)
    out = set()
    for lo in range(0, len(msgs), _CHUNK):
        diffs = (ey - la.expand(F, words[lo : lo + _CHUNK])) % F.q
        _, _, ranks = la._rref_stack(F.base, diffs)
        out.update(msgs[lo + i] for i in np.flatnonzero(ranks <= t).tolist())
    return out


def noncoherent_consistency_oracle(inst: SchemeInstance, Y,
                                   budget: int = DEFAULT_AUDIT_BUDGET) -> set:
    """All messages S explainable as Y = A [I | expand(X)] + E, rank E <= t.

    Enumerates every error matrix E of rank at most t, peels it off,
    and keeps S whenever the remaining header block is a feasible
    transfer matrix carrying a codeword.  Completely independent of the
    projection search in the efficient decoder.
    """
    p = inst.params
    F = inst.F
    q, n, m, t = p.q, p.n, p.m, p.t
    Y = np.asarray(Y, dtype=np.int64) % q
    N = Y.shape[0]
    if Y.shape[1] != n + m:
        raise ParameterError(f"lifted observation must have {n + m} columns")
    needed = la.count_rank_at_most(q, N, n + m, t)
    if needed > budget:
        raise BudgetExceededError(needed, budget, "error-matrix enumeration")
    base = F.base
    out = set()
    for E in la.iter_rank_at_most(q, N, n + m, t):
        En = np.array(E, dtype=np.int64)
        A = (Y[:, :n] - En[:, :n]) % q
        if la.rank_fq(A, q) != n:
            continue
        rhs = (Y[:, n:] - En[:, n:]) % q
        try:
            Xbar = la.rref_solve(base, A, rhs)
        except InconsistentSystemError:
            continue
        u = inst.message_of_codeword(la.contract(F, Xbar))
        if u is not None:
            out.add(tuple(u[: p.k]))
    return out
