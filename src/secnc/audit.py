"""Exhaustive verification of the zero-error and zero-leakage claims.

The secrecy audit enumerates every message and every randomness draw,
computes the eavesdropper's view under every full-rank tap matrix B, and
reports the mutual information I(S; W) per B from exact integer counts.
Its taps come as int64 blocks from `linalg.iter_rank_blocks`, sliced
into stacks of at most _CHUNK views, each one 2-D float64 product,
(taps x rows, n) times every payload of the (S, V) grid side by side,
(n, pairs x m), reduced by `linalg.mod` as every sum of the audits is.
A lifted tap sees [B | BX] on [I | X]; with B fixed that splits the
grid exactly as BX does, so it is read on the payload.  Zero leakage is
detected exactly, by comparing the sorted view keys of each message
across messages, for all taps of a stack at once and before any
floating-point arithmetic; only a leaking tap is counted and scored.
A report of 0 means identical distributions, not a small number.

The reliability audit replays every effective error of rank at most t
against every (S, V) and records decode failures; it is the one
exhaustive check of both decoders, and its sampled mode, which
`secnc simulate` runs, is the one engine of random trials.  Every mode
produces received words in enumeration order, its errors as int64
blocks from `linalg.iter_rank_blocks`; the random transfers replay one
error grid, built once per process when it fits a stack.  Coherent words
are un-mixed by a left inverse of their transfer: a sampled trial by
`linalg.left_inverse` of [A | Y], the decoder's own rho = 0 un-mix, and
a random transfer by the top n rows of the E of one
`linalg.row_reduce_transform`, computed once per transfer.  They are
queued: `GabidulinCode.decode_stack` takes them _CHUNK cases at a time,
one stack spanning the identity phase, random transfers and sampled
trials alike (`_restack` holds parts whole and cuts the one that fills
a stack), and the scalar `coherent_decode`'s report for each case comes
out in the same order.  Lifted words
[I | X] + E, errors on all n + m columns, go as received to
`network.noncoherent_decode`, and a failure's exemplar names that
decoder's reason.  Both audits take their payloads G0^T u over the
(S, V) grid from the instance's `payload_table`, one `linalg.span`
kept while it fits a stack; the reliability audit lifts them with
`network.lift`, the one lift, as a transmission is.

Brute-force oracles (nearest codeword; explanation consistency for
lifted transmissions) anchor the efficient decoders: the oracles share
no algorithmic machinery with them beyond field arithmetic and the
base-field rank.  Both take their codebook from `linalg.span`, which no
decoder calls (they re-encode from the Moore matrix).  The
nearest-codeword search ranks the differences c - y, _CHUNK codewords
at a time, with the stack form of `linalg.vector_rank`.  It is checked
against the scalar `decode`, which shares no stack code (at q = 2 it
ranks with `rank_gf2`), and `decode_stack` is checked against
`decode` directly.  The consistency oracle reduces Y - E for every
error E with `linalg._rref_stack`, as (N, n + m, b) stacks; the
noncoherent decoder it checks walks error spaces with scalar solves.
The oracle reads its observation with that decoder's own check,
`network._read_lifted`, and it and the reliability audit refuse an
instance without an outer code with `SchemeInstance._require_decodable`.

Entropy unit: bits throughout; one packet is m*log2(q) bits.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import linalg as la
from .errors import ParameterError, check_budget, read_count
from .network import (_read_lifted, candidate_spaces, lift, noncoherent_decode,
                      sample_realization, transmit, transmit_lifted)
from .rankmetric import (DECODE_FAILURE, DEFAULT_ENUM_BUDGET, DecodeOutcome,
                         GabidulinCode)
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
    lifted: bool
    cases: int
    failures: int
    exemplars: tuple
    error_rank_counts: tuple  # sorted ((rank, count), ...)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def text(self) -> str:
        lines = [
            f"reliability_audit exhaustive={str(self.exhaustive).lower()}"
            + (" lifted=true" if self.lifted else ""),
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
    `lifted` labels the report alone: lifted taps are read on the payload.
    """
    p = inst.params
    q = p.q
    rows = read_count(p.mu if tap_rows is None else tap_rows, "tap_rows", 0, p.n)
    n_pairs = inst.F.order ** (p.k + p.mu)
    if mode == "exhaustive":
        n_taps = la.count_rank_exactly(q, rows, p.n, rows)
    elif mode == "sampled":
        if rng is None:
            raise ParameterError("sampled mode needs an rng")
        samples = read_count(samples, "samples", 1)
        n_taps = samples if rows else 1
    else:
        raise ParameterError(f"unknown audit mode {mode!r}")
    check_budget(n_pairs * n_taps, budget, "secrecy enumeration")

    # a lifted tap B sees [B | BX]: with B fixed that splits the (S, V) grid
    # exactly as BX does, so lifted taps are read on the payload
    payloads, s_index = inst.payload_table()
    if mode == "exhaustive" or not rows:  # rows = 0 is the one rank-0 block
        blocks = la.iter_rank_blocks(q, rows, p.n, [rows])
    else:
        blocks = [np.array([la.random_full_rank(inst.F.base, rows, p.n, rng)
                            for _ in range(samples)])]

    records = []
    # every payload side by side, (n, pairs * m): a stack of taps times
    # it is every view of the stack, one exact float64 product, as its
    # sums stay <= n (q - 1)^2 < 2^53 (n <= m, q^m <= FIELD_LIMIT)
    wide = payloads.transpose(1, 0, 2).reshape(p.n, -1).astype(np.float64)
    per = max(1, _CHUNK // n_pairs)  # taps a stack of views holds
    for T in (Ts[lo : lo + per] for Ts in blocks for lo in range(0, len(Ts), per)):
        views = la.mod(T.reshape(-1, p.n).astype(np.float64) @ wide, q)
        views = views.reshape(len(T), rows, n_pairs, p.m).swapaxes(1, 2)
        W = _view_keys(views.reshape(len(T) * n_pairs, rows * p.m), q)
        W = W.reshape(len(T), n_pairs)
        # each message's views, sorted: equal rows are equal conditionals
        keys = np.sort(W.reshape(len(T), inst.F.order ** p.k, -1), axis=2)
        # identical conditionals: exactly zero, no floats involved
        leaking = (keys != keys[:, :1]).any(axis=(1, 2)).tolist()
        for B, w_keys, leaks in zip(T, W, leaking):
            leak = 0.0
            if leaks:
                joint = Counter(zip(map(tuple, s_index.tolist()), w_keys.tolist()))
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
                      lifted: bool = False, budget: int = DEFAULT_AUDIT_BUDGET,
                      N: int | None = None) -> ReliabilityReport:
    """Replay every rank-<= t error against every (S, V); count failures.

    Exhaustive mode drives the identity transfer through the full
    (S, V) x error grid, then each of `random_transfers` random full-rank
    N x n transfers (N = n + t by default) through the full error grid
    at a random (S, V).  Sampled mode, `secnc simulate`'s engine, runs
    `trials` fully random cases.

    Coherent cases are un-mixed with a left inverse of their transfer
    and queued across phases and trials for `GabidulinCode.decode_stack`,
    one call per _CHUNK cases and one for the rest.
    Lifted cases send [I | X], take their errors on all n + m columns and
    go as received, transfer unknown, to `noncoherent_decode`, one
    observation at a time.  With A = I the identity phase loses nothing:
    that decoder's answer depends on the row space of the observation
    alone.

    The budget counts cases, a lifted one once per candidate error space
    its decode solves for.  The matrix one un-mix reduces must fit it
    too: N x (n + N), [A | I_N], for a random transfer's left inverse,
    and N x (n + m), [A | Y], for a sampled trial.  Refusals come before
    any draw.
    """
    p = inst.params
    F = inst.F
    q, n, m, t = p.q, p.n, p.m, p.t
    N = read_count(n + t if N is None else N, "N", n)
    cols = n + m if lifted else m
    inst._require_decodable()
    exemplars = []
    rank_counts = Counter()
    failures = 0
    cases = 0
    # the budget units of one case received on `rows` rows
    unit = "candidate solves" if lifted else "cases"
    cost = (lambda rows: candidate_spaces(q, rows, t)) if lifted else (lambda _: 1)

    def decode(Y):
        """Per case of the stack Y: ok, message S, error rank, reason."""
        if lifted:
            outs = [noncoherent_decode(inst, y) for y in Y]
            return (*DecodeOutcome.stack(outs, p.k), [o.reason for o in outs])
        ok, msgs, ranks = inst.code.decode_stack(la.contract(F, Y), t)
        return ok, msgs[:, : p.k], ranks, [DECODE_FAILURE] * len(ok)

    def check(Y, S, tag):
        """Decode the received words Y of the messages S (B, k); tag(j)
        names case j of the stack."""
        nonlocal failures, cases
        ok, msgs, ranks, reasons = decode(Y)
        good = ok & (msgs == S).all(axis=1)
        bad = np.flatnonzero(~good)
        cases += len(good)
        failures += len(bad)
        for j in bad[: 5 - len(exemplars)]:
            got = tuple(msgs[j].tolist()) if ok[j] else repr(reasons[j])
            exemplars.append(f"{tag(j)} S={tuple(S[j].tolist())} got={got}")
        for r, c in enumerate(np.bincount(ranks[good]).tolist()):
            if c:
                rank_counts[r] += c

    # each mode refuses what it must, then defines parts(): ((Y, S), tag)
    # in enumeration order, drawing from rng only as the cases are decoded
    if mode == "exhaustive":
        random_transfers = read_count(random_transfers, "random_transfers")
        n_pairs = F.order ** (p.k + p.mu)
        check_budget(n_pairs * la.count_rank_at_most(q, n, cols, t) * cost(n)
                     + random_transfers * la.count_rank_at_most(q, N, cols, t)
                     * cost(N), budget, "reliability enumeration", unit)
        if random_transfers and not lifted:
            check_budget(N * (N + n), budget, "one transfer's un-mix", "entries")
        if rng is None and random_transfers:
            raise ParameterError("the random-transfer phase needs an rng")

        def parts():
            payloads, msgs = inst.payload_table()
            if lifted:
                payloads = lift(payloads)
            for Es, e, w in _grid(la.iter_rank_blocks(q, n, cols, range(t + 1)),
                                  n_pairs):
                yield ((la.mod(payloads[w] + Es[e], q), msgs[w]),
                       lambda i, Es=Es, e=e: f"A=I E={_matrix_id(Es[e[i]], q)}")
            for j in range(random_transfers):
                A = la.random_full_rank(F.base, N, n, rng)
                uidx = int(rng.integers(0, len(payloads)))
                Aplus = None if lifted else np.array(  # Aplus A = I_n
                    la.row_reduce_transform(F.base, A)[0][:n], dtype=np.int64)
                X = A @ payloads[uidx]
                # each block of errors is one part; _restack cuts the stacks
                for Es in la.iter_rank_blocks(q, N, cols, range(t + 1)):
                    Y = la.mod(X + Es, q)
                    if not lifted:
                        Y = la.mod(Aplus @ Y, q)
                    yield ((Y, np.repeat(msgs[uidx:uidx + 1], len(Es), axis=0)),
                           lambda i, Es=Es, j=j: f"A#{j} E={_matrix_id(Es[i], q)}")
    elif mode == "sampled":
        if rng is None:
            raise ParameterError("sampled mode needs an rng")
        trials = read_count(trials, "trials", 1)
        check_budget(trials * cost(N), budget, "reliability trials", unit)
        if not lifted:
            check_budget(N * (n + m), budget, "one trial's un-mix", "entries")

        def parts():
            for _ in range(trials):
                S = [int(x) for x in rng.integers(0, F.order, size=p.k)]
                X = inst.encode(S, rng=rng)
                real = sample_realization(p, N, rng, lifted=lifted)
                if lifted:
                    Y = transmit_lifted(F, X, real).Y
                else:
                    Y = la.expand(F, la.left_inverse(F.base, real.A,
                                                     transmit(F, X, real).Y))
                yield ((np.array([Y]), np.array([S], dtype=np.int64)),
                       lambda i: "sampled")
    else:
        raise ParameterError(f"unknown audit mode {mode!r}")

    # lifted observations have n or N rows and are decoded one at a time,
    # so their parts need no regrouping
    for (Y, S), tag in parts() if lifted else _restack(parts(), _CHUNK):
        check(Y, S, tag)

    return ReliabilityReport(
        exhaustive=(mode == "exhaustive"),
        lifted=lifted,
        cases=cases,
        failures=failures,
        exemplars=tuple(exemplars),
        error_rank_counts=tuple(sorted(rank_counts.items())),
    )


def _restack(parts, size):
    """Regroup a stream of parts into stacks of exactly `size` cases, the
    last one shorter, in case order.

    A part is (arrays, tag): equal-length arrays whose row j belongs to
    case j, and tag(j) naming that case (or None).  Each stack comes out
    in the same form, its tag mapping a row back to its part.  Parts are
    held whole; the one that fills a stack is cut there, and its rest
    goes on under its tag shifted by the cut.
    """
    held, count = [], 0
    for arrays, tag in parts:
        while count + len(arrays[0]) >= size:
            cut = size - count
            yield _join(held + [([a[:cut] for a in arrays], tag)])
            held, count = [], 0
            arrays = [a[cut:] for a in arrays]
            tag = tag and (lambda j, tag=tag, cut=cut: tag(j + cut))
        held.append((arrays, tag))
        count += len(arrays[0])
    if count:
        yield _join(held)


def _join(held):
    """One stack of the parts `held`: each column concatenated, and a tag
    that finds row j's part by its start row.  The tag keeps the parts'
    tags and starts, not their arrays."""
    tags = [tag for _, tag in held]
    starts = list(accumulate((len(arrays[0]) for arrays, _ in held[:-1]), initial=0))

    def tag(j):
        i = bisect.bisect_right(starts, j) - 1
        return tags[i](j - starts[i])

    return [np.concatenate(col) for col in zip(*(arrays for arrays, _ in held))], tag


def _grid(blocks, n_words: int):
    """The (error, word) grid, error-major, a block of errors at a time in
    chunks of at most _CHUNK cases: (Es, e, w), e and w indexing the errors
    Es and the words.  `blocks` yields the errors as (b, rows, cols) arrays;
    regrouping the chunks into stacks is the caller's (`_restack`)."""
    for Es in blocks:
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
    y = F.read(y, "received word")
    if y.shape != (code.n,):
        raise ParameterError(f"received word of shape {y.shape}, expected ({code.n},)")
    msgs, words = code.codeword_table(budget)
    out = set()
    for lo in range(0, len(msgs), _CHUNK):
        ranks = la.vector_rank(F, F.vsub(words[lo : lo + _CHUNK], y))
        out.update(msgs[lo + i] for i in np.flatnonzero(ranks <= t).tolist())
    return out


def noncoherent_consistency_oracle(inst: SchemeInstance, Y,
                                   budget: int = DEFAULT_AUDIT_BUDGET) -> set:
    """All messages S explainable as Y = A [I | expand(X)] + E, rank E <= t.

    Enumerates every error matrix E of rank at most t, in the int64
    blocks of `linalg.iter_rank_blocks`, and reduces the stack of Y - E
    over GF(q) (`linalg._rref_stack`), a chunk of errors at a time.
    Y - E is A [I | Xbar] for a full-column-rank A exactly when its
    rows lead at the n header columns, the rest zero; its payload block
    is then Xbar, and S is kept when Xbar is a codeword of the cached
    `codeword_table`.  Enumerates errors, never candidate error spaces,
    so it stays independent of the search in the efficient decoder.
    """
    p = inst.params
    F = inst.F
    q, n, m, t = p.q, p.n, p.m, p.t
    Y = _read_lifted(inst, Y)
    N = Y.shape[0]
    check_budget(la.count_rank_at_most(q, N, n + m, t), budget,
                 "error-matrix enumeration")
    inst._require_decodable()
    msgs, words = inst.code.codeword_table(budget)
    header = np.where(np.arange(N) < n, np.arange(N), n + m)[:, None]
    out = set()
    for Es, e, _ in _grid(la.iter_rank_blocks(q, N, n + m, range(t + 1)), 1):
        R, lead, _ = la._rref_stack(F.base, (Y[..., None] - Es[e].transpose(1, 2, 0)) % q)
        Xbar = R[:n, n:, (lead == header).all(axis=0)].transpose(2, 0, 1)
        keys = _view_keys(np.concatenate([words, la.contract(F, Xbar)]), F.order)
        where = dict(zip(keys[: len(words)].tolist(), msgs))
        out.update(where[key][: p.k] for key in keys[len(words):].tolist()
                   if key in where)
    return out
