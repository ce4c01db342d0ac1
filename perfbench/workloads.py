"""The benchmark's workloads: inputs drawn from the seed, cases checked as they run.

A workload draws plain numbers (ints and numpy arrays) from the
benchmark's own Generator before anything is timed, so the program
receives only those inputs and never a random source of its own.
Parameter sets are written (q, m, n, t, mu, k).

Each workload has four steps:

    draw(rng, la)       one case's inputs; `la` (secnc.linalg) only
                        checks that drawn transfers have full rank
    setup(secnc, warm)  build the instances and run one warm-up case;
                        returns (state, warm-up case correct)
    prepare(state, d)   turn drawn numbers into program objects
    run(state, case)    one timed case; returns (attempted, failed)
    fastest(best)       the case latencies to report, from each distinct
                        case's fastest run
    split()             extra timings for the run's `#` line
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

P0 = (2, 3, 3, 1, 0, 1)  # the smallest reliability audit with t = 1: 612 decodes
P1 = (2, 4, 4, 1, 1, 1)
P3 = (2, 8, 8, 2, 2, 2)


def _full_rank(rng, q, rows, cols, la):
    while True:
        M = rng.integers(0, q, size=(rows, cols), dtype=np.int64)
        if la.rank_fq(M, q) == min(rows, cols):
            return M


class Simulate:
    """One coherent `secnc simulate` case: encode, send through the adversary, decode.

    The transfer A is a random full-rank N x n matrix; D (N x t) and Z
    (t x m) are uniform, so D Z is an injection of rank at most t.
    """

    def __init__(self, params, N, pool):
        self.params = params
        self.N = N
        self.pool = pool  # distinct drawn cases; the timed loop cycles them

    def draw(self, rng, la):
        q, m, n, t, mu, k = self.params
        return SimpleNamespace(
            S=tuple(int(x) for x in rng.integers(0, q ** m, size=k)),
            V=tuple(int(x) for x in rng.integers(0, q ** m, size=mu)),
            A=_full_rank(rng, q, self.N, n, la),
            D=rng.integers(0, q, size=(self.N, t), dtype=np.int64),
            Z=rng.integers(0, q, size=(t, m), dtype=np.int64),
            B=_full_rank(rng, q, mu, n, la),
        )

    def setup(self, secnc, warm):
        state = SimpleNamespace(
            secnc=secnc,
            inst=secnc.scheme.build_instance(secnc.scheme.SchemeParams(*self.params)),
        )
        return state, self.run(state, self.prepare(state, warm)) == (1, 0)

    def prepare(self, state, d):
        real = state.secnc.network.ChannelRealization(self.params[0], d.A, d.D, d.Z, d.B)
        return d.S, d.V, real

    def run(self, state, case):
        S, V, real = case
        inst = state.inst
        X = inst.encode(S, force_v=V)
        out = inst.coherent_decode(state.secnc.network.transmit(inst.F, X, real).Y, real.A)
        return 1, int(not (out.ok and out.message == S))

    def fastest(self, best):
        """Per-case latencies: each distinct case's fastest run."""
        return best

    def split(self):
        return {}  # the case latencies say it all


@contextmanager
def _marked(obj, name, marks):
    """Append the time at each entry to and exit from obj.<name>(...).

    The wrapper is an attribute of that one object, removed on exit; the
    object's class is untouched.
    """
    fn = getattr(obj, name)

    def marked(*args, **kwargs):
        marks.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            marks.append(time.perf_counter())

    setattr(obj, name, marked)
    try:
        yield
    finally:
        delattr(obj, name)


class Audit:
    """One round: an exhaustive reliability audit at P0, then the secrecy audit at P1.

    A round is the workload's case.  Its set-up warm-up is one P0
    coherent case, the unit the reliability audit repeats.

    Every round replays the same work in the same order, so the
    fastest-repeat rule the coherent workload applies per case is applied
    here per stretch of the round: the entry and exit of each
    `coherent_decode` call of the reliability audit and of each `encode`
    call of the secrecy audit (its payload table) are timed, which cuts
    the round into those calls and the stretches of audit work between
    them.  Each audit's time is the sum of its stretches' fastest times
    over the rounds.  If an audit stops making those calls once per
    case, it is one stretch and the rule becomes its fastest run.
    """

    random_transfers = 2
    pool = 1

    def __init__(self):
        self.warm = Simulate(P0, P0[2] + P0[3], pool=0)
        self.stretch_s = None  # fastest time of each stretch, in round order
        self.reliability_stretches = 0  # the first ones; the secrecy audit's follow
        self.counts = Counter()  # reliability_cases, secrecy_views over all rounds

    def draw(self, rng, la):
        # the audit's random transfers come from a Generator seeded here
        return SimpleNamespace(rel_seed=int(rng.integers(0, 2 ** 63)),
                               warm=self.warm.draw(rng, la))

    def setup(self, secnc, warm):
        p1, ok = self.warm.setup(secnc, warm.warm)
        inst2 = secnc.scheme.build_instance(secnc.scheme.SchemeParams(*P1))
        return SimpleNamespace(secnc=secnc, inst1=p1.inst, inst2=inst2), ok

    def prepare(self, state, d):
        return d.rel_seed, self.expected(state.secnc.linalg)

    def expected(self, la):
        """Closed-form audit sizes: reliability cases, taps, pairs per tap."""
        q, m, n, t, mu, k = P0
        rel = ((q ** m) ** (k + mu) * la.count_rank_at_most(q, n, m, t)
               + self.random_transfers * la.count_rank_at_most(q, n + t, m, t))
        q, m, n, t, mu, k = P1
        return rel, la.count_rank_exactly(q, mu, n, mu), (q ** m) ** (k + mu)

    def run(self, state, case):
        rel_seed, (want_cases, want_taps, want_pairs) = case
        audit = state.secnc.audit
        rel_marks, sec_marks = [], []
        with (_marked(state.inst1, "coherent_decode", rel_marks),
              _marked(state.inst2, "encode", sec_marks)):
            t0 = time.perf_counter()
            rel = audit.reliability_audit(state.inst1, "exhaustive",
                                          np.random.default_rng(rel_seed),
                                          random_transfers=self.random_transfers)
            t1 = time.perf_counter()
            sec = audit.secrecy_audit(state.inst2, "exhaustive")
            t2 = time.perf_counter()

        stretches = np.diff([t0, *rel_marks, t1, *sec_marks, t2])
        if self.stretch_s is None or len(self.stretch_s) != len(stretches):
            self.stretch_s = stretches
            self.reliability_stretches = len(rel_marks) + 1
        else:
            np.minimum(self.stretch_s, stretches, out=self.stretch_s)
        self.counts["reliability_cases"] += rel.cases
        self.counts["secrecy_views"] += len(sec.records) * sec.pairs_per_tap
        leaking = sum(1 for _, leak in sec.records if leak != 0.0)
        mismatched = ((rel.cases != want_cases) + (len(sec.records) != want_taps)
                      + (sec.pairs_per_tap != want_pairs))
        return rel.cases + len(sec.records), rel.failures + leaking + mismatched

    def split(self):
        """Fastest reliability and secrecy audit times, by the rule above."""
        cut = self.reliability_stretches
        return {"audit_reliability_s": float(self.stretch_s[:cut].sum()),
                "audit_secrecy_s": float(self.stretch_s[cut:].sum())}

    def fastest(self, best):
        return [sum(self.split().values())]


# Why each workload exists; BENCHMARK.json carries the same sentences.
WORKLOADS = {
    "coherent-p3": (
        lambda: Simulate(P3, P3[2] + P3[3], pool=256),
        "per-case simulate path at P3; GF(2^8) Gabidulin decode (gf, rankmetric) "
        "dominates, where the packed GF(2) path and table arithmetic act",
    ),
    "audit-p0p1": (
        Audit,
        "exhaustive P0 reliability and P1 secrecy audits, about 0.07 s a round; the decode layer "
        "in batch shape with A = I plus enumeration, where batched audits act",
    ),
}
