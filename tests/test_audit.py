"""Secrecy and reliability audits, entropy helpers, oracle construction."""

import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from secnc import audit
from secnc import linalg as la
from secnc import scheme
from secnc.audit import (
    brute_force_decode,
    entropy_of_distribution,
    mutual_information_from_joint,
    noncoherent_consistency_oracle,
    reliability_audit,
    secrecy_audit,
)
from secnc.errors import BudgetExceededError, ParameterError
from secnc.network import (
    noncoherent_decode,
    sample_realization,
    transmit_lifted,
)
from secnc.rankmetric import DecodeOutcome, GabidulinCode
from secnc.scheme import SchemeParams, build_broken_instance, build_instance
from test_linalg import _rank_matrices

DATA = Path(__file__).parent / "data" / "audit_reports"
P0 = SchemeParams(q=2, m=3, n=3, t=1, mu=0, k=1)
P1 = SchemeParams(q=2, m=4, n=4, t=1, mu=1, k=1)


@pytest.fixture(scope="module")
def inst():
    return build_instance(SchemeParams(q=2, m=4, n=4, t=1, mu=1, k=1))


@pytest.fixture(scope="module")
def broken():
    return build_broken_instance(SchemeParams(q=2, m=4, n=4, t=1, mu=1, k=1))


# ---------------------------------------------------------------- entropy

def test_entropy_uniform_powers_of_two_exact():
    for j in range(6):
        assert entropy_of_distribution([3] * (2 ** j)) == float(j)


def test_entropy_point_mass_and_zero_filtering():
    assert entropy_of_distribution({"a": 17}) == 0.0
    assert entropy_of_distribution([5, 0, 5, 0]) == 1.0


def test_entropy_rejects_degenerate_counts():
    with pytest.raises(ParameterError):
        entropy_of_distribution([0, 0])
    with pytest.raises(ParameterError):
        entropy_of_distribution([3, -1])


def test_mutual_information_known_values():
    # independent pair
    joint = {(s, w): 1 for s in range(4) for w in range(4)}
    assert mutual_information_from_joint(joint) == 0.0
    # fully determined pair
    joint = {(s, s): 3 for s in range(8)}
    assert mutual_information_from_joint(joint) == 3.0


# ---------------------------------------------------------------- secrecy

def test_secrecy_audit_conformant_all_taps_zero(inst):
    rep = secrecy_audit(inst)
    assert rep.exhaustive and rep.passed
    assert len(rep.records) == 15  # full-rank 1x4 binary taps
    assert rep.pairs_per_tap == 256
    assert all(leak == 0.0 for _, leak in rep.records)
    assert rep.max_leakage == 0.0


def test_secrecy_report_line_format(inst):
    lines = secrecy_audit(inst).lines()
    assert len(lines) == 15
    for line in lines:
        left, right = line.split()
        assert left.startswith("B=0x")
        assert right == "leakage_bits=0"


def test_secrecy_audit_flags_broken_instance(broken):
    rep = secrecy_audit(broken)
    assert not rep.passed
    positives = [(tid, l) for tid, l in rep.records if l > 0]
    # exactly the even-weight taps defeat the spoiled last generator row
    assert len(positives) == 7
    assert rep.max_leakage == 4.0  # the whole 4-bit message leaks
    assert any("leakage_bits=4" in line for line in rep.lines())


def test_secrecy_weaker_eavesdropper_still_zero(inst):
    rep = secrecy_audit(inst, tap_rows=0)
    assert rep.passed and len(rep.records) == 1


def test_secrecy_lifted_transmission_zero(inst):
    rep = secrecy_audit(inst, lifted=True)
    assert rep.passed and rep.lifted


def test_lifted_secrecy_equals_an_enumeration_of_every_tap_view(inst, broken):
    # each full-rank tap B's view [B | BX] of every lifted [I | X] over the
    # whole (S, V) grid, enumerated with none of secrecy_audit's code: the
    # audit reads BX alone and must report the same leakage, tap for tap
    def entropy(counter):
        total = sum(counter.values())
        return -sum(c / total * math.log2(c / total) for c in counter.values())

    for instance in (inst, broken):
        F, p = instance.F, instance.params
        grid = list(itertools.product(range(F.order), repeat=p.k + p.mu))
        eye = np.eye(p.n, dtype=np.int64)
        lifted = [np.hstack([eye, la.expand(F, instance.encode(u[: p.k],
                                                               force_v=u[p.k:]))])
                  for u in grid]
        want = {}
        for digits in itertools.product(range(p.q), repeat=p.mu * p.n):
            B = np.array(digits, dtype=np.int64).reshape(p.mu, p.n)
            if la.rank(F.base, B) < p.mu:
                continue
            views = [(u[: p.k], (B @ L % p.q).tobytes()) for u, L in zip(grid, lifted)]
            joint = Counter(views)
            given = {}
            for s, w in views:
                given.setdefault(s, Counter())[w] += 1
            same = all(c == given[grid[0][: p.k]] for c in given.values())
            tap = hex(sum(d * p.q ** i for i, d in enumerate(digits)))
            want[tap] = 0.0 if same else (entropy(Counter(s for s, _ in views))
                                          + entropy(Counter(w for _, w in views))
                                          - entropy(joint))
        got = dict(secrecy_audit(instance, lifted=True).records)
        assert got.keys() == want.keys()
        for tap, leak in want.items():
            assert (got[tap] == 0.0) == (leak == 0.0)
            assert got[tap] == pytest.approx(leak, abs=1e-9)
        assert instance.broken == (max(want.values()) > 0)


def test_secrecy_row_space_invariance(inst):
    # taps with equal row space give equal leakage; at mu=1 every nonzero
    # scalar multiple shares a row space, trivially true over GF(2), so
    # check a two-row instance instead
    p = SchemeParams(q=2, m=5, n=5, t=1, mu=2, k=1)
    big = build_instance(p)
    B1 = np.array([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    B2 = np.array([[0, 1, 0, 0, 0], [1, 1, 0, 0, 0]])  # same row space

    def leak_of(B):
        # single-tap audit by reusing the internals: restrict to fixed B
        from collections import Counter

        from secnc.audit import mutual_information_from_joint

        payloads, s_index = big.payload_table()
        joint = Counter()
        for i, S in enumerate(s_index):
            W = (B @ payloads[i]) % 2
            joint[(tuple(S.tolist()), W.tobytes())] += 1
        return mutual_information_from_joint(joint)

    assert leak_of(B1) == leak_of(B2) == 0.0


def test_secrecy_sampled_mode_deterministic(inst):
    r1 = secrecy_audit(inst, mode="sampled", rng=np.random.default_rng(3), samples=5)
    r2 = secrecy_audit(inst, mode="sampled", rng=np.random.default_rng(3), samples=5)
    assert not r1.exhaustive
    assert r1.records == r2.records
    assert len(r1.records) == 5 and r1.passed


def test_secrecy_budget_refusal(inst):
    with pytest.raises(BudgetExceededError) as ei:
        secrecy_audit(inst, budget=100)
    assert ei.value.needed == 256 * 15
    assert "raise the budget" in str(ei.value)


def test_payload_table_is_kept_read_only_up_to_a_stack(monkeypatch):
    # refused by its budget, an audit builds no table
    p1 = build_instance(P1)
    with pytest.raises(BudgetExceededError):
        secrecy_audit(p1, budget=100)
    assert p1._payloads is None
    table = p1.payload_table()
    assert p1.payload_table() is table
    U, payloads = la.span(p1.F, p1.G0, np.arange(256))
    assert (table[0] == payloads).all() and (table[1] == U[:, :1]).all()
    for a in table:
        with pytest.raises(ValueError):
            a[0] = 1
    # past the bound, each call builds the table afresh
    monkeypatch.setattr(scheme, "_TABLE_LIMIT", 255)
    fresh = build_instance(P1)
    first, second = fresh.payload_table(), fresh.payload_table()
    assert first is not second and fresh._payloads is None
    assert all((a == b).all() for a, b in zip(first, second))


@pytest.mark.parametrize("golden, params, run", [
    ("secrecy_p1_exhaustive", P1, lambda inst: secrecy_audit(inst)),
    ("reliability_p1_exhaustive", P1,
     lambda inst: reliability_audit(inst, rng=np.random.default_rng(4),
                                    random_transfers=2)),
    ("reliability_p0_lifted", P0,
     lambda inst: reliability_audit(inst, rng=np.random.default_rng(4),
                                    random_transfers=2, lifted=True)),
], ids=["secrecy-p1", "reliability-p1", "reliability-p0-lifted"])
def test_an_audit_run_twice_prints_its_golden_report(golden, params, run):
    # the second run reads the payload table and rank blocks the first kept
    inst = build_instance(params)
    want = (DATA / f"{golden}.txt").read_text()
    assert [run(inst).text() for _ in range(2)] == [want, want]


def test_secrecy_rejects_bad_args(inst):
    with pytest.raises(ParameterError):
        secrecy_audit(inst, mode="guess")
    with pytest.raises(ParameterError):
        secrecy_audit(inst, mode="sampled")  # rng missing
    with pytest.raises(ParameterError):
        secrecy_audit(inst, tap_rows=9)


# ------------------------------------------------------------- reliability

def test_reliability_exhaustive_identity_and_random_transfers(inst):
    rng = np.random.default_rng(11)
    rep = reliability_audit(inst, rng=rng, random_transfers=5)
    assert rep.exhaustive and rep.passed
    # 226 errors x 256 payloads on identity, plus 5 transfers x 466 errors
    assert rep.cases == 226 * 256 + 5 * 466
    ranks = dict(rep.error_rank_counts)
    assert set(ranks) == {0, 1}
    assert ranks[0] + ranks[1] == rep.cases


def test_reliability_sampled_mode(inst):
    rep = reliability_audit(inst, mode="sampled", rng=np.random.default_rng(5),
                            trials=200)
    assert not rep.exhaustive
    assert rep.cases == 200 and rep.failures == 0


@pytest.mark.parametrize("chunk, mode, calls", [
    (audit._CHUNK, "exhaustive", [612]),
    (100, "exhaustive", [100] * 6 + [12]),
    (audit._CHUNK, "sampled", [1000]),
])
def test_coherent_cases_share_decode_stack_calls_across_phases(monkeypatch, chunk,
                                                               mode, calls):
    # at P0 = (2,3,3,1,0,1) the identity phase has 8 x 50 cases and each
    # of the 2 random 4 x 3 transfers 106: one queue feeds every phase
    sizes = []
    decode_stack = GabidulinCode.decode_stack

    def counted(self, Y, t):
        sizes.append(len(Y))
        return decode_stack(self, Y, t)

    monkeypatch.setattr(GabidulinCode, "decode_stack", counted)
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    p0 = build_instance(SchemeParams(q=2, m=3, n=3, t=1, mu=0, k=1))
    rep = reliability_audit(p0, mode, np.random.default_rng(4), random_transfers=2,
                            trials=1000)
    assert sizes == calls
    assert rep.cases == sum(calls) and rep.failures == 0


@pytest.mark.parametrize("chunk, builds", [(la._ENUM_CHUNK, 1), (100, 3)])
def test_random_transfers_share_one_error_grid(monkeypatch, chunk, builds):
    # at P0 the 106 errors of a 4 x 3 transfer fit the rank blocks' memo
    # and are enumerated once for all 3 transfers; past a memo of 100
    # matrices each transfer enumerates them again, and the report is the
    # same (the 50 errors of the identity phase are kept either way)
    built = []
    rank_blocks = la._rank_blocks

    def counted(q, rows, cols, ranks):
        built.append(rows)
        return rank_blocks(q, rows, cols, ranks)

    p0 = build_instance(P0)
    want = reliability_audit(p0, rng=np.random.default_rng(4), random_transfers=3)
    monkeypatch.setattr(la, "_RANK_BLOCKS", {})
    monkeypatch.setattr(la, "_rank_blocks", counted)
    monkeypatch.setattr(la, "_ENUM_CHUNK", chunk)
    rep = reliability_audit(p0, rng=np.random.default_rng(4), random_transfers=3)
    assert built == [3] + [4] * builds
    assert rep == want and rep.cases == 400 + 3 * 106


@pytest.mark.parametrize("params", [P0, SchemeParams(q=3, m=3, n=3, t=1, mu=0, k=1)],
                         ids=["p0", "q3"])
def test_random_transfer_cases_are_the_coherent_decodes_of_the_same_draws(
        monkeypatch, params):
    # the phase draws as `random_full_rank` draws, so one seed replays its
    # transfers and (S, V); each case's outcome (ok, message, error rank) is
    # the scalar decoder's on the same A and Y
    inst = build_instance(params)
    p = inst.params
    got = []
    decode_stack = GabidulinCode.decode_stack

    def recorded(self, Y, t):
        out = decode_stack(self, Y, t)
        got.append(out)
        return out

    monkeypatch.setattr(GabidulinCode, "decode_stack", recorded)
    rep = reliability_audit(inst, rng=np.random.default_rng(12), random_transfers=3)
    payloads, _ = inst.payload_table()
    rng, N = np.random.default_rng(12), p.n + p.t
    outs = []
    for _ in range(3):
        A = la.random_full_rank(inst.F.base, N, p.n, rng)
        X = payloads[int(rng.integers(0, len(payloads)))]
        outs += [inst.coherent_decode(la.mod(A @ X + E, p.q), A)
                 for E in _rank_matrices(p.q, N, p.m, range(p.t + 1))]
    ok, msgs, ranks = (np.concatenate(col)[rep.cases - len(outs):] for col in zip(*got))
    want = DecodeOutcome.stack(outs, p.k)
    assert (ok == want[0]).all() and (msgs[:, : p.k] == want[1]).all()
    assert (ranks == want[2]).all() and set(ranks.tolist()) == {0, 1}


def test_exemplars_name_cases_decoded_after_later_parts_were_queued(monkeypatch):
    # with 100 cases a stack at P0, identity case 95 (error 11, word 7) and
    # case 102 of transfer 0 (global 502) wait in the queue while the next
    # part, with other errors, is made; their names must be their own
    fail = {95, 502}
    decode_stack = GabidulinCode.decode_stack
    seen = [0]

    def failing(self, Y, t):
        ok, msgs, ranks = decode_stack(self, Y, t)
        ok[[c - seen[0] for c in fail if 0 <= c - seen[0] < len(ok)]] = False
        seen[0] += len(ok)
        return ok, msgs, ranks

    monkeypatch.setattr(GabidulinCode, "decode_stack", failing)
    monkeypatch.setattr(audit, "_CHUNK", 100)
    p0 = build_instance(SchemeParams(q=2, m=3, n=3, t=1, mu=0, k=1))
    rep = reliability_audit(p0, rng=np.random.default_rng(4), random_transfers=2)
    identity = _rank_matrices(2, 3, 3, range(2))
    transfer = _rank_matrices(2, 4, 3, range(2))
    assert [ex.split(" S=")[0] for ex in rep.exemplars] == [
        f"A=I E={audit._matrix_id(identity[95 // 8], 2)}",
        f"A#0 E={audit._matrix_id(transfer[102], 2)}",
    ]


def _recorded_parts(lengths, tagged):
    """Parts of the given lengths; row j of part i holds (i, j), and its
    tag, if any, records the same pair."""
    for i, k in enumerate(lengths):
        rows = np.array([(i, j) for j in range(k)], dtype=np.int64).reshape(k, 2)
        yield [rows, 10 * rows[:, 1]], (lambda j, i=i: (i, j)) if tagged else None


@pytest.mark.parametrize("size", range(1, 8))
@pytest.mark.parametrize("lengths", [
    lambda size: [],                        # an empty stream
    lambda size: [size],                    # one part fills a stack exactly
    lambda size: [1, size - 1, size, 2],    # so does a part after a rest
    lambda size: [2, 3 * size + 1, 1],      # a long part is cut many times
    lambda size: [0, 1, 0, 2, 5, 0, 3],     # empty parts among short ones
], ids=["empty", "exact", "exact-after-rest", "long", "short"])
@pytest.mark.parametrize("tagged", [True, False])
def test_restack_makes_exact_stacks_in_case_order(size, lengths, tagged):
    lengths = lengths(size)
    stacks = list(audit._restack(_recorded_parts(lengths, tagged), size))
    total = sum(lengths)
    assert [len(rows) for (rows, _), _ in stacks] == (
        [size] * (total // size) + [total % size] * (total % size > 0))
    cases = [(i, j) for i, k in enumerate(lengths) for j in range(k)]
    assert [tuple(r) for (rows, _), _ in stacks for r in rows.tolist()] == cases
    for (rows, tens), tag in stacks:
        assert (tens == 10 * rows[:, 1]).all()
        if tagged:
            assert [tag(j) for j in range(len(rows))] == list(map(tuple, rows.tolist()))


def test_reliability_budget_refusal(inst):
    with pytest.raises(BudgetExceededError):
        reliability_audit(inst, rng=np.random.default_rng(0), budget=1000)


def test_reliability_report_text(inst):
    rep = reliability_audit(inst, rng=np.random.default_rng(1),
                            random_transfers=1)
    text = rep.text()
    assert "failures=0" in text and "verdict=pass" in text


# ------------------------------------------------------------- oracles

def test_noncoherent_oracle_matches_decoder(inst):
    rng = np.random.default_rng(99)
    p = inst.params
    for _ in range(15):
        S = [int(x) for x in rng.integers(0, 16, size=p.k)]
        X = inst.encode(S, rng=rng)
        real = sample_realization(p, p.n + p.t, rng, lifted=True)
        res = transmit_lifted(inst.F, X, real)
        out = noncoherent_decode(inst, res.Y)
        oracle = noncoherent_consistency_oracle(inst, res.Y)
        assert out.ok
        assert oracle == {tuple(out.message)}
        assert tuple(S) in oracle


def test_noncoherent_oracle_equals_its_definition_at_p0():
    # P0 = (2,3,3,1,0,1), N = 4: S is explainable when some E of rank <= 1
    # leaves Y - E = [H | H X] with H of rank n = 3 and X a codeword,
    # checked pair by pair with the scalar rank; half the observations are
    # transmissions, half arbitrary, where Y - E may have rank 4
    p = SchemeParams(q=2, m=3, n=3, t=1, mu=0, k=1)
    inst = build_instance(p)
    msgs, words = inst.code.codeword_table()
    Xs = la.expand(inst.F, words)
    Es = np.concatenate(list(la.iter_rank_blocks(2, 4, 6, range(2))))
    rng = np.random.default_rng(6)
    seen = Counter()
    for trial in range(60):
        if trial % 2:
            Y = rng.integers(0, 2, size=(4, 6))
        else:
            X = inst.encode([int(rng.integers(0, 8))], rng=rng)
            Y = transmit_lifted(inst.F, X, sample_realization(p, 4, rng, lifted=True)).Y
        H, P = (Y[:, :3] - Es[:, :, :3]) % 2, (Y[:, 3:] - Es[:, :, 3:]) % 2
        full = np.array([la.rank_fq(h, 2) == 3 for h in H])
        want = {u for u, X in zip(msgs, Xs)
                if (full & ((H @ X) % 2 == P).all(axis=(1, 2))).any()}
        assert noncoherent_consistency_oracle(inst, Y) == want
        seen[len(want)] += 1
    assert seen[0] and seen[1]


def test_noncoherent_oracle_budget(inst):
    Y = np.zeros((5, 8), dtype=np.int64)
    with pytest.raises(BudgetExceededError):
        noncoherent_consistency_oracle(inst, Y, budget=10)


def test_noncoherent_oracle_refuses_short_and_flat_observations():
    # P0 = (2,3,3,1,0,1): an observation has n + m = 6 columns and at least
    # n = 3 rows; the shape is refused before the budget is looked at
    p0 = build_instance(SchemeParams(q=2, m=3, n=3, t=1, mu=0, k=1))
    for N in range(3):
        with pytest.raises(ParameterError, match=f"observation has {N} < n = 3 rows"):
            noncoherent_consistency_oracle(p0, np.zeros((N, 6), dtype=np.int64),
                                           budget=0)
    for Y in (np.zeros(6, dtype=np.int64), np.zeros((3, 5), dtype=np.int64)):
        with pytest.raises(ParameterError, match="must have 6 columns"):
            noncoherent_consistency_oracle(p0, Y, budget=0)


def test_brute_force_decode_validates_length(inst):
    with pytest.raises(ParameterError):
        brute_force_decode(inst.code, [0, 0, 0], 1)


@pytest.mark.parametrize("bad", [0.5, 1.9, np.float64(1.0), None], ids=repr)
def test_brute_force_decode_refuses_entries_that_are_not_integers(inst, bad):
    # refused as decode refuses them, not truncated to a codeword's entries
    with pytest.raises(ParameterError,
                       match="^received word entries must be integers$"):
        brute_force_decode(inst.code, [bad, 0, 0, 0], 1)


def test_counts_that_check_nothing_are_rejected(inst):
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        secrecy_audit(inst, mode="sampled", rng=rng, samples=0)
    with pytest.raises(ParameterError):
        reliability_audit(inst, mode="sampled", rng=rng, trials=0)
    with pytest.raises(ParameterError):
        reliability_audit(inst, rng=rng, random_transfers=-1)


def test_view_keys_are_equal_exactly_when_views_are():
    from secnc.audit import _view_keys

    rng = np.random.default_rng(8)
    for rows, cols in [(1, 8), (4, 16)]:  # 2^8 and 2^64 possible views
        views = rng.integers(0, 2, size=(40, rows, cols))
        views[20:] = views[rng.integers(0, 20, size=20)]  # repeats
        keys = _view_keys(views, 2)
        same_view = (views[:, None] == views[None, :]).all(axis=(2, 3))
        assert ((keys[:, None] == keys[None, :]) == same_view).all()


@pytest.mark.parametrize("run, message", [
    (lambda inst, broken: reliability_audit(inst, "thorough"),
     "unknown audit mode 'thorough'"),
    (lambda inst, broken: reliability_audit(inst, "sampled", trials=3),
     "sampled mode needs an rng"),
    (lambda inst, broken: reliability_audit(inst, random_transfers=2),
     "the random-transfer phase needs an rng"),
    (lambda inst, broken: reliability_audit(broken, "sampled",
                                            np.random.default_rng(0)),
     "this instance has no decodable outer code"),
    (lambda inst, broken: noncoherent_consistency_oracle(
        broken, np.zeros((4, 8), dtype=np.int64)),
     "this instance has no decodable outer code"),
], ids=["unknown-mode", "sampled-without-rng", "transfers-without-rng",
        "broken-audit", "broken-oracle"])
def test_audit_refusals(inst, broken, run, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        run(inst, broken)
