"""Secrecy and reliability audits, entropy helpers, oracle construction."""

import numpy as np
import pytest

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
from secnc.scheme import SchemeParams, build_broken_instance, build_instance


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

        from secnc.audit import _payload_table, mutual_information_from_joint

        payloads, s_index = _payload_table(big)
        joint = Counter()
        for i, S in enumerate(s_index):
            W = (B @ payloads[i]) % 2
            joint[(S, W.tobytes())] += 1
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


def test_noncoherent_oracle_budget(inst):
    Y = np.zeros((5, 8), dtype=np.int64)
    with pytest.raises(BudgetExceededError):
        noncoherent_consistency_oracle(inst, Y, budget=10)


def test_brute_force_decode_validates_length(inst):
    with pytest.raises(ParameterError):
        brute_force_decode(inst.code, [0, 0, 0], 1)


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
