import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnc import linalg as la
from secnc.audit import noncoherent_consistency_oracle
from secnc.errors import ParameterError, SingularMatrixError
from secnc.network import (
    ChannelRealization,
    lift,
    noncoherent_decode,
    sample_realization,
    transmit,
    transmit_lifted,
)
from secnc.scheme import SchemeParams, build_instance

PARAMS = SchemeParams(q=2, m=4, n=4, t=1, mu=1, k=1)


@pytest.fixture(scope="module")
def inst():
    return build_instance(PARAMS)


def clean_realization(n, q=2, cols=None):
    cols = n if cols is None else cols
    return ChannelRealization(
        q,
        np.eye(n, dtype=np.int64),
        np.zeros((n, 0), dtype=np.int64),
        np.zeros((0, cols), dtype=np.int64),
        np.zeros((0, n), dtype=np.int64),
    )


def test_transmit_identity_channel(inst):
    X = inst.encode([9], force_v=[4])
    res = transmit(inst.F, X, clean_realization(4, cols=4))
    assert (res.Y == la.expand(inst.F, X)).all()
    assert res.W.shape == (0, 4)


def test_transmit_zero_payload_shows_only_error(inst):
    rng = np.random.default_rng(3)
    real = sample_realization(PARAMS, 5, rng)
    res = transmit(inst.F, [0, 0, 0, 0], real)
    assert (res.Y == real.effective_error()).all()
    assert (res.W == 0).all()


def test_effective_error_rank_bound(inst):
    rng = np.random.default_rng(5)
    for _ in range(40):
        real = sample_realization(PARAMS, 6, rng)
        E = real.effective_error()
        assert la.rank_fq(E, 2) <= min(real.D.shape[1], la.rank_fq(real.Z, 2))
        assert la.rank_fq(E, 2) <= PARAMS.t


def test_realization_validation():
    I4 = np.eye(4, dtype=np.int64)
    with pytest.raises(ParameterError, match="^transfer matrix 4 x 0 has no columns$"):
        ChannelRealization(2, I4[:, :0], I4[:, :0], np.zeros((0, 0), dtype=int),
                           np.zeros((0, 0), dtype=int))
    with pytest.raises(ParameterError):  # D rows != N
        ChannelRealization(2, I4, np.zeros((3, 1), dtype=int),
                           np.zeros((1, 4), dtype=int),
                           np.zeros((0, 4), dtype=int))
    with pytest.raises(ParameterError):  # Z rows != D cols
        ChannelRealization(2, I4, np.zeros((4, 2), dtype=int),
                           np.zeros((1, 4), dtype=int),
                           np.zeros((0, 4), dtype=int))
    with pytest.raises(ParameterError):  # B cols != n
        ChannelRealization(2, I4, np.zeros((4, 0), dtype=int),
                           np.zeros((0, 4), dtype=int),
                           np.ones((1, 3), dtype=int))
    # an empty B too: refused here, not inside numpy by transmit
    with pytest.raises(ParameterError, match="B must have n = 4 columns"):
        ChannelRealization(2, I4, np.zeros((4, 0), dtype=int),
                           np.zeros((0, 4), dtype=int),
                           np.zeros((0, 3), dtype=int))


def test_sample_realization_modes(inst):
    rng = np.random.default_rng(13)
    real = sample_realization(PARAMS, 6, rng)
    assert real.A.shape == (6, 4) and la.rank_fq(real.A, 2) == 4
    assert real.D.shape == (6, 1) and real.Z.shape == (1, 4)
    assert real.B.shape == (1, 4)
    with pytest.raises(ParameterError):
        sample_realization(PARAMS, 3, rng)


def test_lift(inst):
    X = inst.encode([7], force_v=[2])
    L = lift(la.expand(inst.F, X))
    assert L.shape == (4, 8)
    assert (L[:, :4] == np.eye(4, dtype=int)).all()
    assert (L[:, 4:] == la.expand(inst.F, X)).all()
    Z = lift(la.expand(inst.F, [0, 0, 0, 0]))
    assert (Z[:, 4:] == 0).all()


def test_lift_clean_channel_row_reduces_to_lifted_matrix(inst):
    # with no errors the received lifted matrix row-reduces back to [I | X]
    rng = np.random.default_rng(19)
    F = inst.F
    for _ in range(20):
        X = inst.encode([int(rng.integers(0, 16))], rng=rng)
        A = la.random_full_rank(F.base, 4, 4, rng)
        real = ChannelRealization(2, A, np.zeros((4, 0), dtype=int),
                                  np.zeros((0, 8), dtype=int),
                                  np.zeros((0, 4), dtype=int))
        res = transmit_lifted(F, X, real)
        _, R, _ = la.row_reduce_transform(F.base, res.Y)
        assert np.array_equal(np.array(R), lift(la.expand(F, X)))


def test_noncoherent_clean(inst):
    rng = np.random.default_rng(23)
    for s in range(16):
        X = inst.encode([s], rng=rng)
        A = la.random_full_rank(inst.F.base, 4, 4, rng)
        real = ChannelRealization(2, A, np.zeros((4, 0), dtype=int),
                                  np.zeros((0, 8), dtype=int),
                                  np.zeros((0, 4), dtype=int))
        res = transmit_lifted(inst.F, X, real)
        out = noncoherent_decode(inst, res.Y)
        assert out.ok and out.message == (s,) and out.error_rank == 0


def test_noncoherent_single_injection(inst):
    rng = np.random.default_rng(29)
    for trial in range(150):
        s = int(rng.integers(0, 16))
        X = inst.encode([s], rng=rng)
        real = sample_realization(PARAMS, 4, rng, lifted=True)
        res = transmit_lifted(inst.F, X, real)
        out = noncoherent_decode(inst, res.Y)
        assert out.ok and out.message == (s,), (trial, s)
        assert out.error_rank <= 1


def test_noncoherent_rectangular_and_header_corruption(inst):
    rng = np.random.default_rng(31)
    for trial in range(60):
        s = int(rng.integers(0, 16))
        X = inst.encode([s], rng=rng)
        A = la.random_full_rank(inst.F.base, 6, 4, rng)
        Z = np.zeros((1, 8), dtype=np.int64)
        Z[0, :4] = rng.integers(0, 2, size=4)  # corrupt headers only
        real = ChannelRealization(2, A, rng.integers(0, 2, size=(6, 1)), Z,
                                  np.zeros((0, 4), dtype=int))
        res = transmit_lifted(inst.F, X, real)
        out = noncoherent_decode(inst, res.Y)
        assert out.ok and out.message == (s,), (trial, s)


@pytest.mark.parametrize("q", [2, 3])
def test_noncoherent_rank_deficient_header_still_decodes(q):
    # D Z_h = -A e_j e_j^T zeroes header column j: Y_h = A + D Z_h has rank
    # n - 1, one injection within the promise
    inst = build_instance(SchemeParams(q=q, m=4, n=4, t=1, mu=1, k=1))
    F, n, N = inst.F, 4, 5
    rng = np.random.default_rng(37 + q)
    for trial in range(12):
        S = [int(rng.integers(0, F.order))]
        X = inst.encode(S, rng=rng)
        A = la.random_full_rank(F.base, N, n, rng)
        j = int(rng.integers(0, n))
        Z = np.zeros((1, n + 4), dtype=np.int64)
        Z[0, j] = 1
        Z[0, n:] = rng.integers(0, q, size=4)
        real = ChannelRealization(q, A, -A[:, [j]], Z, np.zeros((0, n), dtype=int))
        Y = transmit_lifted(F, X, real).Y
        assert la.rank_fq(Y[:, :n], q) == n - 1
        out = noncoherent_decode(inst, Y)
        assert out.ok and out.message == tuple(S), (trial, S)
        assert out.error_rank <= 1


@pytest.mark.parametrize("params", [(2, 4, 4, 1, 1, 1), (3, 4, 4, 1, 1, 1),
                                    (5, 3, 3, 1, 0, 1)])
def test_noncoherent_success_explains_the_observation(params):
    # beyond the promise and on garbage the decoder may fail, but a
    # success must name a codeword [S; V] with
    # rank(Y_p - Y_h expand(G0^T [S; V])) == error_rank <= t
    q, m, n, t, mu, k = params
    inst = build_instance(SchemeParams(*params))
    F, N = inst.F, n + 1
    G0t = la.transpose(inst.G0)
    rng = np.random.default_rng(41 + q)
    successes = 0
    for trial in range(120):
        S = [int(x) for x in rng.integers(0, F.order, size=k)]
        A = la.random_full_rank(F.base, N, n, rng)
        kind = trial % 4  # rank t+1, rank t+2, garbage, header zeroed + rank t
        r = (t + 1, t + 2, 0, t)[kind]
        E = rng.integers(0, q, size=(N, r)) @ rng.integers(0, q, size=(r, n + m))
        if kind == 3:
            # t injections plus one that zeroes a header column
            E[:, :n] -= np.outer(A[:, 0], np.eye(n, dtype=np.int64)[0])
        Y = (A @ lift(la.expand(F, inst.encode(S, rng=rng))) + E) % q
        if kind == 2:
            Y = rng.integers(0, q, size=(N, n + m))
        out = noncoherent_decode(inst, Y)
        if not out.ok:
            continue
        successes += 1
        assert out.error_rank <= t
        ranks = set()
        for V in itertools.product(range(F.order), repeat=mu):
            Xbar = la.expand(F, la.matvec(F, G0t, list(out.message) + list(V)))
            ranks.add(la.rank_fq((Y[:, n:] - Y[:, :n] @ Xbar) % q, q))
        assert out.error_rank in ranks, trial
    assert successes >= 3


ROW_SPACE_INSTANCES = {
    params: build_instance(SchemeParams(*params))
    for params in [(2, 4, 4, 1, 1, 1), (3, 4, 4, 1, 1, 1)]
}


@pytest.mark.parametrize("params", list(ROW_SPACE_INSTANCES))
@given(seed=st.integers(0, 2 ** 32 - 1), extra_rows=st.integers(0, 1),
       kind=st.sampled_from(["promise", "rank t+1", "rank t+2", "garbage"]))
@settings(max_examples=25, deadline=None)
def test_noncoherent_decode_depends_on_the_row_space_alone(params, seed,
                                                           extra_rows, kind):
    # decode(P Y) == decode(Y) for every invertible P, inside the promise
    # and outside it: so the lifted audit's identity transfer, A = I,
    # stands for every full-rank square A
    q, m, n, t, mu, k = params
    inst = ROW_SPACE_INSTANCES[params]
    F, N = inst.F, n + extra_rows
    rng = np.random.default_rng(seed)
    S = [int(x) for x in rng.integers(0, F.order, size=k)]
    A = la.random_full_rank(F.base, N, n, rng)
    r = {"promise": t, "rank t+1": t + 1, "rank t+2": t + 2, "garbage": 0}[kind]
    E = rng.integers(0, q, size=(N, r)) @ rng.integers(0, q, size=(r, n + m))
    Y = (A @ lift(la.expand(F, inst.encode(S, rng=rng))) + E) % q
    if kind == "garbage":
        Y = rng.integers(0, q, size=(N, n + m))
    P = la.random_full_rank(F.base, N, N, rng)
    out = noncoherent_decode(inst, Y)
    assert noncoherent_decode(inst, P @ Y % q) == out
    if kind == "promise":
        assert out.ok and out.message == tuple(S)


def test_noncoherent_rejects_bad_shapes(inst):
    with pytest.raises(ParameterError):
        noncoherent_decode(inst, np.zeros((4, 7), dtype=int))
    with pytest.raises(ParameterError):
        noncoherent_decode(inst, np.zeros((3, 8), dtype=int))


@pytest.mark.parametrize("decoder", [noncoherent_decode,
                                     noncoherent_consistency_oracle],
                         ids=["decoder", "oracle"])
def test_lifted_readers_refuse_entries_that_are_not_integers(inst, decoder):
    # a ParameterError: lift(X) + 0.5 is not read as lift(X), and None or a
    # short row raises no TypeError or numpy ValueError
    L = lift(la.expand(inst.F, inst.encode([5], force_v=[9])))
    assert noncoherent_decode(inst, L).message == (5,)
    for Y, reason in [(L + 0.5, "entries must be integers"),
                      ([[None] * 8] * 4, "entries must be integers"),
                      (L.tolist()[:3] + [[0] * 7], "has rows of unequal lengths")]:
        with pytest.raises(ParameterError, match=f"^lifted observation {reason}"):
            decoder(inst, Y)


def test_transmit_shape_mismatches(inst):
    X = inst.encode([1], force_v=[0])
    with pytest.raises(ParameterError):
        transmit(inst.F, X[:3], clean_realization(4, cols=4))
    with pytest.raises(ParameterError):
        transmit_lifted(inst.F, X, clean_realization(4, cols=4))  # Z too narrow


@pytest.mark.parametrize("send", [transmit, transmit_lifted],
                         ids=["transmit", "lifted"])
def test_transmit_reads_the_payload_as_elements(inst, send):
    # as encode reads a message: 1.5 is not sent as 1, 17 is not an element
    # of GF(2^4), -1 is not sent as 15, and None raises no bare TypeError
    real = clean_realization(4, cols=8 if send is transmit_lifted else 4)
    assert (send(inst.F, [1, 0, 0, 0], real).Y[0] != 0).any()
    for X, reason in [([1.5, 0, 0, 0], "payload entries must be integers"),
                      ([None, 0, 0, 0], "payload entries must be integers"),
                      ([17, 0, 0, 0], r"17 is not an element of GF\(2\^4\)"),
                      ([-1, 0, 0, 0], r"-1 is not an element of GF\(2\^4\)")]:
        with pytest.raises(ParameterError, match=f"^{reason}$"):
            send(inst.F, X, real)


def test_realization_reads_its_matrices_as_the_decoders_do():
    # A, D, Z and B go through the decoders' reader: 1.7 is not read as
    # 1, and ragged rows or strings raise a ParameterError, not numpy's
    eye, D, Z, B = [[1, 0], [0, 1], [1, 1]], [[0]] * 3, [[0, 0]], [[1, 0]]
    for A, reason in [([[1.7, 0], [0, 1], [1, 1]], "A entries must be integers"),
                      ([[1, 0], [0, 1], [1]], "A has rows of unequal lengths"),
                      ([["1", "0"], ["0", "1"], ["1", "1"]],
                       "A entries must be integers")]:
        with pytest.raises(ParameterError, match=f"^{reason}$"):
            ChannelRealization(2, A, D, Z, B)
    with pytest.raises(ParameterError, match="^B entries must be integers$"):
        ChannelRealization(2, eye, D, Z, [[0.5, 0]])
    real = ChannelRealization(3, [[4, 0], [0, -1], [1, 1]], D, Z, B)
    assert real.A.tolist() == [[1, 0], [0, 2], [1, 1]]


@pytest.mark.parametrize("A, decodes", [(np.eye(3, 4, dtype=np.int64), True),
                                         (np.zeros((4, 4), dtype=np.int64), False)],
                         ids=["short-transfer", "zero-transfer"])
def test_a_channel_of_any_rank_transmits(inst, A, decodes):
    # a rank-deficient A is an erasure channel: it transmits, and
    # coherent_decode decodes its clean output at rho = n - rank(A) <= 2t and
    # refuses it past 2t (here rho = 1 and 4, t = 1)
    real = ChannelRealization(2, A, np.zeros((len(A), 0), dtype=np.int64),
                              np.zeros((0, 4), dtype=np.int64),
                              np.eye(1, 4, dtype=np.int64))
    X = inst.encode([6], force_v=[3])
    Y = transmit(inst.F, X, real).Y
    assert (Y == A @ la.expand(inst.F, X) % 2).all()
    if decodes:
        assert inst.coherent_decode(Y, A).message == (6,)
    else:
        with pytest.raises(SingularMatrixError, match="has rank 0 < n - 2t = 2"):
            inst.coherent_decode(Y, A)


@pytest.mark.parametrize("build, message", [
    (lambda: ChannelRealization(2, np.eye(4, dtype=np.int64), np.zeros((4, 0)),
                                np.zeros((0, 4)), np.zeros(4, dtype=np.int64)),
     "B must be a matrix"),
], ids=["flat-taps"])
def test_channel_refusals(build, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        build()


def test_sample_realization_admits_no_errors():
    # at t = 0 the adversary injects nothing
    real = sample_realization(SchemeParams(2, 4, 4, 0, 1, 1), 5,
                              np.random.default_rng(0))
    assert real.D.shape == (5, 0) and real.Z.shape == (0, 4)
    assert not real.effective_error().any()


def test_lift_of_a_stack_lifts_each_payload(inst):
    X = np.array([la.expand(inst.F, inst.encode([s], force_v=[s ^ 3]))
                  for s in range(4)])
    L = lift(X)
    assert L.shape == (4, 4, 8)
    assert all((L[i] == lift(X[i])).all() for i in range(4))
