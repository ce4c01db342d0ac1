import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnc import linalg as la
from secnc.errors import (BudgetExceededError, InconsistentSystemError,
                          ParameterError, SingularMatrixError, ValidationError)
from secnc.gf import ExtField
from secnc.rankmetric import DECODE_FAILURE, DEFAULT_ENUM_BUDGET
from secnc.scheme import SchemeParams, build_broken_instance, build_instance
from test_linalg import _rank_matrices
from test_rankmetric import min_rank_weight

PARAMS = SchemeParams(q=2, m=4, n=4, t=1, mu=1, k=1)


def proposition1_check(F, T, k, budget=DEFAULT_ENUM_BUDGET):
    """Do the last n-k rows of T^T generate an [n, n-k] MRD code?

    Returns (ok, certificate) where the certificate is the exhaustively
    computed minimum rank distance; MRD means it equals k + 1.  The
    k = 0 case is vacuous: the rows span everything, so the minimum
    distance is 1 by the rank-1 vector (1, 0, ..., 0).
    """
    n = len(T)
    if not 0 <= k <= n:
        raise ParameterError(f"need 0 <= k <= n = {n}, got k = {k}")
    if k == n:
        raise ParameterError("no rows left to check when k = n")
    if k == 0:
        return True, 1
    best = min_rank_weight(F, la.transpose(T)[k:], budget)
    return best == k + 1, best


def _complete_transform(F, G0, n):
    """Invertible n x n T whose last len(G0) columns are G0^T, so that
    T [0; S; V] = G0^T [S; V]: the expository form of the encoder.

    The remaining columns are standard-basis vectors chosen greedily in
    index order.
    """
    k0 = len(G0)
    # a column of [G0^T | I] is a pivot exactly when it is independent of
    # the columns before it, so the pivots past k0 are the greedy picks
    eye = np.eye(n, dtype=int).tolist()
    _, _, pivots = la.row_reduce_transform(
        F, [col + e for col, e in zip(la.transpose(G0), eye)])
    if pivots[:k0] != list(range(k0)):
        raise ParameterError("generator rows are linearly dependent")
    Tt = [eye[p - k0] for p in pivots[k0:]] + [list(r) for r in G0]
    return la.transpose(Tt)


@pytest.fixture(scope="module")
def inst():
    return build_instance(PARAMS)


def test_rate_bound_boundary():
    SchemeParams(2, 4, 4, 1, 1, 1).validate()  # k = n - 2t - mu accepted
    with pytest.raises(ValidationError) as e:
        SchemeParams(2, 4, 4, 1, 1, 2).validate()
    assert e.value.reason == "rate_bound"
    with pytest.raises(ValidationError) as e:
        SchemeParams(2, 4, 4, 1, 4, 0).validate()
    assert e.value.reason == "rate_bound"


def test_packet_length_boundary():
    with pytest.raises(ValidationError) as e:
        SchemeParams(2, 3, 4, 1, 1, 1).validate()
    assert e.value.reason == "packet_length"
    SchemeParams(2, 5, 4, 1, 1, 1).validate()  # m > n is fine


def test_shape_rejection():
    with pytest.raises(ValidationError) as e:
        SchemeParams(2, 4, 4, -1, 1, 1).validate()
    assert e.value.reason == "shape"


def test_boundary_sweep_small():
    # acceptance criterion 6 runs the full sweep; spot-check here
    for n, t, mu in [(3, 0, 1), (5, 1, 1), (8, 2, 2)]:
        kmax = n - 2 * t - mu
        if kmax < 1:
            continue
        SchemeParams(2, n, n, t, mu, kmax).validate()
        with pytest.raises(ValidationError):
            SchemeParams(2, n, n, t, mu, kmax + 1).validate()
        with pytest.raises(ValidationError):
            SchemeParams(2, n - 1, n, t, mu, kmax).validate()


def test_instance_structure(inst):
    p = inst.params
    assert p.min_distance == 3  # n - k - mu + 1 = 3 >= 2t + 1
    assert len(inst.G0) == p.k + p.mu
    T = _complete_transform(inst.F, inst.G0, p.n)
    assert la.transpose(T)[p.n - p.k - p.mu:] == inst.G0
    assert la.rank(inst.F, T) == p.n


def test_encoder_views_agree(inst):
    # X = G0^T U and X = T [0; U] are the same map
    T = _complete_transform(inst.F, inst.G0, 4)
    rng = np.random.default_rng(41)
    for _ in range(100):
        S = [int(rng.integers(0, 16))]
        V = [int(rng.integers(0, 16))]
        assert inst.encode(S, force_v=V) == la.matvec(inst.F, T, [0, 0] + S + V)


def test_encode_zero_and_block_structure(inst):
    assert inst.encode([0], force_v=[0]) == [0, 0, 0, 0]
    # with V = 0 the payload is (first k rows of G0)^T S
    S = [11]
    X = inst.encode(S, force_v=[0])
    expected = la.matvec(inst.F, la.transpose(inst.G0[:1]), S)
    assert X == expected


def test_encode_coset_structure(inst):
    # for fixed S, the payloads over all V form a coset of the code
    # generated by G, with q^(m mu) distinct members
    F = inst.F
    base = inst.encode([6], force_v=[0])
    coset = set()
    for v in range(16):
        X = inst.encode([6], force_v=[v])
        diff = [F.sub(a, b) for a, b in zip(X, base)]
        # difference must be v times the single secrecy row G0[k]
        assert diff == [F.mul(v, g) for g in inst.G0[inst.params.k]]
        coset.add(tuple(X))
    assert len(coset) == 16


def test_encode_argument_checks(inst):
    with pytest.raises(ParameterError):
        inst.encode([1, 2], force_v=[0])
    with pytest.raises(ParameterError):
        inst.encode([1], force_v=[0, 0])
    with pytest.raises(ParameterError):
        inst.encode([1])  # no rng, no forced V


@pytest.mark.parametrize("bad", [0.5, 1.9, np.float64(1.0), None], ids=repr)
def test_encode_refuses_entries_that_are_not_integers(inst, bad):
    # refused, not truncated to int: encode([1.9], ...) encoded S = (1,)
    with pytest.raises(ParameterError, match="^message entries must be integers$"):
        inst.encode([bad], force_v=[0])
    with pytest.raises(ParameterError, match="^forced V entries must be integers$"):
        inst.encode([1], force_v=[bad])


def test_coherent_decode_clean(inst):
    for s in range(16):
        X = inst.encode([s], force_v=[9])
        out = inst.coherent_decode(la.expand(inst.F, X), np.eye(4, dtype=int))
        assert out.ok and out.message == (s,) and out.error_rank == 0


def test_coherent_decode_all_rank1_errors_identity_A(inst):
    F = inst.F
    errors = _rank_matrices(2, 4, 4, range(2))
    for s, v in [(3, 14), (0, 0), (15, 7)]:
        X = la.expand(F, inst.encode([s], force_v=[v]))
        for E in errors:
            Y = (X + np.array(E)) % 2
            out = inst.coherent_decode(Y, np.eye(4, dtype=int))
            assert out.ok and out.message == (s,)


def test_coherent_decode_random_rectangular(inst):
    rng = np.random.default_rng(43)
    F = inst.F
    for _ in range(60):
        s = int(rng.integers(0, 16))
        X = inst.encode([s], rng=rng)
        N = int(rng.integers(4, 8))
        A = la.random_full_rank(F.base, N, 4, rng)
        D = rng.integers(0, 2, size=(N, 1))
        Z = rng.integers(0, 2, size=(1, 4))
        Y = (np.array(A) @ la.expand(F, X) + D @ Z) % 2
        out = inst.coherent_decode(Y, A)
        assert out.ok and out.message == (s,)


def test_coherent_decode_output_independent_of_A(inst):
    # universality: for fixed X and fixed D Z, the decoded message does
    # not depend on which full-rank A carried it
    rng = np.random.default_rng(44)
    F = inst.F
    X = inst.encode([13], force_v=[5])
    E = next(la.iter_rank_blocks(2, 5, 4, [1]))[0]
    outs = set()
    for _ in range(15):
        A = la.random_full_rank(F.base, 5, 4, rng)
        Y = (np.array(A) @ la.expand(F, X) + E) % 2
        out = inst.coherent_decode(Y, A)
        outs.add((out.ok, out.message))
    assert outs == {(True, (13,))}


def test_coherent_decode_rejects_bad_transfer(inst):
    X = inst.encode([1], force_v=[0])
    Y = la.expand(inst.F, X)
    from secnc.errors import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        inst.coherent_decode(Y, np.zeros((4, 4), dtype=int))
    with pytest.raises(ParameterError):
        inst.coherent_decode(Y[:3], np.eye(4, dtype=int))


def test_erasure_decode_exhaustive(inst):
    # all 210 full-rank 2 x 4 A' (35 row spaces), all 256 (S, V): 53,760 decodes
    F = inst.F
    payloads = {}
    for s in range(16):
        for v in range(16):
            payloads[(s, v)] = la.expand(F, inst.encode([s], force_v=[v]))
    for Ap in _rank_matrices(2, 2, 4, [2]):
        Apn = np.array(Ap)
        for (s, v), X in payloads.items():
            out = inst.coherent_decode((Apn @ X) % 2, Ap)
            assert out.ok and out.message == (s,)


@pytest.mark.parametrize("A_prime", [np.zeros(4, dtype=np.int64), [1, 0, 0, 0], 1,
                                     np.zeros((1, 2, 4), dtype=np.int64)],
                         ids=["array", "list", "scalar", "3-D"])
def test_erasure_refuses_a_transfer_that_is_no_matrix(inst, A_prime):
    # a ParameterError, not a TypeError from iterating
    Y = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ParameterError, match="transfer matrix must have 4 columns"):
        inst.coherent_decode(Y, A_prime)


def test_erasure_refuses_a_transfer_with_ragged_rows(inst):
    # a short row is refused, not read as if zero-padded
    Y = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ParameterError, match="rows of unequal lengths"):
        inst.coherent_decode(Y, [[1, 0, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("ragged", ["transfer", "observation"])
def test_coherent_decode_refuses_ragged_rows(inst, ragged):
    # a ParameterError, not numpy's ValueError for an inhomogeneous shape
    square = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    short = square[:3] + [[0, 0, 1]]
    args = (short, square) if ragged == "observation" else (square, short)
    with pytest.raises(ParameterError, match=f"^{ragged} .*rows of unequal lengths"):
        inst.coherent_decode(*args)


@pytest.mark.parametrize("bad", ["half", "none"])
@pytest.mark.parametrize("where", ["transfer matrix", "observation"])
def test_coherent_decode_refuses_entries_that_are_not_integers(inst, where, bad):
    # a ParameterError: 1.5 * I_4 is not read as I_4, and None raises no
    # TypeError
    X = la.expand(inst.F, inst.encode([5], force_v=[9]))
    args = {"observation": X, "transfer matrix": np.eye(4, dtype=np.int64)}
    args[where] = 1.5 * args[where] if bad == "half" else [[None] * 4] * 4
    with pytest.raises(ParameterError, match=f"^{where} entries must be integers"):
        inst.coherent_decode(args["observation"], args["transfer matrix"])


@pytest.mark.parametrize("params, entries", [((2, 4, 4, 1, 1, 1), (3, -1)),
                                             ((3, 4, 4, 1, 1, 1), (4, -2))], ids=str)
def test_erasure_takes_transfer_entries_mod_q(params, entries):
    # an entry past 0..q-1 is the constant it is mod q, in both transfer
    # shapes, not the element of GF(q^m) its int names
    i = build_instance(SchemeParams(*params))
    q = i.params.q
    X = np.array(la.expand(i.F, i.encode([5], force_v=[9])))
    for a in entries:
        Ap = np.array([[a, 0, 0, 0], [0, 1, 0, 0]])
        out = i.coherent_decode((Ap @ X) % q, Ap)
        assert out.ok and out.message == (5,)
        A = np.eye(4, dtype=np.int64)
        A[0, 0] = a
        assert i.coherent_decode((A @ X) % q, A).message == (5,)


# ----------------------------------------------------------------------
# The transfer's rank n - rho chooses the decode, at any row count N:
# rho = 0 the left inverse, 0 < rho <= 2t errors and erasures at radius
# (2t - rho) // 2, rho > 2t refused
# ----------------------------------------------------------------------

def _count_left_inverses(monkeypatch):
    calls = []
    real = la.left_inverse

    def counted(field, A, *Y):
        calls.append(len(A))
        return real(field, A, *Y)

    monkeypatch.setattr(la, "left_inverse", counted)
    return calls


def _of_rank(field, rows, cols, r, rng):
    """A random rows x cols matrix of rank r, as C R with C and R of rank r."""
    if r == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    C = la.random_full_rank(field, rows, r, rng)
    return la.mod(C @ la.random_full_rank(field, r, cols, rng), field.q)


def test_a_square_transfer_at_t0_takes_the_left_inverse(monkeypatch):
    # at t = 0, n - 2t = n: the square transfer is no erasure transfer
    i = build_instance(SchemeParams(q=2, m=4, n=4, t=0, mu=1, k=2))
    calls = _count_left_inverses(monkeypatch)
    rng = np.random.default_rng(45)
    for _ in range(10):
        S = [int(x) for x in rng.integers(0, 16, size=2)]
        A = la.random_full_rank(i.F.base, 4, 4, rng)
        Y = (np.array(A) @ la.expand(i.F, i.encode(S, rng=rng))) % 2
        out = i.coherent_decode(Y, A)
        assert out.ok and out.message == tuple(S) and out.error_rank == 0
    assert calls == [4] * 10


def test_n_minus_2t_rows_decode_as_erasures(inst, monkeypatch):
    # the left inverse is tried once and refuses the short transfer
    calls = _count_left_inverses(monkeypatch)
    X = np.array(la.expand(inst.F, inst.encode([11], force_v=[6])))
    Ap = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
    out = inst.coherent_decode((Ap @ X) % 2, Ap)
    assert out.ok and out.message == (11,) and out.error_rank == 0
    assert calls == [2]


def test_a_transfer_between_n_minus_2t_and_n_rows_decodes(inst):
    # 3 rows of rank 3 at n = 4, t = 1: one erasure, radius 0
    X = np.array(la.expand(inst.F, inst.encode([7], force_v=[12])))
    Ap = np.eye(3, 4, dtype=np.int64)
    out = inst.coherent_decode((Ap @ X) % 2, Ap)
    assert out.ok and out.message == (7,) and out.error_rank == 0


@pytest.mark.parametrize("Ap", [
    [[1, 0, 0, 0]],
    [[1, 1, 0, 0], [1, 1, 0, 0]],
    [[0, 1, 1, 0], [0, 0, 0, 0]],
], ids=["fewer", "repeated-row", "zero-row"])
def test_other_transfer_shapes_are_refused(inst, Ap):
    # rank 1 at n = 4, t = 1: rho = 3 > 2t
    Y = np.zeros((len(Ap), 4), dtype=np.int64)
    with pytest.raises(SingularMatrixError, match="^transfer matrix has rank 1 < "
                                                  "n - 2t = 2$"):
        inst.coherent_decode(Y, Ap)


@pytest.mark.parametrize("params, N", [((2, 4, 4, 1, 1, 1), 5), ((2, 8, 8, 2, 2, 2), 10),
                                       ((3, 4, 4, 1, 1, 1), 5), ((5, 3, 3, 1, 0, 1), 4),
                                       ((2, 5, 5, 2, 0, 1), 6)], ids=str)
def test_every_rho_up_to_2t_decodes_and_past_2t_is_refused(params, N):
    # N x n transfers of every rank n - rho, rho = 0..2t, each with an
    # injection D Z of rank (2t - rho) // 2, the most the promise
    # 2 rank(D Z) + rho <= 2t allows, decode to S; rank n - 2t - 1 is refused
    i = build_instance(SchemeParams(*params))
    F, p = i.F, i.params
    rng = np.random.default_rng(N + sum(params))
    for rho in range(2 * p.t + 1):
        tau = (2 * p.t - rho) // 2
        for _ in range(60):
            S = rng.integers(0, F.order, size=p.k).tolist()
            A = _of_rank(F.base, N, p.n, p.n - rho, rng)
            DZ = _of_rank(F.base, N, p.m, tau, rng)
            Y = la.mod(A @ la.expand(F, i.encode(S, rng=rng)) + DZ, p.q)
            out = i.coherent_decode(Y, A)
            assert out.ok and out.message == tuple(S) and out.error_rank <= tau
    A = _of_rank(F.base, N, p.n, p.n - 2 * p.t - 1, rng)
    with pytest.raises(SingularMatrixError, match=f"has rank {p.n - 2 * p.t - 1} <"):
        i.coherent_decode(np.zeros((N, p.m), dtype=np.int64), A)


@pytest.mark.parametrize("params", [(2, 4, 4, 1, 1, 1), (3, 4, 4, 1, 0, 1),
                                    (2, 5, 5, 1, 1, 1), (5, 3, 3, 1, 0, 1)], ids=str)
def test_erasure_decode_equals_the_linear_solve_at_rho_2t(params):
    # the scheme against A' G0^T u = y' solved over GF(q^m): clean, corrupted
    # and random observations through random full-rank (n - rho) x n A', at
    # every rho whose radius (2t - rho) // 2 is 0: rho = 2t and 2t - 1; at
    # k + mu = n - 2t the code seen at rho = 2t is all of GF(q^m)^(n - 2t)
    i = build_instance(SchemeParams(*params))
    F, p = i.F, i.params
    rng = np.random.default_rng(sum(params))
    for rho in (2 * p.t - 1, 2 * p.t):
        N = p.n - rho
        outcomes = set()
        for _ in range(30):
            Ap = la.random_full_rank(F.base, N, p.n, rng)
            S = rng.integers(0, F.order, size=p.k).tolist()
            y = la.matvec(F, Ap, i.encode(S, rng=rng))
            bad = y[:]
            bad[0] = F.add(bad[0], int(rng.integers(1, F.order)))
            noise = rng.integers(0, F.order, size=N).tolist()
            for word in (y, bad, noise):
                out = i.coherent_decode(la.expand(F, word), Ap)
                try:
                    u = la.rref_solve(F, la.matmul(F, Ap, i._G0t), word)
                    want = (True, tuple(u[: p.k]), 0, "")
                except InconsistentSystemError:
                    want = (False, None, None, DECODE_FAILURE)
                assert (out.ok, out.message, out.error_rank, out.reason) == want
                outcomes.add(out.ok)
        assert outcomes == ({True, False} if p.k + p.mu < N else {True})


def test_errors_and_erasures_match_brute_force_on_the_seen_code():
    # P4 = (2,5,5,2,0,1), rho = 1: radius 1 on the 4 kept dimensions.  A = C R
    # with C invertible 4 x 4, so C^-1 Y = R expand(X) + C^-1 E; the seen
    # code, built here at the points R g and checked to be R G0^T, is searched
    # whole by brute force for every clean, injected or random observation
    # (with more rows than rank a random E also meets the left null space of
    # A, which either projection drops differently; the sweep above covers
    # N = 6 inside the promise)
    from secnc.audit import brute_force_decode
    from secnc.rankmetric import GabidulinCode

    i = build_instance(SchemeParams(q=2, m=5, n=5, t=2, mu=0, k=1))
    F = i.F
    rng = np.random.default_rng(67)
    outcomes = set()
    for trial in range(40):
        C = la.random_full_rank(F.base, 4, 4, rng)
        R = la.random_full_rank(F.base, 4, 5, rng)
        seen = GabidulinCode(F, 4, 1, g=la.matvec(F, R, i.code.g))
        assert all(seen.encode([x]) == la.matvec(F, R, i.encode([x], force_v=[]))
                   for x in (1, 2, 29))
        A = la.mod(C @ R, 2)
        S = [int(rng.integers(0, F.order))]
        X = la.expand(F, i.encode(S, force_v=[]))
        E = (_of_rank(F.base, 4, 5, trial % 3, rng) if trial % 4
             else rng.integers(0, 2, size=(4, 5)))  # clean, injected or random
        Y = la.mod(A @ X + E, 2)
        out = i.coherent_decode(Y, A)
        oracle = brute_force_decode(seen, la.left_inverse(F.base, C, Y), 1)
        assert len(oracle) <= 1
        assert (out.ok, out.message) == ((True, oracle.pop()) if oracle
                                         else (False, None))
        outcomes.add(out.ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize("params", [(2, 4, 4, 1, 1, 1), (3, 4, 4, 1, 1, 1),
                                    (2, 5, 5, 2, 0, 1)], ids=str)
def test_the_decode_depends_on_the_row_space_of_the_transfer_alone(params):
    # another basis P A' of the row space of a full-row-rank A', with P Y,
    # gives the same outcome at every rho = 0..2t, failures included
    i = build_instance(SchemeParams(*params))
    F, p = i.F, i.params
    rng = np.random.default_rng(71 + sum(params))
    for rho in range(2 * p.t + 1):
        N = p.n - rho
        for trial in range(20):
            Ap = la.random_full_rank(F.base, N, p.n, rng)
            P = la.random_full_rank(F.base, N, N, rng)
            X = la.expand(F, i.encode(rng.integers(0, F.order, size=p.k).tolist(),
                                      rng=rng))
            Y = la.mod(Ap @ X + _of_rank(F.base, N, p.m, trial % 3, rng), p.q)
            out = i.coherent_decode(Y, Ap)
            assert i.coherent_decode(la.mod(P @ Y, p.q), la.mod(P @ Ap, p.q)) == out


def test_degenerate_mu_zero():
    # pure error correction, no secrecy layer
    p = SchemeParams(q=2, m=4, n=4, t=1, mu=0, k=2)
    i = build_instance(p)
    rng = np.random.default_rng(46)
    for _ in range(20):
        S = [int(x) for x in rng.integers(0, 16, size=2)]
        X = i.encode(S, force_v=[])
        E = next(la.iter_rank_blocks(2, 4, 4, [1]))[0]
        Y = (la.expand(i.F, X) + E) % 2
        out = i.coherent_decode(Y, np.eye(4, dtype=int))
        assert out.ok and out.message == tuple(S)


def test_degenerate_t_zero():
    # pure coset coding through the combined interface
    p = SchemeParams(q=2, m=4, n=4, t=0, mu=2, k=2)
    i = build_instance(p)
    rng = np.random.default_rng(47)
    for _ in range(20):
        S = [int(x) for x in rng.integers(0, 16, size=2)]
        X = i.encode(S, rng=rng)
        out = i.coherent_decode(la.expand(i.F, X), np.eye(4, dtype=int))
        assert out.ok and out.message == tuple(S)


def test_proposition1_check(inst):
    T = _complete_transform(inst.F, inst.G0, 4)
    ok, dist = proposition1_check(inst.F, T, 3)
    assert ok and dist == 4  # [4, 1] MRD: distance n - mu + 1
    ok2, dist2 = proposition1_check(inst.F, T, 2)
    assert ok2 and dist2 == 3  # last two rows: the [4, 2] code G0
    Tb = _complete_transform(inst.F, build_broken_instance(PARAMS).G0, 4)
    okb, distb = proposition1_check(inst.F, Tb, 3)
    assert not okb and distb == 1
    assert proposition1_check(inst.F, T, 0) == (True, 1)
    with pytest.raises(ParameterError):
        proposition1_check(inst.F, T, 4)
    with pytest.raises(BudgetExceededError):
        proposition1_check(inst.F, T, 1, budget=10)


def test_broken_instance_shape(inst):
    b = build_broken_instance(PARAMS)
    assert b.broken
    assert b.G0[-1] == [1, 1, 1, 1]
    assert b.G0[:1] == inst.G0[:1]
    # encoding still works, decoding is refused
    X = b.encode([3], force_v=[7])
    assert b.encode([3], force_v=[7]) == X
    with pytest.raises(ParameterError):
        b.coherent_decode(la.expand(b.F, X), np.eye(4, dtype=int))
    with pytest.raises(ParameterError):
        build_broken_instance(SchemeParams(2, 4, 4, 1, 0, 2))


def test_coherent_decode_matches_brute_force_at_odd_characteristic():
    # P2 = (3,4,4,1,1,1): random full-rank 5 x 4 transfers over GF(3),
    # injections D Z of rank <= 1, each decode checked against the
    # nearest-codeword oracle on the same left-inverted observation
    from secnc.audit import brute_force_decode

    inst = build_instance(SchemeParams(q=3, m=4, n=4, t=1, mu=1, k=1))
    F = inst.F
    rng = np.random.default_rng(53)
    for trial in range(8):
        S = [int(rng.integers(0, F.order))]
        V = [int(rng.integers(0, F.order))]
        X = inst.encode(S, force_v=V)
        A = la.random_full_rank(F.base, 5, 4, rng)
        D = rng.integers(0, 3, size=(5, 1)) * (trial % 4 != 0)  # some clean
        Z = rng.integers(0, 3, size=(1, 4))
        Y = (A @ la.expand(F, X) + D @ Z) % 3
        out = inst.coherent_decode(Y, A)
        B = np.array(la.row_reduce_transform(F.base, A)[0][:4])
        assert ((B @ A) % 3 == np.eye(4, dtype=np.int64)).all()
        oracle = brute_force_decode(inst.code, la.contract(F, (B @ Y) % 3), 1)
        assert oracle == {(S[0], V[0])}
        assert out.ok and out.message == tuple(S)
        assert out.error_rank == la.rank_fq((B @ D @ Z) % 3, 3)


def test_coherent_decode_matches_brute_force_at_q5():
    # (5,3,3,1,0,1): random full-rank 4 x 3 transfers over GF(5),
    # injections D Z of rank <= 1, each decode checked against the
    # nearest-codeword oracle on the same left-inverted observation
    from secnc.audit import brute_force_decode

    inst = build_instance(SchemeParams(q=5, m=3, n=3, t=1, mu=0, k=1))
    F = inst.F
    rng = np.random.default_rng(59)
    for trial in range(200):
        S = [int(rng.integers(0, F.order))]
        X = inst.encode(S, rng=rng)
        A = la.random_full_rank(F.base, 4, 3, rng)
        D = rng.integers(0, 5, size=(4, 1)) * (trial % 4 != 0)  # some clean
        Z = rng.integers(0, 5, size=(1, 3))
        Y = (A @ la.expand(F, X) + D @ Z) % 5
        out = inst.coherent_decode(Y, A)
        B = np.array(la.row_reduce_transform(F.base, A)[0][:3])
        assert ((B @ A) % 5 == np.eye(3, dtype=np.int64)).all()
        oracle = brute_force_decode(inst.code, la.contract(F, (B @ Y) % 5), 1)
        assert oracle == {tuple(S)}
        assert out.ok and out.message == tuple(S)
        assert out.error_rank == la.rank_fq((B @ D @ Z) % 5, 5)


def test_coherent_decode_at_p3_reports_the_unmixed_error_rank():
    # P3 = (2,8,8,2,2,2), N = n + t = 10: the decode returns S, and its error
    # rank is the rank weight of the un-mixed injection A+ D Z
    inst = build_instance(SchemeParams(q=2, m=8, n=8, t=2, mu=2, k=2))
    F = inst.F
    rng = np.random.default_rng(61)
    seen = set()
    for trial in range(64):
        S = rng.integers(0, F.order, size=2).tolist()
        X = inst.encode(S, force_v=rng.integers(0, F.order, size=2).tolist())
        A = la.random_full_rank(F.base, 10, 8, rng)
        links = trial % 3  # 0, 1 or 2 injected packets
        D, Z = rng.integers(0, 2, size=(10, links)), rng.integers(0, 2, size=(links, 8))
        out = inst.coherent_decode((A @ la.expand(F, X) + D @ Z) % 2, A)
        Aplus = np.array(la.row_reduce_transform(F.base, A)[0][:8])
        assert (Aplus @ A % 2 == np.eye(8, dtype=np.int64)).all()
        assert out.ok and out.message == tuple(S)
        assert out.error_rank == la.vector_rank(F, la.contract(F, Aplus @ D @ Z % 2))
        seen.add(out.error_rank)
    assert seen == {0, 1, 2}


def test_secrecy_audit_at_q5():
    # (5,2,2,0,1,1): 625 (S, V) pairs under each of the 24 full-rank 1 x 2 taps
    from secnc.audit import secrecy_audit

    params = SchemeParams(q=5, m=2, n=2, t=0, mu=1, k=1)
    rep = secrecy_audit(build_instance(params))
    assert rep.passed and len(rep.records) == 24 and rep.pairs_per_tap == 625
    broken = secrecy_audit(build_broken_instance(params))
    # some tap sees all of S: log2(25) bits
    assert broken.max_leakage == pytest.approx(2 * np.log2(5))


@given(st.sampled_from([ExtField(2, 4), ExtField(3, 2)]), st.data())
@settings(max_examples=120, deadline=None)
def test_complete_transform_is_the_greedy_completion(F, data):
    n = data.draw(st.integers(1, 4))
    k0 = data.draw(st.integers(1, n))
    G0 = data.draw(st.lists(
        st.lists(st.integers(0, F.order - 1), min_size=n, max_size=n),
        min_size=k0, max_size=k0))
    with pytest.raises(ParameterError):
        _complete_transform(F, G0 + [G0[0]], n)  # a repeated row
    if la.rank(F, G0) < k0:
        with pytest.raises(ParameterError):
            _complete_transform(F, G0, n)
        return
    T = _complete_transform(F, G0, n)
    assert la.rank(F, T) == n
    Tt = la.transpose(T)
    assert Tt[n - k0:] == G0
    # e_i is picked exactly when it lies outside span(G0, e_0, ..., e_{i-1})
    eye = np.eye(n, dtype=int).tolist()
    picked = [eye[i] for i in range(n)
              if la.rank(F, G0 + eye[: i + 1]) > la.rank(F, G0 + eye[:i])]
    assert Tt[: n - k0] == picked
