"""Trace fidelity and correctness-gate tests for the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import P3, WORKLOADS, Audit, Simulate, _full_rank  # noqa: E402


@pytest.fixture
def secnc():
    # run.main() re-imports secnc, so always take the current modules
    return importlib.import_module("secnc")


def _one_case(secnc, workload, seed=5):
    wl = WORKLOADS[workload][0]()
    rng = np.random.default_rng(seed)
    state, ok = wl.setup(secnc, wl.draw(rng, secnc.linalg))
    assert ok
    return wl, state, wl.prepare(state, wl.draw(rng, secnc.linalg))


def _bindings(secnc):
    """Every attribute of every secnc module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "secnc" or name.startswith("secnc."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if inspect.isclass(obj) and obj.__module__ == name:
                    for mname, mobj in vars(obj).items():
                        out[(name, attr, mname)] = mobj
    return out


def test_calls_inside_a_module_are_traced(secnc):
    from secnc.gf import PrimeField

    with Tracer() as tr:
        secnc.linalg.random_full_rank(PrimeField(2), 3, 3, np.random.default_rng(0))
    assert tr.entries[("linalg.rank", "linalg.random_full_rank")] >= 1
    assert tr.entries[("linalg.random_full_rank", None)] == 1


def test_reexported_names_are_traced_and_restored(secnc):
    original = secnc.network.transmit
    assert secnc.transmit is original  # the re-export is a second binding
    wl, state, (S, V, real) = _one_case(secnc, "coherent-p3")
    X = state.inst.encode(S, force_v=V)
    with Tracer() as tr:
        assert secnc.transmit is not original
        secnc.transmit(state.inst.F, X, real)
    assert tr.count(["network.transmit"]) == 1
    assert secnc.transmit is original and secnc.network.transmit is original


def test_uninstall_restores_every_binding(secnc):
    before = _bindings(secnc)
    with Tracer():
        changed = [k for k, v in _bindings(secnc).items() if before.get(k) is not v]
    assert changed  # something was wrapped
    after = _bindings(secnc)
    assert all(after[k] is v for k, v in before.items())


def test_field_ops_are_counted_not_spanned(secnc):
    wl, state, case = _one_case(secnc, "coherent-p3")
    with Tracer() as tr:
        wl.run(state, case)
    assert tr.ops["gf.ext.ops"] > 0 and tr.ops["gf.base.ops"] > 0
    assert not any(name.startswith("gf.") for name in tr.self_s)


def test_child_spans_nest_inside_parents(secnc):
    wl, state, case = _one_case(secnc, "coherent-p3")
    tr = Tracer(keep_spans=100_000)
    with tr, tr.root():
        wl.run(state, case)
    assert len(tr.spans) < tr.keep_spans
    by_id = {s[0]: s for s in tr.spans}
    for span_id, parent, name, start, end in tr.spans:
        assert start <= end
        if parent is not None:
            _, _, _, pstart, pend = by_id[parent]
            assert pstart <= start and end <= pend, name
    roots = [s for s in tr.spans if s[1] is None]
    assert [s[2] for s in roots] == ["bench"]


def test_one_coherent_case_has_one_decode_and_one_left_inverse(secnc):
    wl, state, case = _one_case(secnc, "coherent-p3")
    with Tracer() as tr:
        assert wl.run(state, case) == (1, 0)
    assert tr.count(["rankmetric.decode"]) == 1
    assert tr.count(["linalg.left_inverse"]) == 1
    assert tr.count(["scheme.coherent_decode"]) == 1


def test_self_times_account_for_the_wall_time(secnc):
    wl, state, case = _one_case(secnc, "coherent-p3")
    tr = Tracer()
    with tr, tr.root() as root:
        for _ in range(3):
            wl.run(state, case)
    assert sum(tr.self_s.values()) == pytest.approx(root.wall_s, rel=1e-9)
    assert tr.self_s["bench"] < root.wall_s


def test_generator_spans_count_candidate_subspaces(secnc):
    # one lifted decode at (q,m,n,t,mu,k) = (3,4,4,1,1,1), N = 5, walks
    # every subspace of GF(3)^5 of dimension <= 1 through a generator
    params, N = (3, 4, 4, 1, 1, 1), 5
    rng = np.random.default_rng(3)
    inst = secnc.scheme.build_instance(secnc.scheme.SchemeParams(*params))
    A = _full_rank(rng, 3, N, 4, secnc.linalg)
    D, Z = rng.integers(0, 3, size=(N, 1)), rng.integers(0, 3, size=(1, 8))
    real = secnc.network.ChannelRealization(3, A, D, Z, _full_rank(rng, 3, 1, 4, secnc.linalg))
    X = inst.encode([5], force_v=[7])
    with Tracer() as tr:
        out = secnc.network.noncoherent_decode(
            inst, secnc.network.transmit_lifted(inst.F, X, real).Y)
    assert out.ok and out.message == (5,)
    want = sum(secnc.linalg.gaussian_binomial(N, r, 3) for r in range(2))
    assert want == 122
    got = tr.count(["linalg.iter_rref_full_row_rank"],
                   parents={"network.noncoherent_decode"}, table=tr.items)
    assert got == want


def test_decode_beyond_the_promise_counts_as_failed(secnc):
    wl, state, (S, V, real) = _one_case(secnc, "coherent-p3")
    rng = np.random.default_rng(0)
    N, m = real.A.shape[0], P3[1]
    # a rank-4 injection exceeds t = 2, so no decoder may return S
    D, Z = rng.integers(0, 2, size=(N, 4)), rng.integers(0, 2, size=(4, m))
    assert secnc.linalg.rank_fq(D @ Z % 2, 2) == 4
    bad = secnc.network.ChannelRealization(2, real.A, D, Z, real.B)
    assert wl.run(state, (S, V, bad)) == (1, 1)


def test_audit_sizes_match_closed_forms(secnc):
    assert Audit().expected(secnc.linalg) == (612, 15, 256)


def test_same_seed_same_inputs(secnc):
    wl = Simulate(P3, 10, pool=0)
    a, b = (wl.draw(np.random.default_rng(9), secnc.linalg) for _ in range(2))
    assert a.S == b.S and all((getattr(a, k) == getattr(b, k)).all() for k in "ADZB")


def test_tail_picks_highest_rung_with_ten_beyond():
    assert run.tail(list(range(1000)))[::2] == (99.0, 10)
    assert run.tail(list(range(999)))[::2] == (90.0, 99)
    assert run.tail([3.0, 1.0]) == (100.0, 3.0, 0)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_main_prints_one_json_result(trace, capsys):
    argv = ["--workload", "coherent-p3", "--seed", "2", "--seconds", "0.3",
            "--trace", trace]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(line.startswith("# ") for line in out[:-1])


def test_benchmark_json_names_the_workloads():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: why for name, (_, why) in WORKLOADS.items()}


def test_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "coherent-p3", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

