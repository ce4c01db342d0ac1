"""The lifted reliability audit's reports, byte for byte.

`secnc audit reliability --lifted` sends [I | X] and decodes every case
with `noncoherent_decode`, transfer unknown: at P0 = (2,3,3,1,0,1) the
identity phase is 8 pairs x 442 errors on the 3 x 6 lifted matrix, and
each random 4 x 3 transfer adds 946 errors, so two transfers make 5,428
cases.  The grid, the checker and the report are the coherent audit's;
the budget counts each case once per candidate error space its decode
solves for.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from secnc import audit
from secnc.cli import main
from secnc.errors import BudgetExceededError
from secnc.rankmetric import DecodeOutcome
from secnc.scheme import SchemeParams, build_instance

DATA = Path(__file__).parent / "data" / "audit_reports"
P0 = {"q": 2, "m": 3, "n": 3, "t": 1, "mu": 0, "k": 1}
LIFTED = ["audit", "reliability", "--lifted", "--seed", "4", "--transfers", "2"]


def _run(tmp_path, capsys, argv):
    path = tmp_path / "p0.json"
    path.write_text(json.dumps(P0))
    code = main(argv + ["--config", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("chunk", [audit._CHUNK, 100])
def test_lifted_report_is_byte_identical(tmp_path, capsys, monkeypatch, chunk):
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    assert _run(tmp_path, capsys, LIFTED) == (
        0, (DATA / "reliability_p0_lifted.txt").read_text())


# Global case numbers (in enumeration order) on which the decoder is made
# to fail or to return a wrong message: the identity phase has 3,536
# cases, each random transfer 946.
FAIL = {7, 300, 3536 + 1, 3536 + 946 + 3}
WRONG = {9, 3536 + 946 + 2, 3536 + 900}


@pytest.mark.parametrize("chunk", [audit._CHUNK, 100])
def test_lifted_exemplars_name_the_decoders_reason(tmp_path, capsys,
                                                   monkeypatch, chunk):
    decode = audit.noncoherent_decode
    seen = [0]

    def patched(inst, Y):
        case = seen[0]
        seen[0] += 1
        out = decode(inst, Y)
        if case in FAIL:
            return DecodeOutcome.failure(f"made to fail at case {case}")
        if case in WRONG:
            return DecodeOutcome.success([(out.message[0] + 1) % 8],
                                         out.error_rank)
        return out

    monkeypatch.setattr(audit, "noncoherent_decode", patched)
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    code, out = _run(tmp_path, capsys, LIFTED)
    assert code == 3
    assert out == (DATA / "exemplars_p0_lifted.txt").read_text()


def test_lifted_budget_counts_candidate_solves(tmp_path, capsys):
    # a lifted decode solves once per error space of dimension <= t in
    # GF(2)^rows: 8 on the identity phase's 3 rows, 16 on a transfer's 4
    inst = build_instance(SchemeParams(**P0))
    with pytest.raises(BudgetExceededError) as ei:
        audit.reliability_audit(inst, rng=np.random.default_rng(4),
                                random_transfers=2, lifted=True, budget=58559)
    assert ei.value.needed == 3536 * 8 + 2 * 946 * 16 == 58560
    assert _run(tmp_path, capsys, LIFTED + ["--budget", "58560"]) == (
        0, (DATA / "reliability_p0_lifted.txt").read_text())
    # P1 = (2,4,4,1,1,1) with 20 transfers: 979,456 x 16 + 20 x 7,906 x 32
    path = tmp_path / "p1.json"
    path.write_text(json.dumps({"q": 2, "m": 4, "n": 4, "t": 1, "mu": 1, "k": 1}))
    start = time.monotonic()
    assert main(["audit", "reliability", "--lifted", "--seed", "4",
                 "--config", str(path)]) == 4
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert "needs 20731136 candidate solves" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_lifted_sampled_mode_decodes_noncoherently():
    inst = build_instance(SchemeParams(**P0))
    rep = audit.reliability_audit(inst, "sampled", np.random.default_rng(6),
                                  trials=40, lifted=True)
    assert rep.text().startswith("reliability_audit exhaustive=false lifted=true\n")
    assert rep.cases == 40 and rep.passed
