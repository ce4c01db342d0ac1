"""Audit reports, byte for byte.

The files under tests/data/audit_reports are the standard output of
`secnc audit` as the scalar audits printed it, one `coherent_decode`
per reliability case and one `encode` per (S, V) pair; the stack-shaped
audits must print the same bytes.  Parameter sets are (q, m, n, t, mu, k):
P1 = (2,4,4,1,1,1), P2 = (3,4,4,1,1,1) and Q3 = (3,3,3,1,0,1).
"""

import json
from pathlib import Path

import pytest

from secnc import audit
from secnc.cli import main
from secnc.rankmetric import GabidulinCode

DATA = Path(__file__).parent / "data" / "audit_reports"

CONFIGS = {
    "p1": {"q": 2, "m": 4, "n": 4, "t": 1, "mu": 1, "k": 1},
    "p2": {"q": 3, "m": 4, "n": 4, "t": 1, "mu": 1, "k": 1},
    "q3": {"q": 3, "m": 3, "n": 3, "t": 1, "mu": 0, "k": 1},
}

EXHAUSTIVE_RELIABILITY = ["audit", "reliability", "--seed", "4", "--transfers", "2"]
SAMPLED_RELIABILITY = ["audit", "reliability", "--mode", "sampled", "--trials", "200",
                       "--seed", "4"]
RELIABILITY = [
    ("reliability_p1_exhaustive", "p1", EXHAUSTIVE_RELIABILITY),
    ("reliability_q3_exhaustive", "q3", EXHAUSTIVE_RELIABILITY),
    ("reliability_p1_sampled", "p1", SAMPLED_RELIABILITY),
]
SECRECY = [
    (f"secrecy_{p}_{kind}", p, ["audit", "secrecy"] + flags)
    for p in ("p1", "p2")
    for kind, flags in [("exhaustive", []), ("break_mrd", ["--break-mrd"]),
                        ("lifted", ["--lifted"]),
                        ("sampled", ["--mode", "sampled", "--seed", "4",
                                     "--samples", "5"])]
]


def _run(tmp_path, capsys, config, argv):
    path = tmp_path / f"{config}.json"
    path.write_text(json.dumps(CONFIGS[config]))
    code = main(argv + ["--config", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name, config, argv", RELIABILITY + SECRECY,
                         ids=[r[0] for r in RELIABILITY + SECRECY])
def test_report_is_byte_identical(tmp_path, capsys, name, config, argv):
    code, out = _run(tmp_path, capsys, config, argv)
    assert out == (DATA / f"{name}.txt").read_text()
    assert code == (3 if "break_mrd" in name else 0)


@pytest.mark.parametrize("name, config, argv", RELIABILITY,
                         ids=[r[0] for r in RELIABILITY])
def test_report_does_not_depend_on_the_chunk_size(tmp_path, capsys, monkeypatch,
                                                  name, config, argv):
    # 100 cases a stack: chunks cut the payload grid of P1 and hold
    # several errors' grids at Q3
    monkeypatch.setattr(audit, "_CHUNK", 100)
    assert _run(tmp_path, capsys, config, argv) == (
        0, (DATA / f"{name}.txt").read_text())


# Global case numbers (in enumeration order) on which the decoder is made
# to fail or to return a wrong message; the identity phase of the P1
# exhaustive audit has 226 x 256 = 57,856 cases, each random transfer 466.
FAIL = {7, 300, 57856 + 1, 57856 + 466 + 3}
WRONG = {9, 57856 + 466 + 2, 57856 + 900}


@pytest.mark.parametrize("chunk", [audit._CHUNK, 100])
@pytest.mark.parametrize("name, argv", [
    ("exemplars_p1_exhaustive", EXHAUSTIVE_RELIABILITY),
    ("exemplars_p1_sampled", SAMPLED_RELIABILITY),
], ids=["exhaustive", "sampled"])
def test_exemplars_name_the_failing_cases(tmp_path, capsys, monkeypatch, chunk,
                                          name, argv):
    decode_stack = GabidulinCode.decode_stack
    seen = [0]

    def patched(self, Y, t):
        ok, msgs, ranks = decode_stack(self, Y, t)
        for j in range(len(ok)):
            case = seen[0] + j
            if case in FAIL:
                ok[j] = False
            if case in WRONG:
                msgs[j, 0] = (msgs[j, 0] + 1) % self.F.order
        seen[0] += len(ok)
        return ok, msgs, ranks

    monkeypatch.setattr(GabidulinCode, "decode_stack", patched)
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    code, out = _run(tmp_path, capsys, "p1", argv)
    assert code == 3
    assert out == (DATA / f"{name}.txt").read_text()
