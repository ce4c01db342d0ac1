"""Command line behavior: round trips, determinism, exit code contract."""

import json
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from secnc import fileio
from secnc import linalg as la
from secnc.cli import build_parser, main
from secnc.errors import (InconsistentSystemError, ParameterError, SingularMatrixError,
                          UnderdeterminedSystemError)
from secnc.network import sample_realization, transmit_lifted
from secnc.scheme import build_instance

CFG = {"q": 2, "m": 4, "n": 4, "t": 1, "mu": 1, "k": 1}


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG))
    return str(path)


@pytest.fixture
def msg(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("# the message\n1010\n")
    return str(path)


def test_readme_command_lines_parse():
    # a README that names a removed subcommand or flag fails here; the
    # lines are only parsed, so the files they name need not exist
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [shlex.split(line, comments=True)
             for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("secnc ")]
    assert len(lines) >= 8
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(argv)}")


def test_params_summary(cfg, capsys):
    assert main(["params", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "q=2 m=4 n=4 t=1 mu=1 k=1" in out
    assert "outer_code_min_distance=3" in out
    assert "rate_packets=1 rate_bits=4" in out


def test_params_rejects_rate_bound(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**CFG, "k": 2}))
    assert main(["params", "--config", str(path)]) == 2
    assert "rate_bound" in capsys.readouterr().err


def test_params_rejects_short_packets(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**CFG, "m": 3}))
    assert main(["params", "--config", str(path)]) == 2
    assert "packet_length" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "mal.json"
    path.write_text("{nope")
    assert main(["params", "--config", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path):
    assert main(["params", "--config", str(tmp_path / "absent.json")]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_encode_decode_round_trip_bit_identical(cfg, msg, tmp_path, capsys):
    payload = str(tmp_path / "x.txt")
    recovered = str(tmp_path / "s.txt")
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--seed", "5", "--out", payload]) == 0
    assert main(["decode", "--config", cfg, "--payload", payload,
                 "--out", recovered]) == 0
    original = fileio.strip_lines(open(msg).read())
    assert fileio.strip_lines(open(recovered).read()) == original
    capsys.readouterr()


def test_encode_same_seed_same_payload(cfg, msg, tmp_path):
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--seed", "123", "--out", p1]) == 0
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--seed", "123", "--out", p2]) == 0
    assert open(p1).read() == open(p2).read()


def test_encode_without_seed_prints_one(cfg, msg, capsys):
    assert main(["encode", "--config", cfg, "--message", msg]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed=")
    replay = int(captured.err.split("=")[1])
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--seed", str(replay)]) == 0
    assert capsys.readouterr().out == captured.out


def test_encode_force_v_zero_message_gives_zero_payload(cfg, tmp_path, capsys):
    zmsg = tmp_path / "z.txt"
    zmsg.write_text("0000\n")
    assert main(["encode", "--config", cfg, "--message", str(zmsg),
                 "--force-v", "0000"]) == 0
    out = capsys.readouterr().out
    assert fileio.strip_lines(out) == ["0000"] * 4


def test_encode_rejects_wrong_line_count(cfg, tmp_path, capsys):
    bad = tmp_path / "two.txt"
    bad.write_text("1010\n0101\n")
    assert main(["encode", "--config", cfg, "--message", str(bad),
                 "--seed", "1"]) == 2
    capsys.readouterr()


def test_encode_rejects_bad_digits(cfg, tmp_path, capsys):
    bad = tmp_path / "digits.txt"
    bad.write_text("1210\n")
    assert main(["encode", "--config", cfg, "--message", str(bad),
                 "--seed", "1"]) == 1
    assert "malformed" in capsys.readouterr().err


def test_decode_with_explicit_transfer(cfg, msg, tmp_path, capsys):
    payload = str(tmp_path / "x.txt")
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--seed", "5", "--out", payload]) == 0
    params, _ = fileio.read_config(cfg)
    inst = build_instance(params)
    X = fileio.read_packets(payload, inst.F)
    rng = np.random.default_rng(31)
    A = la.random_full_rank(inst.F.base, 5, 4, rng)
    Y = (np.asarray(A) @ la.expand(inst.F, X)) % 2
    ypath, apath = str(tmp_path / "y.txt"), str(tmp_path / "A.txt")
    fileio.write_packets(ypath, la.contract(inst.F, Y), inst.F)
    fileio.write_matrix(apath, A, 2)
    recovered = str(tmp_path / "s.txt")
    assert main(["decode", "--config", cfg, "--payload", ypath,
                 "--transfer", apath, "--out", recovered]) == 0
    assert fileio.strip_lines(open(recovered).read()) == ["1010"]
    capsys.readouterr()


def test_decode_rank_3_transfer_decodes(cfg, msg, tmp_path, capsys):
    # a 4 x 4 transfer of rank 3: rho = 1 <= 2t, one erasure
    payload = str(tmp_path / "x.txt")
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--seed", "5", "--out", payload]) == 0
    inst = build_instance(fileio.read_config(cfg)[0])
    A = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]]
    y = la.matvec(inst.F, A, fileio.read_packets(payload, inst.F))
    ypath, apath = str(tmp_path / "y.txt"), str(tmp_path / "A.txt")
    fileio.write_packets(ypath, y, inst.F)
    fileio.write_matrix(apath, A, 2)
    capsys.readouterr()
    assert main(["decode", "--config", cfg, "--payload", ypath,
                 "--transfer", apath]) == 0
    assert fileio.strip_lines(capsys.readouterr().out) == ["1010"]


def test_decode_rank_deficient_transfer_is_rejected(cfg, tmp_path, capsys):
    # rank 1: rho = 3 > 2t = 2 lost dimensions
    ypath, apath = str(tmp_path / "y.txt"), str(tmp_path / "A.txt")
    (tmp_path / "y.txt").write_text("1010\n0110\n0001\n1111\n")
    A = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
    fileio.write_matrix(apath, A, 2)
    assert main(["decode", "--config", cfg, "--payload", ypath,
                 "--transfer", apath]) == 2
    err = capsys.readouterr().err
    assert "secnc: rejected: transfer matrix has rank 1 < n - 2t = 2" in err
    assert "Traceback" not in err
    # main maps it by its base class: every linalg refusal is a
    # ParameterError, and still a ValueError
    for exc in (SingularMatrixError, InconsistentSystemError,
                UnderdeterminedSystemError):
        assert issubclass(exc, ParameterError) and issubclass(exc, ValueError)


def test_decode_erasure_path(cfg, msg, tmp_path, capsys):
    payload = str(tmp_path / "x.txt")
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--seed", "5", "--out", payload]) == 0
    params, _ = fileio.read_config(cfg)
    inst = build_instance(params)
    X = fileio.read_packets(payload, inst.F)
    Ap = [[1, 0, 0, 0], [0, 1, 0, 0]]
    y = la.matvec(inst.F, Ap, X)
    ypath, apath = str(tmp_path / "y.txt"), str(tmp_path / "A.txt")
    fileio.write_packets(ypath, y, inst.F)
    fileio.write_matrix(apath, Ap, 2)
    assert main(["decode", "--config", cfg, "--payload", ypath,
                 "--transfer", apath]) == 0
    assert fileio.strip_lines(capsys.readouterr().out) == ["1010"]


def test_decode_erasure_failure_is_exit_3(msg, tmp_path, capsys):
    # mu = 0: the [4, 1] outer code seen through a 2 x 4 A' is a [2, 1] code,
    # and changing one symbol of one of its words leaves the code
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "mu": 0}))
    payload = str(tmp_path / "x.txt")
    assert main(["encode", "--config", str(cfg), "--message", msg,
                 "--seed", "5", "--out", payload]) == 0
    inst = build_instance(fileio.read_config(str(cfg))[0])
    Ap = [[1, 0, 0, 0], [0, 1, 0, 0]]
    y = la.matvec(inst.F, Ap, fileio.read_packets(payload, inst.F))
    y[0] = inst.F.add(y[0], 1)
    ypath, apath = str(tmp_path / "y.txt"), str(tmp_path / "A.txt")
    fileio.write_packets(ypath, y, inst.F)
    fileio.write_matrix(apath, Ap, 2)
    capsys.readouterr()
    assert main(["decode", "--config", str(cfg), "--payload", ypath,
                 "--transfer", apath]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "decode failed: no codeword within rank radius\n"


def test_decode_erasure_requires_transfer(cfg, msg, tmp_path, capsys):
    # without --transfer the transfer is the n x n identity, so an
    # observation of n - 2t packets is refused, not decoded as erasures
    ypath = tmp_path / "y.txt"
    ypath.write_text("1010\n0110\n")
    assert main(["decode", "--config", cfg, "--payload", str(ypath)]) == 2
    assert "observation must be 4 x 4" in capsys.readouterr().err


def test_decode_erasure_flag_is_unknown(cfg, msg, capsys):
    # a transfer's row count says whether it carries erasures
    assert main(["decode", "--config", cfg, "--payload", msg,
                 "--erasure"]) == 1
    assert "unrecognized arguments: --erasure" in capsys.readouterr().err


def test_decode_noncoherent_path(cfg, msg, tmp_path, capsys):
    payload = str(tmp_path / "x.txt")
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--seed", "5", "--out", payload]) == 0
    params, _ = fileio.read_config(cfg)
    inst = build_instance(params)
    X = fileio.read_packets(payload, inst.F)
    rng = np.random.default_rng(77)
    real = sample_realization(params, 5, rng, lifted=True)
    res = transmit_lifted(inst.F, X, real)
    ypath = str(tmp_path / "ylift.txt")
    fileio.write_matrix(ypath, res.Y, 2)
    assert main(["decode", "--config", cfg, "--payload", ypath,
                 "--noncoherent"]) == 0
    assert fileio.strip_lines(capsys.readouterr().out) == ["1010"]


@pytest.mark.parametrize("transfer", ["4 4\n1000\n0100\n0010\n0001\n",
                                      "2 4\n1000\n0100\n"],
                         ids=["transfer", "erasure"])
def test_decode_noncoherent_refuses_coherent_flags(cfg, tmp_path, capsys, transfer):
    # --transfer is refused whatever the transfer's shape
    (tmp_path / "y.txt").write_text("5 8\n" + "10000000\n" * 5)
    (tmp_path / "A.txt").write_text(transfer)
    assert main(["decode", "--config", cfg, "--payload", str(tmp_path / "y.txt"),
                 "--noncoherent", "--transfer", str(tmp_path / "A.txt")]) == 1
    captured = capsys.readouterr()
    assert "--transfer does not apply" in captured.err
    assert captured.out == ""


def test_encode_force_v_refuses_a_seed_flag(cfg, msg, capsys):
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--force-v", "0000", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err and "does not apply" in captured.err
    assert captured.out == ""


def test_encode_force_v_accepts_a_config_seed(tmp_path, msg, capsys):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({**CFG, "seed": 77}))
    assert main(["encode", "--config", str(path), "--message", msg,
                 "--force-v", "0000"]) == 0
    assert len(fileio.strip_lines(capsys.readouterr().out)) == 4


def test_simulate_random_passes(cfg, capsys):
    assert main(["simulate", "--config", cfg, "--trials", "50",
                 "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "cases=50 failures=0" in out and "verdict=pass" in out


def test_simulate_has_no_adversary_option(cfg, capsys):
    # the exhaustive check is `audit reliability`, coherent or --lifted
    assert main(["simulate", "--config", cfg, "--adversary", "exhaustive",
                 "--seed", "9"]) == 1
    captured = capsys.readouterr()
    assert "--adversary" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_simulate_noncoherent(cfg, capsys):
    assert main(["simulate", "--config", cfg, "--trials", "20",
                 "--noncoherent", "--seed", "3"]) == 0
    assert "failures=0" in capsys.readouterr().out


@pytest.mark.parametrize("config, flags", [
    (CFG, []),
    (CFG, ["--noncoherent"]),
    ({**CFG, "q": 3}, []),
], ids=["p1", "p1-noncoherent", "p2"])
def test_simulate_runs_the_sampled_audit(tmp_path, capsys, config, flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    common = ["--config", str(path), "--seed", "7", "--trials", "150"]
    assert main(["simulate"] + common + flags) == 0
    simulated = capsys.readouterr().out.splitlines()
    lifted = ["--lifted"] if flags else []
    assert main(["audit", "reliability", "--mode", "sampled"]
                + common + lifted) == 0
    audited = capsys.readouterr().out.splitlines()
    assert simulated[1:3] == audited[1:3]
    assert simulated[1].startswith("cases=150 failures=0")


def test_simulate_n_sets_the_transfer_rows(cfg, capsys):
    assert main(["simulate", "--config", cfg, "--N", "7", "--trials", "300",
                 "--seed", "5"]) == 0
    assert "error_ranks=0:45,1:255\n" in capsys.readouterr().out


@pytest.mark.parametrize("N", ["20000000", "524289"])
def test_simulate_refuses_an_unmix_past_the_budget(cfg, capsys, N):
    # a trial's un-mix reduces the N x (n + m) matrix [A | Y]; the
    # default budget 2^22 admits N = 524,288 at n + m = 8
    start = time.monotonic()
    assert main(["simulate", "--config", cfg, "--N", N, "--seed", "1"]) == 4
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert "un-mix needs" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_simulate_admits_a_tall_transfer_within_the_unmix_budget(cfg, capsys):
    # N * (n + N) entries of [A | I_N] would exceed the default budget
    assert main(["simulate", "--config", cfg, "--N", "2047", "--trials", "1",
                 "--seed", "3"]) == 0
    assert "cases=1 failures=0" in capsys.readouterr().out


def test_simulate_trivial_channel(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"q": 2, "m": 4, "n": 4, "t": 0, "mu": 0,
                                "k": 4}))
    assert main(["simulate", "--config", str(path), "--trials", "100",
                 "--seed", "2"]) == 0
    assert "cases=100 failures=0" in capsys.readouterr().out


def test_audit_secrecy_pass_writes_report(cfg, tmp_path, capsys):
    report = str(tmp_path / "rep.txt")
    assert main(["audit", "secrecy", "--config", cfg,
                 "--report", report]) == 0
    text = open(report).read()
    assert capsys.readouterr().out == text
    tap_lines = [l for l in text.splitlines() if l.startswith("B=")]
    assert len(tap_lines) == 15
    assert all(l.endswith("leakage_bits=0") for l in tap_lines)
    assert "verdict=pass" in text


def test_audit_secrecy_break_mrd_fails(cfg, capsys):
    assert main(["audit", "secrecy", "--config", cfg, "--break-mrd"]) == 3
    out = capsys.readouterr().out
    assert "verdict=FAIL" in out
    assert any("leakage_bits=4" in line for line in out.splitlines())


def test_audit_reliability_passes(cfg, capsys):
    assert main(["audit", "reliability", "--config", cfg, "--seed", "4",
                 "--transfers", "2"]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out and "verdict=pass" in out


def test_audit_reliability_rejects_break_mrd(cfg, capsys):
    assert main(["audit", "reliability", "--config", cfg, "--seed", "1",
                 "--break-mrd"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--tap-rows", "1"], ["--samples", "5"]])
def test_audit_reliability_refuses_secrecy_flags(cfg, capsys, flag):
    assert main(["audit", "reliability", "--config", cfg, "--seed", "4",
                 "--transfers", "0"] + flag) == 1
    captured = capsys.readouterr()
    assert flag[0] in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["secrecy", "--transfers", "3"],
    ["secrecy", "--trials", "7"],
    ["secrecy", "--samples", "2"],
    ["reliability", "--mode", "sampled", "--transfers", "3"],
    ["reliability", "--trials", "7"],
], ids=["secrecy-transfers", "secrecy-trials", "exhaustive-secrecy-samples",
        "sampled-reliability-transfers", "exhaustive-reliability-trials"])
def test_audit_refuses_flags_its_mode_ignores(cfg, capsys, argv):
    assert main(["audit", "--config", cfg, "--seed", "4"] + argv) == 1
    captured = capsys.readouterr()
    flag = next(a for a in argv if a.startswith("--") and a != "--mode")
    assert flag in captured.err and "does not apply" in captured.err
    assert captured.out == ""


def test_audit_budget_refusal_is_exit_4(cfg, capsys):
    assert main(["audit", "secrecy", "--config", cfg, "--budget", "10"]) == 4
    assert "raise the budget" in capsys.readouterr().err


def test_simulate_budget_refusal_names_no_exhaustive_run(cfg, capsys):
    assert main(["simulate", "--config", cfg, "--budget", "2"]) == 4
    err = capsys.readouterr().err
    assert "raise the budget" in err and "exhaustively" not in err


def test_audit_sampled_secrecy_deterministic(cfg, capsys):
    assert main(["audit", "secrecy", "--config", cfg, "--mode", "sampled",
                 "--seed", "8", "--samples", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["audit", "secrecy", "--config", cfg, "--mode", "sampled",
                 "--seed", "8", "--samples", "4"]) == 0
    assert capsys.readouterr().out == first


def test_config_seed_used_when_flag_absent(tmp_path, msg, capsys):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({**CFG, "seed": 77}))
    assert main(["encode", "--config", str(path), "--message", msg]) == 0
    first = capsys.readouterr()
    assert first.err == ""  # seed came from the config, nothing to announce
    assert main(["encode", "--config", str(path), "--message", msg]) == 0
    assert capsys.readouterr().out == first.out


# ------------------------------------------------- malformed input, counts

P0 = {"q": 2, "m": 3, "n": 3, "t": 1, "mu": 0, "k": 1}


@pytest.mark.parametrize("field, value", [
    ("q", "abc"), ("q", None), ("modulus", 5), ("g", "ab"), ("seed", "x"),
    ("seed", -5),
])
def test_malformed_config_field_is_usage_error(tmp_path, msg, capsys, field,
                                               value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CFG, field: value}))
    assert main(["encode", "--config", str(path), "--message", msg]) == 1
    assert "malformed config file" in capsys.readouterr().err


@pytest.mark.parametrize("payload, transfer", [
    ("zzzz\n", None),
    ("1010\n0101\n1111\n0000\n", "4 4\n10a0\n0100\n0010\n0001\n"),
    (b"\xff\xfe\n", None),
    ("1010\n0101\n1111\n0000\n", "² 4\n1000\n"),
], ids=["packet-letters", "matrix-letters", "not-utf8", "header-superscript"])
def test_malformed_file_content_is_usage_error(cfg, tmp_path, capsys, payload,
                                               transfer):
    ypath = tmp_path / "y.txt"
    if isinstance(payload, bytes):
        ypath.write_bytes(payload)
    else:
        ypath.write_text(payload, encoding="utf-8")
    argv = ["decode", "--config", cfg, "--payload", str(ypath)]
    if transfer is not None:
        apath = tmp_path / "A.txt"
        apath.write_text(transfer, encoding="utf-8")
        argv += ["--transfer", str(apath)]
    assert main(argv) == 1
    assert "malformed" in capsys.readouterr().err


def test_negative_seed_flag_is_usage_error(cfg, capsys):
    assert main(["simulate", "--config", cfg, "--seed", "-5",
                 "--trials", "2"]) == 1
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


def test_encode_force_v_non_digits_is_rejected(cfg, msg, capsys):
    assert main(["encode", "--config", cfg, "--message", msg,
                 "--force-v", "zz"]) == 2
    assert "secnc: rejected:" in capsys.readouterr().err


@pytest.fixture
def p0cfg(tmp_path):
    path = tmp_path / "p0.json"
    path.write_text(json.dumps(P0))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", "-3"],
    ["audit", "secrecy", "--mode", "sampled", "--samples", "-1"],
    ["audit", "reliability", "--mode", "sampled", "--trials", "-1"],
    ["audit", "reliability", "--transfers", "-1"],
], ids=["simulate-trials", "secrecy-samples", "reliability-trials",
        "reliability-transfers"])
def test_counts_that_check_nothing_are_rejected(cfg, p0cfg, capsys, argv):
    config = p0cfg if "reliability" in argv else cfg
    assert main(argv + ["--config", config, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "secnc: rejected:" in captured.err
    assert "verdict=pass" not in captured.out


def test_zero_random_transfers_stay_valid_and_unseeded(p0cfg, capsys):
    assert main(["audit", "reliability", "--config", p0cfg,
                 "--transfers", "0"]) == 0
    captured = capsys.readouterr()
    assert "cases=400 failures=0" in captured.out  # 8 payloads x 50 errors
    assert "seed=" not in captured.err


@pytest.mark.parametrize("config", [
    {"q": 4294967291, "m": 1, "n": 1, "t": 0, "mu": 0, "k": 1},
    {"q": 2305843009213693951, "m": 1, "n": 1, "t": 0, "mu": 0, "k": 1},
    {**CFG, "q": 7, "m": 40},
    {**CFG, "m": 17},
], ids=["q-2^32-5", "q-2^61-1", "q7-m40", "q2-m17"])
def test_oversized_field_is_refused_at_once(tmp_path, capsys, config):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    start = time.monotonic()
    assert main(["params", "--config", str(path)]) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert "largest supported order" in err and "Traceback" not in err


def test_the_largest_binary_field_is_accepted(tmp_path):
    # GF(2^16) is gf.FIELD_LIMIT itself; GF(2^17) is refused above
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CFG, "m": 16}))
    assert main(["params", "--config", str(path)]) == 0


def test_the_largest_odd_field_is_accepted(tmp_path, capsys):
    # GF(3^10), the largest field at q = 3, builds its tables at once
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CFG, "q": 3, "m": 10}))
    assert main(["params", "--config", str(path)]) == 0
    assert "status=ok" in capsys.readouterr().out


def test_noncoherent_walk_over_budget_is_exit_4(cfg, tmp_path, capsys):
    # 21 received rows at t = 1: 2^21 candidate error spaces
    ypath = tmp_path / "ylift.txt"
    fileio.write_matrix(str(ypath), np.random.default_rng(5).integers(0, 2, (21, 8)), 2)
    start = time.monotonic()
    assert main(["decode", "--config", cfg, "--payload", str(ypath),
                 "--noncoherent"]) == 4
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert "secnc: refused:" in err and "Traceback" not in err


def test_params_refuses_a_wrong_number_of_points(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CFG, "g": [1, 2, 4]}))
    assert main(["params", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "secnc: rejected: expected 4 evaluation points, got 3\n")


@pytest.mark.parametrize("modulus", [[1, 1, 0, 0, 3], [-1, 1, 0, 0, 1]])
def test_params_refuses_a_modulus_coefficient_outside_gf_q(tmp_path, capsys,
                                                          modulus):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CFG, "modulus": modulus}))
    assert main(["params", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "secnc: rejected: modulus coefficients must be digits 0..1\n")


def test_decode_refuses_a_transfer_digit_outside_the_field(cfg, tmp_path, capsys):
    (tmp_path / "y.txt").write_text("1010\n0110\n0001\n1111\n")
    (tmp_path / "A.txt").write_text("4 4\n1000\n0100\n0020\n0001\n")
    assert main(["decode", "--config", cfg, "--payload", str(tmp_path / "y.txt"),
                 "--transfer", str(tmp_path / "A.txt")]) == 1
    assert capsys.readouterr().err == (
        "secnc: malformed transfer file: digit 2 out of range for GF(2)\n")


def test_audit_reliability_break_mrd_names_the_audits_refusal(cfg, capsys):
    assert main(["audit", "reliability", "--config", cfg, "--seed", "1",
                 "--break-mrd"]) == 2
    assert capsys.readouterr().err == (
        "secnc: rejected: this instance has no decodable outer code\n")
