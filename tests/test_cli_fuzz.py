"""Generated malformed input never escapes `cli.main` as an exception.

Configs, packet files, transfer and lifted matrix files and count flags
are drawn at random, mostly malformed; every call must return one of the
documented exit codes 0-4.  Parameters stay at desk scale (q, m, n <= 7,
lifted observations of at most 7 rows) so each call is quick.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from secnc.cli import main

P0 = {"q": 2, "m": 3, "n": 3, "t": 1, "mu": 0, "k": 1}
P1 = {"q": 2, "m": 4, "n": 4, "t": 1, "mu": 1, "k": 1}
FUZZ = settings(max_examples=40, deadline=None)

json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 7), st.floats(-3, 7),
    st.text(max_size=4), st.lists(st.integers(-2, 9), max_size=6),
    st.lists(st.one_of(st.text(max_size=2), st.floats(0, 3)), max_size=3),
)
# digits, near-digits and separators: most lines are almost well formed
line_text = st.text(alphabet="0101 2\t9a#-z²", max_size=10)


def run(files: dict, argv: list) -> int:
    """main(argv) with {name} in argv replaced by a temp file holding files[name]."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in files.items():
            path = Path(tmp) / name
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
            paths[name] = str(path)
        argv = [paths.get(a, a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


@st.composite
def configs(draw):
    cfg = dict(P1)
    keys = list(P1) + ["modulus", "g", "seed", "other"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        if key in cfg and draw(st.booleans()):
            del cfg[key]
        else:
            cfg[key] = draw(json_values)
    text = json.dumps(cfg)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(configs(), st.sampled_from(["params", "encode", "decode"]))
@FUZZ
def test_fuzz_configs(config, command):
    extra = {"params": [], "encode": ["--message", "msg", "--seed", "1"],
             "decode": ["--payload", "msg"]}[command]
    code = run({"cfg": config, "msg": "1010\n"},
               [command, "--config", "cfg"] + extra)
    assert code in range(5)


@given(st.one_of(st.lists(line_text, max_size=6).map("\n".join),
                 st.binary(max_size=12)),
       st.booleans())
@FUZZ
def test_fuzz_packet_files(payload, noncoherent):
    argv = ["decode", "--config", "cfg", "--payload", "y"]
    code = run({"cfg": json.dumps(P1), "y": payload},
               argv + (["--noncoherent"] if noncoherent else []))
    assert code in range(5)


@given(st.integers(0, 7), st.integers(0, 5), st.lists(line_text, max_size=7),
       st.sampled_from(["1010\n0101\n1111\n0000\n", "1010\n0101\n"]))
@FUZZ
def test_fuzz_transfer_files(rows, cols, body, payload):
    # 4 packets for an n x n transfer, 2 = n - 2t for an erasure transfer
    transfer = "\n".join([f"{rows} {cols}"] + body)
    files = {"cfg": json.dumps(P1), "y": payload, "A": transfer}
    argv = ["decode", "--config", "cfg", "--payload", "y", "--transfer", "A"]
    assert run(files, argv) in range(5)


@given(st.integers(0, 7), st.integers(6, 9), st.data())
@FUZZ
def test_fuzz_lifted_matrix_files(rows, cols, data):
    # mostly digits, sometimes a stray symbol: 8 columns is the valid width
    line = st.text(alphabet="0000111123a ", min_size=cols, max_size=cols)
    body = data.draw(st.lists(line, min_size=rows, max_size=rows))
    files = {"cfg": json.dumps(P1), "y": "\n".join([f"{rows} 8"] + body)}
    argv = ["decode", "--config", "cfg", "--payload", "y", "--noncoherent"]
    assert run(files, argv) in range(5)


counts = st.integers(-3, 3).map(str)


@given(st.sampled_from(["simulate", "secrecy", "reliability"]), st.data())
@FUZZ
def test_fuzz_count_flags(kind, data):
    flags = []
    if kind == "simulate":
        argv = ["simulate", "--config", "cfg"]
        flags = [("--trials", counts), ("--N", st.integers(0, 6).map(str))]
    elif kind == "secrecy":
        argv = ["audit", "secrecy", "--config", "cfg1"]
        flags = [("--mode", st.sampled_from(["exhaustive", "sampled"])),
                 ("--samples", counts),
                 # 3 rows would audit 2,520 taps exhaustively: valid but slow
                 ("--tap-rows", st.integers(-3, 2).map(str))]
    else:
        argv = ["audit", "reliability", "--config", "cfg"]
        flags = [("--mode", st.sampled_from(["exhaustive", "sampled"])),
                 ("--transfers", counts), ("--trials", counts)]
    flags += [("--seed", st.one_of(counts, st.just("x"))),
              ("--budget", st.sampled_from(["-1", "0", "100", "4194304"]))]
    for flag, values in flags:
        if data.draw(st.booleans()):
            argv += [flag, data.draw(values)]
    files = {"cfg": json.dumps(P0), "cfg1": json.dumps(P1)}
    assert run(files, argv) in range(5)
