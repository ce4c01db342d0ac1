"""Text file formats: packets, base-field matrices, scheme configs.

Packet files hold one extension-field element per line as m base-q
digits, lowest degree first, contiguous for q <= 10 and space-separated
above.  Matrix files start with a "rows cols" header line followed by
one digit line per row.  Blank lines and `#` comments are ignored
everywhere.  Desk-scale data stays human-inspectable this way.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParameterError
from .gf import ExtField, format_digits, parse_digits
from .scheme import SchemeParams


def strip_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_digit_line(line: str, q: int, expected: int) -> list[int]:
    digits = parse_digits(line, q)
    if len(digits) != expected:
        raise ParameterError(
            f"expected {expected} digits on line {line!r}, got {len(digits)}"
        )
    for d in digits:
        if not 0 <= d < q:
            raise ParameterError(f"digit {d} out of range for GF({q})")
    return digits


# -- packet files ------------------------------------------------------

def parse_packets(text: str, F: ExtField) -> list[int]:
    return [F.parse_element(line) for line in strip_lines(text)]


def format_packets(xs, F: ExtField) -> str:
    return "".join(F.format_element(int(x)) + "\n" for x in xs)


def read_packets(path, F: ExtField) -> list[int]:
    with open(path) as fh:
        return parse_packets(fh.read(), F)


def write_packets(path, xs, F: ExtField) -> None:
    with open(path, "w") as fh:
        fh.write(format_packets(xs, F))


# -- matrix files ------------------------------------------------------

def parse_matrix(text: str, q: int):
    """A "rows cols" header line, then exactly `rows` digit lines."""
    lines = strip_lines(text)
    if not lines:
        raise ParameterError("expected a matrix header line, found end of file")
    head = lines[0].split()
    if not (len(head) == 2 and all(tok.isascii() and tok.isdigit() for tok in head)):
        raise ParameterError(f"bad matrix header {' '.join(head)!r}")
    rows, cols = map(int, head)
    body = lines[1:]
    if len(body) < rows:
        raise ParameterError(f"matrix body truncated: {len(body)} of {rows} rows")
    M = [_parse_digit_line(line, q, cols) for line in body[:rows]]
    if len(body) > rows:
        raise ParameterError(f"{len(body) - rows} trailing lines after the matrix body")
    return np.array(M, dtype=np.int64).reshape(rows, cols)


def read_matrix(path, q: int):
    with open(path) as fh:
        return parse_matrix(fh.read(), q)


def write_matrix(path, M, q: int) -> None:
    M = np.asarray(M)
    lines = [f"{M.shape[0]} {M.shape[1]}"] + [format_digits(row, q) for row in M]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- scheme parameter files (JSON) -------------------------------------

def parse_config(text: str):
    """Returns (SchemeParams, seed or None)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParameterError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ParameterError("config must be a JSON object")
    required = ["q", "m", "n", "t", "mu", "k"]
    missing = [f for f in required if f not in raw]
    if missing:
        raise ParameterError(f"config missing fields: {', '.join(missing)}")
    extra = set(raw) - set(required) - {"modulus", "g", "seed"}
    if extra:
        raise ParameterError(f"config has unknown fields: {', '.join(sorted(extra))}")

    def integer(field, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParameterError(
                f"config field {field!r} must be an integer, got {v!r}")
        return v

    def integers(field):
        if field not in raw:
            return None
        if not isinstance(raw[field], list):
            raise ParameterError(f"config field {field!r} must be a list of integers")
        return tuple(integer(field, x) for x in raw[field])

    params = SchemeParams(
        **{f: integer(f, raw[f]) for f in required},
        modulus=integers("modulus"),
        g=integers("g"),
    )
    seed = integer("seed", raw["seed"]) if "seed" in raw else None
    if seed is not None and seed < 0:
        raise ParameterError(f"config seed must be nonnegative, got {seed}")
    return params, seed


def read_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
