"""Text formats: packets, matrices, configs; round trips are bit-exact."""

import pytest

from secnc import fileio
from secnc.errors import ParameterError
from secnc.gf import ExtField


@pytest.fixture(scope="module")
def F16():
    return ExtField(2, 4)


def test_packet_digits_are_lowest_degree_first(F16):
    # element x has digit vector 0100: coefficient of x^0 first
    assert fileio.format_packets([2], F16) == "0100\n"
    assert fileio.parse_packets("0100", F16) == [2]
    assert fileio.format_packets([1, 8], F16) == "1000\n0001\n"


def test_packets_round_trip_all_elements(F16):
    xs = list(range(16))
    assert fileio.parse_packets(fileio.format_packets(xs, F16), F16) == xs


def test_comments_and_blank_lines_ignored(F16):
    text = "# header\n\n1010\n  # indented comment\n0001\n"
    assert fileio.parse_packets(text, F16) == [5, 8]


def test_wide_field_uses_spaced_digits():
    F = ExtField(11, 2)
    text = fileio.format_packets([25], F)
    assert text == "3 2\n"  # 25 = 3 + 2*11
    assert fileio.parse_packets(text, F) == [25]


def test_bad_digit_rejected(F16):
    with pytest.raises(ParameterError):
        fileio.parse_packets("1210", F16)
    with pytest.raises(ParameterError):
        fileio.parse_packets("101", F16)  # wrong digit count


def test_matrix_round_trip(tmp_path):
    M = [[1, 0, 2], [2, 1, 0]]
    path = tmp_path / "m.txt"
    fileio.write_matrix(str(path), M, 3)
    assert fileio.read_matrix(str(path), 3).tolist() == M
    assert path.read_text() == "2 3\n102\n210\n"


def test_matrix_header_errors():
    with pytest.raises(ParameterError):
        fileio.parse_matrix("banana\n101\n", 2)
    with pytest.raises(ParameterError):
        fileio.parse_matrix("2 x\n101\n101\n", 2)
    with pytest.raises(ParameterError):
        fileio.parse_matrix("2 3\n101\n", 2)  # truncated body
    with pytest.raises(ParameterError):
        fileio.parse_matrix("1 3\n101\n111\n", 2)  # trailing lines


def test_empty_matrix_blocks():
    assert fileio.parse_matrix("0 4\n", 2).shape == (0, 4)


def test_matrix_errors_name_the_fault():
    cases = [
        ("# only a comment\n", "expected a matrix header line, found end of file"),
        ("2  x\n", "bad matrix header '2 x'"),
        ("2 3\n101\n", "matrix body truncated: 1 of 2 rows"),
        ("1 3\n101\n111\n000\n", "2 trailing lines after the matrix body"),
        ("1 3\n1x1\n111\n", "non-digit token"),  # rows are read first
    ]
    for text, message in cases:
        with pytest.raises(ParameterError, match=message):
            fileio.parse_matrix(text, 2)


def test_config_parsing_and_rejections():
    params, seed = fileio.parse_config(
        '{"q":2,"m":4,"n":4,"t":1,"mu":1,"k":1,"seed":9}'
    )
    assert (params.q, params.m, params.n) == (2, 4, 4)
    assert seed == 9
    with pytest.raises(ParameterError):
        fileio.parse_config("[1,2]")
    with pytest.raises(ParameterError):
        fileio.parse_config('{"q":2}')
    with pytest.raises(ParameterError):
        fileio.parse_config('{"q":2,"m":4,"n":4,"t":1,"mu":1,"k":1,"x":0}')


def test_config_optional_modulus_and_g():
    params, _ = fileio.parse_config(
        '{"q":2,"m":4,"n":4,"t":1,"mu":1,"k":1,'
        '"modulus":[1,1,0,0,1],"g":[1,2,4,8]}'
    )
    assert params.modulus == (1, 1, 0, 0, 1)
    assert params.g == (1, 2, 4, 8)
