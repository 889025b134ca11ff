import numpy as np
import pytest

from semigram import (
    ParseError,
    StateSpaceSystem,
    format_matrix,
    parse_matrix,
    read_matrix,
    read_system,
    write_matrix,
)


def test_parse_simple_real():
    m = parse_matrix("2 3\n1 2 3\n4 5 -6.5\n")
    assert m.shape == (2, 3)
    assert m.dtype == np.float64
    assert np.array_equal(m, [[1, 2, 3], [4, 5, -6.5]])


def test_parse_complex_tokens():
    m = parse_matrix("1 2\n1+2i -3i\n")
    assert m.dtype == np.complex128
    assert m[0, 0] == 1 + 2j
    assert m[0, 1] == -3j


def test_roundtrip_real_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
    assert np.array_equal(parse_matrix(format_matrix(m)), m)


def test_roundtrip_complex_exact():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(parse_matrix(format_matrix(m)), m)


@pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0)])
def test_roundtrip_empty(shape):
    # a p x 0 matrix is written as p blank rows after its header
    text = format_matrix(np.zeros(shape))
    assert text == "%d %d\n" % shape + "\n" * shape[0]
    m = parse_matrix(text)
    assert m.shape == shape
    assert m.dtype == np.float64


def test_roundtrip_through_files(tmp_path):
    target = tmp_path / "m.mat"
    m = np.array([[0.0, 0.5], [-1.25, 3.0]])
    write_matrix(target, m)
    assert np.array_equal(read_matrix(target), m)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("2\n1 2\n")
    with pytest.raises(ParseError):
        parse_matrix("2 2\n1 2\n")  # missing a row
    with pytest.raises(ParseError):
        parse_matrix("1 2\n1 2 3\n")  # extra column
    with pytest.raises(ParseError):
        parse_matrix("1 1\nbogus\n")
    with pytest.raises(ParseError):
        parse_matrix("1 1\nnan\n")
    with pytest.raises(ParseError):
        parse_matrix("-1 2\n\n")


def test_read_system_inline(tmp_path):
    doc = tmp_path / "sys.json"
    doc.write_text(
        '{"A": [[0.0, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]],'
        ' "C": [[1.0, 0.0]]}'
    )
    system, labels = read_system(doc)
    assert isinstance(system, StateSpaceSystem)
    assert system.n == 2 and system.n_inputs == 1 and system.n_outputs == 1
    assert labels is None


def test_read_system_defaults_identity(tmp_path):
    doc = tmp_path / "sys.json"
    doc.write_text('{"A": [[-1.0]]}')
    system, _ = read_system(doc)
    assert np.array_equal(system.b, np.eye(1))
    assert np.array_equal(system.c, np.eye(1))


def test_read_system_file_references(tmp_path):
    write_matrix(tmp_path / "a.mat", np.diag([0.0, -2.0]))
    write_matrix(tmp_path / "b.mat", np.array([[1.0], [2.0]]))
    doc = tmp_path / "sys.json"
    doc.write_text('{"A": "a.mat", "B": "b.mat", "labels": ["mean", "mode1"]}')
    system, labels = read_system(doc)
    assert np.array_equal(system.a, np.diag([0.0, -2.0]))
    assert np.array_equal(system.b, [[1.0], [2.0]])
    assert labels == ["mean", "mode1"]


def test_read_system_errors(tmp_path):
    doc = tmp_path / "sys.json"
    doc.write_text("{not json")
    with pytest.raises(ParseError):
        read_system(doc)
    doc.write_text('{"B": [[1.0]]}')
    with pytest.raises(ParseError):
        read_system(doc)  # A required
    doc.write_text('{"A": [[0.0, 1.0]]}')
    with pytest.raises(ParseError):
        read_system(doc)  # A must be square
    doc.write_text('{"A": [[0.0]], "labels": "mean"}')
    with pytest.raises(ParseError):
        read_system(doc)  # labels must be a list of strings
    with pytest.raises((ParseError, OSError)):
        read_system(tmp_path / "missing.json")


def test_format_matrix_empty_dimension():
    m = parse_matrix("0 3\n")
    assert m.shape == (0, 3)
    assert parse_matrix(format_matrix(m)).shape == (0, 3)
