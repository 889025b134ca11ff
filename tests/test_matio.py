import numpy as np
import pytest

from semigram import (
    ParseError,
    StateSpaceSystem,
    format_matrix,
    matio,
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
    system = read_system(doc)
    assert isinstance(system, StateSpaceSystem)
    assert system.n == 2 and system.n_inputs == 1 and system.n_outputs == 1


def test_read_system_defaults_identity(tmp_path):
    doc = tmp_path / "sys.json"
    doc.write_text('{"A": [[-1.0]]}')
    system = read_system(doc)
    assert np.array_equal(system.b, np.eye(1))
    assert np.array_equal(system.c, np.eye(1))


def test_read_system_file_references(tmp_path):
    write_matrix(tmp_path / "a.mat", np.diag([0.0, -2.0]))
    write_matrix(tmp_path / "b.mat", np.array([[1.0], [2.0]]))
    doc = tmp_path / "sys.json"
    doc.write_text('{"A": "a.mat", "B": "b.mat", "labels": ["mean", "mode1"]}')
    system = read_system(doc)  # a field other than A, B and C is ignored
    assert np.array_equal(system.a, np.diag([0.0, -2.0]))
    assert np.array_equal(system.b, [[1.0], [2.0]])


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
    assert read_system(doc).n == 1  # labels is ignored like any other field
    with pytest.raises((ParseError, OSError)):
        read_system(tmp_path / "missing.json")


def test_format_matrix_empty_dimension():
    m = parse_matrix("0 3\n")
    assert m.shape == (0, 3)
    assert parse_matrix(format_matrix(m)).shape == (0, 3)


# Python's float decides every real token on both branches of parse_matrix:
# underscores, "infinity", a bare "i", overflow to inf, subnormals, ...
TOKEN_CORPUS = [
    "1_0", "infinity", "nan", "-0", ".5", "1e400", "0x10", "1,5", "+1",
    "i", "2-3I", "1e-320", "-0-0i", "1+0i", "5e-324", "-inf", "1__0", "1e",
]


def parsed(text):
    """(dtype, value bytes) of a parse, or the exact ParseError text."""
    try:
        m = parse_matrix(text)
    except ParseError as exc:
        return str(exc)
    return m.dtype, m.tobytes()


@pytest.mark.parametrize("token", TOKEN_CORPUS)
def test_token_parses_alike_on_both_branches(token, monkeypatch):
    calls = []
    per_token = matio._parse_token
    monkeypatch.setattr(matio, "_parse_token",
                        lambda *args: calls.append(args) or per_token(*args))
    complex_token = token[-1] in "iI"
    # alone in its row the token takes the row-wise float branch, unless
    # it is complex or rejected
    alone = parsed("1 1\n%s\n" % token)
    fast = not calls
    assert fast == (isinstance(alone, tuple) and not complex_token)
    # beside a complex token the row takes the per-token branch; "0i"
    # leaves the matrix real, "1i" makes it complex
    calls.clear()
    real_mate = parsed("1 2\n%s 0i\n" % token)
    assert calls
    if isinstance(alone, str):
        assert real_mate == alone
        assert parsed("1 2\n%s 1i\n" % token) == alone
        return
    # Python's own value, signed zeros included
    value = complex(token[:-1] + "j") if complex_token else float(token)
    if np.imag(value):
        assert alone == (np.complex128, np.array([value]).tobytes())
    else:
        # a zero imaginary part, even -0, leaves the matrix real
        assert alone == (np.float64, np.array([np.real(value)]).tobytes())
        assert real_mate == (np.float64, np.array([np.real(value), 0.0]).tobytes())
    assert parsed("1 2\n%s 1i\n" % token) == (
        np.complex128, np.array([value, 1j], dtype=np.complex128).tobytes())


def test_token_corpus_values():
    assert parse_matrix("1 5\n1_0 .5 +1 1e-320 -0\n").tolist() == [
        [10.0, 0.5, 1.0, 1e-320, 0.0]]
    assert np.signbit(parse_matrix("1 1\n-0\n")[0, 0])
    assert parse_matrix("1 2\ni 2-3I\n").tolist() == [[1j, 2 - 3j]]
    for token in ("infinity", "nan", "1e400"):
        with pytest.raises(ParseError, match="non-finite matrix entry %r" % token):
            parse_matrix("1 1\n%s\n" % token)
    for token in ("0x10", "1,5"):
        with pytest.raises(ParseError, match="cannot parse matrix entry %r" % token):
            parse_matrix("1 1\n%s\n" % token)


def test_first_bad_entry_in_row_order_is_reported():
    cases = {
        "2 2\n1 bogus\nnan 1\n": "cannot parse matrix entry 'bogus' at row 0 col 1 of matrix",
        "2 2\n1 nan\nbogus 1\n": "non-finite matrix entry 'nan' at row 0 col 1 of matrix",
        "2 2\nnan bogus\n1 1\n": "non-finite matrix entry 'nan' at row 0 col 0 of matrix",
        "2 2\n1 1i\n2 3 4\n": "matrix: row 1 has 3 entries, expected 2",
        "2 2\n1 2 3\nbogus 1\n": "matrix: row 0 has 3 entries, expected 2",
    }
    for text, message in cases.items():
        assert parsed(text) == message


def format_per_entry(a):
    """format_matrix before one format string per row, entry by entry."""
    def entry(value):
        if np.iscomplexobj(np.asarray(value)):
            return "%.17g%+.17gi" % (value.real, value.imag)
        return "%.17g" % value
    lines = ["%d %d" % a.shape]
    for row in a:
        lines.append(" ".join(entry(v) for v in row))
    return "\n".join(lines) + "\n"


def test_format_matrix_matches_per_entry_format():
    reals = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 3.0, -12.0,
             1 / 3, 2.0**-1074 * 3, 1e16, 123456789012345680.0]
    cases = [
        np.array([reals]),
        np.array(reals).reshape(-1, 1),
        np.array([[1 / 3 + 0j, 2 - 0j, complex(-0.0, -0.0)],
                  [complex(5e-324, 1e308), 1j / 3, complex(1, -0.0)]]),
        np.arange(12.0).reshape(3, 4) - 5,
    ] + [np.zeros(shape, dtype=dtype) for shape in [(0, 0), (0, 3), (2, 0)]
         for dtype in (np.float64, np.complex128)]
    rng = np.random.default_rng(7)
    cases.append(rng.normal(size=(5, 6)) * 10.0 ** rng.integers(-300, 300, (5, 6)))
    cases.append(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    cases += [m.T for m in cases]  # column-major layouts
    for a in cases:
        assert format_matrix(a) == format_per_entry(a)


def test_read_errors_name_the_file_they_cannot_decode(tmp_path):
    target = tmp_path / "accent.mat"
    target.write_bytes("1 1\né\n".encode("utf-8"))
    with pytest.raises(ParseError, match=r"cannot read matrix file .*accent\.mat: "
                                         r"'ascii' codec can't decode byte 0xc3"):
        read_matrix(target)
    doc = tmp_path / "latin1.json"
    doc.write_bytes('{"A": [[0.0]], "labels": ["é"]}'.encode("latin-1"))
    with pytest.raises(ParseError, match=r"cannot read system file .*latin1\.json: "
                                         r"'utf-8' codec can't decode byte 0xe9"):
        read_system(doc)
