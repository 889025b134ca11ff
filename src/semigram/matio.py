"""Text interchange formats: the matrix format used by the CLI and the
JSON system-description files that bundle (A, B, C).

Matrix format: first line ``rows cols``, then ``rows`` lines of ``cols``
whitespace-separated entries. Real entries are plain decimal floats; complex
entries use ``a+bi`` tokens (for example ``1.5-0.25i``). Parsing is
locale-independent: only ``.`` is accepted as the decimal separator.
"""

import json
import os

import numpy as np

from .errors import ParseError
from .linalg import as_operator
from .reduction import StateSpaceSystem

__all__ = [
    "parse_matrix",
    "format_matrix",
    "read_matrix",
    "write_matrix",
    "read_system",
]


def _parse_token(token, name, row, col):
    try:
        if token.endswith("i") or token.endswith("I"):
            value = complex(token[:-1] + "j")
        else:
            value = complex(float(token))
    except ValueError as exc:
        raise ParseError(
            "cannot parse matrix entry %r at row %d col %d of %s"
            % (token, row, col, name)
        ) from exc
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ParseError(
            "non-finite matrix entry %r at row %d col %d of %s"
            % (token, row, col, name)
        )
    return value


def parse_matrix(text, name="matrix"):
    """Parse matrix-format text into a float64 or complex128 array.

    Each row is converted with one ``map(float, ...)``. A row takes the
    per-token branch instead when that conversion raises (a complex
    ``a+bi`` token, which ``float`` never accepts, or a malformed one) or
    yields a non-finite value; that branch builds the complex values or
    the ``ParseError`` for the first bad token. Either way the accepted
    syntax is Python's ``float`` for real tokens and ``complex`` (with
    ``i`` for ``j``) for complex ones. The result is complex only if some
    entry has a nonzero imaginary part.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("%s: empty matrix text" % name)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("%s: header must be 'rows cols', got %r" % (name, lines[0]))
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError("%s: non-integer dimensions in header" % name) from exc
    if rows < 0 or cols < 0:
        raise ParseError("%s: negative dimensions in header" % name)
    # the rows of a matrix with no columns are blank lines, dropped above
    expected = rows if cols else 0
    if len(lines) - 1 != expected:
        raise ParseError(
            "%s: expected %d data rows, found %d" % (name, expected, len(lines) - 1)
        )
    data = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(
                "%s: row %d has %d entries, expected %d"
                % (name, i, len(tokens), cols)
            )
        try:
            data[i] = list(map(float, tokens))
        except ValueError:
            pass
        else:
            if np.isfinite(data[i]).all():
                continue
        values = [_parse_token(token, name, i, j) for j, token in enumerate(tokens)]
        # only a row with a complex token gets here without raising
        if not np.iscomplexobj(data):
            data = data.astype(np.complex128)
        data[i] = values
    if np.iscomplexobj(data) and not data.imag.any():
        return np.ascontiguousarray(data.real)
    return data


def format_matrix(a):
    """Render a matrix in the text interchange format (round-trip exact).

    Every entry is written with ``%.17g``, a complex one as ``%.17g%+.17gi``
    from its real and imaginary parts, so Python's ``float`` and
    ``complex`` read each back exactly; one format string covers a row.
    """
    a = as_operator(a, "matrix")
    rows, cols = a.shape
    entry = "%.17g"
    if np.iscomplexobj(a):
        # interleaved (real, imag) pairs, two float64 per entry; a view
        # needs rows laid out contiguously, which a transpose is not
        entry, a = "%.17g%+.17gi", np.ascontiguousarray(a).view(np.float64)
    fmt = " ".join([entry] * cols)
    lines = ["%d %d" % (rows, cols)]
    # row by row: one tolist() of the whole matrix would hold every entry
    # as a Python float at once
    lines.extend([fmt % tuple(row.tolist()) for row in a])
    return "\n".join(lines) + "\n"


def read_matrix(path, name=None):
    """Read a matrix-format file."""
    name = name or os.path.basename(str(path))
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read matrix file %s: %s" % (path, exc)) from exc
    return parse_matrix(text, name=name)


def write_matrix(path, a):
    """Write a matrix-format file."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_matrix(a))


def _resolve_field(doc, field, base_dir):
    """A field is either an inline nested list or a path to a matrix file."""
    value = doc[field]
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        return read_matrix(path, name="%s (%s)" % (field, value))
    try:
        return as_operator(value, name=field)
    except Exception as exc:
        raise ParseError("field %r is not a valid inline matrix: %s" % (field, exc)) from exc


def read_system(path):
    """Load a system-description JSON file into a StateSpaceSystem.

    The document must contain field ``A`` and may contain ``B`` and ``C``
    (each a matrix-file path relative to the document, or an inline nested
    list); any other field is ignored. Missing ``B`` or ``C`` default to
    the identity on the state space.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read system file %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("system file %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("system file %s: top level must be an object" % path)
    if "A" not in doc:
        raise ParseError("system file %s: missing required field 'A'" % path)

    base_dir = os.path.dirname(os.path.abspath(path))
    a = _resolve_field(doc, "A", base_dir)
    if a.shape[0] != a.shape[1]:
        raise ParseError("system file %s: A must be square, got %s" % (path, (a.shape,)))
    n = a.shape[0]
    b = _resolve_field(doc, "B", base_dir) if "B" in doc else np.eye(n)
    c = _resolve_field(doc, "C", base_dir) if "C" in doc else np.eye(n)

    try:
        return StateSpaceSystem(a, b, c)
    except Exception as exc:
        raise ParseError("system file %s: %s" % (path, exc)) from exc
