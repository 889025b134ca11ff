import argparse
import collections
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from semigram import (
    ConditioningError,
    DimensionError,
    InconsistencyError,
    InvalidSelectionError,
    NotSemistableError,
    ParseError,
    PreconditionError,
    QuadratureError,
    SemigramError,
    build_heat_surrogate,
    cli,
    lapack,
    matio,
    parse_matrix,
    read_matrix,
    read_system,
    semistability,
    write_matrix,
)
from semigram.cli import main

from conftest import (
    consensus_laplacian,
    counting_kernel,
    random_nonnormal_semistable,
)


def write_system(tmp_path, a, b=None, c=None, name="sys.json"):
    doc = {"A": np.asarray(a).tolist()}
    if b is not None:
        doc["B"] = np.asarray(b).tolist()
    if c is not None:
        doc["C"] = np.asarray(c).tolist()
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            key, _, value = line.partition(": ")
            pairs[key] = value
    return pairs


def test_analyze_semistable(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    code, out, err = run(capsys, ["analyze", path])
    assert code == 0
    report = parse_report(out)
    assert report["verdict"] == "semistable"
    assert report["kernel_dim"] == "1"
    assert float(report["mu"]) == pytest.approx(1.0)
    assert "kernel_basis" in out


def test_analyze_reports_the_certified_decay_bound(tmp_path, capsys, monkeypatch):
    # K = 1 at the exact rate for self-adjoint A; otherwise rate mu / 2 and
    # a K above the transient's sup, which tends to 250 at rate mu
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    report = parse_report(run(capsys, ["analyze", path])[1])
    assert (report["overshoot_m"], report["overshoot_rate"]) == ("1", "1")
    path = write_system(tmp_path, [[0.0, 0.0, 0.0], [0.0, -1.0, 50.0],
                                   [0.0, 0.0, -1.2]])
    code, out, err = run(capsys, ["analyze", path])
    assert code == 0, err
    keys = [line.partition(": ")[0] for line in out.splitlines()]
    assert keys[keys.index("overshoot_m") + 1] == "overshoot_rate"
    report = parse_report(out)
    assert float(report["overshoot_rate"]) == pytest.approx(0.5)
    assert float(report["overshoot_m"]) >= 30.8
    # the coupling at c = 1 certifies its bound: its report is pinned
    path = write_system(tmp_path, coupling(1.0))
    assert run(capsys, ["analyze", path]) == (0, COUPLING1_REPORT, "")
    # X = 0 leaves the Lyapunov residual |I|_F = sqrt(3) > 1/2: a failed
    # certificate has no fallback; analyze reports the bound as nan, and
    # the quadrature oracle, which needs it, is a numerical failure
    monkeypatch.setattr(semistability, "_solve_transient_lyapunov",
                        lambda f: np.zeros_like(f))
    code, out, err = run(capsys, ["analyze", path])
    assert code == 0, err
    assert out == COUPLING1_REPORT.replace(
        "overshoot_m: 2.10749102966\novershoot_rate: 0.5\n",
        "overshoot_m: nan\novershoot_rate: nan\n")
    code, out, err = run(capsys, ["gramian", path, "--method", "quadrature",
                                  "--output", str(tmp_path / "o")])
    assert code == 5
    assert "Lyapunov certificate" in err


COUPLING1_REPORT = """verdict: semistable
mu: 1
kernel_dim: 1
overshoot_m: 2.10749102966
overshoot_rate: 0.5
s_inf_idempotency_defect: 0
s_inf_annihilation_defect: 0
zero_tol: 1.52427777818e-12
kernel_basis:
3 1
1
0
0
"""


def test_analyze_defective_zero(tmp_path, capsys):
    path = write_system(tmp_path, [[0.0, 1.0], [0.0, 0.0]])
    code, out, err = run(capsys, ["analyze", path])
    assert code == 3
    report = parse_report(out)
    assert report["verdict"] == "not_semistable"
    assert "defective" in report["detail"]


def test_analyze_unstable(tmp_path, capsys):
    path = write_system(tmp_path, [[1.0]])
    code, out, err = run(capsys, ["analyze", path])
    assert code == 3
    assert "positive real part" in parse_report(out)["detail"]


@pytest.mark.parametrize("a", [
    [[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    [[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
])
def test_analyze_unstable_with_simple_zero(tmp_path, capsys, a):
    # the unstable modes lead the canonical order, the zero does not
    path = write_system(tmp_path, a)
    code, out, err = run(capsys, ["analyze", path])
    assert code == 3
    assert "positive real part" in parse_report(out)["detail"]


def test_analyze_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, ["analyze", str(tmp_path / "absent.json")])
    assert code == 2
    assert err.startswith("error:")


def test_analyze_malformed_system(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"A": [[1.0, 2.0]]}')
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2


@pytest.mark.parametrize("doc, matrix, message", [
    ({"A": "a.mat"}, "2 x\n1 2\n3 4\n", "non-integer dimensions in header"),
    ([[0.0, 1.0], [0.0, -1.0]], None, "top level must be an object"),
    ({"A": [[0.0, 1.0], [0.0, -1.0]], "B": [[1.0], [1.0], [1.0]]}, None,
     "input matrix has 3 rows, expected 2"),
    ({"A": [[0.0, "x"], [0.0, -1.0]]}, None, "A has non-numeric entries"),
], ids=["header", "top-level", "b-rows", "inline-entry"])
def test_malformed_system_files_are_input_errors(tmp_path, capsys, doc, matrix, message):
    if matrix is not None:
        (tmp_path / "a.mat").write_text(matrix)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_analyze_undecodable_matrix_file(tmp_path, capsys):
    (tmp_path / "a.mat").write_bytes("1 1\né\n".encode("utf-8"))
    path = tmp_path / "sys.json"
    path.write_text('{"A": "a.mat"}')
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert err.startswith("error: cannot read matrix file ")
    assert "a.mat: 'ascii' codec can't decode byte 0xc3" in err


def test_gramian_writes_matrix(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -np.pi**2]))
    outdir = tmp_path / "out"
    code, out, err = run(capsys, ["gramian", path, "--output", str(outdir)])
    assert code == 0
    report = parse_report(out)
    assert report["method"] == "lyapunov_split"
    p = read_matrix(str(outdir / "p_inf.mat"))
    expected = np.diag([0.0, 1.0 / (2 * np.pi**2)])
    assert np.abs(p - expected).max() <= 1e-12


def test_gramian_methods_agree(tmp_path, capsys):
    a = -np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    path = write_system(tmp_path, a)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, out, _ = run(
        capsys, ["gramian", path, "--method", "quadrature", "--output", str(out_a)]
    )
    assert code == 0
    assert parse_report(out)["method"] == "quadrature"
    code, out, _ = run(
        capsys, ["gramian", path, "--method", "lyapunov", "--output", str(out_b)]
    )
    assert code == 0
    assert parse_report(out)["method"] == "lyapunov_split"
    p1 = read_matrix(str(out_a / "p_inf.mat"))
    p2 = read_matrix(str(out_b / "p_inf.mat"))
    assert np.abs(p1 - p2).max() <= 1e-8


def test_gramian_split_failure_routes(tmp_path, capsys, monkeypatch):
    # the default route is the split route, and a split failure has no
    # fallback: both exit 5 and write no Gramian
    def failing_split(*args, **kwargs):
        raise ConditioningError("split refused")

    monkeypatch.setattr(cli, "solve_semistability_lyapunov", failing_split)
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    for method in ([], ["--method", "lyapunov"]):
        code, out, err = run(capsys, ["gramian", path, "--output",
                                      str(tmp_path)] + method)
        assert code == 5
        assert "split refused" in err
        assert not (tmp_path / "p_inf.mat").exists()


def coupling(c):
    """Semistable [[0,0,0],[0,-1,c],[0,0,-2]]; its SVD kernel grows with c."""
    return [[0.0, 0.0, 0.0], [0.0, -1.0, c], [0.0, 0.0, -2.0]]


def test_default_gramian_where_the_oracle_fails(tmp_path, capsys):
    # the quadrature oracle's decay bound fails its certificate on both
    # systems, so both quadrature routes exit 5; the split route certifies
    # its Gramian, and analyze reports the bound as nan
    rng = np.random.default_rng(1)
    for a in (coupling(1e6), random_nonnormal_semistable(rng, 30, 1, 1e6)):
        path = write_system(tmp_path, a)
        out = str(tmp_path / "o")
        code, report, err = run(capsys, ["gramian", path, "--output", out])
        assert code == 0, err
        assert parse_report(report)["method"] == "lyapunov_split"
        code, report, err = run(capsys, ["analyze", path])
        assert code == 0, err
        report = parse_report(report)
        assert report["verdict"] == "semistable"
        assert (report["overshoot_m"], report["overshoot_rate"]) == ("nan", "nan")
        code, _, err = run(capsys, ["gramian", path, "--method", "quadrature",
                                    "--output", out])
        assert code == 5
        assert "decay bound failed its Lyapunov certificate" in err
    # the coupling's truncation is exact, so only the H2 oracle fails
    path = write_system(tmp_path, coupling(1e6))
    for h2 in ("gramian", "quadrature", "both"):
        code, _, err = run(capsys, ["reduce", path, "--keep", "2", "--h2", h2,
                                    "--output", out])
        assert code == (0 if h2 == "gramian" else 5), err
        assert h2 == "gramian" or "decay bound failed its Lyapunov certificate" in err


def test_gramian_impossible_tolerance(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    code, out, err = run(
        capsys,
        [
            "gramian", path, "--method", "quadrature",
            "--quad-tol", "1e-300", "--output", str(tmp_path),
        ],
    )
    assert code == 5
    assert "error:" in err


def test_reduce_roundtrip(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0, -2.0]))
    outdir = tmp_path / "red"
    code, out, err = run(
        capsys, ["reduce", path, "--keep", "2", "--output", str(outdir)]
    )
    assert code == 0
    report = parse_report(out)
    assert report["order"] == "2"
    assert report["kept_modes"] == "0 1"
    assert report["semistability_preserved"] == "true"
    reduced = read_system(str(outdir / "reduced_system.json"))
    assert np.allclose(reduced.a, np.diag([0.0, -1.0]), atol=1e-12)
    assert reduced.b.shape == (2, 3)
    assert reduced.c.shape == (3, 2)
    assert float(report["h2_trace_gramian"]) == pytest.approx(
        1.0 / 4.0, abs=1e-8
    )


def test_reduce_to_order_zero_reads_back(tmp_path, capsys):
    # the reduced C is 1 x 0, written as one blank row
    path = write_system(tmp_path, [[-1.0, 1.0], [0.0, -2.0]], b=[[1.0], [0.0]],
                        c=[[1.0, 1.0]])
    outdir = tmp_path / "red"
    code, _, err = run(capsys, ["reduce", path, "--keep", "0", "--output", str(outdir)])
    assert code == 0, err
    reduced = read_system(str(outdir / "reduced_system.json"))
    assert (reduced.a.shape, reduced.b.shape, reduced.c.shape) == ((0, 0), (0, 1), (1, 0))
    code, out, err = run(capsys, ["analyze", str(outdir / "reduced_system.json")])
    assert code == 0, err
    assert parse_report(out)["verdict"] == "stable"


def test_reduce_explicit_indices_and_h2_both(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -np.pi**2, -4 * np.pi**2]))
    code, out, err = run(
        capsys,
        [
            "reduce", path, "--keep", "0,1", "--h2", "both",
            "--output", str(tmp_path / "o"),
        ],
    )
    assert code == 0
    report = parse_report(out)
    expected = 1.0 / (8 * np.pi**2)
    assert float(report["h2_trace_gramian"]) == pytest.approx(expected, abs=1e-8)
    assert float(report["h2_trace_quadrature"]) == pytest.approx(expected, abs=1e-8)


def test_reduce_keep_all_error_negligible(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    code, out, err = run(
        capsys,
        ["reduce", path, "--keep", "all", "--output", str(tmp_path / "o")],
    )
    assert code == 0
    assert float(parse_report(out)["h2_trace_gramian"]) <= 1e-10


def test_reduce_dropping_kernel_is_selection_error(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0, -2.0]))
    code, out, err = run(
        capsys,
        ["reduce", path, "--keep", "1,2", "--output", str(tmp_path / "o")],
    )
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize("a, v", [
    (np.diag([0.0, -1.0, -2.0]), np.eye(3)),
    (np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]]),
     np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])),
], ids=["diagonal", "nonnormal"])
def test_real_generator_with_complex_input(tmp_path, capsys, a, v):
    # A = V diag(0, -1, -2) V^-1 and B = [1, i, 1]^T: the Gramian is complex
    lam = np.array([0.0, -1.0, -2.0])
    b = np.array([[1.0], [1j], [1.0]])
    write_matrix(tmp_path / "a.mat", a)
    write_matrix(tmp_path / "b.mat", b)
    path = tmp_path / "sys.json"
    path.write_text('{"A": "a.mat", "B": "b.mat"}')
    # modal Gramian: P = V P~ V*, P~_ij = -b~_i conj(b~_j) / (lam_i + lam_j)
    # over the stable modes, with b~ = V^-1 B
    bt = np.linalg.solve(v, b)[1:, 0]
    modal = np.zeros((3, 3), dtype=complex)
    modal[1:, 1:] = -np.outer(bt, bt.conj()) / (lam[1:, None] + lam[None, 1:])
    expected = v @ modal @ v.conj().T
    assert expected[1, 2] == pytest.approx(1j / 3)
    for method, tol in (("lyapunov", 1e-12), ("quadrature", 1e-8)):
        out = tmp_path / method
        code, _, err = run(capsys, ["gramian", str(path), "--method", method,
                                    "--output", str(out)])
        assert code == 0, err
        p = read_matrix(out / "p_inf.mat")
        assert p.dtype == np.complex128
        assert np.abs(p - expected).max() <= tol
    # keeping modes 0 and 1 drops the decoupled mode -2, with C = I
    h2_trace = np.trace(v[:, 2:] @ modal[2:, 2:] @ v[:, 2:].conj().T).real
    assert h2_trace == pytest.approx(0.25)
    code, out, err = run(capsys, ["reduce", str(path), "--keep", "2", "--h2", "both",
                                  "--output", str(tmp_path / "r")])
    assert code == 0, err
    report = parse_report(out)
    assert float(report["h2_trace_gramian"]) == pytest.approx(h2_trace, abs=1e-12)
    assert float(report["h2_trace_quadrature"]) == pytest.approx(h2_trace, abs=1e-8)


def test_reduce_bad_keep_argument(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    code, out, err = run(
        capsys,
        ["reduce", path, "--keep", "half", "--output", str(tmp_path / "o")],
    )
    assert code == 2


def test_heat_bench_csv(tmp_path, capsys):
    code, out, err = run(
        capsys,
        ["heat-bench", "--modes", "3", "--cosines", "1", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("N,")
    fields = lines[1].split(",")
    assert int(fields[0]) == 1
    assert float(fields[3]) == pytest.approx(1.0 / (8 * np.pi**2), rel=1e-10)


def test_heat_bench_structured_report_matches_text_and_csv(capsys):
    # every timed heat command prints this format: one JSON object with the
    # ten report fields, each the value that the text or CSV report prints
    argv = ["heat-bench", "--modes", "6", "--cosines", "2", "--format"]
    outs = {}
    for fmt in ("structured", "text", "csv"):
        code, outs[fmt], err = run(capsys, argv + [fmt])
        assert code == 0 and err == ""
    doc = json.loads(outs["structured"])
    assert list(doc) == [
        "n_kept", "modes", "trace_gramian", "trace_quadrature", "trace_analytic",
        "published_constant", "h2_norm", "max_pairwise_deviation",
        "surrogate_tail_bound", "abs_tol"]
    title, *lines = outs["text"].splitlines()
    assert title == "heat benchmark: %d-mode surrogate, keeping %d cosine modes" % (
        doc["modes"], doc["n_kept"])
    text = parse_report("\n".join(lines))
    formats = {"max_pairwise_deviation": "%.3e", "surrogate_tail_bound": "%.3e",
               "abs_tol": "%.1e"}
    for key in list(doc)[2:]:
        assert formats.get(key, "%.12e") % doc[key] == text[key].strip(), key
    header, row = outs["csv"].splitlines()
    for key, value in zip(header.split(","), row.split(",")):
        key = {"N": "n_kept"}.get(key, key)
        assert ("%d" if key == "n_kept" else "%.12e") % doc[key] == value, key
    assert (doc["modes"], doc["n_kept"]) == (6, 2)


@pytest.mark.parametrize("modes", ["1", "-3"])
def test_heat_bench_names_a_surrogate_below_two_modes(capsys, modes):
    # M is the invalid value, so the error names M, not N < M
    code, out, err = run(capsys, ["heat-bench", "--modes", modes, "--cosines", "1"])
    assert code == 2 and out == ""
    assert "at least 2 modes" in err


def test_structured_output_parses(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    code, out, err = run(capsys, ["analyze", path, "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "semistable"
    assert doc["kernel_dim"] == 1
    basis = np.asarray(doc["kernel_basis"])
    assert basis.shape == (2, 1)


def test_structured_matrix_entries_are_written_as_floats(capsys):
    # m.tolist() writes the bytes of the per-entry float conversion
    big = np.finfo(np.float64).max
    m = np.array([[0.0, -0.0, 5e-324], [-5e-324, big, -big]])
    cli._emit([], "structured", {"m": m})
    per_entry = [[cli._json_value(complex(x).real) for x in row] for row in m]
    assert capsys.readouterr().out == json.dumps({"m": per_entry}, indent=2) + "\n"


@pytest.mark.parametrize("argv, message", [
    (["--quad-tol", "0"], "must be positive and finite"),
    (["--quad-tol", "inf"], "must be positive and finite"),
    (["--quad-tol", "nan"], "must be positive and finite"),
    (["--method", "quadrature", "--quad-tol", "inf"], "must be positive and finite"),
    (["--method", "auto"], "invalid choice: 'auto'"),
    (["--rank-tol", "0"], "unrecognized arguments: --rank-tol 0"),
], ids=["quad-tol-0", "quad-tol-inf", "quad-tol-nan", "quadrature-inf",
        "method-auto", "rank-tol"])
def test_bad_common_flags_are_input_errors(tmp_path, capsys, argv, message):
    # an infinite tolerance would make the quadrature certificate's
    # residual slack infinite; there is no auto route and no --rank-tol.
    # heat-bench takes no --method, so those legs run against reduce
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    other = (["reduce", path, "--keep", "1", "--output", str(tmp_path)]
             if "--method" in argv else
             ["heat-bench", "--modes", "3", "--cosines", "1"])
    for command in (["gramian", path, "--output", str(tmp_path)], other):
        try:
            code = main(command + argv)
        except SystemExit as exc:  # argparse rejects unknown flags and values
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "p_inf.mat").exists()
    assert not (tmp_path / "a_hat.mat").exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "SYS", "--method", "quadrature"],
     "unrecognized arguments: --method quadrature"),
    (["analyze", "SYS", "--output", "DIR"], "unrecognized arguments: --output DIR"),
    (["analyze", "SYS", "--quad-tol", "1e-3"], "unrecognized arguments: --quad-tol 1e-3"),
    (["heat-bench", "--method", "lyapunov"], "unrecognized arguments: --method lyapunov"),
    (["heat-bench", "--output", "DIR"], "unrecognized arguments: --output DIR"),
    (["heat-bench", "--quad-tol", "0"], "argument --quad-tol: must be positive and finite"),
], ids=["analyze-method", "analyze-output", "analyze-quad-tol", "heat-bench-method",
        "heat-bench-output", "heat-bench-quad-tol-0"])
def test_each_subcommand_refuses_the_flags_it_does_not_read(tmp_path, capsys, argv, message):
    # a flag that a subcommand would parse and then ignore is an input error
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    outdir = tmp_path / "out"
    argv = [{"SYS": path, "DIR": str(outdir)}.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message.replace("DIR", str(outdir)) in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("error, code", [
    (DimensionError, 2), (ParseError, 2), (OSError, 2), (ValueError, 2),
    (NotSemistableError, 3), (InvalidSelectionError, 4), (PreconditionError, 5),
    (ConditioningError, 5), (InconsistencyError, 5), (QuadratureError, 5),
    (SemigramError, 5),
])
def test_each_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, error, code):
    def failing(path):
        raise error("stub failure")

    monkeypatch.setattr(cli, "read_system", failing)
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    assert run(capsys, ["analyze", path]) == (code, "", "error: stub failure\n")


def test_repeated_runs_byte_identical(tmp_path, capsys):
    argv = ["heat-bench", "--modes", "6", "--cosines", "2"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_csv_report_format(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    code, out, err = run(capsys, ["analyze", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    values = lines[1].split(",")
    assert len(header) == len(values)
    assert "verdict" in header


@pytest.mark.parametrize("name", ['out,1', 'say "hi"'])
def test_csv_quotes_an_output_path(tmp_path, capsys, name):
    # a comma or a quote in the path must not shift or break the row
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    output = str(tmp_path / name)
    code, out, err = run(capsys, ["gramian", path, "--output", output,
                                  "--format", "csv"])
    assert code == 0, err
    header, values = csv.reader(io.StringIO(out))
    assert len(header) == len(values) == 5
    assert dict(zip(header, values))["p_inf_file"] == os.path.join(output, "p_inf.mat")
    assert out.splitlines()[1].endswith('"')


def path_laplacian(n):
    return -(np.diag([1.0] + [2.0] * (n - 2) + [1.0])
             - np.eye(n, k=1) - np.eye(n, k=-1))


def test_kernel_count_that_differs_from_the_zero_eigenvalues(tmp_path, capsys):
    # at c = 1e7 the coupling's second singular value, 2 / c, falls under
    # zero_tol while only one eigenvalue is zero: the two notions of zero
    # must agree, so the record is not semistable
    path = write_system(tmp_path, coupling(1e7))
    code, out, err = run(capsys, ["analyze", path])
    assert code == 3
    report = parse_report(out)
    assert report["verdict"] == "not_semistable"
    assert report["detail"] == (
        "kernel dimension 2 differs from zero-eigenvalue count 1")
    assert report["kernel_dim"] == "2"
    out = str(tmp_path / "o")
    for c, expected in ((1e7, 3), (1e6, 0)):
        path = write_system(tmp_path, coupling(c))
        for argv in (["gramian", path, "--output", out],
                     ["reduce", path, "--keep", "2", "--output", out]):
            code, _, err = run(capsys, argv)
            assert code == expected, err


def test_reduce_reports_nonnormal_pair_controllable(tmp_path, capsys):
    rng = np.random.default_rng(5)
    a = random_nonnormal_semistable(rng, 50, 1, 30.0)
    path = write_system(tmp_path, a, b=rng.normal(size=(50, 2)))
    code, out, err = run(capsys, ["reduce", path, "--keep", "13", "--h2", "none",
                                  "--output", str(tmp_path / "o")])
    assert code == 0, err
    report = parse_report(out)
    assert report["original_controllable"] == "true"
    assert report["reduced_controllable"] == "true"


def test_each_command_analyses_the_generator_once(tmp_path, capsys, monkeypatch):
    n = 6
    laplacian = path_laplacian(n)
    # distinct real eigenvalues 0, -1, ..., -5: semistable, not self-adjoint
    bidiagonal = np.diag(-np.arange(n, dtype=float)) + np.eye(n, k=1)
    generator = laplacian
    counts = dict.fromkeys(
        ("eig", "eigvalsh", "s_inf", "overshoot", "norm", "svd", "schur", "cond",
         "inv", "expm"), 0)

    def full(m, *args, **kwargs):
        return np.shape(m) == (n, n) and np.array_equal(m, generator)

    def counting(key, fn, when=lambda *args, **kwargs: True):
        def wrapped(*args, **kwargs):
            if when(*args, **kwargs):
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    # eigendecompositions, eigenvalues of self-adjoint matrices, spectral
    # norms, SVDs, Schur forms, condition numbers and inverses of full-size
    # matrices; S_inf builds; the decay
    # bound's ?trsyl solves; scipy's matrix exponentials and evaluations of
    # the propagator's own kernel
    def full_size(m, *args, **kwargs):
        return np.shape(m)[0] == n

    def full_opnorm(m, *args, **kwargs):
        return args[:1] == (2,) and full(m)

    monkeypatch.setattr(np.linalg, "eigh", counting("eig", np.linalg.eigh, full_size))
    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig, full_size))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eig", np.linalg.eigvals, full_size))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counting("eigvalsh", np.linalg.eigvalsh, full_size))
    monkeypatch.setattr(np.linalg, "norm", counting("norm", np.linalg.norm, full_opnorm))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd, full))
    monkeypatch.setattr(lapack, "schur", counting("schur", lapack.schur, full))
    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond, full_size))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv, full_size))
    monkeypatch.setattr(semistability, "_limit_factors",
                        counting("s_inf", semistability._limit_factors))
    monkeypatch.setattr(semistability, "_solve_transient_lyapunov",
                        counting("overshoot", semistability._solve_transient_lyapunov))
    monkeypatch.setattr(scipy.linalg, "expm", counting("expm", scipy.linalg.expm))
    kernels = counting_kernel(monkeypatch)

    out = str(tmp_path / "o")
    # argv after the system file; whether M is needed; the kernel
    # evaluations
    commands = (
        (["analyze"], True, 0),
        (["gramian", "--output", out], False, 0),
        (["gramian", "--method", "quadrature", "--output", out], True, 30),
        (["reduce", "--keep", "3", "--h2", "both", "--output", out], True, 30),
    )
    # the self-adjoint generator's eigh gives its spectral norm and kernel
    # too, and its decay bound K is exactly 1; the non-self-adjoint one
    # takes them from one SVD, and its eigenvalues, semisimplicity, S_inf,
    # the split Gramian, the truncation, K's one ?trsyl solve and the
    # controllability test's left eigenvectors from one Schur form, with
    # no eig, cond or inv; the Gramian's certificate takes the eigenvalues
    # of its dense P, and K's certificate those of its Lyapunov solution,
    # with eigvalsh; no command calls scipy's expm; analyze and the
    # split Gramian take no matrix exponential, and each quadrature oracle
    # evaluates its kernel at the 2 x 15 nodes of the two finest
    # start-mesh panels and squares the next finer panel's everywhere else
    for generator, self_adjoint in ((laplacian, True), (bidiagonal, False)):
        path = write_system(tmp_path, generator)
        for argv, needs_m, evaluations in commands:
            counts.update(dict.fromkeys(counts, 0))
            kernels.clear()
            code, _, err = run(capsys, argv[:1] + [path] + argv[1:])
            assert code == 0, err
            assert counts == {
                "eig": int(self_adjoint),
                "eigvalsh": int(argv[0] != "analyze") + int(needs_m and not self_adjoint),
                "s_inf": 1, "norm": 0, "svd": int(not self_adjoint),
                "overshoot": int(needs_m and not self_adjoint),
                "schur": int(not self_adjoint),
                "cond": 0, "inv": 0, "expm": 0,
            }, argv
            # one power stack per quadrature oracle
            assert len(kernels) == int(evaluations > 0), argv
            assert sum(map(len, kernels)) == evaluations, argv

    # heat-bench reads its diagonal surrogate's eigenvalues, norm and
    # kernel off the diagonal, with no eigh; the Gramian selects and
    # divides the stable block of Q, and its certificate reads the
    # eigenvalues of the diagonal P off its diagonal, with no eigvalsh; K
    # is exactly 1, and the H2 oracle integrates a quadratic form in
    # exp(lambda t) with no propagator
    generator = build_heat_surrogate(n)
    counts.update(dict.fromkeys(counts, 0))
    kernels.clear()
    code, _, err = run(capsys, ["heat-bench", "--modes", str(n), "--cosines", "2"])
    assert code == 0, err
    assert counts == dict(dict.fromkeys(counts, 0), eig=0, eigvalsh=0, s_inf=1)
    assert kernels == []


def test_reduce_with_kernel_pair_swap_inverts_no_basis(tmp_path, capsys, monkeypatch):
    # at this seed the Schur form returns the double zero as a +-i eps
    # pair; the truncation reads the real Schur split, whose kernel block
    # is real, and the controllability test takes the kernel cluster's
    # left basis from the pi of its projection pair on the complex Schur
    # form
    n = 50
    rng = np.random.default_rng(4)
    a = random_nonnormal_semistable(rng, n, 2, 30.0)
    assert np.any(semistability.spectral_data(a).eigenvalues[:2].imag)
    path = write_system(tmp_path, a, b=rng.normal(size=(n, 2)),
                        c=rng.normal(size=(3, n)))
    counts = {"inv": 0, "cond": 0}

    def counting(key, fn):
        def wrapped(m, *args, **kwargs):
            if np.shape(m) == (n, n):
                counts[key] += 1
            return fn(m, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
    code, out, err = run(capsys, ["reduce", path, "--keep", "12", "--h2", "both",
                                  "--output", str(tmp_path / "o")])
    assert code == 0, err
    assert counts == {"inv": 0, "cond": 0}
    report = parse_report(out)
    assert float(report["kernel_identity_defect"]) <= 1e-12
    assert float(report["h2_trace_gramian"]) == pytest.approx(
        float(report["h2_trace_quadrature"]), rel=1e-8)


def test_reduce_takes_two_svds_of_pi_and_none_of_sigma(tmp_path, capsys, monkeypatch):
    # mode_truncation takes |pi|_2 and the commutativity defect, and proves
    # the rank of pi from the bi-orthogonality defect; the preservation
    # check reuses the |pi|_2 the reduction carries, and sigma has
    # orthonormal columns. The one n x n SVD is the record's of A
    n, r = 50, 12
    rng = np.random.default_rng(1)
    a = random_nonnormal_semistable(rng, n, 1, 30.0)
    path = write_system(tmp_path, a, b=rng.normal(size=(n, 2)),
                        c=rng.normal(size=(3, n)))
    shapes = collections.Counter()
    svd = np.linalg.svd

    def counting(m, *args, **kwargs):
        shapes[np.shape(m)] += 1
        return svd(m, *args, **kwargs)

    # norm, cond and matrix_rank call svd by its name in numpy's own module
    impl = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(impl, "svd", counting)
    code, _, err = run(capsys, ["reduce", path, "--keep", str(r), "--h2", "gramian",
                                "--output", str(tmp_path / "o")])
    assert code == 0, err
    assert (shapes[(r, n)], shapes[(n, r)], shapes[(n, n)]) == (2, 0, 1)


def test_matrix_files_are_converted_row_by_row(tmp_path, capsys):
    # gramian reads 2,750 entries (A 50x50, B 50x2, C 3x50) and writes
    # 2,500; with all of them real, no Python function in matio runs per
    # entry or per row
    n = 50
    rng = np.random.default_rng(1)
    for name, m in (("a", random_nonnormal_semistable(rng, n, 1, 30.0)),
                    ("b", rng.normal(size=(n, 2))), ("c", rng.normal(size=(3, n)))):
        write_matrix(tmp_path / ("%s.mat" % name), m)
    path = tmp_path / "sys.json"
    path.write_text('{"A": "a.mat", "B": "b.mat", "C": "c.mat"}')
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == matio.__file__:
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code, _, err = run(capsys, ["gramian", str(path), "--output", str(tmp_path / "o")])
    finally:
        sys.setprofile(previous)
    assert code == 0, err
    assert (calls["parse_matrix"], calls["format_matrix"]) == (3, 1)
    assert calls["_parse_token"] == 0
    assert sum(calls.values()) < n, calls


def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    path = write_system(tmp_path, path_laplacian(3))
    assert main(["analyze", path]) == 0
    assert built.count("semigram") == 1
    assert main(["gramian", path, "--output", str(tmp_path)]) == 0
    assert built.count("semigram") == 1


def test_readme_documents_every_flag_and_no_other():
    # the flag list of each subcommand, and every flag the section names
    parser = cli._build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in sub._actions for flag in action.option_strings
                    if flag.startswith("--") and flag != "--help"}
             for name, sub in subparsers.choices.items()}
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    documented = {name: set(re.findall(r"--[a-z][a-z0-9-]*", line))
                  for name, line in re.findall(r"^- `([a-z-]+)`: (.*)$", section, re.M)}
    assert documented == flags
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == set().union(*flags.values())


def test_readme_library_example_prints_what_it_says(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})
    verdict, *norms = capsys.readouterr().out.splitlines()
    assert verdict == "semistable 1.0 1"
    assert len(norms) == 2
    for line in norms:
        assert float(line) == pytest.approx(np.sqrt(1 / 8), abs=1e-9)


# runs CLI commands in a fresh interpreter and prints, per command, its
# exit code and the scipy modules loaded after it
CHILD = """
import contextlib, io, json, sys
from semigram.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    runs.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(runs))
"""


def test_no_command_loads_scipy(tmp_path):
    # a generator that is not self-adjoint takes its Schur routines from
    # the LAPACKE of numpy's own OpenBLAS; semigram.lapack imports
    # scipy.linalg only where those symbols do not resolve
    n = 12
    consensus = write_system(
        tmp_path, consensus_laplacian(np.random.default_rng(1), n, 2),
        b=np.eye(n)[:, :3], c=np.eye(n)[:3], name="consensus.json")
    out = str(tmp_path / "out")
    commands = [
        ["analyze", write_system(tmp_path, path_laplacian(4), name="path.json")],
        ["gramian", consensus, "--method", "quadrature", "--output", out],
        ["reduce", consensus, "--keep", "4", "--h2", "both", "--output", out],
        ["heat-bench", "--modes", "20", "--cosines", "2"],
    ]
    # a generator that is not self-adjoint
    bidiagonal = write_system(tmp_path, np.diag([0.0, -1.0, -2.0]) + np.eye(3, k=1),
                              name="bidiagonal.json")
    commands += [["analyze", bidiagonal],
                 ["reduce", bidiagonal, "--keep", "2", "--h2", "both", "--output", out]]
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    runs = json.loads(child.stdout.splitlines()[-1])
    assert [code for code, _ in runs] == [0] * len(commands), child.stderr
    loaded = [loaded for _, loaded in runs]
    if lapack._lapacke() is None:
        assert "scipy.linalg" in loaded[-2]
        loaded = loaded[:-2]
    assert loaded == [[]] * len(loaded)


@pytest.mark.parametrize("n", (0, 1, 2))
def test_zero_generator_runs_every_route(tmp_path, capsys, n):
    # n = 0 is the matrix file "0 0"; the 1 x 1 and 2 x 2 zero generators
    # are all kernel, so their Gramian and every truncation error vanish too
    write_matrix(str(tmp_path / "a.mat"), np.zeros((n, n)))
    path = str(tmp_path / "sys.json")
    pathlib.Path(path).write_text(json.dumps({"A": "a.mat"}))
    out = str(tmp_path / "o")
    code, text, err = run(capsys, ["analyze", path, "--format", "structured"])
    assert code == 0, err
    assert json.loads(text)["kernel_dim"] == n
    for method in ("lyapunov", "quadrature"):
        code, text, err = run(capsys, ["gramian", path, "--method", method,
                                       "--output", out, "--format", "structured"])
        assert code == 0, err
        assert json.loads(text)["norm_p_inf"] == 0.0
        assert np.array_equal(read_matrix(out + "/p_inf.mat"), np.zeros((n, n)))
    routes = {"gramian": ("gramian",), "quadrature": ("quadrature",),
              "both": ("gramian", "quadrature"), "none": ()}
    for keep in ("0", "all") if n == 0 else ("all",):
        for h2, names in routes.items():
            code, text, err = run(capsys, ["reduce", path, "--keep", keep, "--h2", h2,
                                           "--output", out, "--format", "structured"])
            assert code == 0, err
            report = json.loads(text)
            assert report["order"] == n
            assert [report.get("h2_trace_" + name) for name in names] == [0.0] * len(names)
