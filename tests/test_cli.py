import json

import numpy as np
import pytest

from semigram import (
    ConditioningError,
    cli,
    parse_matrix,
    read_matrix,
    read_system,
    semistability,
)
from semigram.cli import RunConfig, main


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


def test_analyze_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, ["analyze", str(tmp_path / "absent.json")])
    assert code == 2
    assert err.startswith("error:")


def test_analyze_malformed_system(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"A": [[1.0, 2.0]]}')
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2


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
    # lyapunov has no fallback and exits 5; auto falls back to quadrature
    def failing_split(*args, **kwargs):
        raise ConditioningError("split refused")

    monkeypatch.setattr(cli, "solve_semistability_lyapunov", failing_split)
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    code, out, err = run(capsys, ["gramian", path, "--method", "lyapunov",
                                  "--output", str(tmp_path)])
    assert code == 5
    assert "split refused" in err
    code, out, err = run(capsys, ["gramian", path, "--output", str(tmp_path)])
    assert code == 0
    assert parse_report(out)["method"] == "quadrature"


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
    reduced, _ = read_system(str(outdir / "reduced_system.json"))
    assert np.allclose(reduced.a, np.diag([0.0, -1.0]), atol=1e-12)
    assert reduced.b.shape == (2, 3)
    assert reduced.c.shape == (3, 2)
    assert float(report["h2_trace_gramian"]) == pytest.approx(
        1.0 / 4.0, abs=1e-8
    )


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


def test_structured_output_parses(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([0.0, -1.0]))
    code, out, err = run(capsys, ["analyze", path, "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "semistable"
    assert doc["kernel_dim"] == 1
    basis = np.asarray(doc["kernel_basis"])
    assert basis.shape == (2, 1)


def test_runconfig_validation():
    config = RunConfig()
    assert config.quadrature_tol == 1e-9
    assert config.gramian_method == "auto"
    with pytest.raises(ValueError):
        RunConfig(quadrature_tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(gramian_method="magic")
    with pytest.raises(ValueError):
        RunConfig(output_format="yaml")
    with pytest.raises(ValueError):
        RunConfig(rank_tol=-1.0)


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


def test_each_command_analyses_the_generator_once(tmp_path, capsys, monkeypatch):
    n = 6
    a = -(np.diag([1.0] + [2.0] * (n - 2) + [1.0])
          - np.eye(n, k=1) - np.eye(n, k=-1))
    path = write_system(tmp_path, a)
    counts = {"eig": 0, "s_inf": 0, "overshoot": 0}

    def counting(key, fn, full_only=False):
        def wrapped(*args, **kwargs):
            if not full_only or np.shape(args[0])[0] == n:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    # eigendecompositions of the full generator, S_inf builds, overshoot
    # samplings
    monkeypatch.setattr(np.linalg, "eigh", counting("eig", np.linalg.eigh, True))
    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig, True))
    monkeypatch.setattr(semistability, "_projector_matrix",
                        counting("s_inf", semistability._projector_matrix))
    monkeypatch.setattr(semistability, "_estimate_overshoot",
                        counting("overshoot", semistability._estimate_overshoot))

    code, out, err = run(capsys, ["reduce", path, "--keep", "3", "--h2", "both",
                                  "--output", str(tmp_path / "o")])
    assert code == 0, err
    assert counts == {"eig": 1, "s_inf": 1, "overshoot": 1}

    counts.update(eig=0, s_inf=0, overshoot=0)
    code, out, err = run(capsys, ["analyze", path])
    assert code == 0, err
    assert counts == {"eig": 1, "s_inf": 1, "overshoot": 1}
