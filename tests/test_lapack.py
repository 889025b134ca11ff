"""semigram.lapack against scipy.linalg, its errors, and its scipy fallback."""

import json
import re

import numpy as np
import pytest
import scipy.linalg

from semigram import ConditioningError, DimensionError, lapack, read_matrix
from semigram.cli import main

from conftest import random_nonnormal_semistable

SIZES = (1, 2, 7, 60)


def relative_gap(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


def stable_generator(rng, n, complex_valued):
    """Q U Q* with Q unitary and U upper triangular with eigenvalues of
    real part in [-3, -1]; a real one has the pair -2 +- i in a 2x2 block."""
    shape = (n, n)
    if complex_valued:
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        diagonal = -1.0 - 2.0 * rng.random(n) + 1j * rng.normal(size=n)
    else:
        g = rng.normal(size=shape)
        diagonal = -1.0 - 2.0 * rng.random(n)
    q = np.linalg.qr(g)[0]
    u = np.triu(g, 1) / np.sqrt(n) + np.diag(diagonal)
    if not complex_valued and n >= 2:
        u[:2, :2] = [[-2.0, 1.0], [-1.0, -2.0]]
    return q @ u @ q.conj().T


@pytest.mark.parametrize("complex_valued", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("n", SIZES)
def test_schur_and_trsen_match_scipy(n, complex_valued):
    a = stable_generator(np.random.default_rng(n), n, complex_valued)
    t, z = lapack.schur(a)
    expected = scipy.linalg.schur(a, output="complex" if complex_valued else "real")
    assert t.dtype == a.dtype and z.dtype == a.dtype
    assert relative_gap(t, expected[0]) <= 1e-13
    assert relative_gap(z, expected[1]) <= 1e-13
    blocks = np.flatnonzero(np.diagonal(t, -1))
    assert len(blocks) == int(n >= 2 and not complex_valued)

    # select the last position alone, or only the first row of the real
    # form's 2x2 block, which then moves whole
    select = np.zeros(n, dtype=bool)
    select[blocks[0] if len(blocks) else n - 1] = True
    t_r, z_r, m = lapack.trsen(select, t, z)
    out = scipy.linalg.get_lapack_funcs("trsen", (t,))(select, t, z, job="N")
    assert m == out[-4] == 1 + len(blocks)
    assert relative_gap(t_r, out[0]) <= 1e-13
    assert relative_gap(z_r, out[1]) <= 1e-13
    assert np.allclose(z_r @ t_r @ z_r.conj().T, a, atol=1e-12)


@pytest.mark.parametrize("flags", ({}, {"isgn": -1}, {"trana": "C"}, {"tranb": "C"}))
@pytest.mark.parametrize("complex_valued", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("n", SIZES)
def test_trsyl_matches_scipy(n, complex_valued, flags):
    rng = np.random.default_rng(n)
    a = lapack.schur(stable_generator(rng, n, complex_valued))[0]
    b = flags.get("isgn", 1) * lapack.schur(stable_generator(rng, n + 1, complex_valued))[0]
    c = rng.normal(size=(n, n + 1))
    x = lapack.trsyl(a, b, c, "solve", **flags)
    solve = scipy.linalg.get_lapack_funcs("trsyl", (a, b, c))
    expected, scale, info = solve(a, b, c, **flags)
    assert info == 0
    assert x.dtype == a.dtype
    assert relative_gap(x, expected / scale) <= 1e-13


def quasi_triangular_generator(rng, n, pairs):
    """Q U Q* for a real orthogonal Q and a real quasi-triangular U whose
    first ``pairs`` 2x2 diagonal blocks hold complex conjugate pairs of
    distinct eigenvalues and whose other diagonal entries are real."""
    g = rng.normal(size=(n, n))
    u = np.triu(g, 1) / np.sqrt(n) + np.diag(-1.0 - 2.0 * rng.random(n))
    for j in range(pairs):
        u[2 * j, 2 * j + 1] = 1.0 + j
        u[2 * j + 1, 2 * j] = -(1.0 + j) * (1.0 + rng.random())
        u[2 * j + 1, 2 * j + 1] = u[2 * j, 2 * j]
    q = np.linalg.qr(g)[0]
    return q @ u @ q.T


@pytest.mark.parametrize("n", SIZES)
def test_rsf2csf_matches_scipy(n):
    # real Schur forms with only 1x1 blocks, only 2x2 blocks (even n),
    # and both (n >= 3)
    layouts = {0, n // 2 if n % 2 == 0 else 0, n // 3}
    for pairs in sorted(layouts):
        a = quasi_triangular_generator(np.random.default_rng(n + pairs), n, pairs)
        t, z = lapack.schur(a)
        assert np.count_nonzero(np.diagonal(t, -1)) == pairs
        t_c, z_c = lapack.rsf2csf(t, z)
        expected = scipy.linalg.rsf2csf(t, z)
        assert t_c.dtype == z_c.dtype == np.complex128
        assert relative_gap(t_c, expected[0]) <= 1e-13
        assert relative_gap(z_c, expected[1]) <= 1e-13
        assert not np.tril(t_c, -1).any()
        eps = np.finfo(float).eps
        assert np.abs(z_c.conj().T @ z_c - np.eye(n)).max() <= 10 * n * eps
        assert np.abs(z_c @ t_c @ z_c.conj().T - a).max() <= (
            10 * n * eps * np.abs(a).max())
        lam, expected_lam = np.diagonal(t_c), np.linalg.eigvals(t)
        assert np.abs(np.sort_complex(lam) - np.sort_complex(expected_lam)).max() <= (
            1e-13 * np.abs(lam).max())


@pytest.fixture(params=("numpy", "scipy"))
def binding(request, monkeypatch):
    """Run a test on numpy's LAPACKE and again on the scipy fallback."""
    if request.param == "scipy":
        monkeypatch.setattr(lapack, "_lapacke", lambda: None)
    return request.param


@pytest.mark.parametrize("complex_valued", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("n", SIZES)
def test_trevc_rows_are_the_left_eigenvectors(binding, n, complex_valued):
    # a real form goes through rsf2csf; each row w of either binding is a
    # left eigenvector to backward error 8 n eps |A| and spans the line of
    # scipy's, whose eigenvalues are matched by distance
    a = stable_generator(np.random.default_rng(n), n, complex_valued)
    lam, w = lapack.trevc(*lapack.schur(a))
    assert lam.shape == (n,) and w.shape == (n, n)
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    norm_a = np.linalg.norm(a, 2)
    assert np.linalg.norm(w @ a - lam[:, None] * w, axis=1).max() <= (
        8 * n * np.finfo(float).eps * norm_a)
    expected_lam, vl = scipy.linalg.eig(a, left=True, right=False)
    expected = vl[:, np.abs(lam[:, None] - expected_lam).argmin(axis=1)].conj().T
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    cosines = np.abs(np.sum(w * expected.conj(), axis=1))
    assert np.abs(cosines - 1.0).max() <= 1e-12


def test_trsyl_on_overlapping_spectra_raises(binding):
    t = np.array([[-1.0, 2.0], [0.0, -3.0]])
    message = "failed to decouple the leading 2 modes (?trsyl info 1)"
    with pytest.raises(ConditioningError, match=re.escape(message)):
        lapack.trsyl(t, t, np.ones((2, 2)), "decouple the leading 2 modes", isgn=-1)


@pytest.mark.parametrize("dtype", (np.float64, np.complex128), ids=("real", "complex"))
@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_trsyl_with_an_empty_block_returns_the_empty_x(binding, rows, cols, dtype):
    # LAPACK rejects an empty A or B, so the wrapper answers for it in
    # either binding, still checking every operand's shape
    a = np.triu(np.ones((rows, rows), dtype)) - 3.0 * np.eye(rows)
    b = np.triu(np.ones((cols, cols), dtype))
    x = lapack.trsyl(a, b, np.ones((rows, cols), dtype), "solve", isgn=-1)
    assert x.shape == (rows, cols) and x.dtype == dtype
    assert not np.any(x)
    # a C that is empty too, but does not match A and B
    wrong = (rows, cols + 1) if rows == 0 else (rows + 1, cols)
    with pytest.raises(DimensionError):
        lapack.trsyl(a, b, np.ones(wrong, dtype), "solve")


def test_gees_failure_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # ?gees reports info > 0 when the QR iteration fails to converge,
    # which no small input provokes; a stand-in routine reports it
    monkeypatch.setattr(lapack, "_lapacke", lambda: {"dgees": lambda *args: 3})
    with pytest.raises(ConditioningError, match=re.escape("(?gees info 3)")):
        lapack.schur(np.eye(2))
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": [[0.0, 1.0], [0.0, -1.0]]}))
    assert main(["analyze", str(path)]) == 5
    assert "?gees info 3" in capsys.readouterr().err


def test_an_invalid_argument_is_a_programming_error(monkeypatch):
    monkeypatch.setattr(lapack, "_lapacke", lambda: {"dgees": lambda *args: -5})
    with pytest.raises(RuntimeError, match="LAPACKE_dgees returned info -5"):
        lapack.schur(np.eye(2))


def test_operands_of_the_wrong_shape_are_refused(binding):
    # LAPACK would read past them by the sizes passed beside them; the
    # shapes are checked before a binding is chosen, so both refuse alike
    t = np.triu(np.ones((3, 3)))
    with pytest.raises(DimensionError):
        lapack.trsen(np.ones(2, dtype=bool), t, t)
    with pytest.raises(DimensionError):
        lapack.trsen(np.ones(3, dtype=bool), t, t[:2, :2])
    with pytest.raises(DimensionError):
        lapack.trsyl(t, t[:2, :2], np.ones((3, 3)), "solve")
    with pytest.raises(DimensionError):
        lapack.schur(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        lapack.trevc(t, t[:2, :2])


def test_numpy_openblas_takes_the_numpy_binding():
    # a numpy that bundles scipy-openblas must resolve its LAPACKE symbols;
    # if an upgrade renamed them, every dense command would silently pay
    # for importing scipy.linalg again
    config = getattr(np.__config__, "CONFIG", {})
    name = config.get("Build Dependencies", {}).get("lapack", {}).get("name")
    assert lapack._lapacke() is not None or name != "scipy-openblas"


def test_scipy_fallback_gives_the_same_reports(tmp_path, monkeypatch, capsys):
    # where numpy's LAPACKE does not resolve, scipy.linalg runs the same
    # LAPACK routines
    n = 20
    rng = np.random.default_rng(3)
    a = random_nonnormal_semistable(rng, n, 2, 10.0)
    path = str(tmp_path / "sys.json")
    with open(path, "w") as f:
        json.dump({"A": a.tolist(), "B": rng.normal(size=(n, 2)).tolist(),
                   "C": rng.normal(size=(3, n)).tolist()}, f)
    out = str(tmp_path / "out")
    commands = (["analyze", path],
                ["reduce", path, "--keep", "5", "--h2", "both", "--output", out])

    def run_all():
        runs = []
        for argv in commands:
            code = main(argv + ["--format", "structured"])
            runs.append((code, json.loads(capsys.readouterr().out)))
        return runs, [read_matrix("%s/%s.mat" % (out, name)) for name in ("a_hat", "b_hat")]

    runs, matrices = run_all()
    monkeypatch.setattr(lapack, "_lapacke", lambda: None)
    fallback_runs, fallback_matrices = run_all()
    for (code, report), (fallback_code, fallback) in zip(runs, fallback_runs):
        assert code == fallback_code == 0
        assert report.keys() == fallback.keys()
        for key, value in report.items():
            if isinstance(value, float):
                # the certificate defects are rounding, 1e-14 or less
                assert value == pytest.approx(fallback[key], rel=1e-12, abs=1e-12), key
            else:
                assert value == fallback[key], key  # verdicts and the kernel
    assert report["original_verdict"] == "semistable"
    for matrix, fallback in zip(matrices, fallback_matrices):
        assert relative_gap(matrix, fallback) <= 1e-12
