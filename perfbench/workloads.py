"""Workload generators and the references the benchmark checks against.

Everything here uses numpy only and never imports ``semigram``: the
references must stay independent of the program under test. A workload is
a list of timed commands, each a ``semigram`` argv plus the check its
output must pass, and a list of probe commands: the workload's cases on
which the program has known defects, run untimed so the defects stay
visible without their early exits moving the timings. The same seed gives
the same files, commands and references.
"""

import json
import os

import numpy as np

# heat: surrogate size and kept cosine counts of the timed commands. An
# M = 400 command takes 7.8 s against 3.1 s at M = 300, too long to repeat
# within a run; N = 40 hits a known defect and is probed instead
HEAT_MODES = (300,)
HEAT_COSINES = (2, 10)
HEAT_PROBE = ((300, 40),)
# dense and consensus: every (size, kernel dimension) pair once per pass
DENSE_SIZES = (50, 100, 200)
DENSE_KERNELS = (1, 2, 3)
CONSENSUS_SIZES = (30, 60, 90)
CONSENSUS_COMPONENTS = (1, 2, 3)
DENSE_COND = 30.0
DENSE_INPUTS = 2
DENSE_OUTPUTS = 3

WORKLOADS = ("heat", "dense", "consensus")
# workloads whose command times are divided by the calibration kernel's
# (calibrate.py). Interleaved with the kernel on a shared 2-core Xeon, a
# dense n = 200 command's time spread (IQR/median) fell from 0.38 to 0.11;
# a heat-bench M = 300 command's rose from 0.09 to 0.18: its wide matrix
# products do not slow down in the phases that slow the kernel, so heat
# reports raw times
CALIBRATED = ("dense", "consensus")


# known defects of the program, as (check reason, text its standard error
# must contain, or None); each is a probe command's only tolerated failure
HEAT_QUADRATURE_MISS = ("heat_trace_quadrature", None)
SIGMA_NOT_REAL = ("exit_2", "sigma expected to be real")
KALMAN_FLAGS = ("controllability_flag", None)


class Command:
    """One CLI invocation with what its result must be.

    ``subcommand`` names the CLI subcommand, ``label`` the system it runs
    on, ``expect`` holds the reference values the check compares against,
    ``known`` the known defects this command may show (probe commands).
    """

    def __init__(self, argv, subcommand, label, expect, known=()):
        self.argv = list(argv)
        self.subcommand = subcommand
        self.label = label
        self.expect = expect
        self.known = tuple(known)


def _canonical_order(lam):
    """Slowest-first mode order: descending real part, then |imag|, imag."""
    lam = np.asarray(lam)
    return np.lexsort((lam.imag, np.abs(lam.imag), -np.round(lam.real, 12)))


def _format_matrix(a):
    a = np.asarray(a, dtype=np.float64)
    lines = ["%d %d" % a.shape]
    lines += [" ".join("%.17g" % x for x in row) for row in a]
    return "\n".join(lines) + "\n"


def parse_matrix_file(path):
    """Read the CLI's text matrix format (real entries only)."""
    with open(path, encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    rows, cols = (int(t) for t in lines[0].split())
    data = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    return data.reshape(rows, cols)


def _write_system(directory, label, a, b, c):
    """Write A, B, C as matrix files plus the system JSON naming them."""
    paths = {}
    for key, m in (("A", a), ("B", b), ("C", c)):
        name = "%s_%s.mat" % (label, key.lower())
        with open(os.path.join(directory, name), "w", encoding="ascii") as fh:
            fh.write(_format_matrix(m))
        paths[key] = name
    path = os.path.join(directory, "%s.json" % label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(paths, fh)
    return path


def modal_gramian(lam, v, w, b, kernel_dim):
    """P = sum over stable i, j of v_i (w_i B B^H w_j^H) v_j^H / -(l_i + conj l_j).

    ``v`` holds right eigenvectors as columns and ``w`` the matching left
    eigenvectors as rows (w v = I), in canonical order, so the first
    ``kernel_dim`` modes are the kernel, which contributes nothing.
    """
    lam_s, v_s, wb = lam[kernel_dim:], v[:, kernel_dim:], w[kernel_dim:] @ b
    core = (wb @ wb.conj().T) / -(lam_s[:, None] + lam_s[None, :].conj())
    return (v_s @ core @ v_s.conj().T).real


def modal_h2_trace(lam, v, w, b, c, dropped):
    """sum over dropped i, j of (v_j^H C^H C v_i)(w_i B B^H w_j^H) / -(l_i + conj l_j)."""
    lam_d, cv, wb = lam[dropped], c @ v[:, dropped], w[dropped] @ b
    obs = cv.conj().T @ cv  # obs[j, i] = v_j^H C^H C v_i
    ctr = wb @ wb.conj().T  # ctr[i, j] = w_i B B^H w_j^H
    denom = -(lam_d[:, None] + lam_d[None, :].conj())
    return float(np.sum(obs.T * ctr / denom).real)


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _stratified(rng, count, lo, hi):
    """``count`` values in [lo, hi], one uniform draw per equal-width bin.

    Keeps decay rates apart, so no two modes of a dense system form a
    cluster that a truncation could split.
    """
    edges = np.linspace(lo, hi, count + 1)
    return edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(0.1, 0.9, count)


def dense_system(rng, n, k):
    """Real non-normal semistable A = V L V^-1 with its exact eigendata.

    L holds k zeros, real decay rates in [0.5, 3] and 2x2 rotation blocks
    [[-a, b], [-b, -a]]; V has condition number ``DENSE_COND``. Returns
    (A, B, C, lam, vecs, left) with right eigenvectors ``vecs`` as columns
    and left eigenvectors ``left`` as rows, in canonical mode order.
    """
    pairs = (n - k) // 4
    singles = n - k - 2 * pairs
    rates = rng.permutation(_stratified(rng, singles + pairs, 0.5, 3.0))
    real_rates, pair_rates = rates[:singles], rates[singles:]
    freqs = rng.uniform(0.5, 3.0, pairs)

    l_mat = np.zeros((n, n))
    e = np.zeros((n, n), dtype=np.complex128)  # eigenvectors of L
    lam = np.zeros(n, dtype=np.complex128)
    for i in range(k):
        e[i, i] = 1.0
    pos = k
    for r in real_rates:
        l_mat[pos, pos] = -r
        lam[pos] = -r
        e[pos, pos] = 1.0
        pos += 1
    for a, f in zip(pair_rates, freqs):
        l_mat[pos : pos + 2, pos : pos + 2] = [[-a, f], [-f, -a]]
        lam[pos], lam[pos + 1] = -a + 1j * f, -a - 1j * f
        e[pos : pos + 2, pos] = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        e[pos : pos + 2, pos + 1] = np.array([1.0, -1.0j]) / np.sqrt(2.0)
        pos += 2

    sv = np.geomspace(1.0, DENSE_COND, n)
    v_mat = (_random_orthogonal(rng, n) * sv) @ _random_orthogonal(rng, n).T
    v_inv = np.linalg.inv(v_mat)
    a_mat = v_mat @ l_mat @ v_inv
    b_mat = rng.standard_normal((n, DENSE_INPUTS))
    c_mat = rng.standard_normal((DENSE_OUTPUTS, n))

    order = _canonical_order(lam)
    vecs = (v_mat @ e)[:, order]
    left = (np.linalg.inv(e) @ v_inv)[order]
    return a_mat, b_mat, c_mat, lam[order], vecs, left


def _dense_keep(rng, lam, k):
    """Kernel plus roughly a quarter of the rest, never splitting a pair."""
    n = lam.size
    r = k + int(rng.integers(n // 8, n // 3))
    if abs(lam[r - 1].imag) > 0 and r < n and np.isclose(lam[r], lam[r - 1].conj()):
        r += 1
    return r


def consensus_system(rng, n, c):
    """Negated weighted Laplacian of a random graph with c components.

    Each component is a random spanning tree plus random chords, with edge
    weights uniform in [0.5, 2]. B takes 3 leader columns of I and C 3
    sensor rows of I.
    """
    nodes = rng.permutation(n)
    groups = np.array_split(nodes, c)
    w = np.zeros((n, n))
    for g in groups:
        for i in range(1, len(g)):
            j = g[int(rng.integers(0, i))]
            w[g[i], j] = w[j, g[i]] = rng.uniform(0.5, 2.0)
        chords = len(g)
        for _ in range(chords):
            i, j = rng.choice(g, 2, replace=False)
            w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    a_mat = w - np.diag(w.sum(axis=1))
    eye = np.eye(n)
    b_mat = eye[:, rng.choice(n, 3, replace=False)]
    c_mat = eye[rng.choice(n, 3, replace=False), :]
    return a_mat, b_mat, c_mat


def heat_trace(n_kept, modes):
    """sum_{n=N+1}^{M-1} 1/(2 pi^2 n^2): the surrogate's exact squared H2 error."""
    dropped = np.arange(n_kept + 1, modes, dtype=np.float64)
    return float(np.sum(1.0 / (2.0 * np.pi**2 * dropped**2)))


def _heat_command(m, n_kept, known=()):
    argv = ["heat-bench", "--modes", str(m), "--cosines", str(n_kept),
            "--format", "structured"]
    expect = {"exit": 0, "trace": heat_trace(n_kept, m)}
    return Command(argv, "heat-bench", "M%d-N%d" % (m, n_kept), expect, known)


def _heat_commands(rng, modes=HEAT_MODES, cosines=HEAT_COSINES, probe=HEAT_PROBE):
    """Every (M, N) pair; the seed only shuffles the order.

    heat-bench reads no files, and its cost depends strongly on N, so a
    seed-chosen subset of pairs would change the work from seed to seed.
    Returns the timed commands and the probe: at N = 40 the quadrature
    trace comes back as about 1e-83 instead of about 1e-3.
    """
    commands = [_heat_command(m, n) for m in modes for n in cosines]
    commands = [commands[i] for i in rng.permutation(len(commands))]
    return commands, [_heat_command(m, n, [HEAT_QUADRATURE_MISS]) for m, n in probe]


def _dense_commands(rng, directory, sizes=DENSE_SIZES, kernels=DENSE_KERNELS):
    """Timed ``analyze`` and ``gramian`` on each system; ``reduce`` is probed.

    ``reduce`` crashes with exit 2 when the repeated zero eigenvalue comes
    back from ``eig`` as a +-i eps pair, and reports the system
    uncontrollable at every n >= 50; both are known defects.
    """
    commands, probe = [], []
    for n in sizes:
        for k in kernels:
            label = "dense-n%d-k%d" % (n, k)
            a, b, c, lam, vecs, left = dense_system(rng, n, k)
            path = _write_system(directory, label, a, b, c)
            out = os.path.join(directory, label + "-out")
            keep = _dense_keep(rng, lam, k)
            dropped = np.arange(keep, n)
            controllable = k <= DENSE_INPUTS
            common = {"exit": 0, "kernel_dim": k}
            commands += [
                Command(["analyze", path, "--format", "structured"],
                        "analyze", label, dict(common)),
                Command(["gramian", path, "--output", out, "--format", "structured"],
                        "gramian", label,
                        dict(common, gramian=modal_gramian(lam, vecs, left, b, k))),
            ]
            probe.append(
                Command(["reduce", path, "--keep", str(keep), "--h2", "gramian",
                         "--output", out, "--format", "structured"],
                        "reduce", label,
                        dict(common, order=keep,
                             h2_trace=modal_h2_trace(lam, vecs, left, b, c, dropped),
                             original_controllable=controllable,
                             reduced_controllable=controllable,
                             controllability_preserved=True),
                        [SIGMA_NOT_REAL, KALMAN_FLAGS]))
    return commands, probe


def _consensus_commands(rng, directory, sizes=CONSENSUS_SIZES,
                        components=CONSENSUS_COMPONENTS):
    commands = []
    for n in sizes:
        for c_count in components:
            label = "consensus-n%d-c%d" % (n, c_count)
            a, b, c = consensus_system(rng, n, c_count)
            path = _write_system(directory, label, a, b, c)
            out = os.path.join(directory, label + "-out")
            lam, u = np.linalg.eigh(a)
            order = np.argsort(-lam, kind="stable")
            lam, u = lam[order].astype(np.complex128), u[:, order]
            keep = c_count + int(rng.integers(n // 8, n // 3))
            dropped = np.arange(keep, n)
            trace = modal_h2_trace(lam, u, u.T, b, c, dropped)
            common = {"exit": 0, "kernel_dim": c_count}
            commands += [
                Command(["analyze", path, "--format", "structured"],
                        "analyze", label, dict(common)),
                Command(["gramian", path, "--method", "quadrature", "--output", out,
                         "--format", "structured"],
                        "gramian", label,
                        dict(common, gramian=modal_gramian(lam, u, u.T, b, c_count))),
                Command(["reduce", path, "--keep", str(keep), "--h2", "both",
                         "--output", out, "--format", "structured"],
                        "reduce", label,
                        dict(common, order=keep, h2_trace=trace,
                             h2_trace_quadrature=trace)),
            ]
    return commands, []


def build(workload, seed, directory, tiny=False):
    """Generate the workload: input files in ``directory``, timed and probe commands.

    Returns ``(commands, probe)``; the same seed gives the same of both.
    ``tiny`` shrinks every size for the benchmark's own smoke test.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(directory, exist_ok=True)
    if workload == "heat":
        if tiny:
            return _heat_commands(rng, modes=(30,), cosines=(3,), probe=((30, 5),))
        return _heat_commands(rng)
    if workload == "dense":
        if tiny:
            return _dense_commands(rng, directory, sizes=(8,), kernels=(1, 3))
        return _dense_commands(rng, directory)
    if workload == "consensus":
        if tiny:
            return _consensus_commands(rng, directory, sizes=(9,), components=(2,))
        return _consensus_commands(rng, directory)
    raise ValueError("unknown workload %r" % workload)


def sizes(workload):
    """The workload's fixed sizes, recorded with every result."""
    if workload == "heat":
        return {"modes": HEAT_MODES, "cosines": HEAT_COSINES, "probe": HEAT_PROBE}
    if workload == "dense":
        return {"n": DENSE_SIZES, "kernel_dim": DENSE_KERNELS, "cond_v": DENSE_COND,
                "inputs": DENSE_INPUTS, "outputs": DENSE_OUTPUTS}
    return {"n": CONSENSUS_SIZES, "components": CONSENSUS_COMPONENTS,
            "leaders": 3, "sensors": 3}


def warmup_command(workload, directory):
    """A small command of the workload's kind, run once before timing."""
    rng = np.random.default_rng([0, WORKLOADS.index(workload), 1])
    if workload == "heat":
        return ["heat-bench", "--modes", "20", "--cosines", "2", "--format", "structured"]
    os.makedirs(directory, exist_ok=True)
    if workload == "dense":
        a, b, c, lam, _, _ = dense_system(rng, 8, 1)
        keep, h2 = _dense_keep(rng, lam, 1), "gramian"
    else:
        a, b, c = consensus_system(rng, 8, 1)
        keep, h2 = 4, "both"
    path = _write_system(directory, "warmup", a, b, c)
    return ["reduce", path, "--keep", str(keep), "--h2", h2,
            "--output", os.path.join(directory, "warmup-out"), "--format", "structured"]
