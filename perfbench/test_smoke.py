"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench

It checks that every metric BENCHMARK.json names is emitted with its unit,
that each reference check rejects a deliberately perturbed result, and that
a probe command tolerates only its listed known defects.
"""

import functools
import json
import os

import numpy as np
import pytest

import checks
import metrics
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run.workloads, "build",
                        functools.partial(workloads.build, tiny=True))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
    assert set(result["metrics"]) <= printed and "failed_frac" in printed
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    if workload != "consensus":  # the workloads with known defects probe them
        assert "probe_failed_frac" in printed


def _report_for(command, tmp_path):
    """A report that agrees with the reference, as the CLI would print it."""
    e = command.expect
    if command.subcommand == "heat-bench":
        return {"trace_gramian": e["trace"], "trace_quadrature": e["trace"]}
    report = {"verdict": "semistable", "kernel_dim": e["kernel_dim"]}
    if command.subcommand == "gramian":
        path = tmp_path / "p_inf.mat"
        path.write_text(workloads._format_matrix(e["gramian"]), encoding="ascii")
        report = {"method": "lyapunov_split", "p_inf_file": str(path)}
    elif command.subcommand == "reduce":
        report = {"order": e["order"], "original_verdict": "semistable",
                  "reduced_verdict": "semistable", "semistability_preserved": True,
                  "h2_trace_gramian": e["h2_trace"]}
        if "h2_trace_quadrature" in e:
            report["h2_trace_quadrature"] = e["h2_trace_quadrature"]
        for flag in ("original_controllable", "reduced_controllable",
                     "controllability_preserved"):
            if flag in e:
                report[flag] = e[flag]
    return report


def _perturbations(command, report, tmp_path):
    """(expected reason, perturbed report) pairs for one command."""
    sub = command.subcommand
    out = []
    if sub == "heat-bench":
        for key in ("trace_gramian", "trace_quadrature"):
            out.append(("heat_" + key, dict(report, **{key: report[key] + 1e-3})))
    elif sub == "analyze":
        out.append(("kernel_dim", dict(report, kernel_dim=report["kernel_dim"] + 1)))
        out.append(("verdict", dict(report, verdict="not_semistable")))
    elif sub == "gramian":
        p = workloads.parse_matrix_file(report["p_inf_file"])
        bad = tmp_path / "p_inf_bad.mat"
        bad.write_text(workloads._format_matrix(p * (1 + 1e-3)), encoding="ascii")
        out.append(("gramian_value", dict(report, p_inf_file=str(bad))))
    elif sub == "reduce":
        for key in ("h2_trace_gramian", "h2_trace_quadrature"):
            if key in report:
                out.append((key, dict(report, **{key: report[key] + 1e-3})))
        out.append(("order", dict(report, order=report["order"] + 1)))
        if "original_controllable" in report:
            flipped = not report["original_controllable"]
            out.append(("controllability_flag",
                        dict(report, original_controllable=flipped)))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_perturbed_results(workload, tmp_path):
    commands, probe = workloads.build(workload, 5, str(tmp_path / "inputs"), tiny=True)
    assert commands
    for command in commands + probe:
        report = _report_for(command, tmp_path)
        assert checks.check(command, 0, json.dumps(report)) == []
        assert checks.check(command, 2, "") == ["exit_2"]
        perturbed = _perturbations(command, report, tmp_path)
        assert perturbed
        for reason, bad in perturbed:
            assert reason in checks.check(command, 0, json.dumps(bad)), reason


def test_only_listed_defects_are_known(tmp_path):
    commands, probe = workloads.build("dense", 5, str(tmp_path / "inputs"), tiny=True)
    reduce_cmd = probe[0]
    crash = "error: sigma expected to be real but has imaginary residue 1e-01\n"
    assert checks.known_defects(reduce_cmd, ["exit_2"], crash) == (["exit_2"], [])
    assert checks.known_defects(reduce_cmd, ["exit_2"], "error: other\n") == (
        [], ["exit_2"])
    assert checks.known_defects(
        reduce_cmd, ["h2_trace_gramian", "controllability_flag"], "") == (
        ["controllability_flag"], ["h2_trace_gramian"])
    # timed commands have no known defects
    assert checks.known_defects(commands[0], ["verdict"], "") == ([], ["verdict"])


def test_dense_reference_matches_its_generator():
    rng = np.random.default_rng(0)
    a, b, c, lam, vecs, left = workloads.dense_system(rng, 12, 2)
    assert np.allclose(a @ vecs, vecs * lam)
    assert np.allclose(left @ vecs, np.eye(12))
    p = workloads.modal_gramian(lam, vecs, left, b, 2)
    s_inf = (vecs[:, :2] @ left[:2]).real
    q = (np.eye(12) - s_inf) @ b @ b.T @ (np.eye(12) - s_inf).T
    assert np.allclose(a @ p + p @ a.T, -q, atol=1e-10)
    assert np.allclose(s_inf @ p, 0, atol=1e-10)
