"""Check each command's result against the reference the benchmark computed.

``check`` returns the list of reasons a result is wrong; an empty list means
the command exited as expected and every checked value agrees with the
reference. Reasons are short names, so failures can be counted by reason.
``known_defects`` tells a probe command's known defects from new failures.
"""

import json

import numpy as np

from workloads import parse_matrix_file

# heat compares absolute traces; the others compare traces and Gramians
# relative to the reference, with a small absolute floor
HEAT_TRACE_ATOL = 1e-6
TRACE_RTOL = 1e-6
TRACE_ATOL = 1e-8
GRAMIAN_RTOL = 1e-6
GRAMIAN_ATOL = 1e-9


def _trace_ok(value, ref):
    return abs(value - ref) <= TRACE_RTOL * abs(ref) + TRACE_ATOL


def check(command, exit_code, stdout):
    """Reasons why this result disagrees with the command's reference."""
    expect = command.expect
    if exit_code != expect["exit"]:
        return ["exit_%s" % exit_code]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["unparsable_output"]
    try:
        return _check_report(command.subcommand, expect, report)
    except (KeyError, TypeError, ValueError, OSError):
        return ["missing_field"]


def _check_report(sub, expect, report):
    reasons = []
    if sub == "heat-bench":
        for key in ("trace_gramian", "trace_quadrature"):
            if not abs(float(report[key]) - expect["trace"]) <= HEAT_TRACE_ATOL:
                reasons.append("heat_" + key)
        return reasons

    if sub == "analyze":
        if report["verdict"] != "semistable":
            reasons.append("verdict")
        if report["kernel_dim"] != expect["kernel_dim"]:
            reasons.append("kernel_dim")
    elif sub == "gramian":
        p = parse_matrix_file(report["p_inf_file"])
        ref = expect["gramian"]
        err = np.linalg.norm(p - ref) if p.shape == ref.shape else np.inf
        if not err <= GRAMIAN_RTOL * np.linalg.norm(ref) + GRAMIAN_ATOL * ref.shape[0]:
            reasons.append("gramian_value")
    elif sub == "reduce":
        if report["order"] != expect["order"]:
            reasons.append("order")
        verdicts = (report["original_verdict"], report["reduced_verdict"])
        if verdicts != ("semistable", "semistable") or not report["semistability_preserved"]:
            reasons.append("verdict")
        if not _trace_ok(float(report["h2_trace_gramian"]), expect["h2_trace"]):
            reasons.append("h2_trace_gramian")
        if "h2_trace_quadrature" in expect and not _trace_ok(
                float(report["h2_trace_quadrature"]), expect["h2_trace_quadrature"]):
            reasons.append("h2_trace_quadrature")
        flags = ("original_controllable", "reduced_controllable",
                 "controllability_preserved")
        if any(f in expect and report[f] != expect[f] for f in flags):
            reasons.append("controllability_flag")
    return reasons


def known_defects(command, reasons, stderr):
    """Split ``reasons`` into the command's known defects and the rest.

    A reason is a known defect only if the command lists it and, where the
    defect names a message, the standard error contains that message.
    """
    known = [r for r in reasons
             if any(r == reason and (text is None or text in stderr)
                    for reason, text in command.known)]
    return known, [r for r in reasons if r not in known]


def gramian_method(command, stdout):
    """The route an ``auto`` gramian command reported, else None."""
    if command.subcommand != "gramian" or "--method" in command.argv:
        return None
    try:
        return json.loads(stdout).get("method")
    except ValueError:
        return None

