"""Command-line front end.

One subcommand per step of the computational program: ``analyze``
(decide semistability and expose the kernel), ``gramian`` (solve for the
semistability Gramian), ``reduce`` (build an invariant truncation and
report its exact H2 error), plus the end-to-end ``heat-bench``.

Exit codes are a stable contract: 0 success, 2 input or parse error,
3 classification failure, 4 invalid mode selection, 5 numerical failure;
an error carries its code as ``exit_code`` (see :mod:`semigram.errors`).
Reports are deterministic byte streams for fixed inputs and flags.
"""

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import ConditioningError, NotSemistableError, ParseError, SemigramError
from .gramian import gramian_by_quadrature, solve_semistability_lyapunov
from .h2error import h2_error_gramian, h2_error_quadrature
from .heatbench import benchmark_csv, benchmark_text, run_benchmark
from .matio import format_matrix, read_system, write_matrix
from .reduction import check_preservation, mode_truncation
from .semistability import NOT_SEMISTABLE, DecayBound

__all__ = ["main"]

EXIT_OK = 0

_GRAMIAN_METHODS = ("lyapunov", "quadrature")
_OUTPUT_FORMATS = ("text", "csv", "structured")


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _json_value(v):
    if isinstance(v, float) and not np.isfinite(v):
        return str(v)
    return v


def _emit(pairs, fmt, matrices=None):
    """Write a report of (key, value) pairs to stdout in the format ``fmt``.

    ``matrices`` maps keys to arrays; they are included in text and
    structured output and omitted from CSV rows. A CSV field that holds a
    comma, a quote or a line break (a file path may) is quoted.
    """
    matrices = matrices or {}
    if fmt == "csv":
        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(k for k, _ in pairs)
        rows.writerow(_fmt_value(v) for _, v in pairs)
    elif fmt == "structured":
        doc = {k: _json_value(v) for k, v in pairs}
        for k, m in matrices.items():
            doc[k] = [[str(x) for x in row] for row in m] \
                if np.iscomplexobj(m) else m.tolist()
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        for k, v in pairs:
            sys.stdout.write("%s: %s\n" % (k, _fmt_value(v)))
        for k, m in matrices.items():
            sys.stdout.write("%s:\n%s" % (k, format_matrix(m)))


def cmd_analyze(args):
    spectral = read_system(args.system).spectral
    if spectral.verdict == NOT_SEMISTABLE:
        _emit(
            [
                ("verdict", spectral.verdict),
                ("detail", spectral.failure_reason),
                ("kernel_dim", spectral.kernel_dim),
                ("zero_tol", spectral.zero_tol),
            ],
            args.format,
        )
        return NotSemistableError.exit_code
    s_inf = spectral.projector
    try:
        decay = spectral.decay_bound
    except ConditioningError:
        # only the quadrature oracles need the bound, and they still fail
        # without it; the verdict, kernel and S_inf stand
        decay = DecayBound(constant=float("nan"), rate=float("nan"))
    _emit(
        [
            ("verdict", spectral.verdict),
            ("mu", spectral.mu),
            ("kernel_dim", spectral.kernel_dim),
            ("overshoot_m", decay.constant),
            ("overshoot_rate", decay.rate),
            ("s_inf_idempotency_defect", s_inf.idempotency_defect),
            ("s_inf_annihilation_defect", s_inf.annihilation_defect),
            ("zero_tol", spectral.zero_tol),
        ],
        args.format,
        matrices={"kernel_basis": spectral.kernel_basis},
    )
    return EXIT_OK


def _compute_gramian(system, args):
    """Gramian by the route ``--method`` names."""
    if args.method == "quadrature":
        return gramian_by_quadrature(system, args.quad_tol)
    return solve_semistability_lyapunov(system)


def cmd_gramian(args):
    gram = _compute_gramian(read_system(args.system), args)
    os.makedirs(args.output, exist_ok=True)
    target = os.path.join(args.output, "p_inf.mat")
    write_matrix(target, gram.p_inf)
    pairs = [
        ("method", gram.method),
        ("norm_p_inf", gram.norm_p_inf),
        ("lyapunov_residual", gram.lyapunov_residual),
        ("constraint_defect", gram.constraint_defect),
    ]
    if gram.quadrature_tol is not None:
        pairs.append(("quadrature_tol", gram.quadrature_tol))
    pairs.append(("p_inf_file", target))
    _emit(pairs, args.format)
    return EXIT_OK


def _parse_keep(text, n):
    text = text.strip()
    if text == "all":
        return n
    try:
        if "," in text:
            return [int(tok) for tok in text.split(",") if tok.strip() != ""]
        return int(text)
    except ValueError:
        raise ParseError(
            "--keep expects an integer, a comma-separated index list, or "
            "'all'; got %r" % text
        ) from None


def cmd_reduce(args):
    system = read_system(args.system)
    red = mode_truncation(system, _parse_keep(args.keep, system.n))
    preservation = check_preservation(red)

    pairs = [
        ("order", red.order),
        ("kept_modes", " ".join(str(i) for i in red.kept_modes)),
        ("commutativity_defect", red.commutativity_defect),
        ("kernel_identity_defect", red.kernel_identity_defect),
        ("original_verdict", preservation.original_verdict),
        ("reduced_verdict", preservation.reduced_verdict),
        ("semistability_preserved", preservation.semistability_preserved),
        ("original_controllable", preservation.original_controllable),
        ("reduced_controllable", preservation.reduced_controllable),
        ("controllability_preserved", preservation.controllability_preserved),
    ]

    if args.h2 in ("gramian", "both"):
        res = h2_error_gramian(red, _compute_gramian(system, args))
        pairs += [
            ("h2_trace_gramian", res.trace_value),
            ("h2_norm_gramian", res.h2_norm),
        ]
    if args.h2 in ("quadrature", "both"):
        res = h2_error_quadrature(red, args.quad_tol)
        pairs += [
            ("h2_trace_quadrature", res.trace_value),
            ("h2_norm_quadrature", res.h2_norm),
        ]

    os.makedirs(args.output, exist_ok=True)
    files = {
        "a_hat.mat": red.a_hat,
        "b_hat.mat": red.b_hat,
        "c_hat.mat": red.c_hat,
    }
    for name, matrix in files.items():
        write_matrix(os.path.join(args.output, name), matrix)
    doc = {"A": "a_hat.mat", "B": "b_hat.mat", "C": "c_hat.mat"}
    system_file = os.path.join(args.output, "reduced_system.json")
    with open(system_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    pairs.append(("reduced_system_file", system_file))
    _emit(pairs, args.format)
    return EXIT_OK


def cmd_heat_bench(args):
    report = run_benchmark(args.cosines, args.modes, args.quad_tol)
    if args.format == "csv":
        sys.stdout.write(benchmark_csv(report))
    elif args.format == "structured":
        sys.stdout.write(json.dumps(asdict(report), indent=2) + "\n")
    else:
        sys.stdout.write(benchmark_text(report))
    return EXIT_OK


def tolerance(text):
    """The ``--quad-tol`` value: a positive finite float."""
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


@functools.cache  # parse_args leaves the parser as it was
def _build_parser():
    # nested parents: each subcommand accepts only the flags it reads
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format", choices=_OUTPUT_FORMATS, default="text",
        help="report format",
    )
    quadrature = argparse.ArgumentParser(add_help=False, parents=[formatted])
    quadrature.add_argument(
        "--quad-tol", type=tolerance, default=1e-9,
        help="absolute tolerance for quadrature routes (default 1e-9)",
    )
    gramian = argparse.ArgumentParser(add_help=False, parents=[quadrature])
    gramian.add_argument(
        "--method", choices=_GRAMIAN_METHODS, default="lyapunov",
        help="Gramian computation route (default lyapunov); neither route "
        "falls back to the other",
    )
    gramian.add_argument(
        "--output", default=".", metavar="DIR",
        help="directory for emitted matrix files",
    )

    parser = argparse.ArgumentParser(
        prog="semigram",
        description="Semistable model reduction toolkit: classification, "
        "semistability Gramians, invariant truncations, exact H2 errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", parents=[formatted],
        help="decide whether a system is semistable and report its kernel "
        "and limit operator",
    )
    p.add_argument("system", help="system description file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "gramian", parents=[gramian],
        help="compute the semistability Gramian and write it to a file",
    )
    p.add_argument("system", help="system description file")
    p.set_defaults(func=cmd_gramian)

    p = sub.add_parser(
        "reduce", parents=[gramian],
        help="build an invariant mode truncation and report its H2 error",
    )
    p.add_argument("system", help="system description file")
    p.add_argument(
        "--keep", required=True,
        help="modes to keep: a count (slowest first), a comma-separated "
        "index list, or 'all'",
    )
    p.add_argument(
        "--h2", choices=("gramian", "quadrature", "both", "none"),
        default="gramian", help="which H2 error route(s) to report",
    )
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "heat-bench", parents=[quadrature],
        help="run the insulated-bar benchmark cross-checking all routes",
    )
    p.add_argument(
        "--modes", type=int, default=200,
        help="surrogate size M (default 200)",
    )
    p.add_argument(
        "--cosines", type=int, default=10,
        help="cosine modes kept besides the equilibrium mode (default 10)",
    )
    p.set_defaults(func=cmd_heat_bench)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SemigramError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        # a built-in OSError or ValueError is an input error
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
