"""Command-line front end.

One subcommand per step of the computational program: ``analyze``
(classify and expose the kernel), ``gramian`` (solve for the
semistability Gramian), ``reduce`` (build an invariant truncation and
report its exact H2 error), plus the end-to-end ``heat-bench``.

Exit codes are a stable contract: 0 success, 2 input or parse error,
3 classification failure, 4 invalid mode selection, 5 numerical failure.
Reports are deterministic byte streams for fixed inputs and config.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    InconsistencyError,
    InvalidSelectionError,
    NotSemistableError,
    ParseError,
    PreconditionError,
    QuadratureError,
)
from .gramian import (
    gramian_by_quadrature,
    lyapunov_rhs,
    solve_semistability_lyapunov,
)
from .h2error import h2_error_gramian, h2_error_quadrature
from .heatbench import benchmark_csv, benchmark_text, run_benchmark
from .linalg import opnorm
from .matio import format_matrix, read_system, write_matrix
from .reduction import check_preservation, mode_truncation
from .semistability import NOT_SEMISTABLE, limit_projector, spectral_data

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CLASSIFICATION = 3
EXIT_SELECTION = 4
EXIT_NUMERICAL = 5

_GRAMIAN_METHODS = ("auto", "quadrature", "lyapunov")
_OUTPUT_FORMATS = ("text", "csv", "structured")


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and routing shared by all subcommands."""

    rank_tol: float | None = None
    quadrature_tol: float = 1e-9
    gramian_method: str = "auto"
    output_format: str = "text"

    def __post_init__(self):
        if self.rank_tol is not None and not self.rank_tol >= 0:
            raise ValueError("rank_tol must be nonnegative")
        if not self.quadrature_tol > 0:
            raise ValueError("quadrature_tol must be positive")
        if self.gramian_method not in _GRAMIAN_METHODS:
            raise ValueError(
                "gramian_method must be one of %s" % (_GRAMIAN_METHODS,)
            )
        if self.output_format not in _OUTPUT_FORMATS:
            raise ValueError(
                "output_format must be one of %s" % (_OUTPUT_FORMATS,)
            )


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


def _emit(pairs, config, matrices=None, stream=None):
    """Write a report of (key, value) pairs in the configured format.

    ``matrices`` maps keys to arrays; they are included in text and
    structured output and omitted from CSV rows.
    """
    stream = stream or sys.stdout
    matrices = matrices or {}
    fmt = config.output_format
    if fmt == "csv":
        stream.write(",".join(k for k, _ in pairs) + "\n")
        stream.write(",".join(_fmt_value(v) for _, v in pairs) + "\n")
    elif fmt == "structured":
        doc = {k: _json_value(v) for k, v in pairs}
        for k, m in matrices.items():
            doc[k] = [[_json_value(complex(x).real) for x in row] for row in m] \
                if not np.iscomplexobj(m) else [[str(x) for x in row] for row in m]
        stream.write(json.dumps(doc, indent=2) + "\n")
    else:
        for k, v in pairs:
            stream.write("%s: %s\n" % (k, _fmt_value(v)))
        for k, m in matrices.items():
            stream.write("%s:\n%s" % (k, format_matrix(m)))


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_analyze(args, config):
    system, _ = read_system(args.system)
    spectral = spectral_data(system.a, rank_tol=config.rank_tol)
    if spectral.verdict == NOT_SEMISTABLE:
        _emit(
            [
                ("verdict", spectral.verdict),
                ("detail", spectral.failure_reason),
                ("kernel_dim", spectral.kernel_dim),
                ("zero_tol", spectral.zero_tol),
            ],
            config,
        )
        return EXIT_CLASSIFICATION
    s_inf = limit_projector(system.a, spectral)
    _emit(
        [
            ("verdict", spectral.verdict),
            ("mu", spectral.mu),
            ("kernel_dim", spectral.kernel_dim),
            ("overshoot_m", spectral.overshoot_m),
            ("s_inf_idempotency_defect", s_inf.idempotency_defect),
            ("s_inf_annihilation_defect", s_inf.annihilation_defect),
            ("zero_tol", spectral.zero_tol),
        ],
        config,
        matrices={"kernel_basis": spectral.kernel_basis},
    )
    return EXIT_OK


def _compute_gramian(system, spectral, config):
    """Gramian via the configured method; auto falls back to quadrature."""
    s_inf = limit_projector(system.a, spectral)
    if config.gramian_method != "quadrature":
        q = lyapunov_rhs(system.b, s_inf)
        try:
            return solve_semistability_lyapunov(system.a, q, s_inf, spectral)
        except (ConditioningError, InconsistencyError):
            if config.gramian_method == "lyapunov":
                raise
    return gramian_by_quadrature(
        system.a, system.b, s_inf, spectral, config.quadrature_tol
    )


def cmd_gramian(args, config):
    system, _ = read_system(args.system)
    spectral = spectral_data(system.a, rank_tol=config.rank_tol)
    gram = _compute_gramian(system, spectral, config)
    outdir = _ensure_outdir(args.output)
    target = os.path.join(outdir, "p_inf.mat")
    write_matrix(target, gram.p_inf)
    pairs = [
        ("method", gram.method),
        ("norm_p_inf", opnorm(gram.p_inf)),
        ("lyapunov_residual", gram.lyapunov_residual),
        ("constraint_defect", gram.constraint_defect),
    ]
    if gram.quadrature_tol is not None:
        pairs.append(("quadrature_tol", gram.quadrature_tol))
    pairs.append(("p_inf_file", target))
    _emit(pairs, config)
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


def cmd_reduce(args, config):
    system, _ = read_system(args.system)
    spectral = spectral_data(system.a, rank_tol=config.rank_tol)
    keep = _parse_keep(args.keep, system.n)
    red = mode_truncation(system, spectral, keep)
    preservation = check_preservation(system, red)

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
        gram = _compute_gramian(system, spectral, config)
        res = h2_error_gramian(system, red, gram)
        pairs += [
            ("h2_trace_gramian", res.trace_value),
            ("h2_norm_gramian", res.h2_norm),
        ]
    if args.h2 in ("quadrature", "both"):
        res = h2_error_quadrature(system, red, config.quadrature_tol)
        pairs += [
            ("h2_trace_quadrature", res.trace_value),
            ("h2_norm_quadrature", res.h2_norm),
        ]

    outdir = _ensure_outdir(args.output)
    files = {
        "a_hat.mat": red.a_hat,
        "b_hat.mat": red.b_hat,
        "c_hat.mat": red.c_hat,
    }
    for name, matrix in files.items():
        write_matrix(os.path.join(outdir, name), matrix)
    doc = {"A": "a_hat.mat", "B": "b_hat.mat", "C": "c_hat.mat"}
    system_file = os.path.join(outdir, "reduced_system.json")
    with open(system_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    pairs.append(("reduced_system_file", system_file))
    _emit(pairs, config)
    return EXIT_OK


def cmd_heat_bench(args, config):
    report = run_benchmark(args.cosines, args.modes, config.quadrature_tol)
    if config.output_format == "csv":
        sys.stdout.write(benchmark_csv(report))
    elif config.output_format == "structured":
        doc = {
            "n_kept": report.n_kept,
            "modes": report.modes,
            "trace_gramian": report.trace_gramian,
            "trace_quadrature": report.trace_quadrature,
            "trace_analytic": report.trace_analytic,
            "published_constant": report.published_constant,
            "h2_norm": report.h2_norm,
            "max_pairwise_deviation": report.max_pairwise_deviation,
            "surrogate_tail_bound": report.surrogate_tail_bound,
            "abs_tol": report.abs_tol,
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(benchmark_text(report))
    return EXIT_OK


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--rank-tol", type=float, default=None,
        help="singular-value threshold for rank decisions (default: scaled "
        "machine epsilon)",
    )
    common.add_argument(
        "--quad-tol", type=float, default=1e-9,
        help="absolute tolerance for quadrature routes (default 1e-9)",
    )
    common.add_argument(
        "--method", choices=("auto", "quadrature", "lyapunov"),
        default="auto", help="Gramian computation route",
    )
    common.add_argument(
        "--format", choices=("text", "csv", "structured"), default="text",
        help="report format",
    )
    common.add_argument(
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
        "analyze", parents=[common],
        help="classify a system and report its kernel and limit operator",
    )
    p.add_argument("system", help="system description file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "gramian", parents=[common],
        help="compute the semistability Gramian and write it to a file",
    )
    p.add_argument("system", help="system description file")
    p.set_defaults(func=cmd_gramian)

    p = sub.add_parser(
        "reduce", parents=[common],
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
        "heat-bench", parents=[common],
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            rank_tol=args.rank_tol,
            quadrature_tol=args.quad_tol,
            gramian_method=args.method,
            output_format=args.format,
        )
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args, config)
    except NotSemistableError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CLASSIFICATION
    except InvalidSelectionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SELECTION
    except (
        QuadratureError,
        ConditioningError,
        InconsistencyError,
        PreconditionError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
