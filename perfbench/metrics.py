"""Metric names, units, and which end-to-end number each layer metric should move.

End-to-end metrics come from untraced runs (``--trace 0``); per-layer
metrics from traced runs (``--trace 1``) and are given per pass of the
workload's command list. The third field of each ``PER_LAYER`` entry
records, before any optimisation, which end-to-end metric on which workload
a change in that layer metric should move; the prediction for the other
workloads is no change.
"""

# gated by BENCHMARK.json: defined on every workload, never zero
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# printed with every untraced run, on the workloads that have them. Not
# gated: cmd_p50_s mixes command sizes, so its median sits on one size
# group, and the others are not defined on every workload.
# probe_failed_frac counts the known defects the probe commands still show
WORKLOAD_SPECIFIC = {
    "wall_raw_s": "s",
    "kernel_ms": "ms",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "analyze_p50_s": "s",
    "gramian_p50_s": "s",
    "reduce_p50_s": "s",
    "heat_bench_p50_s": "s",
    "failed_frac": "frac",
    "probe_failed_frac": "frac",
}

SUBCOMMAND_METRICS = {
    "analyze": "analyze_p50_s",
    "gramian": "gramian_p50_s",
    "reduce": "reduce_p50_s",
    "heat-bench": "heat_bench_p50_s",
}

_QUAD = "heat_bench_p50_s and wall_s on heat; reduce_p50_s on consensus; not dense"
_LAYER_SELF = "wall_s on every workload that runs the layer"

# (name, unit, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("linalg.integrand.from-h2error.evals", "count", _QUAD),
    ("linalg.integrand.from-h2error.s", "s", _QUAD),
    ("linalg.integrate_operator_valued.from-h2error.s", "s", _QUAD),
    ("h2error.h2_error_quadrature.s", "s", _QUAD),
    ("linalg.integrand.from-gramian.evals", "count",
     "gramian_p50_s on consensus; absent elsewhere"),
    ("linalg.integrand.from-gramian.s", "s",
     "gramian_p50_s on consensus; absent elsewhere"),
    ("gramian.gramian_by_quadrature.s", "s",
     "gramian_p50_s on consensus; absent elsewhere"),
    ("linalg.matrix_exponential.from-h2error.calls", "count",
     "reduce_p50_s on consensus (dense expm per node); little on heat"),
    ("linalg.matrix_exponential.from-h2error.s", "s",
     "reduce_p50_s on consensus (dense expm per node); little on heat"),
    ("linalg.matrix_exponential.from-gramian.calls", "count",
     "gramian_p50_s on consensus"),
    ("linalg.matrix_exponential.from-gramian.s", "s", "gramian_p50_s on consensus"),
    ("linalg.matrix_exponential.from-semistability.calls", "count",
     "analyze_p50_s on dense and consensus; reduce_p50_s on consensus"),
    ("linalg.matrix_exponential.from-semistability.s", "s",
     "analyze_p50_s on dense and consensus; reduce_p50_s on consensus"),
    ("semistability.classify.calls", "count",
     "analyze_p50_s on dense and consensus; reduce_p50_s on consensus"),
    ("semistability.classify.s", "s",
     "analyze_p50_s on dense and consensus; reduce_p50_s on consensus"),
    ("semistability.spectral_data.calls_per_cmd", "count",
     "gramian_p50_s on dense; reduce_p50_s on consensus (redone eigendecompositions)"),
    ("semistability.limit_projector.s", "s",
     "gramian_p50_s on dense; reduce_p50_s on consensus"),
    ("linalg.opnorm.from-cli.calls", "count", "gramian_p50_s on dense"),
    ("linalg.opnorm.from-cli.s", "s", "gramian_p50_s on dense"),
    ("linalg.opnorm.from-semistability.calls", "count",
     "heat_bench_p50_s on heat; analyze_p50_s on dense"),
    ("linalg.opnorm.from-semistability.s", "s",
     "heat_bench_p50_s on heat; analyze_p50_s on dense"),
    ("linalg.opnorm.from-gramian.calls", "count",
     "heat_bench_p50_s on heat; gramian_p50_s on dense"),
    ("linalg.opnorm.from-gramian.s", "s",
     "heat_bench_p50_s on heat; gramian_p50_s on dense"),
    ("linalg.opnorm.from-reduction.calls", "count",
     "heat_bench_p50_s on heat; reduce_p50_s on consensus"),
    ("linalg.opnorm.from-reduction.s", "s",
     "heat_bench_p50_s on heat; reduce_p50_s on consensus"),
    ("linalg.opnorm.from-h2error.calls", "count", "heat_bench_p50_s on heat"),
    ("linalg.opnorm.from-h2error.s", "s", "heat_bench_p50_s on heat"),
    ("gramian.solve_semistability_lyapunov.calls", "count",
     "gramian_p50_s on dense; reduce_p50_s on consensus"),
    ("gramian.solve_semistability_lyapunov.s", "s",
     "gramian_p50_s on dense; reduce_p50_s on consensus"),
    ("gramian.auto_fallbacks", "count", "gramian_p50_s on dense"),
    ("reduction.mode_truncation.s", "s", "reduce_p50_s and cmd_tail_s on consensus"),
    ("reduction.check_preservation.s", "s", "reduce_p50_s and cmd_tail_s on consensus"),
    ("reduction.is_controllable.calls", "count",
     "reduce_p50_s and cmd_tail_s on consensus"),
    ("reduction.is_controllable.s", "s", "reduce_p50_s and cmd_tail_s on consensus"),
    ("matio.read_system.s", "s",
     "cmd_p50_s and gramian_p50_s on dense; not heat (no file I/O)"),
    ("matio.write_matrix.s", "s",
     "cmd_p50_s and gramian_p50_s on dense; not heat (no file I/O)"),
    ("matio.bytes_read", "bytes", "cmd_p50_s on dense; zero on heat"),
    ("matio.bytes_written", "bytes", "cmd_p50_s on dense; zero on heat"),
    ("cli.self_s", "s", "cmd_p50_s on consensus (per-command overhead)"),
    ("matio.self_s", "s", "cmd_p50_s on dense"),
    ("semistability.self_s", "s", _LAYER_SELF),
    ("gramian.self_s", "s", _LAYER_SELF),
    ("reduction.self_s", "s", _LAYER_SELF),
    ("h2error.self_s", "s", _LAYER_SELF),
    ("heatbench.self_s", "s", "wall_s on heat"),
    ("linalg.self_s", "s", _LAYER_SELF),
    ("trace.overhead_frac", "frac", "none: traced over untraced wall_s, minus 1"),
]


def required_function(name):
    """The public (layer, function) a per-layer metric is measured on, or None."""
    parts = name.split(".")
    if parts[0] == "trace" or parts[1] in ("self_s", "auto_fallbacks",
                                           "bytes_read", "bytes_written"):
        return None
    if parts[1] == "integrand":
        return ("linalg", "integrate_operator_valued")
    return (parts[0], parts[1])


def layer_metrics(agg, header, passes, commands, fallbacks, overhead_frac):
    """Per-layer values per traced pass, and the metrics found absent.

    ``agg`` is :func:`layertrace.aggregate` over the traced spans,
    ``header`` the spans file header, ``passes`` and ``commands`` the
    number of traced passes and commands.
    """
    public = set(header["public"])
    values, absent = {}, []
    for name, _, _ in PER_LAYER:
        req = required_function(name)
        if req is not None and ".".join(req) not in public:
            absent.append(name)
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif name == "gramian.auto_fallbacks":
            value = fallbacks / passes
        elif name in ("matio.bytes_read", "matio.bytes_written"):
            value = header[name.split(".")[1]] / passes
        elif name == "semistability.spectral_data.calls_per_cmd":
            value = agg.get("semistability.spectral_data.calls", 0) / commands
        elif name.endswith(".evals"):
            value = agg.get(name[: -len(".evals")] + ".calls", 0) / passes
        else:
            value = agg.get(name, 0) / passes
        values[name] = value
    return values, absent
