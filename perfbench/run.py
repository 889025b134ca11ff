"""semigram benchmark: time to a certified result, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``heat`` (heat-bench on the insulated-bar
surrogate), ``dense`` (non-normal semistable systems) and ``consensus``
(negated graph Laplacians). The benchmark generates the workload's inputs
from the seed, then drives the CLI as a closed loop: one worker process
runs one command at a time through ``semigram.cli.main(argv)``, and each
output is checked against a reference computed here without the package.

A run repeats passes over the same command list for about ``--seconds``.
With ``--trace 0`` the run reports end-to-end metrics (see metrics.py).
With ``--trace 1`` it runs its passes untraced, then as many again with
every public function of the package wrapped (layertrace.py), and reports
per-layer metrics per pass plus the tracing overhead. Then it runs the
workload's probe once: the cases with known defects, whose failures are
counted by reason but make the run incorrect only when they are new. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading

# one BLAS thread for the generator and the worker: on two cores a pass of
# dense took 21 s with two OpenBLAS threads and 8 s with one; the matrices
# are too small for a second thread to pay
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import layertrace  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# fresh workers whose import-plus-warm-up time gives setup_s (median)
SETUPS = 5
# passes of an untraced run at the least, so each command has a median
MIN_PASSES = 3
# a reply slower than this means the worker hung; it is killed
REPLY_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Worker:
    """One worker process, spoken to with one JSON line each way."""

    def __init__(self, src):
        env = dict(os.environ, PYTHONPATH=src)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def ask(self, **request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        watchdog = threading.Timer(REPLY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise BenchError("worker exited with code %s during %r"
                             % (self.proc.wait(), request["op"]))
        return json.loads(line)

    def close(self):
        """End of input lets the worker exit; one that does not is killed."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setup(src, warmup, workers):
    """Start a fresh worker, import and warm up; returns its setup reply."""
    worker = Worker(src)
    workers.append(worker)
    reply = worker.ask(op="setup", warmup=warmup)
    if reply["warmup_exit"] != 0:
        raise BenchError("warm-up command failed: %s" % reply["warmup_stderr"])
    if not reply["package"].startswith(os.path.join(src, "semigram") + os.sep):
        raise BenchError("imported semigram from %s, not from %s"
                         % (reply["package"], src))
    return worker, reply


def _tail(samples):
    """Highest whole-ten percentile with at least ten samples beyond it."""
    n = len(samples)
    pct = int(10 * (1 - 10 / n)) * 10 if n else 0
    if pct < 50:
        return None
    return pct, float(np.percentile(samples, pct))


class Run:
    """The passes of one benchmark run and everything measured on them.

    Every pass runs the same timed command list, so each command has one
    time per pass; the probe runs once, untimed, after the passes. On a
    calibrated workload, times are in reference seconds (calibrate.py)
    unless named raw.
    """

    def __init__(self, commands, probe, calibrated):
        self.commands, self.probe, self.calibrated = commands, probe, calibrated
        self.times = [[] for _ in commands]  # each command's time, per pass
        self.raw_times = [[] for _ in commands]
        self.kernel_times = []
        self.results = []  # (command, exit, seconds, reasons) of every timed run
        self.reasons = {}
        self.fallbacks = 0

    def run_pass(self, worker):
        """Run the command list once; returns its raw and its reported time."""
        reply = worker.ask(op="pass", commands=[c.argv for c in self.commands])
        wall = 0.0
        for i, (command, res) in enumerate(zip(self.commands, reply["results"])):
            seconds = res["seconds"]
            if self.calibrated:
                seconds *= calibrate.REFERENCE_S / res["kernel_s"]
            wall += seconds
            reasons = checks.check(command, res["exit"], res["stdout"])
            for r in reasons:
                self.reasons[r] = self.reasons.get(r, 0) + 1
            if checks.gramian_method(command, res["stdout"]) not in (None, "lyapunov_split"):
                self.fallbacks += 1
            self.times[i].append(seconds)
            self.raw_times[i].append(res["seconds"])
            self.kernel_times.append(res["kernel_s"])
            self.results.append((command, res["exit"], seconds, reasons))
        return reply["wall_s"], wall

    def run_until(self, worker, seconds, min_passes):
        """Run at least ``min_passes`` passes, then more while one still fits.

        Returns the raw and reported time of each pass; another pass starts
        only if a median raw pass fits in what is left of ``seconds``.
        """
        walls = []
        while len(walls) < min_passes or sum(w[0] for w in walls) + statistics.median(
                w[0] for w in walls) <= seconds:
            walls.append(self.run_pass(worker))
        return walls

    def run_probe(self, worker):
        """Run the probe once; returns (command, exit, reasons, known) per command."""
        if not self.probe:
            return []
        reply = worker.ask(op="pass", commands=[c.argv for c in self.probe])
        out = []
        for command, res in zip(self.probe, reply["results"]):
            reasons = checks.check(command, res["exit"], res["stdout"])
            known, _ = checks.known_defects(command, reasons, res["stderr"])
            out.append((command, res["exit"], reasons, known))
        return out


def end_to_end(run, setup_times, peak_rss_mb):
    """Gated values, and the other printed values with their notes."""
    ok_times = [t for _, code, t, _ in run.results if code == 0]
    values = {
        "setup_s": statistics.median(setup_times),
        # every pass runs the same commands: the command list's time is the
        # sum of each command's median, which one slow pass cannot move
        "wall_s": math.fsum(statistics.median(ts) for ts in run.times),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "wall_raw_s": math.fsum(statistics.median(ts) for ts in run.raw_times),
        "kernel_ms": 1e3 * statistics.median(run.kernel_times),
    }
    notes = {"kernel_ms": "calibration kernel, reference %g ms; wall_s %s"
             % (1e3 * calibrate.REFERENCE_S,
                "calibrated" if run.calibrated else "raw")}
    if ok_times:
        extra["cmd_p50_s"] = statistics.median(ok_times)
        notes["cmd_p50_s"] = "%d commands" % len(ok_times)
    tail = _tail(ok_times)
    if tail is not None:
        extra["cmd_tail_s"] = tail[1]
        notes["cmd_tail_s"] = "p%d of %d commands" % (tail[0], len(ok_times))
    for sub, name in metrics.SUBCOMMAND_METRICS.items():
        times = [t for c, code, t, _ in run.results if code == 0 and c.subcommand == sub]
        if times:
            extra[name] = statistics.median(times)
            notes[name] = "%d commands" % len(times)
    return values, extra, notes


def _print_metric(name, value, unit, note=""):
    print("metric %-50s %14.6g %-6s %s" % (name, value, unit, note))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "semigram", "cli.py")):
        print("error: no semigram sources under %s; run from the root of a "
              "checkout" % src, file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", "%s-%d-%d"
                        % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    workers = []
    try:
        return _measure(args, root, work, workers)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        for w in workers:
            w.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def _measure(args, root, work, workers):
    warmup = workloads.warmup_command(args.workload, os.path.join(work, "warmup"))
    setup_times = []
    for _ in range(SETUPS):
        worker, info = _setup(os.path.join(root, "src"), warmup, workers)
        setup_times.append(info["setup_s"])
        if len(setup_times) < SETUPS:
            worker.close()

    run = Run(*workloads.build(args.workload, args.seed, os.path.join(work, "inputs")),
              calibrated=args.workload in workloads.CALIBRATED)
    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps({
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "python": info["python"],
        "numpy": info["numpy"], "scipy": info["scipy"], "blas": info["blas"],
        "seed": args.seed, "workload": args.workload,
        "sizes": workloads.sizes(args.workload),
        "commands": len(run.commands), "probe": len(run.probe)}))

    if args.trace == 0:
        walls = run.run_until(worker, args.seconds, MIN_PASSES)
        print("passes " + json.dumps([round(w[0], 4) for w in walls]))
        peak = worker.ask(op="finish")["peak_rss_mb"]
        values, extra, notes = end_to_end(run, setup_times, peak)
    else:
        untraced = run.run_until(worker, args.seconds / 2, 1)
        worker.ask(op="trace")
        fallbacks_untraced = run.fallbacks
        traced = [run.run_pass(worker) for _ in untraced]
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "trace-%s-seed%d.jsonl"
                                  % (args.workload, args.seed))
        worker.ask(op="finish", spans=spans_path)
        header, spans = layertrace.read_spans(spans_path)
        n_cmds = len(run.commands) * len(traced)
        overhead = (statistics.median(w[1] for w in traced)
                    / statistics.median(w[1] for w in untraced) - 1.0)
        values, absent = metrics.layer_metrics(
            layertrace.aggregate(spans), header, len(traced), n_cmds,
            run.fallbacks - fallbacks_untraced, overhead)
        extra, notes = {}, {}
        print("spans %d in %s" % (len(spans), spans_path))
        print("absent " + json.dumps(absent))

    probed = run.run_probe(worker)
    known, unexpected = {}, {}
    for command, code, reasons, known_here in probed:
        print("probe %s %s exit=%s reasons=%s"
              % (command.subcommand, command.label, code, ",".join(reasons) or "-"))
        for r in reasons:
            tally = known if r in known_here else unexpected
            tally[r] = tally.get(r, 0) + 1
    if probed:
        probe_failed = sum(1 for p in probed if p[2])
        extra["probe_failed_frac"] = probe_failed / len(probed)
        notes["probe_failed_frac"] = "%d of %d probe commands; known defects %s; new %s" % (
            probe_failed, len(probed),
            json.dumps(known, sort_keys=True), json.dumps(unexpected, sort_keys=True))

    attempted = len(run.results)
    failed = sum(1 for r in run.results if r[3])
    extra["failed_frac"] = failed / attempted
    notes["failed_frac"] = "%d of %d commands; by reason %s" % (
        failed, attempted, json.dumps(run.reasons, sort_keys=True))
    units = dict(metrics.END_TO_END, **metrics.WORKLOAD_SPECIFIC,
                 **{name: unit for name, unit, _ in metrics.PER_LAYER})
    for name, value in list(values.items()) + list(extra.items()):
        _print_metric(name, value, units[name], notes.get(name, ""))
    print(json.dumps({
        # a probe failure that is not a known defect is a new failure
        "correct": failed == 0 and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
