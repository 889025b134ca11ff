"""Benchmark worker: runs CLI commands in-process and times each one.

Started by ``run.py`` with the checkout's ``src`` first on PYTHONPATH. It
reads one JSON request per line on stdin and answers with one JSON line on
stdout:

- ``{"op": "setup", "warmup": argv}`` imports ``semigram.cli``, runs the
  warm-up command untimed and answers with the time both took;
- ``{"op": "pass", "commands": [argv, ...]}`` runs the commands one at a
  time through ``semigram.cli.main`` and answers with each exit code, wall
  time, captured output and the mean time of the calibration kernel run
  just before and just after it (calibrate.py);
- ``{"op": "trace"}`` wraps the package's public functions (see layertrace.py);
- ``{"op": "finish", "spans": path}`` writes the spans, if tracing, and
  answers with the peak RSS so far.

The worker exits at the end of its input.

Only the standard library is imported before the timed import of
``semigram.cli``.
"""

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _blas_info():
    """OpenBLAS build string and thread count of numpy's and scipy's copies."""
    info = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg)
        if mod is None:
            continue
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                              pkg + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            prefix = "scipy_openblas_" if "scipy_openblas" in path else "openblas_"
            info[pkg] = {}
            for suffix in ("64_", ""):  # 64-bit-integer builds add a suffix
                threads = getattr(lib, prefix + "get_num_threads" + suffix, None)
                config = getattr(lib, prefix + "get_config" + suffix, None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info[pkg] = {"threads": int(threads()),
                                 "config": config().decode("ascii", "replace")}
                    break
    return info


def main():
    proto = sys.stdout
    cli = tracer = None
    commands_seen = []
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "setup":
            t0 = time.perf_counter()
            import semigram.cli as cli
            code, _, err = _run(cli, req["warmup"])
            setup_s = time.perf_counter() - t0
            import numpy
            import scipy
            import semigram
            reply = {"setup_s": setup_s, "warmup_exit": code, "warmup_stderr": err,
                     "package": os.path.abspath(semigram.__file__),
                     "python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": _blas_info()}
        elif op == "pass":
            import calibrate
            results = []
            kernel = calibrate.kernel_s()
            for argv in req["commands"]:
                if tracer is not None:
                    tracer.command = len(commands_seen)
                commands_seen.append(argv)
                t0 = time.perf_counter()
                code, out, err = _run(cli, argv)
                seconds = time.perf_counter() - t0
                before, kernel = kernel, calibrate.kernel_s()
                results.append({"exit": code, "seconds": seconds,
                                "kernel_s": (before + kernel) / 2,
                                "stdout": out, "stderr": err})
            reply = {"results": results, "wall_s": sum(r["seconds"] for r in results)}
        elif op == "trace":
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
            commands_seen = []
            reply = {"public": sorted(".".join(k) for k in tracer.public)}
        elif op == "finish":
            if tracer is not None:
                tracer.write(req["spans"], commands_seen)
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     / 1024.0}
        else:
            raise ValueError("unknown request %r" % op)
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
