"""Check that two semigram source trees give the same outputs.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC [SEED ...]

Runs every timed, probe and warm-up command of the benchmark's workloads
(``perfbench/workloads.py``, imported, never changed) at the given seeds
(1, 2 and 3 by default), each also in text format and each ``reduce`` also
with ``--h2 both``, plus ``heat-bench`` at M = 300 with N = 2, 10 and 40 in
every format. Each tree runs in its own subprocess through
``semigram.cli.main``, with one BLAS thread and its own work directory.
Prints every command whose exit code, stdout, stderr or written files
differ, with the work directory written as ``<work>``; exits 1 if any does.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ONE_THREAD = {name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def commands(work, seeds):
    """Every argv to compare, the workloads' inputs written under ``work``."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    argvs = [["heat-bench", "--modes", "300", "--cosines", str(n), "--format", fmt]
             for n in (2, 10, 40) for fmt in ("text", "csv", "structured")]
    for name in workloads.WORKLOADS:
        for seed in seeds:
            directory = os.path.join(work, "%s-%d" % (name, seed))
            timed, probe = workloads.build(name, seed, directory)
            for argv in [c.argv for c in timed + probe] + [
                    workloads.warmup_command(name, os.path.join(directory, "warmup"))]:
                argvs.append(argv)
                if argv[0] != "heat-bench":
                    argvs.append(argv[:-2] + ["--format", "text"])
                if argv[0] == "reduce" and "both" not in argv:
                    argvs.append(argv[:argv.index("--h2") + 1] + ["both"]
                                 + argv[argv.index("--h2") + 2:])
    return argvs


def side(src, seeds):
    """Run the commands on the package under ``src``; print one JSON record
    per command, with its exit code, output and written files' digests."""
    import semigram.cli

    if not semigram.cli.__file__.startswith(os.path.abspath(src) + os.sep):
        sys.exit("imported %s, not from %s" % (semigram.cli.__file__, src))
    work = tempfile.mkdtemp(prefix="same_outputs_")
    records = []
    for argv in commands(work, seeds):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = semigram.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        files = {}
        if "--output" in argv:
            target = argv[argv.index("--output") + 1]
            for base, _, names in os.walk(target):
                for name in sorted(names):
                    with open(os.path.join(base, name), "rb") as fh:
                        data = fh.read().replace(work.encode(), b"<work>")
                    rel = os.path.relpath(os.path.join(base, name), work)
                    files[rel] = hashlib.sha256(data).hexdigest()
        records.append([code, out.getvalue(), err.getvalue(), files, argv])
    print(json.dumps(records).replace(work, "<work>"))
    shutil.rmtree(work)


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    seeds = [int(s) for s in argv[2:]] or [1, 2, 3]
    runs = []
    for src in argv[:2]:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **BLAS_ONE_THREAD)
        code = ("import sys; sys.path.insert(0, %r); import same_outputs; "
                "same_outputs.side(%r, %r)" % (os.path.join(ROOT, "tools"), src, seeds))
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        runs.append(json.loads(done.stdout))
    differ = [b[-1] for a, b in zip(*runs) if a != b]
    for cmd in differ:
        print("differs: " + " ".join(cmd))
    print("%d of %d commands differ" % (len(differ), len(runs[0])))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
