"""Run the benchmark on two semigram checkouts in alternating pairs.

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT [--workloads heat,dense]
        [--pairs 10] [--seconds S] [--out FILE]

For each seed 1..pairs and each workload, runs CHANGE_ROOT's
``perfbench/run.py --trace 0`` once with the working directory at each
root, so both sides run the same benchmark script on their own sources.
The parent runs first at odd seeds and the change first at even ones.
``--seconds`` defaults to ``run_seconds`` and ``--workloads`` to every
workload of CHANGE_ROOT's ``BENCHMARK.json``.

Writes one JSON document (to ``--out``, else standard output). Per
workload and per end-to-end metric, and for ``wall_raw_s``, it holds the
median and quartiles of each side and the number of pairs in which the
change read lower. Per run it holds the seed, whether its side ran
first, ``correct``, ``attempted``, ``failed``, the probe lines, the
``env`` line, the end-to-end values and the elapsed time. Per root it
holds, as found before the first run, the commit of a git checkout (None
for an exported tree) and a digest of its ``src`` tree. Exits 1 if any
run was not correct.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def describe(root):
    """The commit of ``root`` when it is the top of a git checkout, whether
    its tracked files differ from that commit, and a SHA-256 over the
    relative paths and bytes of the files under its ``src``."""
    def git(*args):
        done = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, names in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    checkout = git("rev-parse", "--show-toplevel") == os.path.realpath(root)
    return {
        "commit": git("rev-parse", "HEAD") if checkout else None,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))
        if checkout else None,
        "src_sha256": digest.hexdigest(),
    }


def run_once(script, root, workload, seed, seconds, names):
    """One benchmark run at ``root``: its record, as the module doc says."""
    argv = [sys.executable, script, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    record = {"seed": seed, "exit": done.returncode, "elapsed_s": round(elapsed, 3),
              "correct": False, "attempted": None, "failed": None, "probe": [],
              "env": None, "metrics": {}}
    lines = done.stdout.splitlines()
    for line in lines:
        word, _, rest = line.partition(" ")
        if word == "env":
            record["env"] = json.loads(rest)
        elif word == "probe":
            record["probe"].append(rest)
        elif word == "metric":
            name, value = rest.split()[:2]
            if name in names:
                record["metrics"][name] = float(value)
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
        for key in ("correct", "attempted", "failed"):
            record[key] = result[key]
    else:
        record["stderr"] = done.stderr[-2000:]
    return record


def summary(values):
    """Median and inclusive quartiles of ``values``."""
    if len(values) < 2:
        q1 = q3 = statistics.median(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(runs, names):
    """Per metric, each side's summary and the pairs in which the change
    read lower; a metric missing from a run leaves its pair out."""
    out = {}
    for name in names:
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent, change = zip(*pairs)
        out[name] = {"pairs": len(pairs), "change_lower": sum(c < p for p, c in pairs),
                     "parent": summary(parent), "change": summary(change)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workloads", help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="file for the JSON document")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    names = [m["name"] for m in bench["end_to_end"]] + ["wall_raw_s"]
    script = os.path.join(roots["change"], "perfbench", "run.py")
    described = {side: describe(root) for side, root in roots.items()}

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                record = run_once(script, roots[side], workload, seed, seconds, names)
                record["first"] = side == order[0]
                runs[workload][side].append(record)
                print("%s %s seed %d: correct=%s %.1f s" % (
                    workload, side, seed, record["correct"], record["elapsed_s"]),
                    file=sys.stderr)

    doc = {
        "seconds": seconds,
        "pairs": args.pairs,
        "roots": described,
        "workloads": {w: {"metrics": compare(runs[w], names), "runs": runs[w]}
                      for w in workloads},
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    correct = all(r["correct"] for w in runs.values() for rs in w.values() for r in rs)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
