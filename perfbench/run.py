#!/usr/bin/env python3
"""Decoder throughput benchmark for bmst.

Each measurement runs in its own fresh single-threaded process (worker.py)
with OMP/OpenBLAS/MKL threads pinned to 1. With --trace 0 it first times
set-up in several fresh interpreters (setup_probe.py) and reports the
end-to-end metrics; with --trace 1 it reports the per-layer split from a
traced run. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A full record (machine, versions, kernel path, gate, seeded counts) goes to
perfbench/out/<workload>.trace<0|1>.json.

Usage:
  python3 perfbench/run.py --workload swd-rc2-m2 --seed 3 --seconds 55 --trace 0
  python3 perfbench/run.py            # every workload, both modes, default seeds
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
DEADLINE_S = 175.0   # a single run must end within 180 s
SETUP_RUNS = 4
PROBE_TIMEOUT_S = 10.0


class BenchError(RuntimeError):
    pass


def child(script, args, timeout):
    """Run a benchmark script in a fresh interpreter; return its last stdout
    line. subprocess.run kills and reaps the child on timeout."""
    env = dict(os.environ, **PINNED_THREADS)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              env=env, cwd=spec.ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {' '.join(args)} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return lines[-1]


def git_sha():
    """HEAD of the checkout when it is a git repository, read from .git."""
    head = os.path.join(spec.ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(spec.ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns the worker's record with setup_s added."""
    setups = []

    def time_setups(count):
        for _ in range(count):
            setups.append(float(child("setup_probe.py", [workload, str(seed)],
                                      PROBE_TIMEOUT_S)))

    # half the set-ups before the frame loop and half after, so that the
    # median spans the run rather than one moment of a shared machine
    if trace == 0:
        time_setups(SETUP_RUNS // 2)
    rec = json.loads(child("worker.py", ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", str(trace)],
                           DEADLINE_S - SETUP_RUNS * PROBE_TIMEOUT_S))
    if trace == 0:
        time_setups(SETUP_RUNS - SETUP_RUNS // 2)
        rec["metrics"]["setup_s"] = statistics.median(setups)
        rec["setup_samples"] = setups
    rec["info"]["git_sha"] = git_sha()
    rec["info"]["threads_pinned"] = PINNED_THREADS
    os.makedirs(spec.OUT, exist_ok=True)
    with open(os.path.join(spec.OUT, f"{workload}.trace{trace}.json"), "w") as fh:
        json.dump(rec, fh, indent=1)
    return rec


def report(rec):
    """Human-readable lines for one run."""
    info = rec["info"]
    print(f"# {info['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"frames/set={info['frames_per_set']} frames timed={rec['frame_samples']} "
          f"kernel={info['kernel_path']} python={info['python']} "
          f"numpy={info['numpy']} scipy={info['scipy']} nproc={info['nproc']} "
          f"cpu={info['cpu']!r} sha={info['git_sha']}")
    print(f"# gate {'ok' if rec['gate']['ok'] else 'FAILED'}: {rec['gate']['detail']}")
    print(f"# counts {json.dumps(rec['counts'])}")
    for err in rec["errors"]:
        print(f"# error {err}")
    for name, value in rec["metrics"].items():
        print(f"{name:<38} {value:>16.6f} {spec.UNITS[name]}")


def result_line(rec):
    return json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                    for name, value in rec["metrics"].items()}})


def run_all(seconds, seed):
    """Every workload, untraced then traced; checks that the seeded counts
    agree between the two runs. Returns the process exit code."""
    ok = True
    for workload, wl in spec.WORKLOADS.items():
        s = wl["seed"] if seed is None else seed
        recs = [measure(workload, s, seconds, trace) for trace in (0, 1)]
        for rec in recs:
            report(rec)
        same = recs[0]["counts"] == recs[1]["counts"]
        print(f"# {workload}: seeded counts {'identical' if same else 'DIFFER'} "
              "between the untraced and traced runs\n")
        ok = ok and same and all(r["correct"] for r in recs)
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                    help="one workload; default: all of them, both modes")
    ap.add_argument("--seed", type=int,
                    help="workload seed; default: the workload's own")
    ap.add_argument("--seconds", type=float, default=spec.BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(spec.SRC, "bmst", "__init__.py")):
        print(f"no bmst package under {spec.SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return run_all(args.seconds, args.seed)
        seed = spec.WORKLOADS[args.workload]["seed"] if args.seed is None else args.seed
        rec = measure(args.workload, seed, args.seconds, args.trace)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    report(rec)
    print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
