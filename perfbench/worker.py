"""Measure one workload in this process; run.py starts it with the BLAS
thread counts pinned to 1.

Frames 0..N-1 of the workload's fixed seeded frame set go through
bmst.harness.simulate_frame at grid point 0, one after another. Every
repeat of a frame must give the counts of its first run, and a frame's
time is the mean of its repeats.

--trace 0: end-to-end metrics, tracing off; cycles through the set until
           --seconds have passed and every frame ran.
--trace 1: alternates untraced and traced whole passes of the set, with
           span wrappers installed at the import sites in spec.TRACE_SITES
           for the traced ones, while another pair should end within
           --seconds; prints the per-layer split.

Prints one JSON object on stdout.

Usage: python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback

import spec

sys.path.insert(1, spec.SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bmst  # noqa: E402
import bmst.coupling  # noqa: E402
import bmst.harness  # noqa: E402
import bmst.kernels  # noqa: E402

import gate  # noqa: E402
from spans import Tracer  # noqa: E402

SWD_SPANS = ("harness.decode_frame_swd", "tpd.decode_frame_swd")
GAD_SPANS = ("harness.decode_frame_gad", "tpd.decode_frame_gad")

# counts read at span boundaries, by span name
NOTES = {
    "swd.leave_one_out_boxplus": lambda args, res: {"elems": int(np.size(args[0]))},
    **{name: (lambda args, res: {"iters": int(res.iterations.sum()),
                                 "layers": int(res.iterations.size)})
       for name in SWD_SPANS},
}


class FrameRun:
    """Wall times of a stretch of frames, kept per frame index.

    A frame's time is the mean of its repeats, so that every frame of the
    set weighs the same however many times it ran. The mean uses the whole
    run; the least of a few repeats is an extreme that moves with one lucky
    moment on a shared machine."""

    def __init__(self, cfg, reference):
        self.cfg = cfg
        self.reference = reference  # frame index -> FrameCounts of its first run
        self.times = {}       # frame index -> seconds of each repeat
        self.bits = {}        # frame index -> information bits
        self.attempted = 0
        self.failed = 0
        self.errors = []      # one line per failed frame

    def frame(self, f, tracer=None):
        """Run and time frame f; a frame that raises, or whose counts differ
        from its first run, fails."""
        self.attempted += 1
        ebn0 = self.cfg.ebn0_grid_db[0]
        try:
            t0 = time.perf_counter()
            if tracer is None:
                counts = bmst.harness.simulate_frame(self.cfg, ebn0, 0, f)
            else:
                with tracer.span(spec.FRAME_SPAN):
                    counts = bmst.harness.simulate_frame(self.cfg, ebn0, 0, f)
            dt = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            self.errors.append(f"frame {f}: {traceback.format_exc(limit=3)}")
            return
        self.times.setdefault(f, []).append(dt)
        self.bits[f] = counts.bits
        first = self.reference.setdefault(f, counts)
        if counts != first:
            self.failed += 1
            self.errors.append(f"frame {f}: counts {counts} differ from {first}")

    @property
    def samples(self):
        return sum(len(t) for t in self.times.values())

    def means(self):
        return {f: statistics.fmean(t) for f, t in self.times.items()}

    @property
    def info_bits_per_s(self):
        """Information bits of the frame set per second of its frames."""
        means = self.means()
        return sum(self.bits[f] for f in means) / sum(means.values())

    @property
    def frame_ms_p50(self):
        """Median over the frame set of the per-frame wall times."""
        return statistics.median(self.means().values()) * 1e3


def median_ms(fn, repeat=5):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def self_times_ns(dur, parent):
    """Each span's duration minus the durations of its direct children. The
    tracer opens and closes every child inside its parent, one after
    another, so children never overlap."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered.astype(np.int64)


def layer_metrics(tracer, n_frames):
    """Per-layer metrics from the spans of n_frames traced frames."""
    names = np.array(tracer.names)
    dur = np.array(tracer.end, dtype=np.int64) - np.array(tracer.start, dtype=np.int64)
    self_ns = self_times_ns(dur, np.array(tracer.parent, dtype=np.int64))

    def pick(*span_names):
        return np.isin(names, span_names)

    def ms_per_frame(*span_names, ns=dur):
        return float(ns[pick(*span_names)].sum()) / 1e6 / n_frames

    def calls(*span_names):
        return int(pick(*span_names).sum())

    def us_per_call(name):
        c = calls(name)
        return float(dur[pick(name)].sum()) / 1e3 / c if c else 0.0

    def note_sum(key, *span_names):
        idx = np.flatnonzero(pick(*span_names))
        return sum(tracer.notes[i][key] for i in idx.tolist() if i in tracer.notes)

    loo = "swd.leave_one_out_boxplus"
    elems = note_sum("elems", loo)
    layers = note_sum("layers", *SWD_SPANS)
    return {
        "kernels.loo_boxplus.calls_per_frame": calls(loo) / n_frames,
        "kernels.loo_boxplus.ms_per_frame": ms_per_frame(loo),
        "kernels.loo_boxplus.ns_per_elem": float(dur[pick(loo)].sum()) / elems if elems else 0.0,
        "codes.extrinsic.calls_per_frame": calls("swd.code_extrinsic_llr") / n_frames,
        "codes.extrinsic.ms_per_frame": ms_per_frame("swd.code_extrinsic_llr"),
        "swd.ms_per_frame": ms_per_frame(*SWD_SPANS),
        "swd.self_ms_per_frame": ms_per_frame(*SWD_SPANS, ns=self_ns),
        "swd.iters_per_layer": note_sum("iters", *SWD_SPANS) / layers if layers else 0.0,
        "tpd.phase1_ms_per_frame": ms_per_frame("tpd.decode_frame_swd"),
        "tpd.phase2_ms_per_frame": ms_per_frame(*GAD_SPANS),
        "tpd.gad_cancel.us_per_layer": us_per_call("tpd.gad_cancel"),
        "tpd.gad_minimize.us_per_layer": us_per_call("tpd.gad_minimize"),
        "tpd.side_info_ms_per_frame": ms_per_frame("harness.flipped_side_info",
                                                   "harness.true_branch_words"),
        "coupling.encode_ms_per_frame": ms_per_frame("harness.encode_frame"),
        "channel.ms_per_frame": ms_per_frame("harness.transmit", "harness.channel_llr",
                                             "tpd.channel_llr"),
        "harness.self_ms_per_frame": ms_per_frame(spec.FRAME_SPAN, ns=self_ns),
    }


def sites_restored(originals):
    """True when every traced site holds its original object again."""
    return all(getattr(sys.modules[mod], attr) is fn
               for (mod, attr), fn in originals.items())


def run_info(workload, n_frames):
    """Machine, versions and kernel path recorded with every run."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "frames_per_set": n_frames,
        "kernel_path": "numba" if bmst.kernels.NUMBA_ENABLED else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.abspath(bmst.__file__).startswith(spec.SRC + os.sep):
        raise SystemExit(f"bmst imported from {bmst.__file__}, not from {spec.SRC}")

    n_frames = spec.WORKLOADS[args.workload]["frames"]
    cfg = gate.make_config(args.workload, args.seed)
    bounds = gate.prepare(cfg)
    reference = {}
    record = {"info": run_info(args.workload, n_frames), "seed": args.seed,
              "trace": args.trace, "config": cfg.to_dict()}

    if args.trace == 0:
        run = FrameRun(cfg, reference)
        runs = [run]
        t0 = time.perf_counter()
        k = 0
        while k < n_frames or time.perf_counter() - t0 < args.seconds:
            run.frame(k % n_frames)
            k += 1
        metrics = {"info_bits_per_s": run.info_bits_per_s,
                   "frame_ms_p50": run.frame_ms_p50}
        record["frame_samples"] = run.samples
        record["frame_ms"] = {f: [t * 1e3 for t in ts] for f, ts in run.times.items()}
    else:
        # untraced and traced passes alternate, so that the overhead compares
        # like with like on a machine whose speed drifts
        untraced, traced = FrameRun(cfg, reference), FrameRun(cfg, reference)
        runs = [untraced, traced]
        originals = {(mod, attr): getattr(sys.modules[mod], attr)
                     for mod, attrs in spec.TRACE_SITES.items() for attr in attrs}
        tracer = Tracer()
        t0 = time.perf_counter()
        passes = 0
        while passes == 0 or (time.perf_counter() - t0) * (passes + 1) / passes <= args.seconds:
            for f in range(n_frames):
                untraced.frame(f)
            with tracer.installed(spec.TRACE_SITES, NOTES):
                for f in range(n_frames):
                    tracer.current_frame = passes * n_frames + f
                    traced.frame(f, tracer)
            if not sites_restored(originals):
                raise SystemExit("trace wrappers were not removed")
            passes += 1
        os.makedirs(spec.OUT, exist_ok=True)
        tracer.save(os.path.join(spec.OUT, f"{args.workload}.spans.npz"))
        metrics = layer_metrics(tracer, traced.samples)
        metrics["coupling.make_system_ms"] = median_ms(
            lambda: bmst.coupling.make_system(cfg.code, cfg.m, cfg.L, cfg.seed))
        frames = list(reference.values())
        metrics["analysis.gate_ms"] = median_ms(
            lambda: gate.check(cfg, gate.prepare(cfg), frames))
        metrics["trace_overhead_pct"] = 100.0 * (
            1.0 - traced.info_bits_per_s / untraced.info_bits_per_s)
        record["frame_samples"] = traced.samples
        record["spans"] = len(tracer)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]
    totals = gate.total(reference.values())
    if len(reference) == n_frames:
        ok, detail = gate.check(cfg, bounds, list(reference.values()))
    else:
        ok, detail = False, "not every frame of the set ran"
    if not ok:
        failed = min(attempted, failed + n_frames)
    record.update(
        correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics,
        gate={"ok": ok, "detail": detail}, errors=errors,
        frame_iters=[reference[f].iters for f in sorted(reference)],
        counts={"bits": totals.bits, "bit_errors": totals.errors,
                "iterations": totals.iters, "p1_errors": totals.p1_errors,
                "p2_errors": totals.p2_errors})
    print(json.dumps(record))


if __name__ == "__main__":
    main()
