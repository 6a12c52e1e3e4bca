"""Tests of the benchmark's own machinery.

Run with: python3 -m pytest perfbench
"""

import sys

import pytest

import spec

sys.path.insert(1, spec.SRC)

import bmst.harness  # noqa: E402
import bmst.swd  # noqa: E402
import bmst.tpd  # noqa: E402
import numpy as np  # noqa: E402

import gate  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_time_of_nested_spans():
    # 0 [0,100) has children 1 [10,30) and 2 [40,90); 2 has child 3 [50,60)
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 90, 60])
    parent = np.array([-1, 0, 0, 2])
    assert worker.self_times_ns(end - start, parent).tolist() == [30, 20, 40, 10]


def test_tracer_records_parents_and_frames():
    tr = Tracer()
    tr.current_frame = 7
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    with tr.span("next"):
        pass
    assert tr.names == ["outer", "inner", "next"]
    assert tr.parent == [-1, 0, -1]
    assert tr.frame == [7, 7, 7]
    assert all(e >= s for s, e in zip(tr.start, tr.end))


def test_wrapper_returns_what_the_wrapped_function_returns():
    tr = Tracer()
    sentinel = object()
    wrapped = tr.wrap("f", lambda a, b=0: (a, b, sentinel))
    assert wrapped(1, b=2) == (1, 2, sentinel)
    assert tr.names == ["f"]

    y = np.linspace(-2.0, 2.0, 11)
    expected = bmst.harness.channel_llr(y, 0.8)
    with tr.installed({"bmst.harness": ["channel_llr"]}):
        got = bmst.harness.channel_llr(y, 0.8)
    np.testing.assert_array_equal(got, expected)
    assert tr.names[-1] == "harness.channel_llr"


def test_wrappers_are_removed_after_the_traced_run():
    originals = {(mod, attr): getattr(sys.modules[mod], attr)
                 for mod, attrs in spec.TRACE_SITES.items() for attr in attrs}
    tr = Tracer()
    with tr.installed(spec.TRACE_SITES):
        assert bmst.swd.leave_one_out_boxplus is not originals[
            ("bmst.swd", "leave_one_out_boxplus")]
    assert worker.sites_restored(originals)

    with pytest.raises(RuntimeError):
        with tr.installed(spec.TRACE_SITES):
            raise RuntimeError("frame failed")
    assert worker.sites_restored(originals)


def test_traced_frames_give_the_untraced_counts_and_a_consistent_split():
    cfg = bmst.harness.SimConfig(code="RC[2,1]^20", m=2, L=6, decoder="tpd",
                                 ebn0_grid_db=(1.0,), d=3, i_max=4, seed=11)
    reference = {}
    untraced, traced = worker.FrameRun(cfg, reference), worker.FrameRun(cfg, reference)
    for f in range(2):
        untraced.frame(f)
    tr = Tracer()
    with tr.installed(spec.TRACE_SITES, worker.NOTES):
        for f in range(2):
            traced.frame(f, tr)
    assert untraced.failed == traced.failed == 0
    assert traced.samples == 2

    m = worker.layer_metrics(tr, 2)
    assert m["kernels.loo_boxplus.calls_per_frame"] > 0
    assert 0 < m["swd.self_ms_per_frame"] < m["swd.ms_per_frame"]
    assert m["tpd.phase1_ms_per_frame"] == pytest.approx(m["swd.ms_per_frame"])
    iters = sum(c.iters for c in reference.values())
    assert m["swd.iters_per_layer"] == pytest.approx(iters / (2 * cfg.L))
    assert m["tpd.gad_cancel.us_per_layer"] > 0
    # the frame spans cover every layer's span
    frame_ms = sum(e - s for n, s, e in zip(tr.names, tr.start, tr.end)
                   if n == spec.FRAME_SPAN) / 1e6 / 2
    assert m["harness.self_ms_per_frame"] < frame_ms


def test_a_repeat_with_other_counts_fails(monkeypatch):
    cfg = bmst.harness.SimConfig(code="RC[2,1]^20", m=2, L=6, decoder="swd",
                                 ebn0_grid_db=(1.0,))
    results = iter([bmst.harness.FrameCounts(bits=120, errors=0),
                    bmst.harness.FrameCounts(bits=120, errors=1)])
    monkeypatch.setattr(bmst.harness, "simulate_frame", lambda *args: next(results))
    run = worker.FrameRun(cfg, {})
    run.frame(0)
    run.frame(0)
    assert (run.attempted, run.failed) == (2, 1)
    assert "differ" in run.errors[0]


def test_tpd_gate_tolerates_two_error_propagation_frames_only():
    cfg = gate.make_config("tpd-rc2-m8", 0)
    bounds = gate.prepare(cfg)
    FC = bmst.harness.FrameCounts
    quiet = FC(bits=25000, p1_bits=450000, p1_errors=100)
    burst = FC(bits=25000, errors=2964, p1_bits=450000, p1_errors=52441, p2_errors=2964)
    assert gate.check(cfg, bounds, [quiet] * 5 + [burst] * 2)[0]
    assert not gate.check(cfg, bounds, [quiet] * 4 + [burst] * 3)[0]
    # phase-II errors above the noisy-genie limit on the quiet frames
    noisy = FC(bits=25000, errors=2, p1_bits=450000, p1_errors=100, p2_errors=2)
    assert not gate.check(cfg, bounds, [noisy] * 5 + [burst] * 2)[0]
