"""The benchmark in perfbench/ wraps bmst functions at their import sites
(perfbench/spec.py, TRACE_SITES). A site that no longer resolves makes the
traced run fail with AttributeError, and a site that is never called reads
0; these tests catch both in the tier-1 suite."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import bmst
import bmst.harness
import bmst.tpd
from bmst.harness import SimConfig, simulate_frame
from bmst.tpd import decode_frame_tpd

SPEC_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"


def _bench_spec():
    """perfbench/spec.py, which is pure data and imports no bmst module."""
    spec = importlib.util.spec_from_file_location("perfbench_spec", SPEC_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE_SITES = [(module, attr) for module, attrs in _bench_spec().TRACE_SITES.items()
               for attr in attrs]


@pytest.mark.parametrize("module,attr", TRACE_SITES)
def test_trace_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_every_trace_site_is_called(monkeypatch):
    # a node kernel inlined into its caller would zero the benchmark's
    # kernels and codes layers without an error; here it fails
    sites = [f"{module}.{attr}" for module, attr in TRACE_SITES]
    ran = []
    for (module, attr), site in zip(TRACE_SITES, sites):
        mod = importlib.import_module(module)

        def counted(*args, _inner=getattr(mod, attr), _site=site, **kwargs):
            ran.append(_site)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    calls = {}
    for decoder, extra in [("swd", {}), ("tpd", {}), ("gad_perfect", {}),
                           ("gad_flipped", {"p_genie": 0.05})]:
        cfg = SimConfig(code="RC[2,1]^10", m=2, L=5, decoder=decoder,
                        ebn0_grid_db=(2.0,), **extra)
        simulate_frame(cfg, 2.0, 0, 0)
        calls[decoder] = set(ran)
        ran.clear()
    assert set().union(*calls.values()) == set(sites)
    for decoder in ("swd", "tpd"):
        assert {"bmst.swd.leave_one_out_boxplus", "bmst.swd.code_extrinsic_llr"} <= calls[decoder]


def test_tpd_frame_calls_the_traced_gad_sites(monkeypatch):
    calls = {"gad_cancel": 0, "gad_minimize": 0}
    correlations = []
    for name in calls:
        inner = getattr(bmst.tpd, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            if _name == "gad_minimize":
                correlations.append(args[1])
            return _inner(*args)

        monkeypatch.setattr(bmst.tpd, name, counted)
    sys_ = bmst.make_system("RC[2,1]^10", m=2, L=5, seed=0)
    msgs = np.random.default_rng(1).integers(0, 2, (5, sys_.k), dtype=np.uint8)
    y = bmst.bpsk_map(bmst.encode_frame(sys_, msgs))
    u_hat, _ = decode_frame_tpd(sys_, y, 0.5, d=2, i_max=4)
    assert np.array_equal(u_hat, msgs)
    # one call each per frame: perfbench's tpd.gad_*.us_per_layer metrics
    # divide by the calls, so they read microseconds per frame
    assert calls == {"gad_cancel": 1, "gad_minimize": 1}
    # the spans split at the (L, n) correlations: the branch gathers run
    # inside gad_cancel, and gad_minimize only takes the codebook argmax
    [r] = correlations
    assert r.shape == (sys_.L, sys_.n) and r.dtype == np.float64


@pytest.mark.parametrize("decoder, site", [("swd", bmst.harness), ("tpd", bmst.tpd)])
def test_window_decoder_spans_return_iterations_per_layer(monkeypatch, decoder, site):
    # perfbench/worker.py reads res.iterations.sum() and .size from both
    # decode_frame_swd spans for swd.iters_per_layer: one integer per layer
    results = []
    inner = site.decode_frame_swd

    def recorded(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(site, "decode_frame_swd", recorded)
    cfg = SimConfig(code="RC[2,1]^10", m=2, L=5, decoder=decoder, ebn0_grid_db=(2.0,))
    counts = simulate_frame(cfg, 2.0, 0, 0)
    [res] = results
    assert res.iterations.shape == (cfg.L,)
    assert np.issubdtype(res.iterations.dtype, np.integer)
    assert res.iterations.sum() == counts.iters
