import csv
import dataclasses
import hashlib
import json
import math
import timeit

import mpmath
import numpy as np
import pytest
from scipy.stats import beta

from bmst.analysis import q_function
from bmst.harness import (RESULTS_VERSION, ConfigError, SimConfig,
                          clopper_pearson, config_sidecar_path, predict_floor,
                          run_point, run_sweep, simulate_frame)


def small_cfg(**over):
    base = dict(code="RC[2,1]^20", m=1, L=4, decoder="gad_perfect",
                ebn0_grid_db=(4.0,), seed=1, min_bit_errors=20,
                max_bits=100_000)
    base.update(over)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(decoder="magic")
    with pytest.raises(ConfigError):
        small_cfg(decoder="gad_flipped")  # needs p_genie
    with pytest.raises(ConfigError):
        small_cfg(ebn0_grid_db=())
    with pytest.raises(ConfigError):
        small_cfg(decoder="tpd", d=0, m=2)  # window shorter than memory
    with pytest.raises(Exception):
        small_cfg(code="RC[2,2]^10")


@pytest.mark.parametrize("field, value", [
    ("i_max", 0), ("d", -2), ("d", -5), ("min_bit_errors", 0), ("max_bits", 0),
    ("workers", 0), ("m", -1), ("L", 0),
    *(pytest.param("ebn0_grid_db", grid, id=f"ebn0_grid_db-{name}")
      for name, grid in (("nan", (math.nan,)), ("inf", (math.inf,)),
                         ("-inf", (2.0, -math.inf)), ("repeated", (4.0, 3.0, 4.0)),
                         ("signed-zero", (0.0, -0.0)), ("string", "12"),
                         ("letters", ["x"]), ("mapping", {"a": 1}), ("number", 5))),
    ("seed", -1), ("m", 2.5), ("L", 3.5), ("seed", 1.5), ("d", 4.5), ("i_max", 2.5),
    ("m", True), ("workers", "2"), ("stop_threshold", math.nan),
    ("stop_threshold", -math.inf)])
def test_config_rejects_values_that_cannot_run(field, value):
    # each would fail mid-run, write an empty row, run as something else, or
    # (a repeated Eb/N0) write rows that a resume skips together
    rule = ("a non-empty list of finite" if field == "ebn0_grid_db"
            else "finite" if field == "stop_threshold"
            else "an integer" if isinstance(value, (bool, float, str)) else ">= ")
    with pytest.raises(ConfigError, match=f"need {field} {rule}"):
        small_cfg(**{field: value})


@pytest.mark.parametrize("kind", ["int", list])
def test_config_refuses_a_field_type_it_cannot_check(kind):
    # a string annotation, as from __future__ import annotations, or a type
    # with no check fails every construction; none is let through unchecked
    extra = dataclasses.make_dataclass("Extra", [("extra", kind, dataclasses.field(default=1))],
                                       bases=(SimConfig,), frozen=True)
    with pytest.raises(TypeError, match="extra has type"):
        extra(code="RC[2,1]^20", m=1, L=4, decoder="swd", ebn0_grid_db=(4.0,))


@pytest.mark.parametrize("field", ["code", "decoder"])
@pytest.mark.parametrize("value", [5, None, ["RC[2,1]^20"], True])
def test_str_fields_refuse_other_types(field, value):
    with pytest.raises(ConfigError, match=f"need {field} a string"):
        small_cfg(**{field: value})


def test_content_hash_tracks_config():
    a, b = small_cfg(), small_cfg()
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != small_cfg(seed=2).content_hash()


def test_numpy_integer_fields_hash_as_ints():
    cfg = small_cfg(m=np.int64(1), L=np.int32(4), seed=np.uint8(1))
    assert (cfg.m, cfg.L, cfg.seed) == (1, 4, 1) and type(cfg.m) is int
    assert cfg.content_hash() == small_cfg().content_hash()


@pytest.mark.parametrize("field, written, value", [
    ("p_genie", 0, 0.0), ("stop_threshold", 1, 1.0), ("max_seconds", 5, 5.0),
    ("p_genie", np.float32(0.25), 0.25), ("max_seconds", np.int64(-1), -1.0)])
def test_float_fields_hash_as_floats(field, written, value):
    # a rerun that writes 0 for 0.0 names the same results
    over = {"decoder": "gad_flipped", "p_genie": 0.1, field: written}
    cfg = small_cfg(**over)
    assert getattr(cfg, field) == value and type(getattr(cfg, field)) is float
    assert cfg.content_hash() == small_cfg(**{**over, field: value}).content_hash()


@pytest.mark.parametrize("field", ["p_genie", "max_seconds", "stop_threshold"])
@pytest.mark.parametrize("value", [True, "0.1", None])
def test_float_fields_refuse_bools_and_strings(field, value):
    with pytest.raises(ConfigError, match=f"need {field} a real number"):
        small_cfg(**{field: value})


def test_content_hash_covers_only_the_fields_the_decoder_reads():
    def same(decoder, **over):
        base = dict(decoder=decoder, p_genie=0.1)
        return (small_cfg(**base).content_hash()
                == small_cfg(**dict(base, **over)).content_hash())

    for decoder in ("swd", "tpd"):
        assert same(decoder, p_genie=0.2)
        for over in (dict(d=5), dict(i_max=3), dict(stop_threshold=1e-3)):
            assert not same(decoder, **over)
    for decoder in ("gad_perfect", "gad_flipped"):
        for over in (dict(d=5), dict(i_max=3), dict(stop_threshold=1e-3)):
            assert same(decoder, **over)
    assert same("gad_perfect", p_genie=0.2)
    assert not same("gad_flipped", p_genie=0.2)
    # the fields every decoder reads stay in
    for decoder in ("swd", "gad_perfect"):
        for over in (dict(seed=2), dict(max_seconds=5.0), dict(min_bit_errors=7),
                     dict(max_bits=999), dict(ebn0_grid_db=(3.0,)), dict(L=5)):
            assert not same(decoder, **over)


@pytest.mark.parametrize("decoder", ["swd", "tpd"])
def test_default_delay_hashes_as_the_window_it_runs(decoder):
    default = small_cfg(decoder=decoder, m=2)  # d = -1 runs d = 3m
    assert default.d == 6
    assert default.content_hash() == small_cfg(decoder=decoder, m=2, d=6).content_hash()
    assert default.content_hash() != small_cfg(decoder=decoder, m=2, d=7).content_hash()


def test_default_delay_is_three_m():
    assert small_cfg(m=4, decoder="swd").d == 12
    assert small_cfg(d=7).d == 7


def test_clopper_pearson():
    lo, hi = clopper_pearson(0, 1000)
    assert lo == 0.0 and hi == pytest.approx(0.003682, abs=1e-5)
    lo, hi = clopper_pearson(10, 1000)
    assert lo < 0.01 < hi
    assert clopper_pearson(0, 0) == (0.0, 1.0)
    for errors, bits in ((5, 3), (-1, 10), (1, 0)):
        with pytest.raises(ValueError, match="errors <= bits"):
            clopper_pearson(errors, bits)


def test_clopper_pearson_matches_scipy_stats_beta_ppf():
    # within 1e-11 relative of scipy.stats.beta.ppf, a test-only oracle,
    # except the upper limit at one or two errors, where scipy is itself up
    # to 1e-8 off: 9.1e-9 at one error in 1e9 bits against mpmath (below).
    # Each call costs at most 20 ms, the best of three
    rng = np.random.default_rng(0)
    pairs = [(0, 0)]
    for bits in [1, 2, 3, 7, 100, 1000, 123_457, 10**6, 10**8, 10**9,
                 *rng.integers(1, 10**9, 20).tolist()]:
        errors = {0, 1, 2, bits // 2, bits - 1, bits, min(bits, 100), min(bits, 227),
                  *rng.integers(0, bits + 1, 15).tolist()}
        pairs += [(e, bits) for e in sorted(errors) if e <= bits]
    for errors, bits in pairs:
        lo = 0.0 if errors == 0 else float(beta.ppf(0.025, errors, bits - errors + 1))
        hi = 1.0 if errors == bits else float(beta.ppf(0.975, errors + 1, bits - errors))
        got = clopper_pearson(errors, bits)
        assert got[0] == pytest.approx(lo, rel=1e-11, abs=0.0), (errors, bits)
        assert got[1] == pytest.approx(hi, rel=2e-8 if errors in (1, 2) else 1e-11,
                                       abs=0.0), (errors, bits)
        cost = min(timeit.repeat(lambda: clopper_pearson(errors, bits), number=1, repeat=3))
        assert cost <= 0.02, (errors, bits, cost)


def _mpmath_beta_quantile(a, b, q, x):
    """The q-quantile of Beta(a, b) in 40-digit mpmath: Newton steps from x
    on the quadrature of the density over the tail on q's side, cut 60
    standard deviations out."""
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        scale = mpmath.beta(a, b)
        sd = mpmath.sqrt(a * b / (a + b + 1)) / (a + b)

        def density(t):
            return t ** (a - 1) * (1 - t) ** (b - 1) / scale

        for _ in range(3):
            if q < 0.5:
                miss = mpmath.quad(density, [max(0, x - 60 * sd), x]) - mpmath.mpf(q)
            else:
                miss = 1 - mpmath.mpf(q) - mpmath.quad(density, [x, min(1, x + 60 * sd)])
            step = miss / density(x)
            x -= step
        assert abs(step) < 1e-25 * x
        return x


@pytest.mark.parametrize("errors", [1, 2, 227, 10**5, 10**9 // 2, 10**9 - 1])
def test_clopper_pearson_matches_mpmath_on_hard_corners(errors):
    # both limits within 1e-12 relative of 40-digit mpmath at 1e9 bits: the
    # ends, where a float x near 1 or a tail near 0 loses precision first,
    # and the large counts, where the log-beta prefactor does
    bits = 10**9
    lo, hi = clopper_pearson(errors, bits)
    for got, a, b, q in ((lo, errors, bits - errors + 1, 0.025),
                         (hi, errors + 1, bits - errors, 0.975)):
        want = _mpmath_beta_quantile(a, b, q, got)
        assert abs(got - want) <= 1e-12 * want, (errors, q)


def test_frame_counts_deterministic():
    cfg = small_cfg()
    a = simulate_frame(cfg, 4.0, 0, 0)
    b = simulate_frame(cfg, 4.0, 0, 0)
    assert (a.bits, a.errors) == (b.bits, b.errors)
    c = simulate_frame(cfg, 4.0, 0, 1)  # different frame index, fresh noise
    assert (a.bits,) == (c.bits,)


def test_run_point_deterministic():
    cfg = small_cfg(ebn0_grid_db=(2.0,), min_bit_errors=50)
    r1 = run_point(cfg, 2.0)
    r2 = run_point(cfg, 2.0)
    assert (r1.bits, r1.errors) == (r2.bits, r2.errors)
    assert r1.ci_low <= r1.ber <= r1.ci_high


def test_worker_count_invariance():
    cfg1 = small_cfg(ebn0_grid_db=(2.0,), min_bit_errors=30, workers=1)
    cfg2 = small_cfg(ebn0_grid_db=(2.0,), min_bit_errors=30, workers=2)
    r1 = run_point(cfg1, 2.0)
    r2 = run_point(cfg2, 2.0)
    assert (r1.bits, r1.errors) == (r2.bits, r2.errors)


def test_sweep_opens_one_pool_and_writes_what_one_worker_writes(tmp_path, monkeypatch):
    import concurrent.futures
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    grid = (2.0, 3.0, 4.0)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    run_sweep(small_cfg(ebn0_grid_db=grid, min_bit_errors=30), out_csv=one)
    assert opened == []
    run_sweep(small_cfg(ebn0_grid_db=grid, min_bit_errors=30, workers=2), out_csv=two)
    assert opened == [2]
    assert two.read_bytes() == one.read_bytes()
    # a point run on its own opens its own pool
    run_point(small_cfg(ebn0_grid_db=grid, min_bit_errors=30, workers=2), 3.0, point_idx=1)
    assert opened == [2, 2]


def test_high_snr_collects_no_errors():
    cfg = small_cfg(ebn0_grid_db=(12.0,), max_bits=2000)
    r = run_point(cfg, 12.0)
    assert r.errors == 0
    assert r.bits >= 2000


def test_wall_clock_truncation_flag():
    cfg = small_cfg(min_bit_errors=10**9, max_bits=10**9, max_seconds=1e-9)
    r = run_point(cfg, 4.0)
    assert r.truncated


def test_sweep_csv_identical_across_runs(tmp_path):
    cfg = small_cfg(ebn0_grid_db=(2.0, 3.0), min_bit_errors=10)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg, out_csv=out1)
    run_sweep(cfg, out_csv=out2)
    assert out1.read_bytes() == out2.read_bytes()
    sidecar = json.loads((tmp_path / "a.config.json").read_text())
    assert sidecar["content_hash"] == cfg.content_hash()


def test_sweep_resume_skips_completed_points(tmp_path):
    cfg = small_cfg(ebn0_grid_db=(2.0, 3.0), min_bit_errors=10)
    out = tmp_path / "r.csv"
    first = run_sweep(cfg, out_csv=out)
    assert len(first) == 2
    again = run_sweep(cfg, out_csv=out)
    assert again == []
    assert len(out.read_text().strip().splitlines()) == 3  # header + 2 rows


def test_sweep_rejects_foreign_results(tmp_path):
    cfg = small_cfg(ebn0_grid_db=(2.0,), min_bit_errors=10)
    out = tmp_path / "r.csv"
    run_sweep(cfg, out_csv=out)
    with pytest.raises(ConfigError):
        run_sweep(small_cfg(ebn0_grid_db=(2.0,), min_bit_errors=10, seed=9),
                  out_csv=out)
    config_sidecar_path(out)
    (tmp_path / "r.config.json").unlink()
    with pytest.raises(ConfigError):
        run_sweep(cfg, out_csv=out)


def test_tpd_point_reports_phase_counters():
    cfg = SimConfig(code="RC[2,1]^20", m=2, L=4, decoder="tpd",
                    ebn0_grid_db=(6.0,), d=4, i_max=6, seed=0,
                    min_bit_errors=1, max_bits=500)
    r = run_point(cfg, 6.0)
    assert r.p1_bits == (r.bits // (4 * 20)) * 4 * 3 * 40  # frames * L * (m+1) * n
    assert r.p2_errors == r.errors


def test_single_antipodal_look_matches_gaussian_tail():
    # RC[2,1] with m=0 and an exact genie is two independent looks at each
    # message bit: BER = Q(sqrt(2 * 2 * R * snr)) with R = 1/2
    g = 6.79
    cfg = SimConfig(code="RC[2,1]^1000", m=0, L=10, decoder="gad_perfect",
                    ebn0_grid_db=(g,), seed=2, min_bit_errors=300,
                    max_bits=10**9)
    r = run_point(cfg, g)
    expect = float(q_function(np.sqrt(2.0 * 10 ** (g / 10))))
    assert r.ci_low <= expect <= r.ci_high


def test_predict_floor_validates_and_computes():
    val = predict_floor("RC[2,1]^5000", 30, 7.0e-6, 0.5)
    assert 0 < val < 1e-15
    with pytest.raises(ValueError):
        predict_floor("RC[2,1]^5000", 30, 0.6, 0.5)


def test_content_hash_ignores_workers_and_names_the_kernel(monkeypatch):
    assert small_cfg(workers=1).content_hash() == small_cfg(workers=2).content_hash()
    base = small_cfg().content_hash()
    monkeypatch.setattr("bmst.harness.RESULTS_VERSION", RESULTS_VERSION + 1)
    assert small_cfg().content_hash() != base


# Seeded sweeps that RESULTS_VERSION names: every decoder, both code
# families, and a d = 0 window decoder, whose windows run one iteration.
DIGEST_SWEEPS = [
    dict(decoder="swd", code="SPC[4,3]^10", m=2, d=4),
    dict(decoder="swd", code="RC[2,1]^20", m=2, d=0),
    dict(decoder="tpd", code="RC[2,1]^20", m=2, d=3),
    dict(decoder="gad_perfect", code="RC[2,1]^20", m=2),
    dict(decoder="gad_flipped", code="SPC[4,3]^10", m=2, p_genie=0.02),
]
# Version 6 (the exact repetition-code extrinsic) moved frames outside
# these sweeps, RC[8,1]^40 at m = 8 among them, and none inside them.
RESULTS_DIGESTS = {5: "cb7bbb8fa6f3e109d52ebf1730cfe9a02c8bc94a62bb8df60faf9484cf47fdd8",
                   6: "cb7bbb8fa6f3e109d52ebf1730cfe9a02c8bc94a62bb8df60faf9484cf47fdd8"}


def test_results_version_pins_seeded_results():
    h = hashlib.sha256()
    for over in DIGEST_SWEEPS:
        cfg = SimConfig(L=6, ebn0_grid_db=(1.0, 3.0), seed=4, min_bit_errors=10,
                        max_bits=5000, **over)
        # the counts and mean_iters: the intervals are a function of the counts
        for r in run_sweep(cfg):
            h.update(repr((r.bits, r.errors, r.p1_bits, r.p1_errors, r.p2_errors,
                           r.mean_iters)).encode())
    assert h.hexdigest() == RESULTS_DIGESTS.get(RESULTS_VERSION), (
        "seeded results differ from those that RESULTS_VERSION names: bump "
        "bmst.harness.RESULTS_VERSION and pin the new digest here")


# The resume identity of a config per decoder, a default d = -1 among them,
# at results version 5: a change to how content_hash serializes a config
# would make every existing CSV refuse to resume.
CONTENT_HASHES = [
    (dict(decoder="swd", code="SPC[4,3]^10", m=2, d=4, max_seconds=30),
     "7ddeb9d68943ef5fd6a2d280ebfeb5a5a627e91eec91077368933d8e4640abad"),
    (dict(decoder="tpd", code="RC[2,1]^20", m=2),
     "36817cd05305d8015515f223fee9b4b5f26895ab3664ff56f386682c4eda13b2"),
    (dict(decoder="gad_perfect", code="RC[2,1]^20", m=2, d=5),
     "6364343c2253ab99874f5679312cad44bc96c1056fa9fc49160b7dc7a22c1a38"),
    (dict(decoder="gad_flipped", code="SPC[4,3]^10", m=2, p_genie=0.02, i_max=4),
     "0b917d88705ea01da382d7caa14f9844ec4c43b157958cbd67654c2c8fa58507"),
]


@pytest.mark.parametrize("over, digest", CONTENT_HASHES,
                         ids=[over["decoder"] for over, _ in CONTENT_HASHES])
def test_content_hash_is_pinned(monkeypatch, over, digest):
    monkeypatch.setattr("bmst.harness.RESULTS_VERSION", 5)
    cfg = SimConfig(L=6, ebn0_grid_db=(1.0, 3.0), seed=4, **over)
    assert cfg.content_hash() == digest


def test_sweep_resumes_with_another_worker_count(tmp_path):
    out = tmp_path / "r.csv"
    run_sweep(small_cfg(ebn0_grid_db=(2.0, 3.0), min_bit_errors=10), out_csv=out)
    before = out.read_bytes()
    again = run_sweep(small_cfg(ebn0_grid_db=(2.0, 3.0), min_bit_errors=10,
                                workers=2), out_csv=out)
    assert again == []
    assert out.read_bytes() == before


def test_sweep_refuses_results_of_another_kernel(tmp_path, monkeypatch):
    cfg = small_cfg(ebn0_grid_db=(2.0,), min_bit_errors=10)
    out = tmp_path / "r.csv"
    run_sweep(cfg, out_csv=out)
    sidecar = tmp_path / "r.config.json"
    stored = json.loads(sidecar.read_text())
    # the identity a sidecar carried before the results version was part of it
    old = hashlib.sha256(json.dumps(cfg.to_dict()).encode()).hexdigest()
    sidecar.write_text(json.dumps(dict(stored, content_hash=old)))
    with pytest.raises(ConfigError):
        run_sweep(cfg, out_csv=out)
    sidecar.write_text(json.dumps(stored))
    monkeypatch.setattr("bmst.harness.RESULTS_VERSION", RESULTS_VERSION + 1)
    with pytest.raises(ConfigError):
        run_sweep(cfg, out_csv=out)


def test_sweep_resume_matches_grid_values_exactly(tmp_path):
    cfg = small_cfg(ebn0_grid_db=(2.1234567, 3.0), min_bit_errors=10)
    out = tmp_path / "r.csv"
    run_sweep(cfg, out_csv=out)
    assert run_sweep(cfg, out_csv=out) == []
    assert run_sweep(cfg, out_csv=out) == []
    rows = list(csv.DictReader(out.open(newline="")))
    assert [float(r["ebn0_db"]) for r in rows] == [2.1234567, 3.0]


def test_sweep_reruns_a_truncated_last_row(tmp_path):
    cfg = small_cfg(ebn0_grid_db=(2.0, 3.0), min_bit_errors=10)
    ref, out = tmp_path / "ref.csv", tmp_path / "r.csv"
    run_sweep(cfg, out_csv=ref)
    run_sweep(cfg, out_csv=out)
    complete = out.read_bytes()
    cut = complete[:complete.rindex(b"\n", 0, -1) + 1]
    for partial in (b"3.0,gad_perfect,400", b"3.0,gad_perfect,400\r\n"):
        out.write_bytes(cut + partial)
        again = run_sweep(cfg, out_csv=out)
        assert [r.ebn0_db for r in again] == [3.0]
        assert out.read_bytes() == ref.read_bytes()
    # a short row that is not the last one was not left by a crash
    lines = complete.splitlines(keepends=True)
    out.write_bytes(lines[0] + b"2.0,gad_perfect,400\r\n" + lines[2])
    with pytest.raises(ConfigError, match="r.csv line 2"):
        run_sweep(cfg, out_csv=out)


def test_sweep_resume_refuses_a_csv_it_cannot_read(tmp_path):
    # the sidecar matches, so the CSV itself is checked
    cfg = small_cfg(ebn0_grid_db=(2.0, 3.0), min_bit_errors=10)
    out = tmp_path / "r.csv"
    run_sweep(cfg, out_csv=out)
    header, *rows = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(header.replace(b"ebn0_db", b"snr_db") + b"".join(rows))
    with pytest.raises(ConfigError, match="r.csv does not start with the results header"):
        run_sweep(cfg, out_csv=out)
    out.write_bytes(header + rows[0].replace(b"2.0,", b"two,", 1) + rows[1])
    with pytest.raises(ConfigError, match="r.csv line 2: bad ebn0_db 'two'"):
        run_sweep(cfg, out_csv=out)
