import csv
import hashlib
import json
import math

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
                         ("signed-zero", (0.0, -0.0)), ("string", "12"))),
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
    assert default.delay == 6
    assert default.content_hash() == small_cfg(decoder=decoder, m=2, d=6).content_hash()
    assert default.content_hash() != small_cfg(decoder=decoder, m=2, d=7).content_hash()


def test_default_delay_is_three_m():
    assert small_cfg(m=4, decoder="swd").delay == 12
    assert small_cfg(d=7).delay == 7


def test_clopper_pearson():
    lo, hi = clopper_pearson(0, 1000)
    assert lo == 0.0 and hi == pytest.approx(0.003682, abs=1e-5)
    lo, hi = clopper_pearson(10, 1000)
    assert lo < 0.01 < hi
    assert clopper_pearson(0, 0) == (0.0, 1.0)


def test_clopper_pearson_is_scipy_stats_beta_ppf_exactly():
    # clopper_pearson calls scipy.special.betaincinv(a, b, q), which
    # beta.ppf(q, a, b) wraps; this pins the identity on the installed scipy
    rng = np.random.default_rng(0)
    pairs = [(0, 0)]
    for bits in [1, 2, 3, 7, 100, 1000, 123_457, 10**6, 10**8, 10**9,
                 *rng.integers(1, 10**9, 20).tolist()]:
        errors = {0, 1, 2, bits // 2, bits - 1, bits, min(bits, 100), min(bits, 227),
                  *rng.integers(0, bits + 1, 15).tolist()}
        pairs += [(e, bits) for e in sorted(errors) if e <= bits]
    a = (1.0 - 0.95) / 2.0  # the tail clopper_pearson derives from conf=0.95
    for errors, bits in pairs:
        lo = 0.0 if errors == 0 else float(beta.ppf(a, errors, bits - errors + 1))
        hi = 1.0 if errors == bits else float(beta.ppf(1.0 - a, errors + 1, bits - errors))
        assert clopper_pearson(errors, bits) == (lo, hi), (errors, bits)


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
RESULTS_DIGESTS = {5: "cb7bbb8fa6f3e109d52ebf1730cfe9a02c8bc94a62bb8df60faf9484cf47fdd8"}


def test_results_version_pins_seeded_results():
    h = hashlib.sha256()
    for over in DIGEST_SWEEPS:
        cfg = SimConfig(L=6, ebn0_grid_db=(1.0, 3.0), seed=4, min_bit_errors=10,
                        max_bits=5000, **over)
        # the counts and mean_iters; the intervals come from scipy
        for r in run_sweep(cfg):
            h.update(repr((r.bits, r.errors, r.p1_bits, r.p1_errors, r.p2_errors,
                           r.mean_iters)).encode())
    assert h.hexdigest() == RESULTS_DIGESTS.get(RESULTS_VERSION), (
        "seeded results differ from those that RESULTS_VERSION names: bump "
        "bmst.harness.RESULTS_VERSION and pin the new digest here")


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
