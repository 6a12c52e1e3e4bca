import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bmst
from bmst.cli import (MAX_GRID_POINTS, load_config, main, parse_grid, parse_rate,
                      short_code_for, UsageError)
from bmst.codes import FAMILIES
from bmst.harness import SimConfig, clopper_pearson


def test_import_loads_no_scipy_stats(tmp_path):
    # bmst runs on numpy alone: with every scipy import made to fail, one
    # process runs simulate (a tiny tpd point), design, bound and predict,
    # the genie floor, the interval and the SISO posteriors. The process
    # pool and numpy.polynomial are imported by the calls that use them, so
    # the seeded frame run first loads neither
    src = str(Path(bmst.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfgp = _write_config(tmp_path / "cfg.json", decoder="tpd", ebn0_grid_db=[2.0],
                         max_bits=20_000)
    code = f"""
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
import bmst, bmst.cli
from bmst import analysis
from bmst.codes import compute_iowef, make_repetition, make_spc, siso_map_decode
from bmst.harness import SimConfig, clopper_pearson, simulate_frame
cfg = SimConfig(code="RC[2,1]^50", m=2, L=8, decoder="tpd", ebn0_grid_db=(2.0,), seed=4)
simulate_frame(cfg, 2.0, 0, 0)
print(sorted(m for m in sys.modules if m.startswith(("concurrent.futures.process",
                                                       "numpy.polynomial"))))
main = bmst.cli.main
assert main(["simulate", {str(cfgp)!r}, "--out", {str(tmp_path / "res.csv")!r}]) == 0
assert main(["design", "--rate", "1/2", "--target", "1e-15", "--family", "rc"]) == 0
assert main(["bound", "--spec", "RC[2,1]^100", "--kind", "genie", "--m", "2",
             "--grid", "1:1:2", "--p-genie", "1e-3"]) == 0
assert main(["predict", "--spec", "RC[2,1]^500", "--m", "8", "--p1", "2.5e-4",
             "--ebn0", "1.5"]) == 0
analysis.genie_floor(compute_iowef(make_repetition(2)), 8, 1e-3)
siso_map_decode(make_spc(4), [[0.9, 0.1], [0.6, 0.4], [0.5, 0.5], [0.2, 0.8]])
print(repr(clopper_pearson(3, 1000)))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0] == "[]"
    assert out[-2] == repr(clopper_pearson(3, 1000))
    rows = list(csv.DictReader((tmp_path / "res.csv").open()))
    assert len(rows) == 1 and int(rows[0]["errors"]) >= 10


def test_parse_rate():
    assert parse_rate("1/2") == pytest.approx(0.5)
    for bad in ("0", "1", "3/2", "x", "1/0"):
        with pytest.raises(UsageError):
            parse_rate(bad)


def test_parse_grid():
    assert parse_grid("1:0.5:2") == [1.0, 1.5, 2.0]
    assert parse_grid("0:1:0") == [0.0]
    for bad in ("1:2", "1:0:2", "2:1:1", "a:b:c"):
        with pytest.raises(UsageError):
            parse_grid(bad)


@pytest.mark.parametrize("grid", [
    "0:1:inf", "inf:1:inf", "-inf:1:0", "nan:1:2", "0:1:nan", "0:nan:1",  # not finite
    "0:1e-10:1e-9",  # rounding to 9 decimals repeats points
    "0:1e-9:1000", "1e17:1:1e18",  # more than MAX_GRID_POINTS
])
def test_bound_refuses_grids_it_cannot_run(tmp_path, capsys, grid):
    out = tmp_path / "bounds.csv"
    assert main(["bound", "--spec", "RC[2,1]^100", "--kind", "lower", "--m", "2",
                 f"--grid={grid}", "--out", str(out)]) == 1
    assert "grid" in capsys.readouterr().err
    assert not out.exists()


def test_parse_grid_keeps_grids_up_to_the_cap():
    assert parse_grid(f"0:1:{MAX_GRID_POINTS - 1}") == list(range(MAX_GRID_POINTS))
    assert parse_grid("0:2e-9:4e-9") == [0.0, 2e-9, 4e-9]


def test_parse_grid_ends_at_its_end():
    # the slack past the end is under half a step, so a tiny step gets no
    # extra point, while the usual grids keep their rounded end point
    assert parse_grid("0:1e-9:2e-9") == [0.0, 1e-9, 2e-9]
    assert parse_grid("0:0.1:1") == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert parse_grid("-1:0.25:1") == [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_grid("0.5:0.05:0.7") == [0.5, 0.55, 0.6, 0.65, 0.7]


def test_short_code_for():
    assert short_code_for("rc", parse_rate("1/4")).N == 4
    assert short_code_for("spc", parse_rate("7/8")).N == 8
    with pytest.raises(UsageError, match="RC code of rate 2/5"):
        short_code_for("rc", parse_rate("2/5"))
    with pytest.raises(UsageError, match="SPC code of rate 1/3"):
        short_code_for("spc", parse_rate("1/3"))
    # beyond the enumeration cap, and an unknown family
    with pytest.raises(UsageError, match="SPC code of rate 99/100"):
        short_code_for("spc", parse_rate("99/100"))
    with pytest.raises(UsageError, match="LDPC code of rate 1/2"):
        short_code_for("ldpc", parse_rate("1/2"))


def test_design_offers_every_family(capsys):
    with pytest.raises(SystemExit):
        main(["design", "--help"])
    assert f"--family {{{','.join(sorted(FAMILIES))}}}" in capsys.readouterr().out


def test_design_command(tmp_path, capsys):
    out = tmp_path / "design.json"
    rc = main(["design", "--rate", "1/2", "--target", "1e-15",
               "--family", "rc", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "memory m       30" in text
    assert "14.99" in text
    doc = json.loads(out.read_text())
    assert doc["m"] == 30
    assert doc["gamma_lim_db"] == pytest.approx(0.19, abs=0.01)


def test_design_usage_errors(capsys):
    assert main(["design", "--rate", "2/3", "--target", "1e-6",
                 "--family", "rc"]) == 1
    assert main(["design", "--rate", "1/2", "--target", "1e-6"]) == 1
    assert main(["nonsense"]) == 1


def test_bound_command_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = main(["bound", "--spec", "RC[2,1]^100", "--kind", "lower",
               "--m", "2", "--grid", "2:1:4", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    assert rows[0]["kind"] == "lower_bound"
    assert float(rows[0]["ber"]) > float(rows[2]["ber"])


def test_bound_genie_needs_p(capsys):
    assert main(["bound", "--spec", "RC[2,1]^100", "--kind", "genie",
                 "--m", "2", "--grid", "2:1:4"]) == 1


@pytest.mark.parametrize("kind, flag", [("basic", ["--m", "3"]),
                                        ("basic", ["--p-genie", "1e-3"]),
                                        ("lower", ["--p-genie", "1e-3"])])
def test_bound_rejects_flags_its_kind_ignores(capsys, kind, flag):
    assert main(["bound", "--spec", "RC[2,1]^100", "--kind", kind,
                 "--grid", "2:1:4", *flag]) == 1
    assert flag[0] in capsys.readouterr().err


def test_bound_stdout(capsys):
    rc = main(["bound", "--spec", "SPC[4,3]^10", "--kind", "basic",
               "--grid", "5:1:6"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ebn0_db,ber,kind,p_genie,m,code"
    assert len(lines) == 3


def test_bound_genie_csv_has_one_block_per_p_genie(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bound", "--spec", "RC[2,1]^10", "--kind", "genie", "--m", "2",
                 "--grid", "1:1:2", "--p-genie", "1e-4", "--p-genie", "1e-2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ebn0_db,ber,kind,p_genie,m,code"
    rows = list(csv.reader(lines[1:]))
    assert [(r[0], r[2], r[3], r[4], r[5]) for r in rows] == [
        ("1", "genie_bound", "0.0001", "2", "RC[2,1]^10"),
        ("2", "genie_bound", "0.0001", "2", "RC[2,1]^10"),
        ("1", "genie_bound", "0.01", "2", "RC[2,1]^10"),
        ("2", "genie_bound", "0.01", "2", "RC[2,1]^10")]


def test_bound_grid_with_a_negative_start(tmp_path):
    # "--grid -1:0.5:0" reads as an unknown option; the = form takes it
    out = tmp_path / "bounds.csv"
    assert main(["bound", "--spec", "RC[2,1]^500", "--kind", "lower", "--m", "30",
                 "--grid=-1:0.5:0", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["ebn0_db"] for r in rows] == ["-1", "-0.5", "0"]


def _config_doc(**over):
    doc = dict(schema_version=1, code="RC[2,1]^20", m=1, L=4,
               decoder="gad_perfect", ebn0_grid_db=[4.0],
               min_bit_errors=10, max_bits=50_000)
    doc.update(over)
    return doc


def _write_config(path, **over):
    path.write_text(json.dumps(_config_doc(**over)))
    return path


def test_simulate_command(tmp_path, capsys):
    cfgp = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "res.csv"
    rc = main(["simulate", str(cfgp), "--out", str(out), "--seed", "3"])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["seed"] == "3"
    assert (tmp_path / "res.config.json").exists()
    # resume run: nothing left to do, still exits cleanly
    assert main(["simulate", str(cfgp), "--out", str(out), "--seed", "3"]) == 0


def test_config_naming_every_field_loads(tmp_path):
    cfgp = _write_config(tmp_path / "cfg.json", d=2, i_max=5, p_genie=0.1,
                         max_seconds=3.0, seed=4, workers=1, stop_threshold=1e-4)
    doc = json.loads(cfgp.read_text())
    doc.pop("schema_version")
    assert set(doc) == {f.name for f in dataclasses.fields(SimConfig)}
    assert load_config(cfgp).to_dict() == doc


# JSON documents that are no config: the wrong top level, a field of the
# wrong JSON type, an unknown field and a missing one
MALFORMED_CONFIGS = {
    "top-level-5": 5, "top-level-null": None, "top-level-list": [],
    "code-5": _config_doc(code=5), "code-null": _config_doc(code=None),
    "code-list": _config_doc(code=["RC[2,1]^20"]), "m-string": _config_doc(m="2"),
    "grid-object": _config_doc(ebn0_grid_db={"a": 1}), "seed-null": _config_doc(seed=None),
    "p_genie-string": _config_doc(p_genie="x"), "unknown-field": _config_doc(bogus=1),
    "missing-field": {k: v for k, v in _config_doc().items() if k != "decoder"},
}


@pytest.mark.parametrize("doc", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
def test_simulate_refuses_malformed_config_with_one_error_line(tmp_path, capsys, doc):
    # exit code 1 is a usage or config error: one line, no traceback, no files
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    out = tmp_path / "res.csv"
    assert main(["simulate", str(cfgp), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "res.config.json").exists()


def test_simulate_refuses_unrunnable_config_before_writing(tmp_path):
    # json.load reads -Infinity, which the run would divide by, and NaN
    for over in (dict(i_max=0), dict(ebn0_grid_db=[4.0, 4.0]),
                 dict(ebn0_grid_db=[float("-inf")]), dict(seed=-1), dict(seed=1.5),
                 dict(m=2.5), dict(m=True), dict(L=3.5), dict(d=4.5), dict(i_max=2.5),
                 dict(stop_threshold=float("nan")),
                 # finite points the channel cannot simulate: sigma = 0 above
                 # about 3083 dB, and no finite sigma below about -3200 dB
                 dict(ebn0_grid_db=[2.0, 4000.0]), dict(ebn0_grid_db=[-4000.0])):
        cfgp = _write_config(tmp_path / "cfg.json", **over)
        out = tmp_path / "res.csv"
        assert main(["simulate", str(cfgp), "--out", str(out)]) == 1
        assert not out.exists() and not (tmp_path / "res.config.json").exists()


def test_simulate_rejects_bad_schema_version(tmp_path):
    cfgp = _write_config(tmp_path / "cfg.json", schema_version=99)
    assert main(["simulate", str(cfgp)]) == 1


def test_simulate_missing_config_is_runtime_error(tmp_path):
    assert main(["simulate", str(tmp_path / "absent.json")]) == 2


def test_predict_command(capsys):
    rc = main(["predict", "--spec", "RC[2,1]^5000", "--m", "30",
               "--p1", "7.0e-6", "--ebn0", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted p_II" in out and "lower bound" in out


def test_predict_p1_zero_is_the_lower_bound(capsys):
    # a genie that is never wrong: predict_floor's own [0, 0.5) rule
    assert main(["predict", "--spec", "RC[2,1]^5000", "--m", "30",
                 "--p1", "0", "--ebn0", "0.5"]) == 0
    pred, lb = (line.split()[-1] for line in capsys.readouterr().out.splitlines())
    assert pred == lb == "3.697e-17"


@pytest.mark.parametrize("ebn0", ["nan", "-inf"])
def test_predict_rejects_ebn0_without_a_noise_level(capsys, ebn0):
    assert main(["predict", "--spec", "RC[2,1]^5000", "--m", "30",
                 "--p1", "1e-3", f"--ebn0={ebn0}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Eb/N0 must be") and "Traceback" not in err


def test_predict_at_an_overflowing_ebn0_is_the_noiseless_limit(capsys):
    args = ["predict", "--spec", "RC[2,1]^5000", "--m", "30", "--p1", "1e-3"]
    assert main([*args, "--ebn0", "inf"]) == 0
    noiseless = capsys.readouterr().out
    assert main([*args, "--ebn0", "4000"]) == 0
    captured = capsys.readouterr()
    assert captured.out == noiseless and captured.err == ""
    pred, lb = (line.split()[-1] for line in noiseless.splitlines())
    iowef = bmst.compute_iowef(bmst.parse_code_spec("RC[2,1]^5000").short)
    assert pred == f"{bmst.analysis.genie_floor(iowef, 30, 1e-3):.3e}"
    assert lb == "0.000e+00"


def test_bound_at_an_overflowing_ebn0_is_zero(capsys):
    # RuntimeWarnings are errors under this suite's filterwarnings
    assert main(["bound", "--spec", "RC[2,1]^10", "--kind", "lower", "--m", "2",
                 "--grid", "3000:100:3200"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [float(r["ber"]) for r in rows] == [0.0, 0.0, 0.0] and captured.err == ""


def test_predict_rejects_bad_p1():
    assert main(["predict", "--spec", "RC[2,1]^5000", "--m", "30",
                 "--p1", "0.7", "--ebn0", "0.5"]) == 1
