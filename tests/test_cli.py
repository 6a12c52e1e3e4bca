import csv
import dataclasses
import json

import pytest

from bmst.cli import (load_config, main, parse_grid, parse_rate, short_code_for,
                      UsageError)
from bmst.harness import SimConfig


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


def test_short_code_for():
    assert short_code_for("rc", parse_rate("1/4")).N == 4
    assert short_code_for("spc", parse_rate("7/8")).N == 8
    with pytest.raises(UsageError):
        short_code_for("rc", parse_rate("2/5"))
    with pytest.raises(UsageError):
        short_code_for("spc", parse_rate("1/3"))


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


def _write_config(path, **over):
    doc = dict(schema_version=1, code="RC[2,1]^20", m=1, L=4,
               decoder="gad_perfect", ebn0_grid_db=[4.0],
               min_bit_errors=10, max_bits=50_000)
    doc.update(over)
    path.write_text(json.dumps(doc))
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


def test_simulate_rejects_unknown_field(tmp_path):
    cfgp = _write_config(tmp_path / "cfg.json", bogus=1)
    assert main(["simulate", str(cfgp)]) == 1


def test_simulate_rejects_missing_field(tmp_path):
    doc = json.loads(_write_config(tmp_path / "cfg.json").read_text())
    del doc["decoder"]
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert main(["simulate", str(tmp_path / "cfg.json")]) == 1


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


def test_predict_rejects_bad_p1():
    assert main(["predict", "--spec", "RC[2,1]^5000", "--m", "30",
                 "--p1", "0.7", "--ebn0", "0.5"]) == 1
