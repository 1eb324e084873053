"""Tests for the command-line entry point."""

import csv
import itertools
import json

import numpy as np
import pytest

from linhop.cli import main
from linhop.hopfield import PatternMatrix
from linhop.poly_approx import ExpPolynomial


def write_patterns(tmp_path):
    rng = np.random.default_rng(0)
    mem = PatternMatrix(rng.uniform(-1, 1, (4, 8)))
    q = PatternMatrix(rng.uniform(-1, 1, (4, 3)), role="query")
    m_path = tmp_path / "m.csv"
    q_path = tmp_path / "q.csv"
    mem.to_csv(m_path)
    q.to_csv(q_path)
    return m_path, q_path


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "--bogus"]) == 2
    capsys.readouterr()


def test_approx_exp_writes_polynomial(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["approx-exp", "--bound", "1", "--delta-a", "1e-3",
                 "--out", str(out)]) == 0
    poly = ExpPolynomial.from_json(out.read_text())
    assert poly.certified_rel_error <= 1e-3
    capsys.readouterr()


def test_approx_exp_infeasible_exits_1(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = main(["approx-exp", "--bound", "64", "--max-degree", "8",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "DegreeExhausted" in err


def test_approx_exp_infinite_bound_exits_1(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["approx-exp", "--bound", "inf", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("InvalidBound: interval_bound")


def test_retrieve_dense_and_lowrank_agree(tmp_path, capsys):
    m_path, q_path = write_patterns(tmp_path)
    z_dense = tmp_path / "zd.csv"
    z_low = tmp_path / "zl.csv"
    for mode, out in (("dense", z_dense), ("lowrank", z_low)):
        code = main(["retrieve", "--memory", str(m_path), "--queries", str(q_path),
                     "--beta", "0.25", "--mode", mode, "--out", str(out)])
        assert code == 0
    zd = np.loadtxt(z_dense, delimiter=",")
    zl = np.loadtxt(z_low, delimiter=",")
    assert np.max(np.abs(zd - zl)) <= 2 * 8 * 1.0 * 1e-3
    sidecar = json.loads((tmp_path / "zl.csv.json").read_text())
    assert sidecar["rank_used"] > 0 and sidecar["degree_used"] > 0
    capsys.readouterr()


def test_retrieve_missing_file_exits_1(tmp_path, capsys):
    code = main(["retrieve", "--memory", str(tmp_path / "none.csv"),
                 "--queries", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "z.csv")])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_retrieve_non_finite_memory_exits_1(tmp_path, capsys, bad):
    _, q_path = write_patterns(tmp_path)
    m_path = tmp_path / "bad.csv"
    m_path.write_text(f"dim=4\n0.1,{bad},0.2,0.3\n0.5,0.1,0.2,0.3\n")
    for mode in ("dense", "lowrank"):
        out = tmp_path / f"z-{mode}.csv"
        code = main(["retrieve", "--memory", str(m_path), "--queries", str(q_path),
                     "--mode", mode, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "NonFiniteInput" in capsys.readouterr().err


def test_retrieve_empty_memory_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("dim=2\n")
    one = tmp_path / "one.csv"
    one.write_text("dim=2\n0.1,0.2\n")
    cases = itertools.product(((empty, one), (one, empty)), ("dense", "lowrank"),
                              ("query", "memory"))
    for (m_path, q_path), mode, normalization in cases:
        code = main(["retrieve", "--memory", str(m_path), "--queries", str(q_path),
                     "--mode", mode, "--normalization", normalization,
                     "--out", str(tmp_path / "z.csv")])
        assert code == 1
        assert "EmptyVector" in capsys.readouterr().err


def test_retrieve_lowrank_huge_entry_exits_1(tmp_path, capsys):
    m_path = tmp_path / "huge.csv"
    m_path.write_text("dim=2\n1e200,1\n")
    q_path = tmp_path / "q.csv"
    q_path.write_text("dim=2\n0.1,0.2\n")
    out = tmp_path / "z.csv"
    code = main(["retrieve", "--memory", str(m_path), "--queries", str(q_path),
                 "--mode", "lowrank", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("InvalidBound: score interval [-inf, inf]")
    assert "Traceback" not in err


def test_retrieve_row_width_mismatch_exits_1(tmp_path, capsys):
    _, q_path = write_patterns(tmp_path)
    m_path = tmp_path / "ragged.csv"
    m_path.write_text("dim=4\n0.1,0.2,0.3,0.4\n\n0.5,0.6\n")
    code = main(["retrieve", "--memory", str(m_path), "--queries", str(q_path),
                 "--out", str(tmp_path / "z.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"DimensionMismatch: {m_path}:4: row has 2 values, header says dim=4" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim=2\n0.1,0.2\n0.1,abc\n", ":3: could not convert string to float: 'abc'"),
        ("dim=two\n0.1,0.2\n", ":1: invalid literal for int() with base 10: 'two'"),
        ("dim=-2\n", ":1: dim=-2 is not positive"),
        ("0.1,0.2\n", ":1: missing dim= header"),
    ],
)
def test_retrieve_malformed_csv_exits_1(tmp_path, capsys, text, message):
    _, q_path = write_patterns(tmp_path)
    m_path = tmp_path / "bad.csv"
    m_path.write_text(text)
    out = tmp_path / "z.csv"
    code = main(["retrieve", "--memory", str(m_path), "--queries", str(q_path),
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"MalformedPatternFile: {m_path}{message}")
    assert "Traceback" not in err


def test_config_file_supplies_flags(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"bound": 1.0, "delta-a": 1e-2}))
    out = tmp_path / "p.json"
    assert main(["approx-exp", "--config", str(conf), "--bound", "2",
                 "--out", str(out)]) == 0
    poly = ExpPolynomial.from_json(out.read_text())
    # explicit --bound wins over the config; delta-a comes from the config
    assert poly.interval_bound == pytest.approx(2.0)
    assert poly.target_rel_error == pytest.approx(1e-2)
    capsys.readouterr()


def test_config_unknown_key_exits_1(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    # "threads" was a flag once; a config that still sets it is unknown too
    for key in ("nonsense", "threads"):
        conf.write_text(json.dumps({key: 1}))
        assert main(["approx-exp", "--config", str(conf), "--bound", "1",
                     "--out", str(tmp_path / "p.json")]) == 1
        assert "unknown config key" in capsys.readouterr().err


def test_bench_error_csv(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(["bench-error", "--delta-a-list", "1e-2,1e-3", "--M", "8",
                 "--L", "8", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two records
    capsys.readouterr()


def test_capacity_csv(tmp_path, capsys):
    out = tmp_path / "cap.csv"
    assert main(["capacity", "--d", "8", "--beta", "1", "--M-list", "1,2",
                 "--trials", "10", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("d,m,beta,M,trials,success_rate,mean_error,seed")
    assert len(lines) == 3
    capsys.readouterr()


def test_capacity_falls_back_where_a_trial_outgrows_the_probe(tmp_path, capsys):
    # a perturbed query has larger entries than any stored pattern, so the
    # batch's fit interval ([-14.84, 14.84]) is one no degree <= 32 certifies
    out = tmp_path / "cap.csv"
    assert main(["capacity", "--d", "4", "--beta", "1", "--M-list", "4",
                 "--trials", "30", "--seed", "0", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["solver"] == "dense-fallback"
    assert rows[0]["M"] == "4" and rows[0]["trials"] == "30"
    capsys.readouterr()


def test_reduction_planted_report(tmp_path, capsys):
    out = tmp_path / "red.json"
    assert main(["reduction", "--n", "8", "--plant", "case1", "--seed", "7",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["agreements"] == report["promised_queries"] > 0
    for j, truth in enumerate(report["oracle"]):
        if truth != "indeterminate":
            assert report["verdicts"][j] == truth
    capsys.readouterr()


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--out", str(out1)]) == 0
    assert main(["verify", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["all_passed"] is True
    capsys.readouterr()
