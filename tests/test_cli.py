"""Tests for the command-line entry point."""

import csv
import dataclasses
import itertools
import json

import numpy as np
import pytest

from linhop.bench import ExperimentRecord
from linhop.cli import _atomic_write, main
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


def test_retrieve_infinite_beta_exits_1(tmp_path, capsys):
    m_path, q_path = write_patterns(tmp_path)
    for mode in ("dense", "lowrank"):
        out = tmp_path / f"z-{mode}.csv"
        code = main(["retrieve", "--memory", str(m_path), "--queries", str(q_path),
                     "--beta", "inf", "--mode", mode, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("ValueError: beta must be finite and positive")


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


def test_abbreviated_flag_exits_2_rather_than_losing_to_the_config(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"delta-a": 0.01}))
    out = tmp_path / "p.json"
    assert main(["approx-exp", "--config", str(conf), "--bound", "1",
                 "--delta", "0.001", "--out", str(out)]) == 2
    assert "unrecognized arguments: --delta 0.001" in capsys.readouterr().err
    assert not out.exists()


def test_config_unknown_key_exits_1(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    # "threads" was a flag once; a config that still sets it is unknown too
    for key in ("nonsense", "threads"):
        conf.write_text(json.dumps({key: 1}))
        assert main(["approx-exp", "--config", str(conf), "--bound", "1",
                     "--out", str(tmp_path / "p.json")]) == 1
        assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["bench-phase", "--B-list", "0.5"], {"degree-cap": 16.5}),
        (["bench-phase", "--B-list", "0.5"], {"tau": "256"}),
        (["bench-phase", "--B-list", "0.5"], {"beta": "0.5"}),
        (["bench-phase", "--B-list", "0.5"], {"seed": None}),
        (["approx-exp", "--bound", "1"], {"max-degree": [8]}),
        (["capacity", "--d", "4", "--M-list", "2"], {"eps": {"radius": 1}}),
        (["reduction", "--n", "4"], {"solver": "fast"}),
        (["verify"], {"out": 5}),
    ],
    ids=["int-flag-float", "int-flag-string", "float-flag-string", "null-non-null-default",
         "int-flag-list", "float-flag-object", "choice-outside", "path-number"],
)
def test_config_value_of_another_type_exits_1(tmp_path, capsys, argv, config):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config))
    out = tmp_path / "out"
    if argv != ["verify"]:
        argv = argv + ["--out", str(out)]
    assert main(argv + ["--config", str(conf)]) == 1
    assert not out.exists()
    ((key, value),) = config.items()
    err = capsys.readouterr().err
    assert err.startswith(f"ValueError: config key {key!r}: {value!r} is not a valid value")
    assert "Traceback" not in err


def test_config_values_of_their_flags_types_are_accepted(tmp_path, capsys):
    # a float flag takes a JSON int, a flag whose default is null takes
    # null, and a choice flag one of its choices
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tau": 8, "d": 2, "beta": 1, "degree-cap": 4,
                                "delta-a": 0.01, "seed": 3}))
    out = tmp_path / "phase.csv"
    assert main(["bench-phase", "--B-list", "0.5", "--config", str(conf),
                 "--out", str(out)]) == 0
    (row,) = read_records(out)
    assert (row["tau"], row["d"], row["beta"], row["delta_a"], row["seed"]) == (
        "8", "2", "1", "0.01", "3"
    )
    conf.write_text(json.dumps({"m": None, "eps": None, "trials": 5}))
    out = tmp_path / "capacity.csv"
    assert main(["capacity", "--d", "4", "--M-list", "2", "--config", str(conf),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["m"], row["trials"]) == ("2.0", "5")
    conf.write_text(json.dumps({"plant": None, "solver": "lowrank", "trials": 0}))
    out = tmp_path / "report.json"
    assert main(["reduction", "--n", "4", "--config", str(conf), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["promised_queries"] == 0
    capsys.readouterr()


@pytest.mark.parametrize("key", ["subcommand", "config"])
def test_config_cannot_pick_the_subcommand(tmp_path, capsys, key):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: "verify"}))
    out = tmp_path / "p.json"
    assert main(["approx-exp", "--config", str(conf), "--bound", "1",
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"ValueError: unknown config key '{key}'")


def test_bench_error_csv(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(["bench-error", "--delta-a-list", "1e-2,1e-3", "--M", "8",
                 "--L", "8", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two records
    capsys.readouterr()


def read_records(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [f.name for f in dataclasses.fields(ExperimentRecord)]
    return rows


def test_bench_scaling_csv_and_summary(tmp_path, capsys):
    out, summary = tmp_path / "scaling.csv", tmp_path / "summary.json"
    assert main(["bench-scaling", "--tau", "16,32", "--d", "2", "--out", str(out),
                 "--summary", str(summary)]) == 0
    rows = read_records(out)
    assert [(r["kind"], r["tau"]) for r in rows] == [("scaling", "16"), ("scaling", "32")]
    report = json.loads(summary.read_text())
    assert set(report) == {"slopes", "records", "flags", "machine"}
    assert set(report["slopes"]) == {"dense", "lowrank"}
    assert report["records"] == 2
    printed = capsys.readouterr().out
    assert "dense slope" in printed and "lowrank slope" in printed


def test_bench_scaling_empty_tau_list_exits_1(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["bench-scaling", "--tau", ",", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("ValueError: tau list must not be empty")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["capacity", "--d", "0", "--M-list", "2"], None, "d must be >= 1"),
        (["bench-scaling", "--tau", "16", "--d", "0"], None, "d must be >= 1"),
        (["bench-phase", "--B-list", "0.5", "--d", "0"], None, "d must be >= 1"),
        (["bench-error", "--delta-a-list", "1e-3", "--d", "0"], None, "d must be >= 1"),
        (["bench-phase", "--B-list", "0.5"], {"d": 0}, "d must be >= 1"),
        (["reduction", "--n", "4", "--trials", "-1"], None, "trials must be >= 0, got -1"),
        (["capacity", "--d", "4", "--M-list", "2", "--m", "0"], None,
         "m must be finite and positive, got 0.0"),
        (["capacity", "--d", "4", "--M-list", "2", "--m", "-1"], None,
         "m must be finite and positive, got -1.0"),
        (["capacity", "--d", "4", "--M-list", "2", "--m", "inf"], None,
         "m must be finite and positive, got inf"),
        (["capacity", "--d", "4", "--M-list", "2", "--eps=-1"], None,
         "eps must be >= 0, got -1.0"),
        (["capacity", "--d", "4", "--M-list", "2", "--eps", "nan"], None,
         "eps must be >= 0, got nan"),
        (["bench-phase", "--B-list", "inf"], None, "B must be finite and positive, got inf"),
        (["bench-phase", "--B-list=-1"], None, "B must be finite and positive, got -1.0"),
        (["bench-phase", "--B-list", "0"], None, "B must be finite and positive, got 0.0"),
        (["bench-error", "--delta-a-list", "1e-3", "--B", "inf"], None,
         "B must be finite and positive, got inf"),
        (["bench-scaling", "--tau", "16", "--B", "inf"], None,
         "B must be finite and positive, got inf"),
        (["bench-scaling", "--tau", "16", "--B", "0"], None,
         "B must be finite and positive, got 0.0"),
    ],
    ids=["capacity", "bench-scaling", "bench-phase", "bench-error", "config-d",
         "reduction-trials", "capacity-m-0", "capacity-m-negative", "capacity-m-inf",
         "capacity-eps-negative", "capacity-eps-nan", "bench-phase-B-inf",
         "bench-phase-B-negative", "bench-phase-B-0", "bench-error-B-inf",
         "bench-scaling-B-inf", "bench-scaling-B-0"],
)
def test_out_of_range_counts_exit_1(tmp_path, capsys, argv, config, message):
    out = tmp_path / "out"
    if config is not None:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        argv = argv + ["--config", str(conf)]
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"ValueError: {message}")
    assert "Traceback" not in err


def test_bench_phase_csv_flags_an_exhausted_degree(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    assert main(["bench-phase", "--B-list", "0.5,3", "--tau", "8", "--d", "2",
                 "--degree-cap", "4", "--out", str(out)]) == 0
    rows = read_records(out)
    assert [(r["kind"], r["B"], r["flag"]) for r in rows] == [
        ("phase", "0.5", ""),
        ("phase", "3.0", "degree-exhausted"),
    ]
    assert int(rows[0]["g"]) > 0 and rows[1]["g"] == rows[1]["r_prime"] == "-1"
    assert "wrote 2 records" in capsys.readouterr().out


def test_atomic_write_leaves_no_temp_file_when_the_writer_fails(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"kept\n")

    def failing(tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(str(target), failing)
    assert target.read_bytes() == b"kept\n"
    assert list(tmp_path.glob("*.tmp")) == []

    def interrupted(tmp):
        raise KeyboardInterrupt

    # an interrupt cleans up too, and a new target is never created
    with pytest.raises(KeyboardInterrupt):
        _atomic_write(str(tmp_path / "new.csv"), interrupted)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


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


def test_reduction_trial_loop_report(tmp_path, capsys):
    out = tmp_path / "red.json"
    assert main(["reduction", "--n", "4", "--trials", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["agreement_fraction"] == 1.0
    assert [(t["trial"], t["kind"]) for t in report["per_trial"]] == [
        (0, "case1-planted"), (1, "case2-planted"),
    ]
    assert "agreement 8/8 on promised queries" in capsys.readouterr().out


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--out", str(out1)]) == 0
    assert main(["verify", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["all_passed"] is True
    capsys.readouterr()
