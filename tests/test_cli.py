import json
import math
import re
from pathlib import Path

import pytest

from twinsieve.cli import main


def run_cli(args):
    return main(args)


def load_report(out_dir, command):
    with open(Path(out_dir) / f"{command}.json") as fh:
        return json.load(fh)


def test_scan_subcommand(tmp_path):
    assert run_cli([
        "scan", "--N", "2000", "--k1", "2", "--k2", "3",
        "--rough", "0.0667,0.1", "--exact", "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "scan")
    assert rep["command"] == "scan"
    assert set(rep["provenance"]) == {"version", "seed", "runtime_ms"}
    assert rep["results"]["exceptional_verified"] is True
    csv_text = (tmp_path / "scan.csv").read_text().splitlines()
    assert csv_text[0] == "m,count,prediction,ratio"
    assert len(csv_text) > 1


def test_scan_predictions_use_the_full_cutoff(tmp_path):
    # N + 2 < cutoff: the CLI's prime table must still reach the cutoff
    from twinsieve.arith import build_prime_table
    from twinsieve.singular import singular_series

    assert run_cli([
        "scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "0.0667,0.1",
        "--cutoff", "100000", "--out", str(tmp_path),
    ]) == 0
    table = build_prime_table(100_000)
    rows = (tmp_path / "scan.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        m, _, prediction, _ = row.split(",")
        m = int(m)
        want = singular_series(m, 100_000, table).value * m / math.log(m) ** 2
        assert float(prediction) == pytest.approx(want, rel=1e-10), m


def test_scan_inf(tmp_path):
    assert run_cli([
        "scan", "--N", "500", "--k1", "inf", "--k2", "inf", "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "scan")
    assert all(m <= 10 for m in rep["results"]["exceptional"])
    # zero roughness exponents are a plain scan too: every even m is sampled
    csv_plain = (tmp_path / "scan.csv").read_bytes()
    assert run_cli([
        "scan", "--N", "500", "--k1", "inf", "--k2", "inf", "--rough", "0,0",
        "--out", str(tmp_path),
    ]) == 0
    assert (tmp_path / "scan.csv").read_bytes() == csv_plain
    assert any(int(r.split(",")[0]) % 6 != 4 for r in csv_plain.decode().splitlines()[1:])


def test_scan_exact_flag_selects_nothing(tmp_path):
    argv = ["scan", "--N", "1500", "--k1", "2", "--k2", "3",
            "--rough", "0.0667,0.1", "--seed", "5"]
    outputs = []
    for extra in ([], ["--exact"]):
        out = tmp_path / f"run{len(extra)}"
        assert run_cli(argv + extra + ["--out", str(out)]) == 0
        outputs.append(((out / "scan.csv").read_bytes(), load_report(out, "scan")["results"]))
    assert outputs[0] == outputs[1]


def test_convolve_subcommand(tmp_path):
    assert run_cli([
        "convolve", "--N", "100", "--kind1", "Lambda0", "--kind2", "Lambda0",
        "--indicator", "--exact", "--out", str(tmp_path),
    ]) == 0
    lines = (tmp_path / "convolve.csv").read_text().splitlines()
    assert lines[0] == "m,value"
    vals = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert vals[10] == 3  # (3,7),(7,3),(5,5)


def test_sseries_subcommand(tmp_path):
    assert run_cli([
        "sseries", "--m", "4", "--cutoff", "10000", "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "sseries")
    res = rep["results"]
    assert {"m", "S", "S_partial", "M", "E", "tail_bound"} <= set(res)
    assert res["M"] == 1.0 and res["E"] == 1.0
    assert run_cli([
        "sseries", "--m", "16", "--cutoff", "10000", "--hyp", "3,0.99",
        "--N", "5000", "--P", "50", "--out", str(tmp_path),
    ]) == 0
    rep2 = load_report(tmp_path, "sseries")
    assert rep2["results"]["E"] == pytest.approx(0.01 * math.log(50))


def test_sseries_error_exit(tmp_path):
    # degenerate m for the hypothesis: clean nonzero exit
    assert run_cli([
        "sseries", "--m", "12", "--cutoff", "10000", "--hyp", "3,0.9",
        "--out", str(tmp_path),
    ]) == 2


def test_verify_subcommand(tmp_path, capsys):
    assert run_cli([
        "verify", "--suite", "singular", "--fast", "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    rep = load_report(tmp_path, "verify")
    assert rep["results"]["passed"] is True


def test_verify_unknown_suite_is_error(tmp_path):
    rc = run_cli(["verify", "--suite", "bogus", "--out", str(tmp_path)])
    assert rc == 2


def test_verify_weights_export(tmp_path):
    csv_path = tmp_path / "weights.csv"
    assert run_cli([
        "verify", "--suite", "singular", "--fast", "--out", str(tmp_path),
        "--weights-csv", str(csv_path),
    ]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "d,lambda_d"
    assert len(lines) > 2


def test_sievefn_subcommand(tmp_path):
    assert run_cli([
        "sievefn", "--smax", "6", "--h", "0.001", "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "sievefn")
    assert rep["results"]["p3_margin"] > 0
    lines = (tmp_path / "sievefn.csv").read_text().splitlines()
    assert lines[0] == "s,f,F"


def test_bv_subcommand(tmp_path):
    assert run_cli([
        "bv", "--N", "2000", "--Q", "12", "--P-list", "1,5,20",
        "--weight", "mu", "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "bv")
    assert rep["results"]["totals"]["20"] == pytest.approx(0.0, abs=1e-6)
    lines = (tmp_path / "bv.csv").read_text().splitlines()
    assert lines[0] == "P,q,a_max,discrepancy"
    profile = (tmp_path / "bv_profile.csv").read_text().splitlines()
    assert profile[0] == "P,total"


def test_memory_budget_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", "400")  # 100 table entries
    rc = run_cli([
        "scan", "--N", "2000", "--k1", "inf", "--k2", "inf", "--out", str(tmp_path),
    ])
    assert rc == 2  # configuration error surfaces as a clean nonzero exit


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("m = 6\ncutoff = 20000\n")
    assert run_cli([
        "sseries", "--m", "4", "--cutoff", "10000",
        "--config", str(cfg), "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "sseries")
    assert rep["config"]["m"] == 6
    assert rep["config"]["cutoff"] == 20000
    # values go through each flag's own converter and choices
    scan = ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--out", str(tmp_path)]
    cfg.write_text("k1 = inf\n")
    assert run_cli(scan + ["--config", str(cfg)]) == 0
    assert load_report(tmp_path, "scan")["config"]["k1"] == "inf"
    bv = ["bv", "--N", "500", "--Q", "5", "--out", str(tmp_path)]
    for line, argv in [("N = abc", scan), ("weight = foo", bv), ("bogus = 1", scan)]:
        cfg.write_text(line + "\n")
        capsys.readouterr()
        assert run_cli(argv + ["--config", str(cfg)]) == 2, line
        assert capsys.readouterr().err.startswith("error:"), line


@pytest.mark.parametrize("argv", [
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "0.1"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "0.1,x"],
    ["sievefn", "--smax", "1"],
    ["sseries", "--m", "4", "--cutoff", "1000", "--hyp", "0,0.5"],
    ["scan", "--N", "0", "--k1", "2", "--k2", "3"],
    ["scan", "--N", "-5", "--k1", "2", "--k2", "3"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--samples", "0"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--samples", "-1"],
    ["convolve", "--N", "0", "--kind1", "Lambda0", "--kind2", "Lambda0"],
    ["bv", "--N", "500", "--Q", "0"],
    ["bv", "--N", "500", "--Q", "5", "--P-list", "0"],
    ["sievefn", "--h", "0"],
    ["sievefn", "--h", "2"],
    ["sievefn", "--h", "-0.001"],
    ["sievefn", "--smax", "nan"],
    ["scan", "--N", "500", "--k1", "0", "--k2", "3"],
    ["convolve", "--N", "500", "--kind1", "Lambda_k", "--kind2", "Lambda0", "--k", "0"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "nan,0.1"],
])
def test_bad_values_exit_2_with_one_line(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def _mask_runtime(text: str) -> str:
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)


def test_thread_count_determinism(tmp_path):
    # identical results and CSV bytes for any worker count; the JSON config
    # block echoes the threads knob itself, so results are compared after
    # parsing (runtime_ms is the one volatile provenance field)
    outputs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        assert run_cli([
            "scan", "--N", "1500", "--k1", "2", "--k2", "3",
            "--rough", "0.0667,0.1", "--seed", "3",
            "--threads", str(threads), "--out", str(out),
        ]) == 0
        rep = load_report(out, "scan")
        outputs[threads] = ((out / "scan.csv").read_bytes(), rep["results"])
    assert outputs[1] == outputs[4] == outputs[8]
