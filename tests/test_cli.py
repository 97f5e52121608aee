import ast
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twinsieve
from twinsieve.cli import main
from twinsieve.progressions import bv_peak_bytes


def run_cli(args):
    return main(args)


def load_report(out_dir, command):
    with open(Path(out_dir) / f"{command}.json") as fh:
        return json.load(fh)


def test_csv_rows_are_the_bytes_csv_writer_writes(tmp_path):
    # _write_csv joins each row itself; csv.writer of the _fmt fields is the
    # oracle, on ints, Python and numpy floats and numbers %.12g prints oddly
    import csv

    import numpy as np

    from twinsieve.cli import _block_rows, _fmt, _write_csv

    def written_by_csv_writer(path, header, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
        return path.read_bytes()

    floats = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, 5e-324, 1.5e300, 123456789012345.0,
              float("nan"), float("inf"), float("-inf")]
    rows = [(i, -i * 10**12, x, np.float64(x), np.int64(i)) for i, x in enumerate(floats)]
    header = ["P", "q", "a_max", "discrepancy", "lambda_d"]
    for name, body in (("rows", rows), ("empty", [])):
        _write_csv(tmp_path / name, header, body)
        want = written_by_csv_writer(tmp_path / f"{name}.want", header, body)
        assert (tmp_path / name).read_bytes() == want, name
    # numpy columns converted in blocks give the rows of the numpy scalars
    s, f = np.linspace(1.0, 2.0, 11), np.array(floats[:11])
    blocked = list(_block_rows(s, f, block=4))
    assert repr(blocked) == repr(list(zip(s.tolist(), f.tolist())))  # nan != nan
    assert all(type(x) is float for row in blocked for x in row)
    _write_csv(tmp_path / "blocked", ["s", "f"], blocked)
    assert (tmp_path / "blocked").read_bytes() == written_by_csv_writer(
        tmp_path / "blocked.want", ["s", "f"], zip(s, f))


def test_cli_imports_numpy_and_the_standard_library_only():
    # every CLI launch pays for its imports; a quadrature library here once
    # cost half of a one-second scan
    src = str(Path(twinsieve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import twinsieve.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'twinsieve'}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(twinsieve.__path__)])
def test_every_exported_name_is_defined(module):
    # a deletion that leaves its __all__ entry behind breaks the star import
    exec(f"from twinsieve.{module} import *", {})


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


def test_scan_trace_names_the_engine_and_its_bound(tmp_path):
    assert run_cli([
        "scan", "--N", "2000", "--k1", "2", "--k2", "3",
        "--rough", "0.0667,0.1", "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "scan")
    assert set(rep) == {"command", "config", "results", "provenance", "trace"}
    trace = rep["trace"]
    # the rounded float FFT is exact only under a certified bound below 1/4
    assert trace["engine"] == "float"
    assert 0 < trace["roundoff_bound"] < 0.25
    assert trace["classes"] == [5] and trace["stride"] == 1
    assert trace["transform_len"] == 1024  # 2 * 333 - 1 outputs, up to a power of two
    assert 0 <= trace["observed_error"] <= trace["roundoff_bound"]
    assert trace["reverified"] == len(rep["results"]["exceptional"])


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


def test_convolve_trace_names_the_engine_and_its_bound(tmp_path):
    assert run_cli([
        "convolve", "--N", "100", "--kind1", "Lambda0", "--kind2", "Lambda0",
        "--indicator", "--exact", "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "convolve")
    assert set(rep) == {"command", "config", "results", "provenance", "trace"}
    assert set(rep["provenance"]) == {"version", "seed", "runtime_ms"}
    # 0/1 inputs certify the rounded float FFT, so no NTT prime count
    assert set(rep["trace"]) == {"engine", "transform_len", "roundoff_bound", "observed_error"}
    assert rep["trace"]["engine"] == "float"
    assert rep["trace"]["transform_len"] == 256  # 2 * 100 - 1 outputs, up to a power of two
    assert 0 < rep["trace"]["roundoff_bound"] < 0.25


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


def test_sseries_table_reaches_only_the_square_root(tmp_path):
    # m, m + 2 and m + 4 are factored by trial division up to the table's
    # limit squared, so a table to sqrt(m + 4) gives the series a larger one
    # gives; at m = 10**12 a table to m + 4 would be over the memory budget
    from twinsieve.arith import build_prime_table
    from twinsieve.singular import singular_series

    for m, limit in ((999_996, 10**6), (10**12, 2 * 10**6)):
        assert run_cli(["sseries", "--m", str(m), "--out", str(tmp_path)]) == 0
        res = load_report(tmp_path, "sseries")["results"]
        want = singular_series(m, 100_000, build_prime_table(limit))
        assert (res["S"], res["tail_bound"]) == (want.value, want.tail_bound), m


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


def test_verify_trace_holds_each_suite_time_and_check_count(tmp_path):
    assert run_cli(["verify", "--suite", "singular", "--fast", "--out", str(tmp_path)]) == 0
    rep = load_report(tmp_path, "verify")
    assert set(rep) == {"command", "config", "results", "provenance", "trace"}
    assert set(rep["results"]) == {"suite", "passed", "checks"}
    assert set(rep["trace"]) == {"singular"}
    suite = rep["trace"]["singular"]
    assert suite["checks"] == len(rep["results"]["checks"]) and suite["ms"] > 0
    assert len(suite["check_ms"]) == suite["checks"]
    assert all(ms >= 0 for ms in suite["check_ms"])


def test_verify_all_fast_reports_the_benchmark_checks(tmp_path):
    # the benchmark's verify-fast workload compares these names with its
    # reference; a renamed or dropped check fails here first
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify-fast.json"
    want = set(json.loads(reference.read_text())["checks"])
    assert run_cli(["verify", "--suite", "all", "--fast", "--out", str(tmp_path)]) == 0
    rep = load_report(tmp_path, "verify")
    assert rep["results"]["passed"] is True
    assert {c["check"] for c in rep["results"]["checks"]} == want


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


def test_sievefn_bad_eps_writes_nothing(tmp_path, capsys):
    # --eps is refused at parse time, before the output directory is made
    out = tmp_path / "out"
    assert run_cli(["sievefn", "--smax", "6", "--h", "0.001", "--eps", "0",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


def test_sievefn_flag_domains_include_their_closed_ends(tmp_path):
    with pytest.warns(UserWarning, match="coarse"):
        assert run_cli(["sievefn", "--smax", "5", "--h", "1", "--eps", "0.0099",
                        "--out", str(tmp_path)]) == 0
    assert load_report(tmp_path, "sievefn")["config"]["smax"] == 5
    # the floor of --h, parsed only: a march at it takes about a second
    from twinsieve.cli import build_parser

    assert build_parser().parse_args(["sievefn", "--h", "1e-5"]).h == 1e-5


def test_sievefn_margins_read_only_computed_values(tmp_path):
    # chen_margin reads f and F at s = (1/2 - eps) 15, about 7.49: a --smax
    # below that marches on to it, so the margins equal those of a longer
    # grid, and the CSV still stops at --smax
    reports = {}
    for smax in ("5", "10"):
        out = tmp_path / smax
        assert run_cli(["sievefn", "--smax", smax, "--h", "0.001", "--out", str(out)]) == 0
        reports[smax] = load_report(out, "sievefn")["results"]
        last = (out / "sievefn.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == float(smax)
    assert reports["5"] == reports["10"]
    assert reports["5"]["chen_margins"]["f_plain"] == pytest.approx(0.9999989, abs=1e-7)


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


def test_bv_trace_names_the_kernel_and_its_work(tmp_path):
    assert run_cli([
        "bv", "--N", "2000", "--Q", "12", "--P-list", "1,5,20",
        "--weight", "Lambda", "--out", str(tmp_path),
    ]) == 0
    rep = load_report(tmp_path, "bv")
    assert set(rep) == {"command", "config", "results", "provenance", "trace"}
    assert set(rep["provenance"]) == {"version", "seed", "runtime_ms"}
    trace = rep["trace"]
    assert trace["kernel"] == "characters"
    assert trace["moduli"] == 12 and trace["residue_sum_passes"] == 11  # Lambda: every q
    # P = 20 takes every character mod q: sum of phi(q) over 2 <= q <= 12
    assert trace["characters_summed"] == sum(
        sum(math.gcd(a, q) == 1 for a in range(q)) for q in range(2, 13))
    assert trace["table_limit"] == 2000
    assert trace["weight_dtype"] == "float64"
    assert trace["residue_sum_dtypes"] == {"float64": 11}
    assert {"weights_ms", "residue_sums_ms", "corrections_ms"} <= set(trace)


def test_memory_budget_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", "400")  # 100 table entries
    rc = run_cli([
        "scan", "--N", "2000", "--k1", "inf", "--k2", "inf", "--out", str(tmp_path),
    ])
    assert rc == 2  # configuration error surfaces as a clean nonzero exit


def test_scan_memory_plan_covers_the_transform(tmp_path, monkeypatch, capsys):
    # N = 10^5: the table (400 kB) fits 1 MB, even three of its five 2^17 x 8 B float
    # FFT buffers do not; the scan stops before building anything
    from twinsieve.convolve import scan_peak_bytes

    budget = 10**6
    plan = scan_peak_bytes(10**5, 0.0, 0.0, 10**5 + 2)
    assert 4 * (10**5 + 3) < budget < 3 * 8 * 2**17 < plan
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(budget))
    assert run_cli([
        "scan", "--N", str(10**5), "--k1", "inf", "--k2", "inf", "--out", str(tmp_path),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(plan) in err and str(budget) in err
    assert not list(tmp_path.iterdir())  # no report, no CSV
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan))
    assert run_cli([
        "scan", "--N", str(10**5), "--k1", "inf", "--k2", "inf", "--samples", "8",
        "--out", str(tmp_path),
    ]) == 0


@pytest.mark.parametrize("argv,alpha", [
    (["scan", "--N", "10000", "--k1", "inf", "--k2", "inf", "--samples", "8"], 0.0),
    (["scan", "--N", "10000", "--k1", "2", "--k2", "3", "--rough", "0.1,0.1", "--samples", "8"], 0.1),
])
def test_small_scan_plans_cover_their_fixed_working_set(tmp_path, monkeypatch, capsys, argv, alpha):
    # scans at N = 1e4 peak 7.3-7.4 MiB above the import (numpy.random alone is
    # 5.4 MiB) against transform plans under 1 MiB; the plan counts that set,
    # so one byte under it is refused before anything is built, and it runs
    from twinsieve.convolve import scan_peak_bytes

    plan = scan_peak_bytes(10**4, alpha, alpha, 10**4 + 2)
    assert plan > 7.4 * 2**20
    out = tmp_path / "out"
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan - 1))
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: scan plans a peak of {plan} bytes, "
                                       f"over the memory budget of {plan - 1} bytes\n")
    assert not list(out.iterdir())
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan))
    assert run_cli(argv + ["--out", str(out)]) == 0


@pytest.mark.parametrize("argv,limit", [
    (["convolve", "--N", "1000", "--kind1", "Lambda0", "--kind2", "Lambda0"], 1002),
    (["sseries", "--m", "4", "--cutoff", "10000"], 10_000),
    (["bv", "--N", "2000", "--Q", "12", "--weight", "Lambda"], 2000),
    (["bv", "--N", "2000", "--Q", "12"], 1000),  # mu reads the primes <= isqrt(N)
])
def test_table_plans_are_checked_against_the_budget(tmp_path, monkeypatch, capsys, argv, limit):
    # convolve and sseries plan their spf table at 4 B per entry, bv its table
    # and weight arrays: one byte short of the plan is the scan's one error
    # line and no file; the plan itself runs
    plan = 4 * (limit + 1)
    if argv[0] == "bv":
        plan = bv_peak_bytes(2000, 12, 100, "Lambda" if "Lambda" in argv else "mu", limit)
    out = tmp_path / "out"
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan - 1))
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {argv[0]} plans a peak of {plan} bytes, "
                   f"over the memory budget of {plan - 1} bytes\n")
    assert not list(out.iterdir())
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan))
    assert run_cli(argv + ["--out", str(out)]) == 0


def test_sievefn_plans_its_grid_against_the_budget(tmp_path, monkeypatch, capsys):
    # sievefn builds no table: its plan is the march's grid to the furthest
    # node it reads, from --smax, --h and --eps alone; one byte short of the
    # plan is the one error line and no file, and the plan itself runs
    from twinsieve.sievefn import margin_grid_end, sievefn_peak_bytes

    plan = sievefn_peak_bytes(max(6.0, margin_grid_end(1e-3, 1e-3)), 1e-3)
    assert plan > sievefn_peak_bytes(6.0, 1e-3)  # the march runs on to s = 7.485
    argv = ["sievefn", "--smax", "6", "--h", "0.001", "--out", str(tmp_path / "out")]
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan - 1))
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (f"error: sievefn plans a peak of {plan} bytes, "
                                       f"over the memory budget of {plan - 1} bytes\n")
    assert not list((tmp_path / "out").iterdir())
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan))
    assert run_cli(argv) == 0


def test_bv_memory_plan_counts_its_weight_arrays(tmp_path, monkeypatch, capsys):
    # N = 10^5, mu: the table to 1000 fits 100 kB, mu's sieve arrays at 10 B
    # per entry do not; bv stops before building anything
    budget = 10**5
    plan = bv_peak_bytes(10**5, 50, 100, "mu", 1000)
    assert 4 * 1001 < budget < 10 * (10**5 + 1) < plan
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(budget))
    argv = ["bv", "--N", str(10**5), "--Q", "50", "--out", str(tmp_path)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (f"error: bv plans a peak of {plan} bytes, "
                                       f"over the memory budget of {budget} bytes\n")
    assert not list(tmp_path.iterdir())  # no report, no CSV
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan))
    assert run_cli(argv) == 0


def test_bv_memory_plan_counts_the_character_rows(tmp_path, monkeypatch, capsys):
    # Q = P = 1500: the stacked buffer of every character mod q <= 1500 and the
    # rows of one conductor near 1500 as they are built peak some 143-157 MiB
    # above the import; a plan of the table, the weights and the row cache
    # alone said 9 MiB
    plan = bv_peak_bytes(10**5, 1500, 1500, "mu", 1000)
    assert plan > 16 * 1500 * 1501 + 56 * 1500**2
    monkeypatch.setenv("TWINSIEVE_MEMORY_BUDGET", str(plan - 1))
    argv = ["bv", "--N", str(10**5), "--Q", "1500", "--P-list", "1500", "--weight", "mu"]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: bv plans a peak of {plan} bytes, "
                                       f"over the memory budget of {plan - 1} bytes\n")
    assert not list(tmp_path.iterdir())  # refused before anything is built


def test_only_the_commands_build_prime_tables():
    # an engine takes the table its caller built: in the package only the
    # CLI and the verify suites call build_prime_table, and only inside
    # functions that cache nothing
    builders = set()
    for path in sorted(Path(twinsieve.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if "build_prime_table" in (getattr(node, "id", None), getattr(node, "attr", None)):
                assert id(node) in calls, f"{path.name}:{node.lineno} passes the builder on"
                builders.add(path.name)
            if isinstance(node, ast.FunctionDef) and any(
                    "cache" in ast.unparse(d) for d in node.decorator_list):
                text = ast.unparse(node)  # a table in a cache key is a cached table
                assert "PrimeTable" not in text and "build_prime_table" not in text, (
                    f"{path.name}:{node.name}")
        for stmt in tree.body:  # no module-level table
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                assert "build_prime_table(" not in ast.unparse(stmt), f"{path.name}:{stmt.lineno}"
    assert builders == {"cli.py", "verify.py"}


def test_library_code_has_no_bare_assert():
    # a failed precondition is a ValueError or a failed check, never an
    # AssertionError traceback (and python -O would drop the assert)
    for path in sorted(Path(twinsieve.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"


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
    for line, argv in [("N = abc", scan), ("weight = foo", bv), ("bogus = 1", scan),
                       ("exact = true", scan)]:
        cfg.write_text(line + "\n")
        capsys.readouterr()
        assert run_cli(argv + ["--config", str(cfg)]) == 2, line
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, line


def test_config_file_lines_are_flags(tmp_path, capsys):
    # 'key = value' is --key=value (so a leading minus is a value, not a flag)
    # and a bare 'key' is --key; both override the command line
    cfg = tmp_path / "cfg"
    scan = ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "0.2,0.2",
            "--config", str(cfg), "--out", str(tmp_path)]
    cfg.write_text("# scan settings\n\nrough = 0.1,0.1\nexact\n")
    assert run_cli(scan) == 0
    config = load_report(tmp_path, "scan")["config"]
    assert config["rough"] == [0.1, 0.1]
    assert config["exact"] is True
    # the leading minus reaches --rough's own converter, which refuses it
    cfg.write_text("rough = -0.1,0.1\n")
    capsys.readouterr()
    assert run_cli(scan) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --rough: ") and err.count("\n") == 1, err
    cfg.write_text("P_list = 1,2\n")  # the flag --P-list
    assert run_cli(["bv", "--N", "500", "--Q", "5", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
    assert load_report(tmp_path, "bv")["config"]["P_list"] == [1, 2]


def test_config_file_supplies_required_flags(tmp_path, capsys):
    # the file is read before the one parse, so it can carry --N, --k1, --k2
    cfg = tmp_path / "cfg"
    cfg.write_text("N = 500\nk1 = 2\nk2 = 3\n")
    flags = tmp_path / "flags"
    assert run_cli(["scan", "--N", "500", "--k1", "2", "--k2", "3", "--out", str(flags)]) == 0
    for argv in (["--config", str(cfg)], [f"--config={cfg}"]):
        out = tmp_path / "file"
        assert run_cli(["scan", *argv, "--out", str(out)]) == 0
        assert (out / "scan.csv").read_bytes() == (flags / "scan.csv").read_bytes()
    # a missing file, or --config abbreviated, is one error line
    for argv in (["--config", str(tmp_path / "missing")], ["--conf", str(cfg)]):
        capsys.readouterr()
        assert run_cli(["scan", *argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_report_config_echoes_the_parsed_flags(tmp_path):
    assert run_cli(["scan", "--N", "500", "--k1", "inf", "--k2", "3", "--seed", "4",
                    "--out", str(tmp_path)]) == 0
    rep = load_report(tmp_path, "scan")
    assert rep["config"] == {
        "N": 500, "k1": "inf", "k2": 3, "rough": None, "exact": False, "cutoff": 10_000,
        "samples": 512, "threads": 1, "config": None,
    }
    assert rep["provenance"]["seed"] == 4
    assert run_cli(["sseries", "--m", "16", "--cutoff", "1000", "--hyp", "3,0.99",
                    "--out", str(tmp_path)]) == 0
    assert load_report(tmp_path, "sseries")["config"]["hyp"] == [3, 0.99]


@pytest.mark.parametrize("command", ["scan", "convolve", "sseries", "verify", "sievefn", "bv"])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: twinsieve {command}")


def test_bv_refuses_Q_above_N_before_building_a_table(tmp_path, monkeypatch, capsys):
    import twinsieve.cli as cli

    def refuse(limit):
        raise AssertionError("built a table")

    monkeypatch.setattr(cli, "build_prime_table", refuse)
    out = tmp_path / "out"
    assert run_cli(["bv", "--N", "500", "--Q", "501", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: argument --Q: expected an integer <= --N (500), got 501\n")
    assert not list(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "0.1"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "0.1,x"],
    ["sievefn", "--smax", "1"],
    ["sseries", "--m", "4", "--cutoff", "1000", "--hyp", "0,0.5"],
    ["scan", "--N", "0", "--k1", "2", "--k2", "3"],
    ["scan", "--N", "-5", "--k1", "2", "--k2", "3"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--samples", "0"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--samples", "-1"],
    ["scan", "--N", "3", "--k1", "2", "--k2", "3"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--cutoff", "50"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--cutoff", "99"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--cutoff", "x"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--samples", "1.5"],
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
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough=-1,0.1"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "0.1,inf"],
    ["convolve", "--N", "100", "--kind1", "Lambda0", "--kind2", "Lambda0", "--limit", "0"],
    ["convolve", "--N", "100", "--kind1", "Lambda0", "--kind2", "Lambda0", "--limit", "-3"],
    ["convolve", "--N", "100", "--kind1", "Lambda_k", "--kind2", "Lambda0", "--k", "-1"],
    ["sseries", "--m", "0"],
    ["scan", "--N", "abc", "--k1", "2", "--k2", "3"],
    ["bv", "--N", "500", "--Q", "5", "--weight", "foo"],
    ["scan", "--N", "500", "--k1", "x", "--k2", "3"],
    ["bv", "--N", "500", "--Q", "5", "--P-list", "1,x"],
    ["sseries", "--m", "4", "--hyp", "3"],
    ["sseries", "--m", "4", "--hyp", "3.5,0.9"],
    ["scan", "--N", "500", "--k1", "2"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--bogus", "1"],
    ["bogus"],
    ["bv", "--N", "500", "--Q", "501"],
    ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "-1,0.1"],
    # the export reads no suite, so an unwritable path fails before any runs
    ["verify", "--suite", "singular", "--fast", "--weights-csv", "/nonexistent/dir/w.csv"],
])
def test_bad_values_exit_2_with_one_line(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert out == ""


@pytest.mark.parametrize("flag,argv", [
    ("--N", ["scan", "--N", "abc", "--k1", "2", "--k2", "3"]),
    ("--k1", ["scan", "--N", "500", "--k1", "x", "--k2", "3"]),
    ("--rough", ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough", "0.1,x"]),
    ("--weight", ["bv", "--N", "500", "--Q", "5", "--weight", "foo"]),
    ("--P-list", ["bv", "--N", "500", "--Q", "5", "--P-list", "1,x"]),
    ("--hyp", ["sseries", "--m", "4", "--hyp", "3"]),
    ("--suite", ["verify", "--suite", "bogus"]),
    ("--threads", ["sievefn", "--smax", "6", "--h", "0.001", "--threads", "0"]),
    ("--threads", ["sievefn", "--smax", "6", "--h", "0.001", "--threads", "-3"]),
    ("--P", ["sseries", "--m", "4", "--N", "1000", "--P", "0", "--hyp", "3,0.9"]),
    ("--N", ["sseries", "--m", "4", "--N", "0"]),
    ("--rough", ["scan", "--N", "500", "--k1", "2", "--k2", "3", "--rough=-1,0.1"]),
    ("--limit", ["convolve", "--N", "100", "--kind1", "Lambda0", "--kind2", "Lambda0",
                 "--limit", "0"]),
    ("--limit", ["convolve", "--N", "100", "--kind1", "Lambda0", "--kind2", "Lambda0",
                 "--limit", "-3"]),
    ("--k", ["convolve", "--N", "100", "--kind1", "Lambda_k", "--kind2", "Lambda0",
             "--k", "-1"]),
    ("--m", ["sseries", "--m", "-8"]),
    ("--N", ["convolve", "--N", "0", "--kind1", "Lambda0", "--kind2", "Lambda0"]),
    ("--N", ["bv", "--N", "0", "--Q", "5"]),
    ("--Q", ["bv", "--N", "500", "--Q", "0"]),
    ("--Q", ["bv", "--N", "500", "--Q", "-2"]),
    ("--cutoff", ["sseries", "--m", "4", "--cutoff", "99"]),
    ("--Q", ["bv", "--N", "500", "--Q", "501"]),
    # p3_margin reads s = 5, so --smax below it used to fail after the solve
    ("--smax", ["sievefn", "--smax", "4"]),
    ("--smax", ["sievefn", "--smax", "4.99"]),
    ("--smax", ["sievefn", "--smax", "nan"]),
    ("--smax", ["sievefn", "--smax", "inf"]),
    ("--smax", ["sievefn", "--smax", "21"]),
    ("--h", ["sievefn", "--h", "0"]),
    ("--h", ["sievefn", "--h", "1.5"]),
    ("--h", ["sievefn", "--h", "x"]),
    ("--eps", ["sievefn", "--eps", "0"]),
    ("--eps", ["sievefn", "--eps", "0.01"]),
    ("--eps", ["sievefn", "--eps", "nan"]),
    # a march at h = 1e-9 would ask numpy for tens of GiB
    ("--h", ["sievefn", "--h", "1e-9"]),
    # refused when parsed, before the prime table is built
    ("--kind1", ["convolve", "--N", "100", "--kind1", "foo", "--kind2", "Lambda0"]),
    ("--kind1", ["convolve", "--N", "100", "--kind1", "sieve_twisted", "--kind2", "Lambda0"]),
])
def test_bad_flag_values_name_the_flag(tmp_path, capsys, flag, argv):
    # argparse converts and checks every flag, so the message names it
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")


# every numeric and choice flag of every subcommand: the small run it is
# appended to (the last occurrence of a flag wins), then one value inside its
# domain and one outside
_BASE_ARGV = {
    "scan": ["scan", "--N", "500", "--k1", "2", "--k2", "3"],
    "convolve": ["convolve", "--N", "100", "--kind1", "Lambda0", "--kind2", "Lambda0"],
    "sseries": ["sseries", "--m", "4", "--cutoff", "1000"],
    "verify": ["verify", "--suite", "scan", "--fast"],
    "sievefn": ["sievefn", "--smax", "5", "--h", "0.01"],
    "bv": ["bv", "--N", "500", "--Q", "5"],
}
_FLAG_DOMAINS = [
    ("scan", "--N", "400", "3"),
    ("scan", "--k1", "inf", "0"),
    ("scan", "--k2", "2", "-1"),
    ("scan", "--rough", "0,0.1", "0.1,inf"),
    ("scan", "--cutoff", "100", "99"),
    ("scan", "--samples", "1", "0"),
    ("convolve", "--N", "50", "0"),
    ("convolve", "--kind1", "Lambda_E3star", "foo"),
    ("convolve", "--kind2", "Lambda_k", "sieve_twisted"),
    ("convolve", "--k", "1", "0"),
    ("convolve", "--limit", "1", "-3"),
    ("sseries", "--m", "1", "0"),
    ("sseries", "--cutoff", "100", "99"),
    ("sseries", "--hyp", "24,1", "16,0.5"),
    ("sseries", "--N", "1", "0"),
    ("sseries", "--P", "1", "0"),
    ("verify", "--suite", "singular", "bogus"),
    ("sievefn", "--smax", "20", "4.99"),
    ("sievefn", "--h", "1", "1e-6"),
    ("sievefn", "--eps", "0.009", "0.01"),
    ("bv", "--N", "5", "0"),
    ("bv", "--Q", "500", "501"),
    ("bv", "--P-list", "1,500", "1,0"),
    ("bv", "--weight", "Lambda", "foo"),
    *((command, flag, good, bad) for command in _BASE_ARGV
      for flag, good, bad in [("--seed", "7", "-7"), ("--threads", "2", "0")]),
]


def test_the_flag_domain_table_lists_every_numeric_and_choice_flag():
    from twinsieve.cli import build_parser

    (subparsers,) = build_parser()._subparsers._group_actions
    want = {
        (command, action.option_strings[-1])
        for command, sub in subparsers.choices.items() for action in sub._actions
        if action.type is not None or action.choices is not None
    }
    assert {(command, flag) for command, flag, _, _ in _FLAG_DOMAINS} == want


@pytest.mark.parametrize("command,flag,good,bad", _FLAG_DOMAINS)
def test_every_flag_takes_its_domain_and_refuses_outside_it(tmp_path, capsys, command, flag,
                                                            good, bad):
    out = tmp_path / "bad"
    assert run_cli(_BASE_ARGV[command] + [flag, bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1, err
    assert not out.exists() or not list(out.iterdir())  # no report, no CSV
    assert run_cli(_BASE_ARGV[command] + [flag, good, "--out", str(tmp_path / "good")]) == 0
    assert (tmp_path / "good" / f"{command}.json").exists()


def test_a_leading_minus_reaches_the_flag_converter_in_both_spellings(tmp_path, capsys):
    # argparse once took -1,0.1 for a flag and said --rough expected one argument
    errs = []
    for rough in (["--rough", "-1,0.1"], ["--rough=-1,0.1"]):
        argv = ["scan", "--N", "500", "--k1", "2", "--k2", "3", *rough, "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == ("error: argument --rough: expected two comma-separated "
                                  "finite exponents a1,a2 >= 0, got '-1,0.1'\n")


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
