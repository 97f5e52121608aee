"""Tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import summarize  # noqa: E402
from workloads import END_TO_END, PER_LAYER, Workload, traced_metric_names  # noqa: E402

TINY_N = 3000
TINY_SCAN_ARGV = ("scan", "--N", str(TINY_N), "--k1", "2", "--k2", "3",
                  "--rough", "0.0667,0.1", "--exact", "--cutoff", "1000", "--samples", "20")


@pytest.fixture(scope="module")
def oracle():
    return checks.ScanOracle(TINY_N, 2, 3, 0.0667, 0.1, 1000)


@pytest.fixture(scope="module")
def tiny_scan(oracle):
    exceptional = [m for m in range(4, TINY_N + 1, 6) if oracle.count(m) == 0]
    params = {"N": TINY_N, "k1": 2, "k2": 3, "alpha1": 0.0667, "alpha2": 0.1,
              "cutoff": 1000, "samples": 20, "exceptional": exceptional}
    return Workload("tiny-scan", TINY_SCAN_ARGV, "tiny scan for tests", "scan", params)


@pytest.fixture()
def scan_output(tmp_path, tiny_scan):
    from twinsieve.cli import main

    assert main([*tiny_scan.argv, "--seed", "7", "--out", str(tmp_path)]) == 0
    return tmp_path


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert traced_metric_names() == list(PER_LAYER)
    sample = run.Sample(wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, setup_s=1.0, import_ms=1.0,
                        returncode=0, host_s=1.0)
    assert set(run.end_to_end([sample])) == set(END_TO_END)


def test_times_are_scaled_by_the_calibration_around_each_sample():
    def sample(wall, host):
        return run.Sample(wall_s=wall, cpu_s=wall / 2, peak_rss_mb=100.0, setup_s=0.5,
                          import_ms=1.0, returncode=0, host_s=host)

    ref = run.REFERENCE_S
    # the same work on a host running at half and at full reference speed
    samples = [sample(8.0, 2 * ref), sample(4.0, ref), sample(8.0, 2 * ref)]
    scaled = run.end_to_end(samples)
    assert scaled["wall_s"] == pytest.approx(4.0)
    assert scaled["cpu_s"] == pytest.approx(2.0)
    assert scaled["setup_s"] == pytest.approx(0.25)
    assert scaled["peak_rss_mb"] == pytest.approx(100.0)
    assert run.end_to_end(samples, scaled=False)["wall_s"] == pytest.approx(8.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace, tiny_scan, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, tiny_scan.name, tiny_scan)
    monkeypatch.chdir(ROOT)
    rc = run.main(["--workload", tiny_scan.name, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["convolve.exceptional_scan.calls"] == 1
        assert values["ntt.exact_convolve.calls"] == 1
        assert values["convolve.sampled_m"] == 20
        assert values["arith.primes"] > 0


def test_scan_check_accepts_and_rejects(scan_output, tiny_scan, oracle):
    assert checks.check_scan(scan_output, tiny_scan.params, oracle) == []
    path = scan_output / "scan.csv"
    lines = path.read_text().splitlines()
    m, count, *rest = lines[5].split(",")
    lines[5] = ",".join([m, str(int(count) + 1), *rest])
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_scan(scan_output, tiny_scan.params, oracle)
    assert len(problems) == 1 and f"m={m}: count" in problems[0]


def test_scan_check_rejects_unverified_exceptional(scan_output, tiny_scan, oracle):
    report = json.loads((scan_output / "scan.json").read_text())
    report["results"]["exceptional_verified"] = False
    (scan_output / "scan.json").write_text(json.dumps(report))
    assert checks.check_scan(scan_output, tiny_scan.params, oracle)


def _write_verify(out_dir: Path, names, passed=True):
    checks_out = [{"check": n, "passed": True, "detail": ""} for n in names]
    report = {"results": {"suite": "all", "passed": passed, "checks": checks_out}}
    (out_dir / "verify.json").write_text(json.dumps(report))


def test_verify_check_rejects_a_dropped_check(tmp_path):
    ref = checks.load_reference("verify-fast")
    _write_verify(tmp_path, ref["checks"])
    assert checks.check_verify(tmp_path, ref) == []
    _write_verify(tmp_path, ref["checks"][:10] + ref["checks"][11:])
    problems = checks.check_verify(tmp_path, ref)
    assert problems and ref["checks"][10] in problems[0]
    _write_verify(tmp_path, ref["checks"], passed=False)
    assert checks.check_verify(tmp_path, ref)


def _write_bv(out_dir: Path, rows, totals):
    lines = ["P,q,a_max,discrepancy"] + [f"{P},{q},1,{d!r}" for P, q, d in rows]
    (out_dir / "bv.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "bv.json").write_text(json.dumps({"results": {"totals": totals}}))


def test_bv_check_rejects_a_row_off_by_1e_6(tmp_path):
    ref = checks.load_reference("bv-mu")
    rows = [list(r) for r in ref["rows"]]
    _write_bv(tmp_path, rows, ref["totals"])
    assert checks.check_bv(tmp_path, ref) == []
    i = next(i for i, r in enumerate(rows) if 1 < abs(r[2]) < 100)
    rows[i][2] += 1e-6
    _write_bv(tmp_path, rows, ref["totals"])
    problems = checks.check_bv(tmp_path, ref)
    assert len(problems) == 1 and f"q={rows[i][1]}:" in problems[0]


def test_self_time_on_a_synthetic_span_tree():
    def span(i, parent, name, start, end, **counters):
        return {"id": i, "parent": parent, "name": name, "via": "x",
                "start": start, "end": end, "counters": counters}

    spans = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "m.f", 1.0, 4.0, **{"arith.primes": 5}),
        span(2, 0, "m.g", 5.0, 9.0),
        span(3, 2, "m.f", 6.0, 8.0, **{"arith.primes": 7}),
        span(4, 3, "m.f", 6.5, 7.0),  # recursion: not counted twice in .ms
    ]
    out = summarize(spans)
    assert out["cli.main.ms"] == pytest.approx(10_000)
    assert out["cli.main.self_ms"] == pytest.approx(3_000)
    assert out["m.g.ms"] == pytest.approx(4_000)
    assert out["m.g.self_ms"] == pytest.approx(2_000)
    assert out["m.f.ms"] == pytest.approx(5_000)
    assert out["m.f.self_ms"] == pytest.approx(3_000 + 1_500 + 500)
    assert out["m.f.calls"] == 3
    assert out["arith.primes"] == 12


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "bv-mu",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
