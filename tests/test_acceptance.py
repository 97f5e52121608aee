"""Acceptance gate: one check per criterion, at the contract tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines as they complete.  Budgets are wall-clock caps stated by
the contract; sweep sizes are the full ones (no reduced smoke variants).
"""

import json
import time

import pytest

from twinsieve.cli import main as cli_main
from twinsieve.verify import (
    _festi_sweep,
    _feval_sweep,
    _fmult_sweep,
    _fsimple_sweep,
    _gauss_formula_sweep,
    suite_bv,
    suite_convolution,
    suite_scan,
    suite_sieves,
    suite_sievefn,
    suite_singular,
)


def _report(num, name, passed, elapsed=None, detail=""):
    mark = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    extra = f" :: {detail}" if detail else ""
    print(f"[{mark}] criterion {num:2d}: {name}{timing}{extra}")
    assert passed, f"criterion {num}: {name}{extra}"


def test_criterion_01_local_density_formulas():
    t0 = time.time()
    res = _feval_sweep(97)
    elapsed = time.time() - t0
    _report(1, "local-density closed forms exact for odd p <= 97, all m",
            res["passed"] and elapsed < 10, elapsed, res["detail"])


def test_criterion_02_multiplicativity_and_vanishing():
    t0 = time.time()
    r1 = _fmult_sweep(200)
    r2 = _fsimple_sweep(200)
    elapsed = time.time() - t0
    _report(2, "F multiplicativity and square-factor vanishing (q <= 200)",
            r1["passed"] and r2["passed"] and elapsed < 60, elapsed,
            f"{r1['detail']}; {r2['detail']}")


def test_criterion_03_gauss_sum_formula():
    t0 = time.time()
    res = _gauss_formula_sweep(300)
    elapsed = time.time() - t0
    _report(3, "Gauss-sum formula vs direct summation (q <= 300)",
            res["passed"] and elapsed < 60, elapsed, res["detail"])


def test_criterion_04_festi_bounds():
    t0 = time.time()
    res = _festi_sweep(125)
    elapsed = time.time() - t0
    _report(4, "kernel magnitude bounds at prime powers <= 125",
            res["passed"] and elapsed < 120, elapsed, res["detail"])


@pytest.fixture(scope="module")
def singular_checks():
    return {c["check"]: c for c in suite_singular(full=True)}


def test_criterion_05_singular_series(singular_checks):
    a = singular_checks["two singular-series routes agree on 200 random even m"]
    b = singular_checks["series >= 1 - tail for m = 4 mod 6"]
    _report(5, "singular-series consistency and lower bound",
            a["passed"] and b["passed"], detail=a["detail"])


def test_criterion_06_sigmatilde_identity(singular_checks):
    c = singular_checks["twisted/plain local density identity at p | m"]
    _report(6, "twisted/plain local identity exact for odd p <= 97, p | m", c["passed"])


@pytest.fixture(scope="module")
def sieve_checks():
    t0 = time.time()
    checks = {c["check"]: c for c in suite_sieves(full=True)}
    checks["_elapsed"] = time.time() - t0
    return checks


def test_criterion_07_sieve_sandwiches(sieve_checks):
    a = sieve_checks["upper/lower sandwiches on n <= 1e5"]
    b = sieve_checks["composed minorant pointwise bound (distinct-prime convention)"]
    c = sieve_checks["multiplicity convention fails only at documented prime powers"]
    _report(7, "sieve sandwiches and composed-minorant pointwise bound",
            a["passed"] and b["passed"] and c["passed"] and sieve_checks["_elapsed"] < 60,
            sieve_checks["_elapsed"], a["detail"])


def test_criterion_08_sieve_identities(sieve_checks):
    a = sieve_checks["divisor-sum identity on 500 random draws"]
    b = sieve_checks["pointwise envelope sweeps at (beta,s) in {(2,5),(3,6)}"]
    c = sieve_checks["vector-sieve inequality on 1e4 random tuples"]
    _report(8, "divisor-sum identity, pointwise envelopes, vector sieve",
            a["passed"] and b["passed"] and c["passed"])


def test_criterion_09_linear_sieve_functions():
    t0 = time.time()
    checks = {c["check"]: c for c in suite_sievefn(full=True)}
    names = [
        "F(2) = e^gamma and f(2) = 0 to 1e-6",
        "junction continuity within 10 h",
        "weighted minorant margin at s=5 positive",
        "switching constant identity",
        "quadrature vs Monte-Carlo within 3 sigma",
    ]
    ok = all(checks[n]["passed"] for n in names)
    _report(9, "linear-sieve functions, margins, switching constants",
            ok, time.time() - t0,
            "; ".join(checks[n]["detail"] for n in names if checks[n]["detail"]))


@pytest.fixture(scope="module")
def convolution_checks():
    t0 = time.time()
    checks = {c["check"]: c for c in suite_convolution(full=True)}
    checks["_elapsed"] = time.time() - t0
    return checks


def test_criterion_10_convolution_exactness(convolution_checks):
    checks = convolution_checks
    elapsed = checks["_elapsed"]
    a = checks["modular transform vs direct convolution (50 pairs at 4096)"]
    b = checks["weighted prime convolution at m = 10"]
    key = [k for k in checks if k.startswith("float vs exact")][0]
    c = checks[key]
    _report(10, "convolution exactness and float deviation",
            a["passed"] and b["passed"] and c["passed"] and elapsed < 120,
            elapsed, f"{b['detail']}; {c['detail']}")


def test_criterion_11_exceptional_scan():
    t0 = time.time()
    checks = {c["check"].split(":")[0]: c for c in suite_scan(full=True)}
    elapsed = time.time() - t0
    keyed = list(checks.values())
    ok = all(c["passed"] for c in keyed)
    _report(11, "scan integrity, prefix consistency, prediction ratios",
            ok and elapsed < 600, elapsed,
            "; ".join(c["detail"] for c in keyed))


def test_criterion_12_heath_brown_identity(convolution_checks):
    c = convolution_checks["combinatorial decomposition equals Lambda for n <= 10000, J in 2,3"]
    _report(12, "combinatorial decomposition equals Lambda (n <= 1e4, J in {2,3})",
            c["passed"], convolution_checks["_elapsed"])


def test_criterion_13_bv_machinery():
    t0 = time.time()
    checks = {c["check"]: c for c in suite_bv(full=True)}
    elapsed = time.time() - t0
    a = checks["residue-sum drive equals the definitional double loop (q <= 50)"]
    b = checks["exact zeros at q = 1 and P >= q"]
    c = checks["profile at N=1e6, Q=1e3 in budget with P >= q rows vanishing"]
    _report(13, "progression discrepancy machinery",
            a["passed"] and b["passed"] and c["passed"] and elapsed < 300,
            elapsed, c["detail"])


def test_criterion_14_main_term(singular_checks):
    a = singular_checks["main term (1, 1) without hypothesis"]
    b = singular_checks["two main-term assembly orders agree to 1e-10"]
    c = singular_checks["degenerate beta = 1 pair sums"]
    _report(14, "main term: no-hypothesis (1,1), assembly agreement, beta=1 sums",
            a["passed"] and b["passed"] and c["passed"], detail=c["detail"])


def test_criterion_15_determinism(tmp_path):
    t0 = time.time()
    jobs = [
        ("scan", ["scan", "--N", "1500", "--k1", "2", "--k2", "3",
                  "--rough", "0.0667,0.1", "--seed", "5"]),
        ("sseries", ["sseries", "--m", "16", "--cutoff", "10000",
                     "--hyp", "3,0.99", "--seed", "5"]),
        ("sievefn", ["sievefn", "--smax", "6", "--h", "0.001", "--seed", "5"]),
        ("bv", ["bv", "--N", "3000", "--Q", "15", "--P-list", "1,5",
                "--weight", "mu", "--seed", "5"]),
        ("verify", ["verify", "--suite", "singular", "--fast", "--seed", "5"]),
        ("convolve", ["convolve", "--N", "200", "--kind1", "Lambda0",
                      "--kind2", "Lambda0", "--indicator", "--exact", "--seed", "5"]),
    ]
    ok = True
    for command, argv in jobs:
        snapshots = []
        for threads in (1, 4, 8):
            out = tmp_path / f"{command}_t{threads}"
            rc = cli_main(argv + ["--threads", str(threads), "--out", str(out)])
            assert rc == 0
            csv_blobs = tuple(
                sorted((p.name, p.read_bytes()) for p in out.glob("*.csv"))
            )
            with open(out / f"{command}.json") as fh:
                results = json.load(fh)["results"]
            snapshots.append((csv_blobs, json.dumps(results, sort_keys=True)))
        ok &= snapshots[0] == snapshots[1] == snapshots[2]
    _report(15, "CLI artifacts byte-stable across 1/4/8 workers under fixed seed",
            ok, time.time() - t0)
