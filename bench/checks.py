"""Output checks for the benchmark workloads.

Each check reads the artifacts one CLI process wrote and returns a list of
problems; an empty list means the output is correct.  The scan oracle is
built here from scratch (its own sieve, Omega count, pair count and
singular-series product) and shares no code with ``ntt`` or ``convolve``.
The bv and verify references were recorded from the CLI by
``make_reference.py``; bv values must match within 1e-9 * (1 + |ref|),
loose enough for a reordered float summation, tight enough to catch a
changed row.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REL_TOL * (1.0 + abs(ref))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_report(out_dir: Path, command: str) -> dict:
    with open(out_dir / f"{command}.json") as fh:
        return json.load(fh)["results"]


class ScanOracle:
    """Pair counts and singular-series predictions for the scan workloads.

    Set i holds the primes n <= N whose n + 2 has at most k_i prime factors
    (with multiplicity) and no prime factor <= z_i, where z_i = N^alpha_i
    raised to 3 when smaller, as documented for ``scan --rough``.
    """

    def __init__(self, N: int, k1: int, k2: int, alpha1: float, alpha2: float, cutoff: int):
        if cutoff > N:
            raise ValueError("the oracle's prime table covers the series cutoff only up to N")
        self.N, self.cutoff = N, cutoff
        limit = N + 4
        spf = np.zeros(limit + 1, dtype=np.int64)
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == 0:
                multiples = spf[p * p::p]
                multiples[multiples == 0] = p
        n = np.arange(limit + 1)
        spf[spf == 0] = n[spf == 0]
        self.spf = spf
        self.primes = np.nonzero(spf[2:] == n[2:])[0] + 2
        candidates = self.primes[self.primes <= N]
        shifted = candidates + 2
        omega = np.zeros(len(shifted), dtype=np.int64)
        rest = shifted.copy()
        while (live := rest > 1).any():
            rest[live] //= spf[rest[live]]
            omega[live] += 1
        self.members = []
        for k, alpha in ((k1, alpha1), (k2, alpha2)):
            keep = omega <= k
            if alpha > 0:
                keep &= spf[shifted] > max(N**alpha, 3.0)
            self.members.append(candidates[keep])
        self.in_second = np.zeros(N + 1, dtype=bool)
        self.in_second[self.members[1]] = True
        self._odd_primes = self.primes[(self.primes > 2) & (self.primes <= cutoff)].astype(float)
        self._predictions: dict[int, float] = {}

    def count(self, m: int) -> int:
        """Ordered pairs n1 + n2 = m with n1 in set 1 and n2 in set 2."""
        first = self.members[0]
        partners = m - first[first < m]
        return int(self.in_second[partners[partners <= self.N]].sum())

    def _factor(self, p, m: int):
        r0, r2, r4 = m % p, (m + 2) % p, (m + 4) % p
        return np.where((r0 == 0) | (r4 == 0), 1.0 + (p - 4) / (p - 2) ** 2,
                        np.where(r2 == 0, 1.0 + 2.0 / (p - 2), 1.0 - 4.0 / (p - 2) ** 2))

    def prediction(self, m: int) -> float:
        """S(m) m / log^2 m, with S(m) the twin-sifted series truncated at
        the cutoff plus the exact factors at larger primes dividing
        m(m+2)(m+4).  Memoized: every sample of a run shares its seed."""
        if m not in self._predictions:
            self._predictions[m] = self._prediction(m)
        return self._predictions[m]

    def _prediction(self, m: int) -> float:
        value = 2.0 * float(np.prod(self._factor(self._odd_primes, m)))
        large = set()
        for x in (m, m + 2, m + 4):
            while x > 1:
                p = int(self.spf[x])
                if p > self.cutoff:
                    large.add(p)
                x //= p
        for p in large:
            value *= float(self._factor(float(p), m))
        return value * m / math.log(m) ** 2


def check_scan(out_dir: Path, params: dict, oracle: ScanOracle) -> list[str]:
    problems = []
    results = _read_report(out_dir, "scan")
    if results.get("exceptional_verified") is not True:
        problems.append("exceptional_verified is not true")
    if results.get("exceptional") != params["exceptional"]:
        problems.append(f"exceptional {results.get('exceptional')} != {params['exceptional']}")
    rows = _read_csv(out_dir / "scan.csv")
    ms = [int(r["m"]) for r in rows]
    N = params["N"]
    if len(rows) != params["samples"] or len(set(ms)) != len(ms):
        problems.append(f"{len(rows)} rows, {len(set(ms))} distinct m; want {params['samples']}")
    for row, m in zip(rows, ms):
        if m % 6 != 4 or not N // 2 <= m <= N:
            problems.append(f"sampled m={m} outside the pool")
        elif int(row["count"]) != oracle.count(m):
            problems.append(f"m={m}: count {row['count']} != oracle {oracle.count(m)}")
        elif not _close(float(row["prediction"]), oracle.prediction(m)):
            problems.append(f"m={m}: prediction {row['prediction']} != {oracle.prediction(m)!r}")
    return problems


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def check_bv(out_dir: Path, ref: dict) -> list[str]:
    problems = []
    rows = _read_csv(out_dir / "bv.csv")
    keys = [(int(r["P"]), int(r["q"])) for r in rows]
    if keys != [(P, q) for P, q, _ in ref["rows"]]:
        problems.append("bv.csv (P, q) rows differ from the reference")
    for row, (P, q, disc) in zip(rows, ref["rows"]):
        if not _close(float(row["discrepancy"]), disc):
            problems.append(f"P={P} q={q}: discrepancy {row['discrepancy']} != {disc!r}")
    totals = _read_report(out_dir, "bv").get("totals", {})
    if sorted(totals) != sorted(ref["totals"]):
        problems.append(f"totals for P in {sorted(totals)} != {sorted(ref['totals'])}")
    for P, total in ref["totals"].items():
        if P in totals and not _close(totals[P], total):
            problems.append(f"P={P}: total {totals[P]!r} != {total!r}")
    return problems


def check_verify(out_dir: Path, ref: dict) -> list[str]:
    problems = []
    results = _read_report(out_dir, "verify")
    if results.get("passed") is not True:
        problems.append("passed is not true")
    names = [c["check"] for c in results.get("checks", [])]
    failed = [c["check"] for c in results.get("checks", []) if not c["passed"]]
    if failed:
        problems.append(f"failed checks: {failed}")
    if sorted(names) != sorted(ref["checks"]):
        missing = sorted(set(ref["checks"]) - set(names))
        extra = sorted(set(names) - set(ref["checks"]))
        problems.append(f"check names differ: missing {missing}, unexpected {extra}")
    return problems
