"""Batch command-line surface: scan, convolve, sseries, verify, sievefn, bv.

Every subcommand writes a JSON report {command, config, results,
provenance: {version, seed, runtime_ms}} plus subcommand-specific CSV
artifacts; scan and convolve add a top-level ``trace`` with the engine
facts of their product, bv one with its kernel's work and stage times,
and verify one with each suite's time and number of checks.  All
computation is deterministic under a fixed seed; the thread-count knob is
accepted for interface stability (the engines are deterministic
regardless of it), so artifacts are byte-stable apart from the volatile
runtime_ms field and the traces' times.  argparse is
the one parser and checker of flag values, for the command line and
``--config`` files alike; every bad value is a single ``error:`` line and
exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from pathlib import Path

from . import __version__
from .arith import TABLE_LIMIT_MAX, ConfigurationError, PrimeTable, build_prime_table
from .characters import ExceptionalZeroHypothesis
from .convolve import build_sequence, convolve, exceptional_scan, scan_peak_bytes
from .progressions import bv_peak_bytes, bv_profile, profile_totals
from .sieves import linear_sieve
from .sievefn import (
    chen_constants, chen_margin, margin_grid_end, p3_margin, sievefn_peak_bytes,
    solve_linear_sieve_functions,
)
from .singular import main_term_M, partial_singular_series, singular_series
from .verify import SUITES, run_suite

_FLOAT_FMT = "%.12g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return _FLOAT_FMT % x
    return str(x)


def _check_budget(args: argparse.Namespace, plan: int) -> None:
    """Refuse the run if its planned peak in bytes exceeds
    TWINSIEVE_MEMORY_BUDGET, in bytes; unset, the budget is the size of the
    largest prime table."""
    raw = os.environ.get("TWINSIEVE_MEMORY_BUDGET")
    budget = 4 * TABLE_LIMIT_MAX if raw is None else int(raw)
    if plan > budget:
        raise ConfigurationError(f"{args.command} plans a peak of {plan} bytes, "
                                 f"over the memory budget of {budget} bytes")


def _prime_table(args: argparse.Namespace, limit: int, plan: int | None = None) -> PrimeTable:
    """The command's prime table to ``limit``, built only after the run's
    planned peak (by default the table's own 4 B per entry) passes
    _check_budget."""
    _check_budget(args, 4 * (limit + 1) if plan is None else plan)
    return build_prime_table(limit)


#: csv.writer's default line terminator
_CSV_EOL = "\r\n"


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The bytes ``csv.writer`` writes for the header and the ``_fmt`` rows,
    joined here a whole row at a time: every field is a plain word or a
    number, which csv.writer never quotes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + _CSV_EOL)
        fh.writelines(",".join(map(_fmt, row)) + _CSV_EOL for row in rows)


def _block_rows(*columns, block: int = 2**12):
    """The rows of equal-length array ``columns``, as Python numbers (which
    format faster than numpy scalars), converted ``block`` rows at a time
    so that no whole column of Python objects is held."""
    for i in range(0, len(columns[0]), block):
        yield from zip(*(c[i : i + block].tolist() for c in columns))


# namespace entries reported elsewhere: the top-level command, provenance's
# seed, and the directory the report itself is written to
_NOT_ECHOED = ("command", "seed", "out")


def _write_report(out_dir: Path, args: argparse.Namespace, results: dict,
                  t0: float, trace: dict | None = None) -> None:
    config = {
        key: "inf" if value == math.inf else value
        for key, value in vars(args).items()
        if key not in _NOT_ECHOED
    }
    report = {
        "command": args.command,
        "config": config,
        "results": results,
        "provenance": {
            "version": __version__,
            "seed": args.seed,
            "runtime_ms": int((time.perf_counter() - t0) * 1000),
        },
    }
    if trace is not None:
        report["trace"] = trace
    with open(out_dir / f"{args.command}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Parser(argparse.ArgumentParser):
    """argparse whose errors reach main() as one ValueError, not usage and exit.

    Flags must be spelled in full: main() reads --config out of the command
    line itself, and an abbreviation such as --conf would escape it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # no flag starts with "-digit", so a value such as --rough's -1,0.1 is a
        # value for its flag's converter to refuse, not an unknown flag
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):
        raise ValueError(message)


def _parse_k(text: str) -> float:
    if text in ("inf", "infinity", "none"):
        return math.inf
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1 or 'inf', got {text!r}")


def _int_at_least(low: int):
    """type= converter for an integer >= low."""

    def convert(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return convert


_positive_int = _int_at_least(1)


def _number_in(interval: str, contains):
    """type= converter for a number x with contains(x), described as ``interval``
    (nan fails every comparison, so it is refused wherever a bound is)."""

    def convert(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if contains(value):
            return value
        raise argparse.ArgumentTypeError(f"expected a number in {interval}, got {text!r}")

    return convert


def _exponent(text: str) -> float:
    """A finite roughness exponent >= 0 (0 turns the roughness off)."""
    value = float(text)
    if math.isfinite(value) and value >= 0:
        return value
    raise ValueError(text)


def _comma_separated(what: str, *types):
    """type= converter for 'x,y,...': one field per type, or any number of
    integers >= 1."""

    def convert(text: str) -> list:
        parts = text.split(",")
        kinds = types or (_positive_int,) * len(parts)
        if len(parts) == len(kinds):
            try:
                return [kind(part) for kind, part in zip(kinds, parts)]
            except (ValueError, argparse.ArgumentTypeError):
                pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return convert


def _hypothesis(text: str) -> list:
    """type= converter for --hyp: 'r,beta' that ExceptionalZeroHypothesis accepts."""
    r, beta = _comma_separated("r,beta (an integer and a number)", int, float)(text)
    try:
        ExceptionalZeroHypothesis.build(r, beta)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    return [r, beta]


def _config_path(argv: list[str]) -> str | None:
    """The last --config PATH or --config=PATH on the command line, if any."""
    path = None
    for flag, value in zip(argv, argv[1:] + [None]):
        if flag == "--config":
            path = value
        elif flag.startswith("--config="):
            path = flag.partition("=")[2]
    return path


def _config_flags(path: str) -> list[str]:
    """The --config file as flags: 'key = value' is --key=value, a bare 'key' is --key."""
    flags = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        flags.append(f"{flag}={value.strip()}" if eq else flag)
    return flags


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory for artifacts")
    sub.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for randomized sweeps")
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="worker count (accepted for config stability; engines are deterministic)")
    sub.add_argument("--config", default=None,
                     help="file of 'key = value' and bare 'flag' lines, applied after "
                     "the command line's flags")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twinsieve",
        description="Desk-scale verification lab for binary Goldbach convolutions "
        "with almost twin primes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "scan",
        help="exceptional-set scan",
        description="Convolve two almost-twin prime indicators over [1, N] and "
        "list m = 4 mod 6 without representations. Artifacts: scan.csv "
        "(m, count, prediction, ratio for the sampled m) and scan.json.",
    )
    p.add_argument("--N", type=_int_at_least(4), required=True)
    p.add_argument("--k1", type=_parse_k, required=True, help="factor bound for n1+2 ('inf' allowed)")
    p.add_argument("--k2", type=_parse_k, required=True)
    p.add_argument("--rough", type=_comma_separated("two comma-separated finite exponents "
                                                     "a1,a2 >= 0", _exponent, _exponent),
                   default=None, help="a1,a2 roughness exponents (default off)")
    p.add_argument("--exact", action="store_true",
                   help="accepted for config stability; counts are always exact (the "
                   "float FFT rounded under a certified roundoff bound, else the "
                   "integer transform), and every m with count 0 is re-checked by a "
                   "direct pair search")
    p.add_argument("--cutoff", type=_int_at_least(100), default=10_000,
                   help="singular-series truncation")
    p.add_argument("--samples", type=_positive_int, default=512)
    _add_common(p)

    p = subs.add_parser(
        "convolve",
        help="raw sequence convolution",
        description="Build two named sequences and write their additive "
        "convolution. Artifacts: convolve.csv (m, value) and convolve.json.",
    )
    p.add_argument("--N", type=_positive_int, required=True)
    # sieve_twisted needs a weight map, which only the library can hand over
    kinds = ["Lambda0", "Lambda", "Lambda_k", "Lambda_E3star"]
    p.add_argument("--kind1", required=True, choices=kinds)
    p.add_argument("--kind2", required=True, choices=kinds)
    p.add_argument("--k", type=_positive_int, default=3, help="k for Lambda_k kinds")
    p.add_argument("--indicator", action="store_true", help="0/1 indicator variants")
    p.add_argument("--exact", action="store_true",
                   help="exact integer counts (needs --indicator): the float FFT rounded "
                   "under a certified roundoff bound, else the integer transform")
    p.add_argument("--limit", type=_positive_int, default=200, help="rows written to CSV")
    _add_common(p)

    p = subs.add_parser(
        "sseries",
        help="singular series and main term",
        description="Singular series S(m), partial series, and the main-term "
        "pair (M, E) under an optional synthetic exceptional hypothesis. "
        "Artifact: sseries.json with {m, S, S_partial, M, E, tail_bound}.",
    )
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--cutoff", type=_int_at_least(100), default=100_000)
    p.add_argument("--hyp", type=_hypothesis, default=None,
                   help="r,beta synthetic exceptional zero")
    p.add_argument("--N", type=_positive_int, default=10_000)
    p.add_argument("--P", type=_positive_int, default=100)
    _add_common(p)

    p = subs.add_parser(
        "verify",
        help="lemma verification suites",
        description="Run identity/inequality sweeps. Suites: "
        + ", ".join(sorted(SUITES)) + ", or 'all'. Exit status is nonzero "
        "if any check fails. Artifact: verify.json pass report.",
    )
    p.add_argument("--suite", choices=["all", *sorted(SUITES)], default="all")
    p.add_argument("--fast", action="store_true", help="reduced sweep sizes")
    p.add_argument("--weights-csv", default=None,
                   help="also export the sieve weights used by the sieves suite as CSV (d, lambda_d)")
    _add_common(p)

    p = subs.add_parser(
        "sievefn",
        help="linear-sieve functions and margins",
        description="Solve the delay system for (f, F) and evaluate the "
        "numerical margins. Artifacts: sievefn.csv (s, f, F) and "
        "sievefn.json margins report.",
    )
    # p3_margin reads the functions at s = 5, so s_max starts there
    p.add_argument("--smax", type=_number_in("[5, 20]", lambda x: 5 <= x <= 20), default=10.0)
    # the march takes one cumsum per unit block, over (s_max - 1) / h nodes in all
    p.add_argument("--h", type=_number_in("[1e-5, 1]", lambda x: 1e-5 <= x <= 1), default=5e-4)
    p.add_argument("--eps", type=_number_in("(0, 0.01)", lambda x: 0 < x < 0.01), default=1e-3)
    _add_common(p)

    p = subs.add_parser(
        "bv",
        help="progression discrepancy profiles",
        description="Character-corrected discrepancy of Lambda or mu in "
        "progressions. Artifacts: bv.csv (P, q, a_max, discrepancy), "
        "bv_profile.csv (P, total), bv.json.",
    )
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--Q", type=_positive_int, required=True)
    p.add_argument("--P-list", type=_comma_separated("comma-separated integers >= 1"),
                   default="1,10,100", dest="P_list")
    p.add_argument("--weight", choices=["Lambda", "mu"], default="mu")
    _add_common(p)
    return parser


def _cmd_scan(args, out_dir: Path, t0: float) -> int:
    a1, a2 = args.rough or (0.0, 0.0)
    limit = max(args.N + 2, args.cutoff, 1000)
    table = _prime_table(args, limit, scan_peak_bytes(args.N, a1, a2, limit))
    rep = exceptional_scan(
        args.N,
        args.k1,
        args.k2,
        a1,
        a2,
        table,
        sample_count=args.samples,
        seed=args.seed,
        cutoff=args.cutoff,
    )
    rows = [
        (int(m), int(rep.counts[int(m)]), float(p), float(r))
        for m, p, r in zip(rep.sampled_m, rep.predictions, rep.ratios)
    ]
    _write_csv(out_dir / "scan.csv", ["m", "count", "prediction", "ratio"], rows)
    results = {
        "exceptional": rep.exceptional,
        "exceptional_verified": rep.verified,
        "thresholds": {"z1": rep.z1, "z2": rep.z2, "clamped": rep.clamped},
        "fitted_constant": rep.fitted_constant,
        "ratio_histogram": rep.ratio_histogram,
        "samples": len(rows),
    }
    _write_report(out_dir, args, results, t0, trace=rep.trace)
    return 0


def _cmd_convolve(args, out_dir: Path, t0: float) -> int:
    table = _prime_table(args, max(args.N + 2, 1000))
    s1 = build_sequence(args.kind1, args.N, table, k=args.k, indicator=args.indicator)
    s2 = build_sequence(args.kind2, args.N, table, k=args.k, indicator=args.indicator)
    conv = convolve(s1, s2, "exact" if args.exact else "float")
    ms = range(2, min(2 * args.N, args.limit * 2) + 1, 2)
    _write_csv(out_dir / "convolve.csv", ["m", "value"], [(m, conv.values[m]) for m in ms])
    results = {
        "total_mass": float(conv.values.sum()),
        "max_value": float(conv.values.max()),
        "rows_written": len(list(ms)),
    }
    _write_report(out_dir, args, results, t0, trace=conv.trace)
    return 0


def _cmd_sseries(args, out_dir: Path, t0: float) -> int:
    # m, m + 2 and m + 4 need only the primes up to their square root:
    # factorize_extended trial-divides by the table's primes up to limit^2
    table = _prime_table(args, max(args.cutoff, math.isqrt(args.m + 4) + 1, 1000))
    sval = singular_series(args.m, args.cutoff, table)
    hyp = ExceptionalZeroHypothesis.build(*args.hyp) if args.hyp else None
    partial_primes = {2} | (set(hyp.odd_primes()) if hyp else set())
    s_partial = partial_singular_series(args.m, partial_primes)
    rep = main_term_M(args.m, args.N, args.P, hyp)
    results = {
        "m": args.m,
        "S": sval.value,
        "S_partial": s_partial,
        "M": rep.M,
        "E": rep.E,
        "tail_bound": sval.tail_bound,
        "components": {
            k: v for k, v in rep.components.items() if not isinstance(v, dict)
        },
    }
    _write_report(out_dir, args, results, t0)
    return 0


def _cmd_verify(args, out_dir: Path, t0: float) -> int:
    # the export reads no suite, so a path that cannot be written fails
    # here, before seconds of sweeps
    if args.weights_csv:
        w = linear_sieve(10**4, 100, 10, "lower", build_prime_table(100))
        _write_csv(Path(args.weights_csv), ["d", "lambda_d"], sorted(w.coefficients.items()))
    res = run_suite(args.suite, full=not args.fast)
    for check in res["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        line = f"[{mark}] {check['check']}"
        if check["detail"]:
            line += f" :: {check['detail']}"
        print(line)
    results = {"suite": args.suite, "passed": res["passed"], "checks": res["checks"]}
    _write_report(out_dir, args, results, t0, trace=res["trace"])
    return 0 if res["passed"] else 1


def _cmd_sievefn(args, out_dir: Path, t0: float) -> int:
    # chen_margin reads f and F up to s = (1/2 - eps) 15, past a --smax below
    # 7.5: the march runs on to that node, and its values up to --smax do not
    # depend on where it stops.  Nothing is written until every result is in.
    s_max = max(args.smax, margin_grid_end(args.eps, args.h))
    _check_budget(args, sievefn_peak_bytes(s_max, args.h))
    fns = solve_linear_sieve_functions(s_max, args.h)
    consts = chen_constants(args.eps)
    results = {
        "junction_error": float(fns.junction_error),
        "p3_margin": p3_margin(fns),
        "c_B1": consts.c_B1,
        "c_B2": consts.c_B2,
        "c_E3star": consts.c_E3star,
        "quad_error": consts.quad_error,
        "chen_margins": chen_margin(fns, consts, args.eps),
    }
    # the nodes a march to --smax makes: s increases, so they are a prefix
    shown = int(fns.s.searchsorted(args.smax + fns.h / 2, side="right"))
    _write_csv(out_dir / "sievefn.csv", ["s", "f", "F"],
               _block_rows(fns.s[:shown], fns.f[:shown], fns.F[:shown]))
    _write_report(out_dir, args, results, t0)
    return 0


def _cmd_bv(args, out_dir: Path, t0: float) -> int:
    if args.Q > args.N:
        raise ValueError(f"argument --Q: expected an integer <= --N ({args.N}), got {args.Q}")
    # Lambda reads the primes <= N; mu only those <= isqrt(N)
    limit = max(args.N if args.weight == "Lambda" else math.isqrt(args.N) + 1, 1000)
    plan = bv_peak_bytes(args.N, args.Q, max(args.P_list), args.weight, limit)
    table = _prime_table(args, limit, plan)
    profile = bv_profile(args.N, args.Q, args.P_list, args.weight, table)
    rows = profile.rows
    _write_csv(
        out_dir / "bv.csv",
        ["P", "q", "a_max", "discrepancy"],
        [(r["P"], r["q"], r["a_max"], r["discrepancy"]) for r in rows],
    )
    totals = profile_totals(rows)
    _write_csv(out_dir / "bv_profile.csv", ["P", "total"], sorted(totals.items()))
    results = {"totals": {str(k): v for k, v in sorted(totals.items())}}
    _write_report(out_dir, args, results, t0, trace=profile.trace)
    return 0


_HANDLERS = {
    "scan": _cmd_scan,
    "convolve": _cmd_convolve,
    "sseries": _cmd_sseries,
    "verify": _cmd_verify,
    "sievefn": _cmd_sievefn,
    "bv": _cmd_bv,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        path = _config_path(argv)
        # the file's flags go last, so its values win over the command line's
        args = parser.parse_args(argv + (_config_flags(path) if path else []))
        t0 = time.perf_counter()
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](args, out_dir, t0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
