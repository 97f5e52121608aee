"""The benchmark's workloads and the metric tables it reports.

Each workload is one ``twinsieve`` CLI invocation at a fixed size.  The
harness appends ``--seed <seed> --threads 1 --out <dir>`` to its argv.
The workload reasons and every metric's unit and better-direction are
read from ``BENCHMARK.json`` at the checkout's root; the argv, the output
check and the traced functions live here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    check: str  # "scan", "bv" or "verify": which output check applies
    params: dict = field(default_factory=dict)


_SCAN = ("scan", "--N", "1000000", "--k1", "2", "--k2", "3", "--rough", "0.0667,0.1")
_SCAN_PARAMS = {"N": 10**6, "k1": 2, "k2": 3, "alpha1": 0.0667, "alpha2": 0.1,
                "samples": 512, "exceptional": [4]}

# name -> (argv, check, check parameters)
_RUNS = {
    "scan-exact": (_SCAN + ("--exact",), "scan", {**_SCAN_PARAMS, "cutoff": 10_000}),
    "bv-mu": (("bv", "--N", "1000000", "--Q", "500", "--P-list", "1,10,100", "--weight", "mu"),
              "bv", {}),
    "verify-fast": (("verify", "--suite", "all", "--fast"), "verify", {}),
}

WORKLOADS = {w["name"]: Workload(w["name"], _RUNS[w["name"]][0], w["why"], *_RUNS[w["name"]][1:])
             for w in SPEC["workloads"]}

# name -> (unit, better), in the order they are printed
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}

# Public functions the traced run wraps, by module of definition.
TRACED = {
    "arith": ("build_prime_table",),
    "characters": ("primitive_characters",),
    "singular": ("singular_series",),
    "sieves": ("linear_sieve",),
    "sievefn": ("solve_linear_sieve_functions",),
    "ntt": ("exact_convolve", "float_convolve"),
    "convolve": ("build_sequence", "convolve", "exceptional_scan"),
    "progressions": ("weight_array", "bv_profile"),
    "verify": ("run_suite", "suite_characters", "suite_sieves", "suite_singular",
               "suite_sievefn", "suite_convolution", "suite_scan", "suite_bv"),
    "cli": ("main",),
}

# Work counters of the traced run and how each is obtained: "computed"
# ones are derived from argument sizes, "counted" ones from the values the
# functions return.
COUNTERS = {
    "ntt.transform_len": "computed",
    "ntt.bytes_computed": "computed",
    "convolve.exceptional_m": "counted",
    "convolve.sampled_m": "counted",
    "singular.primes_per_call": "computed",
    "progressions.moduli": "computed",
    "progressions.characters_summed": "counted",
    "arith.primes": "counted",
    "verify.checks": "counted",
    "verify.checks_failed": "counted",
}


def traced_metric_names() -> list[str]:
    """Every metric the traced run reports, from TRACED and COUNTERS."""
    names = [f"{module}.{fn}.{kind}" for module, fns in TRACED.items() for fn in fns
             for kind in ("ms", "self_ms", "calls")]
    return [*names, *COUNTERS, "setup.import_ms", "trace.overhead_s"]


# Which end-to-end metric each per-layer metric should move, and on which
# workloads, written down before any optimisation is measured.
LAYER_MAP = {
    "ntt.exact_convolve.ms ntt.transform_len ntt.bytes_computed":
        ("wall_s cpu_s peak_rss_mb", "scan-exact"),
    "ntt.float_convolve.ms": ("wall_s (small share)", "verify-fast"),
    "convolve.exceptional_scan.self_ms convolve.exceptional_m convolve.sampled_m":
        ("wall_s", "scan-exact"),
    "convolve.convolve.ms": ("wall_s", "scan-exact verify-fast"),
    "singular.singular_series.ms singular.singular_series.calls singular.primes_per_call":
        ("wall_s", "verify-fast"),
    "progressions.bv_profile.ms progressions.bv_profile.self_ms progressions.weight_array.ms "
    "progressions.moduli progressions.characters_summed": ("wall_s cpu_s", "bv-mu"),
    "characters.primitive_characters.ms characters.primitive_characters.calls":
        ("wall_s", "bv-mu verify-fast"),
    "arith.build_prime_table.ms arith.build_prime_table.calls arith.primes":
        ("wall_s (small share)", "all"),
    "verify.suite_*.ms verify.checks verify.checks_failed": ("wall_s", "verify-fast"),
    "sievefn.solve_linear_sieve_functions.ms sieves.linear_sieve.ms": ("wall_s", "verify-fast"),
    "cli.main.ms cli.main.self_ms": ("wall_s", "all"),
    "setup.import_ms": ("setup_s", "all"),
    "trace.overhead_s": ("none; sizes the tracing cost", "all"),
}
