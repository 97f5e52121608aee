"""Span recorder for the traced run, and the per-layer numbers derived from it.

``Recorder.install`` replaces each function named in ``workloads.TRACED``
at every module-level binding in the loaded ``twinsieve`` modules (and in
``verify.SUITES``) with a wrapper that records one span per call: id,
parent id, name, the module whose binding was called, start and end.
Spans stay in memory until ``Recorder.dump``.  ``summarize`` turns a span
list into inclusive time, self time, call counts and work counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from workloads import TRACED


def _transform_counters(passes):
    """Transform length and bytes touched by ``passes`` radix-2 passes of
    log2(n) stages over n eight-byte words (a model, not a measurement)."""

    def count(args, result, via):
        out_len = len(args["a"]) + len(args["b"]) - 1
        n = 1 << max(out_len - 1, 0).bit_length()
        return {"ntt.transform_len": n,
                "ntt.bytes_computed": passes * (n.bit_length() - 1) * n * 8}

    return count


def _suite_counters(name):
    def count(args, result, via):
        failed = sum(1 for c in result if not c["passed"])
        return {"verify.checks": len(result), "verify.checks_failed": failed,
                f"verify.{name}.checks": len(result)}

    return count


def _series_counters(args, result, via):
    table = args["table"]
    looped = len(table.primes_upto(args["cutoff"])) if table is not None else 0
    return {"singular.primes_looped": looped}


def _characters_counters(args, result, via):
    return {"progressions.characters_summed": len(result)} if via == "progressions" else {}


COUNTER_HOOKS = {
    "ntt.exact_convolve": _transform_counters(6),  # 2 moduli x 3 transforms
    "ntt.float_convolve": _transform_counters(3),  # 3 real FFTs
    "convolve.exceptional_scan": lambda args, r, via: {
        "convolve.exceptional_m": len(r.exceptional), "convolve.sampled_m": len(r.sampled_m)},
    "singular.singular_series": _series_counters,
    "progressions.bv_profile": lambda args, r, via: {"progressions.moduli": args["Q"]},
    "characters.primitive_characters": _characters_counters,
    "arith.build_prime_table": lambda args, r, via: {"arith.primes": len(r.primes)},
    **{f"verify.{s}": _suite_counters(s) for s in TRACED["verify"] if s.startswith("suite_")},
}


class Recorder:
    """Collects spans of one traced process, single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, via: str):
        hook = COUNTER_HOOKS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "name": name, "via": via}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counters"] = hook(bound.arguments, result, via)
            return result

        return traced

    def install(self) -> None:
        """Wrap every module-level binding of the traced functions."""
        modules = {name.removeprefix("twinsieve."): mod for name, mod in sys.modules.items()
                   if name.startswith("twinsieve.") and mod is not None}
        originals = {id(getattr(modules[module], fn)): f"{module}.{fn}"
                     for module, names in TRACED.items() for fn in names}
        for via, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, self.wrap(value, originals[id(value)], via))
        suites = modules["verify"].SUITES
        for key, value in list(suites.items()):
            if id(value) in originals:
                suites[key] = self.wrap(value, originals[id(value)], "verify.SUITES")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _covered(start: float, end: float, children: list[dict]) -> float:
    """Length of [start, end] covered by the union of the child intervals."""
    total = 0.0
    reach = start
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], reach), min(c["end"], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-function ``.ms`` (inclusive; a call nested in a call of the same
    function is not counted twice), ``.self_ms`` and ``.calls``, plus the
    summed work counters, from one traced process's spans."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ms"] += (dur - _covered(s["start"], s["end"], children[s["id"]])) * 1e3
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out[f"{name}.ms"] += dur * 1e3
        for key, value in s.get("counters", {}).items():
            out[key] += value
    calls = out.get("singular.singular_series.calls", 0)
    looped = out.pop("singular.primes_looped", 0.0)
    out["singular.primes_per_call"] = looped / calls if calls else 0.0
    return dict(out)
